//! The observability acceptance test: one end-to-end compile + simulate run
//! under tracing produces a Chrome trace with at least one span from every
//! pipeline layer (frontend, e-graph, ISA, runtime JIT, simulator), the
//! exported JSON loads back as valid JSON with balanced per-track nesting,
//! and running with tracing disabled records nothing and changes no result.

use infs_bench::{matrix::run_one, ConfigName, Ctx};
use infs_sim::RunPlan;
use std::sync::{Mutex, MutexGuard};

/// Both tests read and reset the process-wide collector, one of them with
/// tracing off and so outside any `exclusive()` session: each holds this for
/// its whole body, or the untraced half of one wipes (or sees) the other's
/// spans.
static COLLECTOR_USER: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; it guards no data of its own.
    COLLECTOR_USER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn one_run_traces_every_pipeline_stage() {
    let _serial = serialized();
    let session = infs_trace::exclusive();
    let ctx = Ctx::new(true);
    let stats = run_one("stencil1d", ConfigName::InL3, &ctx, RunPlan::default())
        .expect("stencil1d simulates");
    assert!(stats.cycles > 0);
    let snap = infs_trace::snapshot();
    drop(session);

    assert_eq!(snap.dropped, 0, "trace buffers overflowed on a tiny run");
    for stage in ["frontend", "egraph", "isa", "runtime", "sim"] {
        assert!(
            snap.spans_with_prefix(stage) >= 1,
            "no '{stage}.*' span in the trace; got: {:?}",
            snap.events.iter().map(|e| &e.name).collect::<Vec<_>>()
        );
    }
    if let Err(pair) = snap.check_nesting() {
        panic!("unbalanced nesting: {} / {}", pair.0.name, pair.1.name);
    }

    // The export round-trips through a real JSON parser.
    let json = snap.chrome_json();
    let v: serde::Value = serde_json::from_str(&json).expect("chrome export is valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    // Every snapshot span appears, plus at least the process metadata.
    assert!(events.len() > snap.events.len());
    let complete = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .count();
    assert_eq!(complete, snap.events.len());
    // Simulator spans land on their own process so the cycle timeline zooms
    // independently of wall-clock compile spans.
    let pids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter_map(|e| match e.get("pid") {
            Some(&serde::Value::Int(i)) => Some(i as u64),
            Some(&serde::Value::UInt(u)) => Some(u),
            _ => None,
        })
        .collect();
    assert!(pids.len() >= 2, "expected host and sim processes: {pids:?}");

    // Counters from the runtime JIT made it into the metrics export.
    let mv: serde::Value =
        serde_json::from_str(&snap.metrics_json()).expect("metrics export is valid JSON");
    let counters = mv
        .get("counters")
        .and_then(|c| c.as_object())
        .expect("counters object");
    assert!(
        counters.iter().any(|(k, _)| k.starts_with("jit.")),
        "no jit.* counter in metrics: {counters:?}"
    );
}

#[test]
fn disabled_tracing_records_nothing_and_changes_nothing() {
    let _serial = serialized();
    let ctx = Ctx::new(true);
    let traced = {
        let _session = infs_trace::exclusive();
        run_one("stencil1d", ConfigName::InL3, &ctx, RunPlan::default()).expect("traced run")
    };
    // exclusive() has dropped: tracing is off again.
    infs_trace::clear();
    assert!(!infs_trace::enabled());
    let plain =
        run_one("stencil1d", ConfigName::InL3, &ctx, RunPlan::default()).expect("untraced run");
    assert_eq!(
        infs_trace::snapshot().events.len(),
        0,
        "disabled tracing must record nothing"
    );
    assert_eq!(
        traced.cycles, plain.cycles,
        "tracing must not change simulated timing"
    );
}
