//! Serve-layer autotuning acceptance (`DESIGN.md` §15): under a fixed seed
//! the tuned server replays bit-for-bit (decisions, cycles, outputs), a
//! promoted variant's outputs stay bitwise-identical to the incumbent's, and
//! the metrics verb surfaces the tune counters.

use infs_serve::{
    demo, ArrayPayload, CompileRequest, ExecuteRequest, PipelineRequest, Request, RequestBody,
    ServeConfig, Server, TuneConfig, WireMode,
};

const D: u64 = 256;
const CHAIN: u32 = 8;

/// One worker, batching off: sequential `call`s make the request order — and
/// with it every tune decision — deterministic.
fn server(tune: Option<TuneConfig>) -> Server {
    Server::new(ServeConfig {
        workers: 1,
        batching: false,
        tune,
        auditor: Some(infs_check::auditor()),
        ..ServeConfig::default()
    })
}

/// The soak's tuner: hotter exploration and a lower sample floor than the
/// serving default so convergence fits a short test budget.
fn tune_cfg(seed: u64) -> TuneConfig {
    TuneConfig {
        explore_percent: 50,
        min_samples: 2,
        ..TuneConfig::seeded(seed)
    }
}

fn compile(server: &Server) -> String {
    let r = server.call(Request {
        id: 0,
        tenant: "tune".into(),
        deadline_ms: None,
        body: RequestBody::Compile(CompileRequest {
            kernel: demo::mat_update(D, CHAIN),
            representative_syms: vec![],
            // Unoptimized on purpose: the preserved op ladder is what pushes
            // the kernel past Eq-2's crossover, where the static heuristic
            // wrongly picks in-memory and the tuner has something to win.
            optimize: false,
        }),
    });
    assert!(r.ok, "compile failed: {:?}", r.error);
    r.artifact.expect("compile yields an artifact")
}

fn execute(server: &Server, id: u64, artifact: &str) -> infs_serve::Response {
    let a: Vec<f32> = (0..D * D).map(|x| 1.0 + (x % 7) as f32 * 0.125).collect();
    let b: Vec<f32> = (0..D * D).map(|x| 0.5 + (x % 5) as f32 * 0.25).collect();
    let r = server.call(Request {
        id,
        tenant: "tune".into(),
        deadline_ms: None,
        body: RequestBody::Execute(ExecuteRequest {
            artifact: Some(artifact.to_string()),
            binary: None,
            region: "mat_update".into(),
            syms: vec![],
            params: vec![],
            mode: WireMode::InfS,
            inputs: vec![
                ArrayPayload { array: 0, data: a },
                ArrayPayload { array: 1, data: b },
            ],
            outputs: vec![2],
        }),
    });
    assert!(r.ok, "execute {id} failed: {:?}", r.error);
    r
}

/// (variant label, explored, simulated cycles, where it ran) per request —
/// the full observable tuning trace.
fn drive(server: &Server, requests: u64) -> Vec<(String, bool, u64, String)> {
    let artifact = compile(server);
    (0..requests)
        .map(|i| {
            let r = execute(server, 1 + i, &artifact);
            (
                r.stats.tuned_variant.clone().unwrap_or_default(),
                r.stats.tuned_explore,
                r.stats.cycles,
                r.stats.executed.clone().unwrap_or_default(),
            )
        })
        .collect()
}

#[test]
fn identical_seeds_replay_identical_tuning_traces() {
    let run = |seed| {
        let s = server(Some(tune_cfg(seed)));
        let log = drive(&s, 24);
        s.shutdown();
        log
    };
    let first = run(0x5EED);
    let second = run(0x5EED);
    assert_eq!(first, second, "same seed must replay the same trace");

    let other = run(0xD1FF);
    let explores = |log: &[(String, bool, u64, String)]| -> Vec<bool> {
        log.iter().map(|(_, e, _, _)| *e).collect()
    };
    assert_ne!(
        explores(&first),
        explores(&other),
        "a different seed must shift the explore schedule"
    );
}

#[test]
fn promoted_variant_output_is_bitwise_identical_to_static() {
    // Static reference: the same workload on an untuned server.
    let static_server = server(None);
    let artifact = compile(&static_server);
    let reference: Vec<u32> = execute(&static_server, 1, &artifact).outputs[0]
        .data
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let static_cycles = execute(&static_server, 2, &artifact).stats.cycles;
    static_server.shutdown();

    let tuned_server = server(Some(tune_cfg(0x7C3A_11E5)));
    let artifact = compile(&tuned_server);
    let mut last_exploit = None;
    for i in 0..48u64 {
        let r = execute(&tuned_server, 1 + i, &artifact);
        let bits: Vec<u32> = r.outputs[0].data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits, reference,
            "request {i} (variant {:?}) diverges bitwise from the static reference",
            r.stats.tuned_variant
        );
        if !r.stats.tuned_explore {
            last_exploit = Some(r);
        }
    }
    let m = tuned_server.metrics();
    assert!(m.tune_promotions >= 1, "soak never promoted: {m:?}");
    assert!(m.tune_explored > 0 && m.tune_exploited > 0);
    assert_eq!(m.tune_artifacts, 1);

    // After promotion the steady state serves the promoted variant — off
    // the static heuristic's (wrong) in-memory placement — strictly faster.
    let last = last_exploit.expect("soak has exploit requests");
    assert_eq!(
        last.stats.tuned_variant.as_deref(),
        Some("tier:near-memory")
    );
    assert_eq!(last.stats.executed.as_deref(), Some("near-memory"));
    assert!(
        last.stats.cycles < static_cycles,
        "steady tuned {} must beat static {static_cycles}",
        last.stats.cycles
    );
    tuned_server.shutdown();
}

#[test]
fn untuned_server_reports_zero_tune_counters() {
    let s = server(None);
    let artifact = compile(&s);
    let r = execute(&s, 1, &artifact);
    assert_eq!(r.stats.tuned_variant, None);
    assert!(!r.stats.tuned_explore);
    let m = s.metrics();
    assert_eq!(
        (
            m.tune_explored,
            m.tune_exploited,
            m.tune_promotions,
            m.tune_demotions,
            m.tune_artifacts
        ),
        (0, 0, 0, 0, 0)
    );
    s.shutdown();
}

fn pipeline(server: &Server, id: u64, fused: bool) -> infs_serve::Response {
    let n = 4096u64;
    let r = server.call(Request {
        id,
        tenant: "tune".into(),
        deadline_ms: None,
        body: RequestBody::Pipeline(PipelineRequest {
            graph: demo::pipeline(n, 2.0).to_json().unwrap(),
            mode: WireMode::InfS,
            fused,
            inputs: vec![ArrayPayload {
                array: 0,
                data: (0..n).map(|i| 0.25 * i as f32).collect(),
            }],
            outputs: vec![3],
        }),
    });
    assert!(r.ok, "pipeline {id} failed: {:?}", r.error);
    r
}

/// The tuned Pipeline path: fused requests are routed through the residency
/// policy the tuner picks — both get served — and whichever it picks, the
/// reply's outputs are the untuned server's bit for bit. An explicit
/// round-trip request is a baseline measurement and never tuned.
#[test]
fn tuned_pipeline_explores_the_round_trip_bitwise_identically() {
    let bits = |r: &infs_serve::Response| -> Vec<u32> {
        r.outputs[0].data.iter().map(|v| v.to_bits()).collect()
    };
    let static_server = server(None);
    let reference = pipeline(&static_server, 1, true);
    assert_eq!(reference.stats.tuned_variant, None);
    static_server.shutdown();

    let tuned_server = server(Some(tune_cfg(0x5EED)));
    let mut variants = std::collections::BTreeSet::new();
    for i in 0..16u64 {
        let r = pipeline(&tuned_server, 1 + i, true);
        let variant = r.stats.tuned_variant.clone().expect("fused is tuned");
        assert_eq!(
            bits(&r),
            bits(&reference),
            "request {i} ({variant}) diverges bitwise from the untuned server"
        );
        if variant == "pipeline:round-trip" {
            // The reply reports the schedule that actually ran.
            let hidden = |s: &infs_serve::StageStats| s.prefetch_hidden_cycles;
            assert!(r.stats.stages.iter().all(|s| hidden(s) == 0));
        }
        variants.insert(variant);
    }
    assert_eq!(
        variants.into_iter().collect::<Vec<_>>(),
        ["baseline", "pipeline:round-trip"]
    );

    let before = tuned_server.metrics();
    let r = pipeline(&tuned_server, 100, false);
    assert_eq!(
        r.stats.tuned_variant, None,
        "explicit round trip is never tuned"
    );
    assert!(!r.stats.tuned_explore);
    assert_eq!(bits(&r), bits(&reference));
    let after = tuned_server.metrics();
    assert_eq!(
        (after.tune_explored, after.tune_exploited),
        (before.tune_explored, before.tune_exploited),
        "an untuned request must not touch the tuner"
    );
    tuned_server.shutdown();
}
