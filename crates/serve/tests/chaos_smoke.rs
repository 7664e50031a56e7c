//! The chaos acceptance test (`DESIGN.md` §10): a server under a seeded
//! fault plan — dead banks, injected worker panics, artifact corruption —
//! answers every request with success or a typed error (never a hang), its
//! degraded outputs stay bit-identical to the healthy host reference, JIT
//! corruption self-heals, identical seeds reproduce identical outcomes, and
//! graceful shutdown still drains everything admitted.

use infs_faults::{FaultConfig, RetryPolicy};
use infs_serve::{
    demo, ArrayPayload, Client, ExecuteRequest, HealthReport, Request, RequestBody, Response,
    ServeConfig, Server, Submitted, WireError, WireMode,
};
use std::sync::Arc;

/// Injected worker panics are expected noise here; keep them out of the test
/// output while leaving real assertion panics fully reported.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.contains("injected worker fault") {
                default(info);
            }
        }));
    });
}

/// Every error kind a chaos run may legitimately produce. Anything else —
/// or a hang — is a failure of the degradation ladder.
fn assert_typed(step: &str, r: &Response) {
    if r.ok {
        return;
    }
    let kind = r
        .error
        .as_ref()
        .map(|e| e.kind.as_str())
        .expect("failure responses carry an error");
    let allowed = [
        WireError::WORKER_FAULT,
        WireError::UNKNOWN_ARTIFACT,
        WireError::BACKPRESSURE,
        WireError::TIMEOUT,
        WireError::SHUTTING_DOWN,
    ];
    assert!(
        allowed.contains(&kind),
        "{step}: untyped failure kind '{kind}'"
    );
}

/// The chaos preset used by every test below: aggressive panic and
/// corruption rates (so a short run sees several of each) plus enough dead
/// banks to break the in-memory quorum, and none of the latency-only NoC
/// noise (covered by the simulator-level degradation tests).
fn chaos(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        dead_banks: 40, // 24 of 64 healthy: below the in-memory quorum
        worker_panic_period: 7,
        artifact_corrupt_period: 4,
        ..FaultConfig::none()
    }
}

fn chaos_server(seed: u64) -> Server {
    Server::new(ServeConfig {
        workers: 2,
        faults: Some(chaos(seed)),
        ..ServeConfig::default()
    })
}

/// Small enough that even healthy Inf-S stays on the stream engines, so the
/// chaos matrix is cheap per request.
const N: u64 = 256;
/// Large enough that healthy Inf-S goes in-memory (the JIT-carrying path).
const N_BIG: u64 = 1 << 17;

fn compile_req(id: u64, n: u64) -> Request {
    Request {
        id,
        tenant: "chaos".into(),
        deadline_ms: None,
        body: RequestBody::Compile(infs_serve::CompileRequest {
            kernel: demo::vec_add(n),
            representative_syms: vec![],
            optimize: true,
        }),
    }
}

fn execute_req(id: u64, artifact: &str, n: u64) -> Request {
    let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let b: Vec<f32> = (0..n).map(|i| (3 * i) as f32).collect();
    Request {
        id,
        tenant: "chaos".into(),
        deadline_ms: None,
        body: RequestBody::Execute(ExecuteRequest {
            artifact: Some(artifact.to_string()),
            binary: None,
            region: "vec_add".to_string(),
            syms: vec![],
            params: vec![],
            mode: WireMode::InfS,
            inputs: vec![
                ArrayPayload { array: 0, data: a },
                ArrayPayload { array: 1, data: b },
            ],
            outputs: vec![2],
        }),
    }
}

/// Healthy host reference, computed on a fault-free server.
fn host_reference() -> Vec<f32> {
    let server = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let r = server.call(compile_req(0, N));
    assert!(r.ok, "reference compile failed: {:?}", r.error);
    let artifact = r.artifact.unwrap();
    let mut req = execute_req(1, &artifact, N);
    if let RequestBody::Execute(e) = &mut req.body {
        e.mode = WireMode::Base;
    }
    let r = server.call(req);
    assert!(r.ok, "reference execute failed: {:?}", r.error);
    server.shutdown();
    r.outputs[0].data.clone()
}

/// Drives one deterministic request sequence against a chaos server,
/// recovering exactly as a client would: worker faults are retried, a
/// corruption-evicted artifact is recompiled. Returns the per-request
/// outcome log for reproducibility comparison.
fn drive(server: &Server, reference: &[f32], requests: u64) -> Vec<(u64, String)> {
    let mut log = Vec::new();
    let mut id = 0u64;
    let mut next = || {
        id += 1;
        id
    };
    let mut artifact = {
        let r = call_with_recovery(server, &mut next, compile_req(0, N), &mut log);
        r.artifact.expect("recovered compile yields an artifact")
    };
    for _ in 0..requests {
        let req = execute_req(next(), &artifact, N);
        let r = call_with_recovery(server, &mut next, req, &mut log);
        if !r.ok {
            // The artifact was corruption-evicted mid-sequence: recompile
            // (recovery), then the next iteration proceeds against it.
            assert_eq!(
                r.error.as_ref().unwrap().kind,
                WireError::UNKNOWN_ARTIFACT,
                "only eviction survives recovery: {:?}",
                r.error
            );
            let recompile = compile_req(next(), N);
            let c = call_with_recovery(server, &mut next, recompile, &mut log);
            artifact = c.artifact.expect("recompile yields an artifact");
            continue;
        }
        assert_eq!(
            r.outputs[0].data, reference,
            "degraded output diverges from the host reference"
        );
        assert_eq!(
            r.stats.executed.as_deref(),
            Some("near-memory"),
            "below quorum the ladder must land on the stream engines"
        );
    }
    log
}

/// Calls the server, retrying injected worker faults a bounded number of
/// times, and logs every outcome.
fn call_with_recovery(
    server: &Server,
    next: &mut impl FnMut() -> u64,
    req: Request,
    log: &mut Vec<(u64, String)>,
) -> Response {
    let mut req = req;
    for _ in 0..16 {
        let r = server.call(req.clone());
        assert_typed("chaos", &r);
        let kind = r
            .error
            .as_ref()
            .map(|e| e.kind.clone())
            .unwrap_or_else(|| "ok".to_string());
        log.push((r.id, kind.clone()));
        if kind != WireError::WORKER_FAULT {
            return r;
        }
        req.id = next(); // retry as a fresh request, like a real client
    }
    panic!("16 consecutive injected worker faults: schedule is broken");
}

#[test]
fn chaos_run_survives_with_typed_errors_and_bit_identical_outputs() {
    quiet_injected_panics();
    let reference = host_reference();
    let server = chaos_server(0xC4A05);
    let log = drive(&server, &reference, 40);

    // The schedule actually bit: panics were isolated and artifacts rotted.
    assert!(
        server.worker_faults() > 0,
        "worker-panic schedule never fired"
    );
    assert!(
        log.iter().any(|(_, k)| k == WireError::WORKER_FAULT),
        "no worker fault surfaced to the client"
    );

    // The health verb reports the degradation honestly.
    let r = server.call(Request {
        id: 9_000,
        tenant: "probe".into(),
        deadline_ms: None,
        body: RequestBody::Health,
    });
    assert!(r.ok);
    let h = r.health.expect("health verb returns a report");
    assert_eq!(h.status, HealthReport::DEGRADED);
    assert_eq!(h.total_banks, 64);
    assert_eq!(h.healthy_banks, 24);
    assert_eq!(h.worker_faults, server.worker_faults());

    let stats = server.shutdown();
    assert!(stats.served > 40);
}

#[test]
fn identical_seeds_reproduce_identical_outcomes() {
    quiet_injected_panics();
    let reference = host_reference();
    let run = |seed| {
        let server = chaos_server(seed);
        let log = drive(&server, &reference, 30);
        let faults = server.worker_faults();
        let corruptions = server.health().artifact_corruptions;
        server.shutdown();
        (log, faults, corruptions)
    };
    let first = run(0x5EED);
    let second = run(0x5EED);
    assert_eq!(first, second, "same seed must replay the same chaos");
    let other = run(0xD1FF);
    assert_ne!(
        first.0, other.0,
        "different seeds should produce different schedules"
    );
}

#[test]
fn jit_corruption_self_heals_mid_run() {
    let server = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let r = server.call(compile_req(0, N_BIG));
    let artifact = r.artifact.unwrap();
    let clean = server.call(execute_req(1, &artifact, N_BIG));
    assert!(clean.ok, "clean execute failed: {:?}", clean.error);
    assert_eq!(
        clean.stats.executed.as_deref(),
        Some("in-memory"),
        "the JIT test must exercise the in-memory (command-lowering) path"
    );

    // Rot every memoized command stream; the digests no longer verify.
    assert!(server.jit().corrupt_all() > 0, "first run must memoize");
    let healed = server.call(execute_req(2, &artifact, N_BIG));
    assert!(healed.ok, "corrupted JIT entry must re-lower, not fail");
    assert_eq!(healed.outputs[0].data, clean.outputs[0].data);
    assert_eq!(
        healed.stats.jit_cache_hit,
        Some(false),
        "corrupted entry must read as a miss"
    );
    assert!(server.jit().corruptions() > 0);
    assert_eq!(server.health().status, HealthReport::DEGRADED);

    // The re-lowered entry is clean again: next run hits.
    let again = server.call(execute_req(3, &artifact, N_BIG));
    assert!(again.ok);
    assert_eq!(again.stats.jit_cache_hit, Some(true));
    server.shutdown();
}

#[test]
fn shutdown_drains_every_admitted_request_under_chaos() {
    quiet_injected_panics();
    let server = chaos_server(0xA11);
    server.pause();
    let mut tickets = Vec::new();
    for i in 0..8u64 {
        match server.submit(compile_req(i, N)) {
            Submitted::Admitted(t) => tickets.push(t),
            Submitted::Rejected(r) => panic!("rejected under default queue: {:?}", r.error),
        }
    }
    server.begin_shutdown();
    for t in tickets {
        // Success or typed failure — but every ticket is answered.
        assert_typed("drain", &t.wait());
    }
    assert_eq!(server.health().status, HealthReport::DRAINING);
    server.shutdown();
}

#[test]
fn tcp_backpressure_resolves_with_retry_and_backoff() {
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(Server::new(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        retry_after_ms: 5,
        ..ServeConfig::default()
    }));
    let accept = {
        let server = server.clone();
        std::thread::spawn(move || {
            infs_serve::serve_reactor(&server, listener, &infs_shard::ReactorConfig::default())
        })
    };
    let ping = |id: u64| Request {
        id,
        tenant: "fill".into(),
        deadline_ms: None,
        body: RequestBody::Ping,
    };

    // Hold the single worker and fill to capacity: one job in the worker's
    // hands (it pops, then blocks at the pause gate) plus two queued. The
    // worker pops at most once while paused, so retrying the fill until
    // three are admitted is race-free, and afterwards the queue stays full.
    server.pause();
    let mut tickets = Vec::new();
    let mut id = 0u64;
    let t0 = std::time::Instant::now();
    while tickets.len() < 3 {
        assert!(t0.elapsed().as_secs() < 10, "fill never admitted 3");
        id += 1;
        match server.submit(ping(id)) {
            Submitted::Admitted(t) => tickets.push(t),
            Submitted::Rejected(_) => std::thread::sleep(std::time::Duration::from_millis(1)),
        }
    }
    assert_eq!(server.queue_len(), 2, "queue must now sit at capacity");

    // With worker and queue both full, rejection is deterministic.
    match server.submit(ping(99)) {
        Submitted::Rejected(r) => {
            let e = r.error.unwrap();
            assert_eq!(e.kind, WireError::BACKPRESSURE);
            assert_eq!(e.retry_after_ms, Some(5), "rejection carries the hint");
        }
        Submitted::Admitted(_) => panic!("full queue admitted a request"),
    }

    // A retrying TCP client started against the still-full queue succeeds
    // once the pool resumes — bounded attempts, exponential backoff with
    // deterministic jitter, floored at the server's retry-after hint.
    let retryer = std::thread::spawn(move || {
        let mut client = Client::connect(addr, "retry").unwrap();
        let policy = RetryPolicy {
            max_attempts: 10,
            base_ms: 5,
            cap_ms: 100,
            seed: 42,
        };
        client
            .request_with_retry(None, RequestBody::Ping, &policy)
            .unwrap()
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    server.resume();
    let r = retryer.join().unwrap();
    assert!(
        r.ok,
        "retried request must eventually succeed: {:?}",
        r.error
    );

    // Everything admitted during the squeeze was answered.
    for t in tickets {
        assert!(t.wait().ok);
    }
    server.begin_shutdown();
    accept.join().unwrap().unwrap();
    let stats = server.shutdown();
    assert!(stats.rejected >= 1, "the saturating submit was rejected");
}

/// A bank quarantined *inside* a served pipeline is a degradation event like
/// any other: `Health` reports the lost bank, and on a tuned server the
/// request demotes instead of recording — cycles measured across a
/// quarantine are not evidence for either residency policy.
#[test]
fn bank_quarantined_inside_a_pipeline_reaches_health_and_the_tuner() {
    let server = Server::new(ServeConfig {
        workers: 1,
        batching: false,
        faults: Some(FaultConfig {
            seed: 0xBA2C,
            // Every region entry scrubs a flipped wordline.
            sram_flip_period: 1,
            ..FaultConfig::none()
        }),
        tune: Some(infs_serve::TuneConfig::seeded(7)),
        ..ServeConfig::default()
    });
    assert_eq!(server.health().healthy_banks, 64, "the plan boots healthy");

    let n = 128u64;
    let input: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let r = server.call(Request {
        id: 1,
        tenant: "chaos".into(),
        deadline_ms: None,
        body: RequestBody::Pipeline(infs_serve::PipelineRequest {
            graph: demo::pipeline(n, 2.0).to_json().unwrap(),
            mode: WireMode::InfS,
            fused: true,
            inputs: vec![ArrayPayload {
                array: 0,
                data: input.clone(),
            }],
            outputs: vec![3],
        }),
    });
    assert!(r.ok, "pipeline under SRAM flips failed: {:?}", r.error);
    assert_eq!(r.outputs[0].data, demo::pipeline_reference(&input, 2.0));
    assert!(r.stats.tuned_variant.is_some(), "fused requests are tuned");

    let h = server.health();
    assert!(
        h.healthy_banks < 64,
        "the quarantine never reached Health: {h:?}"
    );
    assert_eq!(h.status, HealthReport::DEGRADED);

    // Decided once, observed never: the polluted cycles stayed out.
    let artifact = r.artifact.expect("pipeline replies name their artifact");
    let tuner = server.tuner().expect("tuning is on");
    assert_eq!(tuner.stats().artifacts, 1);
    // The table key is the artifact id and the mode's (crate-private) pool
    // index; with one table open, whichever index finds it is the right one.
    let table = (0..6)
        .find_map(|mode| {
            tuner.table(infs_isa::fnv1a(
                format!("pipeline|{artifact}|{mode}").as_bytes(),
            ))
        })
        .expect("the request opened a tune table");
    assert_eq!(table.seq, 1);
    assert!(
        table.stats.iter().all(|s| s.samples == 0),
        "fault-polluted cycles were recorded: {:?}",
        table.stats
    );
    server.shutdown();
}
