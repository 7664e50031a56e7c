//! The serving-layer acceptance test: concurrent mixed clients against one
//! server produce results identical to sequential single-session runs of the
//! same requests, repeated kernels hit the artifact cache, overfilling the
//! admission queue yields backpressure rejections, and graceful shutdown
//! completes every admitted in-flight request.

use infinity_stream::Session;
use infs_frontend::Kernel;
use infs_isa::{Compiler, FatBinary};
use infs_sdfg::ArrayId;
use infs_serve::{
    demo, ArrayPayload, ExecuteRequest, Request, RequestBody, Response, ServeConfig, Server,
    Submitted, WireError, WireMode,
};
use infs_sim::SystemConfig;
use std::sync::Arc;

/// One workload of the mixed request matrix: a demo kernel plus fixed inputs,
/// parameters, and the array read back.
struct Workload {
    kernel: Kernel,
    region: &'static str,
    params: Vec<f32>,
    inputs: Vec<ArrayPayload>,
    output: u32,
}

fn workloads() -> Vec<Workload> {
    let n = 256u64;
    let scale_in: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
    let add_a: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let add_b: Vec<f32> = (0..n).map(|i| (2 * i) as f32).collect();
    let m = 64u64;
    let stencil_in: Vec<f32> = (0..m).map(|i| (i % 7) as f32).collect();
    vec![
        Workload {
            kernel: demo::scale(n),
            region: "scale",
            params: vec![3.0],
            inputs: vec![ArrayPayload {
                array: 0,
                data: scale_in,
            }],
            output: 0,
        },
        Workload {
            kernel: demo::vec_add(n),
            region: "vec_add",
            params: vec![],
            inputs: vec![
                ArrayPayload {
                    array: 0,
                    data: add_a,
                },
                ArrayPayload {
                    array: 1,
                    data: add_b,
                },
            ],
            output: 2,
        },
        Workload {
            kernel: demo::stencil(m),
            region: "stencil",
            params: vec![],
            inputs: vec![ArrayPayload {
                array: 0,
                data: stencil_in,
            }],
            output: 1,
        },
    ]
}

const MODES: [WireMode; 3] = [WireMode::InfS, WireMode::NearL3, WireMode::Base1];

/// The sequential ground truth: the same kernel, inputs, and mode run on one
/// plain [`Session`], no server anywhere.
fn sequential_baseline(w: &Workload, mode: WireMode) -> Vec<f32> {
    let mut fb = FatBinary::new();
    fb.push(
        Compiler::default()
            .compile(w.kernel.clone(), &[])
            .expect("demo kernel compiles"),
    );
    let mut s = Session::new(SystemConfig::default(), fb, mode.exec_mode()).unwrap();
    for p in &w.inputs {
        s.memory().write_array(ArrayId(p.array), &p.data);
    }
    s.run(w.region, &[], &w.params).unwrap();
    s.memory_ref().array(ArrayId(w.output)).to_vec()
}

fn execute_request(id: u64, artifact: &str, w: &Workload, mode: WireMode) -> Request {
    Request {
        id,
        tenant: format!("tenant-{}", id % 3),
        deadline_ms: None,
        body: RequestBody::Execute(ExecuteRequest {
            artifact: Some(artifact.to_string()),
            binary: None,
            region: w.region.to_string(),
            syms: vec![],
            params: w.params.clone(),
            mode,
            inputs: w.inputs.clone(),
            outputs: vec![w.output],
        }),
    }
}

fn compile_request(id: u64, kernel: Kernel) -> Request {
    Request {
        id,
        tenant: "compiler".into(),
        deadline_ms: None,
        body: RequestBody::Compile(infs_serve::CompileRequest {
            kernel,
            representative_syms: vec![],
            optimize: true,
        }),
    }
}

fn ping(id: u64) -> Request {
    Request {
        id,
        tenant: "ping".into(),
        deadline_ms: None,
        body: RequestBody::Ping,
    }
}

#[test]
fn concurrent_mixed_requests_match_sequential_baseline() {
    let server = Arc::new(Server::new(ServeConfig {
        workers: 3,
        ..ServeConfig::default()
    }));
    let wl = workloads();

    // Compile every workload once through the server.
    let artifacts: Vec<String> = wl
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let r = server.call(compile_request(i as u64, w.kernel.clone()));
            assert!(r.ok, "compile {i} failed: {:?}", r.error);
            r.artifact.expect("compile returns an artifact id")
        })
        .collect();

    // Ground truth, computed sequentially without the server.
    let baseline: Vec<Vec<Vec<f32>>> = wl
        .iter()
        .map(|w| MODES.iter().map(|&m| sequential_baseline(w, m)).collect())
        .collect();

    // N client threads × M mixed requests each.
    let n_threads = 4;
    let m_requests = 12;
    let handles: Vec<_> = (0..n_threads)
        .map(|t| {
            let server = server.clone();
            let wl = workloads();
            let artifacts = artifacts.clone();
            let baseline = baseline.clone();
            std::thread::spawn(move || {
                for r in 0..m_requests {
                    let which = (t + r) % wl.len();
                    let mode_ix = (t * m_requests + r) % MODES.len();
                    let req = execute_request(
                        (t * m_requests + r) as u64,
                        &artifacts[which],
                        &wl[which],
                        MODES[mode_ix],
                    );
                    let resp = server.call(req);
                    assert!(resp.ok, "execute failed: {:?}", resp.error);
                    // Results must be bit-identical to the sequential run.
                    assert_eq!(
                        resp.outputs[0].data, baseline[which][mode_ix],
                        "thread {t} request {r}: outputs diverge from baseline"
                    );
                    // Every response carries a populated stats block.
                    assert!(resp.stats.cycles > 0, "no cycles reported");
                    assert!(resp.stats.executed.is_some(), "no execution site");
                    assert_eq!(resp.artifact.as_deref(), Some(artifacts[which].as_str()));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Repeated kernels: every execute resolved its artifact from the cache.
    let (hits, _misses, _evictions) = server.artifact_stats();
    assert!(hits > 0, "artifact cache saw no hits under repetition");

    // Recompiling an already-compiled kernel is an artifact-cache hit.
    let r = server.call(compile_request(999, wl[0].kernel.clone()));
    assert!(r.ok);
    assert!(r.stats.artifact_cache_hit, "recompile must hit the cache");
    assert_eq!(r.artifact.as_deref(), Some(artifacts[0].as_str()));

    let stats = server.shutdown();
    assert!(stats.served >= (n_threads * m_requests) as u64 + 4);
}

#[test]
fn queue_overflow_is_rejected_with_retry_after() {
    let server = Server::new(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        retry_after_ms: 7,
        ..ServeConfig::default()
    });
    // Hold the worker so pops stop; the single worker can remove at most one
    // job from the queue before blocking at the gate.
    server.pause();
    let total: u64 = 1 + 2 + 2; // one possibly in the worker's hands + capacity + overflow
    let mut tickets = Vec::new();
    let mut rejections: Vec<Response> = Vec::new();
    for i in 0..total {
        match server.submit(ping(i)) {
            Submitted::Admitted(t) => tickets.push(t),
            Submitted::Rejected(r) => rejections.push(*r),
        }
    }
    assert!(
        !rejections.is_empty(),
        "overfilling a bounded queue must reject"
    );
    for r in &rejections {
        assert!(!r.ok);
        let e = r.error.as_ref().expect("rejection carries an error");
        assert_eq!(e.kind, WireError::BACKPRESSURE);
        assert_eq!(e.retry_after_ms, Some(7), "rejection carries the hint");
    }
    // Releasing the worker serves every admitted request.
    server.resume();
    for t in tickets {
        let r = t.wait();
        assert!(r.ok, "admitted request must complete: {:?}", r.error);
    }
    let stats = server.shutdown();
    assert_eq!(
        stats.served + stats.rejected,
        total,
        "every submit is either served or rejected"
    );
}

#[test]
fn graceful_shutdown_completes_every_admitted_request() {
    let server = Server::new(ServeConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServeConfig::default()
    });
    server.pause();
    let wl = workloads();
    let mut tickets = Vec::new();
    for i in 0..6u64 {
        let req = if i % 2 == 0 {
            ping(i)
        } else {
            compile_request(i, wl[(i as usize / 2) % wl.len()].kernel.clone())
        };
        match server.submit(req) {
            Submitted::Admitted(t) => tickets.push(t),
            Submitted::Rejected(r) => panic!("queue of 16 rejected request {i}: {:?}", r.error),
        }
    }
    // Shutdown begins while all six are queued or held at the pause gate;
    // every one of them must still be answered successfully.
    server.begin_shutdown();
    for t in tickets {
        let r = t.wait();
        assert!(r.ok, "admitted request dropped by shutdown: {:?}", r.error);
    }
    // New work is turned away once shutdown has begun.
    match server.submit(ping(100)) {
        Submitted::Rejected(r) => {
            assert_eq!(r.error.unwrap().kind, WireError::SHUTTING_DOWN);
        }
        Submitted::Admitted(_) => panic!("admission must be closed during shutdown"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.served, 6);
}

#[test]
fn expired_deadline_times_out_instead_of_running() {
    let server = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    server.pause();
    let mut req = ping(1);
    req.deadline_ms = Some(0); // expired the moment it is admitted
    let ticket = match server.submit(req) {
        Submitted::Admitted(t) => t,
        Submitted::Rejected(r) => panic!("empty queue rejected: {:?}", r.error),
    };
    server.resume();
    let r = ticket.wait();
    assert!(!r.ok);
    assert_eq!(r.error.unwrap().kind, WireError::TIMEOUT);
    server.shutdown();
}

#[test]
fn malformed_executes_fail_cleanly() {
    let server = Server::new(ServeConfig::default());
    let wl = workloads();
    let r = server.call(compile_request(0, wl[0].kernel.clone()));
    let artifact = r.artifact.unwrap();

    let kind_of = |resp: Response| resp.error.map(|e| e.kind);

    // Unknown artifact id.
    let mut req = execute_request(1, "0000000000000000", &wl[0], WireMode::InfS);
    let resp = server.call(req);
    assert_eq!(kind_of(resp).as_deref(), Some(WireError::UNKNOWN_ARTIFACT));

    // Unknown region name.
    req = execute_request(2, &artifact, &wl[0], WireMode::InfS);
    if let RequestBody::Execute(e) = &mut req.body {
        e.region = "nope".into();
    }
    let resp = server.call(req);
    assert_eq!(kind_of(resp).as_deref(), Some(WireError::UNKNOWN_REGION));

    // Wrong input length (would panic functional memory if unvalidated).
    req = execute_request(3, &artifact, &wl[0], WireMode::InfS);
    if let RequestBody::Execute(e) = &mut req.body {
        e.inputs[0].data.truncate(3);
    }
    let resp = server.call(req);
    assert_eq!(kind_of(resp).as_deref(), Some(WireError::BAD_REQUEST));

    // Out-of-range output array id.
    req = execute_request(4, &artifact, &wl[0], WireMode::InfS);
    if let RequestBody::Execute(e) = &mut req.body {
        e.outputs = vec![99];
    }
    let resp = server.call(req);
    assert_eq!(kind_of(resp).as_deref(), Some(WireError::BAD_REQUEST));

    // Neither artifact nor inline binary.
    req = execute_request(5, &artifact, &wl[0], WireMode::InfS);
    if let RequestBody::Execute(e) = &mut req.body {
        e.artifact = None;
    }
    let resp = server.call(req);
    assert_eq!(kind_of(resp).as_deref(), Some(WireError::BAD_REQUEST));

    // The server is still healthy after all of that.
    let resp = server.call(execute_request(6, &artifact, &wl[0], WireMode::InfS));
    assert!(resp.ok);
    server.shutdown();
}

#[test]
fn inline_binary_registers_in_the_artifact_cache() {
    let server = Server::new(ServeConfig::default());
    let wl = workloads();
    // Client compiled elsewhere: ship the fat binary inline.
    let mut fb = FatBinary::new();
    fb.push(
        Compiler::default()
            .compile(wl[0].kernel.clone(), &[])
            .unwrap(),
    );
    let json = fb.to_json().unwrap();
    let mut req = execute_request(1, "ignored", &wl[0], WireMode::InfS);
    if let RequestBody::Execute(e) = &mut req.body {
        e.artifact = None;
        e.binary = Some(json);
    }
    let resp = server.call(req);
    assert!(resp.ok, "inline-binary execute failed: {:?}", resp.error);
    let registered = resp.artifact.expect("inline binary gets an artifact id");
    assert_eq!(
        resp.outputs[0].data,
        sequential_baseline(&wl[0], WireMode::InfS)
    );

    // The registered id is now addressable like any compiled artifact.
    let resp = server.call(execute_request(2, &registered, &wl[0], WireMode::InfS));
    assert!(
        resp.ok,
        "registered artifact not resolvable: {:?}",
        resp.error
    );
    server.shutdown();
}
