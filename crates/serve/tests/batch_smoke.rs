//! Request-batching acceptance tests (`DESIGN.md` §14).
//!
//! Two guarantees pinned here:
//!
//! 1. **Coalescing is invisible**: K identical concurrent requests produce
//!    K byte-identical result payloads from exactly one execution — on a
//!    healthy server and under a chaos fault plan.
//! 2. **Retry composes with batching**: a request rejected with a
//!    retry-after hint can, on retry, join a batch that opened in the
//!    meantime — consuming no admission-queue slot.
//!
//! 3. **The guard is exact**: bodies that differ in a single input bit never
//!    share an execution; identical ones still do.
//!
//! All of them drive the worker pause gate (`pause`/`release`/`gate_waiting`)
//! for deterministic stepping: no sleeps stand in for synchronization.

use infs_faults::FaultConfig;
use infs_serve::{
    demo, ArrayPayload, ExecuteRequest, Request, RequestBody, ResponseStats, ServeConfig, Server,
    Submitted, Ticket, WireError, WireMode,
};

fn execute_body(artifact: &str, p0: f32, n: u64) -> RequestBody {
    RequestBody::Execute(ExecuteRequest {
        artifact: Some(artifact.to_string()),
        binary: None,
        region: "scale".to_string(),
        syms: vec![],
        params: vec![p0],
        mode: WireMode::InfS,
        inputs: vec![ArrayPayload {
            array: 0,
            data: (0..n).map(|i| i as f32).collect(),
        }],
        outputs: vec![0],
    })
}

fn compile_artifact(server: &Server, n: u64) -> String {
    let r = server.call(Request {
        id: 1,
        tenant: "warm".into(),
        deadline_ms: None,
        body: RequestBody::Compile(infs_serve::CompileRequest {
            kernel: demo::scale(n),
            representative_syms: vec![],
            optimize: true,
        }),
    });
    assert!(r.ok, "warmup compile failed: {:?}", r.error);
    r.artifact.expect("compile returns an artifact id")
}

/// Serialized response with identity (id) and measurement (stats) stripped:
/// what "byte-identical fan-out" means on the wire.
fn normalized(mut r: infs_serve::Response) -> String {
    r.id = 0;
    r.stats = ResponseStats::default();
    serde_json::to_string(&r).expect("response serializes")
}

fn k_identical_one_execution(cfg: ServeConfig, require_ok: bool) {
    const K: u64 = 8;
    let session = infs_trace::exclusive();
    let server = Server::new(cfg);
    let artifact = compile_artifact(&server, 64);
    // The warmup compile is itself a (single-member) batch; count from here.
    let batches_before = server.batch_stats().executions;

    // Hold workers so the whole burst is concurrent by construction: the
    // leader is popped and parked at the gate, everyone else joins its
    // still-open batch.
    server.pause();
    let tickets: Vec<Ticket> = (0..K)
        .map(|i| {
            match server.submit(Request {
                id: 100 + i,
                // Different tenants on purpose: identical work coalesces
                // across tenants because the result is identical.
                tenant: format!("tenant-{}", i % 3),
                deadline_ms: Some(30_000),
                body: execute_body(&artifact, 2.5, 64),
            }) {
                Submitted::Admitted(t) => t,
                Submitted::Rejected(r) => panic!("request {i} rejected: {:?}", r.error),
            }
        })
        .collect();
    let stats = server.batch_stats();
    assert_eq!(stats.joined, K - 1, "all but the leader must join");
    server.resume();

    let responses: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
    let snap = infs_trace::snapshot();
    drop(session);

    let first = normalized(responses[0].clone());
    for (i, r) in responses.iter().enumerate() {
        if require_ok {
            assert!(r.ok, "response {i} failed: {:?}", r.error);
        }
        assert_eq!(r.id, 100 + i as u64, "responses keep their own ids");
        assert_eq!(
            normalized(r.clone()),
            first,
            "response {i} differs from the leader's payload"
        );
    }

    let executions = snap.counters.get("serve.executions").copied().unwrap_or(0);
    if require_ok {
        assert_eq!(executions, 1, "one region execution for the whole burst");
        // The member responses agree on the batch size.
        assert!(responses.iter().all(|r| r.stats.batch_size == K));
    } else {
        // Under chaos the leader may fault before reaching the machine, but
        // coalescing must never *add* executions.
        assert!(executions <= 1, "chaos burst ran {executions} executions");
    }
    let stats = server.batch_stats();
    assert_eq!(stats.executions - batches_before, 1, "one batch closed");
    assert_eq!(stats.max_occupancy, K);

    let shutdown = server.shutdown();
    // Followers count as served requests (they are answered requests).
    assert!(shutdown.served > K);
}

#[test]
fn identical_burst_is_one_execution_with_byte_identical_fanout() {
    k_identical_one_execution(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        true,
    );
}

#[test]
fn identical_burst_under_chaos_still_coalesces_and_fans_out_identically() {
    k_identical_one_execution(
        ServeConfig {
            workers: 2,
            faults: Some(FaultConfig::chaos(7)),
            ..ServeConfig::default()
        },
        false,
    );
}

/// A client rejected with `retry-after` retries while a batch for its exact
/// content is open: the retry joins the batch instead of needing the (still
/// scarce) queue slot it was refused the first time.
#[test]
fn rejected_request_retries_into_an_open_batch() {
    // Trace counters are process-wide: without the lock this test's three
    // executions land in a sibling's `serve.executions` count.
    let _session = infs_trace::exclusive();
    let server = Server::new(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let artifact = compile_artifact(&server, 64);
    let shared_body = execute_body(&artifact, 3.0, 64); // the batchable content
    let filler_a = execute_body(&artifact, 10.0, 64);
    let filler_b = execute_body(&artifact, 20.0, 64);

    server.pause();
    // Step 1: filler A occupies the (single) worker, parked at the gate.
    let t_a = match server.submit(Request {
        id: 10,
        tenant: "a".into(),
        deadline_ms: Some(30_000),
        body: filler_a,
    }) {
        Submitted::Admitted(t) => t,
        Submitted::Rejected(r) => panic!("filler A rejected: {:?}", r.error),
    };
    while server.gate_waiting() < 1 {
        std::thread::yield_now();
    }
    // Step 2: filler B occupies the single queue slot.
    let t_b = match server.submit(Request {
        id: 11,
        tenant: "b".into(),
        deadline_ms: Some(30_000),
        body: filler_b,
    }) {
        Submitted::Admitted(t) => t,
        Submitted::Rejected(r) => panic!("filler B rejected: {:?}", r.error),
    };
    assert_eq!(server.queue_len(), 1);

    // Step 3: the client's first attempt — queue full, no open batch for
    // this content → typed backpressure rejection with a retry hint.
    let first = match server.submit(Request {
        id: 20,
        tenant: "client".into(),
        deadline_ms: Some(30_000),
        body: shared_body.clone(),
    }) {
        Submitted::Rejected(r) => r,
        Submitted::Admitted(_) => panic!("expected a backpressure rejection"),
    };
    let err = first.error.as_ref().expect("rejection carries an error");
    assert_eq!(err.kind, WireError::BACKPRESSURE);
    assert!(err.retry_after_ms.is_some(), "rejection carries retry hint");

    // Step 4: filler A completes; the worker pops filler B and parks again.
    // Now a *different* client opens a batch for the shared content in the
    // freed queue slot.
    server.release(1);
    let _ = t_a.wait();
    while server.gate_waiting() < 1 {
        std::thread::yield_now();
    }
    assert_eq!(server.queue_len(), 0);
    let t_leader = match server.submit(Request {
        id: 30,
        tenant: "other".into(),
        deadline_ms: Some(30_000),
        body: shared_body.clone(),
    }) {
        Submitted::Admitted(t) => t,
        Submitted::Rejected(r) => panic!("leader rejected: {:?}", r.error),
    };
    assert_eq!(server.queue_len(), 1, "leader consumed the queue slot");

    // Step 5: the retry (queue is full again!) joins the open batch instead
    // of being rejected a second time.
    let joined_before = server.batch_stats().joined;
    let t_retry = match server.submit(Request {
        id: 21,
        tenant: "client".into(),
        deadline_ms: Some(30_000),
        body: shared_body,
    }) {
        Submitted::Admitted(t) => t,
        Submitted::Rejected(r) => panic!("retry should join the open batch: {:?}", r.error),
    };
    assert_eq!(server.queue_len(), 1, "joining consumed no queue slot");
    assert_eq!(server.batch_stats().joined, joined_before + 1);

    server.resume();
    let rb = t_b.wait();
    let r_leader = t_leader.wait();
    let r_retry = t_retry.wait();
    assert!(rb.ok && r_leader.ok && r_retry.ok);
    assert!(r_retry.stats.batched, "retry must report riding the batch");
    assert_eq!(r_retry.stats.batch_size, 2);
    assert_eq!(r_retry.outputs[0].data, r_leader.outputs[0].data);
    let stats = server.batch_stats();
    assert!(stats.max_occupancy >= 2);
    server.shutdown();
}

/// Two Execute bodies that differ in the lowest mantissa bit of one input
/// element are different work: the second never joins the first's batch and
/// gets its own (different) answer, while a bit-identical third request
/// still coalesces.
#[test]
fn one_input_bit_apart_never_joins_but_identical_bodies_do() {
    let _session = infs_trace::exclusive();
    let server = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let artifact = compile_artifact(&server, 64);
    // Doubling is exact, so inputs one ulp apart give outputs one ulp apart.
    let body = execute_body(&artifact, 2.0, 64);
    let mut nudged = body.clone();
    let RequestBody::Execute(e) = &mut nudged else {
        unreachable!("execute_body builds an Execute");
    };
    e.inputs[0].data[5] = f32::from_bits(e.inputs[0].data[5].to_bits() ^ 1);

    server.pause();
    let joined_before = server.batch_stats().joined;
    let tickets: Vec<Ticket> = [body.clone(), nudged, body]
        .into_iter()
        .zip(30u64..)
        .map(|(body, id)| {
            match server.submit(Request {
                id,
                tenant: "t".into(),
                deadline_ms: Some(30_000),
                body,
            }) {
                Submitted::Admitted(t) => t,
                Submitted::Rejected(r) => panic!("request {id} rejected: {:?}", r.error),
            }
        })
        .collect();
    let stats = server.batch_stats();
    assert_eq!(
        stats.joined - joined_before,
        1,
        "only the identical body joins"
    );
    assert_eq!(
        stats.collisions, 0,
        "different bytes hash to different keys"
    );
    server.resume();

    let responses: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
    assert!(responses.iter().all(|r| r.ok), "{responses:?}");
    let out = |i: usize| &responses[i].outputs[0].data;
    assert_eq!(out(0), out(2));
    assert_eq!(responses[0].stats.batch_size, 2);
    assert_eq!(responses[1].stats.batch_size, 1);
    assert_ne!(out(0)[5].to_bits(), out(1)[5].to_bits());
    server.shutdown();
}
