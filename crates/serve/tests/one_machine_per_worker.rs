//! A worker is a machine (`DESIGN.md` §8): one resident simulated machine per
//! worker serves every artifact and every pipeline graph that worker is
//! handed, re-targeted per request at the table it runs. Pinned here: outputs
//! stay bit-identical to scalar references however many artifacts rotate
//! through; a served pipeline reaches the server's shared JIT cache; every
//! request starts from zeroed memory; and quarantined banks stay quarantined
//! across artifacts and across a caught worker panic.

use infs_faults::FaultConfig;
use infs_frontend::Kernel;
use infs_serve::{
    demo, ArrayPayload, CompileRequest, ExecuteRequest, PipelineRequest, Request, RequestBody,
    Response, ServeConfig, Server, WireError, WireMode,
};

fn one_worker(faults: Option<FaultConfig>) -> Server {
    Server::new(ServeConfig {
        workers: 1,
        faults,
        ..ServeConfig::default()
    })
}

/// Calls until the answer is not an injected worker panic (a retryable
/// `worker-fault`; only chaos servers produce one).
fn call(server: &Server, body: RequestBody) -> Response {
    loop {
        let r = server.call(Request {
            id: 0,
            tenant: "t".into(),
            deadline_ms: None,
            body: body.clone(),
        });
        match &r.error {
            Some(e) if e.kind == WireError::WORKER_FAULT => continue,
            Some(e) => panic!("request failed: {e:?}"),
            None => return r,
        }
    }
}

fn compile(server: &Server, kernel: Kernel) -> String {
    let body = RequestBody::Compile(CompileRequest {
        kernel,
        representative_syms: vec![],
        optimize: true,
    });
    call(server, body).artifact.expect("an artifact id")
}

/// One artifact of the rotation: what to run and what must come back.
struct Case {
    kernel: Kernel,
    region: &'static str,
    params: Vec<f32>,
    mode: WireMode,
    inputs: Vec<Vec<f32>>,
    output: u32,
    want: Vec<f32>,
}

impl Case {
    fn execute(&self, artifact: &str) -> RequestBody {
        let payload = |(i, data): (usize, &Vec<f32>)| ArrayPayload {
            array: i as u32,
            data: data.clone(),
        };
        RequestBody::Execute(ExecuteRequest {
            artifact: Some(artifact.to_string()),
            binary: None,
            region: self.region.into(),
            syms: vec![],
            params: self.params.clone(),
            mode: self.mode,
            inputs: self.inputs.iter().enumerate().map(payload).collect(),
            outputs: vec![self.output],
        })
    }
}

fn ramp(n: u64, step: f32) -> Vec<f32> {
    (0..n).map(|i| i as f32 * step).collect()
}

fn scale_case(n: u64, p: f32, mode: WireMode) -> Case {
    let x = ramp(n, 0.5);
    Case {
        kernel: demo::scale(n),
        region: "scale",
        params: vec![p],
        mode,
        want: x.iter().map(|v| v * p).collect(),
        inputs: vec![x],
        output: 0,
    }
}

fn vec_add_case(n: u64, mode: WireMode) -> Case {
    let (a, b) = (ramp(n, 1.0), ramp(n, 3.0));
    Case {
        kernel: demo::vec_add(n),
        region: "vec_add",
        params: vec![],
        mode,
        want: a.iter().zip(&b).map(|(a, b)| a + b).collect(),
        inputs: vec![a, b],
        output: 2,
    }
}

fn stencil_case(n: u64, mode: WireMode) -> Case {
    let a: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
    let mut want = vec![0.0; n as usize];
    for i in 1..n as usize - 1 {
        want[i] = a[i - 1] + a[i] + a[i + 1];
    }
    Case {
        kernel: demo::stencil(n),
        region: "stencil",
        params: vec![],
        mode,
        want,
        inputs: vec![a],
        output: 1,
    }
}

/// Seven artifacts — more than the four sessions a worker used to keep —
/// interleaved with an in-memory pipeline, twice over, through one worker.
#[test]
fn seven_artifacts_and_a_pipeline_share_one_machine() {
    let server = one_worker(None);
    let cases = [
        scale_case(64, 3.0, WireMode::InfS),
        scale_case(128, 2.0, WireMode::InL3),
        scale_case(256, 5.0, WireMode::NearL3),
        vec_add_case(64, WireMode::Base1),
        vec_add_case(256, WireMode::InL3),
        stencil_case(64, WireMode::InfS),
        stencil_case(128, WireMode::InL3),
    ];
    let artifacts: Vec<String> = cases
        .iter()
        .map(|c| compile(&server, c.kernel.clone()))
        .collect();
    let n = 256;
    let x = ramp(n, 1.0);
    let pipeline = RequestBody::Pipeline(PipelineRequest {
        graph: demo::pipeline(n, 3.0).to_json().unwrap(),
        mode: WireMode::InL3,
        fused: true,
        inputs: vec![ArrayPayload {
            array: 0,
            data: x.clone(),
        }],
        outputs: vec![3],
    });
    let want_w = demo::pipeline_reference(&x, 3.0);

    let mut pipeline_cycles = Vec::new();
    for round in 0..2 {
        for (i, (case, artifact)) in cases.iter().zip(&artifacts).enumerate() {
            let r = call(&server, case.execute(artifact));
            assert_eq!(r.outputs[0].data, case.want, "round {round}, case {i}");
            if i != 3 {
                continue;
            }
            // Mid-rotation: the graph meets the machine the kernels left.
            let hits_before = server.metrics().jit_hits;
            let r = call(&server, pipeline.clone());
            assert_eq!(r.outputs[0].data, want_w, "round {round}, pipeline");
            assert!(
                r.stats.stages.iter().all(|s| s.executed == "in-memory"),
                "{:?}",
                r.stats.stages
            );
            pipeline_cycles.push(r.stats.cycles);
            if round == 1 {
                assert!(
                    server.metrics().jit_hits > hits_before,
                    "a warm pipeline hits the server's shared JIT cache"
                );
            }
        }
    }
    assert!(
        pipeline_cycles[1] <= pipeline_cycles[0],
        "memoized commands are never dearer than lowering: {pipeline_cycles:?}"
    );
    assert_eq!(server.worker_faults(), 0);
    server.shutdown();
}

/// Two artifacts declare the same table (`A`, `B`, `C`, each d×d), so the
/// machine may keep its allocation between them — it must still zero it. The
/// second tenant sends no inputs and reads all three arrays back.
#[test]
fn an_omitted_input_reads_zeros_not_the_previous_tenant() {
    let server = one_worker(None);
    let d = 16;
    let secret = vec![42.0; (d * d) as usize];
    let first = compile(&server, demo::mat_update(d, 2));
    let second = compile(&server, demo::mat_update(d, 4));
    assert_ne!(first, second);
    let execute = |artifact: &str, inputs: Vec<ArrayPayload>| {
        RequestBody::Execute(ExecuteRequest {
            artifact: Some(artifact.to_string()),
            binary: None,
            region: "mat_update".into(),
            syms: vec![],
            params: vec![],
            mode: WireMode::InfS,
            inputs,
            outputs: vec![0, 1, 2],
        })
    };
    let inputs = (0..2).map(|array| ArrayPayload {
        array,
        data: secret.clone(),
    });
    let r = call(&server, execute(&first, inputs.collect()));
    assert_eq!(r.outputs[2].data, vec![126.0; (d * d) as usize]);
    for artifact in [&second, &first] {
        let r = call(&server, execute(artifact, vec![]));
        for out in &r.outputs {
            assert!(out.data.iter().all(|&v| v == 0.0), "array {}", out.array);
        }
    }
    server.shutdown();
}

/// Keeps injected worker panics out of the test output while leaving real
/// assertion panics fully reported.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        if !message.is_some_and(|m| m.contains("injected worker fault")) {
            default(info);
        }
    }));
}

/// Every region entry scrubs one SRAM flip and quarantines its bank; thirty
/// banks are dead from the start, so a handful of runs breaks the in-memory
/// quorum (32 of 64) and `InL3` runs fall back to the cores. What the
/// machine does (`executed`) and what `Health` says must agree at every
/// step — while serving artifact A, after switching to artifact B, and after
/// an injected panic made the worker rebuild its machine.
#[test]
fn quarantined_banks_stay_quarantined_across_artifacts_and_panics() {
    quiet_injected_panics();
    let server = one_worker(Some(FaultConfig {
        seed: 7,
        dead_banks: 30,
        sram_flip_period: 1,
        worker_panic_period: 5,
        ..FaultConfig::none()
    }));
    let (a, b) = (
        scale_case(256, 2.0, WireMode::InL3),
        vec_add_case(256, WireMode::InL3),
    );
    let (artifact_a, artifact_b) = (
        compile(&server, a.kernel.clone()),
        compile(&server, b.kernel.clone()),
    );
    let mut healthy = server.health().healthy_banks;
    assert_eq!(healthy, 34);
    // One run; returns whether it ran on the bitlines.
    let mut run = |case: &Case, artifact: &str| {
        let r = call(&server, case.execute(artifact));
        assert_eq!(r.outputs[0].data, case.want, "degraded runs stay exact");
        let now = server.health().healthy_banks;
        assert!(now <= healthy, "banks healed: {healthy} -> {now}");
        healthy = now;
        let in_memory = r.stats.executed.as_deref() == Some("in-memory");
        assert_eq!(in_memory, now >= 32, "machine and Health disagree at {now}");
        in_memory
    };

    assert!(run(&a, &artifact_a), "34 healthy banks hold the quorum");
    while run(&a, &artifact_a) {}
    let panics = server.worker_faults();
    assert!(!run(&b, &artifact_b), "artifact B met healed banks");
    while server.worker_faults() == panics {
        assert!(!run(&a, &artifact_a));
    }
    assert!(!run(&b, &artifact_b), "the rebuilt machine healed");
    assert!(!run(&a, &artifact_a));
    server.shutdown();
}
