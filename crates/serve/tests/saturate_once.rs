//! The e-graph runs once per compiled region: `Compiler::compile` saturates
//! exactly once, entering the region at the compiled binding reuses the
//! instance embedded in the fat binary (and says so on its span), and only a
//! different binding saturates again. Counted on the trace, in-process and
//! through the server.

use infinity_stream::prelude::*;
use infs_serve::{
    demo, ArrayPayload, CompileRequest, ExecuteRequest, Request, RequestBody, ServeConfig, Server,
    WireMode,
};
use infs_trace::{ArgValue, TraceSnapshot};

fn spans(snap: &TraceSnapshot, name: &str) -> usize {
    snap.events.iter().filter(|e| e.name == name).count()
}

/// The `reused` argument of every `isa.instantiate` span, in record order.
fn reused_flags(snap: &TraceSnapshot) -> Vec<bool> {
    snap.events
        .iter()
        .filter(|e| e.name == "isa.instantiate")
        .map(|e| {
            e.args
                .iter()
                .any(|(k, v)| *k == "reused" && *v == ArgValue::Bool(true))
        })
        .collect()
}

/// `B[i] = A[i-1] + A[i] + A[i+1]` over `[1, n − 1)`, `n` symbolic.
fn stencil_sym() -> Kernel {
    let mut k = KernelBuilder::new("stencil", DataType::F32);
    let n = k.sym("n");
    let a = k.array("A", vec![256]);
    let b = k.array("B", vec![256]);
    let i = k.parallel_loop_bounds("i", Idx::constant(1), Idx::sym_plus(n, -1));
    let tap = |d: i64| ScalarExpr::load(a, vec![Idx::var_plus(i, d)]);
    k.assign(
        b,
        vec![Idx::var(i)],
        ScalarExpr::add(ScalarExpr::add(tap(-1), tap(0)), tap(1)),
    );
    k.build().expect("builds")
}

#[test]
fn compile_saturates_once_and_only_another_binding_saturates_again() {
    let _session = infs_trace::exclusive();
    let mut fb = FatBinary::new();
    fb.push(
        Compiler::default()
            .compile(stencil_sym(), &[256])
            .expect("compiles"),
    );
    let snap = infs_trace::snapshot();
    assert_eq!(spans(&snap, "egraph.optimize"), 1, "one compile");
    assert_eq!(spans(&snap, "isa.instantiate"), 0);

    let mut s = Session::new(SystemConfig::default(), fb, ExecMode::InfS).expect("session");
    infs_trace::clear();
    s.run("stencil", &[256], &[]).expect("runs as compiled");
    let snap = infs_trace::snapshot();
    assert_eq!(spans(&snap, "egraph.optimize"), 0, "entry as compiled");
    assert_eq!(reused_flags(&snap), [true]);

    infs_trace::clear();
    s.run("stencil", &[128], &[]).expect("runs at another size");
    let snap = infs_trace::snapshot();
    assert_eq!(spans(&snap, "egraph.optimize"), 1, "entry at another size");
    assert_eq!(reused_flags(&snap), [false]);
}

/// `mat_update`'s scalar reference; the inputs below are small dyadic
/// rationals, so every association of the ladder is exact in `f32`.
fn ref_mat_update(a: &[f32], b: &[f32], chain: u32) -> Vec<f32> {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (0..chain).fold(x, |acc, step| acc + if step % 2 == 0 { y } else { x }))
        .collect()
}

#[test]
fn served_compile_then_two_executes_saturate_once_in_total() {
    const D: u64 = 64;
    const CHAIN: u32 = 12;
    let session = infs_trace::exclusive();
    let server = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let call = |id, body| {
        let r = server.call(Request {
            id,
            tenant: "once".into(),
            deadline_ms: None,
            body,
        });
        assert!(r.ok, "request {id} failed: {:?}", r.error);
        r
    };
    let artifact = call(
        1,
        RequestBody::Compile(CompileRequest {
            kernel: demo::mat_update(D, CHAIN),
            representative_syms: vec![],
            optimize: true,
        }),
    )
    .artifact
    .expect("compile yields an artifact");

    let a: Vec<f32> = (0..D * D).map(|x| 1.0 + (x % 7) as f32 * 0.125).collect();
    let b: Vec<f32> = (0..D * D).map(|x| 0.5 + (x % 5) as f32 * 0.25).collect();
    let want: Vec<u32> = ref_mat_update(&a, &b, CHAIN)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    for id in [2, 3] {
        let r = call(
            id,
            RequestBody::Execute(ExecuteRequest {
                artifact: Some(artifact.clone()),
                binary: None,
                region: "mat_update".into(),
                syms: vec![],
                params: vec![],
                mode: WireMode::InfS,
                inputs: vec![
                    ArrayPayload {
                        array: 0,
                        data: a.clone(),
                    },
                    ArrayPayload {
                        array: 1,
                        data: b.clone(),
                    },
                ],
                outputs: vec![2],
            }),
        );
        let got: Vec<u32> = r.outputs[0].data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "execute {id} differs from the scalar reference");
    }
    server.shutdown();
    let snap = infs_trace::snapshot();
    drop(session);

    assert_eq!(spans(&snap, "egraph.optimize"), 1, "the compile's");
    assert_eq!(reused_flags(&snap), [true, true], "both executes");
}
