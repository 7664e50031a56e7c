//! Static-compiler cost: equality saturation + extraction over the tDFGs that
//! exercise the Appendix-A rules hardest (the Fig 6 convolution with shared
//! constant weights and a multi-tap stencil), and what a compiled region
//! costs to build and to enter (`compile_once`).

use criterion::{criterion_group, criterion_main, Criterion};
use infs_egraph::{optimize, CostParams};
use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_isa::Compiler;
use infs_sdfg::DataType;
use infs_serve::demo;
use std::hint::black_box;

fn conv2d_tdfg(n: u64) -> infs_tdfg::Tdfg {
    let mut k = KernelBuilder::new("conv2d", DataType::F32);
    let a = k.array("A", vec![n, n]);
    let b = k.array("B", vec![n, n]);
    let i = k.parallel_loop("i", 1, n as i64 - 1);
    let j = k.parallel_loop("j", 1, n as i64 - 1);
    let tap = |di: i64, dj: i64, w: f32| {
        ScalarExpr::mul(
            ScalarExpr::load(a, vec![Idx::var_plus(i, di), Idx::var_plus(j, dj)]),
            ScalarExpr::Const(w),
        )
    };
    let mut acc = tap(0, 0, 0.25);
    for (di, dj, w) in [
        (-1, -1, 0.0625),
        (1, -1, 0.0625),
        (-1, 1, 0.0625),
        (1, 1, 0.0625),
        (-1, 0, 0.125),
        (1, 0, 0.125),
        (0, -1, 0.125),
        (0, 1, 0.125),
    ] {
        acc = ScalarExpr::add(acc, tap(di, dj, w));
    }
    k.assign(b, vec![Idx::var(i), Idx::var(j)], acc);
    k.build()
        .expect("builds")
        .tensorize(&[])
        .expect("tensorizes")
}

fn three_tap_tdfg(n: u64) -> infs_tdfg::Tdfg {
    let mut k = KernelBuilder::new("stencil1d", DataType::F32);
    let a = k.array("A", vec![n]);
    let b = k.array("B", vec![n]);
    let i = k.parallel_loop("i", 1, n as i64 - 1);
    let e = ScalarExpr::add(
        ScalarExpr::add(
            ScalarExpr::load(a, vec![Idx::var_plus(i, -1)]),
            ScalarExpr::load(a, vec![Idx::var(i)]),
        ),
        ScalarExpr::load(a, vec![Idx::var_plus(i, 1)]),
    );
    k.assign(b, vec![Idx::var(i)], e);
    k.build()
        .expect("builds")
        .tensorize(&[])
        .expect("tensorizes")
}

fn bench_optimize(c: &mut Criterion) {
    let params = CostParams::default();
    let conv = conv2d_tdfg(2048);
    let sten = three_tap_tdfg(1 << 20);
    let mut group = c.benchmark_group("egraph_optimize");
    group.sample_size(10);
    group.bench_function("conv2d_9tap", |b| {
        b.iter(|| black_box(optimize(black_box(&conv), &params).expect("optimizes")))
    });
    group.bench_function("stencil1d_3tap", |b| {
        b.iter(|| black_box(optimize(black_box(&sten), &params).expect("optimizes")))
    });
    group.finish();
}

/// The three costs of a compiled region: the compile (one saturation), region
/// entry at the compiled binding (borrows the embedded instance), and region
/// entry at any other binding (the static stages again).
fn bench_compile_once(c: &mut Criterion) {
    let compiler = Compiler::default();
    let mut group = c.benchmark_group("compile_once");
    group.sample_size(10);
    for (name, kernel) in [
        ("mat_update_64_12", demo::mat_update(64, 12)),
        ("mat_stencil_256", demo::mat_stencil(256)),
    ] {
        group.bench_function(format!("compile/{name}"), |b| {
            b.iter(|| black_box(compiler.compile(kernel.clone(), &[]).expect("compiles")))
        });
        let region = compiler.compile(kernel, &[]).expect("compiles");
        group.bench_function(format!("instantiate@compiled binding/{name}"), |b| {
            b.iter(|| black_box(region.instantiate(black_box(&[])).expect("instantiates")))
        });
        // The demo kernels bind no symbols, so "another binding" is the same
        // one entered through a region that carries no embedded instance.
        let mut bare = region.clone();
        bare.representative = None;
        group.bench_function(format!("instantiate@other binding/{name}"), |b| {
            b.iter(|| black_box(bare.instantiate(black_box(&[])).expect("instantiates")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_optimize, bench_compile_once);
criterion_main!(benches);
