//! Static-compiler cost: what a compiled region costs to build and to enter.

use criterion::{criterion_group, criterion_main, Criterion};
use infs_isa::Compiler;
use infs_serve::demo;
use std::hint::black_box;

/// The three costs of a compiled region: the compile (one saturation), region
/// entry at the compiled binding (borrows the embedded instance), and region
/// entry at any other binding (the static stages again, here with the
/// optimizer run in full).
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
        // one entered through a region that carries no embedded instance,
        // which also leaves no optimized graph to replay.
        let mut bare = region.clone();
        bare.representative = None;
        group.bench_function(format!("instantiate@other binding/{name}"), |b| {
            b.iter(|| black_box(bare.instantiate(black_box(&[])).expect("instantiates")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compile_once);
criterion_main!(benches);
