//! Host-side cost of the JIT runtime itself (§4.2 "Reducing JIT Overheads"):
//! Algorithm 1 + Algorithm 2 + bank mapping over real stencil regions, plus
//! the memoization-hit path. The paper reports an average 220 µs lowering
//! time after >1000× of optimization; this measures our implementation's
//! real wall-clock for the same job.
//!
//! The `jit_template` group covers the shape-polymorphic extension for the
//! four workloads the concrete memo key served at a 0% hit rate (dwt2d,
//! gauss_elim, conv2d, conv3d). A miss and a template hit run the same
//! host work — an O(nodes) [`infs_runtime::distill`] of the fresh instance
//! plus [`infs_runtime::instantiate`] of a template against its slot table;
//! they differ only in the *modeled* cycles — so each shape-sibling pair is
//! one measurement, `distill_instantiate`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_isa::{Compiler, RegionInstance, Schedule};
use infs_runtime::{JitCache, TransposedLayout};
use infs_sdfg::{DataType, ReduceOp};
use infs_sim::SystemConfig;
use infs_tdfg::ComputeOp;
use std::hint::black_box;

fn stencil_tdfg(n: u64) -> infs_tdfg::Tdfg {
    let mut k = KernelBuilder::new("stencil2d", DataType::F32);
    let a = k.array("A", vec![n, n]);
    let b = k.array("B", vec![n, n]);
    let i = k.parallel_loop("i", 1, n as i64 - 1);
    let j = k.parallel_loop("j", 1, n as i64 - 1);
    let tap = |di, dj| ScalarExpr::load(a, vec![Idx::var_plus(i, di), Idx::var_plus(j, dj)]);
    let sum = ScalarExpr::add(
        ScalarExpr::add(tap(0, 0), ScalarExpr::add(tap(-1, 0), tap(1, 0))),
        ScalarExpr::add(tap(0, -1), tap(0, 1)),
    );
    k.assign(b, vec![Idx::var(i), Idx::var(j)], sum);
    k.build()
        .expect("builds")
        .tensorize(&[])
        .expect("tensorizes")
}

fn bench_lowering(c: &mut Criterion) {
    let hw = SystemConfig::default().hw();
    let mut group = c.benchmark_group("jit_lowering");
    group.sample_size(20);
    for n in [256u64, 1024, 2048] {
        let g = stencil_tdfg(n);
        let schedule = Schedule::compute(&g, hw.geometry).expect("schedules");
        let layout = TransposedLayout::plan(&g, &g.layout_hints(), &hw).expect("plans");
        group.bench_with_input(BenchmarkId::new("stencil2d", n), &n, |bench, _| {
            bench.iter(|| {
                black_box(
                    infs_runtime::lower(black_box(&g), &schedule, &layout, &hw).expect("lowers"),
                )
            })
        });
    }
    group.finish();
}

fn bench_memoization(c: &mut Criterion) {
    let hw = SystemConfig::default().hw();
    let g = stencil_tdfg(1024);
    let schedule = Schedule::compute(&g, hw.geometry).expect("schedules");
    let layout = TransposedLayout::plan(&g, &g.layout_hints(), &hw).expect("plans");
    let (tpl, slots) = infs_runtime::distill(&g, &schedule, &hw).expect("distills");
    let cache = JitCache::new();
    let tile = layout.tile().dims();
    cache
        .get_or_instantiate("stencil", tpl.signature, &slots, tile, || {
            infs_runtime::instantiate(&tpl, &slots, &layout)
        })
        .expect("first lowering");
    let not_cached = || Err(infs_runtime::RuntimeError::NotInMemory);
    c.bench_function("jit_cache_hit", |b| {
        b.iter(|| {
            black_box(
                cache
                    .get_or_instantiate("stencil", tpl.signature, &slots, tile, not_cached)
                    .expect("hit"),
            )
        })
    });
}

/// `gauss_elim`'s in-memory update region `A[r][c] -= M[k][c]·m[r]` over the
/// trailing submatrix, instantiated at pivot `k` — the per-pivot shrinking
/// triangle that re-lowered 1806 times under the concrete memo key.
fn gauss_main_instance(n: u64, k: i64) -> RegionInstance {
    let mut kb = KernelBuilder::new("gauss_main", DataType::F32);
    let a = kb.array("A", vec![n, n]);
    let marr = kb.array("MARR", vec![1, n]);
    let kv = kb.sym("k");
    let c = kb.parallel_loop_bounds("c", Idx::sym_plus(kv, 1), Idx::constant(n as i64));
    let r = kb.parallel_loop_bounds("r", Idx::sym_plus(kv, 1), Idx::constant(n as i64));
    let pivot_row = ScalarExpr::load(a, vec![Idx::var(c), Idx::sym(kv)]);
    let mult = ScalarExpr::load(marr, vec![Idx::constant(0), Idx::var(r)]);
    let delta = ScalarExpr::un(ComputeOp::Neg, ScalarExpr::mul(pivot_row, mult));
    kb.accum(a, vec![Idx::var(c), Idx::var(r)], ReduceOp::Sum, delta);
    let compiled = Compiler {
        optimize: false,
        ..Default::default()
    }
    .compile(kb.build().expect("gauss_main builds"), &[0])
    .expect("gauss_main compiles");
    compiled
        .into_instance(&[k])
        .expect("gauss_main instantiates")
}

/// One lifting phase of `dwt2d` (`dst = src + w·(aux[−1] + aux[+1])` along
/// `dim`): the horizontal and vertical passes are shape-siblings whose only
/// differences — shifted dimension and band bounds — live in the slot table.
fn dwt_phase_instance(n: u64, dim: usize, lo: i64, hi: i64, w: f32) -> RegionInstance {
    let mut k = KernelBuilder::new("dwt_phase", DataType::F32);
    let src = k.array("SRC", vec![n, n]);
    let dst = k.array("DST", vec![n, n]);
    let ni = n as i64;
    let i = k.parallel_loop(
        "i",
        if dim == 0 { lo } else { 0 },
        if dim == 0 { hi } else { ni },
    );
    let j = k.parallel_loop(
        "j",
        if dim == 1 { lo } else { 0 },
        if dim == 1 { hi } else { ni },
    );
    let tap = |d: i64| {
        let (di, dj) = if dim == 0 { (d, 0) } else { (0, d) };
        ScalarExpr::load(src, vec![Idx::var_plus(i, di), Idx::var_plus(j, dj)])
    };
    let e = ScalarExpr::add(
        tap(0),
        ScalarExpr::mul(ScalarExpr::add(tap(-1), tap(1)), ScalarExpr::Const(w)),
    );
    k.assign(dst, vec![Idx::var(i), Idx::var(j)], e);
    let compiled = Compiler::default()
        .compile(k.build().expect("dwt phase builds"), &[])
        .expect("dwt phase compiles");
    compiled.into_instance(&[]).expect("dwt phase instantiates")
}

/// The Fig 6 3×3 constant-weight convolution (e-graph optimized).
fn conv2d_instance(n: u64) -> RegionInstance {
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
    let compiled = Compiler::default()
        .compile(k.build().expect("conv2d builds"), &[])
        .expect("conv2d compiles");
    compiled.into_instance(&[]).expect("conv2d instantiates")
}

/// One `conv3d` accumulation round `OUT += IN(ci, shifted by dx/dy)·WBUF`
/// instantiated at a given tap — the per-(ci, tap) sliding window that
/// re-lowered once per round under the concrete key.
fn conv3d_acc_instance(hw_n: u64, chans: u64, ci: i64, dx: i64, dy: i64) -> RegionInstance {
    let mut k = KernelBuilder::new("conv3d_acc", DataType::F32);
    let inp = k.array("IN", vec![hw_n, hw_n, chans]);
    let out = k.array("OUT", vec![hw_n, hw_n, chans]);
    let wbuf = k.array("WBUF", vec![1, 1, chans]);
    let civ = k.sym("ci");
    let dxv = k.sym("dx");
    let dyv = k.sym("dy");
    let x = k.parallel_loop("x", 1, hw_n as i64 - 1);
    let y = k.parallel_loop("y", 1, hw_n as i64 - 1);
    let co = k.parallel_loop("co", 0, chans as i64);
    let in_tap = ScalarExpr::load(
        inp,
        vec![
            Idx::var(x).plus_sym(dxv, 1),
            Idx::var(y).plus_sym(dyv, 1),
            Idx::sym(civ),
        ],
    );
    let w = ScalarExpr::load(wbuf, vec![Idx::constant(0), Idx::constant(0), Idx::var(co)]);
    k.accum(
        out,
        vec![Idx::var(x), Idx::var(y), Idx::var(co)],
        ReduceOp::Sum,
        ScalarExpr::mul(in_tap, w),
    );
    let compiled = Compiler {
        optimize: false,
        ..Default::default()
    }
    .compile(k.build().expect("conv3d_acc builds"), &[0, 0, 0])
    .expect("conv3d_acc compiles");
    compiled
        .into_instance(&[ci, dx, dy])
        .expect("conv3d_acc instantiates")
}

/// JIT emission for one pair of shape-sibling instances.
///
/// `seed` is the instance whose shape the cache recorded; `fresh` is the
/// next invocation (shifted pivot / slid window). The measurement is what
/// dispatching `fresh` costs on the host: distilling its slot table and
/// stamping a skeleton of its signature out against it — the walk a template
/// hit and a miss both run.
fn bench_patch_pair(c: &mut Criterion, name: &str, seed: &RegionInstance, fresh: &RegionInstance) {
    let hw = SystemConfig::default().hw();
    let g_seed = seed.tdfg.as_ref().expect("seed tensorizes");
    let g = fresh.tdfg.as_ref().expect("fresh tensorizes");
    let s_seed = seed.schedule_for(hw.geometry).expect("seed schedules");
    let s = fresh.schedule_for(hw.geometry).expect("fresh schedules");
    let layout = TransposedLayout::plan(g, &fresh.hints, &hw).expect("plans");
    let (tpl, _) = infs_runtime::distill(g_seed, s_seed, &hw).expect("seed distills");
    {
        // The pair must actually share a template, or stamping the seed's
        // one below would not stand for stamping the fresh one's.
        let (tpl2, _) = infs_runtime::distill(g, s, &hw).expect("fresh distills");
        assert_eq!(
            tpl.signature, tpl2.signature,
            "{name}: instances do not share a template signature"
        );
    }
    let mut group = c.benchmark_group("jit_template");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("distill_instantiate", name), |b| {
        b.iter(|| {
            let (_, slots) = infs_runtime::distill(black_box(g), s, &hw).expect("distills");
            black_box(infs_runtime::instantiate(&tpl, &slots, &layout).expect("patches"))
        })
    });
    group.finish();
}

fn bench_template_patch(c: &mut Criterion) {
    // Pathological workloads of the run matrix, at sizes that keep the
    // bench short while preserving the command-stream structure.
    let gauss_seed = gauss_main_instance(512, 100);
    let gauss_fresh = gauss_main_instance(512, 101);
    bench_patch_pair(c, "gauss_elim", &gauss_seed, &gauss_fresh);

    // The same region at Table-3 size (1×256 tiles, 16 384 of them): the
    // template hit `gauss_elim` pays 2 047 times per paper-scale run.
    let gauss_2k_seed = gauss_main_instance(2048, 0);
    let gauss_2k_fresh = gauss_main_instance(2048, 1);
    bench_patch_pair(c, "gauss_main_2048", &gauss_2k_seed, &gauss_2k_fresh);

    let dwt_seed = dwt_phase_instance(512, 0, 1, 511, -0.5);
    let dwt_fresh = dwt_phase_instance(512, 1, 1, 511, -0.5);
    bench_patch_pair(c, "dwt2d", &dwt_seed, &dwt_fresh);

    let conv2d_seed = conv2d_instance(512);
    let conv2d_fresh = conv2d_instance(512);
    bench_patch_pair(c, "conv2d", &conv2d_seed, &conv2d_fresh);

    let conv3d_seed = conv3d_acc_instance(64, 8, 0, -1, 0);
    let conv3d_fresh = conv3d_acc_instance(64, 8, 1, 1, 0);
    bench_patch_pair(c, "conv3d", &conv3d_seed, &conv3d_fresh);
}

criterion_group!(
    benches,
    bench_lowering,
    bench_memoization,
    bench_template_patch
);
criterion_main!(benches);
