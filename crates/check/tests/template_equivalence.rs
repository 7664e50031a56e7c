//! Bitwise equivalence of the template-patch path and full re-lowering.
//!
//! The JIT cache keys its concrete streams by a [`CommandTemplate`]'s
//! signature and slot table, never by region, and its shape level records
//! only which signatures it has lowered: a hit on either stands for every
//! region of that signature. That is only sound if equal signatures mean
//! equal templates — if stamping one instance's template out against another
//! instance's slot table is *bit-identical* to lowering the other instance.
//! These tests pin that contract on the two families the region-keyed memo
//! starved: Gaussian elimination's shrinking trailing submatrix (a different
//! pivot every dispatch) and a convolution's sliding taps (a different shift
//! every dispatch). The auditor then re-validates the patched stream exactly
//! as it would a cold-lowered one.
//!
//! [`CommandTemplate`]: infs_runtime::CommandTemplate

use infs_check::validate_stream;
use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_isa::{Compiler, RegionInstance};
use infs_runtime::TransposedLayout;
use infs_sdfg::{DataType, ReduceOp};
use infs_sim::SystemConfig;
use infs_tdfg::ComputeOp;

/// `gauss_elim`'s in-memory update region at pivot `k`: the trailing
/// `[k+1, n)²` submatrix shrinks every invocation.
fn gauss_main(n: u64, k: i64) -> RegionInstance {
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
    Compiler {
        optimize: false,
        ..Default::default()
    }
    .compile(kb.build().expect("gauss_main builds"), &[0])
    .expect("gauss_main compiles")
    .into_instance(&[k])
    .expect("gauss_main instantiates")
}

/// One `conv3d` accumulation round at input channel `ci` and window shift
/// `(dx, dy)`: the window slides every invocation.
fn conv3d_acc(hw_n: u64, chans: u64, ci: i64, dx: i64, dy: i64) -> RegionInstance {
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
    Compiler {
        optimize: false,
        ..Default::default()
    }
    .compile(k.build().expect("conv3d_acc builds"), &[0, 0, 0])
    .expect("conv3d_acc compiles")
    .into_instance(&[ci, dx, dy])
    .expect("conv3d_acc instantiates")
}

/// Distills `seed`'s template, then for every `fresh` instance asserts that
/// (a) the pair shares a signature, (b) patching the seed template with the
/// fresh slot table reproduces full re-lowering bit for bit, and (c) the
/// stream validator accepts the patched stream against the fresh graph.
fn assert_patched_equals_lowered(seed: &RegionInstance, fresh: &[RegionInstance]) {
    let hw = SystemConfig::default().hw();
    let g_seed = seed.tdfg.as_ref().expect("seed tensorizes");
    let s_seed = seed.schedule_for(hw.geometry).expect("seed schedules");
    let (tpl, _) = infs_runtime::distill(g_seed, s_seed, &hw).expect("seed distills");
    for inst in fresh {
        let g = inst.tdfg.as_ref().expect("fresh tensorizes");
        let s = inst.schedule_for(hw.geometry).expect("fresh schedules");
        let (tpl2, slots) = infs_runtime::distill(g, s, &hw).expect("fresh distills");
        assert_eq!(
            tpl.signature, tpl2.signature,
            "{}: shape siblings must share a template signature",
            inst.name
        );
        let layout = TransposedLayout::plan(g, &inst.hints, &hw).expect("plans");
        let lowered = infs_runtime::lower(g, s, &layout, &hw).expect("lowers");
        let patched = infs_runtime::instantiate(&tpl, &slots, &layout).expect("patches");
        assert_eq!(
            patched, lowered,
            "{}: template patch must be bit-identical to full re-lowering",
            inst.name
        );
        validate_stream(&patched, hw.n_banks).expect("auditor accepts the patched stream");
    }
}

#[test]
fn gauss_shrinking_domains_patch_bitwise() {
    let n = 128;
    let seed = gauss_main(n, 0);
    let fresh: Vec<_> = [1, 2, 17, 63, 125]
        .into_iter()
        .map(|k| gauss_main(n, k))
        .collect();
    assert_patched_equals_lowered(&seed, &fresh);
}

#[test]
fn conv_sliding_windows_patch_bitwise() {
    let (n, chans) = (32, 4);
    // All windows come from the two-shift skeleton (dx ≠ 0, dy ≠ 0): a tap
    // with a zero component has structurally fewer `mv` nodes and owns a
    // different template, exactly as the run matrix's 3 conv3d lowerings show.
    let seed = conv3d_acc(n, chans, 0, -1, -1);
    let fresh: Vec<_> = [(0, 1, -1), (1, 1, 1), (2, -1, 1), (3, 1, 1)]
        .into_iter()
        .map(|(ci, dx, dy)| conv3d_acc(n, chans, ci, dx, dy))
        .collect();
    assert_patched_equals_lowered(&seed, &fresh);
}

/// The restored shifted-output path: successive matmul inner-product rows
/// write `C[m][..]` for growing `m`. Their §3.2 bounding drags to `[-m, N)`,
/// but planning anchors on the touched lattice, so every row must plan, share
/// one signature, and patch bit-identically.
#[test]
fn shifted_output_rows_patch_bitwise() {
    let n: u64 = 128;
    let build = |m: i64| -> RegionInstance {
        let mut kb = KernelBuilder::new("mm_row", DataType::F32);
        let _a = kb.array("A", vec![n, n]);
        let b = kb.array("B", vec![n, n]);
        let c = kb.array("C", vec![n, n]);
        let buf = kb.array("buf", vec![n, 1]);
        let mm = kb.sym("m");
        let kk = kb.parallel_loop("k", 0, n as i64);
        let nn = kb.parallel_loop("n", 0, n as i64);
        let prod = ScalarExpr::mul(
            ScalarExpr::load(buf, vec![Idx::var(kk), Idx::constant(0)]),
            ScalarExpr::load(b, vec![Idx::var(kk), Idx::var(nn)]),
        );
        kb.assign_reduced(
            c,
            vec![Idx::sym(mm), Idx::var(nn)],
            prod,
            vec![(kk, ReduceOp::Sum)],
        );
        Compiler {
            optimize: true,
            ..Default::default()
        }
        .compile(kb.build().expect("mm_row builds"), &[0])
        .expect("mm_row compiles")
        .into_instance(&[m])
        .expect("mm_row instantiates")
    };
    let seed = build(0);
    let fresh: Vec<_> = [1, 64, 127].into_iter().map(build).collect();
    assert_patched_equals_lowered(&seed, &fresh);
}
