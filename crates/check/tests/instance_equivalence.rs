//! The static pipeline runs once per compiled region, and region entry at the
//! compiled binding hands out the instance that one run embedded in the fat
//! binary. These tests pin that the embedded instance is *the same value* a
//! caller would get by running the stages itself — `streamize` → `tensorize`
//! → `optimize` → `Schedule::compute` — compared as serialized bytes, with
//! the optimizer on and off; and that a symbolic kernel entered at a binding
//! it was not compiled for still builds an instance of the same structure
//! over different domains. Entry at another binding replays the compiled
//! optimization when the binding cannot change it; the last tests pin when
//! it does, when it must not, and that either way the bytes are the
//! oracle's.

use infs_check::{campaign_seed, generate};
use infs_frontend::{FrontendError, Idx, Kernel, KernelBuilder, ScalarExpr};
use infs_isa::{CompiledRegion, Compiler, FatBinary, RegionInstance, Schedule};
use infs_sdfg::{ArrayId, DataType, ReduceOp};
use infs_serve::demo;
use infs_tdfg::ComputeOp;

/// The oracle: one call per stage, assembled by hand.
fn staged(kernel: &Kernel, syms: &[i64], c: &Compiler) -> RegionInstance {
    let sdfg = kernel.streamize(syms).expect("streamizes");
    let in_memory = match kernel.tensorize(syms) {
        Ok(g) => {
            let g = if c.optimize {
                infs_egraph::optimize(&g, &c.cost).expect("optimizes")
            } else {
                g
            };
            let schedules: Vec<Schedule> = c
                .geometries
                .iter()
                .filter_map(|&geom| Schedule::compute(&g, geom).ok())
                .collect();
            (!schedules.is_empty()).then_some((g, schedules))
        }
        Err(FrontendError::NotTensorizable { .. }) => None,
        Err(e) => panic!("tensorize failed: {e}"),
    };
    let mut inst = RegionInstance {
        name: kernel.name().to_string(),
        syms: syms.to_vec(),
        tdfg: None,
        sdfg,
        schedules: Vec::new(),
        hints: Default::default(),
        profile: Default::default(),
    };
    if let Some((g, schedules)) = in_memory {
        inst.hints = g.layout_hints();
        inst.profile = g.op_profile();
        inst.tdfg = Some(g);
        inst.schedules = schedules;
    }
    inst
}

fn json(inst: &RegionInstance) -> String {
    serde_json::to_string(inst).expect("instances serialize")
}

/// Compiles `kernel` at `syms` with the optimizer on and off and holds the
/// region entry at `syms`, and the embedded instance, to the oracle's bytes.
fn assert_entry_matches_stages(kernel: &Kernel, syms: &[i64]) {
    for optimize in [true, false] {
        let c = Compiler {
            optimize,
            ..Compiler::default()
        };
        let region = c.compile(kernel.clone(), syms).expect("compiles");
        let want = json(&staged(kernel, syms, &c));
        let entered = region.instantiate(syms).expect("instantiates");
        assert_eq!(
            json(&entered),
            want,
            "{} (optimize {optimize}): entry differs from the staged build",
            kernel.name()
        );
        assert_eq!(
            json(&region.into_instance(syms).expect("instantiates")),
            want,
            "{} (optimize {optimize}): owned entry differs",
            kernel.name()
        );
    }
}

/// `stencil2d`'s forward phase: five taps, one shared scaling.
fn stencil2d(n: u64) -> Kernel {
    let mut k = KernelBuilder::new("stencil2d_fwd", DataType::F32);
    let a = k.array("A", vec![n, n]);
    let b = k.array("B", vec![n, n]);
    let i = k.parallel_loop("i", 1, n as i64 - 1);
    let j = k.parallel_loop("j", 1, n as i64 - 1);
    let tap =
        |di: i64, dj: i64| ScalarExpr::load(a, vec![Idx::var_plus(i, di), Idx::var_plus(j, dj)]);
    let sum = ScalarExpr::add(
        ScalarExpr::add(tap(0, 0), ScalarExpr::add(tap(-1, 0), tap(1, 0))),
        ScalarExpr::add(tap(0, -1), tap(0, 1)),
    );
    k.assign(
        b,
        vec![Idx::var(i), Idx::var(j)],
        ScalarExpr::mul(sum, ScalarExpr::Const(0.2)),
    );
    k.build().expect("stencil2d builds")
}

/// `dwt2d`'s horizontal predict phase: `D = A − 0.5·(A← + A→)`.
fn dwt_h_predict(n: u64) -> Kernel {
    let mut k = KernelBuilder::new("dwt_h_predict", DataType::F32);
    let arrays: Vec<ArrayId> = ["A", "D", "S", "D2", "OUT"]
        .iter()
        .map(|nm| k.array(*nm, vec![n, n]))
        .collect();
    let i = k.parallel_loop("i", 1, n as i64 - 1);
    let j = k.parallel_loop("j", 0, n as i64);
    let tap = |d: i64| ScalarExpr::load(arrays[0], vec![Idx::var_plus(i, d), Idx::var(j)]);
    let e = ScalarExpr::add(
        tap(0),
        ScalarExpr::mul(ScalarExpr::add(tap(-1), tap(1)), ScalarExpr::Const(-0.5)),
    );
    k.assign(arrays[1], vec![Idx::var(i), Idx::var(j)], e);
    k.build().expect("dwt phase builds")
}

/// `conv2d`: Fig 6's `[C0 C1 C0; C1 C2 C1; C0 C1 C0]`, whose shared scalings
/// the optimizer factors.
fn conv2d(n: u64) -> Kernel {
    const C0: f32 = 0.0625;
    const C1: f32 = 0.125;
    const C2: f32 = 0.25;
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
    let mut acc = tap(0, 0, C2);
    for (di, dj, w) in [
        (-1, -1, C0),
        (1, -1, C0),
        (-1, 1, C0),
        (1, 1, C0),
        (-1, 0, C1),
        (1, 0, C1),
        (0, -1, C1),
        (0, 1, C1),
    ] {
        acc = ScalarExpr::add(acc, tap(di, dj, w));
    }
    k.assign(b, vec![Idx::var(i), Idx::var(j)], acc);
    k.build().expect("conv2d builds")
}

/// A 3-point stencil over `[1, n − 1)`, `n` symbolic.
fn stencil1d_sym() -> Kernel {
    let mut k = KernelBuilder::new("stencil1d", DataType::F32);
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
    k.build().expect("stencil1d builds")
}

/// `gauss_elim`'s update of the trailing `[k + 1, n)²` submatrix, `k` symbolic.
fn gauss_main(n: u64) -> Kernel {
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
    kb.build().expect("gauss_main builds")
}

#[test]
fn demo_and_workload_kernels_enter_as_the_stages_build_them() {
    for kernel in [
        demo::scale(4096),
        demo::vec_add(4096),
        demo::stencil(4096),
        demo::mat_update(64, 12),
        demo::mat_muladd(64, 8),
        demo::mat_stencil(64),
        stencil2d(64),
        dwt_h_predict(64),
        conv2d(64),
    ] {
        assert_entry_matches_stages(&kernel, &[]);
    }
    assert_entry_matches_stages(&stencil1d_sym(), &[256]);
    assert_entry_matches_stages(&gauss_main(64), &[0]);
}

#[test]
fn fuzz_campaign_kernels_enter_as_the_stages_build_them() {
    for i in 0..200 {
        let kernel = generate(campaign_seed(0xC0FFEE, i))
            .to_kernel()
            .expect("campaign kernels build");
        assert_entry_matches_stages(&kernel, &[]);
    }
}

/// Entering a symbolic kernel away from the compiled binding runs the stages
/// for that binding: same oracle bytes, same graph structure as the embedded
/// instance, different domains.
#[test]
fn other_bindings_build_and_differ_only_in_domains() {
    for (kernel, compiled, other) in [(stencil1d_sym(), [256], [128]), (gauss_main(64), [0], [7])] {
        for optimize in [true, false] {
            let c = Compiler {
                optimize,
                ..Compiler::default()
            };
            let region = c.compile(kernel.clone(), &compiled).expect("compiles");
            let rep = region.representative.as_ref().expect("embedded");
            let inst = region.instantiate(&other).expect("instantiates");
            assert_eq!(json(&inst), json(&staged(&kernel, &other, &c)));
            assert_eq!(inst.syms, other);
            assert_eq!(inst.schedules.len(), rep.schedules.len());
            let (g, rep_g) = (inst.tdfg.as_ref().unwrap(), rep.tdfg.as_ref().unwrap());
            assert_eq!(
                g.structural_signature(),
                rep_g.structural_signature(),
                "{} (optimize {optimize}): structure moved with the binding",
                kernel.name()
            );
            assert_ne!(
                g.command_signature(),
                rep_g.command_signature(),
                "{} (optimize {optimize}): domains did not move with the binding",
                kernel.name()
            );
        }
    }
}

/// `C[m][·] = Σ_k buf[k] · B[k][·]`, `m` symbolic: `mm/in`'s row. Only the
/// output row moves with `m`.
fn row_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("row", DataType::F32);
    let b = kb.array("B", vec![32, 32]);
    let c = kb.array("C", vec![32, 32]);
    let buf = kb.array("buf", vec![32, 1]);
    let m = kb.sym("m");
    let k = kb.parallel_loop("k", 0, 32);
    let n = kb.parallel_loop("n", 0, 32);
    let prod = ScalarExpr::mul(
        ScalarExpr::load(buf, vec![Idx::var(k), Idx::constant(0)]),
        ScalarExpr::load(b, vec![Idx::var(k), Idx::var(n)]),
    );
    kb.assign_reduced(
        c,
        vec![Idx::sym(m), Idx::var(n)],
        prod,
        vec![(k, ReduceOp::Sum)],
    );
    kb.build().expect("row builds")
}

/// A 3-point stencil over `A[0, 64)` stored to `B[i + s]`, `s` symbolic:
/// the nodes never move, but `B`'s lattice box, and with it the bounding
/// box, slides left as `s` grows. The taps' moves clip against its edges.
fn shifted_stencil() -> Kernel {
    let mut k = KernelBuilder::new("shifted_stencil", DataType::F32);
    let s = k.sym("s");
    let a = k.array("A", vec![64]);
    let b = k.array("B", vec![80]);
    let i = k.parallel_loop("i", 1, 63);
    let tap = |d: i64| ScalarExpr::load(a, vec![Idx::var_plus(i, d)]);
    k.assign(
        b,
        vec![Idx::var(i).plus_sym(s, 1)],
        ScalarExpr::add(ScalarExpr::add(tap(-1), tap(0)), tap(1)),
    );
    k.build().expect("shifted stencil builds")
}

/// Enters `region` at each binding of `entries` and holds every instance to
/// the oracle's bytes and every optimize stage to the expected outcome
/// (`reused` or `ran`, read off the `isa.instantiate` span).
fn assert_entries(kernel: &Kernel, region: &CompiledRegion, entries: &[(i64, &str)]) {
    let c = Compiler::default();
    let _session = infs_trace::exclusive();
    for &(s, want) in entries {
        infs_trace::clear();
        let inst = region.instantiate(&[s]).expect("instantiates");
        let snap = infs_trace::snapshot();
        let how: Vec<&infs_trace::ArgValue> = snap
            .events
            .iter()
            .filter(|e| e.name == "isa.instantiate")
            .flat_map(|e| e.args.iter().filter(|(k, _)| *k == "optimize"))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(
            how,
            [&infs_trace::ArgValue::Str(want.into())],
            "{} at [{s}]",
            kernel.name()
        );
        assert_eq!(
            json(&inst),
            json(&staged(kernel, &[s], &c)),
            "{} at [{s}] ({want}): entry differs from the staged build",
            kernel.name()
        );
    }
}

/// A row-selecting region replays its compiled optimization at every other
/// row, and every replay is the full optimizer's graph byte for byte.
#[test]
fn a_row_selecting_region_replays_its_optimization() {
    let kernel = row_kernel();
    let region = Compiler::default()
        .compile(kernel.clone(), &[0])
        .expect("compiles");
    let entries: Vec<(i64, &str)> = [1, 5, 17, 31].map(|m| (m, "reused")).to_vec();
    assert_entries(&kernel, &region, &entries);
}

/// Where the bounding box clips a move differently from the compiled
/// binding, the replay is refused and the optimizer runs in full; where it
/// clips the same, the replay is taken.
#[test]
fn a_binding_that_moves_a_clip_is_optimized_in_full() {
    let kernel = shifted_stencil();
    let region = Compiler::default()
        .compile(kernel.clone(), &[4])
        .expect("compiles");
    // At `s = 0` the bounding box starts at 0 and cuts a left-moved cover;
    // at `s = 16` it ends at 64 and cuts a right-moved one.
    assert_entries(
        &kernel,
        &region,
        &[(2, "reused"), (8, "reused"), (0, "ran"), (16, "ran")],
    );
}

/// The optimization record is not part of the fat binary: a region read back
/// from JSON optimizes every other binding in full, to the same bytes.
#[test]
fn a_region_read_from_json_optimizes_in_full() {
    let kernel = row_kernel();
    let mut fb = FatBinary::new();
    fb.push(
        Compiler::default()
            .compile(kernel.clone(), &[0])
            .expect("compiles"),
    );
    let json_bytes = fb.to_json().expect("serializes");
    let back = FatBinary::from_json(&json_bytes).expect("parses");
    assert_eq!(back.to_json().expect("serializes"), json_bytes);
    assert_eq!(
        back.content_hash().expect("hashes"),
        fb.content_hash().expect("hashes")
    );
    let entries: Vec<(i64, &str)> = [1, 5, 31].map(|m| (m, "ran")).to_vec();
    assert_entries(&kernel, &back.regions[0], &entries);
}
