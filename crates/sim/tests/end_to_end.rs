//! End-to-end pipeline tests: kernel → compile → instantiate → machine, under
//! every configuration of Fig 11 — checking functional equivalence across
//! modes and the paper's qualitative performance ordering.

use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_isa::{Compiler, RegionInstance};
use infs_sdfg::DataType;
use infs_sim::{ExecMode, JitOutcome, Machine, SystemConfig};

/// vec_add over n elements.
fn vec_add_region(n: u64) -> RegionInstance {
    let mut k = KernelBuilder::new("vec_add", DataType::F32);
    let a = k.array("A", vec![n]);
    let b = k.array("B", vec![n]);
    let c = k.array("C", vec![n]);
    let i = k.parallel_loop("i", 0, n as i64);
    k.assign(
        c,
        vec![Idx::var(i)],
        ScalarExpr::add(
            ScalarExpr::load(a, vec![Idx::var(i)]),
            ScalarExpr::load(b, vec![Idx::var(i)]),
        ),
    );
    let kernel = k.build().unwrap();
    Compiler::default()
        .compile(kernel, &[])
        .unwrap()
        .into_instance(&[])
        .unwrap()
}

fn run_vec_add(n: u64, mode: ExecMode) -> (u64, Vec<f32>) {
    let region = vec_add_region(n);
    let mut m = Machine::new(SystemConfig::default(), region.sdfg.arrays());
    let av: Vec<f32> = (0..n).map(|x| x as f32).collect();
    let bv: Vec<f32> = (0..n).map(|x| (2 * x) as f32).collect();
    m.memory().write_array(infs_sdfg::ArrayId(0), &av);
    m.memory().write_array(infs_sdfg::ArrayId(1), &bv);
    // Warm run (prepare and first JIT lowering), then the steady-state
    // measurement — the Fig 2 microbenchmark setting: data in L3, transposed,
    // JIT memoized.
    m.run_region(&region, &[], mode).unwrap();
    let report = m.run_region(&region, &[], mode).unwrap();
    let out = m.memory_ref().array(infs_sdfg::ArrayId(2)).to_vec();
    (report.cycles, out)
}

#[test]
fn all_modes_compute_identical_results() {
    let n = 1 << 16;
    let (_, base) = run_vec_add(n, ExecMode::Base { threads: 64 });
    for mode in [
        ExecMode::Base { threads: 1 },
        ExecMode::NearL3,
        ExecMode::InL3,
        ExecMode::InfS,
        ExecMode::InfSNoJit,
    ] {
        let (_, out) = run_vec_add(n, mode);
        assert_eq!(out, base, "results differ under {mode:?}");
    }
    assert!(base.iter().enumerate().all(|(i, &v)| v == 3.0 * i as f32));
}

#[test]
fn fig2_ordering_large_vec_add() {
    // 4M elements in steady state (the Fig 2 setting): the paradigms order
    // Base-1 > Base-64 > Near-L3 > In-L3.
    let n = 4 << 20;
    let t_base1 = run_vec_add(n, ExecMode::Base { threads: 1 }).0;
    let t_base64 = run_vec_add(n, ExecMode::Base { threads: 64 }).0;
    let t_near = run_vec_add(n, ExecMode::NearL3).0;
    let t_inl3 = run_vec_add(n, ExecMode::InL3).0;
    assert!(t_base1 > t_base64, "base1 {t_base1} vs base64 {t_base64}");
    assert!(t_base64 > t_near, "base64 {t_base64} vs near {t_near}");
    assert!(t_near > t_inl3, "near {t_near} vs inl3 {t_inl3}");
    // Fig 2: In-L3 beats Near-L3 by an order of magnitude at 4M.
    assert!(
        t_near as f64 / t_inl3 as f64 > 5.0,
        "near/inl3 = {}",
        t_near as f64 / t_inl3 as f64
    );
}

#[test]
fn small_inputs_favor_near_memory_and_eq2_agrees() {
    // 16k elements: the Eq 2 decision must keep Inf-S near-memory, and that
    // must not be slower than forcing in-memory (In-L3).
    let n = 16 << 10;
    let region = vec_add_region(n);
    let mut m = Machine::new(SystemConfig::default(), region.sdfg.arrays());
    let r = m.run_region(&region, &[], ExecMode::InfS).unwrap();
    assert_eq!(r.executed, infs_sim::Executed::NearMemory);
}

/// The steady state Fig 2 and the ablations time: a second In-L3 entry of
/// the same region finds its data still transposed and its command stream
/// memoized, so it pays neither prepare nor lowering.
#[test]
fn jit_memoization_pays_off_across_iterations() {
    let n = 1 << 20;
    let region = vec_add_region(n);
    let mut m = Machine::new(SystemConfig::default(), region.sdfg.arrays());
    let first = m.run_region(&region, &[], ExecMode::InL3).unwrap();
    assert!(first.prepare_cycles > 0, "a cold machine pays prepare");
    assert_eq!(first.jit_outcome, Some(JitOutcome::Miss));
    let second = m.run_region(&region, &[], ExecMode::InL3).unwrap();
    assert_eq!(second.prepare_cycles, 0, "transposed data stays resident");
    assert_eq!(second.jit_outcome, Some(JitOutcome::ConcreteHit));
    assert!(
        second.cycles < first.cycles,
        "second {} vs first {}",
        second.cycles,
        first.cycles
    );
    let stats = m.finish();
    assert_eq!(stats.jit_misses, 1);
    assert_eq!(stats.jit_hits, 1);
}

#[test]
fn nojit_is_faster_than_jit() {
    let n = 1 << 20;
    let t_jit = run_vec_add(n, ExecMode::InfS).0;
    let t_nojit = run_vec_add(n, ExecMode::InfSNoJit).0;
    assert!(t_nojit < t_jit, "nojit {t_nojit} vs jit {t_jit}");
}

#[test]
fn prepare_charges_dram_and_traffic_when_not_resident() {
    let n = 1 << 20;
    let region = vec_add_region(n);
    let mut m = Machine::new(SystemConfig::default(), region.sdfg.arrays());
    let r = m.run_region(&region, &[], ExecMode::InL3).unwrap();
    assert!(r.cycles > 0);
    let stats = m.finish();
    assert!(
        stats.breakdown.dram > 0,
        "transpose/prepare must cost DRAM time"
    );
    assert!(stats.traffic.noc_data > 0.0);
    assert!(stats.energy.dram > 0.0);
}

#[test]
fn in_memory_traffic_is_mostly_intra_tile() {
    // Inf-S converts data movement into intra-array shifts (Fig 13).
    let n = 1 << 20;
    let region = vec_add_region(n);
    let mut m = Machine::new(SystemConfig::default(), region.sdfg.arrays());
    m.run_region(&region, &[], ExecMode::InL3).unwrap();
    let stats = m.finish();
    // Element-wise vec_add has aligned operands: essentially no NoC data.
    assert!(stats.traffic.noc_inter_tile < 1e-9);
    assert!(stats.ops_in_memory > 0);
    assert!(stats.in_memory_op_fraction() > 0.99);
}
