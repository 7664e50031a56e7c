//! Machine-policy tests: delayed release of transposed data, tile-change
//! re-transposition, hybrid Mix accounting, residency tracking, and the
//! geometry sensitivity of the command timing.

use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_isa::{Compiler, RegionInstance};
use infs_sdfg::DataType;
use infs_sim::{ExecMode, Executed, Machine, SystemConfig};

/// `B = A + A(shifted by one along hint_dim)` over an `n×n` grid, with the
/// domain kept in-bounds on the shifted dimension.
fn elementwise_region(name: &str, n: u64, hint_dim: usize) -> RegionInstance {
    let (di, dj) = if hint_dim == 0 { (1, 0) } else { (0, 1) };
    let mut k = KernelBuilder::new(name, DataType::F32);
    let a = k.array("A", vec![n, n]);
    let b = k.array("B", vec![n, n]);
    let i = k.parallel_loop("i", 0, n as i64 - i64::from(hint_dim == 0));
    let j = k.parallel_loop("j", 0, n as i64 - i64::from(hint_dim == 1));
    let shifted = ScalarExpr::load(a, vec![Idx::var_plus(i, di), Idx::var_plus(j, dj)]);
    let base = ScalarExpr::load(a, vec![Idx::var(i), Idx::var(j)]);
    k.assign(
        b,
        vec![Idx::var(i), Idx::var(j)],
        ScalarExpr::add(base, shifted),
    );
    let _ = b;
    Compiler::default()
        .compile(k.build().expect("builds"), &[])
        .expect("compiles")
        .into_instance(&[])
        .expect("instantiates")
}

#[test]
fn transposed_data_is_reused_across_regions() {
    let region = elementwise_region("r", 256, 0);
    let mut m = Machine::new(SystemConfig::default(), region.sdfg.arrays());
    m.set_functional(false);
    m.set_resident_all();
    let first = m.run_region(&region, &[], ExecMode::InL3).unwrap().cycles;
    let second = m.run_region(&region, &[], ExecMode::InL3).unwrap().cycles;
    // Second entry: no transpose, memoized JIT.
    assert!(second < first, "second {second} vs first {first}");
    let stats = m.finish();
    assert_eq!(stats.jit_misses, 1);
    assert_eq!(stats.jit_hits, 1);
}

#[test]
fn explicit_release_charges_eviction() {
    let region = elementwise_region("r", 256, 0);
    let mut m = Machine::new(SystemConfig::default(), region.sdfg.arrays());
    m.set_functional(false);
    m.set_resident_all();
    m.run_region(&region, &[], ExecMode::InL3).unwrap();
    let before = m.stats().clone();
    m.release_transposed();
    let after = m.stats();
    assert!(
        after.breakdown.dram > before.breakdown.dram,
        "eviction writes back"
    );
    assert!(after.energy.dram > before.energy.dram);
    // Releasing twice is a no-op.
    let again = after.clone();
    m.release_transposed();
    assert_eq!(m.stats().cycles, again.cycles);
}

#[test]
fn core_fallback_keeps_transposed_state() {
    // §5.3: normal accesses coexist with transposed data; a Base region in
    // between must not force a re-transpose.
    let region = elementwise_region("r", 256, 0);
    let mut m = Machine::new(SystemConfig::default(), region.sdfg.arrays());
    m.set_functional(false);
    m.set_resident_all();
    m.run_region(&region, &[], ExecMode::InL3).unwrap();
    m.run_region(&region, &[], ExecMode::Base { threads: 64 })
        .unwrap();
    let warm = m.run_region(&region, &[], ExecMode::InL3).unwrap().cycles;
    let stats = m.finish();
    assert_eq!(stats.jit_misses, 1, "no re-lowering after a core interlude");
    // The third in-memory entry is as cheap as a memoized one.
    assert!(warm < 100_000, "warm re-entry should be cheap, got {warm}");
}

#[test]
fn near_memory_between_in_memory_counts_as_mix() {
    let region = elementwise_region("r", 256, 0);
    let mut m = Machine::new(SystemConfig::default(), region.sdfg.arrays());
    m.set_functional(false);
    m.set_resident_all();
    m.run_region(&region, &[], ExecMode::InL3).unwrap();
    // Force a near-memory execution while transposed state is live.
    let r = m.run_region(&region, &[], ExecMode::NearL3).unwrap();
    assert_eq!(r.executed, Executed::NearMemory);
    let stats = m.finish();
    assert!(
        stats.breakdown.near_mem > 0,
        "plain NearL3 mode accounts as near-mem"
    );
}

#[test]
fn bigger_arrays_shorten_command_streams() {
    // The 512×512 geometry quarters the tile count; the same region lowers to
    // fewer, larger commands and must not be slower.
    let mk_cfg = |g| SystemConfig {
        geometry: g,
        arrays_per_way: 4, // keep total capacity constant
        ..Default::default()
    };
    let region = elementwise_region("r", 512, 0);
    let run = |cfg: SystemConfig| {
        let mut m = Machine::new(cfg, region.sdfg.arrays());
        m.set_functional(false);
        m.set_assume_transposed(true);
        m.run_region(&region, &[], ExecMode::InL3).unwrap();
        m.run_region(&region, &[], ExecMode::InL3).unwrap().cycles
    };
    let t256 = run(SystemConfig::default());
    let t512 = run(mk_cfg(infs_isa::SramGeometry::G512));
    assert!(
        t512 <= t256 * 2,
        "512x512 arrays must stay in the same band: {t512} vs {t256}"
    );
}

#[test]
fn infs_decision_is_size_dependent() {
    let small = elementwise_region("small", 32, 0);
    let big = elementwise_region("big", 1024, 0);
    let cfg = SystemConfig::default();
    let mut m1 = Machine::new(cfg.clone(), small.sdfg.arrays());
    m1.set_functional(false);
    m1.set_resident_all();
    assert_eq!(
        m1.run_region(&small, &[], ExecMode::InfS).unwrap().executed,
        Executed::NearMemory,
        "1k elements stay near-memory (Eq 2)"
    );
    let mut m2 = Machine::new(cfg, big.sdfg.arrays());
    m2.set_functional(false);
    m2.set_resident_all();
    assert_eq!(
        m2.run_region(&big, &[], ExecMode::InfS).unwrap().executed,
        Executed::InMemory,
        "1M elements go in-memory (Eq 2)"
    );
}
