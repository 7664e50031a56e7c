//! One machine, many unrelated requests — the contract the serving layer's
//! one-resident-machine-per-worker design rests on (`DESIGN.md` §8):
//! machines built over one `JitCache` reuse each other's lowered commands,
//! and `Machine::reset(arrays)` hands the next request zeroed memory for
//! *its* table while the machine itself (JIT handle, health) lives on.

use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_isa::{Compiler, RegionInstance};
use infs_runtime::JitCache;
use infs_sdfg::{ArrayId, DataType};
use infs_sim::{ExecMode, Executed, JitOutcome, Machine, SystemConfig};
use std::sync::Arc;

/// `A[i] *= param0` over `n` elements.
fn scale_region(n: u64) -> RegionInstance {
    let mut k = KernelBuilder::new("scale", DataType::F32);
    let a = k.array("A", vec![n]);
    let i = k.parallel_loop("i", 0, n as i64);
    k.assign(
        a,
        vec![Idx::var(i)],
        ScalarExpr::mul(ScalarExpr::load(a, vec![Idx::var(i)]), ScalarExpr::Param(0)),
    );
    Compiler::default()
        .compile(k.build().unwrap(), &[])
        .unwrap()
        .into_instance(&[])
        .unwrap()
}

const A: ArrayId = ArrayId(0);

/// A shared JitCache observes lowering traffic from multiple machines;
/// re-running a region on a *new* machine hits the commands the first one
/// lowered. InL3 forces the in-memory path (InfS's Eq 2 decision would keep
/// a region this small off the bitlines entirely).
#[test]
fn machines_share_a_jit_cache() {
    let jit = Arc::new(JitCache::new());
    let region = scale_region(256);
    for round in 0..2 {
        let mut m = Machine::with_jit(SystemConfig::default(), region.sdfg.arrays(), jit.clone());
        m.memory().write_array(A, &vec![1.0; 256]);
        let r = m.run_region(&region, &[2.0], ExecMode::InL3).unwrap();
        assert_eq!(r.executed, Executed::InMemory);
        assert_eq!(
            r.jit_outcome.map(JitOutcome::is_hit),
            Some(round == 1),
            "round 0 lowers, round 1 hits the shared cache"
        );
    }
    assert_eq!(jit.stats(), (1, 1));
}

/// reset(arrays) clears functional memory and per-run state so a resident
/// machine serves unrelated requests without leaking data — the unchanged
/// table here is the case that keeps its allocation.
#[test]
fn reset_clears_memory_between_requests() {
    let region = scale_region(256);
    let mut m = Machine::new(SystemConfig::default(), region.sdfg.arrays());
    m.memory().write_array(A, &vec![2.0; 256]);
    m.run_region(&region, &[3.0], ExecMode::InfS).unwrap();
    assert!(m.memory_ref().array(A).iter().all(|&x| x == 6.0));
    m.reset(region.sdfg.arrays());
    assert!(m.memory_ref().array(A).iter().all(|&x| x == 0.0));
    assert_eq!(m.stats().cycles, 0);
    // The machine still runs after a reset.
    m.memory().write_array(A, &vec![1.0; 256]);
    m.run_region(&region, &[5.0], ExecMode::InfS).unwrap();
    assert!(m.memory_ref().array(A).iter().all(|&x| x == 5.0));
}

/// reset(arrays) loads a *different* table: memory and residency follow the
/// new declarations, and the commands lowered for the first table's region
/// are still in the machine's JIT cache when that table comes back.
#[test]
fn reset_retargets_the_machine_at_another_table() {
    let (small, large) = (scale_region(256), scale_region(4096));
    let mut m = Machine::new(SystemConfig::default(), small.sdfg.arrays());
    m.memory().write_array(A, &vec![1.0; 256]);
    let first = m.run_region(&small, &[2.0], ExecMode::InL3).unwrap();
    assert_eq!(first.jit_outcome.map(JitOutcome::is_hit), Some(false));

    m.reset(large.sdfg.arrays());
    assert_eq!(m.memory_ref().array(A), vec![0.0; 4096]);
    m.memory().write_array(A, &vec![3.0; 4096]);
    m.run_region(&large, &[2.0], ExecMode::InL3).unwrap();
    assert!(m.memory_ref().array(A).iter().all(|&x| x == 6.0));

    m.reset(small.sdfg.arrays());
    assert_eq!(m.memory_ref().array(A), vec![0.0; 256]);
    let again = m.run_region(&small, &[2.0], ExecMode::InL3).unwrap();
    assert_eq!(
        again.jit_outcome.map(JitOutcome::is_hit),
        Some(true),
        "the JIT handle survives reset"
    );
    assert!(
        again.cycles < first.cycles,
        "a hit is cheaper than lowering"
    );
}

/// A machine's JIT outcomes are in its stats as soon as the region returns —
/// what a serve worker reads between requests — not only after `finish()`.
#[test]
fn machine_stats_count_jit_outcomes_before_finish() {
    let region = scale_region(256);
    let mut m = Machine::new(SystemConfig::default(), region.sdfg.arrays());
    m.run_region(&region, &[2.0], ExecMode::InL3).unwrap();
    assert_eq!((m.stats().jit_hits, m.stats().jit_misses), (0, 1));
    m.run_region(&region, &[2.0], ExecMode::InL3).unwrap();
    assert_eq!((m.stats().jit_hits, m.stats().jit_misses), (1, 1));
    let stats = m.finish();
    assert_eq!((stats.jit_hits, stats.jit_misses), (1, 1));
}
