//! Machine-policy tests: delayed release of transposed data, the residency
//! ledger's rules (clean drops are free, a tile change re-lays-out only what
//! the entry needs, the compute ways bound what stays transposed, every
//! write-back lands in a region report), hybrid Mix accounting, and the
//! geometry sensitivity of the command timing.

use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_geom::TileShape;
use infs_isa::{Compiler, RegionInstance};
use infs_sdfg::DataType;
use infs_sim::{
    EnergyParams, ExecMode, Executed, Machine, RegionReport, RunPlan, StageRequest, SystemConfig,
};

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

/// `B_which = A_which + A_which(shifted along dim 0)` over a table of `pairs`
/// `(A_i, B_i)` array pairs of `n×n` floats (ids `2i`, `2i+1`): regions built
/// with the same `pairs` share one array table and each touches one pair.
fn pair_region(n: u64, pairs: usize, which: usize) -> RegionInstance {
    let mut k = KernelBuilder::new(format!("pair{which}"), DataType::F32);
    let ids: Vec<_> = (0..pairs)
        .map(|p| {
            (
                k.array(format!("A{p}"), vec![n, n]),
                k.array(format!("B{p}"), vec![n, n]),
            )
        })
        .collect();
    let (a, b) = ids[which];
    let i = k.parallel_loop("i", 0, n as i64 - 1);
    let j = k.parallel_loop("j", 0, n as i64);
    let sum = ScalarExpr::add(
        ScalarExpr::load(a, vec![Idx::var(i), Idx::var(j)]),
        ScalarExpr::load(a, vec![Idx::var_plus(i, 1), Idx::var(j)]),
    );
    k.assign(b, vec![Idx::var(i), Idx::var(j)], sum);
    Compiler::default()
        .compile(k.build().expect("builds"), &[])
        .expect("compiles")
        .into_instance(&[])
        .expect("instantiates")
}

/// A timing-only machine with every input warm in L3 (§6).
fn warm_machine(cfg: SystemConfig, region: &RegionInstance) -> Machine {
    let mut m = Machine::new(cfg, region.sdfg.arrays());
    m.set_functional(false);
    m.set_resident_all();
    m
}

/// One in-memory entry of `region` with every layout forced onto `tile`.
fn run_tiled(m: &mut Machine, region: &RegionInstance, tile: &[u64]) -> RegionReport {
    let plan = RunPlan {
        tile: Some(TileShape::new(tile.to_vec()).unwrap()),
        ..RunPlan::default()
    };
    let stage = StageRequest {
        region,
        params: &[],
        prefetch: &[],
        evict: &[],
    };
    let mut reports = m.run(&[stage], ExecMode::InL3, &plan).unwrap();
    reports.remove(0).region
}

/// DRAM cycles a write-back of `bytes` occupies.
fn writeback_cycles(cfg: &SystemConfig, bytes: u64) -> u64 {
    (bytes as f64 / cfg.dram_bytes_per_cycle).ceil() as u64
}

const ARRAY_BYTES: u64 = 256 * 256 * 4;

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
fn release_writes_back_only_what_was_written() {
    // The region reads array 0 and writes array 1: only array 1 is dirty.
    let region = elementwise_region("r", 256, 0);
    let cfg = SystemConfig::default();
    let mut m = warm_machine(cfg.clone(), &region);
    m.run_region(&region, &[], ExecMode::InL3).unwrap();
    let before = m.stats().clone();
    m.release_transposed();
    let after = m.stats().clone();
    assert_eq!(
        after.cycles - before.cycles,
        writeback_cycles(&cfg, ARRAY_BYTES)
    );
    assert_eq!(
        after.energy.dram - before.energy.dram,
        ARRAY_BYTES as f64 * EnergyParams::default().dram_byte
    );
    m.release_transposed();
    assert_eq!(m.stats(), &after, "a second release is a no-op");
}

#[test]
fn tile_change_relayouts_only_the_arrays_the_entry_needs() {
    let (p0, p1) = (pair_region(256, 2, 0), pair_region(256, 2, 1));
    let cfg = SystemConfig::default();
    let mut m = warm_machine(cfg.clone(), &p0);
    let (square, flat): (&[u64], &[u64]) = (&[16, 16], &[64, 4]);
    let first = run_tiled(&mut m, &p0, square);
    let other = run_tiled(&mut m, &p1, square);
    assert!(first.prepare_cycles > 0 && other.prepare_cycles > 0);

    // The same region on another tile: its two arrays move, and of those
    // only the written one goes through DRAM. The other pair stays put.
    let before = m.stats().clone();
    let flipped = run_tiled(&mut m, &p0, flat);
    assert_eq!(
        m.stats().energy.dram - before.energy.dram,
        ARRAY_BYTES as f64 * EnergyParams::default().dram_byte
    );
    assert_eq!(
        flipped.prepare_cycles,
        first.prepare_cycles + writeback_cycles(&cfg, ARRAY_BYTES)
    );
    assert_eq!(
        m.stats().breakdown.dram - before.breakdown.dram,
        flipped.prepare_cycles
    );
    let reused = run_tiled(&mut m, &p1, square);
    assert_eq!(reused.prepare_cycles, 0, "pair 1 never left its tile");

    // Every cycle of the run, the flip's write-back included, is in a report.
    let reports = [first, other, flipped, reused];
    assert_eq!(
        reports.iter().map(|r| r.cycles).sum::<u64>(),
        m.stats().cycles
    );
}

#[test]
fn compute_ways_bound_what_stays_transposed() {
    // One compute way of four 8 kB arrays per bank: 2 MB, exactly the
    // 256-tile lattice of one region and exactly four of the five pairs.
    let cfg = SystemConfig {
        reserved_ways: 17,
        arrays_per_way: 4,
        ..SystemConfig::default()
    };
    assert_eq!(cfg.compute_capacity_bytes(), 8 * ARRAY_BYTES);
    let pairs: Vec<RegionInstance> = (0..5).map(|p| pair_region(256, 5, p)).collect();
    let mut m = warm_machine(cfg.clone(), &pairs[0]);
    let mut run = |p: usize| m.run_region(&pairs[p], &[], ExecMode::InL3).unwrap();
    let fits: Vec<RegionReport> = (0..4).map(&mut run).collect();
    assert!(fits.iter().all(|r| r.executed == Executed::InMemory));
    assert!(fits
        .iter()
        .all(|r| r.prepare_cycles == fits[0].prepare_cycles));

    // The fifth pair displaces the least recently used one — pair 0, whose
    // output is dirty — and this entry pays for that write-back.
    let fifth = run(4);
    assert_eq!(
        fifth.prepare_cycles,
        fits[0].prepare_cycles + writeback_cycles(&cfg, ARRAY_BYTES)
    );
    // Pairs 1–3 and the pair just admitted were not touched...
    assert!((1..5).all(|p| run(p).prepare_cycles == 0));
    // ...and pair 0 comes back from DRAM, displacing pair 1 in turn.
    assert!(run(0).prepare_cycles > fifth.prepare_cycles);
    assert!(run(1).prepare_cycles > 0);
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
