//! The degradation ladder end to end (`DESIGN.md` §10): dead banks push
//! Inf-S regions off the bitlines to near-memory and finally to the host,
//! NoC faults cost cycles without corrupting results, and every degraded
//! run stays bit-identical to the healthy host reference.

use infs_faults::{FaultConfig, FaultPlan};
use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_geom::TileShape;
use infs_isa::{Compiler, RegionInstance};
use infs_sdfg::{ArrayId, DataType};
use infs_sim::{
    ExecMode, Executed, Machine, RegionReport, RunPlan, StageRequest, SystemConfig, Tier,
};
use std::sync::Arc;

/// vec_add over n elements — large enough that healthy Inf-S goes in-memory.
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

fn machine_for(region: &RegionInstance) -> Machine {
    Machine::new(SystemConfig::default(), region.sdfg.arrays())
}

fn load_inputs(m: &mut Machine, n: u64) {
    let av: Vec<f32> = (0..n).map(|x| x as f32).collect();
    let bv: Vec<f32> = (0..n).map(|x| (3 * x) as f32).collect();
    m.memory().write_array(ArrayId(0), &av);
    m.memory().write_array(ArrayId(1), &bv);
}

fn kill_banks(m: &mut Machine, count: u32) {
    let mut h = m.bank_health().clone();
    for b in 0..count {
        h.mark_dead(b);
    }
    m.set_bank_health(h);
}

const N: u64 = 1 << 17;

/// Host reference output for the shared inputs.
fn host_reference() -> Vec<f32> {
    let region = vec_add_region(N);
    let mut m = machine_for(&region);
    load_inputs(&mut m, N);
    let r = m
        .run_region(&region, &[], ExecMode::Base { threads: 64 })
        .unwrap();
    assert_eq!(r.executed, Executed::Core);
    m.memory_ref().array(ArrayId(2)).to_vec()
}

#[test]
fn infs_degrades_to_near_memory_then_host_bit_identically() {
    let reference = host_reference();
    let region = vec_add_region(N);

    // Healthy: Eq 2 sends this region in-memory.
    let mut healthy = machine_for(&region);
    load_inputs(&mut healthy, N);
    let r = healthy.run_region(&region, &[], ExecMode::InfS).unwrap();
    assert_eq!(r.executed, Executed::InMemory);
    assert_eq!(healthy.memory_ref().array(ArrayId(2)), &reference[..]);
    assert_eq!(healthy.fault_counters().degraded_to_near, 0);

    // Below the in-memory quorum: degrade to the stream engines.
    let mut degraded = machine_for(&region);
    kill_banks(&mut degraded, 33); // 31 of 64 healthy < quorum
    load_inputs(&mut degraded, N);
    let r = degraded.run_region(&region, &[], ExecMode::InfS).unwrap();
    assert_eq!(r.executed, Executed::NearMemory);
    assert_eq!(degraded.memory_ref().array(ArrayId(2)), &reference[..]);
    assert_eq!(degraded.fault_counters().degraded_to_near, 1);
    assert_eq!(degraded.fault_counters().degraded_to_host, 0);

    // No banks at all: even near-memory is gone — host, still bit-correct.
    let mut dead = machine_for(&region);
    kill_banks(&mut dead, 64);
    load_inputs(&mut dead, N);
    let r = dead.run_region(&region, &[], ExecMode::InfS).unwrap();
    assert_eq!(r.executed, Executed::Core);
    assert_eq!(dead.memory_ref().array(ArrayId(2)), &reference[..]);
    assert_eq!(dead.fault_counters().degraded_to_host, 1);
}

#[test]
fn in_l3_loses_quorum_and_falls_back_to_cores() {
    let region = vec_add_region(N);
    let mut m = machine_for(&region);
    load_inputs(&mut m, N);
    let r = m.run_region(&region, &[], ExecMode::InL3).unwrap();
    assert_eq!(r.executed, Executed::InMemory);
    assert_eq!(m.fault_counters().degraded_to_host, 0);

    // 24 of 64 healthy: below the quorum, so the cores take the region —
    // a step down from where a healthy machine runs it, and counted.
    let mut m = machine_for(&region);
    kill_banks(&mut m, 40);
    load_inputs(&mut m, N);
    let r = m.run_region(&region, &[], ExecMode::InL3).unwrap();
    assert_eq!(r.executed, Executed::Core);
    assert_eq!(m.fault_counters().degraded_to_host, 1);
}

#[test]
fn near_l3_with_no_banks_degrades_to_host() {
    let reference = host_reference();
    let region = vec_add_region(N);
    let mut m = machine_for(&region);
    kill_banks(&mut m, 64);
    load_inputs(&mut m, N);
    let r = m.run_region(&region, &[], ExecMode::NearL3).unwrap();
    assert_eq!(r.executed, Executed::Core);
    assert_eq!(m.fault_counters().degraded_to_host, 1);
    assert_eq!(m.memory_ref().array(ArrayId(2)), &reference[..]);
}

#[test]
fn noc_faults_cost_cycles_but_not_correctness() {
    let reference = host_reference();
    let region = vec_add_region(N);

    let clean_cycles = {
        let mut m = machine_for(&region);
        load_inputs(&mut m, N);
        let mut total = 0;
        for _ in 0..12 {
            total += m.run_region(&region, &[], ExecMode::InfS).unwrap().cycles;
        }
        assert_eq!(m.fault_counters().noc_penalty_cycles, 0);
        total
    };

    // Same seed twice: identical penalties; faults only ever add cycles.
    let mut totals = Vec::new();
    for _ in 0..2 {
        let plan = Arc::new(FaultPlan::new(FaultConfig {
            seed: 99,
            noc_drop_period: 5,
            noc_delay_period: 3,
            noc_delay_max_cycles: 1_000,
            ..FaultConfig::none()
        }));
        let mut m = machine_for(&region);
        m.set_fault_plan(plan);
        load_inputs(&mut m, N);
        let mut total = 0;
        for _ in 0..12 {
            total += m.run_region(&region, &[], ExecMode::InfS).unwrap().cycles;
        }
        let fc = m.fault_counters().clone();
        assert!(fc.noc_drops > 0, "drop schedule must fire: {fc:?}");
        assert!(fc.noc_delays > 0, "delay schedule must fire: {fc:?}");
        assert_eq!(total, clean_cycles + fc.noc_penalty_cycles);
        assert_eq!(m.memory_ref().array(ArrayId(2)), &reference[..]);
        totals.push((total, fc));
    }
    assert_eq!(totals[0], totals[1], "same seed, same penalties");
}

#[test]
fn sram_flips_quarantine_banks_and_health_survives_reset() {
    let region = vec_add_region(N);
    let plan = Arc::new(FaultPlan::new(FaultConfig {
        seed: 7,
        sram_flip_period: 4,
        ..FaultConfig::none()
    }));
    let mut m = machine_for(&region);
    m.set_fault_plan(plan);
    load_inputs(&mut m, N);
    for _ in 0..32 {
        m.run_region(&region, &[], ExecMode::InfS).unwrap();
    }
    let fc = m.fault_counters().clone();
    assert!(fc.sram_flips_detected > 0);
    assert!(fc.banks_quarantined > 0);
    let dead_before = m.bank_health().dead_banks();
    assert_eq!(dead_before.len() as u64, fc.banks_quarantined);

    // Reset wipes request state but not quarantined silicon.
    m.reset(region.sdfg.arrays());
    assert_eq!(m.bank_health().dead_banks(), dead_before);
    assert_eq!(m.fault_counters(), &fc);
}

#[test]
fn initial_health_comes_from_the_plan() {
    let region = vec_add_region(N);
    let plan = Arc::new(FaultPlan::new(FaultConfig {
        seed: 5,
        dead_banks: 6,
        ..FaultConfig::none()
    }));
    let mut m = machine_for(&region);
    m.set_fault_plan(plan.clone());
    assert_eq!(m.bank_health(), &plan.initial_health(64));
    assert_eq!(m.bank_health().healthy_count(), 58);
}

/// One region entry through [`Machine::run`] under `mode` and `plan`.
fn run_under(
    m: &mut Machine,
    region: &RegionInstance,
    mode: ExecMode,
    plan: &RunPlan,
) -> RegionReport {
    let stage = StageRequest {
        region,
        params: &[],
        prefetch: &[],
        evict: &[],
    };
    let mut reports = m.run(&[stage], mode, plan).unwrap();
    assert_eq!(reports.len(), 1);
    reports.remove(0).region
}

fn forced(tier: Tier) -> RunPlan {
    RunPlan {
        tier: Some(tier),
        ..RunPlan::default()
    }
}

#[test]
fn forced_in_memory_without_a_feasible_layout_falls_back_to_near_memory() {
    let reference = host_reference();
    let region = vec_add_region(N);
    let mut m = machine_for(&region);
    load_inputs(&mut m, N);

    // Feasible: the forced tier is honored.
    let r = run_under(&mut m, &region, ExecMode::InfS, &forced(Tier::InMemory));
    assert_eq!(r.executed, Executed::InMemory);

    // A tile that does not fill the bitlines admits no layout, so there is
    // nothing to run in memory: the stream engines take the region.
    let plan = RunPlan {
        tile: Some(TileShape::new(vec![3]).unwrap()),
        ..forced(Tier::InMemory)
    };
    let r = run_under(&mut m, &region, ExecMode::InfS, &plan);
    assert_eq!(r.executed, Executed::NearMemory);
    assert_eq!(m.memory_ref().array(ArrayId(2)), &reference[..]);
    assert_eq!(m.fault_counters().degradation_events(), 0);
}

#[test]
fn forced_near_memory_with_no_healthy_bank_lands_on_the_host() {
    let reference = host_reference();
    let region = vec_add_region(N);
    let mut m = machine_for(&region);
    kill_banks(&mut m, 64);
    load_inputs(&mut m, N);
    let r = run_under(&mut m, &region, ExecMode::InfS, &forced(Tier::NearMemory));
    assert_eq!(r.executed, Executed::Core);
    assert_eq!(m.memory_ref().array(ArrayId(2)), &reference[..]);
    assert_eq!(m.fault_counters().degradation_events(), 0);
}

#[test]
fn forced_runs_never_count_as_degradation_events() {
    let region = vec_add_region(N);
    let mut m = machine_for(&region);
    kill_banks(&mut m, 33); // below the in-memory quorum
    load_inputs(&mut m, N);

    // Both forced tiers land on the stream engines here (in-memory is
    // clamped), and neither is a fault: the caller chose the placement.
    for tier in [Tier::InMemory, Tier::NearMemory] {
        let r = run_under(&mut m, &region, ExecMode::InfS, &forced(tier));
        assert_eq!(r.executed, Executed::NearMemory);
        assert_eq!(m.fault_counters().degradation_events(), 0, "{tier:?}");
    }

    // The same placement reached by the heuristic *is* one.
    let r = run_under(&mut m, &region, ExecMode::InfS, &RunPlan::default());
    assert_eq!(r.executed, Executed::NearMemory);
    assert_eq!(m.fault_counters().degradation_events(), 1);
}

/// Where the vec_add region runs, one row per mode × healthy-bank count and
/// one column per forced tier (none, in-memory, near-memory, host): the
/// executor, then the entry's `degraded_to_near` and `degraded_to_host`.
const PLACEMENT_TABLE: &str = "\
base        64 | Core       0 0 | Core       0 0 | Core       0 0 | Core       0 0
base        40 | Core       0 0 | Core       0 0 | Core       0 0 | Core       0 0
base        31 | Core       0 0 | Core       0 0 | Core       0 0 | Core       0 0
base         0 | Core       0 0 | Core       0 0 | Core       0 0 | Core       0 0
near-l3     64 | NearMemory 0 0 | NearMemory 0 0 | NearMemory 0 0 | NearMemory 0 0
near-l3     40 | NearMemory 0 0 | NearMemory 0 0 | NearMemory 0 0 | NearMemory 0 0
near-l3     31 | NearMemory 0 0 | NearMemory 0 0 | NearMemory 0 0 | NearMemory 0 0
near-l3      0 | Core       0 1 | Core       0 1 | Core       0 1 | Core       0 1
in-l3       64 | InMemory   0 0 | InMemory   0 0 | InMemory   0 0 | InMemory   0 0
in-l3       40 | InMemory   0 0 | InMemory   0 0 | InMemory   0 0 | InMemory   0 0
in-l3       31 | Core       0 1 | Core       0 1 | Core       0 1 | Core       0 1
in-l3        0 | Core       0 1 | Core       0 1 | Core       0 1 | Core       0 1
inf-s       64 | InMemory   0 0 | InMemory   0 0 | NearMemory 0 0 | Core       0 0
inf-s       40 | InMemory   0 0 | InMemory   0 0 | NearMemory 0 0 | Core       0 0
inf-s       31 | NearMemory 1 0 | NearMemory 0 0 | NearMemory 0 0 | Core       0 0
inf-s        0 | Core       0 1 | Core       0 0 | Core       0 0 | Core       0 0
inf-s-nojit 64 | InMemory   0 0 | InMemory   0 0 | NearMemory 0 0 | Core       0 0
inf-s-nojit 40 | InMemory   0 0 | InMemory   0 0 | NearMemory 0 0 | Core       0 0
inf-s-nojit 31 | NearMemory 1 0 | NearMemory 0 0 | NearMemory 0 0 | Core       0 0
inf-s-nojit  0 | Core       0 1 | Core       0 0 | Core       0 0 | Core       0 0
";

/// Every mode × healthy banks {64, 40, 31, 0} × forced tier, each entry on
/// a fresh machine so its counters are its own.
#[test]
fn placement_table_over_modes_health_and_forced_tiers() {
    let region = vec_add_region(N);
    let modes = [
        ("base", ExecMode::Base { threads: 64 }),
        ("near-l3", ExecMode::NearL3),
        ("in-l3", ExecMode::InL3),
        ("inf-s", ExecMode::InfS),
        ("inf-s-nojit", ExecMode::InfSNoJit),
    ];
    let mut table = String::new();
    for (label, mode) in modes {
        for healthy in [64, 40, 31, 0] {
            table += &format!("{label:<11} {healthy:>2}");
            for tier in [
                None,
                Some(Tier::InMemory),
                Some(Tier::NearMemory),
                Some(Tier::Host),
            ] {
                let mut m = machine_for(&region);
                m.set_functional(false);
                kill_banks(&mut m, 64 - healthy);
                let r = run_under(
                    &mut m,
                    &region,
                    mode,
                    &RunPlan {
                        tier,
                        ..RunPlan::default()
                    },
                );
                let fc = m.fault_counters();
                let executed = format!("{:?}", r.executed);
                table += &format!(
                    " | {executed:<10} {} {}",
                    fc.degraded_to_near, fc.degraded_to_host
                );
            }
            table += "\n";
        }
    }
    assert_eq!(table, PLACEMENT_TABLE, "\n{table}");
}
