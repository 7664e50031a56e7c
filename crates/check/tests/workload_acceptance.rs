//! Acceptance half of the validator contract: with the [`infs_check::auditor`]
//! installed, every workload in the suite must still run — the validator may
//! only reject artifacts the builder could not have produced. The same
//! hook also holds the layout planner to its one ranking over every region
//! the suite enters.

use infs_check::auditor;
use infs_runtime::TransposedLayout;
use infs_sim::{ExecMode, Machine, RegionAuditor, SystemConfig};
use infs_workloads::{full_suite, Scale};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn run_suite(mode: ExecMode) {
    for b in full_suite(Scale::Test) {
        let arrays = b.arrays();
        let mut m = Machine::new(SystemConfig::default(), &arrays);
        m.set_region_auditor(Some(auditor()));
        m.set_functional(true);
        m.set_resident_all();
        b.init(m.memory());
        if let Err(e) = b.run(&mut m, mode) {
            panic!(
                "validator rejected workload {} under {mode:?}: {e}",
                b.name()
            );
        }
    }
}

#[test]
fn validator_accepts_every_workload_in_memory() {
    run_suite(ExecMode::InfS);
}

#[test]
fn validator_accepts_every_workload_near_memory() {
    run_suite(ExecMode::NearL3);
}

/// `ranked_candidates(..)[0]` is the tile `plan` commits to, for every
/// in-memory region the suite's drivers enter: the two read one ranking.
#[test]
fn plan_picks_the_top_ranked_candidate() {
    let checked = Arc::new(AtomicUsize::new(0));
    let count = checked.clone();
    let audit = RegionAuditor::new(move |region, cfg| {
        let Some(g) = region.tdfg.as_ref() else {
            return Ok(());
        };
        let hw = cfg.hw();
        let planned = TransposedLayout::plan(g, &region.hints, &hw)
            .ok()
            .map(|layout| layout.tile().clone());
        let top = TransposedLayout::ranked_candidates(g, &region.hints, &hw)
            .ok()
            .and_then(|ranked| ranked.into_iter().next());
        count.fetch_add(1, Ordering::Relaxed);
        if planned == top {
            Ok(())
        } else {
            Err(format!(
                "{}: plan picked {planned:?}, ranked_candidates put {top:?} first",
                region.name
            ))
        }
    });
    for b in full_suite(Scale::Test) {
        let mut m = Machine::new(SystemConfig::default(), &b.arrays());
        m.set_region_auditor(Some(audit.clone()));
        m.set_functional(false);
        m.set_resident_all();
        if let Err(e) = b.run(&mut m, ExecMode::InfS) {
            panic!("{}: {e}", b.name());
        }
    }
    assert!(checked.load(Ordering::Relaxed) > 0, "no in-memory region");
}
