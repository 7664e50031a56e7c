//! Acceptance gate for the pipeline subsystem: the fused streaming execution
//! must be **bitwise identical** to the per-kernel host round-trip reference
//! on the same graph — under the fully fused configuration, the near-memory
//! configuration, and a chaos fault seed. The fused policy only changes
//! *when* operands move (residency, prefetch, layout handoff); it must never
//! change *what* the stages compute.

use infs_faults::{FaultConfig, FaultPlan};
use infs_pipeline::PipelineGraph;
use infs_sdfg::ArrayDecl;
use infs_sim::{ExecMode, Machine, StageReport, SystemConfig};
use infs_workloads::{Benchmark, MlpStack, PointNet, PointNetVariant, Scale};
use std::sync::Arc;

/// Runs a graph under one policy on a fresh machine and returns every
/// produced tensor's bytes (not just the logits — intermediates must agree
/// too, or a residency bug could cancel out downstream).
fn run_policy(
    graph: &PipelineGraph,
    arrays: &[ArrayDecl],
    seed: impl Fn(&mut Machine),
    mode: ExecMode,
    fused: bool,
    chaos: Option<u64>,
) -> Vec<Vec<u32>> {
    let cfg = SystemConfig::default();
    let compiled = infs_pipeline::compile(graph, &cfg).expect("graph compiles");
    let mut m = Machine::new(cfg, arrays);
    if let Some(s) = chaos {
        m.set_fault_plan(Arc::new(FaultPlan::new(FaultConfig::chaos(s))));
    }
    seed(&mut m);
    let report = if fused {
        compiled.run_fused(&mut m, mode).expect("fused run")
    } else {
        compiled.run_roundtrip(&mut m, mode).expect("roundtrip run")
    };
    assert_eq!(report.stages.len(), graph.stages.len());
    graph
        .produced()
        .iter()
        .map(|&t| {
            m.memory_ref()
                .array(infs_sdfg::ArrayId(t))
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect()
}

fn assert_bitwise_equivalent(
    graph: &PipelineGraph,
    arrays: &[ArrayDecl],
    seed: impl Fn(&mut Machine) + Copy,
) {
    for (mode, chaos) in [
        (ExecMode::InfS, None),
        (ExecMode::NearL3, None),
        (ExecMode::InfS, Some(0xC0FFEE)),
    ] {
        let fused = run_policy(graph, arrays, seed, mode, true, chaos);
        let roundtrip = run_policy(graph, arrays, seed, mode, false, chaos);
        for ((f, r), &t) in fused.iter().zip(&roundtrip).zip(graph.produced().iter()) {
            assert_eq!(
                f, r,
                "graph '{}' tensor '{}' diverges between fused and roundtrip \
                 under {mode:?} (chaos: {chaos:?})",
                graph.name, graph.tensors[t as usize].name
            );
        }
    }
}

#[test]
fn pointnet_tail_fused_is_bitwise_identical_to_roundtrip() {
    let b = PointNet::new(Scale::Test, PointNetVariant::Ssg);
    let graph = b.tail_graph();
    let arrays = b.arrays();
    assert_bitwise_equivalent(&graph, &arrays, |m| b.seed_tail_inputs(m.memory()));
}

#[test]
fn mlp_stack_fused_is_bitwise_identical_to_roundtrip() {
    let b = MlpStack::new(Scale::Test);
    let graph = b.graph().clone();
    let arrays = b.arrays();
    assert_bitwise_equivalent(&graph, &arrays, |m| b.init(m.memory()));
}

#[test]
fn stage_reports_add_up_to_the_run_cycles() {
    // In memory, both policies write back after stages: the fused run its
    // evict lists, the round trip everything. Those stalls are in the
    // stage reports, so every cycle of a run is in one of them.
    let b = PointNet::new(Scale::Test, PointNetVariant::Ssg);
    let graph = b.tail_graph();
    let cfg = SystemConfig::default();
    let compiled = infs_pipeline::compile(&graph, &cfg).expect("graph compiles");
    for fused in [true, false] {
        let mut m = Machine::new(cfg.clone(), &b.arrays());
        b.seed_tail_inputs(m.memory());
        let report = if fused {
            compiled.run_fused(&mut m, ExecMode::InL3)
        } else {
            compiled.run_roundtrip(&mut m, ExecMode::InL3)
        }
        .expect("pipeline runs");
        let staged: u64 = report.stages.iter().map(StageReport::cycles).sum();
        assert_eq!(staged, report.total_cycles, "fused: {fused}");
        assert_eq!(report.total_cycles, m.stats().cycles);
        assert!(report.stages.iter().any(|s| s.release_stall > 0));
    }
}

#[test]
fn fused_pipeline_is_not_slower_than_roundtrip() {
    // The performance claim at test scale: fused total cycles must not exceed
    // the per-kernel round-trip on the same graph and tile.
    let b = MlpStack::new(Scale::Test);
    let cfg = SystemConfig::default();
    let compiled = infs_pipeline::compile(b.graph(), &cfg).expect("compiles");
    let arrays = b.arrays();

    let mut mf = Machine::new(cfg.clone(), &arrays);
    b.init(mf.memory());
    let fused = compiled.run_fused(&mut mf, ExecMode::InfS).expect("fused");

    let mut mr = Machine::new(cfg, &arrays);
    b.init(mr.memory());
    let roundtrip = compiled
        .run_roundtrip(&mut mr, ExecMode::InfS)
        .expect("roundtrip");

    assert!(
        fused.total_cycles <= roundtrip.total_cycles,
        "fused {} cycles vs roundtrip {}",
        fused.total_cycles,
        roundtrip.total_cycles
    );
}
