//! The one capacity rule, end to end: seeded random chain and diamond graphs
//! on a machine whose compute ways hold eight lattice-sized tensors. Whatever
//! the residency ledger evicts, the fused run computes what the round trip
//! computes, every run's stage reports add up to its cycles, and the only
//! capacity error is a stage whose own working set exceeds the compute ways.

use infs_frontend::{Idx, ScalarExpr};
use infs_pipeline::{
    CompiledPipeline, PipelineBuilder, PipelineError, PipelineGraph, PipelineReport,
};
use infs_sdfg::{ArrayId, DataType};
use infs_sim::{ExecMode, Machine, StageReport, SystemConfig};

/// Four banks with one compute way of four 8 kB arrays each: 16 arrays of
/// 256 bitlines hold one 4 096-element lattice, and the 128 kB of compute
/// capacity holds eight such `f32` tensors.
fn small_machine() -> SystemConfig {
    SystemConfig {
        mesh_w: 2,
        mesh_h: 2,
        cores: 4,
        n_banks: 4,
        reserved_ways: 17,
        arrays_per_way: 4,
        ..SystemConfig::default()
    }
}

/// splitmix64 over a seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// Stage `k` reads the tensors `reads[k]` and writes tensor `inputs + k`.
struct Topology {
    inputs: usize,
    reads: Vec<Vec<usize>>,
}

/// Each stage reads its predecessor's output, sometimes plus any earlier
/// tensor (a skip edge that keeps that tensor live).
fn chain(rng: &mut Rng) -> Topology {
    let inputs = 1 + rng.below(2) as usize;
    let reads = (0..4 + rng.below(6) as usize)
        .map(|k| {
            let prev = if k == 0 { 0 } else { inputs + k - 1 };
            let skip = rng.below((inputs + k) as u64) as usize;
            if skip != prev && rng.below(2) == 0 {
                vec![prev, skip]
            } else {
                vec![prev]
            }
        })
        .collect();
    Topology { inputs, reads }
}

/// A root stage fans out to 2–13 branches, all live until a tree of 2- and
/// 3-way joins folds them back to one tensor.
fn diamond(rng: &mut Rng) -> Topology {
    let inputs = 1 + rng.below(2) as usize;
    let root = inputs;
    let mut reads = vec![vec![0]];
    let width = 2 + rng.below(12) as usize;
    for _ in 0..width {
        let input = rng.below(inputs as u64) as usize;
        reads.push(match rng.below(3) {
            0 => vec![root, input],
            _ => vec![root],
        });
    }
    let mut pending: Vec<usize> = (root + 1..=root + width).collect();
    while pending.len() > 1 {
        let take = (2 + rng.below(2) as usize).min(pending.len());
        reads.push(pending.drain(..take).collect());
        pending.push(inputs + reads.len() - 1);
    }
    Topology { inputs, reads }
}

/// Builds a topology over `n`-element tensors: each stage writes the sum of
/// what it reads (a lone read is doubled).
fn build(name: &str, topo: &Topology, n: u64) -> PipelineGraph {
    let mut pb = PipelineBuilder::new(name);
    let tensors: Vec<ArrayId> = (0..topo.inputs + topo.reads.len())
        .map(|t| pb.tensor(format!("T{t}"), vec![n]))
        .collect();
    for (k, reads) in topo.reads.iter().enumerate() {
        let mut kb = pb.kernel(format!("s{k}"), DataType::F32);
        let i = kb.parallel_loop("i", 0, n as i64);
        let load = |t: usize| ScalarExpr::load(tensors[t], vec![Idx::var(i)]);
        let first = match reads[..] {
            [only] => ScalarExpr::add(load(only), load(only)),
            _ => load(reads[0]),
        };
        let sum = reads[1..]
            .iter()
            .fold(first, |acc, &t| ScalarExpr::add(acc, load(t)));
        kb.assign(tensors[topo.inputs + k], vec![Idx::var(i)], sum);
        pb.add_stage(kb.build().expect("stage builds"), vec![], vec![], false);
    }
    pb.build().expect("generated graph is valid")
}

/// One run on a fresh machine: the report, every produced tensor's bits and
/// the capacity evictions the ledger made.
fn run(
    compiled: &CompiledPipeline,
    cfg: &SystemConfig,
    mode: ExecMode,
    fused: bool,
) -> (PipelineReport, Vec<Vec<u32>>, u64) {
    let graph = compiled.graph();
    let session = infs_trace::exclusive();
    let mut m = Machine::new(cfg.clone(), &graph.tensors);
    for t in graph.inputs() {
        let len = graph.tensors[t as usize].num_elements();
        let values: Vec<f32> = (0..len)
            .map(|i| ((i * 7 + u64::from(t)) % 13) as f32)
            .collect();
        m.memory().write_array(ArrayId(t), &values);
    }
    let report = if fused {
        compiled.run_fused(&mut m, mode)
    } else {
        compiled.run_roundtrip(&mut m, mode)
    }
    .expect("pipeline runs");
    let evictions = infs_trace::snapshot()
        .counters
        .get("residency.capacity_evictions")
        .copied()
        .unwrap_or(0);
    drop(session);
    let produced = graph.produced().into_iter().map(|t| {
        let values = m.memory_ref().array(ArrayId(t));
        values.iter().map(|v| v.to_bits()).collect()
    });
    (report, produced.collect(), evictions)
}

#[test]
fn random_graphs_obey_the_one_capacity_rule() {
    const SEEDS: u64 = 48;
    let cfg = small_machine();
    let capacity = cfg.compute_capacity_bytes();
    assert_eq!(capacity, 8 * 4096 * 4);
    let (mut bound, mut rejected) = (0, 0);
    for seed in 0..SEEDS {
        let mut rng = Rng(seed);
        let topo = if seed % 2 == 0 {
            diamond(&mut rng)
        } else {
            chain(&mut rng)
        };
        let n = [1024, 4096, 4096, 16384][rng.below(4) as usize];
        let name = format!("seed{seed}");
        let graph = build(&name, &topo, n);
        let need = |set: Vec<u32>| -> u64 {
            let sizes = set
                .into_iter()
                .map(|t| graph.tensors[t as usize].size_bytes());
            sizes.sum()
        };
        let exceeds = graph
            .stages
            .iter()
            .any(|st| need(st.working_set()) > capacity);
        let compiled = match infs_pipeline::compile(&graph, &cfg) {
            Err(PipelineError::Capacity { .. }) if exceeds => {
                rejected += 1;
                continue;
            }
            Ok(compiled) if !exceeds => compiled,
            other => panic!("{name}: working set exceeds capacity: {exceeds}, got {other:?}"),
        };
        let mode = if seed % 4 == 3 {
            ExecMode::InfS
        } else {
            ExecMode::InL3
        };
        let (fused, fused_out, evictions) = run(&compiled, &cfg, mode, true);
        let (roundtrip, roundtrip_out, _) = run(&compiled, &cfg, mode, false);
        assert!(
            fused_out == roundtrip_out,
            "{name}: fused and round trip diverge"
        );
        for (policy, report) in [("fused", fused), ("roundtrip", roundtrip)] {
            let staged: u64 = report.stages.iter().map(StageReport::cycles).sum();
            let total = report.total_cycles;
            assert_eq!(staged, total, "{name} {policy}: stage reports vs cycles");
        }
        bound += u64::from(evictions > 0);
    }
    println!("{bound} of {SEEDS} seeds bound the ledger; {rejected} were Capacity errors");
    assert!(bound > 0, "no seed made the capacity rule bind");
    assert!(rejected > 0, "no seed exceeded the per-stage bound");
}
