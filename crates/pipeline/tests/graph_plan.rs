//! Unit tests for the graph IR validator, the JSON/content-key round trip,
//! and the residency planner's spill/prefetch/evict decisions against small
//! synthetic capacities.

use infs_frontend::{Idx, ScalarExpr};
use infs_pipeline::{plan_residency, PipelineBuilder, PipelineError, PipelineGraph};
use infs_sdfg::{ArrayId, DataType};
use infs_sim::SystemConfig;

/// `src → dst` elementwise copy over `n` elements.
fn copy_stage(pb: &mut PipelineBuilder, name: &str, src: ArrayId, dst: ArrayId, n: i64) {
    let mut kb = pb.kernel(name, DataType::F32);
    let i = kb.parallel_loop("i", 0, n);
    kb.assign(
        dst,
        vec![Idx::var(i)],
        ScalarExpr::load(src, vec![Idx::var(i)]),
    );
    pb.add_stage(kb.build().expect("kernel builds"), vec![], vec![], false);
}

/// A → s0 → B → s1 → C → s2 → D, every tensor 8 f32 (32 bytes).
fn chain() -> (PipelineGraph, [ArrayId; 4]) {
    let mut pb = PipelineBuilder::new("chain");
    let a = pb.tensor("A", vec![8]);
    let b = pb.tensor("B", vec![8]);
    let c = pb.tensor("C", vec![8]);
    let d = pb.tensor("D", vec![8]);
    copy_stage(&mut pb, "s0", a, b, 8);
    copy_stage(&mut pb, "s1", b, c, 8);
    copy_stage(&mut pb, "s2", c, d, 8);
    (pb.build().expect("chain is valid"), [a, b, c, d])
}

#[test]
fn chain_validates_and_classifies_tensors() {
    let (g, [a, b, c, d]) = chain();
    assert_eq!(g.inputs(), vec![a.0]);
    assert_eq!(g.produced(), vec![b.0, c.0, d.0]);
    assert_eq!(g.producer(b.0), Some(0));
    assert_eq!(g.producer(a.0), None);
    assert_eq!(g.producer(d.0), Some(2));
}

#[test]
fn json_round_trip_preserves_graph_and_content_key() {
    let (g, _) = chain();
    let json = g.to_json().expect("serializes");
    let back = PipelineGraph::from_json(&json).expect("deserializes");
    assert_eq!(g, back);
    back.validate().expect("round-tripped graph still valid");
    assert_eq!(
        g.content_key().unwrap(),
        back.content_key().unwrap(),
        "content key must be stable across a round trip"
    );

    let mut renamed = g.clone();
    renamed.name = "chain2".into();
    assert_ne!(
        g.content_key().unwrap(),
        renamed.content_key().unwrap(),
        "content key must see every serialized field"
    );
}

#[test]
fn validator_rejects_structural_corruption() {
    let expect_invalid = |g: &PipelineGraph, needle: &str| {
        let err = g.validate().expect_err("must be rejected").to_string();
        assert!(err.contains(needle), "error '{err}' missing '{needle}'");
    };

    let (valid, _) = chain();

    let mut g = valid.clone();
    g.stages.clear();
    expect_invalid(&g, "no stages");

    let mut g = valid.clone();
    g.stages[1].name = "renamed".into();
    expect_invalid(&g, "kernel is 's1'");

    // Duplicating a whole stage trips the unique-name rule before the
    // duplicate-producer rule gets a chance.
    let mut g = valid.clone();
    let dup = g.stages[0].clone();
    g.stages.push(dup);
    expect_invalid(&g, "two producers");

    // Tampered derived edges: the validator re-derives from the kernel.
    let mut g = valid.clone();
    g.stages[0].reads.clear();
    expect_invalid(&g, "edge lists disagree");

    // A forged write of D collides with s2's production before the derived
    // edge check even runs (producer map is built over the whole graph first).
    let mut g = valid.clone();
    g.stages[0].writes.push(3);
    expect_invalid(&g, "two producers");

    // Symbol-count mismatch against the kernel's declaration list.
    let mut g = valid.clone();
    g.stages[0].syms.push(7);
    expect_invalid(&g, "binds 1 symbols");

    // Dropping a declaration from the graph table: the write of the now
    // out-of-range tensor is caught first, and a kernel-table mismatch would
    // catch it anyway.
    let mut g = valid.clone();
    g.tensors.pop();
    expect_invalid(&g, "table has 3");
    let mut g = valid.clone();
    g.tensors[0].shape = vec![4];
    expect_invalid(&g, "different array table");

    // Reordered stages: s1 reads B before s0 produces it.
    let mut g = valid.clone();
    g.stages.swap(0, 1);
    expect_invalid(&g, "not in dataflow order");
}

#[test]
fn validator_rejects_corrupted_json() {
    let (g, _) = chain();
    let json = g.to_json().unwrap();

    // Flip the dtype of tensor B in the serialized form: stage kernels then
    // disagree with the graph table.
    let corrupted = json.replacen("\"F32\"", "\"I32\"", 1);
    assert_ne!(corrupted, json, "corruption must have applied");
    let g = PipelineGraph::from_json(&corrupted).expect("still parses");
    assert!(
        g.validate().is_err(),
        "dtype-corrupted graph must be rejected"
    );
}

#[test]
fn compute_capacity_uses_compute_ways_only() {
    let cfg = SystemConfig::default();
    let per_way = cfg.l3_bytes() / cfg.ways as u64;
    assert_eq!(
        cfg.compute_capacity_bytes(),
        per_way * (cfg.ways - cfg.reserved_ways) as u64
    );
    assert!(cfg.compute_capacity_bytes() < cfg.l3_bytes());
}

#[test]
fn planner_keeps_chain_resident_and_prefetches_next_stage() {
    let (g, [a, b, c, d]) = chain();
    let plan = plan_residency(&g, 1 << 20).expect("plenty of room");
    assert_eq!(plan.spill_count(), 0);
    // Stage 0 runs on {A,B}, stages C for s1, and drops dead A afterwards.
    assert_eq!(plan.stages[0].resident, vec![a.0, b.0]);
    assert_eq!(plan.stages[0].prefetch, vec![c.0]);
    assert_eq!(plan.stages[0].evict, vec![a.0]);
    assert_eq!(plan.stages[1].prefetch, vec![d.0]);
    assert_eq!(plan.stages[1].evict, vec![b.0]);
    // 3 tensors × 32 bytes live at the stage-0 peak (A, B, prefetched C).
    assert_eq!(plan.stages[0].resident_bytes, 96);
    assert_eq!(plan.peak_bytes(), 96);
}

#[test]
fn planner_rejects_working_set_larger_than_capacity() {
    let (g, _) = chain();
    // Stage 0 alone needs A+B = 64 bytes.
    match plan_residency(&g, 32) {
        Err(PipelineError::Capacity {
            stage,
            need,
            capacity,
        }) => {
            assert_eq!(stage, "s0");
            assert_eq!(need, 64);
            assert_eq!(capacity, 32);
        }
        other => panic!("expected Capacity error, got {other:?}"),
    }
}

#[test]
fn planner_spills_long_lived_tensor_under_pressure() {
    // A is live until stage 2 (s2 reads it again), but the capacity only
    // holds two 32-byte tensors plus the small output — so the planner must
    // spill A during s1 and re-admit it for s2.
    let mut pb = PipelineBuilder::new("spiller");
    let a = pb.tensor("A", vec![8]);
    let b = pb.tensor("B", vec![8]);
    let c = pb.tensor("C", vec![8]);
    let d = pb.tensor("D", vec![2]); // 8 bytes
    copy_stage(&mut pb, "s0", a, b, 8);
    copy_stage(&mut pb, "s1", b, c, 8);
    {
        let mut kb = pb.kernel("s2", DataType::F32);
        let i = kb.parallel_loop("i", 0, 2);
        kb.assign(
            d,
            vec![Idx::var(i)],
            ScalarExpr::add(
                ScalarExpr::load(a, vec![Idx::var(i)]),
                ScalarExpr::load(c, vec![Idx::var(i)]),
            ),
        );
        pb.add_stage(kb.build().unwrap(), vec![], vec![], false);
    }
    let g = pb.build().expect("valid");

    let plan = plan_residency(&g, 72).expect("fits with one spill");
    assert_eq!(plan.spill_count(), 1);
    assert_eq!(plan.stages[1].spilled, vec![a.0]);
    // The spill frees the space *before* s1 runs: it rides on s0's eviction.
    assert!(plan.stages[0].evict.contains(&a.0));
    // s1 still finds room to stage s2's small output underneath itself.
    assert_eq!(plan.stages[1].prefetch, vec![d.0]);
    // The spilled tensor re-enters for its consumer.
    assert!(plan.stages[2].resident.contains(&a.0));
    assert!(plan.peak_bytes() <= 72);

    // With ample capacity the same graph never spills and A stays resident.
    let plan = plan_residency(&g, 1 << 20).expect("fits");
    assert_eq!(plan.spill_count(), 0);
    assert!(plan.stages[1].evict.is_empty() || !plan.stages[1].evict.contains(&a.0));
}
