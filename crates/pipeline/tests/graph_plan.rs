//! Unit tests for the graph IR validator, the JSON/content-key round trip,
//! and the per-stage liveness lists (prefetch, evict) and the one capacity
//! error against small synthetic capacities.

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

/// Each stage's `(prefetch, evict)` lists.
fn lists(g: &PipelineGraph, capacity: u64) -> Vec<(Vec<u32>, Vec<u32>)> {
    let plan = plan_residency(g, capacity).expect("every working set fits");
    let lists = plan.stages.into_iter().map(|s| (s.prefetch, s.evict));
    lists.collect()
}

#[test]
fn liveness_lists_of_a_chain() {
    let (g, [a, b, c, d]) = chain();
    // s0 stages C for s1 and drops A; s1 stages D and drops B; the last
    // stage stages nothing and drops what it touched.
    assert_eq!(
        lists(&g, 1 << 20),
        vec![
            (vec![c.0], vec![a.0]),
            (vec![d.0], vec![b.0]),
            (vec![], vec![c.0, d.0]),
        ]
    );
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
fn liveness_lists_do_not_depend_on_capacity() {
    // A is live until stage 2 (s2 reads it again). At 72 bytes, A, B, C and
    // D (104 bytes) cannot all stay in L3, yet every stage's own working set
    // fits: what leaves L3 early is the machine ledger's call, so the lists
    // are the same as with room to spare.
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

    // A is released after s2, its last use, not after s0.
    let want = vec![
        (vec![c.0], vec![]),
        (vec![d.0], vec![b.0]),
        (vec![], vec![a.0, c.0, d.0]),
    ];
    assert_eq!(lists(&g, 72), want);
    assert_eq!(lists(&g, 1 << 20), want);

    // s2's own working set is A + C + D = 72 bytes: one byte less is the
    // one capacity error the lists keep.
    match plan_residency(&g, 71) {
        Err(PipelineError::Capacity { stage, need, .. }) => {
            assert_eq!((stage.as_str(), need), ("s2", 72));
        }
        other => panic!("expected Capacity error, got {other:?}"),
    }
}
