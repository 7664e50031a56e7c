//! The validator must reject structurally illegal tDFGs, schedules, and
//! command streams — artifacts a corrupt or malicious fat binary could carry,
//! since deserialization bypasses the builder — while accepting everything the
//! builder produces.
//!
//! Illegal graphs are manufactured the way they would arrive in practice:
//! serialize a valid graph, corrupt the JSON, deserialize.

use infs_check::{validate_graph, validate_schedule, validate_stream, CheckError};
use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_isa::{Schedule, SramGeometry, WlReg};
use infs_runtime::{lower, CommandStream, HwConfig, InfCommand, LoweredStats, TransposedLayout};
use infs_sdfg::DataType;
use infs_tdfg::{NodeId, Tdfg};
use serde_json::Value;

/// Mutable access to an object field of a JSON tree.
fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Object(o) => {
            &mut o
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no field {key}"))
                .1
        }
        _ => panic!("not an object"),
    }
}

/// Mutable access to an array element of a JSON tree.
fn elem_mut(v: &mut Value, i: usize) -> &mut Value {
    match v {
        Value::Array(a) => &mut a[i],
        _ => panic!("not an array"),
    }
}

/// Index of the first node with the given kind tag in a serialized graph.
fn node_index(v: &Value, kind: &str) -> usize {
    v.get("nodes")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .position(|n| n.get(kind).is_some())
        .unwrap_or_else(|| panic!("graph has no {kind} node"))
}

/// 1-D three-point stencil: inputs, two `mv` nodes, a compute tree, an array
/// output.
fn stencil() -> Tdfg {
    let mut k = KernelBuilder::new("s1", DataType::F32);
    let a = k.array("A", vec![512]);
    let b = k.array("B", vec![512]);
    let i = k.parallel_loop("i", 1, 511);
    let e = ScalarExpr::add(
        ScalarExpr::load(a, vec![Idx::var_plus(i, -1)]),
        ScalarExpr::load(a, vec![Idx::var_plus(i, 1)]),
    );
    k.assign(b, vec![Idx::var(i)], e);
    k.build().unwrap().tensorize(&[]).unwrap()
}

/// 2-D kernel with a broadcast (`bc`) node from a loop-invariant row read.
fn broadcast2d() -> Tdfg {
    let mut k = KernelBuilder::new("bc2", DataType::F32);
    let a = k.array("A", vec![32, 16]);
    let b = k.array("B", vec![32, 16]);
    let i = k.parallel_loop("i", 1, 31);
    let j = k.parallel_loop("j", 1, 15);
    let e = ScalarExpr::add(
        ScalarExpr::load(a, vec![Idx::var(i), Idx::var(j)]),
        ScalarExpr::load(a, vec![Idx::constant(3), Idx::var(j)]),
    );
    k.assign(b, vec![Idx::var(i), Idx::var(j)], e);
    k.build().unwrap().tensorize(&[]).unwrap()
}

fn corrupt(g: &Tdfg, mutate: impl FnOnce(&mut Value)) -> Tdfg {
    let mut v = serde_json::to_value(g);
    mutate(&mut v);
    serde_json::from_value(&v).expect("corrupted graph should still deserialize")
}

#[test]
fn builder_output_is_accepted() {
    validate_graph(&stencil()).unwrap();
    validate_graph(&broadcast2d()).unwrap();
}

#[test]
fn rejects_ssa_order_violation() {
    // Point an mv node's input forward, at the compute node that consumes it.
    let g = stencil();
    let mv = {
        let v = serde_json::to_value(&g);
        node_index(&v, "Mv")
    };
    let bad = corrupt(&g, |v| {
        let node = elem_mut(field_mut(v, "nodes"), mv);
        *field_mut(field_mut(node, "Mv"), "input") = Value::UInt(999);
    });
    let err = validate_graph(&bad).unwrap_err();
    assert!(
        matches!(&err, CheckError::Graph { what, .. } if what.contains("def-before-use")),
        "got {err}"
    );
}

#[test]
fn rejects_undeclared_array() {
    let bad = corrupt(&stencil(), |v| {
        let node = elem_mut(field_mut(v, "nodes"), 0);
        *field_mut(field_mut(node, "Input"), "array") = Value::UInt(7);
    });
    let err = validate_graph(&bad).unwrap_err();
    assert!(
        matches!(&err, CheckError::Graph { node: 0, what } if what.contains("undeclared array")),
        "got {err}"
    );
}

#[test]
fn rejects_input_escaping_its_array() {
    // Stretch the input rect one cell past the array's 512 elements.
    let bad = corrupt(&stencil(), |v| {
        let node = elem_mut(field_mut(v, "nodes"), 0);
        let rect = field_mut(field_mut(node, "Input"), "rect");
        *elem_mut(elem_mut(field_mut(rect, "intervals"), 0), 1) = Value::Int(513);
    });
    let err = validate_graph(&bad).unwrap_err();
    assert!(
        matches!(&err, CheckError::Graph { node: 0, what } if what.contains("escapes array")),
        "got {err}"
    );
}

#[test]
fn rejects_mv_dimension_out_of_range() {
    let g = stencil();
    let mv = {
        let v = serde_json::to_value(&g);
        node_index(&v, "Mv")
    };
    let bad = corrupt(&g, |v| {
        let node = elem_mut(field_mut(v, "nodes"), mv);
        *field_mut(field_mut(node, "Mv"), "dim") = Value::UInt(5);
    });
    let err = validate_graph(&bad).unwrap_err();
    assert!(
        matches!(&err, CheckError::Graph { what, .. } if what.contains("out of range")),
        "got {err}"
    );
}

#[test]
fn rejects_non_thin_broadcast() {
    // Repoint the bc node at the full-width input: its source is no longer a
    // single row.
    let g = broadcast2d();
    let bc = {
        let v = serde_json::to_value(&g);
        node_index(&v, "Bc")
    };
    let bad = corrupt(&g, |v| {
        let node = elem_mut(field_mut(v, "nodes"), bc);
        *field_mut(field_mut(node, "Bc"), "input") = Value::UInt(0);
    });
    let err = validate_graph(&bad).unwrap_err();
    assert!(
        matches!(&err, CheckError::Graph { what, .. } if what.contains("must be thin")),
        "got {err}"
    );
}

#[test]
fn rejects_misaligned_stored_domain() {
    // Widen a compute node's stored domain: it no longer matches what its
    // operands support.
    let g = stencil();
    let compute = {
        let v = serde_json::to_value(&g);
        node_index(&v, "Compute")
    };
    let bad = corrupt(&g, |v| {
        let dom = elem_mut(field_mut(v, "domains"), compute);
        *elem_mut(elem_mut(field_mut(dom, "intervals"), 0), 0) = Value::Int(0);
    });
    let err = validate_graph(&bad).unwrap_err();
    assert!(
        matches!(&err, CheckError::Graph { what, .. } if what.contains("disagrees")),
        "got {err}"
    );
}

#[test]
fn rejects_uncovered_output() {
    // Stretch the output region beyond the producing node's domain.
    let bad = corrupt(&stencil(), |v| {
        let out = elem_mut(field_mut(v, "outputs"), 0);
        let rect = field_mut(field_mut(field_mut(out, "target"), "Array"), "rect");
        *elem_mut(elem_mut(field_mut(rect, "intervals"), 0), 0) = Value::Int(0);
    });
    let err = validate_graph(&bad).unwrap_err();
    assert!(matches!(&err, CheckError::Output { .. }), "got {err}");
}

#[test]
fn schedule_violations_are_rejected() {
    let g = stencil();
    let good = Schedule::compute(&g, SramGeometry::G256).unwrap();
    validate_schedule(&g, &good).unwrap();

    // A node scheduled twice.
    let mut s = good.clone();
    s.order[1] = s.order[0];
    assert!(
        matches!(validate_schedule(&g, &s), Err(CheckError::Schedule { what, .. }) if what.contains("twice"))
    );

    // A consumer scheduled before its producer.
    let mut s = good.clone();
    let last = s.order.len() - 1;
    s.order.swap(0, last);
    assert!(validate_schedule(&g, &s).is_err());

    // An array-backed input node holding a register.
    let mut s = good.clone();
    s.reg_of_node[0] = Some(WlReg(0));
    assert!(
        matches!(validate_schedule(&g, &s), Err(CheckError::Schedule { what, .. }) if what.contains("alias"))
    );

    // Register bands spilling past the geometry's wordlines.
    let mut s = good.clone();
    s.num_regs = 100;
    assert!(
        matches!(validate_schedule(&g, &s), Err(CheckError::Schedule { what, .. }) if what.contains("exceed"))
    );

    // Two simultaneously-live values sharing one register: both mv nodes are
    // consumed by the same compute node.
    let mut s = good.clone();
    let mvs: Vec<usize> = g
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n, infs_tdfg::Node::Mv { .. }))
        .map(|(i, _)| i)
        .collect();
    assert!(mvs.len() >= 2);
    s.reg_of_node[mvs[0]] = Some(WlReg(0));
    s.reg_of_node[mvs[1]] = Some(WlReg(0));
    assert!(
        matches!(validate_schedule(&g, &s), Err(CheckError::Schedule { what, .. }) if what.contains("live")),
        "sharing a register across overlapping live ranges must be rejected"
    );
}

#[test]
fn dangling_schedule_ids_are_rejected() {
    let g = stencil();
    let mut s = Schedule::compute(&g, SramGeometry::G256).unwrap();
    s.order[0] = NodeId(999);
    assert!(
        matches!(validate_schedule(&g, &s), Err(CheckError::Schedule { what, .. }) if what.contains("does not have"))
    );
}

#[test]
fn stream_sync_protocol_is_enforced() {
    // The real lowering of the stencil obeys the protocol.
    let g = stencil();
    let hw = HwConfig::default();
    let layout = TransposedLayout::plan(&g, &g.layout_hints(), &hw).unwrap();
    let s = Schedule::compute(&g, SramGeometry::G256).unwrap();
    let cs = lower(&g, &s, &layout, &hw).unwrap();
    validate_stream(&cs, hw.n_banks).unwrap();

    // Removing the sync between a remote inter-tile shift and the dependent
    // compute is rejected.
    let mut broken = cs.clone();
    let shift = broken
        .cmds
        .iter()
        .position(|c| matches!(c, InfCommand::InterShift { remote, .. } if !remote.is_empty()));
    if let Some(shift) = shift {
        let sync = broken.cmds[shift..]
            .iter()
            .position(|c| matches!(c, InfCommand::Sync))
            .map(|i| i + shift)
            .expect("lowering syncs after remote shifts");
        broken.cmds.remove(sync);
        let err = validate_stream(&broken, hw.n_banks).unwrap_err();
        assert!(
            matches!(&err, CheckError::Stream { what, .. } if what.contains("sync")),
            "got {err}"
        );
    }

    // A hand-built stream whose compute precedes the sync is rejected even
    // when a sync exists later.
    let bad = CommandStream {
        cmds: vec![
            InfCommand::InterShift {
                node: NodeId(0),
                dim: 0,
                tile_dist: 1,
                intra_dist: 0,
                banks: vec![],
                remote: vec![infs_runtime::RemoteTransfer {
                    src_bank: 0,
                    dst_bank: 1,
                    bytes: 4,
                }],
            },
            InfCommand::Compute {
                node: NodeId(1),
                op: infs_tdfg::ComputeOp::Add,
                latency: 1,
                imm_bytes: 0,
                banks: vec![],
            },
            InfCommand::Sync,
        ],
        stats: LoweredStats::default(),
    };
    assert!(matches!(
        validate_stream(&bad, 64),
        Err(CheckError::Stream { index: 1, .. })
    ));
}

// ---------------------------------------------------------------------------
// Pipeline graphs: the same trust boundary one level up. A whole multi-kernel
// graph travels the serve wire as JSON, so `validate_pipeline` must reject
// the corruptions a hostile or bit-rotted payload could carry.
// ---------------------------------------------------------------------------

/// A → `p0` → B → `p1` → C, every tensor 64 f32.
fn pipeline_chain() -> infs_pipeline::PipelineGraph {
    let mut pb = infs_pipeline::PipelineBuilder::new("wire");
    let a = pb.tensor("A", vec![64]);
    let b = pb.tensor("B", vec![64]);
    let c = pb.tensor("C", vec![64]);
    for (name, src, dst) in [("p0", a, b), ("p1", b, c)] {
        let mut kb = pb.kernel(name, DataType::F32);
        let i = kb.parallel_loop("i", 0, 64);
        kb.assign(
            dst,
            vec![Idx::var(i)],
            ScalarExpr::load(src, vec![Idx::var(i)]),
        );
        pb.add_stage(kb.build().unwrap(), vec![], vec![], false);
    }
    pb.build().expect("chain is valid")
}

fn corrupt_pipeline(mutate: impl FnOnce(&mut Value)) -> infs_pipeline::PipelineGraph {
    let mut v = serde_json::to_value(&pipeline_chain());
    mutate(&mut v);
    serde_json::from_value(&v).expect("corrupted pipeline graph should still deserialize")
}

fn assert_pipeline_rejected(g: &infs_pipeline::PipelineGraph, needle: &str) {
    let cfg = infs_sim::SystemConfig::default();
    let err = infs_check::validate_pipeline(g, &cfg).unwrap_err();
    assert!(
        matches!(&err, CheckError::Pipeline { what } if what.contains(needle)),
        "got {err}, wanted '{needle}'"
    );
}

#[test]
fn pipeline_builder_output_is_accepted() {
    let cfg = infs_sim::SystemConfig::default();
    infs_check::validate_pipeline(&pipeline_chain(), &cfg).unwrap();
}

#[test]
fn pipeline_rejects_corrupted_tensor_shape() {
    // Shrinking A's declared shape makes every stage kernel's table disagree
    // with the graph table — a reader and writer would no longer agree on
    // the edge's geometry.
    let bad = corrupt_pipeline(|v| {
        let decl = elem_mut(field_mut(v, "tensors"), 0);
        *elem_mut(field_mut(decl, "shape"), 0) = Value::UInt(4);
    });
    assert_pipeline_rejected(&bad, "different array table");
}

#[test]
fn pipeline_rejects_corrupted_tensor_dtype() {
    let bad = corrupt_pipeline(|v| {
        let decl = elem_mut(field_mut(v, "tensors"), 1);
        *field_mut(decl, "dtype") = Value::String("I32".into());
    });
    assert_pipeline_rejected(&bad, "different array table");
}

#[test]
fn pipeline_rejects_forged_edge_lists() {
    // Blanking a stage's read list: the validator re-derives edges from the
    // kernel body, so the planner never trusts forged lists.
    let bad = corrupt_pipeline(|v| {
        let st = elem_mut(field_mut(v, "stages"), 0);
        *field_mut(st, "reads") = Value::Array(vec![]);
    });
    assert_pipeline_rejected(&bad, "edge lists disagree");
}

#[test]
fn pipeline_rejects_reordered_stages() {
    // p1 reads B before p0 produces it.
    let bad = corrupt_pipeline(|v| {
        if let Value::Array(stages) = field_mut(v, "stages") {
            stages.swap(0, 1);
        }
    });
    assert_pipeline_rejected(&bad, "not in dataflow order");
}

#[test]
fn pipeline_rejects_duplicate_producer() {
    // Replace stage p1 with a renamed copy of p0: two kernels now write B.
    let bad = corrupt_pipeline(|v| {
        let dup = elem_mut(field_mut(v, "stages"), 0).clone();
        let st = elem_mut(field_mut(v, "stages"), 1);
        *st = dup;
        *field_mut(st, "name") = Value::String("p1".into());
        *field_mut(field_mut(st, "kernel"), "name") = Value::String("p1".into());
    });
    assert_pipeline_rejected(&bad, "two producers");
}

#[test]
fn pipeline_rejects_working_set_beyond_l3() {
    // Two 192 MB tensors in one stage cannot fit the 128 MB of compute ways,
    // and no residency plan can fix a single stage that is too big.
    let mut pb = infs_pipeline::PipelineBuilder::new("huge");
    let n: u64 = 48_000_000;
    let a = pb.tensor("A", vec![n]);
    let b = pb.tensor("B", vec![n]);
    let mut kb = pb.kernel("big", DataType::F32);
    let i = kb.parallel_loop("i", 0, n as i64);
    kb.assign(b, vec![Idx::var(i)], ScalarExpr::load(a, vec![Idx::var(i)]));
    pb.add_stage(kb.build().unwrap(), vec![], vec![], false);
    let g = pb.build().expect("structurally valid");
    assert_pipeline_rejected(&g, "exceeds L3 residency capacity");
}
