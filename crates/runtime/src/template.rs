//! Relocatable command templates (shape-polymorphic JIT, §4.2 extension).
//!
//! The concrete memo key `(region, symbols, tile)` gives a 0% hit rate on
//! workloads whose geometry moves every invocation: Gaussian elimination's
//! shrinking triangular sweep re-lowers once per pivot, a channelled
//! convolution once per sliding tap. All those instances share the *same*
//! graph structure — only rect coordinates, shift distances and dimension
//! choices differ. This module splits a scheduled tDFG into:
//!
//! - a [`CommandTemplate`]: the structural skeleton (operator kinds,
//!   bit-serial latencies, immediate widths, SSA wiring, emission order) with
//!   every piece of concrete geometry replaced by an index into a *slot
//!   table*, plus a canonical [`signature`](CommandTemplate::signature)
//!   folding everything that determines command emission besides the slots;
//! - the slot table itself, a flat `Vec<i64>` of rect intervals, dimension
//!   choices and shift distances ([`distill`] returns both).
//!
//! Every command stream is emitted by [`crate::instantiate`] from a template
//! and a slot table: [`crate::lower`] stamps the template it just distilled,
//! and a cache hit on `(signature, tile)` stamps the cached one with the
//! fresh slot values — the modeled hardware cost is then an O(commands)
//! copy-and-patch instead of full re-lowering through layout planning and
//! decomposition ([`crate::HwConfig::jit_cycles`]).
//!
//! Array and stream identities never reach the template: command emission is
//! pure lattice-space, so ping-pong buffered phases and same-shape regions
//! over different arrays share templates by construction.

use crate::{HwConfig, RuntimeError, TransposedLayout};
use infs_isa::Schedule;
use infs_tdfg::{bit_serial_latency, ComputeOp, Node, NodeId, Tdfg};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A hyperrectangle stored as slot references: `2 × ndim` consecutive slots
/// starting at `base`, laid out `start₀, end₀, start₁, end₁, …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SlotRect {
    /// First slot of the interval list.
    pub base: u32,
}

/// One templated emission step. Structural properties (operators, latencies,
/// immediate bytes, the producing node id) are stored concretely — they are
/// part of the signature; geometry lives behind slot indices.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TemplateOp {
    /// An element-wise compute node (one fused command over its decomposed
    /// pieces).
    Compute {
        /// Producing tDFG node.
        node: NodeId,
        /// Operation.
        op: ComputeOp,
        /// Bit-serial latency.
        latency: u64,
        /// Immediate operand bytes.
        imm_bytes: u64,
        /// Domain rect slots.
        domain: SlotRect,
    },
    /// A `mv` node. Dimension and distance are slots: a vertical pass is the
    /// same template as a horizontal one.
    Mv {
        /// Producing tDFG node.
        node: NodeId,
        /// Slot holding the shifted dimension.
        dim: u32,
        /// Slot holding the signed shift distance.
        dist: u32,
        /// Domain rect slots (`None` for statically unbounded inputs — legal
        /// only when the distance slot holds 0 at instantiation time).
        domain: Option<SlotRect>,
    },
    /// A `bc` node.
    Bc {
        /// Producing tDFG node.
        node: NodeId,
        /// Slot holding the broadcast dimension.
        dim: u32,
        /// Source rect slots.
        src: SlotRect,
        /// Destination rect slots.
        dest: SlotRect,
    },
    /// A `reduce` node (round structure is recomputed from the slot extents
    /// at instantiation — shrinking domains change the round count freely).
    Reduce {
        /// Producing tDFG node.
        node: NodeId,
        /// Element-wise equivalent of the reduction operator.
        eq: ComputeOp,
        /// Bit-serial latency of one round.
        latency: u64,
        /// Slot holding the reduced dimension.
        dim: u32,
        /// Input-domain rect slots.
        domain: SlotRect,
    },
}

/// A relocatable command template: what [`distill`] extracts from a scheduled
/// graph, and what [`crate::instantiate`] stamps back out against a fresh
/// slot table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommandTemplate {
    /// Emission steps in schedule order (non-emitting nodes are dropped).
    pub ops: Vec<TemplateOp>,
    /// Length of the slot table every instantiation must supply.
    pub n_slots: u32,
    /// Lattice dimensionality.
    pub ndim: u32,
    /// Element size in bytes (from the graph's dtype).
    pub elem_bytes: u64,
    /// Canonical signature: graph structure, schedule order, lattice shape,
    /// dtype and hardware identity. Two (graph, schedule, hw) triples with
    /// equal signatures emit identical command streams for equal slot tables
    /// and tile shapes.
    pub signature: u64,
}

/// Extracts the relocatable template and concrete slot table of a scheduled
/// graph. O(nodes); runs on every dispatch — the expensive work (layout
/// planning, decomposition, bank mapping) only happens when the template
/// misses the cache. The crate's one walk over graph nodes, and so the one
/// place malformed graphs are turned away.
///
/// # Errors
///
/// [`RuntimeError::MalformedGraph`] for dangling schedule/input ids
/// (deserialized fat binaries bypass the builder's validation), or `mv` /
/// broadcast / reduce nodes whose required domains are infinite.
pub fn distill(
    g: &Tdfg,
    schedule: &Schedule,
    hw: &HwConfig,
) -> Result<(CommandTemplate, Vec<i64>), RuntimeError> {
    let n_nodes = g.nodes().len();
    for &id in &schedule.order {
        if id.0 as usize >= n_nodes {
            return Err(RuntimeError::MalformedGraph {
                node: id.0,
                what: "schedule order references a node the graph does not have",
            });
        }
        for input in g.node(id).inputs() {
            if input.0 as usize >= n_nodes {
                return Err(RuntimeError::MalformedGraph {
                    node: id.0,
                    what: "node input references a node the graph does not have",
                });
            }
        }
    }
    let mut ops = Vec::new();
    let mut slots: Vec<i64> = Vec::new();
    let push_rect = |slots: &mut Vec<i64>, r: &infs_geom::HyperRect| -> SlotRect {
        let base = slots.len() as u32;
        for d in 0..r.ndim() {
            let (p, q) = r.interval(d);
            slots.push(p);
            slots.push(q);
        }
        SlotRect { base }
    };
    for &id in &schedule.order {
        match g.node(id) {
            Node::Input { .. }
            | Node::StreamIn { .. }
            | Node::Shrink { .. }
            | Node::ConstVal { .. }
            | Node::Param { .. } => {}
            Node::Compute { op, inputs } => {
                let Some(domain) = g.domain(id) else {
                    continue; // constant-folded: emits nothing in any instance
                };
                let imm_inputs = inputs.iter().filter(|&&x| g.domain(x).is_none()).count() as u64;
                let domain = push_rect(&mut slots, domain);
                ops.push(TemplateOp::Compute {
                    node: id,
                    op: *op,
                    latency: bit_serial_latency(*op, g.dtype()),
                    imm_bytes: imm_inputs * g.dtype().size_bytes() as u64,
                    domain,
                });
            }
            Node::Mv { dim, dist, .. } => {
                let dim_slot = slots.len() as u32;
                slots.push(*dim as i64);
                let dist_slot = slots.len() as u32;
                slots.push(*dist);
                let domain = g.domain(id).map(|r| push_rect(&mut slots, r));
                if domain.is_none() && *dist != 0 {
                    return Err(RuntimeError::MalformedGraph {
                        node: id.0,
                        what: "mv node has no finite domain",
                    });
                }
                ops.push(TemplateOp::Mv {
                    node: id,
                    dim: dim_slot,
                    dist: dist_slot,
                    domain,
                });
            }
            Node::Bc { input, dim, .. } => {
                let dest = g.domain(id).ok_or(RuntimeError::MalformedGraph {
                    node: id.0,
                    what: "bc node has no finite domain",
                })?;
                let src = g.domain(*input).ok_or(RuntimeError::MalformedGraph {
                    node: id.0,
                    what: "bc input has no finite domain",
                })?;
                let dim_slot = slots.len() as u32;
                slots.push(*dim as i64);
                let src = push_rect(&mut slots, src);
                let dest = push_rect(&mut slots, dest);
                ops.push(TemplateOp::Bc {
                    node: id,
                    dim: dim_slot,
                    src,
                    dest,
                });
            }
            Node::Reduce { input, dim, op } => {
                let in_dom = g.domain(*input).ok_or(RuntimeError::MalformedGraph {
                    node: id.0,
                    what: "reduce input has no finite domain",
                })?;
                let eq = match op {
                    infs_sdfg::ReduceOp::Sum => ComputeOp::Add,
                    infs_sdfg::ReduceOp::Min => ComputeOp::Min,
                    infs_sdfg::ReduceOp::Max => ComputeOp::Max,
                };
                let dim_slot = slots.len() as u32;
                slots.push(*dim as i64);
                let domain = push_rect(&mut slots, in_dom);
                ops.push(TemplateOp::Reduce {
                    node: id,
                    eq,
                    latency: bit_serial_latency(eq, g.dtype()),
                    dim: dim_slot,
                    domain,
                });
            }
        }
    }
    let lattice = TransposedLayout::lattice_shape_for(g)?;
    let mut h = DefaultHasher::new();
    g.structural_signature().hash(&mut h);
    schedule.order.hash(&mut h);
    lattice.hash(&mut h);
    hw.n_banks.hash(&mut h);
    hw.arrays_per_bank.hash(&mut h);
    hw.geometry.hash(&mut h);
    ops.hash(&mut h);
    (slots.len() as u32).hash(&mut h);
    let template = CommandTemplate {
        ops,
        n_slots: slots.len() as u32,
        ndim: g.ndim() as u32,
        elem_bytes: g.dtype().size_bytes() as u64,
        signature: h.finish(),
    };
    Ok((template, slots))
}

/// Slot-table decoding helpers shared by [`crate::instantiate`].
impl CommandTemplate {
    /// Reads one rect out of a slot table.
    pub(crate) fn rect(
        &self,
        slots: &[i64],
        r: SlotRect,
        node: NodeId,
    ) -> Result<infs_geom::HyperRect, RuntimeError> {
        let base = r.base as usize;
        let n = self.ndim as usize;
        let mut iv = Vec::with_capacity(n);
        for d in 0..n {
            let (Some(&p), Some(&q)) = (slots.get(base + 2 * d), slots.get(base + 2 * d + 1))
            else {
                return Err(RuntimeError::MalformedGraph {
                    node: node.0,
                    what: "template slot rect escapes the slot table",
                });
            };
            iv.push((p, q));
        }
        infs_geom::HyperRect::new(iv).map_err(|_| RuntimeError::MalformedGraph {
            node: node.0,
            what: "template slot rect is inverted",
        })
    }

    /// Reads a dimension choice out of a slot table.
    pub(crate) fn dim(
        &self,
        slots: &[i64],
        slot: u32,
        node: NodeId,
    ) -> Result<usize, RuntimeError> {
        let v = *slots
            .get(slot as usize)
            .ok_or(RuntimeError::MalformedGraph {
                node: node.0,
                what: "template dim slot escapes the slot table",
            })?;
        if v < 0 || v >= self.ndim as i64 {
            return Err(RuntimeError::MalformedGraph {
                node: node.0,
                what: "template dim slot out of range",
            });
        }
        Ok(v as usize)
    }

    /// Reads a plain signed slot value.
    pub(crate) fn value(
        &self,
        slots: &[i64],
        slot: u32,
        node: NodeId,
    ) -> Result<i64, RuntimeError> {
        slots
            .get(slot as usize)
            .copied()
            .ok_or(RuntimeError::MalformedGraph {
                node: node.0,
                what: "template value slot escapes the slot table",
            })
    }
}
