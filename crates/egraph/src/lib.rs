//! Equality-saturation optimizer for the Infinity Stream tDFG.
//!
//! The paper (§3.2 and Appendix A) optimizes tensor dataflow graphs with
//! *equality graphs*: a compact representation of every reachable rewrite of the
//! original graph, grown by repeatedly applying equivalence rules, from which the
//! best graph is selected by architecture-informed cost metrics. The interesting
//! twist over classic e-graphs is that tDFG equivalence is domain-sensitive —
//! two nodes are equivalent only if they compute the same values *and share the
//! same hyperrectangular domain* in the lattice space — so every e-class carries
//! a domain analysis, and `shrink` nodes track domain changes through rewrites
//! (they lower to no-ops, like SSA φ-nodes).
//!
//! Implemented rewrite rules (numbering follows the paper's appendix):
//!
//! * **3a/3c** — associativity and distributivity/factoring of element-wise
//!   computes;
//! * **4a** — exchanging compute with move (hoist and push);
//! * **5** — tensor expansion: a tensor region is a `shrink` of any enclosing
//!   region of the same array (enclosing covers are synthesized from pairs of
//!   input tensors, which is how common computation over overlapping stencil
//!   taps is discovered);
//! * **7a/7b** — commuting shrink with move;
//! * plus the mv-merge housekeeping rule.
//!
//! Appendix A's other rules — commutativity (3b), compute/broadcast exchange
//! (4b), shrink merging (6a/6b), shrink through broadcast (8a/8b) and through
//! compute (9), the zero-move identity and shrink elimination — changed no
//! simulated cycle here while causing most of the e-graph's growth, so they
//! are left out (`DESIGN.md` §2 has the census).
//!
//! Extraction uses a two-phase scheme: a bottom-up tree-cost fixpoint for
//! feasibility, then a DAG-aware greedy selection with an iterative improvement
//! loop, so that *reusing* a shared subcomputation (the whole point of rule 5)
//! is actually rewarded — tree-cost extraction alone would double-count shared
//! children and never choose them.
//!
//! [`optimize_recorded`] also returns an [`OptimizeRecord`], whose
//! [`replay`](OptimizeRecord::replay) reuses the result for another graph
//! that differs only where the optimizer provably cannot see it (output
//! targets, and a bounding box that clips every moved rectangle alike).
//!
//! # Example
//!
//! ```
//! use infs_egraph::{optimize, CostParams};
//! use infs_geom::HyperRect;
//! use infs_sdfg::{ArrayDecl, DataType};
//! use infs_tdfg::{ComputeOp, OutputTarget, TdfgBuilder};
//!
//! // B = V*A[0,6) (shifted right) + V*A[2,8) (shifted left): the multiply can
//! // be computed once over A[0,8) and shrunk (Fig 20 of the paper).
//! let mut b = TdfgBuilder::new(1, DataType::F32);
//! let a = b.declare_array(ArrayDecl::new("A", vec![8], DataType::F32));
//! let out = b.declare_array(ArrayDecl::new("B", vec![8], DataType::F32));
//! let v = b.constant(3.0);
//! let a0 = b.input(a, HyperRect::new(vec![(0, 6)]).unwrap()).unwrap();
//! let a1 = b.input(a, HyperRect::new(vec![(2, 8)]).unwrap()).unwrap();
//! let m0 = b.compute(ComputeOp::Mul, &[a0, v]).unwrap();
//! let m1 = b.compute(ComputeOp::Mul, &[a1, v]).unwrap();
//! let s0 = b.mv(m0, 0, 1).unwrap();
//! let s1 = b.mv(m1, 0, -1).unwrap();
//! let sum = b.compute(ComputeOp::Add, &[s0, s1]).unwrap();
//! b.output(sum, OutputTarget::array(out, HyperRect::new(vec![(1, 7)]).unwrap()));
//! let g = b.build().unwrap();
//!
//! let opt = optimize(&g, &CostParams::default()).unwrap();
//! // The optimized graph multiplies once instead of twice.
//! let muls = opt
//!     .nodes()
//!     .iter()
//!     .filter(|n| matches!(n, infs_tdfg::Node::Compute { op: ComputeOp::Mul, .. }))
//!     .count();
//! assert_eq!(muls, 1);
//! ```
//!
//! `DESIGN.md` §6 records the key optimizer decisions and their measured
//! ablations (`results/ablate_egraph.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod egraph;
mod enode;
mod extract;
mod replay;
mod rules;

pub use cost::CostParams;
pub use egraph::{EClassId, EGraph};
pub use enode::{ENode, Operands};
pub use extract::extract;
pub use replay::{optimize_recorded, OptimizeRecord};
pub use rules::{all_rules, Rewrite};

use infs_geom::HyperRect;
use infs_tdfg::{Tdfg, TdfgError};

/// Saturation limits: iteration and size caps keep compile time bounded — the
/// paper notes final selection "can be exhaustive or terminated early to reduce
/// compile time".
#[derive(Debug, Clone, Copy)]
pub struct SaturationLimits {
    /// Maximum rule-application rounds.
    pub max_iters: usize,
    /// E-node budget, enforced inside a pass: once the e-graph holds this
    /// many nodes, [`EGraph::add`] refuses every node it does not store
    /// already, no further rule starts, and saturation stops if the graph
    /// is still full after the pass's rebuild. A rule that is running
    /// finishes its matches, but can only union classes that exist. The
    /// graph seeded from the input is never refused, so it may start above
    /// the budget.
    pub max_nodes: usize,
}

impl Default for SaturationLimits {
    fn default() -> Self {
        SaturationLimits {
            max_iters: 5,
            max_nodes: 4_000,
        }
    }
}

/// Optimizes a tDFG by equality saturation and cost-based extraction.
///
/// The returned graph computes the same function (same outputs over the same
/// domains) with less estimated cost: fewer redundant computes and cheaper data
/// movement. Stream-input nodes and reductions pass through opaquely.
///
/// # Errors
///
/// Returns an error only if re-building the extracted graph fails, which would
/// indicate a rule bug (the rewrite rules preserve validity).
pub fn optimize(g: &Tdfg, params: &CostParams) -> Result<Tdfg, TdfgError> {
    optimize_with_limits(g, params, SaturationLimits::default())
}

/// [`optimize`] with explicit saturation limits.
///
/// # Errors
///
/// See [`optimize`].
pub fn optimize_with_limits(
    g: &Tdfg,
    params: &CostParams,
    limits: SaturationLimits,
) -> Result<Tdfg, TdfgError> {
    run(g, params, limits, &all_rules()).map(|(optimized, _)| optimized)
}

/// [`optimize`] saturating with `rules` instead of [`all_rules`]: how tests
/// check that every kept rule changes some extracted graph.
///
/// # Errors
///
/// See [`optimize`].
#[doc(hidden)]
pub fn optimize_with_rules(
    g: &Tdfg,
    params: &CostParams,
    rules: &[Box<dyn Rewrite>],
) -> Result<Tdfg, TdfgError> {
    run(g, params, SaturationLimits::default(), rules).map(|(optimized, _)| optimized)
}

/// Saturates with `rules` and extracts; also returns the e-graph's
/// [`clip_hull`](EGraph::clip_hull).
fn run(
    g: &Tdfg,
    params: &CostParams,
    limits: SaturationLimits,
    rules: &[Box<dyn Rewrite>],
) -> Result<(Tdfg, Option<HyperRect>), TdfgError> {
    let mut opt_span = infs_trace::span!("egraph.optimize", nodes_in = g.nodes().len());
    let mut eg = EGraph::from_tdfg(g);
    eg.set_max_nodes(limits.max_nodes);
    let mut iters = 0usize;
    for iter in 0..limits.max_iters {
        let _iter_span = infs_trace::span!("egraph.saturate", iter = iter);
        let mut changed = false;
        let mut applications = 0u64;
        for rule in rules {
            if eg.is_full() {
                break;
            }
            let n = rule.apply(&mut eg);
            applications += n as u64;
            changed |= n > 0;
        }
        eg.rebuild();
        iters = iter + 1;
        infs_trace::counter!("egraph.rule_applications", applications);
        infs_trace::gauge!("egraph.enodes", eg.num_enodes());
        infs_trace::gauge!("egraph.classes", eg.class_ids().len());
        if !changed || eg.is_full() {
            break;
        }
    }
    opt_span.arg("iters", iters);
    opt_span.arg("enodes", eg.num_enodes());
    let _extract_span = infs_trace::span!("egraph.extract", enodes = eg.num_enodes());
    Ok((extract(&eg, g, params)?, eg.clip_hull()))
}
