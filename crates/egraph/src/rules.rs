//! The tDFG rewrite rules of Appendix A that change an extracted graph.
//!
//! Appendix A lists thirteen rules; seven of them (commutativity,
//! compute/broadcast exchange, shrink through compute and through
//! broadcast, shrink merging, the zero-move identity and shrink
//! elimination) moved no simulated cycle here while causing most of the
//! e-graph's growth, and are left out (DESIGN.md §2). Dropping any one of
//! the six kept here changes a pinned extracted graph.
//!
//! Rules are programmatic: each scans the current e-graph for its pattern,
//! then adds the rewritten e-nodes and unions them with the matched class.
//! Every union passes through the e-graph's domain check, so rewrites that a
//! bounding-box clip or an empty intersection would invalidate are silently
//! rejected — the rules only need to be *sound up to domain equality*.

use crate::{EClassId, EGraph, ENode};

/// A rewrite rule over the e-graph.
pub trait Rewrite {
    /// Rule name for diagnostics.
    fn name(&self) -> &'static str;
    /// Applies the rule everywhere it matches; returns the number of unions
    /// actually performed.
    fn apply(&self, eg: &mut EGraph) -> usize;
}

/// The optimizer's rule set, in application order.
pub fn all_rules() -> Vec<Box<dyn Rewrite>> {
    vec![
        Box::new(Associativity),
        Box::new(Factor),
        Box::new(MvComputeExchange),
        Box::new(TensorExpansion),
        Box::new(ShrinkThroughMv),
        Box::new(MvMerge),
    ]
}

/// Adds `n` and unions it with `class`; returns 1 on a successful new union.
fn add_union(eg: &mut EGraph, class: EClassId, n: ENode) -> usize {
    match eg.add(n) {
        Some(id) => usize::from(eg.union(class, id)),
        None => 0,
    }
}

/// Drives `f` over every `(class, e-node)` pair, borrowing the stored node
/// lists directly (`class_nodes`) instead of cloning/canonicalizing them —
/// the scan phase of every rule, so this is the e-graph's hottest loop.
/// Rules collect matches first and mutate afterwards, so the borrows are safe;
/// ids read out of stored nodes may be stale between rebuilds but resolve to
/// the right class through `find` inside `add`/`union`/`domain`.
fn each_match(eg: &EGraph, mut f: impl FnMut(EClassId, &ENode)) {
    for id in eg.classes_iter() {
        for n in eg.class_nodes(id) {
            f(id, n);
        }
    }
}

/// Rule 3a: `C(f, C(f, A, B), C) ⇔ C(f, A, C(f, B, C))` for associative `f`.
struct Associativity;

impl Rewrite for Associativity {
    fn name(&self) -> &'static str {
        "associativity"
    }

    fn apply(&self, eg: &mut EGraph) -> usize {
        // (outer class, op, a, b, c) for outer = f(f(a,b), c).
        let mut left = Vec::new();
        // (outer class, op, a, b, c) for outer = f(a, f(b,c)).
        let mut right = Vec::new();
        each_match(eg, |id, n| {
            if let ENode::Compute { op, inputs } = n {
                if op.is_associative() && inputs.len() == 2 {
                    for inner in eg.class_nodes(inputs[0]) {
                        if let ENode::Compute {
                            op: iop,
                            inputs: iin,
                        } = inner
                        {
                            if iop == op && iin.len() == 2 {
                                left.push((id, *op, iin[0], iin[1], inputs[1]));
                            }
                        }
                    }
                    for inner in eg.class_nodes(inputs[1]) {
                        if let ENode::Compute {
                            op: iop,
                            inputs: iin,
                        } = inner
                        {
                            if iop == op && iin.len() == 2 {
                                right.push((id, *op, inputs[0], iin[0], iin[1]));
                            }
                        }
                    }
                }
            }
        });
        let mut unions = 0;
        for (id, op, a, bb, c) in left {
            // f(f(a,b), c) -> f(a, f(b,c))
            if let Some(bc) = eg.add(ENode::Compute {
                op,
                inputs: [bb, c].into(),
            }) {
                unions += add_union(
                    eg,
                    id,
                    ENode::Compute {
                        op,
                        inputs: [a, bc].into(),
                    },
                );
            }
        }
        for (id, op, a, bb, c) in right {
            // f(a, f(b,c)) -> f(f(a,b), c)
            if let Some(ab) = eg.add(ENode::Compute {
                op,
                inputs: [a, bb].into(),
            }) {
                unions += add_union(
                    eg,
                    id,
                    ENode::Compute {
                        op,
                        inputs: [ab, c].into(),
                    },
                );
            }
        }
        unions
    }
}

/// Rule 3c: factoring/distribution, `C(+, C(×, A, K), C(×, B, K)) ⇔
/// C(×, C(+, A, B), K)` where `K` is a shared e-class (typically a constant).
struct Factor;

impl Rewrite for Factor {
    fn name(&self) -> &'static str {
        "factor"
    }

    fn apply(&self, eg: &mut EGraph) -> usize {
        use infs_tdfg::ComputeOp::{Add, Mul};
        let mut factors = Vec::new();
        let mut distributes = Vec::new();
        each_match(eg, |id, n| {
            if let ENode::Compute { op, inputs } = n {
                if *op == Add && inputs.len() == 2 {
                    // Find Mul children sharing a factor (in any operand slot).
                    let muls_of = |c: EClassId| -> Vec<(EClassId, EClassId)> {
                        eg.class_nodes(c)
                            .filter_map(|m| match m {
                                ENode::Compute {
                                    op: Mul,
                                    inputs: mi,
                                    // Canonicalize here: the shared-factor test
                                    // below compares class ids, and stored child
                                    // ids can be stale between rebuilds.
                                } if mi.len() == 2 => Some((eg.find(mi[0]), eg.find(mi[1]))),
                                _ => None,
                            })
                            .flat_map(|(x, k)| [(x, k), (k, x)])
                            .collect()
                    };
                    for (a, k1) in muls_of(inputs[0]) {
                        for (b, k2) in muls_of(inputs[1]) {
                            if k1 == k2 {
                                factors.push((id, a, b, k1));
                            }
                        }
                    }
                } else if *op == Mul && inputs.len() == 2 {
                    // Distribute over an Add child in either slot.
                    for (sum_slot, k) in [(inputs[0], inputs[1]), (inputs[1], inputs[0])] {
                        for s in eg.class_nodes(sum_slot) {
                            if let ENode::Compute {
                                op: Add,
                                inputs: si,
                            } = s
                            {
                                if si.len() == 2 {
                                    distributes.push((id, si[0], si[1], k));
                                }
                            }
                        }
                    }
                }
            }
        });
        let mut unions = 0;
        for (id, a, b, k) in factors {
            if let Some(sum) = eg.add(ENode::Compute {
                op: Add,
                inputs: [a, b].into(),
            }) {
                unions += add_union(
                    eg,
                    id,
                    ENode::Compute {
                        op: Mul,
                        inputs: [sum, k].into(),
                    },
                );
            }
        }
        for (id, a, b, k) in distributes {
            let ma = eg.add(ENode::Compute {
                op: Mul,
                inputs: [a, k].into(),
            });
            let mb = eg.add(ENode::Compute {
                op: Mul,
                inputs: [b, k].into(),
            });
            if let (Some(ma), Some(mb)) = (ma, mb) {
                unions += add_union(
                    eg,
                    id,
                    ENode::Compute {
                        op: Add,
                        inputs: [ma, mb].into(),
                    },
                );
            }
        }
        unions
    }
}

/// Rule 4a: `C(f, M(A…)) ⇔ M(C(f, A…))` — both push (move into operands) and
/// hoist (common move out of all finite operands). Infinite (constant) operands
/// are shift-invariant and pass through unchanged.
struct MvComputeExchange;

impl Rewrite for MvComputeExchange {
    fn name(&self) -> &'static str {
        "mv-compute-exchange"
    }

    fn apply(&self, eg: &mut EGraph) -> usize {
        let mut pushes = Vec::new(); // (class, op, inputs, dim, dist)
        let mut hoists = Vec::new(); // (class, op, sources, dim, dist)
        each_match(eg, |id, n| {
            match n {
                ENode::Mv { input, dim, dist } => {
                    for inner in eg.class_nodes(*input) {
                        if let ENode::Compute { op, inputs } = inner {
                            pushes.push((id, *op, *inputs, *dim, *dist));
                        }
                    }
                }
                ENode::Compute { op, inputs } => {
                    // Candidate (dim, dist) pairs from the first finite input.
                    let finite: Vec<usize> = inputs
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| eg.domain(**c).is_some())
                        .map(|(i, _)| i)
                        .collect();
                    if finite.is_empty() {
                        return;
                    }
                    let cands: Vec<(usize, i64)> = eg
                        .class_nodes(inputs[finite[0]])
                        .filter_map(|m| match m {
                            ENode::Mv { dim, dist, .. } if *dist != 0 => Some((*dim, *dist)),
                            _ => None,
                        })
                        .collect();
                    'cand: for (dim, dist) in cands {
                        let mut sources = *inputs;
                        for &fi in &finite {
                            let src = eg.class_nodes(inputs[fi]).find_map(|m| match m {
                                ENode::Mv {
                                    input: s,
                                    dim: d2,
                                    dist: t2,
                                } if *d2 == dim && *t2 == dist => Some(*s),
                                _ => None,
                            });
                            match src {
                                Some(s) => sources[fi] = s,
                                None => continue 'cand,
                            }
                        }
                        hoists.push((id, *op, sources, dim, dist));
                    }
                }
                _ => {}
            }
        });
        let mut unions = 0;
        for (id, op, mut inputs, dim, dist) in pushes {
            let mut ok = true;
            for c in inputs.iter_mut() {
                if eg.domain(*c).is_some() {
                    match eg.add(ENode::Mv {
                        input: *c,
                        dim,
                        dist,
                    }) {
                        Some(m) => *c = m,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if ok {
                unions += add_union(eg, id, ENode::Compute { op, inputs });
            }
        }
        for (id, op, sources, dim, dist) in hoists {
            if let Some(pre) = eg.add(ENode::Compute {
                op,
                inputs: sources,
            }) {
                unions += add_union(
                    eg,
                    id,
                    ENode::Mv {
                        input: pre,
                        dim,
                        dist,
                    },
                );
            }
        }
        unions
    }
}

/// Rule 5: tensor expansion. For input tensors of the same array (and offset),
/// the smaller region equals a chain of shrinks of any enclosing region; the
/// enclosing covers are synthesized as the bounding rectangle of pairs, which
/// is how `A[0,n-2)` and `A[2,n)` discover the common cover `A[0,n)`.
struct TensorExpansion;

impl Rewrite for TensorExpansion {
    fn name(&self) -> &'static str {
        "tensor-expansion"
    }

    fn apply(&self, eg: &mut EGraph) -> usize {
        let mut inputs = Vec::new();
        each_match(eg, |id, n| {
            if let ENode::Input {
                array,
                rect,
                array_offset,
            } = n
            {
                inputs.push((id, *array, rect.clone(), array_offset.clone()));
            }
        });
        let mut unions = 0;
        for i in 0..inputs.len() {
            for j in (i + 1)..inputs.len() {
                // A full graph refuses new covers: stop pairing.
                if eg.is_full() {
                    return unions;
                }
                let (ca, aa, ra, oa) = &inputs[i];
                let (cb, ab, rb, ob) = &inputs[j];
                if aa != ab || oa != ob || ra == rb {
                    continue;
                }
                let Ok(cover) = ra.bounding(rb) else { continue };
                let Some(big) = eg.add(ENode::Input {
                    array: *aa,
                    rect: cover.clone(),
                    array_offset: oa.clone(),
                }) else {
                    continue;
                };
                for (class, r) in [(*ca, ra.clone()), (*cb, rb.clone())] {
                    let mut cur = big;
                    let mut ok = true;
                    for d in 0..r.ndim() {
                        if r.interval(d) != cover.interval(d) {
                            let (p, q) = r.interval(d);
                            match eg.add(ENode::Shrink {
                                input: cur,
                                dim: d,
                                p,
                                q,
                            }) {
                                Some(s) => cur = s,
                                None => {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                    }
                    if ok && cur != big {
                        unions += usize::from(eg.union(class, cur));
                    }
                }
            }
        }
        unions
    }
}

/// Rules 7a/7b: `M(S(A, i, p, q), j, d) ⇔ S(M(A, j, d), i', p', q')` with the
/// shrink window shifted when `i == j`.
struct ShrinkThroughMv;

impl Rewrite for ShrinkThroughMv {
    fn name(&self) -> &'static str {
        "shrink-through-mv"
    }

    fn apply(&self, eg: &mut EGraph) -> usize {
        let mut matches = Vec::new();
        each_match(eg, |id, n| {
            if let ENode::Mv { input, dim, dist } = n {
                for inner in eg.class_nodes(*input) {
                    if let ENode::Shrink {
                        input: src,
                        dim: sdim,
                        p,
                        q,
                    } = inner
                    {
                        matches.push((id, *src, *dim, *dist, *sdim, *p, *q));
                    }
                }
            }
        });
        let mut unions = 0;
        for (id, src, mdim, dist, sdim, p, q) in matches {
            let Some(moved) = eg.add(ENode::Mv {
                input: src,
                dim: mdim,
                dist,
            }) else {
                continue;
            };
            let (np, nq) = if sdim == mdim {
                (p + dist, q + dist)
            } else {
                (p, q)
            };
            unions += add_union(
                eg,
                id,
                ENode::Shrink {
                    input: moved,
                    dim: sdim,
                    p: np,
                    q: nq,
                },
            );
        }
        unions
    }
}

/// Housekeeping: merge consecutive moves on the same dimension and commute
/// moves on different dimensions.
struct MvMerge;

impl Rewrite for MvMerge {
    fn name(&self) -> &'static str {
        "mv-merge"
    }

    fn apply(&self, eg: &mut EGraph) -> usize {
        let mut matches = Vec::new();
        each_match(eg, |id, n| {
            if let ENode::Mv { input, dim, dist } = n {
                for inner in eg.class_nodes(*input) {
                    if let ENode::Mv {
                        input: src,
                        dim: idim,
                        dist: idist,
                    } = inner
                    {
                        matches.push((id, *src, *dim, *dist, *idim, *idist));
                    }
                }
            }
        });
        let mut unions = 0;
        for (id, src, dim, dist, idim, idist) in matches {
            if dim == idim {
                unions += add_union(
                    eg,
                    id,
                    ENode::Mv {
                        input: src,
                        dim,
                        dist: dist + idist,
                    },
                );
            } else {
                let Some(outer_first) = eg.add(ENode::Mv {
                    input: src,
                    dim,
                    dist,
                }) else {
                    continue;
                };
                unions += add_union(
                    eg,
                    id,
                    ENode::Mv {
                        input: outer_first,
                        dim: idim,
                        dist: idist,
                    },
                );
            }
        }
        unions
    }
}
