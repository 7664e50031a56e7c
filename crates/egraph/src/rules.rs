//! The tDFG rewrite rules of Appendix A.
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

/// The full Appendix-A rule set, in application order.
pub fn all_rules() -> Vec<Box<dyn Rewrite>> {
    vec![
        Box::new(Commutativity),
        Box::new(Associativity),
        Box::new(Factor),
        Box::new(MvComputeExchange),
        Box::new(BcComputeExchange),
        Box::new(TensorExpansion),
        Box::new(ShrinkThroughCompute),
        Box::new(ShrinkThroughMv),
        Box::new(ShrinkThroughBc),
        Box::new(ShrinkMerge),
        Box::new(MvMerge),
        Box::new(MvIdentity),
        Box::new(ShrinkElim),
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

/// Rule 3b: `C(f, A, B) ⇔ C(f, B, A)` for commutative `f`.
struct Commutativity;

impl Rewrite for Commutativity {
    fn name(&self) -> &'static str {
        "commutativity"
    }

    fn apply(&self, eg: &mut EGraph) -> usize {
        let mut matches = Vec::new();
        each_match(eg, |id, n| {
            if let ENode::Compute { op, inputs } = n {
                if op.is_commutative() && inputs.len() == 2 && inputs[0] != inputs[1] {
                    matches.push((
                        id,
                        ENode::Compute {
                            op: *op,
                            inputs: [inputs[1], inputs[0]].into(),
                        },
                    ));
                }
            }
        });
        matches
            .into_iter()
            .map(|(id, n)| add_union(eg, id, n))
            .sum()
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

/// Rule 4b: `C(f, B(A…)) ⇔ B(C(f, A…))` — push and hoist broadcasts, mirroring
/// [`MvComputeExchange`].
struct BcComputeExchange;

impl Rewrite for BcComputeExchange {
    fn name(&self) -> &'static str {
        "bc-compute-exchange"
    }

    fn apply(&self, eg: &mut EGraph) -> usize {
        let mut pushes = Vec::new();
        let mut hoists = Vec::new();
        each_match(eg, |id, n| match n {
            ENode::Bc {
                input,
                dim,
                dist,
                count,
            } => {
                for inner in eg.class_nodes(*input) {
                    if let ENode::Compute { op, inputs } = inner {
                        pushes.push((id, *op, *inputs, *dim, *dist, *count));
                    }
                }
            }
            ENode::Compute { op, inputs } => {
                let finite: Vec<usize> = inputs
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| eg.domain(**c).is_some())
                    .map(|(i, _)| i)
                    .collect();
                if finite.is_empty() {
                    return;
                }
                let cands: Vec<(usize, i64, u64)> = eg
                    .class_nodes(inputs[finite[0]])
                    .filter_map(|m| match m {
                        ENode::Bc {
                            dim, dist, count, ..
                        } => Some((*dim, *dist, *count)),
                        _ => None,
                    })
                    .collect();
                'cand: for (dim, dist, count) in cands {
                    let mut sources = *inputs;
                    for &fi in &finite {
                        let src = eg.class_nodes(inputs[fi]).find_map(|m| match m {
                            ENode::Bc {
                                input: s,
                                dim: d2,
                                dist: t2,
                                count: c2,
                            } if *d2 == dim && *t2 == dist && *c2 == count => Some(*s),
                            _ => None,
                        });
                        match src {
                            Some(s) => sources[fi] = s,
                            None => continue 'cand,
                        }
                    }
                    hoists.push((id, *op, sources, dim, dist, count));
                }
            }
            _ => {}
        });
        let mut unions = 0;
        for (id, op, mut inputs, dim, dist, count) in pushes {
            let mut ok = true;
            for c in inputs.iter_mut() {
                if eg.domain(*c).is_some() {
                    match eg.add(ENode::Bc {
                        input: *c,
                        dim,
                        dist,
                        count,
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
        for (id, op, sources, dim, dist, count) in hoists {
            if let Some(pre) = eg.add(ENode::Compute {
                op,
                inputs: sources,
            }) {
                unions += add_union(
                    eg,
                    id,
                    ENode::Bc {
                        input: pre,
                        dim,
                        dist,
                        count,
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

/// Rule 9: `C(f, S(A), X…) ⇔ S(C(f, A, X…))` — hoisting a shrink out of any
/// compute operand, which is what exposes common subcomputation over expanded
/// tensors.
struct ShrinkThroughCompute;

impl Rewrite for ShrinkThroughCompute {
    fn name(&self) -> &'static str {
        "shrink-through-compute"
    }

    fn apply(&self, eg: &mut EGraph) -> usize {
        let mut matches = Vec::new();
        each_match(eg, |id, n| {
            if let ENode::Compute { op, inputs } = n {
                for (slot, c) in inputs.iter().enumerate() {
                    for inner in eg.class_nodes(*c) {
                        if let ENode::Shrink {
                            input: src,
                            dim,
                            p,
                            q,
                        } = inner
                        {
                            let mut new_inputs = *inputs;
                            new_inputs[slot] = *src;
                            matches.push((id, *op, new_inputs, *dim, *p, *q));
                        }
                    }
                }
            }
        });
        let mut unions = 0;
        for (id, op, inputs, dim, p, q) in matches {
            if let Some(pre) = eg.add(ENode::Compute { op, inputs }) {
                unions += add_union(
                    eg,
                    id,
                    ENode::Shrink {
                        input: pre,
                        dim,
                        p,
                        q,
                    },
                );
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

/// Rules 8a/8b: commute shrink with broadcast on different dimensions; absorb a
/// shrink into the broadcast window on the same dimension.
struct ShrinkThroughBc;

impl Rewrite for ShrinkThroughBc {
    fn name(&self) -> &'static str {
        "shrink-through-bc"
    }

    fn apply(&self, eg: &mut EGraph) -> usize {
        let mut commutes = Vec::new();
        let mut absorbs = Vec::new();
        each_match(eg, |id, n| match n {
            ENode::Bc {
                input,
                dim,
                dist,
                count,
            } => {
                for inner in eg.class_nodes(*input) {
                    if let ENode::Shrink {
                        input: src,
                        dim: sdim,
                        p,
                        q,
                    } = inner
                    {
                        if sdim != dim {
                            commutes.push((id, *src, *dim, *dist, *count, *sdim, *p, *q));
                        }
                    }
                }
            }
            ENode::Shrink { input, dim, p, q } => {
                for inner in eg.class_nodes(*input) {
                    if let ENode::Bc {
                        input: src,
                        dim: bdim,
                        dist,
                        count,
                    } = inner
                    {
                        if bdim == dim {
                            let np = (*p).max(*dist);
                            let nq = (*q).min(*dist + *count as i64);
                            if np < nq {
                                absorbs.push((id, *src, *dim, np, (nq - np) as u64));
                            }
                        }
                    }
                }
            }
            _ => {}
        });
        let mut unions = 0;
        for (id, src, bdim, dist, count, sdim, p, q) in commutes {
            let Some(spread) = eg.add(ENode::Bc {
                input: src,
                dim: bdim,
                dist,
                count,
            }) else {
                continue;
            };
            unions += add_union(
                eg,
                id,
                ENode::Shrink {
                    input: spread,
                    dim: sdim,
                    p,
                    q,
                },
            );
        }
        for (id, src, dim, dist, count) in absorbs {
            unions += add_union(
                eg,
                id,
                ENode::Bc {
                    input: src,
                    dim,
                    dist,
                    count,
                },
            );
        }
        unions
    }
}

/// Rules 6a/6b: merge shrinks on the same dimension; commute on different ones.
struct ShrinkMerge;

impl Rewrite for ShrinkMerge {
    fn name(&self) -> &'static str {
        "shrink-merge"
    }

    fn apply(&self, eg: &mut EGraph) -> usize {
        let mut matches = Vec::new();
        each_match(eg, |id, n| {
            if let ENode::Shrink { input, dim, p, q } = n {
                for inner in eg.class_nodes(*input) {
                    if let ENode::Shrink {
                        input: src,
                        dim: idim,
                        p: ip,
                        q: iq,
                    } = inner
                    {
                        matches.push((id, *src, *dim, *p, *q, *idim, *ip, *iq));
                    }
                }
            }
        });
        let mut unions = 0;
        for (id, src, dim, p, q, idim, ip, iq) in matches {
            if dim == idim {
                unions += add_union(
                    eg,
                    id,
                    ENode::Shrink {
                        input: src,
                        dim,
                        p: p.max(ip),
                        q: q.min(iq),
                    },
                );
            } else {
                let Some(outer_first) = eg.add(ENode::Shrink {
                    input: src,
                    dim,
                    p,
                    q,
                }) else {
                    continue;
                };
                unions += add_union(
                    eg,
                    id,
                    ENode::Shrink {
                        input: outer_first,
                        dim: idim,
                        p: ip,
                        q: iq,
                    },
                );
            }
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

/// Housekeeping: a zero-distance move is the identity.
struct MvIdentity;

impl Rewrite for MvIdentity {
    fn name(&self) -> &'static str {
        "mv-identity"
    }

    fn apply(&self, eg: &mut EGraph) -> usize {
        let mut matches = Vec::new();
        each_match(eg, |id, n| {
            if let ENode::Mv { input, dist: 0, .. } = n {
                matches.push((id, *input));
            }
        });
        matches
            .into_iter()
            .map(|(id, input)| usize::from(eg.union(id, input)))
            .sum()
    }
}

/// Housekeeping: a shrink that does not actually restrict its input's domain is
/// the identity.
struct ShrinkElim;

impl Rewrite for ShrinkElim {
    fn name(&self) -> &'static str {
        "shrink-elim"
    }

    fn apply(&self, eg: &mut EGraph) -> usize {
        let mut matches = Vec::new();
        each_match(eg, |id, n| {
            if let ENode::Shrink { input, dim, p, q } = n {
                if let Some(d) = eg.domain(*input) {
                    let (ip, iq) = d.interval(*dim);
                    if *p <= ip && iq <= *q {
                        matches.push((id, *input));
                    }
                }
            }
        });
        matches
            .into_iter()
            .map(|(id, input)| usize::from(eg.union(id, input)))
            .sum()
    }
}
