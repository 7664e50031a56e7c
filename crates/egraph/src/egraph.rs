use crate::ENode;
use infs_geom::HyperRect;
use infs_tdfg::{Node, NodeId, Tdfg};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

/// Identifier of an equivalence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EClassId(pub u32);

impl fmt::Display for EClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Debug, Clone, Default)]
struct EClass {
    nodes: Vec<Slot>,
    domain: Option<HyperRect>, // None = infinite (constant) tensor
    parents: Vec<(ENode, EClassId)>,
}

/// Index of a stored e-node in [`EGraph::slots`]. A slot never moves: a
/// stale node is rewritten in place, and a dropped one is marked dead and
/// left out of its class's list at the end of the rebuild.
type Slot = u32;

/// Slot of a memo key that no stored node carries. A repair that cannot
/// find a parent entry's stored copy still keys the entry's canonical form;
/// the check after every rebuild finds no such key left.
const NO_SLOT: Slot = Slot::MAX;

/// Where a memo key lives: its class, and the slot storing it.
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    class: EClassId,
    slot: Slot,
}

/// A domain-aware e-graph over tDFG nodes.
///
/// Each e-class carries its tensor domain as an analysis; two classes may only
/// be unioned when their domains agree, which is the paper's definition of tDFG
/// node equivalence ("same result *and* same domain in the lattice space").
///
/// Memo invariant: every stored e-node is a key of `memo` whose entry names
/// the node's slot and resolves to its own class. So two classes never store
/// equal nodes, [`union`](Self::union) can concatenate node lists without a
/// duplicate scan, and [`rebuild`](Self::rebuild) finds a stale node's slot,
/// or whether its canonical form is stored already, with one memo lookup.
/// After every rebuild the memo's keys are exactly the stored nodes, and each
/// stored node's canonical form is a key of its class; debug builds check
/// this.
#[derive(Debug, Clone)]
pub struct EGraph {
    ndim: usize,
    bounding: HyperRect,
    uf: Vec<u32>,
    classes: Vec<EClass>,
    /// Every e-node ever stored, by slot; class lists hold slots.
    slots: Vec<ENode>,
    /// False once rebuild has dropped a slot's node as a duplicate.
    live: Vec<bool>,
    /// Hash-cons table. It stays on std's keyed `RandomState`: kernels reach
    /// the optimizer from the socket, and an unkeyed hash would let a client
    /// pick nodes that collide and make every lookup linear.
    memo: HashMap<ENode, MemoEntry>,
    dirty: Vec<EClassId>,
    n_enodes: usize,
    node_class: Vec<EClassId>, // original tDFG NodeId -> class
    /// Per-dimension hull of every rectangle [`add`](Self::add) clipped to
    /// the bounding box; empty until the first clip.
    clip_hull: Vec<(i64, i64)>,
    /// [`add`](Self::add) stores no new node once `n_enodes` reaches this.
    max_nodes: usize,
}

/// A node's domain before the bounding-box clip.
enum Unclipped {
    /// The domain as it stands.
    Final(Option<HyperRect>),
    /// A moved or broadcast rectangle, still to be clipped.
    Clip(HyperRect),
}

impl EGraph {
    /// Builds an e-graph seeded with every node of a validated tDFG.
    pub fn from_tdfg(g: &Tdfg) -> Self {
        let mut eg = EGraph {
            ndim: g.ndim(),
            bounding: g.bounding().clone(),
            uf: Vec::new(),
            classes: Vec::new(),
            slots: Vec::new(),
            live: Vec::new(),
            memo: HashMap::new(),
            dirty: Vec::new(),
            n_enodes: 0,
            node_class: Vec::new(),
            clip_hull: Vec::new(),
            max_nodes: usize::MAX,
        };
        for (i, n) in g.nodes().iter().enumerate() {
            let map = |x: &NodeId| eg.node_class[x.0 as usize];
            let en = match n {
                Node::Input {
                    array,
                    rect,
                    array_offset,
                } => ENode::Input {
                    array: *array,
                    rect: rect.clone(),
                    array_offset: array_offset.clone(),
                },
                Node::ConstVal { value } => ENode::ConstVal {
                    bits: value.to_bits(),
                },
                Node::Param { index } => ENode::Param { index: *index },
                Node::Compute { op, inputs } => ENode::Compute {
                    op: *op,
                    inputs: inputs.iter().map(map).collect(),
                },
                Node::Mv { input, dim, dist } => ENode::Mv {
                    input: map(input),
                    dim: *dim,
                    dist: *dist,
                },
                Node::Bc {
                    input,
                    dim,
                    dist,
                    count,
                } => ENode::Bc {
                    input: map(input),
                    dim: *dim,
                    dist: *dist,
                    count: *count,
                },
                Node::Shrink { input, dim, p, q } => ENode::Shrink {
                    input: map(input),
                    dim: *dim,
                    p: *p,
                    q: *q,
                },
                Node::Reduce { input, dim, op } => ENode::Reduce {
                    input: map(input),
                    dim: *dim,
                    op: *op,
                },
                Node::StreamIn { stream, rect } => ENode::StreamIn {
                    stream: *stream,
                    rect: rect.clone(),
                },
            };
            let class = eg
                .add(en)
                .expect("nodes of a validated tDFG have non-empty domains");
            debug_assert_eq!(
                eg.domain(class).cloned(),
                g.domain(NodeId(i as u32)).cloned(),
                "e-graph domain analysis must match tDFG build for node %{i}"
            );
            eg.node_class.push(class);
        }
        eg
    }

    /// Lattice dimensionality.
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// The global bounding hyperrectangle inherited from the source graph.
    pub fn bounding(&self) -> &HyperRect {
        &self.bounding
    }

    /// The hull of every rectangle this e-graph has clipped to
    /// [`bounding`](Self::bounding) while adding nodes, or `None` if it has
    /// clipped none. Every clip an `add` made answers the same under any
    /// bounding box `B` with `hull ∩ B == hull ∩ bounding()`, since each
    /// clipped rectangle lies inside the hull.
    pub fn clip_hull(&self) -> Option<HyperRect> {
        (!self.clip_hull.is_empty())
            .then(|| HyperRect::new(self.clip_hull.clone()).expect("a hull of rectangles"))
    }

    /// Total e-nodes currently stored (across all classes).
    pub fn num_enodes(&self) -> usize {
        self.n_enodes
    }

    /// Caps the stored e-nodes: once the graph holds `max_nodes`,
    /// [`add`](Self::add) refuses every node it does not store already.
    /// Unions and rebuilds still run, and a rebuild that drops duplicates
    /// makes room again. A graph starts uncapped, so seeding it from a tDFG
    /// never fails.
    pub(crate) fn set_max_nodes(&mut self, max_nodes: usize) {
        self.max_nodes = max_nodes;
    }

    /// True once the graph holds as many e-nodes as its cap allows.
    pub(crate) fn is_full(&self) -> bool {
        self.n_enodes >= self.max_nodes
    }

    /// Canonical class currently holding an original tDFG node.
    pub fn class_of_node(&self, id: NodeId) -> EClassId {
        self.find(self.node_class[id.0 as usize])
    }

    /// Canonical representative of a class.
    pub fn find(&self, id: EClassId) -> EClassId {
        let mut x = id.0;
        while self.uf[x as usize] != x {
            x = self.uf[x as usize];
        }
        EClassId(x)
    }

    fn find_mut(&mut self, id: EClassId) -> EClassId {
        let mut x = id.0;
        while self.uf[x as usize] != x {
            // Path halving.
            self.uf[x as usize] = self.uf[self.uf[x as usize] as usize];
            x = self.uf[x as usize];
        }
        EClassId(x)
    }

    /// The domain analysis of a class.
    pub fn domain(&self, id: EClassId) -> Option<&HyperRect> {
        self.classes[self.find(id).0 as usize].domain.as_ref()
    }

    /// Canonicalized, deduplicated e-nodes of a class, in stored order
    /// (allocates; the rule engine's hot path uses
    /// [`class_nodes`](Self::class_nodes) instead).
    pub fn nodes(&self, id: EClassId) -> Vec<ENode> {
        let mut stale = false;
        let mut nodes: Vec<ENode> = self
            .class_nodes(id)
            .map(|n| {
                let mut n = n.clone();
                stale |= n.canonicalize(|x| self.find(x));
                n
            })
            .collect();
        // Stored nodes are distinct, so only canonicalization can repeat one.
        if stale {
            dedup_in_order(&mut nodes);
        }
        nodes
    }

    /// The stored e-nodes of a class, borrowed without cloning.
    ///
    /// Immediately after [`rebuild`](Self::rebuild) the stored nodes are
    /// distinct and canonical, but for a rare half-canonical copy of a node
    /// that is also stored in canonical form. Between rebuilds (i.e. while
    /// rules in the same saturation iteration are mutating the graph), child
    /// ids may be
    /// stale — they still resolve to the right class through
    /// [`find`](Self::find), and [`add`](Self::add)/[`union`](Self::union)
    /// re-canonicalize, so pattern scans over these nodes stay sound; at worst
    /// a stale id hides an equality until the next iteration's rebuild.
    pub fn class_nodes(&self, id: EClassId) -> impl Iterator<Item = &ENode> + '_ {
        self.classes[self.find(id).0 as usize]
            .nodes
            .iter()
            .map(|&s| &self.slots[s as usize])
    }

    /// Iterates over canonical class ids without allocating.
    pub fn classes_iter(&self) -> impl Iterator<Item = EClassId> + '_ {
        (0..self.uf.len() as u32)
            .map(EClassId)
            .filter(move |&i| self.find(i) == i)
    }

    /// Canonical class ids, collected (see [`classes_iter`](Self::classes_iter)).
    pub fn class_ids(&self) -> Vec<EClassId> {
        self.classes_iter().collect()
    }

    /// Computes the domain an e-node would have, per the tDFG domain rules.
    ///
    /// Returns `Err(())` when the node is ill-formed (empty domain, broadcast of
    /// a non-thin tensor, movement of an infinite tensor) — rules treat this as
    /// "skip this rewrite".
    #[allow(clippy::result_unit_err)]
    pub fn compute_domain(&self, n: &ENode) -> Result<Option<HyperRect>, ()> {
        match self.unclipped_domain(n)? {
            Unclipped::Final(d) => Ok(d),
            Unclipped::Clip(r) => self.clip(&r),
        }
    }

    /// `r` clipped to the bounding box; `Err(())` when nothing is left.
    fn clip(&self, r: &HyperRect) -> Result<Option<HyperRect>, ()> {
        Ok(Some(
            r.intersect(&self.bounding).map_err(|_| ())?.ok_or(())?,
        ))
    }

    /// [`compute_domain`](Self::compute_domain) up to the bounding-box clip.
    fn unclipped_domain(&self, n: &ENode) -> Result<Unclipped, ()> {
        let dom_of = |c: &EClassId| self.domain(*c).cloned();
        Ok(match n {
            ENode::Input { rect, .. } | ENode::StreamIn { rect, .. } => {
                Unclipped::Final(Some(rect.clone()))
            }
            ENode::ConstVal { .. } | ENode::Param { .. } => Unclipped::Final(None),
            ENode::Compute { inputs, .. } => {
                let mut acc: Option<HyperRect> = None;
                for c in inputs.iter() {
                    if let Some(d) = dom_of(c) {
                        acc = Some(match acc {
                            Some(a) => a.intersect(&d).map_err(|_| ())?.ok_or(())?,
                            None => d,
                        });
                    }
                }
                Unclipped::Final(acc)
            }
            ENode::Mv { input, dim, dist } => {
                let d = dom_of(input).ok_or(())?;
                Unclipped::Clip(d.translated(*dim, *dist).map_err(|_| ())?)
            }
            ENode::Bc {
                input,
                dim,
                dist,
                count,
            } => {
                let d = dom_of(input).ok_or(())?;
                if d.extent(*dim) != 1 {
                    return Err(());
                }
                let spread = d.with_interval(*dim, *dist, *dist + *count as i64);
                Unclipped::Clip(spread.map_err(|_| ())?)
            }
            ENode::Shrink { input, dim, p, q } => {
                let d = dom_of(input).ok_or(())?;
                let (ip, iq) = d.interval(*dim);
                let (np, nq) = ((*p).max(ip), (*q).min(iq));
                if np >= nq {
                    return Err(());
                }
                Unclipped::Final(Some(d.with_interval(*dim, np, nq).map_err(|_| ())?))
            }
            ENode::Reduce { input, dim, .. } => {
                let d = dom_of(input).ok_or(())?;
                let s = d.start(*dim);
                Unclipped::Final(Some(d.with_interval(*dim, s, s + 1).map_err(|_| ())?))
            }
        })
    }

    /// Widens the clip hull, in place, to cover `r`.
    fn widen_clip_hull(&mut self, r: &HyperRect) {
        if self.clip_hull.is_empty() {
            self.clip_hull.extend_from_slice(r.intervals());
            return;
        }
        for (h, &(p, q)) in self.clip_hull.iter_mut().zip(r.intervals()) {
            *h = (h.0.min(p), h.1.max(q));
        }
    }

    /// Adds an e-node (hash-consed), returning its class, or `None` if the node
    /// is ill-formed (see [`compute_domain`](Self::compute_domain)) or is new
    /// to a graph that already holds its cap of e-nodes. A refused node is
    /// not clipped, so it leaves the [`clip_hull`](Self::clip_hull) as it
    /// was.
    pub fn add(&mut self, mut n: ENode) -> Option<EClassId> {
        n.canonicalize(|x| self.find(x));
        if let Some(e) = self.memo.get(&n) {
            return Some(self.find(e.class));
        }
        if self.is_full() {
            return None;
        }
        let domain = match self.unclipped_domain(&n).ok()? {
            Unclipped::Final(d) => d,
            Unclipped::Clip(r) => {
                self.widen_clip_hull(&r);
                self.clip(&r).ok()?
            }
        };
        let id = EClassId(self.uf.len() as u32);
        let slot = self.slots.len() as Slot;
        self.uf.push(id.0);
        self.classes.push(EClass {
            nodes: vec![slot],
            domain,
            parents: Vec::new(),
        });
        self.n_enodes += 1;
        for &c in n.children() {
            self.classes[c.0 as usize].parents.push((n.clone(), id));
        }
        self.memo.insert(n.clone(), MemoEntry { class: id, slot });
        self.slots.push(n);
        self.live.push(true);
        Some(id)
    }

    /// Unions two classes; returns true if they were distinct and their domains
    /// agree (the tDFG equivalence precondition).
    pub fn union(&mut self, a: EClassId, b: EClassId) -> bool {
        let a = self.find_mut(a);
        let b = self.find_mut(b);
        if a == b {
            return false;
        }
        let da = &self.classes[a.0 as usize].domain;
        let db = &self.classes[b.0 as usize].domain;
        if da != db {
            // Not an error: rewrite rules attempt unions and rely on this check
            // to reject rewrites invalidated by bounding-box clipping.
            return false;
        }
        // Keep the smaller id canonical for determinism.
        let (keep, merge) = if a < b { (a, b) } else { (b, a) };
        self.uf[merge.0 as usize] = keep.0;
        // Under the memo invariant neither class stores a node the other
        // does; the check after every rebuild asserts it.
        let merged = std::mem::take(&mut self.classes[merge.0 as usize]);
        let kc = &mut self.classes[keep.0 as usize];
        kc.nodes.extend(merged.nodes);
        kc.parents.extend(merged.parents);
        self.dirty.push(keep);
        true
    }

    /// Restores congruence after unions: parents of merged classes are
    /// re-canonicalized and congruent parents are unioned transitively.
    ///
    /// Every union pushes its surviving class onto the dirty stack, so one
    /// class may sit there thousands of times. Classes are popped last-pushed
    /// first and repaired, except that a pop is skipped when no union has
    /// happened since that class's latest repair began: that repair saw the
    /// union-find as it is now and left the class's parent list canonical
    /// and deduplicated, so under the memo invariant repeating it would
    /// change nothing. The repairs that do run are the ones a
    /// repair-every-pop loop would make, in the same order, so the rebuild
    /// leaves the same e-graph.
    pub fn rebuild(&mut self) {
        let mut span = infs_trace::span!("egraph.rebuild");
        let mut pushes = self.dirty.len();
        let (mut classes, mut parents) = (0usize, 0usize);
        // The push count at which each class's latest repair began.
        let mut repaired_at = vec![usize::MAX; self.uf.len()];
        // Classes that lost a node to a duplicate, compacted at the end.
        let mut shrunk = Vec::new();
        while let Some(c) = self.dirty.pop() {
            let c = self.find_mut(c);
            if repaired_at[c.0 as usize] == pushes {
                continue;
            }
            repaired_at[c.0 as usize] = pushes;
            let queued = self.dirty.len();
            classes += 1;
            parents += self.repair(c, &mut shrunk);
            pushes += self.dirty.len() - queued;
        }
        self.compact(shrunk);
        #[cfg(debug_assertions)]
        self.check_invariants();
        span.arg("pushes", pushes);
        span.arg("classes", classes);
        span.arg("parents", parents);
    }

    /// Re-canonicalizes the parent list of canonical dirty class `c`, unioning
    /// congruent parents. Returns the number of parent entries processed;
    /// pushes onto `shrunk` each class that holds a slot this repair killed.
    fn repair(&mut self, c: EClassId, shrunk: &mut Vec<EClassId>) -> usize {
        let parents = std::mem::take(&mut self.classes[c.0 as usize].parents);
        let count = parents.len();
        let mut new_parents: Vec<(ENode, EClassId)> = Vec::with_capacity(count);
        for (mut node, pclass) in parents {
            // Under the memo invariant the entry names the slot storing the
            // stale node, if it is still stored.
            let stale = self.memo.remove(&node).map_or(NO_SLOT, |e| e.slot);
            debug_assert!(stale == NO_SLOT || self.slots[stale as usize] == node);
            let changed = node.canonicalize(|x| self.find(x));
            let pclass = self.find_mut(pclass);
            let existing = self.memo.get(&node).copied();
            if let Some(e) = existing {
                let existing = self.find_mut(e.class);
                if existing != pclass {
                    self.union(existing, pclass);
                }
            }
            let pclass = self.find_mut(pclass);
            // Keep the stored nodes canonical too: rewrite the stale copy in
            // its slot, or drop it if the canonical node is stored already
            // (the union above put it in this class), so `class_nodes` sees
            // canonical, distinct nodes after the rebuild.
            let stored = existing.map_or(NO_SLOT, |e| e.slot);
            let slot = match (changed, stale, stored) {
                (false, ..) => stale,
                (true, NO_SLOT, _) => stored,
                (true, _, NO_SLOT) => {
                    self.slots[stale as usize] = node.clone();
                    stale
                }
                (true, _, _) => {
                    self.live[stale as usize] = false;
                    self.n_enodes -= 1;
                    shrunk.push(pclass);
                    stored
                }
            };
            self.memo.insert(
                node.clone(),
                MemoEntry {
                    class: pclass,
                    slot,
                },
            );
            new_parents.push((node, pclass));
        }
        dedup_in_order(&mut new_parents);
        let c = self.find_mut(c);
        self.classes[c.0 as usize].parents.extend(new_parents);
        count
    }

    /// Leaves dead slots out of the node lists of the `shrunk` classes,
    /// keeping the order of the rest.
    fn compact(&mut self, mut shrunk: Vec<EClassId>) {
        for c in &mut shrunk {
            *c = self.find_mut(*c);
        }
        shrunk.sort_unstable();
        shrunk.dedup();
        for c in shrunk {
            let live = &self.live;
            self.classes[c.0 as usize]
                .nodes
                .retain(|&s| live[s as usize]);
        }
    }

    /// Asserts the memo invariant as a rebuild leaves it: every listed slot
    /// is live and `n_enodes` counts them; every stored node is a memo key
    /// naming its own slot and class, so no value is stored twice; the memo
    /// has no other keys; and every stored node's canonical form is a key of
    /// its own class.
    ///
    /// The last clause is weaker than "every stored node is canonical",
    /// which does not hold. A node with two children has a parent entry on
    /// each child's list. When the children merge in different repairs of
    /// one rebuild, the first repair rewrites the stored node, and the second
    /// meets an entry whose stored copy it can no longer find. If that
    /// entry's canonical form is stored already, the copy the first repair
    /// wrote stays behind, half canonical. It hides no equality, and
    /// [`nodes`](Self::nodes) drops it.
    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        let mut stored = 0;
        for c in self.classes_iter() {
            for &s in &self.classes[c.0 as usize].nodes {
                let n = &self.slots[s as usize];
                assert!(self.live[s as usize], "{c} lists dead slot {s}");
                let e = self
                    .memo
                    .get(n)
                    .unwrap_or_else(|| panic!("{n:?} is no memo key"));
                assert_eq!(e.slot, s, "{n:?} is stored twice or keyed elsewhere");
                assert_eq!(self.find(e.class), c, "{n:?} is keyed to another class");
                let canon = n.map_children(|x| self.find(x));
                let e = self.memo.get(&canon);
                assert_eq!(
                    e.map(|e| self.find(e.class)),
                    Some(c),
                    "the canonical form of {n:?} is not keyed to {c}"
                );
                stored += 1;
            }
        }
        assert_eq!(self.memo.len(), stored, "the memo has keys no class stores");
        assert_eq!(self.live.iter().filter(|&&l| l).count(), stored);
        assert_eq!(self.n_enodes, stored);
    }
}

/// Removes repeats from `items` in place, keeping each item at its first
/// position. The set borrows the items rather than cloning them, and a list
/// without repeats (the common case) is left untouched.
fn dedup_in_order<T: Eq + Hash>(items: &mut Vec<T>) {
    if items.len() < 2 {
        return; // nothing to compare
    }
    let mut seen = HashSet::with_capacity(items.len());
    let repeats: Vec<usize> = (0..items.len())
        .filter(|&i| !seen.insert(&items[i]))
        .collect();
    drop(seen);
    if repeats.is_empty() {
        return;
    }
    let mut i = 0;
    items.retain(|_| {
        i += 1;
        repeats.binary_search(&(i - 1)).is_err()
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use infs_sdfg::{ArrayDecl, ArrayId, DataType};
    use infs_tdfg::{ComputeOp, OutputTarget, TdfgBuilder};

    fn rect(iv: &[(i64, i64)]) -> HyperRect {
        HyperRect::new(iv.to_vec()).unwrap()
    }

    fn sample_graph() -> Tdfg {
        let mut b = TdfgBuilder::new(1, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![8], DataType::F32));
        let x = b.input(a, rect(&[(0, 8)])).unwrap();
        let y = b.mv(x, 0, 1).unwrap();
        let s = b.compute(ComputeOp::Add, &[x, y]).unwrap();
        b.output(s, OutputTarget::array(a, rect(&[(1, 8)])));
        b.build().unwrap()
    }

    #[test]
    fn from_tdfg_hashconses() {
        let g = sample_graph();
        let eg = EGraph::from_tdfg(&g);
        assert_eq!(eg.num_enodes(), 3);
        assert_eq!(eg.class_ids().len(), 3);
    }

    #[test]
    fn add_is_idempotent() {
        let g = sample_graph();
        let mut eg = EGraph::from_tdfg(&g);
        let c0 = eg.class_of_node(NodeId(0));
        let dup = eg
            .add(ENode::Mv {
                input: c0,
                dim: 0,
                dist: 1,
            })
            .unwrap();
        assert_eq!(dup, eg.class_of_node(NodeId(1)));
        assert_eq!(eg.num_enodes(), 3);
    }

    #[test]
    fn add_rejects_empty_domains() {
        let g = sample_graph();
        let mut eg = EGraph::from_tdfg(&g);
        let c0 = eg.class_of_node(NodeId(0));
        // Move everything outside the bounding box.
        assert!(eg
            .add(ENode::Mv {
                input: c0,
                dim: 0,
                dist: 100,
            })
            .is_none());
        // Shrink to an empty interval.
        assert!(eg
            .add(ENode::Shrink {
                input: c0,
                dim: 0,
                p: 5,
                q: 5,
            })
            .is_none());
    }

    #[test]
    fn union_requires_matching_domains() {
        let g = sample_graph();
        let mut eg = EGraph::from_tdfg(&g);
        let full = eg.class_of_node(NodeId(0)); // [0,8)
        let moved = eg.class_of_node(NodeId(1)); // [1,8)
                                                 // Different domains: refuse.
        assert!(!eg.union(full, moved));
        let c = eg
            .add(ENode::Compute {
                op: ComputeOp::Copy,
                inputs: [moved].into(),
            })
            .unwrap();
        // Same domain [1,8): union succeeds.
        assert!(eg.union(c, moved));
        assert!(!eg.union(c, moved));
        assert_eq!(eg.find(c), eg.find(moved));
    }

    #[test]
    fn congruence_closure_merges_parents() {
        let g = sample_graph();
        let mut eg = EGraph::from_tdfg(&g);
        let x = eg.class_of_node(NodeId(0));
        // Two copies-of-copies: cp1 = Copy(x); cp2 = Copy(cp1). If cp1 ≡ x then
        // Copy(cp1) must become congruent to Copy(x) = cp1 ≡ x after rebuild.
        let cp1 = eg
            .add(ENode::Compute {
                op: ComputeOp::Copy,
                inputs: [x].into(),
            })
            .unwrap();
        let cp2 = eg
            .add(ENode::Compute {
                op: ComputeOp::Copy,
                inputs: [cp1].into(),
            })
            .unwrap();
        assert_ne!(eg.find(cp1), eg.find(cp2));
        eg.union(cp1, x);
        eg.rebuild();
        assert_eq!(
            eg.find(cp2),
            eg.find(cp1),
            "congruence must merge Copy(x) chain"
        );
    }

    #[test]
    fn nodes_are_canonicalized_and_deduped() {
        let g = sample_graph();
        let mut eg = EGraph::from_tdfg(&g);
        let x = eg.class_of_node(NodeId(0));
        let cp = eg
            .add(ENode::Compute {
                op: ComputeOp::Copy,
                inputs: [x].into(),
            })
            .unwrap();
        eg.union(cp, x);
        eg.rebuild();
        let nodes = eg.nodes(x);
        // Input + Copy(self-loop).
        assert_eq!(nodes.len(), 2);
        assert!(nodes
            .iter()
            .any(|n| matches!(n, ENode::Input { array, .. } if *array == ArrayId(0))));
    }
}
