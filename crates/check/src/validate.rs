//! Structural validators for the three artifacts a fat binary carries through
//! the pipeline: the tDFG itself, its per-geometry schedules, and the lowered
//! command stream.
//!
//! A graph built through [`infs_tdfg::TdfgBuilder`] cannot violate these
//! invariants — the builder enforces them. The validators exist for everything
//! that *bypasses* the builder: graphs deserialized from a fat binary, graphs
//! reconstructed by e-graph extraction, and schedules shipped over the wire.
//! They re-derive every invariant from scratch and compare against what the
//! artifact claims, so a corrupted or miscompiled region is rejected with a
//! typed error before it can produce silently wrong answers.

use infs_geom::HyperRect;
use infs_isa::{Schedule, SramGeometry};
use infs_runtime::{lower, CommandStream, InfCommand, RuntimeError, TransposedLayout};
use infs_sdfg::ArrayDecl;
use infs_sim::{RegionAuditor, SystemConfig};
use infs_tdfg::{Node, NodeId, OutputTarget, Tdfg};
use std::fmt;

/// A violated pipeline invariant.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CheckError {
    /// A node of the tDFG is structurally ill-formed or its stored domain
    /// disagrees with recomputation.
    Graph {
        /// Offending node id.
        node: u32,
        /// Violated invariant.
        what: String,
    },
    /// A region output is ill-formed.
    Output {
        /// Index into the graph's output list.
        index: usize,
        /// Violated invariant.
        what: String,
    },
    /// A schedule is illegal for its geometry.
    Schedule {
        /// Geometry the schedule targets.
        geometry: SramGeometry,
        /// Violated invariant.
        what: String,
    },
    /// A lowered command stream violates the sync protocol or bank bounds.
    Stream {
        /// Index of the offending command.
        index: usize,
        /// Violated invariant.
        what: String,
    },
    /// JIT lowering itself rejected the region.
    Lower(RuntimeError),
    /// A multi-kernel pipeline graph or its residency plan is ill-formed.
    Pipeline {
        /// Violated invariant.
        what: String,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Graph { node, what } => write!(f, "tDFG node {node}: {what}"),
            CheckError::Output { index, what } => write!(f, "tDFG output {index}: {what}"),
            CheckError::Schedule { geometry, what } => {
                write!(f, "schedule for {geometry}: {what}")
            }
            CheckError::Stream { index, what } => write!(f, "command {index}: {what}"),
            CheckError::Lower(e) => write!(f, "JIT lowering failed: {e}"),
            CheckError::Pipeline { what } => write!(f, "pipeline graph: {what}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<RuntimeError> for CheckError {
    fn from(e: RuntimeError) -> Self {
        CheckError::Lower(e)
    }
}

/// Mirror of the builder's region-containment rule: a lattice region, offset
/// into array coordinates, must lie within the array's bounds, and lattice
/// dimensions beyond the array's rank must map to the degenerate range
/// `[0, 1)`.
fn region_in_array(rect: &HyperRect, offset: &[i64], decl: &ArrayDecl) -> Result<(), String> {
    if offset.len() != rect.ndim() {
        return Err(format!(
            "offset rank {} does not match region rank {}",
            offset.len(),
            rect.ndim()
        ));
    }
    for (d, &off) in offset.iter().enumerate() {
        let (p, q) = rect.interval(d);
        let (ap, aq) = (p + off, q + off);
        if d < decl.ndim() {
            if ap < 0 || aq as u64 > decl.shape[d] || aq < ap {
                return Err(format!(
                    "region [{ap}, {aq}) escapes array dimension {d} of extent {}",
                    decl.shape[d]
                ));
            }
        } else if ap != 0 || aq != 1 {
            return Err(format!(
                "dummy dimension {d} maps to [{ap}, {aq}) instead of [0, 1)"
            ));
        }
    }
    Ok(())
}

/// Validates a tDFG that may not have passed through the builder.
///
/// Checks, in order:
///
/// 1. **SSA well-formedness** — every node's inputs refer to strictly earlier
///    nodes; array references resolve; rect ranks match the lattice rank;
///    compute arity matches the op; `mv`/`bc`/`shrink`/`reduce` dimensions are
///    in range.
/// 2. **Domain/lattice alignment** — every node's domain is recomputed from
///    its operands exactly as the builder computes it (broadcast sources must
///    be thin, moved/broadcast data clips to the stored bounding rectangle,
///    shrinks must not empty the interval) and must equal the stored domain
///    bit for bit.
/// 3. **Output legality** — array outputs stay inside their arrays and are
///    covered by the producing node's domain; scalar outputs are
///    single-element; stream outputs are finite.
///
/// # Errors
///
/// The first violated invariant as a [`CheckError::Graph`] or
/// [`CheckError::Output`].
pub fn validate_graph(g: &Tdfg) -> Result<(), CheckError> {
    let n = g.nodes().len();
    let ndim = g.ndim();
    let mut domains: Vec<Option<HyperRect>> = Vec::with_capacity(n);
    for (i, node) in g.nodes().iter().enumerate() {
        let gerr = |what: String| CheckError::Graph {
            node: i as u32,
            what,
        };
        for input in node.inputs() {
            if input.0 as usize >= i {
                return Err(gerr(format!(
                    "input node {} breaks SSA def-before-use order",
                    input.0
                )));
            }
        }
        let dim_ok = |dim: usize| -> Result<(), CheckError> {
            if dim >= ndim {
                Err(gerr(format!(
                    "dimension {dim} out of range for rank-{ndim} lattice"
                )))
            } else {
                Ok(())
            }
        };
        let finite = |d: &Option<HyperRect>| -> Result<HyperRect, CheckError> {
            d.clone()
                .ok_or_else(|| gerr("operates on an unbounded (constant/param) value".into()))
        };
        let dom: Option<HyperRect> = match node {
            Node::Input {
                array,
                rect,
                array_offset,
            } => {
                if rect.ndim() != ndim {
                    return Err(gerr(format!(
                        "input rect rank {} does not match lattice rank {ndim}",
                        rect.ndim()
                    )));
                }
                let decl = g
                    .arrays()
                    .get(array.0 as usize)
                    .ok_or_else(|| gerr(format!("references undeclared array {array}")))?;
                region_in_array(rect, array_offset, decl).map_err(gerr)?;
                Some(rect.clone())
            }
            Node::ConstVal { .. } | Node::Param { .. } => None,
            Node::Compute { op, inputs } => {
                if inputs.len() != op.arity() {
                    return Err(gerr(format!(
                        "{op} takes {} inputs, got {}",
                        op.arity(),
                        inputs.len()
                    )));
                }
                let mut acc: Option<HyperRect> = None;
                for x in inputs {
                    if let Some(d) = &domains[x.0 as usize] {
                        acc = Some(match acc {
                            Some(a) => a
                                .intersect(d)
                                .map_err(|e| gerr(e.to_string()))?
                                .ok_or_else(|| gerr("inputs have disjoint domains".into()))?,
                            None => d.clone(),
                        });
                    }
                }
                acc
            }
            Node::Mv { input, dim, dist } => {
                dim_ok(*dim)?;
                let d = finite(&domains[input.0 as usize])?;
                let moved = d.translated(*dim, *dist).map_err(|e| gerr(e.to_string()))?;
                Some(
                    moved
                        .intersect(g.bounding())
                        .map_err(|e| gerr(e.to_string()))?
                        .ok_or_else(|| gerr("mv leaves the bounding rectangle".into()))?,
                )
            }
            Node::Bc {
                input,
                dim,
                dist,
                count,
            } => {
                dim_ok(*dim)?;
                let d = finite(&domains[input.0 as usize])?;
                if d.extent(*dim) != 1 {
                    return Err(gerr(format!(
                        "broadcast source spans {} cells along dimension {dim}, must be thin",
                        d.extent(*dim)
                    )));
                }
                let hi = i64::try_from(*count)
                    .ok()
                    .and_then(|c| dist.checked_add(c))
                    .ok_or_else(|| gerr(format!("broadcast count {count} overflows")))?;
                let spread = d
                    .with_interval(*dim, *dist, hi)
                    .map_err(|e| gerr(e.to_string()))?;
                Some(
                    spread
                        .intersect(g.bounding())
                        .map_err(|e| gerr(e.to_string()))?
                        .ok_or_else(|| gerr("bc leaves the bounding rectangle".into()))?,
                )
            }
            Node::Shrink { input, dim, p, q } => {
                dim_ok(*dim)?;
                let d = finite(&domains[input.0 as usize])?;
                let (ip, iq) = d.interval(*dim);
                let (np, nq) = ((*p).max(ip), (*q).min(iq));
                if np >= nq {
                    return Err(gerr(format!("shrink to [{p}, {q}) empties the domain")));
                }
                Some(
                    d.with_interval(*dim, np, nq)
                        .map_err(|e| gerr(e.to_string()))?,
                )
            }
            Node::Reduce { input, dim, .. } => {
                dim_ok(*dim)?;
                let d = finite(&domains[input.0 as usize])?;
                let s = d.start(*dim);
                Some(
                    d.with_interval(*dim, s, s + 1)
                        .map_err(|e| gerr(e.to_string()))?,
                )
            }
            Node::StreamIn { rect, .. } => {
                if rect.ndim() != ndim {
                    return Err(gerr(format!(
                        "stream rect rank {} does not match lattice rank {ndim}",
                        rect.ndim()
                    )));
                }
                Some(rect.clone())
            }
        };
        if let Some(r) = &dom {
            if r.is_empty() {
                return Err(gerr("domain is empty".into()));
            }
        }
        if dom.as_ref() != g.domain(NodeId(i as u32)) {
            return Err(gerr(format!(
                "stored domain {:?} disagrees with recomputed domain {:?}",
                g.domain(NodeId(i as u32)),
                dom
            )));
        }
        domains.push(dom);
    }

    for (oi, out) in g.outputs().iter().enumerate() {
        let oerr = |what: String| CheckError::Output { index: oi, what };
        if out.node.0 as usize >= n {
            return Err(oerr(format!(
                "references node {} the graph does not have",
                out.node.0
            )));
        }
        let dom = &domains[out.node.0 as usize];
        match &out.target {
            OutputTarget::Array {
                array,
                rect,
                array_offset,
            } => {
                let decl = g
                    .arrays()
                    .get(array.0 as usize)
                    .ok_or_else(|| oerr(format!("writes undeclared array {array}")))?;
                region_in_array(rect, array_offset, decl).map_err(oerr)?;
                match dom {
                    Some(d) if d.contains_rect(rect) => {}
                    Some(d) => {
                        return Err(oerr(format!(
                            "output region {rect:?} is not covered by the producing domain {d:?}"
                        )))
                    }
                    None => {} // constant tensors cover everything
                }
            }
            OutputTarget::Scalar { .. } => match dom {
                Some(d) if d.num_elements() == 1 => {}
                Some(d) => {
                    return Err(oerr(format!(
                        "scalar output has {}-element domain",
                        d.num_elements()
                    )))
                }
                None => return Err(oerr("scalar output of an unbounded value".into())),
            },
            OutputTarget::Stream { .. } => {
                if dom.is_none() {
                    return Err(oerr("stream output of an unbounded value".into()));
                }
            }
        }
    }
    Ok(())
}

/// Validates a schedule against its graph and geometry.
///
/// Checks:
///
/// * the order is a permutation of the graph's nodes and respects every
///   def-use dependence (topological legality);
/// * array-backed and alias nodes (`input`, `stream_in`, `shrink`) hold no
///   wordline register, every other node holds one in range;
/// * the wordline budget is consistent: the array band is exactly
///   `used_arrays × element_bits` wordlines, register bands sit strictly above
///   it, and `array band + num_regs × element_bits` fits the geometry — so
///   register bands can never overlap array bands;
/// * every array the region touches has a wordline band, with no duplicates;
/// * live ranges of values sharing a register are disjoint: a value produced
///   at schedule step `p` occupies its register through its last consumer (or
///   to the end of the region if it is an output).
///
/// # Errors
///
/// The first violated invariant as a [`CheckError::Schedule`].
pub fn validate_schedule(g: &Tdfg, s: &Schedule) -> Result<(), CheckError> {
    let serr = |what: String| CheckError::Schedule {
        geometry: s.geometry,
        what,
    };
    let n = g.nodes().len();
    let bits = g.dtype().bits();

    // Order: permutation + topological.
    if s.order.len() != n {
        return Err(serr(format!(
            "order has {} entries for a {n}-node graph",
            s.order.len()
        )));
    }
    let mut pos = vec![usize::MAX; n];
    for (step, id) in s.order.iter().enumerate() {
        let i = id.0 as usize;
        if i >= n {
            return Err(serr(format!(
                "order references node {} the graph does not have",
                id.0
            )));
        }
        if pos[i] != usize::MAX {
            return Err(serr(format!("node {} scheduled twice", id.0)));
        }
        pos[i] = step;
    }
    for (i, node) in g.nodes().iter().enumerate() {
        for input in node.inputs() {
            if input.0 as usize >= n {
                return Err(serr(format!(
                    "node {i} reads node {} the graph does not have",
                    input.0
                )));
            }
            if pos[input.0 as usize] >= pos[i] {
                return Err(serr(format!(
                    "node {i} is scheduled before its input {}",
                    input.0
                )));
            }
        }
    }

    // Wordline bands: arrays below, registers above, both inside the geometry.
    let mut touched: Vec<infs_sdfg::ArrayId> = Vec::new();
    for node in g.nodes() {
        if let Node::Input { array, .. } = node {
            if !touched.contains(array) {
                touched.push(*array);
            }
        }
    }
    for out in g.outputs() {
        if let OutputTarget::Array { array, .. } = &out.target {
            if !touched.contains(array) {
                touched.push(*array);
            }
        }
    }
    for (i, a) in s.used_arrays.iter().enumerate() {
        if s.used_arrays[..i].contains(a) {
            return Err(serr(format!("array {a} has two wordline bands")));
        }
    }
    for a in &touched {
        if !s.used_arrays.contains(a) {
            return Err(serr(format!(
                "array {a} is touched by the region but has no wordline band"
            )));
        }
    }
    if s.arrays_wordlines != s.used_arrays.len() as u32 * bits {
        return Err(serr(format!(
            "array band of {} wordlines inconsistent with {} arrays of {bits}-bit elements",
            s.arrays_wordlines,
            s.used_arrays.len()
        )));
    }
    if s.arrays_wordlines + s.num_regs * bits > s.geometry.wordlines {
        return Err(serr(format!(
            "{} array wordlines + {} registers of {bits} wordlines exceed the {}-wordline array",
            s.arrays_wordlines, s.num_regs, s.geometry.wordlines
        )));
    }
    if s.max_live > s.num_regs {
        return Err(serr(format!(
            "claims {} simultaneously-live values in {} registers",
            s.max_live, s.num_regs
        )));
    }

    // Register assignment and live-range disjointness.
    if s.reg_of_node.len() != n {
        return Err(serr(format!(
            "register map has {} entries for a {n}-node graph",
            s.reg_of_node.len()
        )));
    }
    // Death step of each node's value, in schedule positions: its last
    // consumer, or the end of the region for outputs, and at least one step
    // past its definition.
    let mut death = vec![0usize; n];
    for (i, node) in g.nodes().iter().enumerate() {
        death[i] = pos[i] + 1;
        for input in node.inputs() {
            let x = input.0 as usize;
            death[x] = death[x].max(pos[i].max(pos[x] + 1));
        }
    }
    for out in g.outputs() {
        death[out.node.0 as usize] = n;
    }
    // intervals[r] = list of (start, death) occupations of register r.
    let mut intervals: Vec<Vec<(usize, usize)>> = vec![Vec::new(); s.num_regs as usize];
    for (i, node) in g.nodes().iter().enumerate() {
        let alias = matches!(
            node,
            Node::Input { .. } | Node::StreamIn { .. } | Node::Shrink { .. }
        );
        match (alias, s.reg_of_node[i]) {
            (true, Some(_)) => {
                return Err(serr(format!(
                    "array-backed/alias node {i} must not hold a wordline register"
                )))
            }
            (false, None) => {
                return Err(serr(format!(
                    "value-producing node {i} holds no wordline register"
                )))
            }
            (false, Some(r)) if r.0 >= s.num_regs => {
                return Err(serr(format!(
                    "node {i} holds register {} of {}",
                    r.0, s.num_regs
                )));
            }
            (false, Some(r)) => intervals[r.0 as usize].push((pos[i], death[i])),
            (true, None) => {}
        }
    }
    for (r, ivs) in intervals.iter_mut().enumerate() {
        ivs.sort_unstable();
        for w in ivs.windows(2) {
            let ((_, d0), (p1, _)) = (w[0], w[1]);
            if p1 < d0 {
                return Err(serr(format!(
                    "register {r} holds two live values at once (steps {p1} < {d0})"
                )));
            }
        }
    }
    Ok(())
}

/// Validates a lowered command stream against the §5.2 sync protocol and the
/// machine's bank count.
///
/// After an inter-tile shift or broadcast with remote (NoC) transfers, a
/// `sync` barrier must be observed before any dependent compute or final
/// reduction executes — the lowerer inserts one before the next
/// compute-class command, and this check rejects streams where it is missing
/// or misordered. All bank references must address existing banks.
///
/// # Errors
///
/// The first violated invariant as a [`CheckError::Stream`].
pub fn validate_stream(cs: &CommandStream, n_banks: u32) -> Result<(), CheckError> {
    let mut pending_remote = false;
    for (i, cmd) in cs.cmds.iter().enumerate() {
        let cerr = |what: String| CheckError::Stream { index: i, what };
        for load in cmd.banks() {
            if load.bank >= n_banks {
                return Err(cerr(format!("addresses bank {} of {n_banks}", load.bank)));
            }
        }
        match cmd {
            InfCommand::InterShift { remote, .. } | InfCommand::Broadcast { remote, .. } => {
                for t in remote {
                    if t.src_bank >= n_banks || t.dst_bank >= n_banks {
                        return Err(cerr(format!(
                            "remote transfer {} -> {} escapes {n_banks} banks",
                            t.src_bank, t.dst_bank
                        )));
                    }
                }
                if !remote.is_empty() {
                    pending_remote = true;
                }
            }
            InfCommand::Compute { .. } | InfCommand::FinalReduce { .. } => {
                if pending_remote {
                    return Err(cerr(
                        "computes on data from an inter-tile transfer that was never synced".into(),
                    ));
                }
            }
            InfCommand::Sync => pending_remote = false,
            InfCommand::IntraShift { .. } => {}
        }
    }
    Ok(())
}

/// Validates everything a region instance claims: its tDFG (if present), every
/// schedule it carries, and — when the machine's geometry has a schedule and a
/// feasible layout — the actually-lowered command stream.
///
/// An infeasible tiling is *not* an error (the simulator legally falls back to
/// near-memory/core execution), but a lowering failure on a feasible layout
/// is.
///
/// # Errors
///
/// The first violated invariant.
pub fn validate_region(
    region: &infs_isa::RegionInstance,
    cfg: &SystemConfig,
) -> Result<(), CheckError> {
    let Some(g) = &region.tdfg else {
        return Ok(());
    };
    validate_graph(g)?;
    for s in &region.schedules {
        validate_schedule(g, s)?;
    }
    if let Some(s) = region.schedule_for(cfg.geometry) {
        let hw = cfg.hw();
        if let Ok(layout) = TransposedLayout::plan(g, &g.layout_hints(), &hw) {
            let stream = lower(g, s, &layout, &hw)?;
            validate_stream(&stream, hw.n_banks)?;
        }
    }
    Ok(())
}

/// Validates a multi-kernel pipeline graph *and* the residency plan it
/// implies on the given machine configuration.
///
/// Three layers, mirroring the trust boundary of [`validate_graph`] — graphs
/// arrive over the serve wire as JSON and deserialization bypasses the
/// builder entirely:
///
/// 1. **Structure** ([`infs_pipeline::PipelineGraph::validate`]): one shared
///    tensor table (which is what makes every edge shape/dtype-consistent),
///    derived read/write edge lists that agree with the kernels, a single
///    producer per tensor, and producer-before-consumer stage order.
/// 2. **Capacity**: the residency plan exists (no stage's working set exceeds
///    the L3 compute ways) and its peak occupancy fits the configuration.
/// 3. **Liveness**: no stage uses an intermediate the plan already released
///    for good. A tensor evicted as *dead* must never reappear in a later
///    stage's working set (a *spilled* tensor may — it re-enters cold, which
///    the planner records and the scheduler re-stages).
///
/// # Errors
///
/// [`CheckError::Pipeline`] naming the violated layer and rule.
pub fn validate_pipeline(
    g: &infs_pipeline::PipelineGraph,
    cfg: &SystemConfig,
) -> Result<(), CheckError> {
    let fail = |what: String| Err(CheckError::Pipeline { what });
    g.validate().map_err(|e| CheckError::Pipeline {
        what: e.to_string(),
    })?;
    let capacity = cfg.compute_capacity_bytes();
    let plan = infs_pipeline::plan_residency(g, capacity).map_err(|e| CheckError::Pipeline {
        what: e.to_string(),
    })?;
    if plan.peak_bytes() > capacity {
        return fail(format!(
            "plan peak occupancy {} exceeds L3 compute capacity {capacity}",
            plan.peak_bytes()
        ));
    }
    if plan.stages.len() != g.stages.len() {
        return fail(format!(
            "plan has {} stages, graph has {}",
            plan.stages.len(),
            g.stages.len()
        ));
    }
    for (k, (st, sp)) in g.stages.iter().zip(&plan.stages).enumerate() {
        if sp.stage != st.name {
            return fail(format!(
                "plan stage {k} is '{}', graph stage is '{}'",
                sp.stage, st.name
            ));
        }
        if sp.resident != st.working_set() {
            return fail(format!(
                "stage '{}' plans residency {:?} but its working set is {:?}",
                st.name,
                sp.resident,
                st.working_set()
            ));
        }
    }
    // Liveness replay: an eviction is *dead* (not a spill) unless the next
    // stage records it as spilled. Dead tensors must stay dead.
    for (k, sp) in plan.stages.iter().enumerate() {
        for &t in &sp.evict {
            let respilled = plan
                .stages
                .get(k + 1)
                .is_some_and(|next| next.spilled.contains(&t));
            if respilled {
                continue;
            }
            if let Some(user) = g.stages[k + 1..]
                .iter()
                .find(|st| st.working_set().contains(&t))
            {
                return fail(format!(
                    "stage '{}' uses tensor {t} ('{}') after the plan evicted \
                     it as dead at stage '{}'",
                    user.name, g.tensors[t as usize].name, sp.stage
                ));
            }
        }
    }
    Ok(())
}

/// A [`RegionAuditor`] that runs [`validate_region`] on every region the
/// simulator executes. Install with
/// [`Machine::set_region_auditor`](infs_sim::Machine::set_region_auditor) to
/// reject malformed regions at the door instead of executing them.
pub fn auditor() -> RegionAuditor {
    RegionAuditor::new(|region, cfg| validate_region(region, cfg).map_err(|e| e.to_string()))
}
