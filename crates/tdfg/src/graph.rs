use crate::{ComputeOp, Node, NodeId, TdfgError};
use infs_geom::HyperRect;
use infs_sdfg::{ArrayDecl, ArrayId, DataType, ReduceOp, StreamId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Where an output tensor (or scalar) of a region goes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OutputTarget {
    /// Write the node's values back into an array region (a store; lattice cell
    /// `x` writes array coordinate `x + array_offset`).
    Array {
        /// Destination array.
        array: ArrayId,
        /// Lattice region written (must be covered by the node's domain).
        rect: HyperRect,
        /// Per-dimension offset from lattice to array coordinates.
        array_offset: Vec<i64>,
    },
    /// Read the single element of the node's domain as a named scalar result
    /// (e.g. the fully-reduced value of a vector sum).
    Scalar {
        /// Result name.
        name: String,
    },
    /// Hand the tensor to a near-memory stream of the region's sDFG (hybrid
    /// execution, §3.3) — e.g. kmeans' assignment vector consumed by the
    /// indirect centroid-update stream.
    Stream {
        /// Consuming stream.
        stream: StreamId,
    },
}

impl OutputTarget {
    /// Array target with a zero offset (origin-aligned store).
    pub fn array(array: ArrayId, rect: HyperRect) -> Self {
        let nd = rect.ndim();
        OutputTarget::Array {
            array,
            rect,
            array_offset: vec![0; nd],
        }
    }

    /// Named scalar target.
    pub fn scalar(name: impl Into<String>) -> Self {
        OutputTarget::Scalar { name: name.into() }
    }

    /// Stream-consumption target.
    pub fn stream(stream: StreamId) -> Self {
        OutputTarget::Stream { stream }
    }
}

/// One region output: a node and its destination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Output {
    /// Producing node.
    pub node: NodeId,
    /// Destination.
    pub target: OutputTarget,
}

/// A validated tensor dataflow graph.
///
/// Construct with [`TdfgBuilder`]; a built graph is immutable, in SSA order,
/// with a (possibly infinite, `None`) domain rectangle computed for every node
/// and all references checked. See the crate docs for node semantics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tdfg {
    ndim: usize,
    dtype: DataType,
    /// Shared with the kernel and the other graphs lowered from it.
    arrays: Arc<[ArrayDecl]>,
    nodes: Vec<Node>,
    domains: Vec<Option<HyperRect>>,
    outputs: Vec<Output>,
    bounding: HyperRect,
}

impl Tdfg {
    /// Lattice dimensionality of the region.
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// Element type in-memory computation runs at (drives bit-serial latency).
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Arrays declared for the region, indexable by [`ArrayId`].
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// The declared arrays as a shared table: cloning it is a reference
    /// count, not a copy.
    pub fn shared_arrays(&self) -> &Arc<[ArrayDecl]> {
        &self.arrays
    }

    /// Nodes in SSA order, indexable by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// One node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (built graphs contain no dangling ids).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Domain of a node: `Some(rect)` for finite tensors, `None` for the
    /// infinite constant/parameter tensors. Out-of-range ids (possible only in
    /// hand-built or deserialized graphs) also answer `None` so downstream
    /// consumers can reject them with a typed error instead of panicking.
    pub fn domain(&self, id: NodeId) -> Option<&HyperRect> {
        self.domains.get(id.0 as usize)?.as_ref()
    }

    /// Region outputs.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// The global bounding hyperrectangle: the minimal rectangle containing all
    /// input and output regions. Data moved or broadcast outside it is
    /// discarded (§3.2).
    pub fn bounding(&self) -> &HyperRect {
        &self.bounding
    }

    /// This graph's nodes with other outputs, validated afresh by
    /// [`TdfgBuilder::build`] (domains and the bounding box follow the new
    /// outputs' targets).
    ///
    /// # Errors
    ///
    /// See [`TdfgBuilder::build`].
    pub fn with_outputs(&self, outputs: Vec<Output>) -> Result<Tdfg, TdfgError> {
        TdfgBuilder {
            ndim: self.ndim,
            dtype: self.dtype,
            arrays: self.arrays.clone(),
            nodes: self.nodes.clone(),
            outputs,
        }
        .build()
    }

    /// Number of runtime parameters the graph references (max index + 1).
    pub fn param_count(&self) -> u32 {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Param { index } => Some(index + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Ids of all `StreamIn` nodes (tensors the near-memory side must produce
    /// before in-memory execution starts).
    pub fn stream_inputs(&self) -> Vec<(NodeId, StreamId)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n {
                Node::StreamIn { stream, .. } => Some((NodeId(i as u32), *stream)),
                _ => None,
            })
            .collect()
    }

    /// A structural signature of everything that determines the JIT-lowered
    /// command stream: nodes, domains and dtype — but *not* output targets
    /// (stores are handled by streams, not bit-serial commands). Regions that
    /// differ only in where results are stored (e.g. successive matmul rows)
    /// share a signature and therefore hit the JIT memoization cache.
    pub fn command_signature(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        format!("{:?}", self.dtype).hash(&mut h);
        format!("{:?}", self.nodes).hash(&mut h);
        format!("{:?}", self.domains).hash(&mut h);
        h.finish()
    }

    /// A *shape-polymorphic* signature: everything [`command_signature`]
    /// captures **except** the concrete geometry. Node kinds, operator
    /// choices, SSA wiring, dtype and domain *presence* are folded in; rect
    /// coordinates, shift distances, broadcast extents and per-dimension
    /// choices are not — those become the slot table of a relocatable command
    /// template (§4.2 extension). Two instances of the same kernel at
    /// different symbolic offsets (e.g. successive Gaussian-elimination
    /// pivots, or a convolution's nine sliding taps) share a structural
    /// signature while their `command_signature`s differ.
    ///
    /// Array and stream ids are deliberately excluded: command emission is
    /// pure lattice-space (which physical array feeds a tensor never reaches
    /// the bit-serial command stream), so ping-pong buffered phases also
    /// share a signature.
    ///
    /// [`command_signature`]: Tdfg::command_signature
    pub fn structural_signature(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.ndim.hash(&mut h);
        format!("{:?}", self.dtype).hash(&mut h);
        for (i, n) in self.nodes.iter().enumerate() {
            self.domains[i].is_some().hash(&mut h);
            match n {
                Node::Input { .. } => 0u8.hash(&mut h),
                Node::ConstVal { .. } => 1u8.hash(&mut h),
                Node::Param { .. } => 2u8.hash(&mut h),
                Node::Compute { op, inputs } => {
                    3u8.hash(&mut h);
                    op.hash(&mut h);
                    inputs.hash(&mut h);
                }
                Node::Mv { input, .. } => {
                    4u8.hash(&mut h);
                    input.hash(&mut h);
                }
                Node::Bc { input, .. } => {
                    5u8.hash(&mut h);
                    input.hash(&mut h);
                }
                Node::Shrink { input, .. } => {
                    6u8.hash(&mut h);
                    input.hash(&mut h);
                }
                Node::Reduce { input, dim: _, op } => {
                    7u8.hash(&mut h);
                    input.hash(&mut h);
                    format!("{op:?}").hash(&mut h);
                }
                Node::StreamIn { .. } => 8u8.hash(&mut h),
            }
        }
        h.finish()
    }

    /// The primary array of the region for tiling purposes (§4.1): the first
    /// array written by an array output, falling back to the first input array.
    pub fn primary_array(&self) -> Option<ArrayId> {
        for out in &self.outputs {
            if let OutputTarget::Array { array, .. } = out.target {
                return Some(array);
            }
        }
        self.nodes.iter().find_map(|n| match n {
            Node::Input { array, .. } => Some(*array),
            _ => None,
        })
    }
}

impl fmt::Display for Tdfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tdfg ndim={} dtype={} bounding={}",
            self.ndim, self.dtype, self.bounding
        )?;
        for (i, n) in self.nodes.iter().enumerate() {
            let dom = match &self.domains[i] {
                Some(r) => r.to_string(),
                None => "inf".to_string(),
            };
            write!(f, "  %{i} = ")?;
            match n {
                Node::Input {
                    array,
                    rect,
                    array_offset,
                } => write!(f, "tensor {array} {rect} off={array_offset:?}")?,
                Node::ConstVal { value } => write!(f, "const {value}")?,
                Node::Param { index } => write!(f, "param #{index}")?,
                Node::Compute { op, inputs } => {
                    write!(f, "cmp {op}")?;
                    for x in inputs {
                        write!(f, " {x}")?;
                    }
                }
                Node::Mv { input, dim, dist } => write!(f, "mv {input} dim={dim} dist={dist}")?,
                Node::Bc {
                    input,
                    dim,
                    dist,
                    count,
                } => write!(f, "bc {input} dim={dim} dist={dist} count={count}")?,
                Node::Shrink { input, dim, p, q } => {
                    write!(f, "shrink {input} dim={dim} [{p},{q})")?
                }
                Node::Reduce { input, dim, op } => write!(f, "reduce {input} dim={dim} op={op}")?,
                Node::StreamIn { stream, rect } => write!(f, "strm {stream} {rect}")?,
            }
            writeln!(f, "  : {dom}")?;
        }
        for out in &self.outputs {
            match &out.target {
                OutputTarget::Array { array, rect, .. } => {
                    writeln!(f, "  store {} -> {array} {rect}", out.node)?
                }
                OutputTarget::Scalar { name } => writeln!(f, "  scalar {} -> {name}", out.node)?,
                OutputTarget::Stream { stream } => {
                    writeln!(f, "  to-stream {} -> {stream}", out.node)?
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`Tdfg`] graphs.
///
/// Node-insertion methods perform local checks (arity, dimension ranges,
/// reference validity) eagerly; domain computation and whole-graph checks run
/// in [`build`](Self::build). See the crate-level example.
#[derive(Debug, Clone)]
pub struct TdfgBuilder {
    ndim: usize,
    dtype: DataType,
    arrays: Arc<[ArrayDecl]>,
    nodes: Vec<Node>,
    outputs: Vec<Output>,
}

impl TdfgBuilder {
    /// Starts a graph over an `ndim`-dimensional lattice computing in `dtype`.
    pub fn new(ndim: usize, dtype: DataType) -> Self {
        TdfgBuilder {
            ndim,
            dtype,
            arrays: Arc::new([]),
            nodes: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Declares an array and returns its id.
    pub fn declare_array(&mut self, decl: ArrayDecl) -> ArrayId {
        let mut arrays = self.arrays.to_vec();
        arrays.push(decl);
        self.arrays = arrays.into();
        ArrayId(self.arrays.len() as u32 - 1)
    }

    /// Adopts shared array declarations wholesale (ids are positions); a
    /// shared table is adopted without a copy.
    pub fn set_arrays(&mut self, decls: impl Into<Arc<[ArrayDecl]>>) {
        self.arrays = decls.into();
    }

    fn push(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() as u32 - 1)
    }

    fn check_ref(&self, id: NodeId) -> Result<(), TdfgError> {
        if (id.0 as usize) < self.nodes.len() {
            Ok(())
        } else {
            Err(TdfgError::UnknownNode(id))
        }
    }

    fn check_dim(&self, dim: usize) -> Result<(), TdfgError> {
        if dim < self.ndim {
            Ok(())
        } else {
            Err(TdfgError::DimOutOfRange {
                node: NodeId(self.nodes.len() as u32),
                dim,
                ndim: self.ndim,
            })
        }
    }

    /// Adds an origin-aligned input tensor over a region of `array`.
    ///
    /// # Errors
    ///
    /// Returns an error for an undeclared array or a rectangle of the wrong rank.
    pub fn input(&mut self, array: ArrayId, rect: HyperRect) -> Result<NodeId, TdfgError> {
        let nd = rect.ndim();
        self.input_at(array, rect, vec![0; nd])
    }

    /// Adds an input tensor whose lattice cells map to `array` coordinates with
    /// a per-dimension offset (`array coord = lattice coord + offset`).
    ///
    /// # Errors
    ///
    /// Returns an error for an undeclared array or a rectangle of the wrong rank.
    pub fn input_at(
        &mut self,
        array: ArrayId,
        rect: HyperRect,
        array_offset: Vec<i64>,
    ) -> Result<NodeId, TdfgError> {
        let node = NodeId(self.nodes.len() as u32);
        if array.0 as usize >= self.arrays.len() {
            return Err(TdfgError::UnknownArray(array));
        }
        if rect.ndim() != self.ndim || array_offset.len() != self.ndim {
            return Err(TdfgError::RankMismatch {
                node,
                got: rect.ndim(),
                ndim: self.ndim,
            });
        }
        Ok(self.push(Node::Input {
            array,
            rect,
            array_offset,
        }))
    }

    /// Adds an infinite constant tensor.
    pub fn constant(&mut self, value: f32) -> NodeId {
        self.push(Node::ConstVal { value })
    }

    /// Adds an infinite runtime-parameter tensor.
    pub fn param(&mut self, index: u32) -> NodeId {
        self.push(Node::Param { index })
    }

    /// Adds an element-wise compute node.
    ///
    /// # Errors
    ///
    /// Returns [`TdfgError::BadArity`] if `inputs.len() != op.arity()` and
    /// [`TdfgError::UnknownNode`] for dangling references.
    pub fn compute(&mut self, op: ComputeOp, inputs: &[NodeId]) -> Result<NodeId, TdfgError> {
        let node = NodeId(self.nodes.len() as u32);
        if inputs.len() != op.arity() {
            return Err(TdfgError::BadArity {
                node,
                expected: op.arity(),
                got: inputs.len(),
            });
        }
        for &i in inputs {
            self.check_ref(i)?;
        }
        Ok(self.push(Node::Compute {
            op,
            inputs: inputs.to_vec(),
        }))
    }

    /// Adds a move (shift) node.
    ///
    /// # Errors
    ///
    /// Returns an error for a dangling reference or out-of-range dimension.
    pub fn mv(&mut self, input: NodeId, dim: usize, dist: i64) -> Result<NodeId, TdfgError> {
        self.check_ref(input)?;
        self.check_dim(dim)?;
        Ok(self.push(Node::Mv { input, dim, dist }))
    }

    /// Adds a broadcast node placing `count` copies at `[dist, dist+count)` of
    /// dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns an error for a dangling reference or out-of-range dimension; the
    /// unit-extent requirement on the input is checked at [`build`](Self::build).
    pub fn bc(
        &mut self,
        input: NodeId,
        dim: usize,
        dist: i64,
        count: u64,
    ) -> Result<NodeId, TdfgError> {
        self.check_ref(input)?;
        self.check_dim(dim)?;
        Ok(self.push(Node::Bc {
            input,
            dim,
            dist,
            count,
        }))
    }

    /// Adds a shrink node restricting dimension `dim` to `[p, q)`.
    ///
    /// # Errors
    ///
    /// Returns an error for a dangling reference or out-of-range dimension.
    pub fn shrink(
        &mut self,
        input: NodeId,
        dim: usize,
        p: i64,
        q: i64,
    ) -> Result<NodeId, TdfgError> {
        self.check_ref(input)?;
        self.check_dim(dim)?;
        Ok(self.push(Node::Shrink { input, dim, p, q }))
    }

    /// Adds a reduction node collapsing dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns an error for a dangling reference or out-of-range dimension.
    pub fn reduce(&mut self, input: NodeId, dim: usize, op: ReduceOp) -> Result<NodeId, TdfgError> {
        self.check_ref(input)?;
        self.check_dim(dim)?;
        Ok(self.push(Node::Reduce { input, dim, op }))
    }

    /// Adds a stream-produced tensor (hybrid regions).
    ///
    /// # Errors
    ///
    /// Returns an error if the rectangle's rank does not match the lattice.
    pub fn stream_in(&mut self, stream: StreamId, rect: HyperRect) -> Result<NodeId, TdfgError> {
        if rect.ndim() != self.ndim {
            return Err(TdfgError::RankMismatch {
                node: NodeId(self.nodes.len() as u32),
                got: rect.ndim(),
                ndim: self.ndim,
            });
        }
        Ok(self.push(Node::StreamIn { stream, rect }))
    }

    /// Registers a region output.
    pub fn output(&mut self, node: NodeId, target: OutputTarget) {
        self.outputs.push(Output { node, target });
    }

    /// Validates the graph, computes all domains, and freezes it.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: dangling references, rank and
    /// dimension mismatches, inputs escaping their arrays, empty domains,
    /// non-thin broadcasts, and uncovered or non-scalar outputs.
    pub fn build(self) -> Result<Tdfg, TdfgError> {
        let TdfgBuilder {
            ndim,
            dtype,
            arrays,
            nodes,
            outputs,
        } = self;

        // Global bounding rectangle: the minimal one containing all *involved
        // data structures* (§3.2) — i.e. the full lattice boxes of referenced
        // arrays, not merely the touched sub-regions; data moved or broadcast
        // beyond it is discarded.
        let mut bounding: Option<HyperRect> = None;
        let mut extend = |r: &HyperRect| -> Result<(), TdfgError> {
            bounding = Some(match bounding.take() {
                Some(b) => b.bounding(r)?,
                None => r.clone(),
            });
            Ok(())
        };
        // Lattice box of one referenced array: dimensions within its rank span
        // [0, S_d) shifted by the lattice offset; dummy dimensions span [0, 1).
        let array_box = |array: &ArrayId, offset: &[i64]| -> Result<HyperRect, TdfgError> {
            let decl = arrays
                .get(array.0 as usize)
                .ok_or(TdfgError::UnknownArray(*array))?;
            let intervals = (0..ndim)
                .map(|d| {
                    let off = offset.get(d).copied().unwrap_or(0);
                    if d < decl.ndim() {
                        (-off, decl.shape[d] as i64 - off)
                    } else {
                        (0, 1)
                    }
                })
                .collect();
            HyperRect::new(intervals).map_err(TdfgError::from)
        };
        for n in &nodes {
            match n {
                Node::Input {
                    array,
                    array_offset,
                    ..
                } => extend(&array_box(array, array_offset)?)?,
                Node::StreamIn { rect, .. } => extend(rect)?,
                _ => {}
            }
        }
        for out in &outputs {
            if let OutputTarget::Array {
                array,
                array_offset,
                ..
            } = &out.target
            {
                extend(&array_box(array, array_offset)?)?;
            }
        }
        let bounding = bounding.unwrap_or_else(|| {
            HyperRect::new(vec![(0, 0); ndim]).expect("zero rectangle is valid")
        });

        // Domains in SSA order.
        let mut domains: Vec<Option<HyperRect>> = Vec::with_capacity(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            let get = |x: &NodeId| -> &Option<HyperRect> { &domains[x.0 as usize] };
            let dom: Option<HyperRect> = match n {
                Node::Input {
                    array,
                    rect,
                    array_offset,
                } => {
                    let decl = arrays
                        .get(array.0 as usize)
                        .ok_or(TdfgError::UnknownArray(*array))?;
                    check_region_in_array(rect, array_offset, decl).map_err(|_| {
                        TdfgError::InputOutOfArray {
                            node: id,
                            array: *array,
                        }
                    })?;
                    Some(rect.clone())
                }
                Node::ConstVal { .. } | Node::Param { .. } => None,
                Node::Compute { inputs, .. } => {
                    let mut acc: Option<HyperRect> = None;
                    for x in inputs {
                        if let Some(d) = get(x) {
                            acc = Some(match acc {
                                Some(a) => a.intersect(d)?.ok_or(TdfgError::EmptyDomain(id))?,
                                None => d.clone(),
                            });
                        }
                    }
                    acc
                }
                Node::Mv { input, dim, dist } => {
                    let d = get(input).as_ref().ok_or(TdfgError::UnboundedValue(id))?;
                    let moved = d.translated(*dim, *dist)?;
                    Some(
                        moved
                            .intersect(&bounding)?
                            .ok_or(TdfgError::EmptyDomain(id))?,
                    )
                }
                Node::Bc {
                    input,
                    dim,
                    dist,
                    count,
                } => {
                    let d = get(input).as_ref().ok_or(TdfgError::UnboundedValue(id))?;
                    if d.extent(*dim) != 1 {
                        return Err(TdfgError::BroadcastNotThin(id));
                    }
                    let spread = d.with_interval(*dim, *dist, *dist + *count as i64)?;
                    Some(
                        spread
                            .intersect(&bounding)?
                            .ok_or(TdfgError::EmptyDomain(id))?,
                    )
                }
                Node::Shrink { input, dim, p, q } => {
                    let d = get(input).as_ref().ok_or(TdfgError::UnboundedValue(id))?;
                    let (ip, iq) = d.interval(*dim);
                    let (np, nq) = ((*p).max(ip), (*q).min(iq));
                    if np >= nq {
                        return Err(TdfgError::EmptyDomain(id));
                    }
                    Some(d.with_interval(*dim, np, nq)?)
                }
                Node::Reduce { input, dim, .. } => {
                    let d = get(input).as_ref().ok_or(TdfgError::UnboundedValue(id))?;
                    let s = d.start(*dim);
                    Some(d.with_interval(*dim, s, s + 1)?)
                }
                Node::StreamIn { rect, .. } => Some(rect.clone()),
            };
            if let Some(r) = &dom {
                if r.is_empty() {
                    return Err(TdfgError::EmptyDomain(id));
                }
            }
            domains.push(dom);
        }

        // Output checks.
        for (oi, out) in outputs.iter().enumerate() {
            if out.node.0 as usize >= nodes.len() {
                return Err(TdfgError::UnknownNode(out.node));
            }
            let dom = &domains[out.node.0 as usize];
            match &out.target {
                OutputTarget::Array {
                    array,
                    rect,
                    array_offset,
                } => {
                    let decl = arrays
                        .get(array.0 as usize)
                        .ok_or(TdfgError::UnknownArray(*array))?;
                    check_region_in_array(rect, array_offset, decl)
                        .map_err(|_| TdfgError::OutputNotCovered { output: oi })?;
                    match dom {
                        Some(d) if d.contains_rect(rect) => {}
                        Some(_) => return Err(TdfgError::OutputNotCovered { output: oi }),
                        None => {} // constant tensors cover everything
                    }
                }
                OutputTarget::Scalar { .. } => match dom {
                    Some(d) if d.num_elements() == 1 => {}
                    Some(_) => return Err(TdfgError::ScalarNotSingle { output: oi }),
                    None => return Err(TdfgError::UnboundedValue(out.node)),
                },
                OutputTarget::Stream { .. } => {
                    if dom.is_none() {
                        return Err(TdfgError::UnboundedValue(out.node));
                    }
                }
            }
        }

        Ok(Tdfg {
            ndim,
            dtype,
            arrays,
            nodes,
            domains,
            outputs,
            bounding,
        })
    }
}

/// Checks that a lattice region, offset into array coordinates, lies within the
/// array's bounds. Lattice dimensions beyond the array's rank must map to the
/// degenerate coordinate range `[0, 1)`.
fn check_region_in_array(rect: &HyperRect, offset: &[i64], decl: &ArrayDecl) -> Result<(), ()> {
    if offset.len() != rect.ndim() {
        return Err(());
    }
    #[allow(clippy::needless_range_loop)] // d indexes rect, offset and decl together
    for d in 0..rect.ndim() {
        let (p, q) = rect.interval(d);
        let (ap, aq) = (p + offset[d], q + offset[d]);
        if d < decl.ndim() {
            if ap < 0 || aq as u64 > decl.shape[d] || aq < ap {
                return Err(());
            }
        } else if ap != 0 || aq != 1 {
            return Err(());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(iv: &[(i64, i64)]) -> HyperRect {
        HyperRect::new(iv.to_vec()).unwrap()
    }

    fn one_d() -> (TdfgBuilder, ArrayId) {
        let mut b = TdfgBuilder::new(1, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![8], DataType::F32));
        (b, a)
    }

    #[test]
    fn compute_domain_is_intersection() {
        let (mut b, a) = one_d();
        let x = b.input(a, rect(&[(0, 6)])).unwrap();
        let y = b.input(a, rect(&[(2, 8)])).unwrap();
        let s = b.compute(ComputeOp::Add, &[x, y]).unwrap();
        b.output(s, OutputTarget::array(a, rect(&[(2, 6)])));
        let g = b.build().unwrap();
        assert_eq!(g.domain(s), Some(&rect(&[(2, 6)])));
    }

    #[test]
    fn const_domain_is_infinite() {
        let (mut b, a) = one_d();
        let x = b.input(a, rect(&[(0, 8)])).unwrap();
        let c = b.constant(2.0);
        let m = b.compute(ComputeOp::Mul, &[x, c]).unwrap();
        b.output(m, OutputTarget::array(a, rect(&[(0, 8)])));
        let g = b.build().unwrap();
        assert_eq!(g.domain(c), None);
        assert_eq!(g.domain(m), Some(&rect(&[(0, 8)])));
    }

    #[test]
    fn mv_clips_to_bounding() {
        let (mut b, a) = one_d();
        let x = b.input(a, rect(&[(0, 8)])).unwrap();
        let m = b.mv(x, 0, 3).unwrap();
        b.output(x, OutputTarget::array(a, rect(&[(0, 8)])));
        let g = b.build().unwrap();
        // [3, 11) clipped to bounding [0, 8).
        assert_eq!(g.domain(m), Some(&rect(&[(3, 8)])));
    }

    #[test]
    fn bc_places_copies_absolutely() {
        let mut b = TdfgBuilder::new(2, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![4, 4], DataType::F32));
        let row = b.input_at(a, rect(&[(0, 4), (2, 3)]), vec![0, 0]).unwrap();
        let bcast = b.bc(row, 1, 0, 4).unwrap();
        b.output(bcast, OutputTarget::array(a, rect(&[(0, 4), (0, 4)])));
        let g = b.build().unwrap();
        assert_eq!(g.domain(bcast), Some(&rect(&[(0, 4), (0, 4)])));
    }

    #[test]
    fn bc_requires_unit_extent() {
        let mut b = TdfgBuilder::new(2, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![4, 4], DataType::F32));
        let fat = b.input(a, rect(&[(0, 4), (0, 2)])).unwrap();
        let bad = b.bc(fat, 1, 0, 4).unwrap();
        b.output(bad, OutputTarget::array(a, rect(&[(0, 4), (0, 4)])));
        assert_eq!(b.build().unwrap_err(), TdfgError::BroadcastNotThin(bad));
    }

    #[test]
    fn shrink_intersects_with_input() {
        let (mut b, a) = one_d();
        let x = b.input(a, rect(&[(2, 8)])).unwrap();
        let s = b.shrink(x, 0, 0, 5).unwrap();
        b.output(x, OutputTarget::array(a, rect(&[(2, 8)])));
        let g = b.build().unwrap();
        assert_eq!(g.domain(s), Some(&rect(&[(2, 5)])));
    }

    #[test]
    fn reduce_collapses_dimension() {
        let mut b = TdfgBuilder::new(2, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![4, 4], DataType::F32));
        let x = b.input(a, rect(&[(0, 4), (0, 4)])).unwrap();
        let r = b.reduce(x, 1, ReduceOp::Sum).unwrap();
        b.output(r, OutputTarget::array(a, rect(&[(0, 4), (0, 1)])));
        let g = b.build().unwrap();
        assert_eq!(g.domain(r), Some(&rect(&[(0, 4), (0, 1)])));
    }

    #[test]
    fn input_must_fit_array() {
        let (mut b, a) = one_d();
        let x = b.input(a, rect(&[(0, 9)])).unwrap();
        b.output(x, OutputTarget::array(a, rect(&[(0, 8)])));
        assert!(matches!(
            b.build().unwrap_err(),
            TdfgError::InputOutOfArray { .. }
        ));
    }

    #[test]
    fn offset_input_maps_column() {
        // Lattice [0,4)x[0,1) reads A[0,4)x[2,3): a single matrix column.
        let mut b = TdfgBuilder::new(2, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![4, 4], DataType::F32));
        let col = b.input_at(a, rect(&[(0, 4), (0, 1)]), vec![0, 2]).unwrap();
        b.output(col, OutputTarget::array(a, rect(&[(0, 4), (0, 1)])));
        assert!(b.build().is_ok());
    }

    #[test]
    fn scalar_output_requires_single_element() {
        let (mut b, a) = one_d();
        let x = b.input(a, rect(&[(0, 8)])).unwrap();
        b.output(x, OutputTarget::scalar("v"));
        assert!(matches!(
            b.build().unwrap_err(),
            TdfgError::ScalarNotSingle { .. }
        ));
    }

    #[test]
    fn scalar_output_after_reduce_ok() {
        let (mut b, a) = one_d();
        let x = b.input(a, rect(&[(0, 8)])).unwrap();
        let r = b.reduce(x, 0, ReduceOp::Sum).unwrap();
        b.output(r, OutputTarget::scalar("v"));
        let g = b.build().unwrap();
        assert_eq!(g.outputs().len(), 1);
        assert_eq!(g.param_count(), 0);
    }

    #[test]
    fn output_must_be_covered() {
        let (mut b, a) = one_d();
        let x = b.input(a, rect(&[(0, 4)])).unwrap();
        b.output(x, OutputTarget::array(a, rect(&[(0, 8)])));
        assert!(matches!(
            b.build().unwrap_err(),
            TdfgError::OutputNotCovered { .. }
        ));
    }

    #[test]
    fn compute_arity_enforced() {
        let (mut b, a) = one_d();
        let x = b.input(a, rect(&[(0, 8)])).unwrap();
        assert!(matches!(
            b.compute(ComputeOp::Add, &[x]),
            Err(TdfgError::BadArity { .. })
        ));
    }

    #[test]
    fn param_count_and_display() {
        let (mut b, a) = one_d();
        let x = b.input(a, rect(&[(0, 8)])).unwrap();
        let p = b.param(2);
        let m = b.compute(ComputeOp::Mul, &[x, p]).unwrap();
        b.output(m, OutputTarget::array(a, rect(&[(0, 8)])));
        let g = b.build().unwrap();
        assert_eq!(g.param_count(), 3);
        let text = g.to_string();
        assert!(text.contains("param #2"));
        assert!(text.contains("store %2"));
    }

    #[test]
    fn empty_compute_intersection_rejected() {
        let (mut b, a) = one_d();
        let x = b.input(a, rect(&[(0, 3)])).unwrap();
        let y = b.input(a, rect(&[(5, 8)])).unwrap();
        let s = b.compute(ComputeOp::Add, &[x, y]).unwrap();
        b.output(s, OutputTarget::array(a, rect(&[(0, 1)])));
        assert_eq!(b.build().unwrap_err(), TdfgError::EmptyDomain(s));
    }

    /// A shifted-window instance of a kernel must share a structural
    /// signature (it can reuse a relocatable command template) while its
    /// concrete `command_signature` differs (the geometry moved).
    #[test]
    fn structural_signature_is_shift_invariant() {
        let build = |lo: i64, dist: i64| {
            let mut b = TdfgBuilder::new(1, DataType::F32);
            let a = b.declare_array(ArrayDecl::new("A", vec![32], DataType::F32));
            let x = b.input(a, rect(&[(lo, 16)])).unwrap();
            let m = b.mv(x, 0, dist).unwrap();
            let s = b.compute(ComputeOp::Add, &[x, m]).unwrap();
            b.output(s, OutputTarget::array(a, rect(&[(lo + dist.max(0), 16)])));
            b.build().unwrap()
        };
        let (g1, g2) = (build(0, 1), build(3, 2));
        assert_eq!(g1.structural_signature(), g2.structural_signature());
        assert_ne!(g1.command_signature(), g2.command_signature());
    }

    /// Swapping which array feeds a tensor (ping-pong buffering) or which
    /// operator runs changes the right things: array identity is excluded,
    /// the operator is not.
    #[test]
    fn structural_signature_ignores_arrays_but_not_ops() {
        let build = |use_c: bool, op: ComputeOp| {
            let mut b = TdfgBuilder::new(1, DataType::F32);
            let a = b.declare_array(ArrayDecl::new("A", vec![16], DataType::F32));
            let c = b.declare_array(ArrayDecl::new("C", vec![16], DataType::F32));
            let src = if use_c { c } else { a };
            let x = b.input(src, rect(&[(0, 16)])).unwrap();
            let y = b.input(src, rect(&[(0, 16)])).unwrap();
            let s = b.compute(op, &[x, y]).unwrap();
            b.output(
                s,
                OutputTarget::array(if use_c { a } else { c }, rect(&[(0, 16)])),
            );
            b.build().unwrap()
        };
        assert_eq!(
            build(false, ComputeOp::Add).structural_signature(),
            build(true, ComputeOp::Add).structural_signature()
        );
        assert_ne!(
            build(false, ComputeOp::Add).structural_signature(),
            build(false, ComputeOp::Mul).structural_signature()
        );
    }

    #[test]
    fn primary_array_prefers_output() {
        let mut b = TdfgBuilder::new(1, DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", vec![8], DataType::F32));
        let c = b.declare_array(ArrayDecl::new("C", vec![8], DataType::F32));
        let x = b.input(a, rect(&[(0, 8)])).unwrap();
        b.output(x, OutputTarget::array(c, rect(&[(0, 8)])));
        let g = b.build().unwrap();
        assert_eq!(g.primary_array(), Some(c));
    }
}
