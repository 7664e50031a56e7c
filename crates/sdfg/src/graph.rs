use crate::{AccessFn, ArrayDecl, ArrayId, ExprId, ReduceOp, SdfgError, StreamExpr};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of a stream within one [`Sdfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StreamId(pub u32);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "strm{}", self.0)
    }
}

/// What a stream does each loop iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamKind {
    /// Reads one element; the value is available to expressions via
    /// [`StreamExpr::StreamVal`].
    Load,
    /// Writes the value of an expression to the accessed element.
    Store {
        /// Expression producing the stored value.
        value: ExprId,
    },
    /// Read-modify-write: `mem[addr] = op(mem[addr], value)` — the indirect
    /// update pattern (e.g. kmeans centroid recomputation, §3.3).
    Update {
        /// Combine operator.
        op: ReduceOp,
        /// Expression producing the update operand.
        value: ExprId,
    },
    /// Accumulates an expression over all iterations into a named scalar
    /// output (a reduce stream; no access pattern of its own).
    Reduce {
        /// Reduction operator.
        op: ReduceOp,
        /// Expression producing each reduction operand.
        value: ExprId,
    },
}

/// One stream: a named access pattern plus its role.
///
/// `access` is `None` only for [`StreamKind::Reduce`], which consumes values
/// produced by other streams rather than walking memory itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stream {
    /// Diagnostic / output name.
    pub name: String,
    /// Role of the stream.
    pub kind: StreamKind,
    /// Access pattern, absent for reduce streams.
    pub access: Option<AccessFn>,
}

impl Stream {
    /// The array the stream touches, if it touches memory.
    pub fn array(&self) -> Option<ArrayId> {
        self.access.as_ref().map(AccessFn::array)
    }
}

/// Aggregate per-iteration and whole-execution access/op counts, used by the
/// offload decision model (Eq 2) and the near-memory timing model.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SdfgProfile {
    /// Total loop iterations.
    pub iterations: u64,
    /// Element loads over the whole execution.
    pub loads: u64,
    /// Element stores (including updates' writes).
    pub stores: u64,
    /// Arithmetic operations evaluated across all expressions.
    pub ops: u64,
    /// Bytes read per array id.
    pub bytes_read: Vec<(ArrayId, u64)>,
    /// Bytes written per array id.
    pub bytes_written: Vec<(ArrayId, u64)>,
}

/// A stream dataflow graph: a loop domain, array declarations, streams and the
/// expression pool of their near-stream computations.
///
/// Iteration order is sequential over the loop domain with induction variable 0
/// innermost (fastest). See the crate-level example for usage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sdfg {
    loop_trip: Vec<u64>,
    /// Shared with the kernel and the other graphs lowered from it.
    arrays: Arc<[ArrayDecl]>,
    streams: Vec<Stream>,
    exprs: Vec<StreamExpr>,
}

impl Sdfg {
    /// Creates an empty graph over a loop nest with the given trip counts
    /// (innermost loop first).
    pub fn new(loop_trip: Vec<u64>) -> Self {
        Sdfg {
            loop_trip,
            arrays: Arc::new([]),
            streams: Vec::new(),
            exprs: Vec::new(),
        }
    }

    /// Declares an array and returns its id.
    pub fn declare_array(&mut self, decl: ArrayDecl) -> ArrayId {
        let mut arrays = self.arrays.to_vec();
        arrays.push(decl);
        self.arrays = arrays.into();
        ArrayId(self.arrays.len() as u32 - 1)
    }

    /// Adopts existing array declarations (shared with a tDFG region)
    /// wholesale; a shared table is adopted without a copy.
    pub fn set_arrays(&mut self, decls: impl Into<Arc<[ArrayDecl]>>) {
        self.arrays = decls.into();
    }

    /// Adds an expression to the pool and returns its id.
    pub fn expr(&mut self, e: StreamExpr) -> ExprId {
        self.exprs.push(e);
        ExprId(self.exprs.len() as u32 - 1)
    }

    /// Shorthand: adds a [`StreamExpr::StreamVal`] expression for a load stream.
    pub fn stream_val(&mut self, s: StreamId) -> ExprId {
        self.expr(StreamExpr::StreamVal(s))
    }

    fn push_stream(&mut self, s: Stream) -> StreamId {
        self.streams.push(s);
        StreamId(self.streams.len() as u32 - 1)
    }

    /// Adds a load stream.
    pub fn load(&mut self, access: AccessFn) -> StreamId {
        let name = format!("load{}", self.streams.len());
        self.push_stream(Stream {
            name,
            kind: StreamKind::Load,
            access: Some(access),
        })
    }

    /// Adds a store stream writing `value` along `access`.
    pub fn store(&mut self, access: AccessFn, value: ExprId) -> StreamId {
        let name = format!("store{}", self.streams.len());
        self.push_stream(Stream {
            name,
            kind: StreamKind::Store { value },
            access: Some(access),
        })
    }

    /// Adds an update (read-modify-write) stream.
    pub fn update(&mut self, access: AccessFn, op: ReduceOp, value: ExprId) -> StreamId {
        let name = format!("update{}", self.streams.len());
        self.push_stream(Stream {
            name,
            kind: StreamKind::Update { op, value },
            access: Some(access),
        })
    }

    /// Adds a reduce stream accumulating `value` into the named scalar output.
    pub fn reduce(&mut self, name: impl Into<String>, op: ReduceOp, value: ExprId) -> StreamId {
        self.push_stream(Stream {
            name: name.into(),
            kind: StreamKind::Reduce { op, value },
            access: None,
        })
    }

    /// Loop trip counts, innermost first.
    pub fn loop_trip(&self) -> &[u64] {
        &self.loop_trip
    }

    /// Total iterations of the loop nest.
    pub fn iterations(&self) -> u64 {
        self.loop_trip.iter().product()
    }

    /// Declared arrays (indexable by [`ArrayId`]).
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// All streams (indexable by [`StreamId`]).
    pub fn streams(&self) -> &[Stream] {
        &self.streams
    }

    /// Expression pool (indexable by [`ExprId`]).
    pub fn exprs(&self) -> &[StreamExpr] {
        &self.exprs
    }

    /// One stream by id.
    ///
    /// # Errors
    ///
    /// Returns [`SdfgError::UnknownStream`] for a bad id.
    pub fn stream(&self, id: StreamId) -> Result<&Stream, SdfgError> {
        self.streams
            .get(id.0 as usize)
            .ok_or(SdfgError::UnknownStream(id))
    }

    /// Checks internal consistency: every reference resolves, affine arities
    /// match the loop domain and array ranks, indirect index streams are loads
    /// declared before their consumers.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), SdfgError> {
        for (i, e) in self.exprs.iter().enumerate() {
            for c in e.children() {
                if c.0 as usize >= self.exprs.len() {
                    return Err(SdfgError::UnknownExpr(c.0 as usize));
                }
                // The pool is append-only, so children must precede parents.
                if c.0 as usize >= i {
                    return Err(SdfgError::UnknownExpr(c.0 as usize));
                }
            }
            if let StreamExpr::StreamVal(s) = e {
                match self.stream(*s)?.kind {
                    StreamKind::Load => {}
                    _ => return Err(SdfgError::UnknownStream(*s)),
                }
            }
        }
        for (i, s) in self.streams.iter().enumerate() {
            match &s.kind {
                StreamKind::Load => {}
                StreamKind::Store { value }
                | StreamKind::Update { value, .. }
                | StreamKind::Reduce { value, .. } => {
                    if value.0 as usize >= self.exprs.len() {
                        return Err(SdfgError::UnknownExpr(value.0 as usize));
                    }
                }
            }
            if let Some(access) = &s.access {
                self.validate_access(access, i)?;
            }
        }
        Ok(())
    }

    fn validate_access(&self, access: &AccessFn, stream_pos: usize) -> Result<(), SdfgError> {
        let check_map = |m: &crate::AffineMap, skip_dim: Option<usize>| -> Result<(), SdfgError> {
            let decl = self
                .arrays
                .get(m.array.0 as usize)
                .ok_or(SdfgError::UnknownArray(m.array))?;
            if m.ncoords() != decl.ndim() {
                return Err(SdfgError::CoordArityMismatch {
                    array: m.array,
                    map: m.ncoords(),
                    ndim: decl.ndim(),
                });
            }
            for (d, row) in m.coeffs.iter().enumerate() {
                if Some(d) == skip_dim {
                    continue;
                }
                if row.len() != self.loop_trip.len() {
                    return Err(SdfgError::LoopArityMismatch {
                        map: row.len(),
                        domain: self.loop_trip.len(),
                    });
                }
            }
            Ok(())
        };
        match access {
            AccessFn::Affine(m) => check_map(m, None),
            AccessFn::Indirect {
                array,
                index_stream,
                dim,
                rest,
            } => {
                if rest.array != *array {
                    return Err(SdfgError::UnknownArray(*array));
                }
                let idx = self.stream(*index_stream)?;
                if !matches!(idx.kind, StreamKind::Load) || index_stream.0 as usize >= stream_pos {
                    return Err(SdfgError::UnknownStream(*index_stream));
                }
                let decl = self
                    .arrays
                    .get(array.0 as usize)
                    .ok_or(SdfgError::UnknownArray(*array))?;
                if *dim >= decl.ndim() {
                    return Err(SdfgError::CoordArityMismatch {
                        array: *array,
                        map: *dim,
                        ndim: decl.ndim(),
                    });
                }
                check_map(rest, Some(*dim))
            }
        }
    }

    /// Computes the whole-execution access and op profile, assuming every
    /// stream fires once per iteration.
    pub fn profile(&self) -> SdfgProfile {
        let iters = self.iterations();
        let mut p = SdfgProfile {
            iterations: iters,
            ..Default::default()
        };
        let mut read_map: Vec<u64> = vec![0; self.arrays.len()];
        let mut write_map: Vec<u64> = vec![0; self.arrays.len()];
        for s in &self.streams {
            match &s.kind {
                StreamKind::Load => {
                    p.loads += iters;
                    if let Some(a) = s.array() {
                        read_map[a.0 as usize] +=
                            iters * self.arrays[a.0 as usize].dtype.size_bytes() as u64;
                    }
                }
                StreamKind::Store { .. } => {
                    p.stores += iters;
                    if let Some(a) = s.array() {
                        write_map[a.0 as usize] +=
                            iters * self.arrays[a.0 as usize].dtype.size_bytes() as u64;
                    }
                }
                StreamKind::Update { .. } => {
                    p.loads += iters;
                    p.stores += iters;
                    if let Some(a) = s.array() {
                        let b = iters * self.arrays[a.0 as usize].dtype.size_bytes() as u64;
                        read_map[a.0 as usize] += b;
                        write_map[a.0 as usize] += b;
                    }
                    p.ops += iters; // the combine op
                }
                StreamKind::Reduce { .. } => {
                    p.ops += iters; // the accumulate op
                }
            }
        }
        for e in &self.exprs {
            p.ops += e.op_count() * iters;
        }
        p.bytes_read = read_map
            .into_iter()
            .enumerate()
            .filter(|&(_, b)| b > 0)
            .map(|(i, b)| (ArrayId(i as u32), b))
            .collect();
        p.bytes_written = write_map
            .into_iter()
            .enumerate()
            .filter(|&(_, b)| b > 0)
            .map(|(i, b)| (ArrayId(i as u32), b))
            .collect();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;

    fn simple() -> (Sdfg, ArrayId) {
        let mut g = Sdfg::new(vec![8]);
        let a = g.declare_array(ArrayDecl::new("a", vec![8], DataType::F32));
        (g, a)
    }

    #[test]
    fn build_and_validate_load_store() {
        let (mut g, a) = simple();
        let b = g.declare_array(ArrayDecl::new("b", vec![8], DataType::F32));
        let la = g.load(AccessFn::identity(a, 1));
        let v = g.stream_val(la);
        g.store(AccessFn::identity(b, 1), v);
        assert!(g.validate().is_ok());
        assert_eq!(g.iterations(), 8);
    }

    #[test]
    fn validate_rejects_coord_arity() {
        let (mut g, a) = simple();
        // 2 coords for a 1-D array.
        g.load(AccessFn::shifted(a, vec![0, 0]));
        assert!(matches!(
            g.validate(),
            Err(SdfgError::CoordArityMismatch { .. })
        ));
    }

    #[test]
    fn validate_rejects_loop_arity() {
        let (mut g, a) = simple();
        let m = crate::AffineMap {
            array: a,
            offset: vec![0],
            coeffs: vec![vec![1, 0]], // 2 loops, domain has 1
        };
        g.load(AccessFn::Affine(m));
        assert!(matches!(
            g.validate(),
            Err(SdfgError::LoopArityMismatch { .. })
        ));
    }

    #[test]
    fn validate_rejects_indirect_on_later_stream() {
        let (mut g, a) = simple();
        let idx = g.declare_array(ArrayDecl::new("idx", vec![8], DataType::I32));
        // Indirect access whose index stream is itself.
        let access = AccessFn::Indirect {
            array: a,
            index_stream: StreamId(0),
            dim: 0,
            rest: crate::AffineMap::identity(a, 1),
        };
        g.load(access);
        let _ = idx;
        assert!(matches!(g.validate(), Err(SdfgError::UnknownStream(_))));
    }

    #[test]
    fn validate_rejects_streamval_of_store() {
        let (mut g, a) = simple();
        let la = g.load(AccessFn::identity(a, 1));
        let v = g.stream_val(la);
        let st = g.store(AccessFn::identity(a, 1), v);
        let bad = g.expr(StreamExpr::StreamVal(st));
        g.reduce("x", ReduceOp::Sum, bad);
        assert!(matches!(g.validate(), Err(SdfgError::UnknownStream(_))));
    }

    #[test]
    fn profile_counts_accesses_and_ops() {
        let (mut g, a) = simple();
        let b = g.declare_array(ArrayDecl::new("b", vec![8], DataType::F32));
        let la = g.load(AccessFn::identity(a, 1));
        let lb = g.load(AccessFn::identity(b, 1));
        let va = g.stream_val(la);
        let vb = g.stream_val(lb);
        let s = g.expr(StreamExpr::add(va, vb));
        g.store(AccessFn::identity(a, 1), s);
        let p = g.profile();
        assert_eq!(p.iterations, 8);
        assert_eq!(p.loads, 16);
        assert_eq!(p.stores, 8);
        assert_eq!(p.ops, 8); // one add per iteration
        assert_eq!(p.bytes_read.len(), 2);
        assert_eq!(p.bytes_written, vec![(a, 32)]);
    }
}
