use crate::tile::INLINE_DIMS;
use crate::GeomError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open hyperrectangle `[p0,q0) × … × [pN-1,qN-1)` in the global lattice space.
///
/// Every tDFG tensor is a hyperrectangular set of lattice cells (paper §3.2, Fig 5).
/// Dimension `0` is the *innermost* dimension — contiguous in the address space of the
/// underlying array — matching the tiling constraint discussion of §4.1.
///
/// Coordinates are signed: `mv` nodes may shift a tensor to negative coordinates, in
/// which case the out-of-bounds cells are discarded against the *global bounding
/// hyperrectangle* (see [`HyperRect::intersect`]).
///
/// # Example
///
/// ```
/// use infs_geom::HyperRect;
///
/// let a = HyperRect::new(vec![(0, 4), (0, 4)]).unwrap();
/// let b = a.translated(0, 2).unwrap();
/// let overlap = a.intersect(&b).unwrap().expect("rectangles overlap");
/// assert_eq!(overlap, HyperRect::new(vec![(2, 4), (0, 4)]).unwrap());
/// assert_eq!(overlap.num_elements(), 8);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HyperRect {
    /// `(p, q)` interval per dimension, each with `p <= q`.
    intervals: Vec<(i64, i64)>,
}

impl HyperRect {
    /// Creates a hyperrectangle from per-dimension `[p, q)` intervals.
    ///
    /// Intervals with `p == q` are allowed and yield an [empty](Self::is_empty)
    /// rectangle.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvertedInterval`] if any interval has `p > q`.
    pub fn new(intervals: Vec<(i64, i64)>) -> Result<Self, GeomError> {
        for (dim, &(p, q)) in intervals.iter().enumerate() {
            if p > q {
                return Err(GeomError::InvertedInterval { dim, p, q });
            }
        }
        Ok(HyperRect { intervals })
    }

    /// Creates the rectangle `[0, s0) × … × [0, sN-1)` covering an origin-aligned
    /// array of the given shape.
    ///
    /// This is the lattice-space footprint of an `N`-dimensional array declared via
    /// `inf_array` (paper §3.4): "an N dimensional array is by itself a tensor with
    /// `p_i = 0, q_i = S_i`".
    pub fn from_shape(shape: &[u64]) -> Self {
        HyperRect {
            intervals: shape.iter().map(|&s| (0, s as i64)).collect(),
        }
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.intervals.len()
    }

    /// The `[p, q)` interval of one dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= self.ndim()`.
    pub fn interval(&self, dim: usize) -> (i64, i64) {
        self.intervals[dim]
    }

    /// All intervals, innermost dimension first.
    pub fn intervals(&self) -> &[(i64, i64)] {
        &self.intervals
    }

    /// Start coordinate `p` of one dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= self.ndim()`.
    pub fn start(&self, dim: usize) -> i64 {
        self.intervals[dim].0
    }

    /// End coordinate `q` (exclusive) of one dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= self.ndim()`.
    pub fn end(&self, dim: usize) -> i64 {
        self.intervals[dim].1
    }

    /// Extent `q - p` of one dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= self.ndim()`.
    pub fn extent(&self, dim: usize) -> u64 {
        let (p, q) = self.intervals[dim];
        (q - p) as u64
    }

    /// Extents of all dimensions.
    pub fn extents(&self) -> Vec<u64> {
        (0..self.ndim()).map(|d| self.extent(d)).collect()
    }

    /// True if any dimension has zero extent (the rectangle contains no cells).
    pub fn is_empty(&self) -> bool {
        self.intervals.iter().any(|&(p, q)| p == q)
    }

    /// Number of lattice cells contained.
    pub fn num_elements(&self) -> u64 {
        self.intervals
            .iter()
            .map(|&(p, q)| (q - p) as u64)
            .product()
    }

    /// True if the point lies inside the rectangle.
    ///
    /// Points of the wrong dimensionality are never contained.
    pub fn contains(&self, point: &[i64]) -> bool {
        point.len() == self.ndim()
            && point
                .iter()
                .zip(&self.intervals)
                .all(|(&x, &(p, q))| p <= x && x < q)
    }

    /// True if `other` is fully contained in `self` (empty rectangles are contained
    /// in everything of the same dimensionality).
    pub fn contains_rect(&self, other: &HyperRect) -> bool {
        if self.ndim() != other.ndim() {
            return false;
        }
        if other.is_empty() {
            return true;
        }
        self.intervals
            .iter()
            .zip(&other.intervals)
            .all(|(&(p, q), &(op, oq))| p <= op && oq <= q)
    }

    /// Intersection of two rectangles, or `None` if they do not overlap.
    ///
    /// This is the domain rule for tDFG compute nodes: an element-wise function is
    /// applied to *the intersection of its input tensors* (Fig 5).
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::DimMismatch`] if the dimensionalities differ.
    pub fn intersect(&self, other: &HyperRect) -> Result<Option<HyperRect>, GeomError> {
        if self.ndim() != other.ndim() {
            return Err(GeomError::DimMismatch {
                lhs: self.ndim(),
                rhs: other.ndim(),
            });
        }
        let mut out = Vec::with_capacity(self.ndim());
        for (&(ap, aq), &(bp, bq)) in self.intervals.iter().zip(&other.intervals) {
            let p = ap.max(bp);
            let q = aq.min(bq);
            if p >= q {
                return Ok(None);
            }
            out.push((p, q));
        }
        Ok(Some(HyperRect { intervals: out }))
    }

    /// Minimal hyperrectangle containing both operands (the *bounding* rectangle).
    ///
    /// Used to compute the global bounding hyperrectangle over all data structures
    /// of a region (§3.2): cells outside it have undefined values and moves beyond
    /// it are discarded.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::DimMismatch`] if the dimensionalities differ.
    pub fn bounding(&self, other: &HyperRect) -> Result<HyperRect, GeomError> {
        if self.ndim() != other.ndim() {
            return Err(GeomError::DimMismatch {
                lhs: self.ndim(),
                rhs: other.ndim(),
            });
        }
        let intervals = self
            .intervals
            .iter()
            .zip(&other.intervals)
            .map(|(&(ap, aq), &(bp, bq))| (ap.min(bp), aq.max(bq)))
            .collect();
        Ok(HyperRect { intervals })
    }

    /// The rectangle shifted by `dist` along `dim` — the domain rule for `mv` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::DimOutOfRange`] if `dim` is out of range.
    pub fn translated(&self, dim: usize, dist: i64) -> Result<HyperRect, GeomError> {
        if dim >= self.ndim() {
            return Err(GeomError::DimOutOfRange {
                dim,
                ndim: self.ndim(),
            });
        }
        let mut intervals = self.intervals.clone();
        intervals[dim].0 += dist;
        intervals[dim].1 += dist;
        Ok(HyperRect { intervals })
    }

    /// The rectangle with dimension `dim` replaced by `[p, q)` — the domain rule for
    /// `shrink` (and broadcast-destination) nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::DimOutOfRange`] for a bad dimension and
    /// [`GeomError::InvertedInterval`] if `p > q`.
    pub fn with_interval(&self, dim: usize, p: i64, q: i64) -> Result<HyperRect, GeomError> {
        if dim >= self.ndim() {
            return Err(GeomError::DimOutOfRange {
                dim,
                ndim: self.ndim(),
            });
        }
        if p > q {
            return Err(GeomError::InvertedInterval { dim, p, q });
        }
        let mut intervals = self.intervals.clone();
        intervals[dim] = (p, q);
        Ok(HyperRect { intervals })
    }

    /// Row-major linear index of `point` within this rectangle, with **dimension 0
    /// varying fastest** (dimension 0 is contiguous in address space, §4.1).
    ///
    /// Returns `None` if the point is outside the rectangle.
    pub fn linear_index(&self, point: &[i64]) -> Option<u64> {
        if !self.contains(point) {
            return None;
        }
        let mut idx = 0u64;
        let mut stride = 1u64;
        for (d, &(p, _)) in self.intervals.iter().enumerate() {
            idx += (point[d] - p) as u64 * stride;
            stride *= self.extent(d);
        }
        Some(idx)
    }

    /// Inverse of [`linear_index`](Self::linear_index).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.num_elements()`.
    pub fn point_at(&self, idx: u64) -> Vec<i64> {
        assert!(
            idx < self.num_elements(),
            "index {idx} out of range for rectangle with {} elements",
            self.num_elements()
        );
        let mut rem = idx;
        let mut point = Vec::with_capacity(self.ndim());
        for (d, &(p, _)) in self.intervals.iter().enumerate() {
            let e = self.extent(d);
            point.push(p + (rem % e) as i64);
            rem /= e;
        }
        point
    }

    /// Length of one contiguous dimension-0 run: `extent(0)`, or 1 for a
    /// zero-dimensional rectangle (a single cell).
    pub fn row_len(&self) -> usize {
        self.intervals.first().map_or(1, |&(p, q)| (q - p) as usize)
    }

    /// Walks the rectangle as contiguous dimension-0 runs ("rows") and hands
    /// `visit` the lattice coordinate of each row's first cell. Rows come in
    /// ascending [`linear_index`](Self::linear_index) order, so the `k`-th
    /// visit covers linear indices `[k * row_len, (k + 1) * row_len)`. An
    /// empty rectangle visits nothing.
    ///
    /// Nothing is allocated for up to eight dimensions: this is the
    /// walk the tDFG executor runs once per node, where [`points`](Self::points)
    /// would build one coordinate vector per cell.
    pub fn for_each_row(&self, mut visit: impl FnMut(&[i64])) {
        let n = self.ndim();
        if n <= INLINE_DIMS {
            self.walk_rows(&mut [0; INLINE_DIMS][..n], &mut visit);
        } else {
            self.walk_rows(&mut vec![0; n], &mut visit);
        }
    }

    /// The odometer behind [`for_each_row`](Self::for_each_row), over
    /// caller-provided scratch (one slot per dimension).
    fn walk_rows(&self, coord: &mut [i64], visit: &mut impl FnMut(&[i64])) {
        if self.is_empty() {
            return;
        }
        for (c, &(p, _)) in coord.iter_mut().zip(&self.intervals) {
            *c = p;
        }
        loop {
            visit(coord);
            // Advance the row coordinate, dimension 1 fastest; a dimension
            // that runs off its interval rewinds and carries into the next.
            let mut d = 1;
            loop {
                let Some(&(p, q)) = self.intervals.get(d) else {
                    return;
                };
                if coord[d] + 1 < q {
                    coord[d] += 1;
                    break;
                }
                coord[d] = p;
                d += 1;
            }
        }
    }

    /// Iterates over all lattice points, dimension 0 fastest.
    pub fn points(&self) -> Points {
        Points {
            rect: self.clone(),
            next: 0,
            total: if self.is_empty() {
                0
            } else {
                self.num_elements()
            },
        }
    }
}

impl fmt::Debug for HyperRect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.intervals.is_empty() {
            return write!(f, "[scalar]");
        }
        for (i, (p, q)) in self.intervals.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "[{p},{q})")?;
        }
        Ok(())
    }
}

impl fmt::Display for HyperRect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Iterator over the lattice points of a [`HyperRect`], produced by
/// [`HyperRect::points`].
#[derive(Debug, Clone)]
pub struct Points {
    rect: HyperRect,
    next: u64,
    total: u64,
}

impl Iterator for Points {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Vec<i64>> {
        if self.next >= self.total {
            return None;
        }
        let p = self.rect.point_at(self.next);
        self.next += 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.total - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Points {}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(iv: &[(i64, i64)]) -> HyperRect {
        HyperRect::new(iv.to_vec()).unwrap()
    }

    #[test]
    fn new_rejects_inverted() {
        let err = HyperRect::new(vec![(3, 1)]).unwrap_err();
        assert_eq!(err, GeomError::InvertedInterval { dim: 0, p: 3, q: 1 });
    }

    #[test]
    fn from_shape_is_origin_aligned() {
        let r = HyperRect::from_shape(&[4, 5]);
        assert_eq!(r, rect(&[(0, 4), (0, 5)]));
        assert_eq!(r.num_elements(), 20);
    }

    #[test]
    fn empty_rectangles() {
        let r = rect(&[(2, 2), (0, 4)]);
        assert!(r.is_empty());
        assert_eq!(r.num_elements(), 0);
        assert_eq!(r.points().count(), 0);
    }

    #[test]
    fn intersection_overlap_and_disjoint() {
        let a = rect(&[(0, 4), (0, 4)]);
        let b = rect(&[(2, 6), (1, 3)]);
        assert_eq!(a.intersect(&b).unwrap(), Some(rect(&[(2, 4), (1, 3)])));
        let c = rect(&[(4, 8), (0, 4)]);
        assert_eq!(a.intersect(&c).unwrap(), None);
    }

    #[test]
    fn intersection_dim_mismatch() {
        let a = rect(&[(0, 4)]);
        let b = rect(&[(0, 4), (0, 4)]);
        assert!(a.intersect(&b).is_err());
    }

    #[test]
    fn bounding_box() {
        let a = rect(&[(0, 2)]);
        let b = rect(&[(5, 9)]);
        assert_eq!(a.bounding(&b).unwrap(), rect(&[(0, 9)]));
    }

    #[test]
    fn translation_can_go_negative() {
        let a = rect(&[(0, 4)]);
        assert_eq!(a.translated(0, -2).unwrap(), rect(&[(-2, 2)]));
        assert!(a.translated(1, 1).is_err());
    }

    #[test]
    fn linear_index_dim0_fastest() {
        let r = rect(&[(0, 3), (0, 2)]);
        // (x, y) with x fastest: (0,0)=0 (1,0)=1 (2,0)=2 (0,1)=3 ...
        assert_eq!(r.linear_index(&[0, 0]), Some(0));
        assert_eq!(r.linear_index(&[2, 0]), Some(2));
        assert_eq!(r.linear_index(&[0, 1]), Some(3));
        assert_eq!(r.linear_index(&[2, 1]), Some(5));
        assert_eq!(r.linear_index(&[3, 0]), None);
    }

    #[test]
    fn point_at_roundtrips() {
        let r = rect(&[(-1, 2), (4, 6), (0, 2)]);
        for i in 0..r.num_elements() {
            let p = r.point_at(i);
            assert_eq!(r.linear_index(&p), Some(i));
        }
    }

    #[test]
    fn rows_tile_the_rectangle_in_linear_order() {
        for r in [
            rect(&[(-1, 2), (4, 6), (0, 2)]),
            rect(&[(3, 4), (-2, 1)]),
            rect(&[(5, 9)]),
            rect(&[]),
            rect(&[(0, 3), (2, 2)]),
        ] {
            let len = r.row_len();
            let mut next = 0u64;
            r.for_each_row(|start| {
                assert_eq!(r.linear_index(start), Some(next));
                next += len as u64;
            });
            assert_eq!(next, r.points().len() as u64, "{r}");
        }
    }

    #[test]
    fn contains_rect_handles_empty() {
        let a = rect(&[(0, 4)]);
        assert!(a.contains_rect(&rect(&[(1, 1)])));
        assert!(a.contains_rect(&rect(&[(0, 4)])));
        assert!(!a.contains_rect(&rect(&[(0, 5)])));
    }

    #[test]
    fn display_formats_intervals() {
        assert_eq!(format!("{}", rect(&[(0, 4), (1, 3)])), "[0,4)x[1,3)");
    }
}
