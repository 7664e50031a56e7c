use crate::{ArrayId, StreamId};
use serde::{Deserialize, Serialize};

/// An affine map from loop induction variables to array coordinates:
/// `coord[d] = offset[d] + Σ_k coeffs[d][k] · iv[k]`.
///
/// This is the paper's supported affine access form — "up to three dimensions
/// for affine access" (§3.3, Fig 5) — generalized to arbitrary constant
/// coefficients so strided and transposed walks are expressible.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AffineMap {
    /// Array being addressed.
    pub array: ArrayId,
    /// Constant offset per array dimension.
    pub offset: Vec<i64>,
    /// `coeffs[d][k]` multiplies loop variable `k` into array dimension `d`.
    pub coeffs: Vec<Vec<i64>>,
}

impl AffineMap {
    /// The identity map over `nloops` loops: array dimension `d` follows loop
    /// variable `d` directly (`A[i0][i1]…`).
    pub fn identity(array: ArrayId, nloops: usize) -> Self {
        let coeffs = (0..nloops)
            .map(|d| {
                let mut row = vec![0; nloops];
                row[d] = 1;
                row
            })
            .collect();
        AffineMap {
            array,
            offset: vec![0; nloops],
            coeffs,
        }
    }

    /// The identity map shifted by a constant per dimension (`A[i0+c0][i1+c1]…`).
    pub fn shifted(array: ArrayId, offsets: Vec<i64>) -> Self {
        let mut m = AffineMap::identity(array, offsets.len());
        m.offset = offsets;
        m
    }

    /// Number of loop variables the map consumes.
    pub fn nloops(&self) -> usize {
        self.coeffs.first().map_or(0, Vec::len)
    }

    /// Number of array coordinates the map produces.
    pub fn ncoords(&self) -> usize {
        self.coeffs.len()
    }

    /// Evaluates the map at a loop iteration point.
    ///
    /// # Panics
    ///
    /// Panics if `ivs.len()` differs from the map's loop arity.
    pub fn eval(&self, ivs: &[u64]) -> Vec<i64> {
        let mut coords = Vec::new();
        self.eval_into(ivs, &mut coords);
        coords
    }

    /// As [`eval`](Self::eval), into a caller-owned buffer (cleared first) so
    /// a loop over iteration points allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `ivs.len()` differs from the map's loop arity.
    pub fn eval_into(&self, ivs: &[u64], coords: &mut Vec<i64>) {
        coords.clear();
        coords.extend(self.coeffs.iter().zip(&self.offset).map(|(row, &off)| {
            assert_eq!(row.len(), ivs.len(), "loop arity mismatch");
            off + row
                .iter()
                .zip(ivs)
                .map(|(&c, &iv)| c * iv as i64)
                .sum::<i64>()
        }));
    }

    /// True if any loop variable appears in any coordinate — constant maps
    /// (all-zero coefficients) address a single element every iteration,
    /// which streams exploit as a register-like reuse.
    pub fn is_varying(&self) -> bool {
        self.coeffs.iter().flatten().any(|&c| c != 0)
    }
}

/// How a stream produces addresses.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessFn {
    /// Affine access over the graph's loop domain.
    Affine(AffineMap),
    /// One-level indirect access `array[ base + scale·idx ][ inner… ]` where
    /// `idx` is the current value of another (index) stream — the paper's
    /// "dependent one-level indirect access" (§3.3).
    ///
    /// The indirect index selects the coordinate of dimension `dim`; all other
    /// dimensions follow the embedded affine map (whose `dim` row is ignored).
    Indirect {
        /// Array holding the data.
        array: ArrayId,
        /// Stream producing indices.
        index_stream: StreamId,
        /// Which array dimension the index selects.
        dim: usize,
        /// Affine map for the remaining dimensions.
        rest: AffineMap,
    },
}

impl AccessFn {
    /// Identity affine access (`A[i0][i1]…`).
    pub fn identity(array: ArrayId, nloops: usize) -> Self {
        AccessFn::Affine(AffineMap::identity(array, nloops))
    }

    /// Identity affine access with constant offsets (`A[i0+c0]…`).
    pub fn shifted(array: ArrayId, offsets: Vec<i64>) -> Self {
        AccessFn::Affine(AffineMap::shifted(array, offsets))
    }

    /// The array this access touches.
    pub fn array(&self) -> ArrayId {
        match self {
            AccessFn::Affine(m) => m.array,
            AccessFn::Indirect { array, .. } => *array,
        }
    }

    /// True for indirect accesses (which disqualify a stream from being
    /// unrolled into a tensor).
    pub fn is_indirect(&self) -> bool {
        matches!(self, AccessFn::Indirect { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_map_follows_ivs() {
        let m = AffineMap::identity(ArrayId(0), 3);
        assert_eq!(m.eval(&[2, 5, 7]), vec![2, 5, 7]);
        assert_eq!(m.nloops(), 3);
        assert_eq!(m.ncoords(), 3);
        assert!(m.is_varying());
    }

    #[test]
    fn shifted_map_adds_offsets() {
        let m = AffineMap::shifted(ArrayId(0), vec![-1, 2]);
        assert_eq!(m.eval(&[4, 4]), vec![3, 6]);
    }

    #[test]
    fn strided_and_transposed_maps() {
        // A[2*j][i]: coord0 = 2*iv1, coord1 = iv0.
        let m = AffineMap {
            array: ArrayId(1),
            offset: vec![0, 0],
            coeffs: vec![vec![0, 2], vec![1, 0]],
        };
        assert_eq!(m.eval(&[3, 4]), vec![8, 3]);
    }

    #[test]
    fn constant_map_is_not_varying() {
        let m = AffineMap {
            array: ArrayId(0),
            offset: vec![5],
            coeffs: vec![vec![0, 0]],
        };
        assert!(!m.is_varying());
        assert_eq!(m.eval(&[9, 9]), vec![5]);
    }

    #[test]
    fn access_fn_array() {
        let a = AccessFn::identity(ArrayId(2), 1);
        assert_eq!(a.array(), ArrayId(2));
        assert!(!a.is_indirect());
    }
}
