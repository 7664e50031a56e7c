//! Tiling-constraint solver and layout heuristics (paper §4.1).
//!
//! The transposed data layout is decided at *runtime* because it depends on the
//! input sizes and hardware parameters. The runtime searches for a tile size
//! `T0 × … × TN-1` satisfying:
//!
//! 1. `∏ Ti = B` — each tile occupies all `B` bitlines of one SRAM array;
//! 2. `T0 × W mod L = 0` — the `T0 × W` dimension-0 elements tiled into one L3
//!    bank cover whole cache lines of `L` elements, so a transposed line maps to
//!    exactly one bank;
//!
//! and additionally checks `S0 mod L = 0` (the array's innermost dimension is
//! cache-line aligned). Among valid tilings, heuristics pick one based on the
//! data-movement hints the compiler embedded in the configuration: reductions
//! favour a large tile on the reduced dimension, shifts favour close-to-square
//! tiles, and broadcasts favour a small innermost tile. When several kinds of
//! movement are present they are prioritized reduction > shift > broadcast.

use crate::{GeomError, TileShape};
use serde::{Deserialize, Serialize};

/// Compiler-generated layout hints for one infinity-stream region (§3.4).
///
/// The static compiler derives these from the tDFG's data-movement pattern; the
/// runtime combines them with the array shape to pick a tile size quickly.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayoutHints {
    /// Dimensions along which tensors are shifted (`mv` nodes).
    pub shift_dims: Vec<usize>,
    /// Dimension reduced in-memory, if any.
    pub reduce_dim: Option<usize>,
    /// Dimensions along which tensors are broadcast (`bc` nodes).
    pub broadcast_dims: Vec<usize>,
}

impl LayoutHints {
    /// Hints for a pure element-wise region with shifts along `dims`.
    pub fn shifts(dims: &[usize]) -> Self {
        LayoutHints {
            shift_dims: dims.to_vec(),
            ..Default::default()
        }
    }

    /// Hints for a region that broadcasts along `dims`.
    pub fn broadcasts(dims: &[usize]) -> Self {
        LayoutHints {
            broadcast_dims: dims.to_vec(),
            ..Default::default()
        }
    }

    /// Hints for a region that reduces along `dim`.
    pub fn reduction(dim: usize) -> Self {
        LayoutHints {
            reduce_dim: Some(dim),
            ..Default::default()
        }
    }
}

/// Inputs to the tiling search for one (primary) array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TilingRequest {
    /// Array shape `S0 … SN-1`, innermost dimension first.
    pub array_shape: Vec<u64>,
    /// Element size in bytes.
    pub elem_size: u32,
    /// Bitlines per SRAM array (`B`, e.g. 256).
    pub bitlines: u64,
    /// Compute SRAM arrays per L3 bank (`W`).
    pub arrays_per_bank: u32,
    /// Cache line size in bytes (64 in the paper's system).
    pub line_bytes: u32,
    /// Compiler layout hints.
    pub hints: LayoutHints,
}

impl TilingRequest {
    /// Elements per cache line (`L`).
    pub fn line_elems(&self) -> u64 {
        (self.line_bytes / self.elem_size).max(1) as u64
    }

    /// Checks the array-level precondition `S0 mod L = 0`: together with
    /// constraint 2 this guarantees a transposed cache line is never split
    /// across L3 banks (§4.1). Scalars (0-dim) trivially pass.
    pub fn array_is_line_aligned(&self) -> bool {
        match self.array_shape.first() {
            Some(&s0) => s0 % self.line_elems() == 0,
            None => true,
        }
    }
}

/// Enumerates every tile shape satisfying constraints 1 and 2 of §4.1.
///
/// The returned shapes are all factorizations `T0 × … × TN-1 = B` (each `Ti` a
/// divisor of `B`) with `T0·W ≡ 0 (mod L)`, in lexicographic order of their
/// dimension vectors. Shapes whose tile exceeds the array in some dimension are
/// *included* — they are legal, merely wasteful, and the scoring heuristic
/// penalizes them; oracle sweeps (Fig 16/17) need them enumerable.
pub fn valid_tilings(req: &TilingRequest) -> Vec<TileShape> {
    let ndim = req.array_shape.len();
    if ndim == 0 {
        return Vec::new();
    }
    let l = req.line_elems();
    let w = req.arrays_per_bank as u64;
    let mut out = Vec::new();
    let mut current = vec![0u64; ndim];
    enumerate_factorizations(req.bitlines, ndim, &mut current, 0, &mut |dims| {
        if (dims[0] * w).is_multiple_of(l) {
            out.push(TileShape::new(dims.to_vec()).expect("factors are nonzero"));
        }
    });
    out
}

fn enumerate_factorizations(
    remaining: u64,
    ndim: usize,
    current: &mut [u64],
    dim: usize,
    emit: &mut impl FnMut(&[u64]),
) {
    if dim == ndim - 1 {
        current[dim] = remaining;
        emit(current);
        return;
    }
    let mut t = 1;
    while t <= remaining {
        if remaining.is_multiple_of(t) {
            current[dim] = t;
            enumerate_factorizations(remaining / t, ndim, current, dim + 1, emit);
        }
        t += 1;
    }
}

/// Heuristic cost of a tile shape under the given hints — **lower is better**.
///
/// Implements the §4.1 priorities:
///
/// * *reduction* (weight 10⁴): maximize the tile extent on the reduced dimension
///   so more rounds of the reduction stay inside one SRAM array;
/// * *shift* (weight 10²): prefer close-to-square tiles so shift traffic stays
///   intra-tile;
/// * *broadcast* (weight 1): prefer a small innermost tile so a broadcast row
///   spreads over more banks, avoiding a read hotspot.
///
/// Tiles exceeding the array extent in some dimension waste bitlines and take a
/// large penalty. Exposed publicly so the Fig 16/17 oracle sweeps can rank every
/// valid tiling the same way the runtime does.
pub fn tile_score(shape: &TileShape, req: &TilingRequest) -> f64 {
    let hints = &req.hints;
    let mut score = 0.0;
    if let Some(rd) = hints.reduce_dim {
        if rd < shape.ndim() {
            // Larger extent on the reduced dimension is better.
            score -= 1e4 * (shape.dim(rd) as f64).log2();
        }
    }
    if !hints.shift_dims.is_empty() {
        // Close-to-square over all dimensions: penalize deviation from the
        // geometric mean extent.
        let target = (shape.num_elements() as f64).log2() / shape.ndim() as f64;
        let spread: f64 = (0..shape.ndim())
            .map(|d| ((shape.dim(d) as f64).log2() - target).abs())
            .sum();
        score += 1e2 * spread;
    }
    if !hints.broadcast_dims.is_empty() {
        // Smaller innermost tile spreads a broadcast source row across banks.
        score += (shape.dim(0) as f64).log2();
    }
    // Wasted bitlines: tile dimension larger than the array dimension.
    for d in 0..shape.ndim() {
        if shape.dim(d) > req.array_shape[d] {
            let waste = shape.dim(d) as f64 / req.array_shape[d].max(1) as f64;
            score += 1e6 * waste.log2();
        }
    }
    score
}

/// Picks the tile shape the runtime would use: the valid tiling with the lowest
/// [`tile_score`] (ties broken by enumeration order, which favours small `T0`).
///
/// # Errors
///
/// Returns [`GeomError::NoValidTiling`] if the array is not cache-line aligned
/// (`S0 mod L ≠ 0`) or no factorization satisfies the constraints — in either
/// case the array is left untransposed and in-memory computing is disabled for
/// the region, exactly as §4.1 prescribes.
pub fn pick_tile_shape(req: &TilingRequest) -> Result<TileShape, GeomError> {
    if !req.array_is_line_aligned() {
        return Err(GeomError::NoValidTiling {
            detail: format!(
                "array innermost dimension {} is not a multiple of {} elements per line",
                req.array_shape.first().copied().unwrap_or(0),
                req.line_elems()
            ),
        });
    }
    let candidates = valid_tilings(req);
    candidates
        .into_iter()
        .map(|s| (tile_score(&s, req), s))
        // Keep the FIRST minimum: `min_by` returns the last on ties, which
        // would silently break the documented enumeration-order tie-break
        // (and disagree with `TransposedLayout::plan`'s stable sort).
        .fold(None::<(f64, TileShape)>, |best, cand| match best {
            Some(b) if b.0 <= cand.0 => Some(b),
            _ => Some(cand),
        })
        .map(|(_, s)| s)
        .ok_or_else(|| GeomError::NoValidTiling {
            detail: format!(
                "no factorization of {} bitlines over {} dims satisfies T0*W % L == 0",
                req.bitlines,
                req.array_shape.len()
            ),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(shape: &[u64], hints: LayoutHints) -> TilingRequest {
        TilingRequest {
            array_shape: shape.to_vec(),
            elem_size: 4,
            bitlines: 256,
            arrays_per_bank: 16,
            line_bytes: 64,
            hints,
        }
    }

    #[test]
    fn line_elems_fp32() {
        assert_eq!(req(&[1024], LayoutHints::default()).line_elems(), 16);
    }

    #[test]
    fn enumerates_2d_factorizations_of_256() {
        let r = req(&[2048, 2048], LayoutHints::default());
        let tilings = valid_tilings(&r);
        // 256 = 2^8: divisors 1,2,4,...,256 -> 9 factor pairs.
        assert_eq!(tilings.len(), 9);
        assert!(tilings.contains(&TileShape::new(vec![16, 16]).unwrap()));
        assert!(tilings.contains(&TileShape::new(vec![1, 256]).unwrap()));
    }

    #[test]
    fn shift_hint_prefers_square() {
        // Fig 16: stencils/dwt2d pick 16x16 on 2D fp32 arrays with B=256.
        let r = req(&[2048, 2048], LayoutHints::shifts(&[0, 1]));
        assert_eq!(pick_tile_shape(&r).unwrap().dims(), &[16, 16]);
    }

    #[test]
    fn reduce_hint_prefers_large_reduced_dim() {
        // kmeans/in: reduced dimension of size 128 -> tile 2x128 so the whole
        // reduction finishes inside each SRAM array (Fig 16 discussion).
        let r = TilingRequest {
            array_shape: vec![32768, 128],
            hints: LayoutHints::reduction(1),
            ..req(&[0, 0], LayoutHints::default())
        };
        let t = pick_tile_shape(&r).unwrap();
        assert_eq!(t.dim(1), 128);
        assert_eq!(t.dim(0), 2);
    }

    #[test]
    fn broadcast_hint_prefers_small_innermost() {
        // gauss_elim/mm: broadcast reads favour a small T0 to avoid bank hotspots,
        // but never below what constraint 2 and the waste penalty allow.
        let r = req(&[2048, 2048], LayoutHints::broadcasts(&[0, 1]));
        let t = pick_tile_shape(&r).unwrap();
        assert_eq!(t.dim(0), 1);
        assert_eq!(t.dim(1), 256);
    }

    #[test]
    fn reduction_outranks_shift_and_broadcast() {
        let hints = LayoutHints {
            shift_dims: vec![0, 1],
            reduce_dim: Some(1),
            broadcast_dims: vec![0],
        };
        let r = req(&[2048, 2048], hints);
        let t = pick_tile_shape(&r).unwrap();
        assert_eq!(t.dim(1), 256, "reduction priority should dominate");
    }

    #[test]
    fn unaligned_array_has_no_tiling() {
        // S0 = 100 is not a multiple of L = 16.
        let r = req(&[100, 2048], LayoutHints::default());
        assert!(matches!(
            pick_tile_shape(&r),
            Err(GeomError::NoValidTiling { .. })
        ));
    }

    #[test]
    fn constraint2_filters_innermost_sizes() {
        // W = 1, L = 16: T0 must itself be a multiple of 16.
        let r = TilingRequest {
            arrays_per_bank: 1,
            ..req(&[2048, 2048], LayoutHints::default())
        };
        let tilings = valid_tilings(&r);
        assert!(!tilings.is_empty());
        assert!(tilings.iter().all(|t| t.dim(0) % 16 == 0));
    }

    #[test]
    fn waste_penalty_avoids_oversized_tiles() {
        // A 4-wide dim-1 array should not get a 256-tall tile on dim 1.
        let r = TilingRequest {
            array_shape: vec![4096, 4],
            hints: LayoutHints::reduction(1),
            ..req(&[0, 0], LayoutHints::default())
        };
        let t = pick_tile_shape(&r).unwrap();
        assert_eq!(t.dim(1), 4);
        assert_eq!(t.dim(0), 64);
    }

    #[test]
    fn all_valid_tilings_multiply_to_bitlines() {
        let r = req(&[512, 512, 16], LayoutHints::default());
        for t in valid_tilings(&r) {
            assert_eq!(t.num_elements(), 256);
        }
    }

    #[test]
    fn scalar_shape_has_no_tilings() {
        let r = req(&[], LayoutHints::default());
        assert!(valid_tilings(&r).is_empty());
        assert!(pick_tile_shape(&r).is_err());
    }
}
