use crate::{GeomError, HyperRect};
use serde::{Deserialize, Serialize};

/// The tile dimensions of a transposed array: the data dimensions mapped to one
/// SRAM array (paper §4.1).
///
/// A tile of shape `T0 × … × TN-1` occupies all `B` bitlines of one SRAM array
/// (constraint 1: `∏ Ti = B`), with elements linearized dimension-0-fastest so that
/// the mapping between physical addresses and bitlines stays simple.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileShape {
    dims: Vec<u64>,
}

impl TileShape {
    /// Creates a tile shape from per-dimension sizes.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::ZeroTile`] if any dimension is zero.
    pub fn new(dims: Vec<u64>) -> Result<Self, GeomError> {
        if dims.contains(&0) {
            return Err(GeomError::ZeroTile);
        }
        Ok(TileShape { dims })
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension sizes, innermost first.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Size along one dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= self.ndim()`.
    pub fn dim(&self, dim: usize) -> u64 {
        self.dims[dim]
    }

    /// Total elements per tile (`∏ Ti`); equals the bitline count when the §4.1
    /// constraints hold.
    pub fn num_elements(&self) -> u64 {
        self.dims.iter().product()
    }
}

impl std::fmt::Display for TileShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let strs: Vec<String> = self.dims.iter().map(|d| d.to_string()).collect();
        write!(f, "{}", strs.join("x"))
    }
}

/// Physical placement of one array element under the transposed, tiled layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileAddr {
    /// Linear tile index (dimension-0-fastest tile order).
    pub tile: u64,
    /// L3 bank owning the tile.
    pub bank: u32,
    /// SRAM array slot within the bank's compute ways.
    pub array_slot: u32,
    /// Bitline within the SRAM array.
    pub bitline: u32,
}

/// The tiled layout of one array: how lattice cells map to tiles, banks, SRAM
/// array slots and bitlines.
///
/// Tiles are linearized dimension-0-fastest. Runs of `arrays_per_bank` (the
/// paper's `W`) consecutive tiles are placed in the same L3 bank — this is what
/// makes constraint 2 of §4.1 (`T0 × W mod L = 0`) guarantee that a transposed
/// cache line lands in exactly one bank. Banks are filled round-robin, wrapping
/// to the next array slot once all banks hold a run.
///
/// # Example
///
/// ```
/// use infs_geom::{TileGrid, TileShape};
///
/// // Fig 9: 4x4 array, 2x2 tiles, 2 banks, 2 compute arrays per bank.
/// let grid = TileGrid::new(
///     TileShape::new(vec![2, 2]).unwrap(),
///     vec![4, 4],
///     2, // banks
///     2, // arrays per bank... per Fig 9's miniature system
/// ).unwrap();
/// assert_eq!(grid.num_tiles(), 4);
/// // Element (2, 0) is in tile 1, which lives in bank 0's second array slot.
/// let addr = grid.locate(&[2, 0]).unwrap().unwrap();
/// assert_eq!((addr.tile, addr.bank, addr.array_slot), (1, 0, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileGrid {
    tile: TileShape,
    array_shape: Vec<u64>,
    tiles_per_dim: Vec<u64>,
    num_banks: u32,
    arrays_per_bank: u32,
}

impl TileGrid {
    /// Creates the layout of `array_shape` under `tile`-sized tiles across
    /// `num_banks` L3 banks with `arrays_per_bank` compute SRAM arrays each.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::DimMismatch`] if the tile and array dimensionalities
    /// differ.
    pub fn new(
        tile: TileShape,
        array_shape: Vec<u64>,
        num_banks: u32,
        arrays_per_bank: u32,
    ) -> Result<Self, GeomError> {
        if tile.ndim() != array_shape.len() {
            return Err(GeomError::DimMismatch {
                lhs: tile.ndim(),
                rhs: array_shape.len(),
            });
        }
        let tiles_per_dim = array_shape
            .iter()
            .zip(tile.dims())
            .map(|(&s, &t)| s.div_ceil(t))
            .collect();
        Ok(TileGrid {
            tile,
            array_shape,
            tiles_per_dim,
            num_banks: num_banks.max(1),
            arrays_per_bank: arrays_per_bank.max(1),
        })
    }

    /// The tile shape.
    pub fn tile(&self) -> &TileShape {
        &self.tile
    }

    /// Shape of the tiled array.
    pub fn array_shape(&self) -> &[u64] {
        &self.array_shape
    }

    /// Number of tiles along each dimension (boundary tiles included).
    pub fn tiles_per_dim(&self) -> &[u64] {
        &self.tiles_per_dim
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> u64 {
        self.tiles_per_dim.iter().product()
    }

    /// Number of L3 banks the layout spreads over.
    pub fn num_banks(&self) -> u32 {
        self.num_banks
    }

    /// Compute SRAM arrays per bank (the paper's `W`): the length of a bank's
    /// run of consecutive tiles.
    pub fn arrays_per_bank(&self) -> u32 {
        self.arrays_per_bank
    }

    /// Tile coordinate of a lattice point (which tile the point falls in).
    ///
    /// Returns `None` if the point lies outside the array bounds.
    pub fn tile_coord(&self, point: &[i64]) -> Option<Vec<u64>> {
        if point.len() != self.tile.ndim() {
            return None;
        }
        let mut coord = Vec::with_capacity(point.len());
        for (d, &x) in point.iter().enumerate() {
            if x < 0 || x as u64 >= self.array_shape[d] {
                return None;
            }
            coord.push(x as u64 / self.tile.dim(d));
        }
        Some(coord)
    }

    /// Linear tile index of a tile coordinate (dimension-0-fastest).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of the tile grid.
    pub fn tile_index(&self, coord: &[u64]) -> u64 {
        assert_eq!(coord.len(), self.tiles_per_dim.len());
        let mut idx = 0;
        let mut stride = 1;
        for (d, &c) in coord.iter().enumerate() {
            assert!(
                c < self.tiles_per_dim[d],
                "tile coordinate {c} out of range in dimension {d}"
            );
            idx += c * stride;
            stride *= self.tiles_per_dim[d];
        }
        idx
    }

    /// Inverse of [`tile_index`](Self::tile_index).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_tiles()`.
    pub fn tile_coord_of_index(&self, index: u64) -> Vec<u64> {
        assert!(index < self.num_tiles());
        let mut rem = index;
        let mut coord = Vec::with_capacity(self.tiles_per_dim.len());
        for &n in &self.tiles_per_dim {
            coord.push(rem % n);
            rem /= n;
        }
        coord
    }

    /// The lattice-space rectangle covered by a tile (clipped to array bounds).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_tiles()`.
    pub fn tile_rect(&self, index: u64) -> HyperRect {
        let coord = self.tile_coord_of_index(index);
        let intervals = coord
            .iter()
            .enumerate()
            .map(|(d, &c)| {
                let p = (c * self.tile.dim(d)) as i64;
                let q = ((c + 1) * self.tile.dim(d)).min(self.array_shape[d]) as i64;
                (p, q)
            })
            .collect();
        HyperRect::new(intervals).expect("tile rectangles are well formed")
    }

    /// L3 bank owning a tile: runs of `arrays_per_bank` consecutive tiles per bank,
    /// banks round-robin.
    pub fn bank_of_tile(&self, index: u64) -> u32 {
        ((index / self.arrays_per_bank as u64) % self.num_banks as u64) as u32
    }

    /// SRAM array slot of a tile within its bank.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::IndexOverflow`] if the slot index does not fit the
    /// `u32` field of [`TileAddr`] (grids that large never satisfy the capacity
    /// checks upstream, but a hand-built or deserialized grid can ask).
    pub fn array_slot_of_tile(&self, index: u64) -> Result<u32, GeomError> {
        let w = self.arrays_per_bank as u64;
        let round = index / (w * self.num_banks as u64);
        let slot = round * w + index % w;
        u32::try_from(slot).map_err(|_| GeomError::IndexOverflow {
            what: "array slot",
            value: slot,
        })
    }

    /// Bitline of a lattice point within its tile (dimension-0-fastest within the
    /// *full* tile extent, so boundary tiles leave trailing bitlines unused).
    ///
    /// Returns `Ok(None)` if the point is outside the array.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::IndexOverflow`] if the within-tile index does not
    /// fit the `u32` field of [`TileAddr`] (i.e. the tile holds more than
    /// `u32::MAX` elements — far beyond any real SRAM geometry).
    pub fn bitline(&self, point: &[i64]) -> Result<Option<u32>, GeomError> {
        let Some(tile_coord) = self.tile_coord(point) else {
            return Ok(None);
        };
        let mut idx = 0u64;
        let mut stride = 1u64;
        for (d, &x) in point.iter().enumerate() {
            let within = x as u64 - tile_coord[d] * self.tile.dim(d);
            idx = idx.saturating_add(within.saturating_mul(stride));
            stride = stride.saturating_mul(self.tile.dim(d));
        }
        u32::try_from(idx)
            .map(Some)
            .map_err(|_| GeomError::IndexOverflow {
                what: "bitline",
                value: idx,
            })
    }

    /// Full physical placement of a lattice point.
    ///
    /// Returns `Ok(None)` if the point is outside the array.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::IndexOverflow`] if the array slot or bitline does
    /// not fit the `u32` fields of [`TileAddr`].
    pub fn locate(&self, point: &[i64]) -> Result<Option<TileAddr>, GeomError> {
        let Some(coord) = self.tile_coord(point) else {
            return Ok(None);
        };
        let tile = self.tile_index(&coord);
        let Some(bitline) = self.bitline(point)? else {
            return Ok(None);
        };
        Ok(Some(TileAddr {
            tile,
            bank: self.bank_of_tile(tile),
            array_slot: self.array_slot_of_tile(tile)?,
            bitline,
        }))
    }

    /// Visits every tile overlapping `rect` (clipped to the array) without
    /// allocating per tile: `visit(tile_index, tile_coord, intersection)`,
    /// where `intersection[d]` is the `[p, q)` interval along dimension `d` of
    /// the tile's rectangle intersected with `rect` — so the overlap holds
    /// `∏ (q - p)` elements.
    ///
    /// Tiles are visited in ascending linear index (dimension 0 fastest). The
    /// order is part of the contract: `tiles_overlapping` returns it, and
    /// [`for_each_run`](Self::for_each_run) expands to exactly this sequence.
    ///
    /// A rectangle of the wrong dimensionality, an empty one, or one entirely
    /// outside the array visits nothing.
    pub fn for_each_overlap(
        &self,
        rect: &HyperRect,
        mut visit: impl FnMut(u64, &[u64], &[(i64, i64)]),
    ) {
        self.walk(rect, false, &mut |tile, _, coord, inter| {
            visit(tile, coord, inter)
        });
    }

    /// Visits the tiles overlapping `rect` (clipped to the array) in *runs*:
    /// `visit(first_tile, n, coord, intersection)` stands for the tiles
    /// `first_tile .. first_tile + n`, which sit in one L3 bank and overlap
    /// `rect` identically relative to their tile. `coord` and
    /// `intersection` are those of the first tile; tile `first_tile + k`
    /// has coordinate `coord[r] + k` along the run dimension `r` and its
    /// intersection is shifted by `k` tiles along it.
    ///
    /// The run dimension is the lowest one with more than one tile in the
    /// grid, so its linear-index stride is 1. Along it, a partial first
    /// tile, a partial last tile and an array-edge tile are each a run of
    /// one; the tiles between form one run, split wherever the index
    /// crosses a multiple of `arrays_per_bank` (a bank boundary). Runs come
    /// in ascending index, and expanding them tile by tile gives exactly
    /// [`for_each_overlap`](Self::for_each_overlap)'s sequence.
    pub fn for_each_run(
        &self,
        rect: &HyperRect,
        mut visit: impl FnMut(u64, u64, &[u64], &[(i64, i64)]),
    ) {
        self.walk(rect, true, &mut visit);
    }

    /// The dimension [`for_each_run`](Self::for_each_run) runs along: the
    /// lowest one with more than one tile (0 for a grid of one tile). Every
    /// dimension below it has a single tile, so its stride is 1.
    pub fn run_dim(&self) -> usize {
        self.tiles_per_dim.iter().position(|&n| n > 1).unwrap_or(0)
    }

    /// Allocates the walk's scratch (on the stack up to [`INLINE_DIMS`]
    /// dimensions) and runs the odometer, in runs or tile by tile.
    fn walk(
        &self,
        rect: &HyperRect,
        runs: bool,
        visit: &mut impl FnMut(u64, u64, &[u64], &[(i64, i64)]),
    ) {
        let n = self.tile.ndim();
        if rect.ndim() != n {
            return;
        }
        if n <= INLINE_DIMS {
            let mut axes = [Axis::default(); INLINE_DIMS];
            let mut coord = [0u64; INLINE_DIMS];
            let mut inter = [(0i64, 0i64); INLINE_DIMS];
            self.odometer(
                rect,
                runs,
                &mut axes[..n],
                &mut coord[..n],
                &mut inter[..n],
                visit,
            );
        } else {
            self.odometer(
                rect,
                runs,
                &mut vec![Axis::default(); n],
                &mut vec![0; n],
                &mut vec![(0, 0); n],
                visit,
            );
        }
    }

    /// The odometer behind both visitors, over caller-provided scratch (one
    /// slot per dimension): the run dimension is walked innermost, in runs
    /// (`runs`) or one tile at a time, and the dimensions above it advance
    /// like an odometer, the lowest fastest. Dimensions below the run
    /// dimension hold one tile each and never move.
    fn odometer(
        &self,
        rect: &HyperRect,
        runs: bool,
        axes: &mut [Axis],
        coord: &mut [u64],
        inter: &mut [(i64, i64)],
        visit: &mut impl FnMut(u64, u64, &[u64], &[(i64, i64)]),
    ) {
        // Linear index of the tile at `coord`, with `coord[r]` at its low end.
        let mut index = 0u64;
        let mut stride = 1u64;
        for (d, axis) in axes.iter_mut().enumerate() {
            let (rp, rq) = rect.interval(d);
            let p = rp.max(0);
            let q = rq.min(self.array_shape[d] as i64);
            if p >= q {
                return;
            }
            let t = self.tile.dim(d) as i64;
            *axis = Axis {
                lo: (p / t) as u64,
                hi: ((q - 1) / t) as u64 + 1,
                stride,
                p,
                q,
                t,
            };
            coord[d] = axis.lo;
            inter[d] = axis.clip(axis.lo);
            index += axis.lo * stride;
            stride *= self.tiles_per_dim[d];
        }
        let r = self.run_dim();
        let run = axes[r];
        // Tiles `[full_lo, full_hi)` along the run dimension overlap `rect`
        // over their whole extent; only the first and last can fall short.
        let full = |c: u64| run.clip(c) == (c as i64 * run.t, (c as i64 + 1) * run.t);
        let full_lo = if full(run.lo) { run.lo } else { run.lo + 1 };
        let full_hi = if full(run.hi - 1) { run.hi } else { run.hi - 1 };
        let w = self.arrays_per_bank as u64;
        loop {
            let mut c = run.lo;
            while c < run.hi {
                let tile = index + (c - run.lo);
                let n = if runs && full_lo <= c && c < full_hi {
                    (full_hi - c).min(w - tile % w)
                } else {
                    1
                };
                coord[r] = c;
                inter[r] = run.clip(c);
                visit(tile, n, coord, inter);
                c += n;
            }
            // Advance the coordinate above the run dimension, the lowest
            // fastest; a dimension that runs off its range rewinds and
            // carries into the next.
            let mut d = r + 1;
            loop {
                let Some(axis) = axes.get(d) else {
                    return;
                };
                if coord[d] + 1 < axis.hi {
                    coord[d] += 1;
                    index += axis.stride;
                    inter[d] = axis.clip(coord[d]);
                    break;
                }
                index -= (coord[d] - axis.lo) * axis.stride;
                coord[d] = axis.lo;
                inter[d] = axis.clip(axis.lo);
                d += 1;
            }
        }
    }

    /// Linear tile indices of all tiles overlapping `rect` (clipped to the
    /// array), ascending.
    pub fn tiles_overlapping(&self, rect: &HyperRect) -> Vec<u64> {
        let mut tiles = Vec::new();
        self.for_each_overlap(rect, |tile, _, _| tiles.push(tile));
        tiles
    }
}

/// Dimensionalities up to this walk tile overlaps and rectangle rows entirely
/// on the stack; higher ones (none in the paper's workloads) take one scratch
/// allocation per walk.
pub(crate) const INLINE_DIMS: usize = 8;

/// One dimension of a tile-overlap walk: the tile-coordinate range `[lo, hi)`
/// the clipped rectangle interval `[p, q)` touches, the linear-index stride
/// of the dimension, and the tile size `t`.
#[derive(Debug, Clone, Copy, Default)]
struct Axis {
    lo: u64,
    hi: u64,
    stride: u64,
    p: i64,
    q: i64,
    t: i64,
}

impl Axis {
    /// The clipped rectangle interval intersected with tile coordinate `c`.
    fn clip(&self, c: u64) -> (i64, i64) {
        let base = c as i64 * self.t;
        (self.p.max(base), self.q.min(base + self.t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fig9_grid() -> TileGrid {
        TileGrid::new(TileShape::new(vec![2, 2]).unwrap(), vec![4, 4], 2, 2).unwrap()
    }

    #[test]
    fn tile_shape_rejects_zero() {
        assert_eq!(TileShape::new(vec![2, 0]).unwrap_err(), GeomError::ZeroTile);
    }

    #[test]
    fn fig9_tile_indices() {
        let g = fig9_grid();
        assert_eq!(g.num_tiles(), 4);
        // Tile order dim0-fastest: tile 0 = [0,2)x[0,2), tile 1 = [2,4)x[0,2),
        // tile 2 = [0,2)x[2,4), tile 3 = [2,4)x[2,4).
        assert_eq!(
            g.tile_rect(1),
            HyperRect::new(vec![(2, 4), (0, 2)]).unwrap()
        );
        assert_eq!(
            g.tile_rect(2),
            HyperRect::new(vec![(0, 2), (2, 4)]).unwrap()
        );
    }

    #[test]
    fn fig9_bank_assignment() {
        // W=2: tiles {0,1} -> bank 0, tiles {2,3} -> bank 1 (Fig 9: tile 0,2 in
        // bank 0? The figure places tiles 0/2 in bank 0 and 1/3 in bank 1 via a
        // different interleave; our contiguous-run policy keeps constraint 2's
        // cache-line property which is what matters architecturally).
        let g = fig9_grid();
        assert_eq!(g.bank_of_tile(0), 0);
        assert_eq!(g.bank_of_tile(1), 0);
        assert_eq!(g.bank_of_tile(2), 1);
        assert_eq!(g.bank_of_tile(3), 1);
        assert_eq!(g.array_slot_of_tile(0), Ok(0));
        assert_eq!(g.array_slot_of_tile(1), Ok(1));
        assert_eq!(g.array_slot_of_tile(2), Ok(0));
    }

    #[test]
    fn array_slot_wraps_after_all_banks() {
        // 8 tiles over 2 banks x 2 arrays: tiles 4..8 use slots 2..4.
        let g = TileGrid::new(TileShape::new(vec![2]).unwrap(), vec![16], 2, 2).unwrap();
        assert_eq!(g.num_tiles(), 8);
        assert_eq!(g.bank_of_tile(4), 0);
        assert_eq!(g.array_slot_of_tile(4), Ok(2));
        assert_eq!(g.array_slot_of_tile(7), Ok(3));
    }

    #[test]
    fn array_slot_overflow_is_typed_not_truncated() {
        // One bank, one array per bank: slot == tile index, so indices near
        // u32::MAX exercise the boundary exactly. Before the checked
        // conversion, slot u32::MAX + 1 silently truncated to 0.
        let g = TileGrid::new(TileShape::new(vec![1]).unwrap(), vec![u64::MAX], 1, 1).unwrap();
        assert_eq!(g.array_slot_of_tile(u32::MAX as u64 - 1), Ok(u32::MAX - 1));
        assert_eq!(g.array_slot_of_tile(u32::MAX as u64), Ok(u32::MAX));
        assert_eq!(
            g.array_slot_of_tile(u32::MAX as u64 + 1),
            Err(GeomError::IndexOverflow {
                what: "array slot",
                value: u32::MAX as u64 + 1,
            })
        );
    }

    #[test]
    fn bitline_overflow_is_typed_not_truncated() {
        // A (physically absurd) tile holding more than u32::MAX elements: the
        // within-tile index of a point past the boundary must error rather
        // than wrap. Line index u32::MAX is the last addressable bitline.
        let n = u32::MAX as u64 + 2;
        let g = TileGrid::new(TileShape::new(vec![n]).unwrap(), vec![n], 1, 1).unwrap();
        assert_eq!(g.bitline(&[u32::MAX as i64]), Ok(Some(u32::MAX)));
        assert_eq!(
            g.bitline(&[u32::MAX as i64 + 1]),
            Err(GeomError::IndexOverflow {
                what: "bitline",
                value: u32::MAX as u64 + 1,
            })
        );
        assert!(g.locate(&[u32::MAX as i64 + 1]).is_err());
    }

    #[test]
    fn bitline_dim0_fastest() {
        let g = fig9_grid();
        assert_eq!(g.bitline(&[0, 0]), Ok(Some(0)));
        assert_eq!(g.bitline(&[1, 0]), Ok(Some(1)));
        assert_eq!(g.bitline(&[0, 1]), Ok(Some(2)));
        assert_eq!(g.bitline(&[3, 3]), Ok(Some(3)));
        assert_eq!(g.bitline(&[4, 0]), Ok(None));
    }

    #[test]
    fn boundary_tiles_clip_to_array() {
        let g = TileGrid::new(TileShape::new(vec![4]).unwrap(), vec![10], 4, 4).unwrap();
        assert_eq!(g.num_tiles(), 3);
        assert_eq!(g.tile_rect(2), HyperRect::new(vec![(8, 10)]).unwrap());
    }

    #[test]
    fn tiles_overlapping_subregion() {
        let g = fig9_grid();
        let r = HyperRect::new(vec![(1, 3), (0, 2)]).unwrap();
        assert_eq!(g.tiles_overlapping(&r), vec![0, 1]);
        let all = HyperRect::new(vec![(0, 4), (0, 4)]).unwrap();
        assert_eq!(g.tiles_overlapping(&all), vec![0, 1, 2, 3]);
        let out = HyperRect::new(vec![(4, 8), (0, 4)]).unwrap();
        assert!(g.tiles_overlapping(&out).is_empty());
    }

    #[test]
    fn for_each_overlap_beyond_inline_dims() {
        // Nine dimensions take the heap-scratch walk; it must visit like the
        // stack one: ascending index, each tile's own coordinate and overlap.
        let g = TileGrid::new(TileShape::new(vec![2; 9]).unwrap(), vec![3; 9], 4, 2).unwrap();
        let rect = HyperRect::new(vec![(1, 3); 9]).unwrap();
        let mut visited = Vec::new();
        g.for_each_overlap(&rect, |tile, coord, inter| {
            assert_eq!(coord, g.tile_coord_of_index(tile));
            let overlap = g.tile_rect(tile).intersect(&rect).unwrap().unwrap();
            assert_eq!(inter, overlap.intervals());
            visited.push(tile);
        });
        assert_eq!(visited, (0..g.num_tiles()).collect::<Vec<_>>());
    }

    proptest! {
        /// locate() agrees with tile_rect(): a point's tile rectangle contains it.
        #[test]
        fn prop_locate_consistent(
            x in 0i64..32, y in 0i64..32,
            tx in 1u64..5, ty in 1u64..5,
        ) {
            let g = TileGrid::new(
                TileShape::new(vec![tx, ty]).unwrap(),
                vec![32, 32], 4, 4,
            ).unwrap();
            let addr = g.locate(&[x, y]).unwrap().unwrap();
            let rect = g.tile_rect(addr.tile);
            prop_assert!(rect.contains(&[x, y]));
            prop_assert!((addr.bitline as u64) < tx * ty);
        }

        /// Tile index round-trips through coordinates.
        #[test]
        fn prop_tile_index_roundtrip(tx in 1u64..5, ty in 1u64..5, tz in 1u64..5) {
            let g = TileGrid::new(
                TileShape::new(vec![tx, ty, tz]).unwrap(),
                vec![16, 16, 16], 8, 4,
            ).unwrap();
            for i in 0..g.num_tiles() {
                prop_assert_eq!(g.tile_index(&g.tile_coord_of_index(i)), i);
            }
        }
    }
}
