use crate::{HwConfig, RuntimeError};
use infs_geom::layout::{pick_tile_shape, tile_score, valid_tilings, LayoutHints, TilingRequest};
use infs_geom::{HyperRect, TileAddr, TileGrid, TileShape};
use infs_tdfg::Tdfg;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// The transposed, tiled data layout of one region (paper §4.1, Table 1).
///
/// The layout tiles the region's *lattice space*: every lattice cell maps to a
/// `(bank, SRAM array, bitline)` triple through the [`TileGrid`], and each
/// array occupies its own wordline band within those arrays (assigned by the
/// static schedule). This is the information the hardware's layout override
/// table (LOT) holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransposedLayout {
    tile: TileShape,
    grid: TileGrid,
    lattice_shape: Vec<u64>,
    elem_bytes: u32,
}

impl TransposedLayout {
    /// Plans the layout for a region: evaluates every valid tile size under
    /// the §4.1 constraints in parallel and picks the best-scored feasible
    /// one (falling back to the next candidate when the best-scored tile has
    /// no feasible grid).
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::BadBounding`] — the lattice bounding box is not
    ///   origin-anchored (arrays are placed at the origin in this release).
    /// * [`RuntimeError::CapacityExceeded`] — more tiles than compute SRAM
    ///   arrays for every candidate: the working set must fit in L3 (§6).
    /// * [`RuntimeError::NoLayout`] — no tile size satisfies the constraints;
    ///   the caller must fall back to near-memory execution.
    pub fn plan(tdfg: &Tdfg, hints: &LayoutHints, hw: &HwConfig) -> Result<Self, RuntimeError> {
        let mut span = infs_trace::span!("runtime.layout_plan", nodes = tdfg.nodes().len());
        let request = Self::request(tdfg, hints, hw)?;
        let ranked = Self::rank(tdfg, &request, hw);
        span.arg("candidates", ranked.len());
        let mut first_err = None;
        for outcome in ranked {
            match outcome {
                Ok(layout) => return Ok(layout),
                Err(e) if first_err.is_none() => first_err = Some(e),
                Err(_) => {}
            }
        }
        // All candidates infeasible: report the best-scored one's failure
        // (e.g. CapacityExceeded when the region exceeds compute SRAM). No
        // candidate at all: pick_tile_shape's diagnostics say why (line
        // misalignment / no admissible factorization).
        Err(first_err
            .or_else(|| pick_tile_shape(&request).err().map(Into::into))
            .unwrap_or(RuntimeError::NoLayout(
                infs_geom::GeomError::NoValidTiling {
                    detail: "no feasible candidate tiling".to_string(),
                },
            )))
    }

    /// Plans the layout with an explicitly chosen tile shape — the oracle /
    /// sensitivity path behind the Fig 16/17 tile-size sweeps.
    ///
    /// # Errors
    ///
    /// As [`plan`](Self::plan), plus [`RuntimeError::NoLayout`] if the tile
    /// does not satisfy constraint 1 (`∏ Ti = B`).
    pub fn plan_with_tile(
        tdfg: &Tdfg,
        tile: TileShape,
        hw: &HwConfig,
    ) -> Result<Self, RuntimeError> {
        let _span = infs_trace::span!("runtime.layout_plan", explicit_tile = tile.to_string());
        if tile.num_elements() != hw.geometry.bitlines as u64 {
            return Err(RuntimeError::NoLayout(
                infs_geom::GeomError::NoValidTiling {
                    detail: format!(
                        "tile {tile} does not fill {} bitlines",
                        hw.geometry.bitlines
                    ),
                },
            ));
        }
        Self::with_tile_internal(tdfg, tile, hw)
    }

    /// The *feasible* candidate tiles for a region, best-scored first — the
    /// autotuner's tile-variant space (`DESIGN.md` §15).
    ///
    /// Unlike [`plan`](Self::plan), which commits to the first feasible
    /// candidate (the §4.1 argmax), this returns the whole ranked list:
    /// element 0 is exactly the tile `plan` would pick, and the tail is the
    /// score-ordered alternatives whose grids also build. The score is a
    /// static proxy for observed cycles, so a lower-ranked tile can win on
    /// the simulator — that gap is what feedback-directed tuning closes.
    ///
    /// Regions with no admissible candidate enumeration (line-misaligned
    /// arrays) return an empty list rather than an error: there is nothing
    /// to explore.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadBounding`] for a non-origin lattice.
    pub fn ranked_candidates(
        tdfg: &Tdfg,
        hints: &LayoutHints,
        hw: &HwConfig,
    ) -> Result<Vec<TileShape>, RuntimeError> {
        let request = Self::request(tdfg, hints, hw)?;
        Ok(Self::rank(tdfg, &request, hw)
            .into_iter()
            .filter_map(Result::ok)
            .map(|layout| layout.tile)
            .collect())
    }

    /// Every §4.1 candidate planned into a layout (or the reason it has
    /// none), best-scored first: the one ranking `plan` and
    /// `ranked_candidates` read. Candidates build their grids in parallel;
    /// the stable sort keeps enumeration order on score ties (the
    /// `pick_tile_shape` choice), and `total_cmp` keeps a NaN score from
    /// panicking a serve worker.
    fn rank(
        tdfg: &Tdfg,
        request: &TilingRequest,
        hw: &HwConfig,
    ) -> Vec<Result<Self, RuntimeError>> {
        if !request.array_is_line_aligned() {
            return Vec::new();
        }
        let mut evaluated: Vec<(f64, Result<Self, RuntimeError>)> = valid_tilings(request)
            .into_par_iter()
            .map(|tile| {
                let score = tile_score(&tile, request);
                (score, Self::with_tile_internal(tdfg, tile, hw))
            })
            .collect();
        evaluated.sort_by(|a, b| a.0.total_cmp(&b.0));
        evaluated.into_iter().map(|(_, layout)| layout).collect()
    }

    /// All tile shapes the constraint solver admits for this region — what
    /// [`plan`](Self::plan) picks from, so none when the lattice is not
    /// line-aligned. The simulated machine keeps a tile its operands are
    /// already resident in only if it is one of these.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadBounding`] for a non-origin lattice.
    pub fn candidate_tiles(tdfg: &Tdfg, hw: &HwConfig) -> Result<Vec<TileShape>, RuntimeError> {
        let request = Self::request(tdfg, &LayoutHints::default(), hw)?;
        Ok(if request.array_is_line_aligned() {
            valid_tilings(&request)
        } else {
            Vec::new()
        })
    }

    fn request(
        tdfg: &Tdfg,
        hints: &LayoutHints,
        hw: &HwConfig,
    ) -> Result<TilingRequest, RuntimeError> {
        let shape = Self::lattice_shape_of(tdfg)?;
        Ok(TilingRequest {
            array_shape: shape,
            elem_size: tdfg.dtype().size_bytes(),
            bitlines: hw.geometry.bitlines as u64,
            arrays_per_bank: hw.arrays_per_bank,
            line_bytes: hw.line_bytes,
            hints: hints.clone(),
        })
    }

    /// The origin-anchored lattice shape planning derives from a graph's
    /// *touched* region — everything [`plan`](Self::plan) reads from the
    /// graph besides dtype and hints. Public so callers can key layout caches
    /// and template signatures on it without planning.
    pub fn lattice_shape_for(tdfg: &Tdfg) -> Result<Vec<u64>, RuntimeError> {
        Self::lattice_shape_of(tdfg)
    }

    fn lattice_shape_of(tdfg: &Tdfg) -> Result<Vec<u64>, RuntimeError> {
        // The §3.2 bounding rectangle spans the full lattice boxes of every
        // referenced array, so a region writing `C[m][..]` drags it to
        // `[-m, ..)` even though every command it emits is origin-anchored.
        // In dimensions where the array boxes stay origin-anchored we keep
        // their extent (the natural, line-aligned lattice). In dimensions
        // dragged negative by an aligned write offset, we fall back to the
        // *touched* region — the union of finite node domains and output
        // rects, i.e. the cells actually resident in compute SRAM. That keeps
        // shifted instances feasible and shape-identical, which is what lets
        // them share one command template.
        let b = tdfg.bounding();
        if (0..b.ndim()).all(|d| b.interval(d).0 >= 0) {
            return Ok((0..b.ndim()).map(|d| b.interval(d).1 as u64).collect());
        }
        let mut touched: Option<HyperRect> = None;
        let mut extend = |r: &HyperRect| -> Result<(), RuntimeError> {
            touched = Some(match touched.take() {
                Some(t) => t
                    .bounding(r)
                    .map_err(|e| RuntimeError::BadBounding(e.to_string()))?,
                None => r.clone(),
            });
            Ok(())
        };
        for i in 0..tdfg.nodes().len() {
            if let Some(d) = tdfg.domain(infs_tdfg::NodeId(i as u32)) {
                extend(d)?;
            }
        }
        for out in tdfg.outputs() {
            if let infs_tdfg::OutputTarget::Array { rect, .. } = &out.target {
                extend(rect)?;
            }
        }
        let t = touched.ok_or_else(|| {
            RuntimeError::BadBounding("region touches no finite lattice cells".to_string())
        })?;
        let mut shape = Vec::with_capacity(b.ndim());
        for d in 0..b.ndim() {
            let (bp, bq) = b.interval(d);
            if bp >= 0 {
                // Origin-anchored array boxes: keep the full (aligned) extent,
                // mapping cells [0, bq) even if the region only touches part.
                shape.push(bq as u64);
                continue;
            }
            let (tp, tq) = t.interval(d);
            if tp < 0 {
                return Err(RuntimeError::BadBounding(format!(
                    "touched region {t} starts before the origin in dim {d}"
                )));
            }
            shape.push(tq as u64);
        }
        Ok(shape)
    }

    fn with_tile_internal(
        tdfg: &Tdfg,
        tile: TileShape,
        hw: &HwConfig,
    ) -> Result<Self, RuntimeError> {
        let lattice_shape = Self::lattice_shape_of(tdfg)?;
        let grid = TileGrid::new(
            tile.clone(),
            lattice_shape.clone(),
            hw.n_banks,
            hw.arrays_per_bank,
        )
        .map_err(RuntimeError::NoLayout)?;
        let capacity = hw.n_banks as u64 * hw.arrays_per_bank as u64;
        if grid.num_tiles() > capacity {
            return Err(RuntimeError::CapacityExceeded {
                required: grid.num_tiles() * hw.geometry.size_bytes(),
                available: capacity * hw.geometry.size_bytes(),
            });
        }
        Ok(TransposedLayout {
            tile,
            grid,
            lattice_shape,
            elem_bytes: tdfg.dtype().size_bytes(),
        })
    }

    /// The chosen tile shape.
    pub fn tile(&self) -> &TileShape {
        &self.tile
    }

    /// The lattice tile grid (cell → bank/array/bitline mapping).
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Lattice extents, dimension 0 first.
    pub fn lattice_shape(&self) -> &[u64] {
        &self.lattice_shape
    }

    /// Element size in bytes.
    pub fn elem_bytes(&self) -> u32 {
        self.elem_bytes
    }

    /// Physical placement of a lattice cell.
    ///
    /// Returns `Ok(None)` for points outside the lattice.
    ///
    /// # Errors
    ///
    /// Propagates [`infs_geom::GeomError::IndexOverflow`] (as
    /// [`RuntimeError::NoLayout`]) if the cell's physical indices do not fit
    /// the `u32` fields of [`TileAddr`].
    pub fn locate(&self, point: &[i64]) -> Result<Option<TileAddr>, RuntimeError> {
        Ok(self.grid.locate(point)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
    use infs_sdfg::DataType;

    fn stencil2d_tdfg(n: u64) -> Tdfg {
        let mut k = KernelBuilder::new("stencil2d", DataType::F32);
        let a = k.array("A", vec![n, n]);
        let b = k.array("B", vec![n, n]);
        let i = k.parallel_loop("i", 1, n as i64 - 1);
        let j = k.parallel_loop("j", 1, n as i64 - 1);
        let e = ScalarExpr::add(
            ScalarExpr::add(
                ScalarExpr::load(a, vec![Idx::var_plus(i, -1), Idx::var(j)]),
                ScalarExpr::load(a, vec![Idx::var_plus(i, 1), Idx::var(j)]),
            ),
            ScalarExpr::add(
                ScalarExpr::load(a, vec![Idx::var(i), Idx::var_plus(j, -1)]),
                ScalarExpr::load(a, vec![Idx::var(i), Idx::var_plus(j, 1)]),
            ),
        );
        k.assign(b, vec![Idx::var(i), Idx::var(j)], e);
        k.build().unwrap().tensorize(&[]).unwrap()
    }

    #[test]
    fn plan_picks_square_tiles_for_shifts() {
        let g = stencil2d_tdfg(512);
        let hw = HwConfig::default();
        let layout = TransposedLayout::plan(&g, &g.layout_hints(), &hw).unwrap();
        assert_eq!(layout.tile().dims(), &[16, 16]);
        assert_eq!(layout.lattice_shape(), &[512, 512]);
        assert_eq!(layout.grid().num_tiles(), 32 * 32);
    }

    #[test]
    fn plan_with_explicit_tile() {
        let g = stencil2d_tdfg(512);
        let hw = HwConfig::default();
        let t = TileShape::new(vec![64, 4]).unwrap();
        let layout = TransposedLayout::plan_with_tile(&g, t, &hw).unwrap();
        assert_eq!(layout.tile().dims(), &[64, 4]);
        let bad = TileShape::new(vec![64, 64]).unwrap();
        assert!(TransposedLayout::plan_with_tile(&g, bad, &hw).is_err());
    }

    #[test]
    fn candidate_tiles_enumerate_factorizations() {
        let g = stencil2d_tdfg(512);
        let tiles = TransposedLayout::candidate_tiles(&g, &HwConfig::default()).unwrap();
        assert_eq!(tiles.len(), 9); // 2^8 factor pairs
    }

    #[test]
    fn capacity_guard() {
        let g = stencil2d_tdfg(4096); // 16M cells / 256 = 64k tiles > 16k arrays
        let hw = HwConfig::default();
        assert!(matches!(
            TransposedLayout::plan(&g, &g.layout_hints(), &hw),
            Err(RuntimeError::CapacityExceeded { .. })
        ));
    }

    /// One matmul inner-product row: `C[m][n] = Σ_k buf[k]·B[k][n]` with a
    /// symbolic output row `m`. The §3.2 bounding rectangle is `[-m, N)` in
    /// dim 0 (it spans C's full lattice box shifted by the write offset), but
    /// every node domain and output rect is origin-anchored.
    fn mm_row_tdfg(n: u64, m: i64) -> Tdfg {
        let mut k = KernelBuilder::new("mm_row", DataType::F32);
        let _a = k.array("A", vec![n, n]);
        let b = k.array("B", vec![n, n]);
        let c = k.array("C", vec![n, n]);
        let buf = k.array("buf", vec![n, 1]);
        let mm = k.sym("m");
        let kk = k.parallel_loop("k", 0, n as i64);
        let nn = k.parallel_loop("n", 0, n as i64);
        let prod = ScalarExpr::mul(
            ScalarExpr::load(buf, vec![Idx::var(kk), Idx::constant(0)]),
            ScalarExpr::load(b, vec![Idx::var(kk), Idx::var(nn)]),
        );
        k.assign_reduced(
            c,
            vec![Idx::sym(mm), Idx::var(nn)],
            prod,
            vec![(kk, infs_sdfg::ReduceOp::Sum)],
        );
        k.build().unwrap().tensorize(&[m]).unwrap()
    }

    #[test]
    fn shifted_output_rows_plan_and_share_a_lattice() {
        let hw = HwConfig::default();
        let base = mm_row_tdfg(512, 0);
        let shape = TransposedLayout::lattice_shape_for(&base).unwrap();
        assert_eq!(shape, vec![512, 512]);
        for m in [1i64, 5, 511] {
            let g = mm_row_tdfg(512, m);
            assert!(g.bounding().interval(0).0 == -m, "bounding drags to -m");
            let s = TransposedLayout::lattice_shape_for(&g).unwrap();
            assert_eq!(s, shape, "row {m} must share the row-0 lattice");
            let layout = TransposedLayout::plan(&g, &g.layout_hints(), &hw).unwrap();
            assert_eq!(layout.lattice_shape(), &shape[..]);
        }
    }

    #[test]
    fn locate_roundtrip() {
        let g = stencil2d_tdfg(512);
        let hw = HwConfig::default();
        let layout = TransposedLayout::plan(&g, &g.layout_hints(), &hw).unwrap();
        let addr = layout.locate(&[17, 3]).unwrap().unwrap();
        // Tile coordinates (1, 0) on the 32-wide tile grid.
        assert_eq!(addr.tile, 1);
        assert!(addr.bitline < 256);
        assert!(layout.locate(&[512, 0]).unwrap().is_none());
    }
}
