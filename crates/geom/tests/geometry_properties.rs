//! Cross-module property tests for the geometry substrate: rectangle algebra,
//! tile-grid consistency, and the §4.1 tiling constraints.

use infs_geom::layout::{pick_tile_shape, tile_score, valid_tilings, LayoutHints, TilingRequest};
use infs_geom::{decompose, HyperRect, TileGrid, TileShape};
use proptest::prelude::*;

fn arb_rect(ndim: usize, max: i64) -> impl Strategy<Value = HyperRect> {
    proptest::collection::vec((-max..max, 0i64..max), ndim)
        .prop_map(|iv| HyperRect::new(iv.into_iter().map(|(p, l)| (p, p + l)).collect()).unwrap())
}

/// The enumeration `TileGrid::tiles_overlapping` used before it became a
/// collector over `for_each_overlap`: clip to the array, take the
/// tile-coordinate box, and index every point of it. Kept as the oracle the
/// allocation-free visitor must agree with, tile for tile and in order.
fn tiles_overlapping_reference(g: &TileGrid, rect: &HyperRect) -> Vec<u64> {
    let bounds = HyperRect::from_shape(g.array_shape());
    let clipped = match bounds.intersect(rect) {
        Ok(Some(r)) => r,
        _ => return Vec::new(),
    };
    let ranges = (0..clipped.ndim())
        .map(|d| {
            let (p, q) = clipped.interval(d);
            let t = g.tile().dim(d) as i64;
            (p / t, (q - 1) / t + 1)
        })
        .collect();
    HyperRect::new(ranges)
        .unwrap()
        .points()
        .map(|pt| {
            let coord: Vec<u64> = pt.into_iter().map(|x| x as u64).collect();
            g.tile_index(&coord)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `for_each_overlap` visits exactly the tiles the old enumeration
    /// returned, in the same order, and hands each visit the tile's
    /// coordinate and its intersection with the rectangle — over 1–4-D grids
    /// with boundary tiles, odd bank counts (61: a machine degraded by three
    /// quarantined banks) and rectangles inside, straddling, outside and of
    /// the wrong dimensionality.
    #[test]
    fn prop_for_each_overlap_matches_reference(
        ndim in 1usize..5,
        axes in proptest::collection::vec((1u64..6, 1u64..10, -6i64..14, 0i64..12), 4),
        bank_pick in 0usize..5,
        arrays_per_bank in 1u32..9,
        rect_dims in 0usize..12,
    ) {
        let axes = &axes[..ndim];
        let g = TileGrid::new(
            TileShape::new(axes.iter().map(|a| a.0).collect()).unwrap(),
            axes.iter().map(|a| a.1).collect(),
            [1, 2, 7, 61, 64][bank_pick],
            arrays_per_bank,
        ).unwrap();
        // Mostly the grid's own dimensionality; sometimes one too few or
        // one too many, which must visit nothing.
        let rect_ndim = match rect_dims {
            0 => ndim - 1,
            1 => ndim + 1,
            _ => ndim,
        };
        let rect = HyperRect::new(
            (0..rect_ndim)
                .map(|d| {
                    let (_, _, p, len) = axes[d % ndim];
                    (p, p + len)
                })
                .collect(),
        ).unwrap();

        let mut visited = Vec::new();
        g.for_each_overlap(&rect, |tile, coord, inter| {
            visited.push((tile, coord.to_vec(), inter.to_vec()));
        });
        let tiles: Vec<u64> = visited.iter().map(|v| v.0).collect();
        prop_assert_eq!(&tiles, &tiles_overlapping_reference(&g, &rect));
        prop_assert_eq!(&tiles, &g.tiles_overlapping(&rect));
        for (tile, coord, inter) in visited {
            prop_assert_eq!(&coord, &g.tile_coord_of_index(tile));
            let overlap = g.tile_rect(tile).intersect(&rect).unwrap()
                .expect("a visited tile overlaps the rectangle");
            prop_assert_eq!(&inter[..], overlap.intervals());
            let elems: u64 = inter.iter().map(|&(p, q)| (q - p) as u64).product();
            prop_assert_eq!(elems, overlap.num_elements());
        }
    }

    /// `for_each_run` expanded tile by tile is `for_each_overlap`'s
    /// sequence — same tiles, order, coordinates and intersections — over
    /// the same space of grids and rectangles, plus grids whose dimension 0
    /// holds one tile (the run dimension is then a higher one). Every run
    /// sits in one bank, and two adjacent runs of whole tiles in one row are
    /// split only at a bank boundary.
    #[test]
    fn prop_for_each_run_expands_to_for_each_overlap(
        ndim in 1usize..5,
        axes in proptest::collection::vec((1u64..6, 1u64..10, -6i64..14, 0i64..12), 4),
        bank_pick in 0usize..5,
        arrays_per_bank in 1u32..9,
        rect_dims in 0usize..12,
        dim0_one_tile in proptest::bool::ANY,
    ) {
        let mut axes = axes[..ndim].to_vec();
        if dim0_one_tile {
            axes[0].0 = axes[0].1; // a tile as wide as the array
        }
        let g = TileGrid::new(
            TileShape::new(axes.iter().map(|a| a.0).collect()).unwrap(),
            axes.iter().map(|a| a.1).collect(),
            [1, 2, 7, 61, 64][bank_pick],
            arrays_per_bank,
        ).unwrap();
        let rect_ndim = match rect_dims {
            0 => ndim - 1,
            1 => ndim + 1,
            _ => ndim,
        };
        let rect = HyperRect::new(
            (0..rect_ndim)
                .map(|d| {
                    let (_, _, p, len) = axes[d % ndim];
                    (p, p + len)
                })
                .collect(),
        ).unwrap();

        let r = g.run_dim();
        prop_assert!(g.tiles_per_dim()[..r].iter().all(|&n| n == 1));
        let t = g.tile().dim(r) as i64;
        let mut runs = Vec::new();
        g.for_each_run(&rect, |tile, n, coord, inter| {
            runs.push((tile, n, coord.to_vec(), inter.to_vec()));
        });
        let mut expanded = Vec::new();
        for (tile, n, coord, inter) in &runs {
            prop_assert!(*n >= 1);
            prop_assert_eq!(g.bank_of_tile(*tile), g.bank_of_tile(tile + n - 1));
            for k in 0..*n {
                let mut coord = coord.clone();
                let mut inter = inter.clone();
                coord[r] += k;
                inter[r] = (inter[r].0 + k as i64 * t, inter[r].1 + k as i64 * t);
                expanded.push((tile + k, coord, inter));
            }
        }
        let mut visited = Vec::new();
        g.for_each_overlap(&rect, |tile, coord, inter| {
            visited.push((tile, coord.to_vec(), inter.to_vec()));
        });
        prop_assert_eq!(expanded, visited);

        // Maximality: a split between adjacent whole-tile runs of one row
        // falls on a bank boundary.
        let whole = |coord: &[u64], inter: &[(i64, i64)]| {
            inter[r].1 - inter[r].0 == t && inter[r].0 == coord[r] as i64 * t
        };
        for pair in runs.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let same_row = (0..ndim).all(|d| d == r || a.2[d] == b.2[d]);
            if same_row && a.0 + a.1 == b.0 && whole(&a.2, &a.3) && whole(&b.2, &b.3) {
                prop_assert_eq!(b.0 % u64::from(arrays_per_bank), 0);
            }
        }
    }

    /// Intersection is commutative, contained in both, and idempotent.
    #[test]
    fn prop_intersection_algebra(a in arb_rect(2, 12), b in arb_rect(2, 12)) {
        let ab = a.intersect(&b).unwrap();
        let ba = b.intersect(&a).unwrap();
        prop_assert_eq!(ab.clone(), ba);
        if let Some(x) = ab {
            prop_assert!(a.contains_rect(&x));
            prop_assert!(b.contains_rect(&x));
            prop_assert_eq!(x.intersect(&a).unwrap(), Some(x.clone()));
        }
    }

    /// The bounding rectangle contains both operands and is minimal on each axis.
    #[test]
    fn prop_bounding_is_minimal_cover(a in arb_rect(3, 10), b in arb_rect(3, 10)) {
        let c = a.bounding(&b).unwrap();
        prop_assert!(c.contains_rect(&a));
        prop_assert!(c.contains_rect(&b));
        for d in 0..3 {
            let (p, q) = c.interval(d);
            prop_assert_eq!(p, a.start(d).min(b.start(d)));
            prop_assert_eq!(q, a.end(d).max(b.end(d)));
        }
    }

    /// Translation round-trips and preserves volume.
    #[test]
    fn prop_translation_roundtrip(a in arb_rect(2, 12), dim in 0usize..2, dist in -20i64..20) {
        let t = a.translated(dim, dist).unwrap();
        prop_assert_eq!(t.num_elements(), a.num_elements());
        prop_assert_eq!(t.translated(dim, -dist).unwrap(), a);
    }

    /// decompose() pieces, re-decomposed, are fixpoints (already tile-conformal).
    #[test]
    fn prop_decompose_fixpoint(
        p0 in -10i64..10, l0 in 1i64..20,
        p1 in -10i64..10, l1 in 1i64..20,
        t0 in 1u64..6, t1 in 1u64..6,
    ) {
        let r = HyperRect::new(vec![(p0, p0 + l0), (p1, p1 + l1)]).unwrap();
        for piece in decompose(&r, &[t0, t1]) {
            let again = decompose(&piece, &[t0, t1]);
            prop_assert_eq!(again, vec![piece]);
        }
    }

    /// Every lattice point of an array maps to exactly one tile, and tiles
    /// partition the array.
    #[test]
    fn prop_tile_grid_partitions(
        tx in 1u64..6, ty in 1u64..6,
        sx in 1u64..20, sy in 1u64..20,
    ) {
        let g = TileGrid::new(
            TileShape::new(vec![tx, ty]).unwrap(),
            vec![sx, sy],
            4, 8,
        ).unwrap();
        let mut covered = 0u64;
        for t in 0..g.num_tiles() {
            covered += g.tile_rect(t).num_elements();
        }
        prop_assert_eq!(covered, sx * sy);
        // Spot-check point membership.
        for &(x, y) in &[(0, 0), (sx as i64 - 1, sy as i64 - 1), (sx as i64 / 2, sy as i64 / 2)] {
            let addr = g.locate(&[x, y]).unwrap().unwrap();
            prop_assert!(g.tile_rect(addr.tile).contains(&[x, y]));
        }
    }

    /// Every tiling the solver returns satisfies both §4.1 constraints, and the
    /// heuristic's pick is never worse-scoring than any candidate.
    #[test]
    fn prop_tiling_constraints_hold(
        s0_lines in 1u64..64,
        s1 in 1u64..2048,
        w in 1u32..33,
        shift in proptest::bool::ANY,
        reduce in proptest::bool::ANY,
    ) {
        let req = TilingRequest {
            array_shape: vec![s0_lines * 16, s1],
            elem_size: 4,
            bitlines: 256,
            arrays_per_bank: w,
            line_bytes: 64,
            hints: LayoutHints {
                shift_dims: if shift { vec![0, 1] } else { vec![] },
                reduce_dim: if reduce { Some(1) } else { None },
                broadcast_dims: vec![],
            },
        };
        let l = req.line_elems();
        let candidates = valid_tilings(&req);
        for t in &candidates {
            prop_assert_eq!(t.num_elements(), 256); // constraint 1
            prop_assert_eq!(t.dim(0) * w as u64 % l, 0); // constraint 2
        }
        if let Ok(best) = pick_tile_shape(&req) {
            let best_score = tile_score(&best, &req);
            for t in &candidates {
                prop_assert!(best_score <= tile_score(t, &req) + 1e-9);
            }
        }
    }
}
