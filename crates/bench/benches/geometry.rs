//! Geometric kernels on the JIT's critical path: Algorithm 1 tensor
//! decomposition, tile-overlap enumeration, and the §4.1 tiling search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use infs_geom::layout::{pick_tile_shape, LayoutHints, TilingRequest};
use infs_geom::{decompose, HyperRect, TileGrid, TileShape};
use std::hint::black_box;

fn bench_decompose(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose");
    for (label, rect, tile) in [
        (
            "2d_unaligned",
            HyperRect::new(vec![(1, 2047), (1, 2047)]).unwrap(),
            vec![16u64, 16],
        ),
        (
            "3d_unaligned",
            HyperRect::new(vec![(1, 511), (1, 511), (1, 15)]).unwrap(),
            vec![16, 4, 4],
        ),
        (
            "1d_aligned",
            HyperRect::new(vec![(0, 4 << 20)]).unwrap(),
            vec![256],
        ),
    ] {
        group.bench_with_input(BenchmarkId::new("alg1", label), &rect, |b, r| {
            b.iter(|| black_box(decompose(black_box(r), &tile)))
        });
    }
    group.finish();
}

fn bench_tiles_overlapping(c: &mut Criterion) {
    let grid = TileGrid::new(
        TileShape::new(vec![16, 16]).unwrap(),
        vec![2048, 2048],
        64,
        256,
    )
    .unwrap();
    let rect = HyperRect::new(vec![(1, 2047), (1, 2047)]).unwrap();
    c.bench_function("tiles_overlapping_16k", |b| {
        b.iter(|| black_box(grid.tiles_overlapping(black_box(&rect))))
    });
    // The same walk as the JIT emitter takes it: no collected `Vec`, the
    // per-tile intersection folded on the fly.
    c.bench_function("for_each_overlap_16k", |b| {
        b.iter(|| {
            let mut elems = 0u64;
            grid.for_each_overlap(black_box(&rect), |tile, _, inter| {
                elems += tile + inter.iter().map(|&(p, q)| (q - p) as u64).product::<u64>();
            });
            black_box(elems)
        })
    });
}

fn bench_tiling_search(c: &mut Criterion) {
    let req = TilingRequest {
        array_shape: vec![512, 512, 16],
        elem_size: 4,
        bitlines: 256,
        arrays_per_bank: 256,
        line_bytes: 64,
        hints: LayoutHints {
            shift_dims: vec![0, 1, 2],
            reduce_dim: None,
            broadcast_dims: vec![],
        },
    };
    c.bench_function("pick_tile_shape_3d", |b| {
        b.iter(|| black_box(pick_tile_shape(black_box(&req)).expect("valid tiling")))
    });
}

criterion_group!(
    benches,
    bench_decompose,
    bench_tiles_overlapping,
    bench_tiling_search
);
criterion_main!(benches);
