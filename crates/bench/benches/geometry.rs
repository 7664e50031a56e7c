//! The geometric kernel on the JIT's critical path: tile-overlap enumeration.

use criterion::{criterion_group, criterion_main, Criterion};
use infs_geom::{HyperRect, TileGrid, TileShape};
use std::hint::black_box;

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

criterion_group!(benches, bench_tiles_overlapping);
criterion_main!(benches);
