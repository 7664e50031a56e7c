//! The per-tile emitter this crate shipped before tile enumeration became
//! allocation-free, frozen as the reference the emission core is compared
//! against: streams must be `==`, command for command, load for load.
//!
//! It is the old code verbatim minus tracing and input validation (the tests
//! feed it well-formed graphs). Only the template walk is kept — `lower` is
//! `instantiate ∘ distill`, so one test helper pins the one emission path. It
//! prices nothing: [`crate::HwConfig::jit_cycles`] is the one cost table. An
//! intentional change to the emission *rules* must be made here too; a
//! change that only makes emission cheaper must not touch this file.

use super::{
    class_of, BankLoad, CmdClass, CommandStream, InfCommand, LoweredStats, RemoteTransfer,
};
use crate::template::{CommandTemplate, TemplateOp};
use crate::{RuntimeError, TransposedLayout};
use infs_geom::{decompose, HyperRect, TileGrid};
use infs_tdfg::{ComputeOp, NodeId};
use std::collections::{HashMap, HashSet};

/// `TileGrid::tiles_overlapping` as it was: clip, take the tile-coordinate
/// box, index every point of it.
fn tiles_overlapping(grid: &TileGrid, rect: &HyperRect) -> Vec<u64> {
    let bounds = HyperRect::from_shape(grid.array_shape());
    let clipped = match bounds.intersect(rect) {
        Ok(Some(r)) => r,
        _ => return Vec::new(),
    };
    let ranges = (0..clipped.ndim())
        .map(|d| {
            let (p, q) = clipped.interval(d);
            let t = grid.tile().dim(d) as i64;
            (p / t, (q - 1) / t + 1)
        })
        .collect();
    HyperRect::new(ranges)
        .expect("tile ranges are well formed")
        .points()
        .map(|pt| {
            let coord: Vec<u64> = pt.into_iter().map(|x| x as u64).collect();
            grid.tile_index(&coord)
        })
        .collect()
}

/// `TransposedLayout::tile_overlap_elems` as it was.
fn tile_overlap_elems(grid: &TileGrid, tile_index: u64, rect: &HyperRect) -> u64 {
    match grid.tile_rect(tile_index).intersect(rect) {
        Ok(Some(r)) => r.num_elements(),
        _ => 0,
    }
}

/// The pre-change emission core: a `Vec` per lattice point and per tile, a
/// cloned grid per command, hash maps keyed by bank.
struct Emitter<'a> {
    layout: &'a TransposedLayout,
    cmds: Vec<InfCommand>,
    stats: LoweredStats,
    pending_sync: bool,
    elem_bytes: u64,
    seen: HashSet<CmdClass>,
}

/// The template walk of [`super::instantiate`], over the per-tile emitter.
pub fn instantiate(
    t: &CommandTemplate,
    slots: &[i64],
    layout: &TransposedLayout,
) -> Result<CommandStream, RuntimeError> {
    let mut em = Emitter::new(layout, t.elem_bytes);
    for op in &t.ops {
        match op {
            TemplateOp::Compute {
                node,
                op,
                latency,
                imm_bytes,
                domain,
            } => {
                let d = t.rect(slots, *domain, *node)?;
                em.emit_compute(*node, *op, *latency, *imm_bytes, &d)?;
            }
            TemplateOp::Mv {
                node,
                dim,
                dist,
                domain,
            } => {
                let dist = t.value(slots, *dist, *node)?;
                if dist == 0 {
                    continue;
                }
                let dim = t.dim(slots, *dim, *node)?;
                let d = match domain {
                    Some(r) => Some(t.rect(slots, *r, *node)?),
                    None => None,
                };
                em.emit_mv(*node, dim, dist, d.as_ref())?;
            }
            TemplateOp::Bc {
                node,
                dim,
                src,
                dest,
            } => {
                let dim = t.dim(slots, *dim, *node)?;
                let src = t.rect(slots, *src, *node)?;
                let dest = t.rect(slots, *dest, *node)?;
                em.emit_bc(*node, &src, &dest, dim)?;
            }
            TemplateOp::Reduce {
                node,
                eq,
                latency,
                dim,
                domain,
            } => {
                let dim = t.dim(slots, *dim, *node)?;
                let in_dom = t.rect(slots, *domain, *node)?;
                em.emit_reduce(*node, &in_dom, dim, *eq, *latency)?;
            }
        }
    }
    Ok(em.finish())
}

impl<'a> Emitter<'a> {
    fn new(layout: &'a TransposedLayout, elem_bytes: u64) -> Self {
        Emitter {
            layout,
            cmds: Vec::new(),
            stats: LoweredStats::default(),
            pending_sync: false,
            elem_bytes,
            seen: HashSet::new(),
        }
    }

    /// Appends a command, tracking emission-class reuse for the templated
    /// JIT cost model.
    fn push(&mut self, cmd: InfCommand) {
        if !self.seen.insert(class_of(&cmd)) {
            self.stats.cmds_from_template += 1;
        }
        self.cmds.push(cmd);
    }

    /// Seals the stream: counts commands.
    fn finish(mut self) -> CommandStream {
        self.stats.n_cmds = self.cmds.len() as u64;
        CommandStream {
            cmds: self.cmds,
            stats: self.stats,
        }
    }

    fn tile_dims(&self) -> Vec<u64> {
        self.layout.tile().dims().to_vec()
    }

    /// Barrier before a consuming command if inter-tile data is in flight.
    fn sync_if_pending(&mut self) {
        if self.pending_sync {
            self.push(InfCommand::Sync);
            self.stats.syncs += 1;
            self.pending_sync = false;
        }
    }

    /// Per-bank (tiles, elems) of a rectangle.
    fn bank_loads(&self, rect: &HyperRect) -> Vec<BankLoad> {
        let mut per_bank: HashMap<u32, BankLoad> = HashMap::new();
        for t in tiles_overlapping(self.layout.grid(), rect) {
            let elems = tile_overlap_elems(self.layout.grid(), t, rect);
            if elems == 0 {
                continue;
            }
            let bank = self.layout.grid().bank_of_tile(t);
            let e = per_bank.entry(bank).or_insert(BankLoad {
                bank,
                tiles: 0,
                elems: 0,
            });
            e.tiles += 1;
            e.elems += elems;
        }
        let mut v: Vec<BankLoad> = per_bank.into_values().collect();
        v.sort_by_key(|b| b.bank);
        v
    }

    /// Emits one element-wise compute node as a single *fused* command.
    ///
    /// The domain still decomposes into tile-aligned pieces (boundary tiles
    /// need their own bitline masks — the stencil3d blow-up of §8), but the
    /// pieces of one node are pairwise disjoint, so their per-bank loads
    /// merge: a bank appearing in several pieces runs them on different
    /// arrays in parallel and pays the bit-serial latency once, exactly the
    /// parallelism the execution model already grants same-command banks.
    fn emit_compute(
        &mut self,
        node: NodeId,
        op: ComputeOp,
        latency: u64,
        imm_bytes: u64,
        domain: &HyperRect,
    ) -> Result<(), RuntimeError> {
        self.sync_if_pending();
        let mut merged: HashMap<u32, BankLoad> = HashMap::new();
        for sub in decompose(domain, &self.tile_dims()) {
            for b in self.bank_loads(&sub) {
                let e = merged.entry(b.bank).or_insert(BankLoad {
                    bank: b.bank,
                    tiles: 0,
                    elems: 0,
                });
                e.tiles += b.tiles;
                e.elems += b.elems;
            }
        }
        if merged.is_empty() {
            return Ok(());
        }
        let mut banks: Vec<BankLoad> = merged.into_values().collect();
        banks.sort_by_key(|b| b.bank);
        self.stats.compute_cmds += 1;
        self.push(InfCommand::Compute {
            node,
            op,
            latency,
            imm_bytes,
            banks,
        });
        Ok(())
    }

    /// Emits one `mv` node. A zero distance is a no-op *at emission time* —
    /// the distance is data (a template slot), so zero-ness may differ
    /// between instances sharing a template.
    fn emit_mv(
        &mut self,
        node: NodeId,
        dim: usize,
        dist: i64,
        domain: Option<&HyperRect>,
    ) -> Result<(), RuntimeError> {
        if dist == 0 {
            return Ok(());
        }
        let domain = domain.ok_or(RuntimeError::MalformedGraph {
            node: node.0,
            what: "mv node has no finite domain",
        })?;
        // Effective source: only elements whose destination survives the
        // bounding clip are moved.
        let eff_src = domain
            .translated(dim, -dist)
            .map_err(|e| RuntimeError::BadBounding(e.to_string()))?;
        self.lower_shift(node, &eff_src, dim, dist)
    }

    /// Algorithm 2: compile one `mv` into intra-/inter-tile shift commands over
    /// the tensor's tile decomposition.
    fn lower_shift(
        &mut self,
        node: NodeId,
        eff_src: &HyperRect,
        dim: usize,
        dist: i64,
    ) -> Result<(), RuntimeError> {
        let t = self.layout.tile().dim(dim) as i64;
        let d_inter = dist.abs() / t;
        let d_intra = dist.abs() % t;
        let comp = t - d_intra;
        let subs = decompose(eff_src, &self.tile_dims());
        // (mask_lo, mask_hi, inter_tiles_signed, intra_signed)
        let pieces: Vec<(i64, i64, i64, i64)> = if dist > 0 {
            let mut v = vec![(0, comp, d_inter, d_intra)];
            if d_intra > 0 {
                v.push((comp, t, d_inter + 1, -comp));
            }
            v
        } else {
            let mut v = Vec::new();
            if d_intra > 0 {
                v.push((0, d_intra, -(d_inter + 1), comp));
            }
            v.push((d_intra, t, -d_inter, -d_intra));
            v
        };
        for sub in &subs {
            for &(mlo, mhi, inter, intra) in &pieces {
                self.emit_shift(node, sub, dim, mlo, mhi, inter, intra)?;
            }
        }
        Ok(())
    }

    /// Emits one shift command: intersects the mask with the subtensor per
    /// tile, classifies intra vs inter (local / remote), and maps to banks.
    #[allow(clippy::too_many_arguments)]
    fn emit_shift(
        &mut self,
        node: NodeId,
        sub: &HyperRect,
        dim: usize,
        mask_lo: i64,
        mask_hi: i64,
        inter: i64,
        intra: i64,
    ) -> Result<(), RuntimeError> {
        let grid = self.layout.grid().clone();
        let t = self.layout.tile().dim(dim) as i64;
        let mut per_bank: HashMap<u32, BankLoad> = HashMap::new();
        let mut remote: HashMap<(u32, u32), u64> = HashMap::new();
        let mut local_inter = 0u64;
        let mut total = 0u64;
        for tile in tiles_overlapping(&grid, sub) {
            let tr = grid.tile_rect(tile);
            let Ok(Some(part)) = tr.intersect(sub) else {
                continue;
            };
            // Elements whose intra-tile coordinate along `dim` is in the mask.
            let (plo, phi) = part.interval(dim);
            let tile_base = tr.start(dim).div_euclid(t) * t;
            let ilo = (plo - tile_base).max(mask_lo);
            let ihi = (phi - tile_base).min(mask_hi);
            if ilo >= ihi {
                continue;
            }
            let other: u64 = (0..part.ndim())
                .filter(|&d| d != dim)
                .map(|d| part.extent(d))
                .product();
            let elems = (ihi - ilo) as u64 * other;
            total += elems;
            let src_bank = grid.bank_of_tile(tile);
            let e = per_bank.entry(src_bank).or_insert(BankLoad {
                bank: src_bank,
                tiles: 0,
                elems: 0,
            });
            e.tiles += 1;
            e.elems += elems;
            if inter != 0 {
                let mut coord = grid.tile_coord_of_index(tile);
                let dest = coord[dim] as i64 + inter;
                if dest < 0 || dest as u64 >= grid.tiles_per_dim()[dim] {
                    continue; // destination clipped at the lattice edge
                }
                coord[dim] = dest as u64;
                let dst_bank = grid.bank_of_tile(grid.tile_index(&coord));
                if dst_bank == src_bank {
                    local_inter += elems;
                } else {
                    *remote.entry((src_bank, dst_bank)).or_insert(0) += elems * self.elem_bytes;
                }
            }
        }
        if total == 0 {
            return Ok(()); // empty mask/tensor intersection: filtered out (§4.2)
        }
        let mut banks: Vec<BankLoad> = per_bank.into_values().collect();
        banks.sort_by_key(|b| b.bank);
        if inter == 0 {
            self.stats.intra_elems += total;
            self.push(InfCommand::IntraShift {
                node,
                dim,
                dist: intra,
                banks,
            });
        } else {
            self.stats.inter_local_elems += local_inter;
            let remote: Vec<RemoteTransfer> = {
                let mut v: Vec<RemoteTransfer> = remote
                    .into_iter()
                    .map(|((s, d), bytes)| RemoteTransfer {
                        src_bank: s,
                        dst_bank: d,
                        bytes,
                    })
                    .collect();
                v.sort_by_key(|r| (r.src_bank, r.dst_bank));
                v
            };
            self.stats.inter_remote_bytes += remote.iter().map(|r| r.bytes).sum::<u64>();
            if !remote.is_empty() {
                self.pending_sync = true;
            }
            self.push(InfCommand::InterShift {
                node,
                dim,
                tile_dist: inter,
                intra_dist: intra,
                banks,
                remote,
            });
        }
        Ok(())
    }

    /// Lowers a broadcast: every destination tile receives the source slice it
    /// overlaps; one NoC copy per (source tile, destination bank) — the H-tree
    /// multicasts within a bank.
    fn emit_bc(
        &mut self,
        node: NodeId,
        src: &HyperRect,
        dest: &HyperRect,
        dim: usize,
    ) -> Result<(), RuntimeError> {
        let grid = self.layout.grid().clone();
        let src_coord = src.start(dim);
        let mut per_bank: HashMap<u32, BankLoad> = HashMap::new();
        let mut remote: HashMap<(u32, u32), u64> = HashMap::new();
        let mut seen: std::collections::HashSet<(u32, u64)> = std::collections::HashSet::new();
        for tile in tiles_overlapping(&grid, dest) {
            let elems = tile_overlap_elems(&grid, tile, dest);
            if elems == 0 {
                continue;
            }
            let dst_bank = grid.bank_of_tile(tile);
            let e = per_bank.entry(dst_bank).or_insert(BankLoad {
                bank: dst_bank,
                tiles: 0,
                elems: 0,
            });
            e.tiles += 1;
            e.elems += elems;
            // The source slice this tile needs: project the tile onto the
            // source hyperplane.
            let tr = grid.tile_rect(tile);
            let needed = tr
                .with_interval(dim, src_coord, src_coord + 1)
                .and_then(|r| r.intersect(src))
                .ok()
                .flatten();
            let Some(needed) = needed else { continue };
            for src_tile in tiles_overlapping(&grid, &needed) {
                let src_bank = grid.bank_of_tile(src_tile);
                if src_bank == dst_bank {
                    continue; // intra-bank H-tree fan-out
                }
                // Multicast: one copy per (source tile, destination bank).
                if seen.insert((dst_bank, src_tile)) {
                    let bytes = tile_overlap_elems(&grid, src_tile, &needed) * self.elem_bytes;
                    if bytes > 0 {
                        *remote.entry((src_bank, dst_bank)).or_insert(0) += bytes;
                    }
                }
            }
        }
        let mut banks: Vec<BankLoad> = per_bank.into_values().collect();
        banks.sort_by_key(|b| b.bank);
        if banks.is_empty() {
            return Ok(());
        }
        let remote: Vec<RemoteTransfer> = {
            let mut v: Vec<RemoteTransfer> = remote
                .into_iter()
                .map(|((s, d), bytes)| RemoteTransfer {
                    src_bank: s,
                    dst_bank: d,
                    bytes,
                })
                .collect();
            v.sort_by_key(|r| (r.src_bank, r.dst_bank));
            v
        };
        self.stats.inter_remote_bytes += remote.iter().map(|r| r.bytes).sum::<u64>();
        if !remote.is_empty() {
            self.pending_sync = true;
        }
        self.push(InfCommand::Broadcast {
            node,
            dim,
            src_elems: src.num_elements(),
            banks,
            remote,
        });
        Ok(())
    }

    /// Lowers a reduction: interleaved compute + intra-tile shift rounds fully
    /// reduce each tile along the dimension; partials across tiles go to a
    /// near-memory final-reduce stream (§4.2 "Other tDFG Nodes").
    fn emit_reduce(
        &mut self,
        node: NodeId,
        in_dom: &HyperRect,
        dim: usize,
        eq: ComputeOp,
        latency: u64,
    ) -> Result<(), RuntimeError> {
        self.sync_if_pending();
        let t = self.layout.tile().dim(dim);
        let extent = in_dom.extent(dim);
        let within = extent.min(t);
        let rounds = if within <= 1 {
            0
        } else {
            64 - (within - 1).leading_zeros() as u64
        };
        let banks = self.bank_loads(in_dom);
        let mut active = in_dom.num_elements();
        for r in 0..rounds {
            active /= 2;
            let scaled: Vec<BankLoad> = banks
                .iter()
                .map(|b| BankLoad {
                    bank: b.bank,
                    tiles: b.tiles,
                    elems: (b.elems >> (r + 1)).max(1),
                })
                .collect();
            self.stats.intra_elems += active;
            self.push(InfCommand::IntraShift {
                node,
                dim,
                dist: -(1i64 << r),
                banks: scaled.clone(),
            });
            self.stats.compute_cmds += 1;
            self.push(InfCommand::Compute {
                node,
                op: eq,
                latency,
                imm_bytes: 0,
                banks: scaled,
            });
        }
        // Cross-tile partials collected near-memory.
        let tiles_along = extent.div_ceil(t);
        if tiles_along > 1 {
            let partials_per_tile_row = in_dom.num_elements() / extent;
            let partials = partials_per_tile_row * tiles_along;
            let pb: Vec<BankLoad> = banks
                .iter()
                .map(|b| BankLoad {
                    bank: b.bank,
                    tiles: b.tiles,
                    elems: b.tiles, // one partial per tile row chunk
                })
                .collect();
            self.stats.final_reduce_partials += partials;
            self.push(InfCommand::FinalReduce {
                node,
                partials,
                banks: pb,
            });
        }
        Ok(())
    }
}

mod tests {
    use super::super::lower;
    use crate::{distill, HwConfig, TransposedLayout};
    use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
    use infs_geom::{HyperRect, TileShape};
    use infs_isa::{CompiledRegion, Compiler, RegionInstance, Schedule, SramGeometry};
    use infs_sdfg::{ArrayDecl, DataType, ReduceOp, StreamId};
    use infs_tdfg::{ComputeOp, OutputTarget, Tdfg, TdfgBuilder};
    use proptest::prelude::*;

    /// `lower` — `instantiate` of the distilled template — against the
    /// per-tile reference.
    fn assert_streams_match(
        g: &Tdfg,
        schedule: &Schedule,
        layout: &TransposedLayout,
        hw: &HwConfig,
        what: &str,
    ) {
        let (template, slots) = distill(g, schedule, hw).expect("distills");
        let want = super::instantiate(&template, &slots, layout).expect("reference emits");
        assert!(!want.cmds.is_empty(), "{what}: nothing to compare");
        let lowered = lower(g, schedule, layout, hw).expect("lowers");
        assert!(lowered == want, "{what}: lower() left the reference stream");
    }

    /// A compiled region instance on the paper machine, under its own plan.
    fn assert_instance_matches(inst: &RegionInstance, what: &str) {
        let hw = HwConfig::default();
        let g = inst.tdfg.as_ref().expect("tensorizes");
        let schedule = inst.schedule_for(hw.geometry).expect("schedules");
        let layout = TransposedLayout::plan(g, &inst.hints, &hw).expect("plans");
        assert_streams_match(g, schedule, &layout, &hw, what);
    }

    fn compile_unoptimized(k: KernelBuilder, syms: &[i64]) -> CompiledRegion {
        Compiler {
            optimize: false,
            ..Default::default()
        }
        .compile(k.build().expect("builds"), syms)
        .expect("compiles")
    }

    /// `gauss_elim`'s trailing-submatrix update `A[r][c] -= A[k][c]·m[r]`.
    fn gauss_main(n: u64) -> CompiledRegion {
        let mut k = KernelBuilder::new("gauss_main", DataType::F32);
        let a = k.array("A", vec![n, n]);
        let marr = k.array("MARR", vec![1, n]);
        let kv = k.sym("k");
        let c = k.parallel_loop_bounds("c", Idx::sym_plus(kv, 1), Idx::constant(n as i64));
        let r = k.parallel_loop_bounds("r", Idx::sym_plus(kv, 1), Idx::constant(n as i64));
        let delta = ScalarExpr::un(
            ComputeOp::Neg,
            ScalarExpr::mul(
                ScalarExpr::load(a, vec![Idx::var(c), Idx::sym(kv)]),
                ScalarExpr::load(marr, vec![Idx::constant(0), Idx::var(r)]),
            ),
        );
        k.accum(a, vec![Idx::var(c), Idx::var(r)], ReduceOp::Sum, delta);
        compile_unoptimized(k, &[0])
    }

    /// `conv3d`'s accumulation round
    /// `OUT[x][y][co] += IN[x+dx][y+dy][ci]·WBUF[0][0][co]`.
    fn conv3d_acc(hw_n: u64, chans: u64) -> CompiledRegion {
        let mut k = KernelBuilder::new("conv3d_acc", DataType::F32);
        let inp = k.array("IN", vec![hw_n, hw_n, chans]);
        let out = k.array("OUT", vec![hw_n, hw_n, chans]);
        let wbuf = k.array("WBUF", vec![1, 1, chans]);
        let ci = k.sym("ci");
        let dx = k.sym("dx");
        let dy = k.sym("dy");
        let x = k.parallel_loop("x", 1, hw_n as i64 - 1);
        let y = k.parallel_loop("y", 1, hw_n as i64 - 1);
        let co = k.parallel_loop("co", 0, chans as i64);
        let tap = ScalarExpr::load(
            inp,
            vec![
                Idx::var(x).plus_sym(dx, 1),
                Idx::var(y).plus_sym(dy, 1),
                Idx::sym(ci),
            ],
        );
        let w = ScalarExpr::load(wbuf, vec![Idx::constant(0), Idx::constant(0), Idx::var(co)]);
        k.accum(
            out,
            vec![Idx::var(x), Idx::var(y), Idx::var(co)],
            ReduceOp::Sum,
            ScalarExpr::mul(tap, w),
        );
        compile_unoptimized(k, &[0, 0, 0])
    }

    #[test]
    fn gauss_main_pivots_match_reference_at_paper_size() {
        let region = gauss_main(2048);
        for k in 0..24 {
            let inst = region.instantiate(&[k]).expect("instantiates");
            assert_instance_matches(&inst, &format!("gauss_main k={k}"));
        }
    }

    #[test]
    fn conv3d_rounds_match_reference_at_paper_size() {
        let region = conv3d_acc(256, 64);
        for round in 0..12 {
            let (ci, t) = (round / 9, round % 9);
            let (dx, dy) = (t % 3 - 1, t / 3 - 1);
            let inst = region.instantiate(&[ci, dx, dy]).expect("instantiates");
            assert_instance_matches(&inst, &format!("conv3d_acc ci={ci} dx={dx} dy={dy}"));
        }
    }

    #[test]
    fn stencil2d_matches_reference_at_paper_size() {
        let n = 2048u64;
        let mut k = KernelBuilder::new("stencil2d", DataType::F32);
        let a = k.array("A", vec![n, n]);
        let b = k.array("B", vec![n, n]);
        let i = k.parallel_loop("i", 1, n as i64 - 1);
        let j = k.parallel_loop("j", 1, n as i64 - 1);
        let tap = |di, dj| ScalarExpr::load(a, vec![Idx::var_plus(i, di), Idx::var_plus(j, dj)]);
        let sum = ScalarExpr::add(
            ScalarExpr::add(tap(0, 0), ScalarExpr::add(tap(-1, 0), tap(1, 0))),
            ScalarExpr::add(tap(0, -1), tap(0, 1)),
        );
        k.assign(b, vec![Idx::var(i), Idx::var(j)], sum);
        let inst = Compiler::default()
            .compile(k.build().expect("builds"), &[])
            .expect("compiles")
            .into_instance(&[])
            .expect("instantiates");
        assert_instance_matches(&inst, "stencil2d 2048");
    }

    /// `kmeans/in`'s distance column `DIST[c][p] = Σ_d (P[d][p] − bufC[d][0])²`
    /// at 128 × 32k: its `[128, 2]` tiles leave dimension 0 a single tile, so
    /// the emitter runs along dimension 1.
    #[test]
    fn kmeans_dist_col_matches_reference_at_paper_size() {
        let (d, np) = (128u64, 32 * 1024u64);
        let mut k = KernelBuilder::new("kmeans_dist_col", DataType::F32);
        let p = k.array("P", vec![d, np]);
        let dist = k.array("DIST", vec![d, np]);
        let bufc = k.array("bufC", vec![d, 1]);
        let cs = k.sym("c");
        let dd = k.parallel_loop("d", 0, d as i64);
        let pp = k.parallel_loop("p", 0, np as i64);
        let diff = ScalarExpr::sub(
            ScalarExpr::load(p, vec![Idx::var(dd), Idx::var(pp)]),
            ScalarExpr::load(bufc, vec![Idx::var(dd), Idx::constant(0)]),
        );
        k.assign_reduced(
            dist,
            vec![Idx::sym(cs), Idx::var(pp)],
            ScalarExpr::mul(diff.clone(), diff),
            vec![(dd, ReduceOp::Sum)],
        );
        let region = Compiler::default()
            .compile(k.build().expect("builds"), &[0])
            .expect("compiles");
        for c in [0, 1, 127] {
            let inst = region.instantiate(&[c]).expect("instantiates");
            let hw = HwConfig::default();
            let g = inst.tdfg.as_ref().expect("tensorizes");
            let layout = TransposedLayout::plan(g, &inst.hints, &hw).expect("plans");
            assert_eq!(layout.grid().tiles_per_dim(), [1, 16 * 1024]);
            assert_eq!(layout.grid().run_dim(), 1);
            assert_instance_matches(&inst, &format!("kmeans_dist_col c={c}"));
        }
    }

    /// One matmul inner-product row `C[m][n] = Σ_k buf[k]·B[k][n]`: broadcast,
    /// multiply, in-tile reduction rounds and the near-memory final reduce.
    #[test]
    fn inner_product_reduce_matches_reference() {
        let n = 512u64;
        let mut k = KernelBuilder::new("mm_row", DataType::F32);
        let b = k.array("B", vec![n, n]);
        let c = k.array("C", vec![n, n]);
        let buf = k.array("buf", vec![n, 1]);
        let m = k.sym("m");
        let kk = k.parallel_loop("k", 0, n as i64);
        let nn = k.parallel_loop("n", 0, n as i64);
        let prod = ScalarExpr::mul(
            ScalarExpr::load(buf, vec![Idx::var(kk), Idx::constant(0)]),
            ScalarExpr::load(b, vec![Idx::var(kk), Idx::var(nn)]),
        );
        k.assign_reduced(
            c,
            vec![Idx::sym(m), Idx::var(nn)],
            prod,
            vec![(kk, ReduceOp::Sum)],
        );
        let region = compile_unoptimized(k, &[0]);
        for row in [0, 7, 511] {
            let inst = region.instantiate(&[row]).expect("instantiates");
            assert_instance_matches(&inst, &format!("mm_row m={row}"));
        }
    }

    /// A small graph with one node of every emitting kind over a random
    /// sub-rectangle `[lo, hi)` of an `ndim`-D array: shift, add, broadcast
    /// of a thin slice, multiply, reduce. `None` when the draw is degenerate
    /// (a shift or broadcast that leaves nothing).
    fn random_graph(
        shape: &[u64],
        lo_hi: &[(i64, i64)],
        mv: (usize, i64),
        bc: (usize, i64, i64, u64),
        reduce_dim: usize,
    ) -> Option<Tdfg> {
        let mut b = TdfgBuilder::new(shape.len(), DataType::F32);
        let a = b.declare_array(ArrayDecl::new("A", shape.to_vec(), DataType::F32));
        let rect = HyperRect::new(lo_hi.to_vec()).ok()?;
        let x = b.input(a, rect.clone()).ok()?;
        let moved = b.mv(x, mv.0, mv.1).ok()?;
        let sum = b.compute(ComputeOp::Add, &[x, moved]).ok()?;
        let (bc_dim, slice_at, bc_at, bc_count) = bc;
        let slice = b
            .input(a, rect.with_interval(bc_dim, slice_at, slice_at + 1).ok()?)
            .ok()?;
        let spread = b.bc(slice, bc_dim, bc_at, bc_count).ok()?;
        let prod = b.compute(ComputeOp::Mul, &[sum, spread]).ok()?;
        let reduced = b.reduce(prod, reduce_dim, ReduceOp::Sum).ok()?;
        b.output(reduced, OutputTarget::stream(StreamId(0)));
        b.build().ok()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Random graphs × tile shapes × healthy-bank counts: compute,
        /// shift and broadcast domains start and end mid-tile in every
        /// dimension, bank counts include the non-powers-of-two a degraded
        /// machine plans for.
        #[test]
        fn prop_random_graphs_match_reference(
            ndim in 2usize..4,
            axes in proptest::collection::vec((3u64..30, 0u64..30, 1u64..30), 3),
            tile_split in (0u32..5, 0u32..5),
            mv in (0usize..3, -20i64..21),
            bc in (0usize..3, 0u64..30, -4i64..20, 1u64..30),
            reduce_dim in 0usize..3,
            bank_pick in 0usize..6,
            spare_arrays in 0u32..3,
        ) {
            let axes = &axes[..ndim];
            let shape: Vec<u64> = axes.iter().map(|a| a.0).collect();
            let lo_hi: Vec<(i64, i64)> = axes
                .iter()
                .map(|&(s, lo, len)| {
                    let lo = lo % s;
                    (lo as i64, (lo + len).min(s) as i64)
                })
                .collect();
            let (mv_dim, bc_dim, reduce_dim) = (mv.0 % ndim, bc.0 % ndim, reduce_dim % ndim);
            // Keep most draws alive: a shift shorter than the tensor, a slice
            // inside it, a broadcast that starts near its low edge.
            let extent = |d: usize| lo_hi[d].1 - lo_hi[d].0;
            let dist = mv.1 % extent(mv_dim);
            let slice_at = lo_hi[bc_dim].0 + bc.1 as i64 % extent(bc_dim);
            let bc_at = lo_hi[bc_dim].0 + bc.2 % extent(bc_dim);
            let Some(g) = random_graph(
                &shape,
                &lo_hi,
                (mv_dim, dist),
                (bc_dim, slice_at, bc_at, bc.3),
                reduce_dim,
            ) else {
                return Ok(()); // degenerate draw
            };
            // 16 bitlines split over the dimensions as powers of two.
            let t0 = tile_split.0.min(4);
            let t1 = tile_split.1.min(4 - t0);
            let mut tile = vec![1u64 << t0, 1 << t1];
            if ndim == 3 {
                tile.push(1 << (4 - t0 - t1));
            } else {
                tile[1] = 1 << (4 - t0);
            }
            let n_banks = [1, 2, 3, 7, 61, 64][bank_pick];
            let tiles: u64 = shape.iter().zip(&tile).map(|(&s, &t)| s.div_ceil(t)).product();
            let hw = HwConfig {
                n_banks,
                arrays_per_bank: tiles.div_ceil(n_banks as u64) as u32 + spare_arrays,
                geometry: SramGeometry { wordlines: 256, bitlines: 16 },
                line_bytes: 4,
                ..Default::default()
            };
            let schedule = Schedule::compute(&g, hw.geometry).expect("schedules");
            let layout = TransposedLayout::plan_with_tile(&g, TileShape::new(tile).unwrap(), &hw)
                .expect("the machine was sized for the lattice");
            assert_streams_match(&g, &schedule, &layout, &hw, "random graph");
        }
    }
}
