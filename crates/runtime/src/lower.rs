//! JIT lowering of scheduled tDFGs into bit-serial in-memory commands
//! (paper §4.2): tensor decomposition (Alg 1), shift compilation (Alg 2),
//! mapping to L3 banks, and synchronization insertion.
//!
//! Commands carry exact per-bank tile/element loads and remote (cross-bank)
//! transfer lists. They are the *timing* representation consumed by the
//! simulator; functional values always come from the tDFG interpreter.
//!
//! There is one walk: [`instantiate`] stamps a relocatable
//! [`CommandTemplate`] out against a slot table through the emission core,
//! and [`lower`] is [`crate::distill`] followed by [`instantiate`] of the
//! fresh template. A cache miss and a template hit both stamp the template
//! just distilled and differ only in their modeled price
//! ([`HwConfig::jit_cycles`]); a template distilled from one instance and
//! patched with another instance's slots reproduces the re-lowered stream
//! bit for bit (`check/tests/template_equivalence.rs` and the differential
//! fuzzer pin it), which is what lets a concrete cache entry serve every
//! region of its signature.
//!
//! Emission is the host-side critical path of a JIT hit: every command folds
//! the tiles it touches into per-bank loads. The fold takes one step per
//! *run* — consecutive tiles in one bank that overlap the rectangle alike,
//! handed out by [`infs_geom::TileGrid::for_each_run`] from the stack — and
//! loads accumulate in vectors indexed by bank (`DESIGN.md` §12, "Emission
//! cost"). The per-tile emitter this replaced lives on in the test-only
//! `reference` module, and streams must stay `==` to it.

use crate::template::{CommandTemplate, TemplateOp};
use crate::{HwConfig, RuntimeError, TransposedLayout};
use infs_geom::{decompose, HyperRect};
use infs_isa::Schedule;
use infs_tdfg::{ComputeOp, NodeId, Tdfg};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

#[cfg(test)]
mod reference;

/// Work one command performs at one L3 bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankLoad {
    /// Bank id.
    pub bank: u32,
    /// Tiles of the command mapped to this bank.
    pub tiles: u64,
    /// Elements processed at this bank.
    pub elems: u64,
}

/// A cross-bank transfer a command injects into the NoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemoteTransfer {
    /// Source bank.
    pub src_bank: u32,
    /// Destination bank.
    pub dst_bank: u32,
    /// Payload bytes.
    pub bytes: u64,
}

/// One lowered in-memory command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InfCommand {
    /// Bit-serial element-wise computation across all participating bitlines.
    Compute {
        /// Producing tDFG node.
        node: NodeId,
        /// Operation.
        op: ComputeOp,
        /// Bit-serial latency in SRAM cycles.
        latency: u64,
        /// Bytes of constant operands broadcast to bitlines first (§5.2).
        imm_bytes: u64,
        /// Per-bank load.
        banks: Vec<BankLoad>,
    },
    /// Shift of selected bitlines within each tile (stays inside each SRAM
    /// array; massive parallelism, no NoC traffic).
    IntraShift {
        /// tDFG node being lowered.
        node: NodeId,
        /// Shifted dimension.
        dim: usize,
        /// Intra-tile distance in bitline positions (signed).
        dist: i64,
        /// Per-bank load.
        banks: Vec<BankLoad>,
    },
    /// Shift of selected bitlines across tile boundaries: through the H-tree
    /// within a bank, through the NoC when the destination tile lives in
    /// another bank.
    InterShift {
        /// tDFG node being lowered.
        node: NodeId,
        /// Shifted dimension.
        dim: usize,
        /// Whole tiles of distance (signed).
        tile_dist: i64,
        /// Residual intra-tile distance (signed).
        intra_dist: i64,
        /// Per-source-bank load.
        banks: Vec<BankLoad>,
        /// Cross-bank payloads.
        remote: Vec<RemoteTransfer>,
    },
    /// Broadcast of a unit-thick tensor to many tiles (H-tree multicast within
    /// banks, one NoC copy per destination bank).
    Broadcast {
        /// tDFG node being lowered.
        node: NodeId,
        /// Broadcast dimension.
        dim: usize,
        /// Source elements (read once).
        src_elems: u64,
        /// Per-destination-bank load (tiles written).
        banks: Vec<BankLoad>,
        /// Cross-bank payloads.
        remote: Vec<RemoteTransfer>,
    },
    /// Near-memory collection of per-tile partial reductions into final values
    /// (executed by the L3 stream engines, §3.3 / Fig 10).
    FinalReduce {
        /// tDFG reduce node.
        node: NodeId,
        /// Partial values to collect and reduce.
        partials: u64,
        /// Per-bank partial counts.
        banks: Vec<BankLoad>,
    },
    /// Global memory barrier: all prior inter-tile movement must be visible
    /// before anything after executes (§4.2).
    Sync,
}

impl InfCommand {
    /// Per-bank loads, empty for `Sync`.
    pub fn banks(&self) -> &[BankLoad] {
        match self {
            InfCommand::Compute { banks, .. }
            | InfCommand::IntraShift { banks, .. }
            | InfCommand::InterShift { banks, .. }
            | InfCommand::Broadcast { banks, .. }
            | InfCommand::FinalReduce { banks, .. } => banks,
            InfCommand::Sync => &[],
        }
    }
}

/// Aggregate statistics of a lowered command stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoweredStats {
    /// Total commands (including syncs).
    pub n_cmds: u64,
    /// Elements moved by intra-tile shifts.
    pub intra_elems: u64,
    /// Elements moved across tiles but within a bank.
    pub inter_local_elems: u64,
    /// Bytes injected into the NoC by inter-tile shifts and broadcasts.
    pub inter_remote_bytes: u64,
    /// Sync barriers inserted.
    pub syncs: u64,
    /// Partial values collected by near-memory final reduction.
    pub final_reduce_partials: u64,
    /// Bit-serial compute commands.
    pub compute_cmds: u64,
    /// Commands whose emission class (operator kind + immediate width) was
    /// already materialized earlier in the same stream. The JIT charges these
    /// the copy-and-patch rate instead of the full per-command rate
    /// ([`HwConfig::jit_cycles`]); cache accounting attributes them
    /// to the template path even on a cold lowering.
    pub cmds_from_template: u64,
}

/// A lowered region: the command stream and its statistics. What lowering
/// it costs depends on how the JIT cache served it, so the price is not
/// stored here: [`HwConfig::jit_cycles`] computes it from the outcome and
/// these statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommandStream {
    /// Commands in execution order.
    pub cmds: Vec<InfCommand>,
    /// Aggregate statistics.
    pub stats: LoweredStats,
}

/// Emission class of a command: the key under which a later command can
/// reuse the materialized skeleton of an earlier one in the same stream,
/// paying the copy-and-patch rate instead of the full per-command rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CmdClass {
    Compute(ComputeOp, u64),
    IntraShift,
    InterShift,
    Broadcast,
    FinalReduce,
    Sync,
}

fn class_of(cmd: &InfCommand) -> CmdClass {
    match cmd {
        InfCommand::Compute { op, imm_bytes, .. } => CmdClass::Compute(*op, *imm_bytes),
        InfCommand::IntraShift { .. } => CmdClass::IntraShift,
        InfCommand::InterShift { .. } => CmdClass::InterShift,
        InfCommand::Broadcast { .. } => CmdClass::Broadcast,
        InfCommand::FinalReduce { .. } => CmdClass::FinalReduce,
        InfCommand::Sync => CmdClass::Sync,
    }
}

/// Elements in a per-dimension intersection handed out by
/// [`infs_geom::TileGrid::for_each_run`].
fn volume(inter: &[(i64, i64)]) -> u64 {
    inter.iter().map(|&(p, q)| (q - p) as u64).product()
}

/// Per-bank load of one command, accumulated densely: slot `b` is bank `b`.
struct BankAcc {
    /// `(tiles, elems)` per bank.
    loads: Vec<(u64, u64)>,
    /// Elements over all banks.
    elems: u64,
}

impl BankAcc {
    fn new(n_banks: u32) -> Self {
        BankAcc {
            loads: vec![(0, 0); n_banks as usize],
            elems: 0,
        }
    }

    /// Counts `tiles` tiles with `elems` participating elements between
    /// them at `bank`.
    fn add_run(&mut self, bank: u32, tiles: u64, elems: u64) {
        let load = &mut self.loads[bank as usize];
        load.0 += tiles;
        load.1 += elems;
        self.elems += elems;
    }

    /// The loads of the banks that hold a tile, in bank order.
    fn finish(self) -> Vec<BankLoad> {
        (0u32..)
            .zip(self.loads)
            .filter(|&(_, (tiles, _))| tiles > 0)
            .map(|(bank, (tiles, elems))| BankLoad { bank, tiles, elems })
            .collect()
    }
}

/// Cross-bank payloads of one command. Runs are visited in linear order and
/// banks own runs of consecutive tiles, so successive payloads mostly repeat
/// the previous (source, destination) pair: merge into it, and sort and fold
/// the few remaining repeats once at the end. The result is one sum per
/// pair, so it does not depend on how the tiles were grouped or ordered.
#[derive(Default)]
struct RemoteAcc(Vec<RemoteTransfer>);

impl RemoteAcc {
    fn add(&mut self, src_bank: u32, dst_bank: u32, bytes: u64) {
        match self.0.last_mut() {
            Some(last) if (last.src_bank, last.dst_bank) == (src_bank, dst_bank) => {
                last.bytes += bytes;
            }
            _ => self.0.push(RemoteTransfer {
                src_bank,
                dst_bank,
                bytes,
            }),
        }
    }

    /// One transfer per (source, destination) pair, sorted by pair.
    fn finish(mut self) -> Vec<RemoteTransfer> {
        self.0.sort_unstable_by_key(|r| (r.src_bank, r.dst_bank));
        self.0.dedup_by(|next, kept| {
            let same = (next.src_bank, next.dst_bank) == (kept.src_bank, kept.dst_bank);
            if same {
                kept.bytes += next.bytes;
            }
            same
        });
        self.0
    }
}

/// The emission core [`instantiate`] drives. Knows nothing about graphs or
/// templates — only layouts, rects and the per-node emission rules.
struct Emitter<'a> {
    layout: &'a TransposedLayout,
    cmds: Vec<InfCommand>,
    stats: LoweredStats,
    pending_sync: bool,
    elem_bytes: u64,
    seen: HashSet<CmdClass>,
    /// Runs visited and the tiles they cover, for the `runtime.instantiate`
    /// span.
    walk: RunCount,
}

/// Runs an emitter visited and the tiles they covered.
#[derive(Clone, Copy, Default)]
struct RunCount {
    runs: u64,
    tiles: u64,
}

impl RunCount {
    fn add(&mut self, tiles: u64) {
        self.runs += 1;
        self.tiles += tiles;
    }
}

/// JIT-lowers a scheduled tDFG into a command stream for the given layout:
/// [`crate::distill`] of the graph, then [`instantiate`] of the fresh
/// template against its own slot table.
///
/// # Errors
///
/// [`RuntimeError::MalformedGraph`] for the malformed graphs
/// [`crate::distill`] rejects (dangling ids, missing required domains);
/// [`RuntimeError::BadBounding`] if a node's domain escapes the layout's
/// lattice (cannot happen for graphs the layout was planned for).
pub fn lower(
    g: &Tdfg,
    schedule: &Schedule,
    layout: &TransposedLayout,
    hw: &HwConfig,
) -> Result<CommandStream, RuntimeError> {
    let (template, slots) = crate::distill(g, schedule, hw)?;
    instantiate(&template, &slots, layout)
}

/// Stamps a relocatable template out against a slot table through the
/// emission core — the one JIT emission path, run on a cache miss and on a
/// template hit (§4.2 extension) alike. Geometry is recomputed from the
/// slots, so the stream is bitwise identical to lowering the instance the
/// slots were distilled from; only the *modeled* hardware cost of the two
/// outcomes differs, and [`HwConfig::jit_cycles`] prices it.
///
/// # Errors
///
/// [`RuntimeError::MalformedGraph`] if the slot table does not fit the
/// template (wrong length, escaping or inverted rects, out-of-range
/// dimension slots — possible only with a corrupted cache entry, which the
/// checksum catches first), [`RuntimeError::BadBounding`] if a rect escapes
/// the layout's lattice.
pub fn instantiate(
    t: &CommandTemplate,
    slots: &[i64],
    layout: &TransposedLayout,
) -> Result<CommandStream, RuntimeError> {
    let mut span = infs_trace::span!("runtime.instantiate", ops = t.ops.len());
    if slots.len() as u32 != t.n_slots {
        return Err(RuntimeError::MalformedGraph {
            node: 0,
            what: "slot table length does not match template",
        });
    }
    if t.ndim as usize != layout.tile().dims().len() {
        return Err(RuntimeError::MalformedGraph {
            node: 0,
            what: "template dimensionality does not match layout",
        });
    }
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
    let walk = em.walk;
    let cs = em.finish();
    span.arg("cmds", cs.stats.n_cmds);
    span.arg("tiles", walk.tiles);
    span.arg("runs", walk.runs);
    Ok(cs)
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
            walk: RunCount::default(),
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

    /// Seals the stream: counts its commands.
    fn finish(mut self) -> CommandStream {
        self.stats.n_cmds = self.cmds.len() as u64;
        infs_trace::counter!("jit.commands", self.stats.n_cmds);
        infs_trace::counter!("jit.syncs", self.stats.syncs);
        CommandStream {
            cmds: self.cmds,
            stats: self.stats,
        }
    }

    /// Barrier before a consuming command if inter-tile data is in flight.
    fn sync_if_pending(&mut self) {
        if self.pending_sync {
            self.push(InfCommand::Sync);
            self.stats.syncs += 1;
            self.pending_sync = false;
        }
    }

    /// Per-bank (tiles, elems) of a rectangle: every tile of a run sits in
    /// one bank and overlaps the rectangle by the same volume.
    fn bank_loads(&mut self, rect: &HyperRect) -> Vec<BankLoad> {
        infs_trace::counter!("runtime.bank_maps", 1u64);
        let grid = self.layout.grid();
        let mut banks = BankAcc::new(grid.num_banks());
        let walk = &mut self.walk;
        grid.for_each_run(rect, |tile, n, _, inter| {
            walk.add(n);
            banks.add_run(grid.bank_of_tile(tile), n, n * volume(inter));
        });
        banks.finish()
    }

    /// Emits one element-wise compute node as a single *fused* command.
    ///
    /// Algorithm 1 would split the domain into tile-aligned pieces (boundary
    /// tiles need their own bitline masks — the stencil3d blow-up of §8), but
    /// the pieces partition the domain and no tile overlaps two of them, so
    /// their merged per-bank loads are exactly the domain's own: a bank
    /// appearing in several pieces runs them on different arrays in parallel
    /// and pays the bit-serial latency once, the parallelism the execution
    /// model already grants same-command banks.
    fn emit_compute(
        &mut self,
        node: NodeId,
        op: ComputeOp,
        latency: u64,
        imm_bytes: u64,
        domain: &HyperRect,
    ) -> Result<(), RuntimeError> {
        self.sync_if_pending();
        let banks = self.bank_loads(domain);
        if banks.is_empty() {
            return Ok(());
        }
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
        let _span = infs_trace::span!("runtime.shift_lower", node = node.0, dim = dim, dist = dist);
        let t = self.layout.tile().dim(dim) as i64;
        let d_inter = dist.abs() / t;
        let d_intra = dist.abs() % t;
        let comp = t - d_intra;
        let subs = decompose(eff_src, self.layout.tile().dims());
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
        let grid = self.layout.grid();
        let elem_bytes = self.elem_bytes;
        let t = self.layout.tile().dim(dim) as i64;
        let tiles_along = grid.tiles_per_dim()[dim] as i64;
        let w = grid.arrays_per_bank() as i64;
        let along_run = dim == grid.run_dim();
        // A tile `inter` tiles further along `dim` is this far in linear index.
        let hop = inter * grid.tiles_per_dim()[..dim].iter().product::<u64>() as i64;
        let mut banks = BankAcc::new(grid.num_banks());
        let mut remote = RemoteAcc::default();
        let mut local_inter = 0u64;
        let walk = &mut self.walk;
        grid.for_each_run(sub, |tile, n, coord, part| {
            walk.add(n);
            // Elements whose intra-tile coordinate along `dim` is in the mask;
            // every tile of the run overlaps the subtensor alike.
            let (plo, phi) = part[dim];
            let tile_base = coord[dim] as i64 * t;
            let ilo = (plo - tile_base).max(mask_lo);
            let ihi = (phi - tile_base).min(mask_hi);
            if ilo >= ihi {
                return;
            }
            // The overlap's cross-section off `dim` times the masked run.
            let elems = volume(part) / (phi - plo) as u64 * (ihi - ilo) as u64;
            let src_bank = grid.bank_of_tile(tile);
            banks.add_run(src_bank, n, n * elems);
            if inter == 0 {
                return;
            }
            // The run's tiles `k0..k1` whose destination survives the clip at
            // the lattice edge: along the run dimension the destination
            // coordinate moves with `k`, off it the whole run shares one.
            let dest = coord[dim] as i64 + inter;
            let (mut k, k1) = if along_run {
                ((-dest).max(0), (tiles_along - dest).min(n as i64))
            } else if (0..tiles_along).contains(&dest) {
                (0, n as i64)
            } else {
                return;
            };
            // The destinations `tile + hop + k` may straddle a bank boundary.
            while k < k1 {
                let dst = tile as i64 + hop + k;
                let m = (k1 - k).min(w - dst % w);
                let dst_bank = grid.bank_of_tile(dst as u64);
                let moved = m as u64 * elems;
                if dst_bank == src_bank {
                    local_inter += moved;
                } else {
                    remote.add(src_bank, dst_bank, moved * elem_bytes);
                }
                k += m;
            }
        });
        let total = banks.elems;
        if total == 0 {
            return Ok(()); // empty mask/tensor intersection: filtered out (§4.2)
        }
        let banks = banks.finish();
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
            let remote = remote.finish();
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
        let _span = infs_trace::span!("runtime.broadcast_lower", node = node.0, dim = dim);
        let banks = self.bank_loads(dest);
        if banks.is_empty() {
            return Ok(());
        }
        let remote = self.broadcast_copies(src, dest, dim);
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

    /// Cross-bank payloads of a broadcast of `src`'s first slice along `dim`
    /// over `dest`.
    ///
    /// A destination tile reads the one source tile that shares its
    /// coordinate off `dim` and holds the source slice along it, and the part
    /// of the slice it reads — the tile's footprint projected onto the slice —
    /// is the same for every destination tile of that column. So the copies
    /// are found column by column: each tile of the first destination layer
    /// along `dim` heads a column, and stepping through the column charges
    /// the source tile's part once per distinct destination bank other than
    /// the source's own.
    fn broadcast_copies(
        &self,
        src: &HyperRect,
        dest: &HyperRect,
        dim: usize,
    ) -> Vec<RemoteTransfer> {
        let grid = self.layout.grid();
        let shape = grid.array_shape();
        let tile = self.layout.tile().dims();
        if src.ndim() != shape.len() || dest.ndim() != shape.len() {
            return Vec::new();
        }
        let src_coord = src.start(dim);
        if src.extent(dim) == 0 || src_coord < 0 || src_coord as u64 >= shape[dim] {
            return Vec::new();
        }
        // Destination tile coordinates along `dim`: [first, last].
        let (dlo, dhi) = dest.interval(dim);
        let (dlo, dhi) = (dlo.max(0), dhi.min(shape[dim] as i64));
        if dlo >= dhi {
            return Vec::new();
        }
        let t = tile[dim] as i64;
        let (first, last) = (dlo / t, (dhi - 1) / t);
        let stride = grid.tiles_per_dim()[..dim].iter().product::<u64>();
        let src_layer = src_coord / t;
        let Ok(first_layer) = dest.with_interval(dim, dlo, dlo + 1) else {
            return Vec::new();
        };
        let mut remote = RemoteAcc::default();
        // `copied[b]` names the last source tile (+1) bank `b` got a copy of;
        // a column is walked in one go, so that is all the memory multicast
        // de-duplication needs.
        let mut copied = vec![0u64; grid.num_banks() as usize];
        grid.for_each_overlap(&first_layer, |dest_tile, coord, _| {
            let mut elems = 1u64;
            for (d, &c) in coord.iter().enumerate() {
                if d == dim {
                    continue;
                }
                let base = (c * tile[d]) as i64;
                let end = (base + tile[d] as i64).min(shape[d] as i64);
                let (sp, sq) = src.interval(d);
                let (p, q) = (base.max(sp), end.min(sq));
                if p >= q {
                    return; // this column reads nothing of the source
                }
                elems *= (q - p) as u64;
            }
            let bytes = elems * self.elem_bytes;
            if bytes == 0 {
                return;
            }
            let src_tile = (dest_tile as i64 + (src_layer - first) * stride as i64) as u64;
            let src_bank = grid.bank_of_tile(src_tile);
            for k in 0..=(last - first) as u64 {
                let dst_bank = grid.bank_of_tile(dest_tile + k * stride);
                if dst_bank == src_bank || copied[dst_bank as usize] == src_tile + 1 {
                    continue; // intra-bank H-tree fan-out, or already multicast
                }
                copied[dst_bank as usize] = src_tile + 1;
                remote.add(src_bank, dst_bank, bytes);
            }
        });
        remote.finish()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JitOutcome;
    use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
    use infs_geom::TileShape;
    use infs_sdfg::{DataType, ReduceOp};
    use infs_tdfg::OutputTarget;

    fn hw_small() -> HwConfig {
        // A miniature machine: 2 banks, 2 arrays per bank, 4-bitline tiles —
        // mirrors the Fig 9 setting closely enough to hand-check.
        HwConfig {
            n_banks: 2,
            arrays_per_bank: 2,
            geometry: infs_isa::SramGeometry {
                wordlines: 256,
                bitlines: 4,
            },
            line_bytes: 4,
            ..Default::default()
        }
    }

    fn mv_graph(n: u64, dist: i64) -> Tdfg {
        let mut b = infs_tdfg::TdfgBuilder::new(2, DataType::F32);
        let a = b.declare_array(infs_sdfg::ArrayDecl::new("A", vec![n, n], DataType::F32));
        let o = b.declare_array(infs_sdfg::ArrayDecl::new("O", vec![n, n], DataType::F32));
        let full = HyperRect::new(vec![(0, n as i64), (0, n as i64)]).unwrap();
        let x = b.input(a, full.clone()).unwrap();
        let m = b.mv(x, 1, dist).unwrap();
        let out_rect = if dist >= 0 {
            HyperRect::new(vec![(0, n as i64), (dist, n as i64)]).unwrap()
        } else {
            HyperRect::new(vec![(0, n as i64), (0, n as i64 + dist)]).unwrap()
        };
        b.output(m, OutputTarget::array(o, out_rect));
        b.build().unwrap()
    }

    fn lower_graph(g: &Tdfg, hw: &HwConfig) -> CommandStream {
        let schedule = Schedule::compute(g, hw.geometry).unwrap();
        let layout = TransposedLayout::plan(g, &g.layout_hints(), hw).unwrap();
        lower(g, &schedule, &layout, hw).unwrap()
    }

    #[test]
    fn fig9_style_shift_commands() {
        // 4x4 lattice, 2x2 tiles, right shift of column range by 1:
        // expect one intra-tile and one inter-tile shift per aligned piece.
        let hw = hw_small();
        let g = mv_graph(4, 1);
        let cs = lower_graph(&g, &hw);
        let intra = cs
            .cmds
            .iter()
            .filter(|c| matches!(c, InfCommand::IntraShift { .. }))
            .count();
        let inter = cs
            .cmds
            .iter()
            .filter(|c| matches!(c, InfCommand::InterShift { .. }))
            .count();
        assert!(intra >= 1, "expected intra-tile shifts: {:?}", cs.cmds);
        assert!(inter >= 1, "expected inter-tile shifts: {:?}", cs.cmds);
        assert!(cs.stats.intra_elems > 0);
        assert_eq!(
            cs.stats.intra_elems + cs.stats.inter_local_elems + cs.stats.inter_remote_bytes / 4,
            g.domain(infs_tdfg::NodeId(1)).unwrap().num_elements(),
            "every surviving element is moved exactly once"
        );
    }

    #[test]
    fn tile_aligned_shift_has_no_intra_piece() {
        // Shift by a whole tile (2): d_intra = 0, single inter-tile command
        // per decomposed piece.
        let hw = hw_small();
        let g = mv_graph(4, 2);
        let cs = lower_graph(&g, &hw);
        assert!(cs
            .cmds
            .iter()
            .all(|c| !matches!(c, InfCommand::IntraShift { .. })));
        assert!(cs.cmds.iter().any(|c| matches!(
            c,
            InfCommand::InterShift {
                tile_dist: 1,
                intra_dist: 0,
                ..
            }
        )));
    }

    #[test]
    fn negative_shift_mirrors_positive() {
        let hw = hw_small();
        let pos = lower_graph(&mv_graph(4, 1), &hw);
        let neg = lower_graph(&mv_graph(4, -1), &hw);
        let moved = |cs: &CommandStream| {
            cs.stats.intra_elems + cs.stats.inter_local_elems + cs.stats.inter_remote_bytes / 4
        };
        assert_eq!(moved(&pos), moved(&neg));
    }

    #[test]
    fn sync_inserted_between_remote_shift_and_compute() {
        // B[i][j] = A[i][j-2] + A[i][j]: the 2-tile shift crosses banks, so a
        // sync must separate it from the consuming compute.
        let n = 4u64;
        let mut kb = KernelBuilder::new("s", DataType::F32);
        let a = kb.array("A", vec![n, n]);
        let o = kb.array("B", vec![n, n]);
        let i = kb.parallel_loop("i", 0, n as i64);
        let j = kb.parallel_loop("j", 2, n as i64);
        kb.assign(
            o,
            vec![Idx::var(i), Idx::var(j)],
            ScalarExpr::add(
                ScalarExpr::load(a, vec![Idx::var(i), Idx::var_plus(j, -2)]),
                ScalarExpr::load(a, vec![Idx::var(i), Idx::var(j)]),
            ),
        );
        let g = kb.build().unwrap().tensorize(&[]).unwrap();
        let hw = hw_small();
        let cs = lower_graph(&g, &hw);
        let sync_pos = cs.cmds.iter().position(|c| matches!(c, InfCommand::Sync));
        let compute_pos = cs
            .cmds
            .iter()
            .position(|c| matches!(c, InfCommand::Compute { .. }));
        let inter_pos = cs
            .cmds
            .iter()
            .position(|c| matches!(c, InfCommand::InterShift { .. }));
        if let (Some(s), Some(c), Some(m)) = (sync_pos, compute_pos, inter_pos) {
            assert!(m < s && s < c, "inter-shift {m} < sync {s} < compute {c}");
        } else {
            panic!("expected inter-shift, sync and compute: {:?}", cs.cmds);
        }
        assert!(cs.stats.syncs >= 1);
    }

    #[test]
    fn broadcast_multicasts_once_per_destination_bank() {
        // Broadcast one row across the whole 4x4 lattice.
        let n = 4i64;
        let mut b = infs_tdfg::TdfgBuilder::new(2, DataType::F32);
        let a = b.declare_array(infs_sdfg::ArrayDecl::new(
            "A",
            vec![n as u64, n as u64],
            DataType::F32,
        ));
        let row = b
            .input(a, HyperRect::new(vec![(0, n), (0, 1)]).unwrap())
            .unwrap();
        let bc = b.bc(row, 1, 0, n as u64).unwrap();
        b.output(
            bc,
            OutputTarget::array(a, HyperRect::new(vec![(0, n), (0, n)]).unwrap()),
        );
        let g = b.build().unwrap();
        let hw = hw_small();
        // Pin 2x2 tiles: the planner's own choice (1x4 column tiles) makes the
        // broadcast entirely tile-local, which is exactly the §4.1 heuristic
        // working — but here we want to observe the cross-bank path.
        let schedule = Schedule::compute(&g, hw.geometry).unwrap();
        let layout = TransposedLayout::plan_with_tile(
            &g,
            infs_geom::TileShape::new(vec![2, 2]).unwrap(),
            &hw,
        )
        .unwrap();
        let cs = lower(&g, &schedule, &layout, &hw).unwrap();
        let bc_cmd = cs
            .cmds
            .iter()
            .find_map(|c| match c {
                InfCommand::Broadcast { banks, remote, .. } => {
                    Some((banks.clone(), remote.clone()))
                }
                _ => None,
            })
            .expect("broadcast command");
        let (banks, remote) = bc_cmd;
        assert_eq!(banks.len(), 2, "both banks receive tiles");
        // Source row lives in bank 0 (tiles 0,1); bank 1's tiles need remote
        // copies — one per (source tile, destination bank).
        assert!(!remote.is_empty());
        assert!(remote.iter().all(|r| r.src_bank != r.dst_bank));
    }

    #[test]
    fn reduce_emits_log_rounds_and_final_reduce() {
        let n = 8u64;
        let mut kb = KernelBuilder::new("sum", DataType::F32);
        let a = kb.array("A", vec![n, n]);
        let i = kb.parallel_loop("i", 0, n as i64);
        let j = kb.parallel_loop("j", 0, n as i64);
        kb.scalar_reduce(
            "s",
            ReduceOp::Sum,
            ScalarExpr::load(a, vec![Idx::var(i), Idx::var(j)]),
        );
        let g = kb.build().unwrap().tensorize(&[]).unwrap();
        // 8x8 lattice over 2x2 tiles = 16 tiles: needs 16 SRAM arrays.
        let hw = HwConfig {
            arrays_per_bank: 8,
            ..hw_small()
        };
        let cs = lower_graph(&g, &hw);
        // Tile dim = 2 -> 1 in-tile round per reduced dim; 8/2 = 4 tiles along
        // each dim -> final reduce needed.
        let finals = cs
            .cmds
            .iter()
            .filter(|c| matches!(c, InfCommand::FinalReduce { .. }))
            .count();
        assert_eq!(finals, 2, "one cross-tile collection per reduced dim");
        assert!(cs.stats.final_reduce_partials > 0);
        let computes = cs
            .cmds
            .iter()
            .filter(|c| matches!(c, InfCommand::Compute { .. }))
            .count();
        assert!(computes >= 2, "at least one reduction round per dim");
    }

    #[test]
    fn jit_cycle_model_counts_commands() {
        let hw = hw_small();
        let g = mv_graph(4, 1);
        let cs = lower_graph(&g, &hw);
        let miss = |from_template| hw.jit_cycles(JitOutcome::Miss, cs.stats.n_cmds, from_template);
        let priced = miss(cs.stats.cmds_from_template);
        assert!(cs.stats.cmds_from_template > 0);
        assert!(priced > hw.jit.base);
        // Commands reusing an earlier emission class are charged the patch
        // rate, so the stream is never costed above the all-fresh model.
        assert!(priced < miss(0));
    }

    #[test]
    fn compute_pieces_fuse_into_one_command_per_node() {
        // An unaligned compute domain decomposes into several pieces, but the
        // pieces are disjoint — one fused command per node, with the piece
        // loads merged per bank.
        let n = 4u64;
        let mut kb = KernelBuilder::new("f", DataType::F32);
        let a = kb.array("A", vec![n, n]);
        let o = kb.array("B", vec![n, n]);
        let i = kb.parallel_loop("i", 1, n as i64 - 1);
        let j = kb.parallel_loop("j", 1, n as i64 - 1);
        kb.assign(
            o,
            vec![Idx::var(i), Idx::var(j)],
            ScalarExpr::add(
                ScalarExpr::load(a, vec![Idx::var(i), Idx::var(j)]),
                ScalarExpr::load(a, vec![Idx::var(i), Idx::var(j)]),
            ),
        );
        let g = kb.build().unwrap().tensorize(&[]).unwrap();
        let hw = hw_small();
        let cs = lower_graph(&g, &hw);
        let computes: Vec<_> = cs
            .cmds
            .iter()
            .filter_map(|c| match c {
                InfCommand::Compute { banks, .. } => Some(banks),
                _ => None,
            })
            .collect();
        assert_eq!(computes.len(), 1, "one fused command: {:?}", cs.cmds);
        // The 2x2 interior over 2x2 tiles touches all 4 tiles of both banks.
        let total_elems: u64 = computes[0].iter().map(|b| b.elems).sum();
        assert_eq!(total_elems, 4);
        assert!(computes[0].iter().map(|b| b.tiles).sum::<u64>() > 1);
    }

    /// Cross-instance: the template distilled at one shift distance serves a
    /// different distance — same signature, different slots — and still
    /// matches a full re-lowering of the new instance.
    #[test]
    fn foreign_slots_instantiate_to_the_relowered_stream() {
        let hw = hw_small();
        let g1 = mv_graph(4, 1);
        let g2 = mv_graph(4, 2);
        let schedule = Schedule::compute(&g1, hw.geometry).unwrap();
        let (t1, _) = crate::distill(&g1, &schedule, &hw).unwrap();
        let schedule2 = Schedule::compute(&g2, hw.geometry).unwrap();
        let (t2, slots2) = crate::distill(&g2, &schedule2, &hw).unwrap();
        assert_eq!(t1.signature, t2.signature, "instances share a template");
        let layout = TransposedLayout::plan(&g2, &g2.layout_hints(), &hw).unwrap();
        let direct = lower(&g2, &schedule2, &layout, &hw).unwrap();
        let stamped = instantiate(&t1, &slots2, &layout).unwrap();
        assert_eq!(direct, stamped);
    }

    /// `out[..] = a[..]` shifted by `dist` along `dim` over an
    /// `n0 × n1` array.
    fn shift_graph(n0: u64, n1: u64, dim: usize, dist: i64) -> Tdfg {
        let mut b = infs_tdfg::TdfgBuilder::new(2, DataType::F32);
        let a = b.declare_array(infs_sdfg::ArrayDecl::new("A", vec![n0, n1], DataType::F32));
        let o = b.declare_array(infs_sdfg::ArrayDecl::new("O", vec![n0, n1], DataType::F32));
        let full = HyperRect::new(vec![(0, n0 as i64), (0, n1 as i64)]).unwrap();
        let x = b.input(a, full.clone()).unwrap();
        let m = b.mv(x, dim, dist).unwrap();
        let out = full.with_interval(dim, dist, full.end(dim)).unwrap();
        b.output(m, OutputTarget::array(o, out));
        b.build().unwrap()
    }

    /// A shift along the run dimension that meets every split the run walk
    /// makes: source rows cross bank boundaries (`arrays_per_bank` = 5), the
    /// two pieces hop 3 and 4 tiles so their destinations straddle bank
    /// boundaries too, and on a layout planned for 48 of the graph's 64 rows
    /// the last destinations of each row fall off the lattice. Emission must
    /// still equal the per-tile reference.
    #[test]
    fn shift_runs_split_at_bank_boundaries_and_the_lattice_edge() {
        let hw = HwConfig {
            n_banks: 8,
            arrays_per_bank: 5,
            geometry: infs_isa::SramGeometry {
                wordlines: 256,
                bitlines: 16,
            },
            line_bytes: 4,
            ..Default::default()
        };
        let g = shift_graph(64, 8, 0, 13); // 13 = 3 tiles of 4, plus 1
        let tile = TileShape::new(vec![4, 4]).unwrap();
        let layout =
            TransposedLayout::plan_with_tile(&shift_graph(48, 8, 0, 13), tile, &hw).unwrap();
        assert_eq!(layout.grid().run_dim(), 0);
        let schedule = Schedule::compute(&g, hw.geometry).unwrap();
        let (template, slots) = crate::distill(&g, &schedule, &hw).unwrap();
        let want = reference::instantiate(&template, &slots, &layout).unwrap();
        let got = instantiate(&template, &slots, &layout).unwrap();
        assert_eq!(got, want);
        // Every split is exercised: moves stay in a bank and leave it, and
        // fewer elements land than the source tiles send.
        let sent: u64 = got
            .cmds
            .iter()
            .filter(|c| matches!(c, InfCommand::InterShift { .. }))
            .flat_map(|c| c.banks())
            .map(|b| b.elems)
            .sum();
        let landed = got.stats.inter_local_elems + got.stats.inter_remote_bytes / 4;
        assert!(got.stats.inter_local_elems > 0 && got.stats.inter_remote_bytes > 0);
        assert!(landed < sent, "landed {landed} of {sent}");
    }

    #[test]
    fn instantiate_rejects_wrong_slot_table_length() {
        let hw = hw_small();
        let g = mv_graph(4, 1);
        let schedule = Schedule::compute(&g, hw.geometry).unwrap();
        let layout = TransposedLayout::plan(&g, &g.layout_hints(), &hw).unwrap();
        let (t, mut slots) = crate::distill(&g, &schedule, &hw).unwrap();
        slots.push(0);
        assert!(matches!(
            instantiate(&t, &slots, &layout),
            Err(RuntimeError::MalformedGraph { .. })
        ));
    }

    #[test]
    fn boundary_tensor_needs_more_commands_than_aligned() {
        // An unaligned region decomposes into more pieces -> more commands:
        // the stencil3d effect of §8.
        let hw = HwConfig {
            n_banks: 4,
            arrays_per_bank: 16,
            geometry: infs_isa::SramGeometry {
                wordlines: 256,
                bitlines: 16,
            },
            line_bytes: 4,
            ..Default::default()
        };
        let aligned = {
            let g = mv_graph(16, 4); // 4x4 tiles, aligned shift
            lower_graph(&g, &hw)
        };
        let unaligned = {
            let g = mv_graph(16, 3);
            lower_graph(&g, &hw)
        };
        assert!(
            unaligned.stats.n_cmds > aligned.stats.n_cmds,
            "unaligned {} vs aligned {}",
            unaligned.stats.n_cmds,
            aligned.stats.n_cmds
        );
    }

    #[test]
    fn explicit_tile_changes_traffic_split() {
        // With 1xB tiles a dim-1 shift is all inter-tile; with Bx1... the
        // reverse. Checks the Fig 16 mechanism: tile choice moves traffic
        // between intra and inter.
        let g = mv_graph(16, 1);
        let hw = HwConfig {
            n_banks: 4,
            arrays_per_bank: 16,
            geometry: infs_isa::SramGeometry {
                wordlines: 256,
                bitlines: 16,
            },
            line_bytes: 4,
            ..Default::default()
        };
        let schedule = Schedule::compute(&g, hw.geometry).unwrap();
        let tall = TransposedLayout::plan_with_tile(&g, TileShape::new(vec![1, 16]).unwrap(), &hw)
            .unwrap();
        let wide = TransposedLayout::plan_with_tile(&g, TileShape::new(vec![16, 1]).unwrap(), &hw)
            .unwrap();
        let cs_tall = lower(&g, &schedule, &tall, &hw).unwrap();
        let cs_wide = lower(&g, &schedule, &wide, &hw).unwrap();
        // Shift along dim 1: tall tiles (16 in dim 1) keep it intra-tile.
        assert!(cs_tall.stats.intra_elems > 0);
        assert_eq!(
            cs_tall.stats.inter_local_elems + cs_tall.stats.inter_remote_bytes,
            0
        );
        // Wide tiles (1 in dim 1) force every element across tiles.
        assert_eq!(cs_wide.stats.intra_elems, 0);
        assert!(cs_wide.stats.inter_local_elems > 0 || cs_wide.stats.inter_remote_bytes > 0);
    }
}
