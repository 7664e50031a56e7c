use crate::{EnergyBreakdown, EnergyParams, Mesh, SystemConfig, TrafficBreakdown};
use infs_runtime::{CommandStream, InfCommand};
use serde::{Deserialize, Serialize};

/// Outcome of executing a lowered command stream on the tensor controllers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InMemOutcome {
    /// End-to-end cycles of the command phase (post-JIT, post-prepare).
    pub cycles: u64,
    /// Cycles attributable to tensor movement (shifts, broadcasts, NoC drains).
    pub mv_cycles: u64,
    /// Cycles attributable to bit-serial computation.
    pub compute_cycles: u64,
    /// Cycles of the near-memory final reduction of partials.
    pub final_reduce_cycles: u64,
    /// Traffic breakdown.
    pub traffic: TrafficBreakdown,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Element operations executed on bitlines.
    pub in_mem_ops: u64,
}

/// Executes a command stream's timing on the per-bank tensor controllers
/// (TC_L3), with `sync` commands acting as the §5.2 global barriers.
///
/// Banks advance independently between barriers ("all commands are synchronous
/// at L3 banks… except inter-tile shifts"); remote inter-tile payloads
/// accumulate until the next sync, whose cost includes draining them through
/// the mesh.
///
/// `base_cycle` places the run on the observability timeline: when tracing
/// is enabled, every per-bank command occupancy and every NoC drain is
/// emitted as a simulated-time span starting at `base_cycle + bank-local
/// time`, so consecutive regions line up on one global machine timeline.
pub fn execute_at(
    cs: &CommandStream,
    cfg: &SystemConfig,
    mesh: &Mesh,
    e: &EnergyParams,
    base_cycle: u64,
) -> InMemOutcome {
    let nb = cfg.n_banks as usize;
    let mut bank_time = vec![0u64; nb];
    let mut out = InMemOutcome::default();
    let elem_bytes = 4u64;
    let bank_bw = cfg.bank_bytes_per_cycle as f64;
    let array_bw = cfg.htree_bytes_per_cycle_per_array as f64;
    let tracing = infs_trace::enabled();
    // One bank-occupancy span per (command, bank); `start` is the bank-local
    // time *before* this command's contribution.
    let trace_bank = |bank: u32, start: u64, dur: u64, label: &'static str| {
        if tracing && dur > 0 {
            infs_trace::sim_span(
                &format!("bank {bank:02}"),
                label,
                base_cycle + start,
                dur,
                vec![],
            );
            infs_trace::counter_add("sim.bank_busy_cycles", dur);
        }
    };

    // Remote bytes in flight since the last barrier: (byte_hops, max_flow).
    let mut pending_hops = 0.0f64;
    let mut pending_max_flow = 0.0f64;

    #[allow(unused_mut)]
    let mut barrier = |bank_time: &mut [u64],
                       pending_hops: &mut f64,
                       pending_max_flow: &mut f64,
                       out: &mut InMemOutcome| {
        let drain = if *pending_hops > 0.0 {
            mesh.phase_cycles(*pending_hops, *pending_max_flow)
        } else {
            0
        };
        let before = bank_time.iter().copied().max().unwrap_or(0);
        let t = before + drain + cfg.sync_latency;
        for b in bank_time.iter_mut() {
            *b = t;
        }
        if tracing && drain + cfg.sync_latency > 0 {
            infs_trace::sim_span(
                "noc",
                "barrier",
                base_cycle + before,
                drain + cfg.sync_latency,
                vec![("drain", infs_trace::ArgValue::UInt(drain))],
            );
        }
        out.mv_cycles += drain;
        // Sync protocol: packet-count reports to TC_core and the clearing
        // broadcast (§5.2).
        out.traffic.noc_offload += cfg.n_banks as f64 * 2.0 * 16.0 * mesh.avg_hops();
        *pending_hops = 0.0;
        *pending_max_flow = 0.0;
    };

    for cmd in &cs.cmds {
        // Command broadcast from TC_core to participating banks.
        out.traffic.noc_offload += 32.0 * mesh.avg_hops() * cmd.banks().len().max(1) as f64;
        match cmd {
            InfCommand::Compute {
                latency,
                imm_bytes,
                banks,
                ..
            } => {
                let imm_cycles = imm_bytes * 8; // broadcast constants bit-serially
                let mut worst = 0u64;
                for b in banks {
                    let t = latency + imm_cycles;
                    trace_bank(b.bank, bank_time[b.bank as usize], t, "compute");
                    bank_time[b.bank as usize] += t;
                    worst = worst.max(t);
                    out.in_mem_ops += b.elems;
                    out.energy.in_mem += b.elems as f64 * e.insram_op_elem;
                }
                out.compute_cycles += worst;
                if *imm_bytes > 0 {
                    out.traffic.noc_offload +=
                        *imm_bytes as f64 * mesh.avg_hops() * banks.len() as f64;
                }
            }
            InfCommand::IntraShift { banks, .. } => {
                let mut worst = 0u64;
                for b in banks {
                    let per_array = b.elems as f64 / b.tiles.max(1) as f64;
                    let t = ((per_array * elem_bytes as f64) / array_bw).ceil() as u64;
                    let t = t.max(32); // at least one bit-serial pass
                    trace_bank(b.bank, bank_time[b.bank as usize], t, "intra-shift");
                    bank_time[b.bank as usize] += t;
                    worst = worst.max(t);
                    out.traffic.intra_tile += (b.elems * elem_bytes) as f64;
                    out.energy.in_mem += b.elems as f64 * e.intra_shift_elem;
                }
                out.mv_cycles += worst;
            }
            InfCommand::InterShift { banks, remote, .. } => {
                let mut worst = 0u64;
                for b in banks {
                    let bytes = (b.elems * elem_bytes) as f64;
                    let t = (bytes / bank_bw).ceil() as u64;
                    trace_bank(b.bank, bank_time[b.bank as usize], t, "inter-shift");
                    bank_time[b.bank as usize] += t;
                    worst = worst.max(t);
                    out.energy.l3 += bytes * e.htree_byte;
                }
                out.mv_cycles += worst;
                let remote_bytes: u64 = remote.iter().map(|r| r.bytes).sum();
                let local_bytes: u64 = banks
                    .iter()
                    .map(|b| b.elems * elem_bytes)
                    .sum::<u64>()
                    .saturating_sub(remote_bytes);
                out.traffic.inter_tile_local += local_bytes as f64;
                for r in remote {
                    let hops = mesh.hops(r.src_bank, r.dst_bank).max(1);
                    let bh = (r.bytes * hops) as f64;
                    out.traffic.noc_inter_tile += bh;
                    pending_hops += bh;
                    pending_max_flow = pending_max_flow.max(r.bytes as f64);
                    out.energy.noc += bh * e.noc_byte_hop;
                }
            }
            InfCommand::Broadcast {
                src_elems,
                banks,
                remote,
                ..
            } => {
                let src_read = ((src_elems * elem_bytes) as f64 / bank_bw).ceil() as u64;
                let mut worst = src_read;
                for b in banks {
                    let bytes = (b.elems * elem_bytes) as f64;
                    let t = (bytes / bank_bw).ceil() as u64 + src_read;
                    trace_bank(b.bank, bank_time[b.bank as usize], t, "broadcast");
                    bank_time[b.bank as usize] += t;
                    worst = worst.max(t);
                    out.traffic.inter_tile_local += bytes;
                    out.energy.l3 += bytes * e.htree_byte;
                }
                out.mv_cycles += worst;
                for r in remote {
                    let hops = mesh.hops(r.src_bank, r.dst_bank).max(1);
                    let bh = (r.bytes * hops) as f64;
                    out.traffic.noc_inter_tile += bh;
                    pending_hops += bh;
                    pending_max_flow = pending_max_flow.max(r.bytes as f64);
                    out.energy.noc += bh * e.noc_byte_hop;
                }
            }
            InfCommand::FinalReduce { partials, .. } => {
                // Collected and reduced by the near-memory stream engines,
                // reporting to TC_core.
                barrier(
                    &mut bank_time,
                    &mut pending_hops,
                    &mut pending_max_flow,
                    &mut out,
                );
                let t = (*partials as f64 / (cfg.n_banks as f64 * cfg.sel3_ops_per_cycle)).ceil()
                    as u64
                    + cfg.sel3_init_latency;
                let bh = (*partials * elem_bytes) as f64 * mesh.avg_hops();
                let noc_t = mesh.phase_cycles(bh, 0.0);
                if tracing {
                    let start = bank_time.iter().copied().max().unwrap_or(0);
                    infs_trace::sim_span(
                        "near-mem",
                        "final-reduce",
                        base_cycle + start,
                        t + noc_t,
                        vec![("partials", infs_trace::ArgValue::UInt(*partials))],
                    );
                }
                for b in bank_time.iter_mut() {
                    *b += t + noc_t;
                }
                out.final_reduce_cycles += t + noc_t;
                out.traffic.noc_data += bh;
                out.energy.near_mem += *partials as f64 * e.sel3_op;
                out.energy.noc += bh * e.noc_byte_hop;
            }
            InfCommand::Sync => {
                barrier(
                    &mut bank_time,
                    &mut pending_hops,
                    &mut pending_max_flow,
                    &mut out,
                );
            }
        }
    }
    barrier(
        &mut bank_time,
        &mut pending_hops,
        &mut pending_max_flow,
        &mut out,
    );
    out.cycles = bank_time.into_iter().max().unwrap_or(0);
    out.energy.noc += out.traffic.noc_offload * e.noc_byte_hop;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use infs_runtime::{BankLoad, LoweredStats, RemoteTransfer};
    use infs_tdfg::{ComputeOp, NodeId};

    fn cs(cmds: Vec<InfCommand>) -> CommandStream {
        CommandStream {
            cmds,
            stats: LoweredStats::default(),
        }
    }

    fn setup() -> (SystemConfig, Mesh, EnergyParams) {
        let cfg = SystemConfig::default();
        let mesh = Mesh::new(&cfg);
        (cfg, mesh, EnergyParams::default())
    }

    fn load(bank: u32, tiles: u64, elems: u64) -> BankLoad {
        BankLoad { bank, tiles, elems }
    }

    #[test]
    fn parallel_banks_do_not_stack() {
        let (cfg, mesh, e) = setup();
        // The same compute on 1 bank vs 64 banks takes the same time.
        let one = execute_at(
            &cs(vec![InfCommand::Compute {
                node: NodeId(0),
                op: ComputeOp::Add,
                latency: 208,
                imm_bytes: 0,
                banks: vec![load(0, 1, 256)],
            }]),
            &cfg,
            &mesh,
            &e,
            0,
        );
        let many = execute_at(
            &cs(vec![InfCommand::Compute {
                node: NodeId(0),
                op: ComputeOp::Add,
                latency: 208,
                imm_bytes: 0,
                banks: (0..64).map(|b| load(b, 4, 1024)).collect(),
            }]),
            &cfg,
            &mesh,
            &e,
            0,
        );
        assert_eq!(one.cycles, many.cycles);
        assert!(many.in_mem_ops > one.in_mem_ops);
    }

    #[test]
    fn sequential_commands_on_one_bank_stack() {
        let (cfg, mesh, e) = setup();
        let one = |n: usize| {
            let cmds = (0..n)
                .map(|_| InfCommand::Compute {
                    node: NodeId(0),
                    op: ComputeOp::Add,
                    latency: 208,
                    imm_bytes: 0,
                    banks: vec![load(0, 1, 256)],
                })
                .collect();
            execute_at(&cs(cmds), &cfg, &mesh, &e, 0)
        };
        let t1 = one(1);
        let t4 = one(4);
        assert_eq!(t4.compute_cycles, 4 * t1.compute_cycles);
        assert!(t4.cycles > t1.cycles + 3 * 208 - 1);
    }

    #[test]
    fn sync_barriers_drain_remote_traffic() {
        let (cfg, mesh, e) = setup();
        let shift = InfCommand::InterShift {
            node: NodeId(0),
            dim: 0,
            tile_dist: 1,
            intra_dist: 0,
            banks: vec![load(0, 16, 4096)],
            remote: vec![RemoteTransfer {
                src_bank: 0,
                dst_bank: 63,
                bytes: 1 << 20,
            }],
        };
        let no_sync = execute_at(&cs(vec![shift.clone()]), &cfg, &mesh, &e, 0);
        let with_sync = execute_at(
            &cs(vec![shift.clone(), InfCommand::Sync, shift]),
            &cfg,
            &mesh,
            &e,
            0,
        );
        assert!(no_sync.traffic.noc_inter_tile > 0.0);
        assert!(with_sync.cycles > no_sync.cycles);
        assert!(with_sync.traffic.noc_offload > no_sync.traffic.noc_offload);
    }

    #[test]
    fn final_reduce_charges_near_memory() {
        let (cfg, mesh, e) = setup();
        let out = execute_at(
            &cs(vec![InfCommand::FinalReduce {
                node: NodeId(0),
                partials: 65536,
                banks: vec![load(0, 16, 16)],
            }]),
            &cfg,
            &mesh,
            &e,
            0,
        );
        assert!(out.final_reduce_cycles > 0);
        assert!(out.energy.near_mem > 0.0);
        assert!(out.traffic.noc_data > 0.0);
    }

    #[test]
    fn intra_shift_is_cheap_and_off_noc() {
        let (cfg, mesh, e) = setup();
        let out = execute_at(
            &cs(vec![InfCommand::IntraShift {
                node: NodeId(0),
                dim: 0,
                dist: 1,
                banks: (0..64).map(|b| load(b, 256, 65536)).collect(),
            }]),
            &cfg,
            &mesh,
            &e,
            0,
        );
        assert!(out.traffic.intra_tile > 0.0);
        assert_eq!(out.traffic.noc_inter_tile, 0.0);
        // 4 MiB of data "moved" in a few hundred cycles: the bitline win.
        assert!(out.mv_cycles < 1000, "mv {}", out.mv_cycles);
    }
}
