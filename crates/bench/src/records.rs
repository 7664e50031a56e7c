//! The machine-readable `results/BENCH_*.json` records, one type per file.
//!
//! Each record is written by [`crate::Ctx::record`] and read back through the
//! same type, so the field list exists once: a document with a field missing
//! is a deserialize error. The vendored `serde_json` writes fields in
//! declaration order and maps sorted, so a record is as byte-stable as the
//! numbers in it.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// `x` rounded to `digits` decimals: derived ratios are recorded at the
/// precision they are meaningful to, not at whatever the division left.
pub fn rounded(x: f64, digits: i32) -> f64 {
    let k = 10f64.powi(digits);
    (x * k).round() / k
}

/// `BENCH_jit.json`: per-workload Inf-S cycles and shape-polymorphic JIT
/// cache behaviour, from the run matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchJit {
    /// `"paper"` / `"test"`.
    pub scale: String,
    /// Keyed by workload (Table 3 naming).
    pub workloads: BTreeMap<String, JitRow>,
}

/// One workload of [`BenchJit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JitRow {
    /// Inf-S cycles.
    pub cycles: u64,
    /// Inf-S-noJIT cycles.
    pub nojit_cycles: u64,
    /// Region dispatches served from the cache (exact stream or patch).
    pub jit_hits: u64,
    /// The copy-and-patch subset of `jit_hits`.
    pub template_hits: u64,
    /// Full lowerings.
    pub lowerings: u64,
    /// Commands served by a concrete hit.
    pub cmd_hits: u64,
    /// Commands stamped out of a template.
    pub cmd_template: u64,
    /// Commands that paid the full per-command lowering rate.
    pub cmd_misses: u64,
    /// [`infs_sim::RunStats::jit_cmd_hit_rate`], 6 decimals.
    pub cmd_hit_rate: f64,
}

/// `BENCH_pipeline.json`: fused streaming vs per-kernel round-trip on the
/// multi-kernel model graphs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchPipeline {
    /// `"paper"` / `"test"`.
    pub scale: String,
    /// Keyed by graph name.
    pub workloads: BTreeMap<String, PipelineRow>,
}

/// One graph of [`BenchPipeline`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineRow {
    /// Stages in the graph.
    pub stages: u64,
    /// Total cycles, intermediates resident across stages.
    pub fused_cycles: u64,
    /// Total cycles, host drain + cold transpose at every stage boundary.
    pub roundtrip_cycles: u64,
    /// `roundtrip_cycles / fused_cycles`, 6 decimals.
    pub speedup: f64,
    /// Fused cycles stalled on operand preparation.
    pub prepare_stall_cycles: u64,
    /// Fused prefetch cycles hidden under the previous stage.
    pub prefetch_hidden_cycles: u64,
}

/// `BENCH_serve.json`: the serving soak. The one host-timed record —
/// [`crate::verify`] holds a fresh run to the committed one by bounds, not
/// bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchServe {
    /// Worker threads over all shards.
    pub workers_total: u64,
    /// The offered open-loop load.
    pub load: ServeLoad,
    /// The sharded, batched reactor under that load.
    pub sharded: ServeRow,
}

/// The load half of [`BenchServe`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeLoad {
    /// Offered requests per second.
    pub rate_rps: f64,
    /// Length of the timed window.
    pub duration_ms: u64,
    /// Pipelined client connections.
    pub connections: u64,
    /// Distinct tenants in the mix.
    pub tenants: u64,
    /// Payload variants per kernel.
    pub variants: u64,
    /// Request-stream seed.
    pub seed: u64,
}

/// The measurement half of [`BenchServe`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRow {
    /// Shards behind the router.
    pub shards: u64,
    /// Requests written to the wire.
    pub sent: u64,
    /// Successful responses.
    pub ok: u64,
    /// Requests the server shed.
    pub rejected: u64,
    /// Requests never answered.
    pub lost: u64,
    /// Successful responses per wall second, 3 decimals.
    pub rps: f64,
    /// Median client latency.
    pub p50_us: u64,
    /// 99th-percentile client latency.
    pub p99_us: u64,
    /// Slowest response.
    pub max_us: u64,
    /// Artifact-cache hit rate (0 when it saw no traffic), 6 decimals.
    pub artifact_hit_rate: f64,
    /// JIT-cache hit rate, as `artifact_hit_rate`.
    pub jit_hit_rate: f64,
    /// Kernel executions (each serves one batch).
    pub batch_executions: u64,
    /// Requests that joined an in-flight batch.
    pub batch_joined: u64,
    /// Largest batch seen.
    pub batch_max_occupancy: u64,
    /// `(executions + joined) / executions`, 4 decimals.
    pub mean_batch_occupancy: f64,
    /// Requests each shard handled, in shard order.
    pub per_shard_requests: Vec<u64>,
}

/// `BENCH_tune.json`: the autotuning soak and its retune drill.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchTune {
    /// Sampler seed.
    pub seed: u64,
    /// Execute requests per workload and server.
    pub requests: u64,
    /// Share of requests the sampler explores with.
    pub explore_percent: u64,
    /// Samples a variant needs before it can be promoted.
    pub min_samples: u64,
    /// Margin a challenger must win by.
    pub promote_margin_percent: u64,
    /// Matrix side length of every workload.
    pub d: u64,
    /// Workloads where tuned beat static outright.
    pub wins: u64,
    /// Keyed by workload.
    pub workloads: BTreeMap<String, TuneRow>,
    /// The chaos-and-retune drill.
    pub retune: RetuneRow,
}

/// One workload of [`BenchTune`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneRow {
    /// Steady-state cycles under the static §4.1/Eq-2 placement.
    pub static_cycles: u64,
    /// Steady-state cycles on the tuned server.
    pub tuned_cycles: u64,
    /// `static_cycles / tuned_cycles`, 4 decimals.
    pub speedup: f64,
    /// Variant serving the exploit path at the end of the soak.
    pub incumbent: String,
    /// Challengers promoted over the soak.
    pub promotions: u64,
    /// Incumbents retired after a fault.
    pub demotions: u64,
    /// Requests served on the explore path.
    pub explored: u64,
    /// Requests served on the exploit path.
    pub exploited: u64,
}

/// The retune drill of [`BenchTune`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetuneRow {
    /// Workload the drill re-runs under a fault schedule.
    pub workload: String,
    /// Banks quarantined during the soak.
    pub banks_lost: u64,
    /// Incumbents retired after a quarantine.
    pub demotions: u64,
    /// Challengers promoted.
    pub promotions: u64,
    /// Steady-state cycles on the post-fault machine.
    pub steady_cycles: u64,
    /// Variant serving the exploit path at the end of the drill.
    pub incumbent: String,
}
