//! The wire protocol: newline-delimited JSON, one [`Request`] per line in,
//! one [`Response`] per line out.
//!
//! The payload format deliberately reuses the repo's existing serialized
//! artifacts — kernels and fat binaries travel as the same serde encodings
//! `FatBinary::to_json`/`from_json` already produce — so the wire format is
//! the fat-binary format plus a thin envelope, and the round-trip property
//! test on the binary encoding covers the protocol's heaviest payload.

use infs_frontend::Kernel;
use infs_sim::{ExecMode, Executed};
use serde::{Deserialize, Serialize};

/// One client request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Tenant name (observability/accounting; requests are isolated
    /// regardless — every execute runs on freshly reset functional memory).
    pub tenant: String,
    /// Per-request deadline in milliseconds from admission; `None` uses the
    /// server default.
    pub deadline_ms: Option<u64>,
    /// What to do.
    pub body: RequestBody,
}

/// The request kinds the server understands.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RequestBody {
    /// Compile a kernel into a (cached) fat-binary artifact.
    Compile(CompileRequest),
    /// Execute a region of a compiled artifact.
    Execute(ExecuteRequest),
    /// Compile and execute a whole multi-kernel pipeline graph
    /// (`infs_pipeline::PipelineGraph` JSON) under the streaming scheduler.
    Pipeline(PipelineRequest),
    /// Liveness probe.
    Ping,
    /// Dump server-wide observability counters (cache hit rates, queue
    /// depth, worker count) as a [`MetricsReport`].
    Metrics,
    /// Begin graceful shutdown: admission closes, in-flight and queued
    /// requests complete, workers exit.
    Shutdown,
    /// Report service health: bank health, worker-fault and cache-corruption
    /// counters, queue pressure — as a [`HealthReport`]. The operations
    /// probe (see the README runbook).
    Health,
}

/// Compile a kernel (the repo's loop-nest IR, serialized with serde — the
/// "plain C" artifact) into a fat binary. Identical requests are served from
/// the content-addressed artifact cache without recompiling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompileRequest {
    /// The kernel to compile.
    pub kernel: Kernel,
    /// Representative symbol binding used to probe tensorizability and
    /// scheduling (typical input sizes).
    pub representative_syms: Vec<i64>,
    /// Run the e-graph optimizer.
    pub optimize: bool,
}

/// Execute one region of a compiled artifact on a worker's machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecuteRequest {
    /// Artifact id (as returned by a compile response). Exactly one of
    /// `artifact` / `binary` must be set.
    pub artifact: Option<String>,
    /// Inline fat binary (`FatBinary::to_json` output) for clients that
    /// compiled elsewhere; it is registered in the artifact cache under its
    /// content hash.
    pub binary: Option<String>,
    /// Region (kernel) name to enter.
    pub region: String,
    /// Symbol values for instantiation (the `inf_cfg` moment).
    pub syms: Vec<i64>,
    /// Runtime scalar parameters.
    pub params: Vec<f32>,
    /// Execution mode.
    pub mode: WireMode,
    /// Input arrays to write before running.
    pub inputs: Vec<ArrayPayload>,
    /// Array ids whose contents to return after running.
    pub outputs: Vec<u32>,
}

/// Compile-and-run a multi-kernel pipeline graph in one request.
///
/// The graph travels as the JSON `infs_pipeline::PipelineGraph::to_json`
/// produces and is content-addressed as **one** artifact: identical graphs
/// (same tensors, kernels, symbol bindings, and stage order) hit the
/// pipeline cache and skip compilation and residency planning entirely.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineRequest {
    /// The serialized pipeline graph (`PipelineGraph::to_json` output).
    pub graph: String,
    /// Execution mode.
    pub mode: WireMode,
    /// `true` runs the fused streaming schedule (resident intermediates,
    /// overlapped prefetch); `false` runs the per-kernel round-trip baseline.
    pub fused: bool,
    /// Input tensors to write before the first stage.
    pub inputs: Vec<ArrayPayload>,
    /// Tensor ids whose contents to return after the last stage.
    pub outputs: Vec<u32>,
}

/// One array's contents on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrayPayload {
    /// Array id in the binary's array table.
    pub array: u32,
    /// Element values (row-major).
    pub data: Vec<f32>,
}

/// Wire-friendly execution mode (mirrors [`ExecMode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireMode {
    /// 1-thread multicore baseline.
    Base1,
    /// 64-thread AVX-512-class baseline.
    Base,
    /// Near-stream computing at the L3 banks.
    NearL3,
    /// In-memory only.
    InL3,
    /// Fused in-/near-memory (the paper's Inf-S).
    InfS,
    /// Inf-S with precompiled commands (no JIT charge).
    InfSNoJit,
}

impl WireMode {
    /// The simulator mode this selects.
    pub fn exec_mode(self) -> ExecMode {
        match self {
            WireMode::Base1 => ExecMode::Base { threads: 1 },
            WireMode::Base => ExecMode::Base { threads: 64 },
            WireMode::NearL3 => ExecMode::NearL3,
            WireMode::InL3 => ExecMode::InL3,
            WireMode::InfS => ExecMode::InfS,
            WireMode::InfSNoJit => ExecMode::InfSNoJit,
        }
    }

    /// Stable index for batch and tune keys.
    pub(crate) fn index(self) -> u8 {
        match self {
            WireMode::Base1 => 0,
            WireMode::Base => 1,
            WireMode::NearL3 => 2,
            WireMode::InL3 => 3,
            WireMode::InfS => 4,
            WireMode::InfSNoJit => 5,
        }
    }
}

/// One server response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// True when the request succeeded.
    pub ok: bool,
    /// Failure details when `ok` is false.
    pub error: Option<WireError>,
    /// Artifact id: the compile result, or the artifact an execute resolved.
    pub artifact: Option<String>,
    /// Requested output arrays (execute only).
    pub outputs: Vec<ArrayPayload>,
    /// Named scalar outputs of the region (execute only).
    pub scalars: Vec<ScalarOut>,
    /// Per-request observability; present on every response, including
    /// errors, so the serving layer is measurable from day one.
    pub stats: ResponseStats,
    /// Server-wide counters (present on `Metrics` responses only).
    pub metrics: Option<MetricsReport>,
    /// Service health (present on `Health` responses only).
    pub health: Option<HealthReport>,
}

/// Service health, returned by the `Health` verb (`DESIGN.md` §10).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HealthReport {
    /// `"ok"` (fully healthy), `"degraded"` (dead banks, worker faults or
    /// cache corruption observed), or `"draining"` (shutting down).
    pub status: String,
    /// Healthy L3 banks on the configured machine.
    pub healthy_banks: u32,
    /// Total L3 banks on the configured machine.
    pub total_banks: u32,
    /// Worker panics isolated by `catch_unwind` since start.
    pub worker_faults: u64,
    /// Artifact-cache entries whose checksum failed verification.
    pub artifact_corruptions: u64,
    /// JIT-cache entries whose integrity digest failed verification.
    pub jit_corruptions: u64,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Per-shard health when the responder is a shard cluster; empty for a
    /// single server.
    pub shards: Vec<ShardHealth>,
}

impl HealthReport {
    /// Status string for a fully healthy service.
    pub const OK: &'static str = "ok";
    /// Status string when faults have been observed but the service runs.
    pub const DEGRADED: &'static str = "degraded";
    /// Status string once shutdown has begun.
    pub const DRAINING: &'static str = "draining";
    /// Status string for a shard that is down (killed, or dead from the
    /// cluster's fault plan); its tenants are served by ring neighbors.
    pub const DEAD: &'static str = "dead";
}

/// One shard's state inside a cluster [`HealthReport`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShardHealth {
    /// Shard index on the consistent-hash ring.
    pub shard: u32,
    /// `"ok"`, `"degraded"`, `"draining"`, or `"dead"`.
    pub status: String,
    /// Healthy L3 banks on this shard's machine.
    pub healthy_banks: u32,
    /// Total L3 banks on this shard's machine.
    pub total_banks: u32,
    /// Worker panics isolated on this shard since start.
    pub worker_faults: u64,
    /// Requests queued on this shard right now.
    pub queue_depth: usize,
    /// Requests the router has sent to this shard since start.
    pub requests: u64,
}

/// Server-wide observability counters, returned by the `Metrics` verb.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Requests admitted and served since start.
    pub served: u64,
    /// Requests rejected at admission (backpressure / shutdown).
    pub rejected: u64,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Artifact-cache hits since start.
    pub artifact_hits: u64,
    /// Artifact-cache misses (compiles) since start.
    pub artifact_misses: u64,
    /// Artifact-cache evictions since start.
    pub artifact_evictions: u64,
    /// JIT memoization cache hits since start (all workers' machines share one cache).
    /// Includes template (copy-and-patch) hits.
    pub jit_hits: u64,
    /// JIT memoization cache misses since start.
    pub jit_misses: u64,
    /// The subset of `jit_hits` served by copy-and-patch of a recorded
    /// shape rather than returning an exact cached stream.
    pub jit_template_hits: u64,
    /// JIT cache evictions since start.
    pub jit_evictions: u64,
    /// Pipeline-cache hits since start (whole graphs served without
    /// recompiling or replanning).
    pub pipeline_hits: u64,
    /// Pipeline-cache misses (graph compilations) since start.
    pub pipeline_misses: u64,
    /// Batches closed: executions that carried a whole coalesced batch.
    pub batch_executions: u64,
    /// Requests that joined an open batch and skipped execution entirely.
    pub batch_joined: u64,
    /// Largest single-batch occupancy observed (leader + joined waiters).
    pub batch_max_occupancy: u64,
    /// Autotuner: requests routed through an explorer variant
    /// (`DESIGN.md` §15; all four `tune_*` counters are 0 when tuning is
    /// disabled).
    pub tune_explored: u64,
    /// Autotuner: requests served by the incumbent variant.
    pub tune_exploited: u64,
    /// Autotuner: variants promoted to incumbent.
    pub tune_promotions: u64,
    /// Autotuner: fault-driven demotions back to the baseline heuristics.
    pub tune_demotions: u64,
    /// Autotuner: artifacts with a live tune table.
    pub tune_artifacts: usize,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
}

impl MetricsReport {
    /// Hit fraction of a hit/miss pair (`None` when there were no lookups).
    pub fn hit_rate(hits: u64, misses: u64) -> Option<f64> {
        let total = hits + misses;
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// Fold `other` into `self`: counters sum, `queue_depth`/`workers`
    /// aggregate, gauges take the max. The shard cluster's `Metrics` verb
    /// reports the cluster through this.
    pub fn merge(&mut self, other: &MetricsReport) {
        self.served += other.served;
        self.rejected += other.rejected;
        self.queue_depth += other.queue_depth;
        self.queue_capacity += other.queue_capacity;
        self.artifact_hits += other.artifact_hits;
        self.artifact_misses += other.artifact_misses;
        self.artifact_evictions += other.artifact_evictions;
        self.jit_hits += other.jit_hits;
        self.jit_misses += other.jit_misses;
        self.jit_template_hits += other.jit_template_hits;
        self.jit_evictions += other.jit_evictions;
        self.pipeline_hits += other.pipeline_hits;
        self.pipeline_misses += other.pipeline_misses;
        self.batch_executions += other.batch_executions;
        self.batch_joined += other.batch_joined;
        self.batch_max_occupancy = self.batch_max_occupancy.max(other.batch_max_occupancy);
        self.tune_explored += other.tune_explored;
        self.tune_exploited += other.tune_exploited;
        self.tune_promotions += other.tune_promotions;
        self.tune_demotions += other.tune_demotions;
        self.tune_artifacts += other.tune_artifacts;
        self.workers += other.workers;
        self.uptime_ms = self.uptime_ms.max(other.uptime_ms);
    }
}

/// One named scalar result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalarOut {
    /// Scalar name.
    pub name: String,
    /// Value.
    pub value: f32,
}

/// A client-visible failure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireError {
    /// Machine-readable kind (see the `kind` constants on [`WireError`]).
    pub kind: String,
    /// Human-readable description.
    pub message: String,
    /// For `backpressure` rejections: when to retry.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// Admission queue full; retry after `retry_after_ms`.
    pub const BACKPRESSURE: &'static str = "backpressure";
    /// The request's deadline expired (in queue or between pipeline stages).
    pub const TIMEOUT: &'static str = "timeout";
    /// The server is shutting down and no longer admits requests.
    pub const SHUTTING_DOWN: &'static str = "shutting-down";
    /// Compilation failed (front end, optimizer, or backend).
    pub const COMPILE: &'static str = "compile";
    /// Execute referenced an artifact id the cache does not hold.
    pub const UNKNOWN_ARTIFACT: &'static str = "unknown-artifact";
    /// Execute named a region the artifact does not contain.
    pub const UNKNOWN_REGION: &'static str = "unknown-region";
    /// Malformed request (bad JSON, bad array id / length, missing artifact).
    pub const BAD_REQUEST: &'static str = "bad-request";
    /// Execution failed inside the simulator.
    pub const EXECUTION: &'static str = "execution";
    /// The worker thread handling the request panicked; the panic was
    /// isolated and the pool survived. Safe to retry.
    pub const WORKER_FAULT: &'static str = "worker-fault";
    /// No shard on the ring can take the request (every shard is down or
    /// draining). Safe to retry once shards recover.
    pub const SHARD_DOWN: &'static str = "shard-down";

    /// A new error of `kind`.
    pub fn new(kind: &str, message: impl Into<String>) -> Self {
        WireError {
            kind: kind.to_string(),
            message: message.into(),
            retry_after_ms: None,
        }
    }
}

/// Per-request statistics block.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResponseStats {
    /// Wall time spent queued before a worker picked the request up (µs).
    pub queue_wait_us: u64,
    /// Wall time spent being served (µs).
    pub service_us: u64,
    /// Wall time inside the compiler, zero on artifact-cache hits (µs).
    pub compile_us: u64,
    /// Wall time inside the simulator executing the region (µs); zero for
    /// non-execute requests.
    pub execute_us: u64,
    /// End-to-end wall time from admission to response (µs):
    /// `queue_wait_us + service_us`, so `queue_wait_us + compile_us +
    /// execute_us <= total_us` always holds.
    pub total_us: u64,
    /// Whether the artifact cache already held the compiled binary.
    pub artifact_cache_hit: bool,
    /// For in-memory execution, whether the shared JIT memoization cache
    /// already held the lowered commands (template hits count as hits).
    pub jit_cache_hit: Option<bool>,
    /// Three-way JIT resolution for in-memory execution: `"concrete"`,
    /// `"template"` or `"miss"`.
    pub jit_outcome: Option<String>,
    /// Simulated cycles of the executed region.
    pub cycles: u64,
    /// Where the region ran: `"core"`, `"near-memory"` or `"in-memory"`.
    pub executed: Option<String>,
    /// Whether the compiled region has an in-memory (tDFG) version.
    pub tensorizable: Option<bool>,
    /// True when this response was served by joining another in-flight
    /// request's batch: no compile, no execution — `compile_us` is 0 and
    /// `execute_us` is the leader's (shared) execution time.
    pub batched: bool,
    /// Requests (leader + joined waiters) answered by the one execution
    /// this response came from; 1 for unbatched requests, 0 when batching
    /// does not apply (Ping/Metrics/Health/Shutdown).
    pub batch_size: u64,
    /// Autotuner variant label this request ran under (`"baseline"`,
    /// `"tile:4x64"`, `"tier:near-memory"`, …); `None` when tuning is off
    /// or does not apply to the request (`DESIGN.md` §15).
    pub tuned_variant: Option<String>,
    /// True when the autotuner routed this request through an explorer
    /// variant (sampled traffic) rather than the incumbent.
    pub tuned_explore: bool,
    /// Per-stage breakdown for pipeline requests (empty otherwise). The
    /// stage sums nest inside the top-level figures:
    /// `sum(stages[i].compile_us) <= compile_us` and
    /// `sum(stages[i].execute_us) <= execute_us`.
    pub stages: Vec<StageStats>,
}

/// One pipeline stage's slice of a [`ResponseStats`] block.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StageStats {
    /// Stage (kernel) name.
    pub name: String,
    /// Wall time compiling this stage, zero on pipeline-cache hits (µs).
    pub compile_us: u64,
    /// Wall time driving this stage on the simulator (µs).
    pub execute_us: u64,
    /// Simulated cycles of the stage's region.
    pub cycles: u64,
    /// Cycles stalled staging operands at stage entry (not hidden by a
    /// predecessor's prefetch).
    pub prepare_stall_cycles: u64,
    /// Prefetch cycles for the *next* stage hidden under this stage's
    /// execution.
    pub prefetch_hidden_cycles: u64,
    /// Where the stage ran: `"core"`, `"near-memory"` or `"in-memory"`.
    pub executed: String,
}

/// Display label for an [`Executed`] value.
pub fn executed_label(e: Executed) -> &'static str {
    match e {
        Executed::Core => "core",
        Executed::NearMemory => "near-memory",
        Executed::InMemory => "in-memory",
    }
}

impl Response {
    /// A failure response carrying `error` and whatever stats were measured.
    pub fn failure(id: u64, error: WireError, stats: ResponseStats) -> Self {
        Response {
            id,
            ok: false,
            error: Some(error),
            artifact: None,
            outputs: Vec::new(),
            scalars: Vec::new(),
            stats,
            metrics: None,
            health: None,
        }
    }

    /// A success scaffold (fields filled in by the handler).
    pub fn success(id: u64, stats: ResponseStats) -> Self {
        Response {
            id,
            ok: true,
            error: None,
            artifact: None,
            outputs: Vec::new(),
            scalars: Vec::new(),
            stats,
            metrics: None,
            health: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
    use infs_sdfg::DataType;

    fn request() -> Request {
        let mut k = KernelBuilder::new("scale", DataType::F32);
        let a = k.array("A", vec![16]);
        let i = k.parallel_loop("i", 0, 16);
        k.assign(
            a,
            vec![Idx::var(i)],
            ScalarExpr::mul(ScalarExpr::load(a, vec![Idx::var(i)]), ScalarExpr::Param(0)),
        );
        Request {
            id: 7,
            tenant: "t0".into(),
            deadline_ms: Some(500),
            body: RequestBody::Compile(CompileRequest {
                kernel: k.build().unwrap(),
                representative_syms: vec![],
                optimize: true,
            }),
        }
    }

    #[test]
    fn request_roundtrips_as_single_line_json() {
        let req = request();
        let line = serde_json::to_string(&req).unwrap();
        assert!(!line.contains('\n'), "wire frames must be single lines");
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back.id, 7);
        assert_eq!(back.tenant, "t0");
        assert_eq!(back.deadline_ms, Some(500));
        match back.body {
            RequestBody::Compile(c) => {
                assert!(c.optimize);
                assert_eq!(c.kernel.name(), "scale");
            }
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn response_roundtrips_with_error_and_stats() {
        let mut err = WireError::new(WireError::BACKPRESSURE, "queue full");
        err.retry_after_ms = Some(25);
        let resp = Response::failure(3, err, ResponseStats::default());
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert!(!back.ok);
        let e = back.error.unwrap();
        assert_eq!(e.kind, WireError::BACKPRESSURE);
        assert_eq!(e.retry_after_ms, Some(25));
    }

    #[test]
    fn wire_modes_cover_exec_modes() {
        use infs_sim::ExecMode;
        assert_eq!(WireMode::Base1.exec_mode(), ExecMode::Base { threads: 1 });
        assert_eq!(WireMode::Base.exec_mode(), ExecMode::Base { threads: 64 });
        assert_eq!(WireMode::InfS.exec_mode(), ExecMode::InfS);
        // Indices are distinct (batch and tune keying).
        let idx: std::collections::BTreeSet<u8> = [
            WireMode::Base1,
            WireMode::Base,
            WireMode::NearL3,
            WireMode::InL3,
            WireMode::InfS,
            WireMode::InfSNoJit,
        ]
        .iter()
        .map(|m| m.index())
        .collect();
        assert_eq!(idx.len(), 6);
    }

    #[test]
    fn executed_labels() {
        assert_eq!(executed_label(Executed::Core), "core");
        assert_eq!(executed_label(Executed::NearMemory), "near-memory");
        assert_eq!(executed_label(Executed::InMemory), "in-memory");
    }
}
