use infs_faults::FaultConfig;
use infs_sim::{RegionAuditor, SystemConfig};
use infs_tune::TuneConfig;

/// Configuration of a resident [`crate::Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads running compile/execute requests.
    pub workers: usize,
    /// Admission queue bound: requests beyond this are rejected with
    /// backpressure instead of queueing without limit.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own, measured
    /// from admission. Expired requests are cancelled between pipeline
    /// stages and answered with a `timeout` error.
    pub default_deadline_ms: u64,
    /// The retry hint attached to backpressure rejections.
    pub retry_after_ms: u64,
    /// Entry cap of the content-addressed artifact (compiled fat binary)
    /// cache.
    pub artifact_capacity: usize,
    /// Entry cap of the shared JIT memoization cache (each of its two
    /// levels, concrete streams and templates, holds at most this many).
    pub jit_capacity: usize,
    /// The simulated machine configuration each worker's machine is built
    /// with.
    pub system: SystemConfig,
    /// Optional deterministic fault plan (chaos mode). When set, worker
    /// panics, artifact corruption, and machine-level faults are injected
    /// per the seeded schedule — see `DESIGN.md` §10.
    pub faults: Option<FaultConfig>,
    /// Coalesce identical in-flight requests into one execution with fan-out
    /// of per-request responses (`DESIGN.md` §14). Off gives one execution
    /// per request (the tune tests and soak rely on it: every request then
    /// reaches the tuner, in order).
    pub batching: bool,
    /// Online feedback-directed autotuning (`DESIGN.md` §15; the `--tune
    /// SEED` flag). When set, a deterministic epsilon-greedy sampler routes
    /// a fraction of Inf-S execute (and fused pipeline) traffic through
    /// explorer variants — alternative tiles, forced tiers, the round-trip
    /// residency policy — and promotes variants that beat the static
    /// heuristics on observed cycles. `None` disables tuning entirely.
    pub tune: Option<TuneConfig>,
    /// Optional pre-execution region auditor installed on every worker's
    /// machine (see [`infs_sim::RegionAuditor`]); the tuning soak
    /// installs `infs-check`'s validators here so every explored variant is
    /// audited. `None` skips auditing (the production default).
    pub auditor: Option<RegionAuditor>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(4),
            queue_capacity: 64,
            default_deadline_ms: 30_000,
            retry_after_ms: 25,
            artifact_capacity: 128,
            jit_capacity: 4096,
            system: SystemConfig::default(),
            faults: None,
            batching: true,
            tune: None,
            auditor: None,
        }
    }
}
