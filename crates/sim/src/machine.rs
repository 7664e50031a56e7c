use crate::core_model::{core_time, CoreProfile};
use crate::nearmem::nearmem_time;
use crate::residency::{Charge, Residency};
use crate::{inmem, EnergyParams, Mesh, RunStats, SystemConfig};
use infs_faults::{BankHealth, FaultPlan, NocFault};
use infs_geom::layout::LayoutHints;
use infs_geom::TileShape;
use infs_isa::RegionInstance;
use infs_runtime::{
    decide_healthy, CommandTemplate, HwConfig, JitCache, JitClass, JitOutcome, RuntimeError, Tier,
    TransposedLayout,
};
use infs_sdfg::{Memory, SdfgError, StreamKind};
use infs_tdfg::TdfgError;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Which machine configuration executes a region (the bars of Fig 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Conventional multicore with AVX-512-class SIMD.
    Base {
        /// OpenMP threads (1 or 64 in the paper).
        threads: u32,
    },
    /// Near-stream computing: streams offloaded to the L3 stream engines.
    NearL3,
    /// In-memory only: bit-serial L3 SRAM, no near-memory support (regions
    /// that cannot run in-memory fall back to the cores).
    InL3,
    /// Infinity stream: fused in-/near-memory with the Eq 2 runtime decision.
    InfS,
    /// Inf-S with precompiled commands (no JIT lowering cost).
    InfSNoJit,
}

/// Trace label for an execution mode.
fn mode_label(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Base { threads: 1 } => "base-1t",
        ExecMode::Base { .. } => "base",
        ExecMode::NearL3 => "near-l3",
        ExecMode::InL3 => "in-l3",
        ExecMode::InfS => "inf-s",
        ExecMode::InfSNoJit => "inf-s-nojit",
    }
}

/// Trace label for where a region ran.
fn executed_trace_label(e: Executed) -> &'static str {
    match e {
        Executed::Core => "core",
        Executed::NearMemory => "near-memory",
        Executed::InMemory => "in-memory",
    }
}

/// Where a region actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executed {
    /// On the cores.
    Core,
    /// On the near-memory stream engines.
    NearMemory,
    /// On the compute SRAM bitlines.
    InMemory,
}

/// Result of one region invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    /// Named scalar outputs.
    pub scalars: Vec<(String, f32)>,
    /// Cycles this region took end-to-end.
    pub cycles: u64,
    /// Where it ran.
    pub executed: Executed,
    /// The three-way JIT resolution for in-memory execution — concrete hit,
    /// template (copy-and-patch) hit, or full lowering; `None` for core and
    /// near-memory runs. The per-invocation observability hook the serving
    /// layer reports to clients ([`JitOutcome::is_hit`] folds both hits).
    pub jit_outcome: Option<JitOutcome>,
    /// Cycles of `cycles` spent preparing operands before the command stream
    /// could start — fetching and transposing them, and writing back what the
    /// entry displaced; 0 for core and near-memory runs.
    pub prepare_cycles: u64,
}

/// One stage of a run (see [`Machine::run`]).
#[derive(Debug)]
pub struct StageRequest<'a> {
    /// Region to execute.
    pub region: &'a RegionInstance,
    /// Runtime parameters for the region.
    pub params: &'a [f32],
    /// Arrays to stage for the *next* stage while this one executes — the
    /// prefetch half of the 3-phase prepare/stream/prefetch loop. Staging
    /// cycles overlap with this stage's execution; only the excess stalls
    /// the timeline.
    pub prefetch: &'a [u32],
    /// Arrays dead after this stage (the residency planner's eviction list):
    /// dropped from L3 (the dirty ones written back), freeing compute ways.
    pub evict: &'a [u32],
}

/// Per-stage result of a pipelined run: the region's own report plus the
/// overlap accounting that makes prefetch effectiveness observable.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage (region) name.
    pub stage: String,
    /// The underlying region invocation.
    pub region: RegionReport,
    /// Prepare cycles this stage stalled on (operand staging **not** hidden
    /// by a previous stage's prefetch; for round-trip runs this is the full
    /// prepare cost).
    pub prepare_stall: u64,
    /// Staging cycles issued on behalf of the next stage during this one.
    pub prefetch_issued: u64,
    /// Portion of `prefetch_issued` hidden under this stage's execution —
    /// the cycles the fused pipeline saves over a round trip.
    pub prefetch_hidden: u64,
    /// Host wall-clock nanoseconds spent driving this stage (the serving
    /// layer's per-stage breakdown).
    pub host_ns: u64,
}

/// How [`Machine::run`] treats inter-stage state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelinePolicy {
    /// Fused streaming execution: intermediates stay resident (and
    /// transposed) across stages, the next stage's operands are prefetched
    /// under the current stage's execution, and only planner-declared
    /// evictions write back.
    #[default]
    Fused,
    /// Per-kernel host round trip (the pre-pipeline baseline): after every
    /// stage all resident state is dropped (what the stage wrote is written
    /// back), so each stage re-stages its operands from cold.
    Roundtrip,
}

/// The placement decisions of one run, made once at region entry — the
/// `inf_cfg` moment — and immutable for the run's duration. The default is
/// the static heuristics: the §4.1 tile pick, the Eq-2 tier, fused stages.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunPlan {
    /// Tile shape every in-memory layout of the run uses instead of the
    /// default pick — the tile the entry's operands are already resident in
    /// when the region admits it, else the §4.1 heuristic's (the Fig 16/17
    /// sweep, the autotuner's tile variants — `DESIGN.md` §15).
    pub tile: Option<TileShape>,
    /// Tier the Inf-S placement is forced onto instead of the Eq-2 decision
    /// (the autotuner's tier variants). Only `ExecMode::InfS`/`InfSNoJit`
    /// consult it, and it is clamped to feasibility: forced in-memory falls
    /// back to near-memory when the region has no schedulable tDFG, no
    /// feasible layout or no healthy-bank quorum, and forced near-memory
    /// lands on the host when no bank survives. A forced run never counts as
    /// a degradation event — the caller asked for the placement.
    pub tier: Option<Tier>,
    /// How inter-stage state is treated.
    pub policy: PipelinePolicy,
}

/// Simulator errors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// Runtime (layout/lowering) failure with no fallback available.
    Runtime(RuntimeError),
    /// Functional tDFG execution failure.
    Tdfg(TdfgError),
    /// Functional sDFG execution failure.
    Sdfg(SdfgError),
    /// An installed [`RegionAuditor`] rejected the region before execution.
    Audit(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Runtime(e) => write!(f, "runtime error: {e}"),
            SimError::Tdfg(e) => write!(f, "tdfg execution error: {e}"),
            SimError::Sdfg(e) => write!(f, "sdfg execution error: {e}"),
            SimError::Audit(what) => write!(f, "region rejected by auditor: {what}"),
        }
    }
}

impl Error for SimError {}

impl From<RuntimeError> for SimError {
    fn from(e: RuntimeError) -> Self {
        SimError::Runtime(e)
    }
}
impl From<TdfgError> for SimError {
    fn from(e: TdfgError) -> Self {
        SimError::Tdfg(e)
    }
}
impl From<SdfgError> for SimError {
    fn from(e: SdfgError) -> Self {
        SimError::Sdfg(e)
    }
}

/// A pre-execution validation hook over every region instance entering
/// [`Machine::run_region`].
///
/// Verification harnesses (see the `infs-check` crate) install one to audit
/// each region the workload drivers actually instantiate — including the
/// kernels they build inline per host iteration, which no static enumeration
/// can reach. A rejection aborts the run with [`SimError::Audit`].
#[derive(Clone)]
pub struct RegionAuditor(Arc<AuditFn>);

type AuditFn = dyn Fn(&RegionInstance, &SystemConfig) -> Result<(), String> + Send + Sync;

impl RegionAuditor {
    /// Wraps an audit function. It receives the region and the machine's
    /// configuration (for geometry-dependent checks) and returns a
    /// human-readable rejection on failure.
    pub fn new(
        f: impl Fn(&RegionInstance, &SystemConfig) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        RegionAuditor(Arc::new(f))
    }

    fn check(&self, region: &RegionInstance, cfg: &SystemConfig) -> Result<(), String> {
        (self.0)(region, cfg)
    }
}

impl fmt::Debug for RegionAuditor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RegionAuditor(..)")
    }
}

/// What an in-memory placement of one region needs, resolved once per
/// region entry and shared by the tier decision and the execution:
/// the healthy-bank hardware view, the planned layout and the distilled JIT
/// template.
struct InMemoryPlan<'r> {
    tdfg: &'r infs_tdfg::Tdfg,
    hw: HwConfig,
    layout: Arc<TransposedLayout>,
    /// Whether `layout` keeps the tile the operands are already resident in
    /// rather than the §4.1 pick.
    kept_resident_tile: bool,
    /// Arrays the region reads or writes (ascending), and the written subset.
    needed: Vec<u32>,
    written: Vec<u32>,
    /// The relocatable template and this instance's slot table. An error
    /// (malformed graph) prices as a JIT miss and surfaces when the region
    /// executes.
    jit: Result<(CommandTemplate, Vec<i64>), RuntimeError>,
}

/// Everything [`TransposedLayout::plan`] reads that varies between regions
/// on one machine: lattice shape, element bytes, layout hints, (healthy)
/// bank count, the run's tile, and whether that tile is a residency
/// proposal.
type LayoutKey = (Vec<u64>, u32, LayoutHints, u32, Option<TileShape>, bool);

/// Entries the planned-layout cache holds before it starts over. A machine
/// entering the paper workloads plans a handful of layouts; a served
/// machine meets whatever kernel shapes clients send, for the life of the
/// process.
const LAYOUT_CACHE_CAP: usize = 256;

/// Per-machine fault and degradation counters (`DESIGN.md` §10). These are
/// *hardware* state like the health mask: they survive [`Machine::reset`]
/// so a serve worker's resident machine keeps its history across requests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// SRAM wordline flips the modeled ECC scrub detected.
    pub sram_flips_detected: u64,
    /// Banks quarantined (health bit cleared) as a result.
    pub banks_quarantined: u64,
    /// Regions that Eq 2 would have run in-memory but degraded to the
    /// near-memory stream engines because of unhealthy banks.
    pub degraded_to_near: u64,
    /// Regions pushed all the way back to the host cores.
    pub degraded_to_host: u64,
    /// NoC shift messages dropped (and retransmitted).
    pub noc_drops: u64,
    /// NoC shift messages delayed.
    pub noc_delays: u64,
    /// Total extra cycles charged for NoC drops and delays.
    pub noc_penalty_cycles: u64,
}

impl FaultCounters {
    /// Monotone count of the events that invalidate a placement decision:
    /// bank quarantines plus regions degraded off their Eq-2 tier. The
    /// serving layer's autotuner watches this through an
    /// [`infs_faults::RetuneTrigger`] and demotes an artifact's incumbent
    /// variant when it advances (`DESIGN.md` §15).
    pub fn degradation_events(&self) -> u64 {
        self.banks_quarantined + self.degraded_to_near + self.degraded_to_host
    }
}

/// The simulated machine: functional memory plus the timing state of one
/// configuration, fed a sequence of region invocations by a workload driver.
///
/// Functional results are identical across [`ExecMode`]s by construction —
/// they always come from the reference interpreters — while cycles, traffic
/// and energy accumulate per the mode's timing model.
#[derive(Debug)]
pub struct Machine {
    cfg: SystemConfig,
    mesh: Mesh,
    eparams: EnergyParams,
    mem: Memory,
    /// The JIT cache, possibly shared with other machines. Its own counters
    /// aggregate every tenant, so this machine's JIT outcomes are counted in
    /// `stats` as they happen.
    jit: Arc<JitCache>,
    /// Planned-layout cache. Layout planning depends only on the graph's
    /// lattice shape, element size, layout hints and the (health-dependent)
    /// bank count — not on rect coordinates — so gauss_elim's per-pivot
    /// graphs (one per pivot, thousands at paper scale) plan exactly once.
    /// Failures are not cached: planning is only re-attempted for regions
    /// that cannot run in-memory anyway, and the concrete error must stay
    /// fresh. Bounded by [`LAYOUT_CACHE_CAP`].
    layouts: Mutex<HashMap<LayoutKey, Arc<TransposedLayout>>>,
    stats: RunStats,
    /// Where every array lives (cold, warm, transposed under which tile,
    /// dirty) — the one piece of residency state (`DESIGN.md` §7).
    residency: Residency,
    /// The plan [`Machine::run_region`] enters every region under: fixed at
    /// construction ([`Machine::with_plan`]), the static heuristics
    /// otherwise.
    plan: RunPlan,
    functional: bool,
    /// Which L3 banks are healthy. Starts all-healthy; a fault plan or
    /// explicit mask degrades it, and — like real silicon — it never heals
    /// on [`Machine::reset`].
    health: BankHealth,
    /// Deterministic fault schedule, if chaos is enabled.
    faults: Option<Arc<FaultPlan>>,
    /// Regions executed so far — the sequence number fault queries key on.
    region_seq: u64,
    fault_counts: FaultCounters,
    /// Optional pre-execution validation hook (machine configuration: it
    /// survives [`Machine::reset`]).
    auditor: Option<RegionAuditor>,
}

impl Machine {
    /// Creates a machine over the given array declarations (the workload's
    /// shared array table; all of its kernels use the same [`infs_sdfg::ArrayId`]s).
    pub fn new(cfg: SystemConfig, arrays: &[infs_sdfg::ArrayDecl]) -> Self {
        Machine::with_jit(cfg, arrays, Arc::new(JitCache::new()))
    }

    /// Creates a machine whose [`Machine::run_region`] enters every region
    /// under `plan` instead of the static heuristics — for a driver that
    /// holds one placement fixed over a whole workload (the Fig 16/17 tile
    /// sweep). The plan is part of the machine from here on; a caller that
    /// decides per run passes its plan to [`Machine::run`] instead.
    pub fn with_plan(cfg: SystemConfig, arrays: &[infs_sdfg::ArrayDecl], plan: RunPlan) -> Self {
        Machine {
            plan,
            ..Machine::new(cfg, arrays)
        }
    }

    /// Creates a machine that memoizes JIT-lowered command streams in a
    /// **shared** cache: a resident server hands every worker's machine one
    /// `Arc<JitCache>` so tenants re-executing the same region reuse each
    /// other's lowered commands (the serving analogue of §4.2 memoization).
    pub fn with_jit(
        cfg: SystemConfig,
        arrays: &[infs_sdfg::ArrayDecl],
        jit: Arc<JitCache>,
    ) -> Self {
        let mesh = Mesh::new(&cfg);
        let health = BankHealth::all_healthy(cfg.n_banks);
        let residency = Residency::new(
            arrays.iter().map(infs_sdfg::ArrayDecl::size_bytes),
            cfg.compute_capacity_bytes(),
        );
        Machine {
            cfg,
            mesh,
            eparams: EnergyParams::default(),
            mem: Memory::for_arrays(arrays),
            jit,
            layouts: Mutex::new(HashMap::new()),
            stats: RunStats::default(),
            residency,
            plan: RunPlan::default(),
            functional: true,
            health,
            faults: None,
            region_seq: 0,
            fault_counts: FaultCounters::default(),
            auditor: None,
        }
    }

    /// The machine's system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Installs (or clears) a [`RegionAuditor`] consulted on every region
    /// entry before any execution or fault accounting.
    pub fn set_region_auditor(&mut self, auditor: Option<RegionAuditor>) {
        self.auditor = auditor;
    }

    /// Installs a deterministic fault plan: the plan's initial health mask
    /// (manufacturing-dead banks) takes effect immediately, and subsequent
    /// regions consult the plan for SRAM flips and NoC faults.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.health = plan.initial_health(self.cfg.n_banks);
        self.faults = Some(plan);
    }

    /// Overrides the bank-health mask directly (no scheduled faults).
    pub fn set_bank_health(&mut self, health: BankHealth) {
        self.health = health;
    }

    /// Current bank-health mask.
    pub fn bank_health(&self) -> &BankHealth {
        &self.health
    }

    /// Fault and degradation counters accumulated by this machine.
    pub fn fault_counters(&self) -> &FaultCounters {
        &self.fault_counts
    }

    /// Re-targets the machine at `arrays` for an unrelated request — the
    /// serving layer's per-request hook, one resident machine per worker:
    /// fresh zeroed functional memory for that table, every array cold (no
    /// transposed/resident state), zeroed run stats (JIT counts included).
    /// The JIT cache handle and the planned-layout cache are kept — reuse of
    /// lowered commands across requests is the point of a resident machine.
    /// What was fixed when the
    /// machine was set up (`assume_transposed`, functional mode, the
    /// construction-time [`RunPlan`], the auditor) also persists; it
    /// describes the machine, not the request — a request's own placement
    /// travels in the plan it passes to [`Machine::run`] and leaves nothing
    /// behind. So do the bank-health mask, fault plan, fault counters and
    /// region sequence: quarantined silicon does not heal because a new
    /// tenant shows up.
    pub fn reset(&mut self, arrays: &[infs_sdfg::ArrayDecl]) {
        // An unchanged table keeps its allocation; zeroing is not optional.
        if self.mem.decls() == arrays {
            self.mem.zero();
        } else {
            self.mem = Memory::for_arrays(arrays);
        }
        self.stats = RunStats::default();
        self.residency
            .clear(arrays.iter().map(infs_sdfg::ArrayDecl::size_bytes));
    }

    /// Functional memory (for writing inputs / reading results).
    pub fn memory(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Immutable view of functional memory.
    pub fn memory_ref(&self) -> &Memory {
        &self.mem
    }

    /// Microbenchmark mode (Fig 2): data is assumed cached in L3 and already
    /// transposed, skipping prepare charges.
    pub fn set_assume_transposed(&mut self, yes: bool) {
        self.residency.set_assume_transposed(yes);
    }

    /// Marks every array L3-resident (warm, untransposed) — the §6 assumption
    /// that inputs are already tiled to fit in L3. Transposition is still paid.
    pub fn set_resident_all(&mut self) {
        self.residency.warm_all();
    }

    /// Disables functional execution (timing-only mode) for paper-scale runs
    /// whose reference interpretation would be prohibitive; correctness is
    /// separately verified at reduced scale, where functional mode is on.
    pub fn set_functional(&mut self, yes: bool) {
        self.functional = yes;
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Finalizes the run: computes NoC utilization and returns the stats.
    pub fn finish(mut self) -> RunStats {
        self.stats.noc_utilization = self
            .mesh
            .utilization(self.stats.traffic.noc_total(), self.stats.cycles.max(1));
        self.stats
    }

    /// Releases all resident data (delayed-release trigger, §5.2): everything
    /// leaves L3, and what was written in transposed form is written back.
    pub fn release_transposed(&mut self) {
        let charge = self.residency.evict_all();
        self.stall(charge);
    }

    /// Drops a specific set of arrays from L3 (the residency planner's
    /// per-stage eviction, as opposed to the global
    /// [`Machine::release_transposed`]). Dirty transposed arrays pay the DRAM
    /// write-back; clean and untransposed ones are simply dropped.
    pub fn evict_resident(&mut self, arrays: &[u32]) {
        let charge = self.residency.evict(arrays.iter().copied());
        self.stall(charge);
        infs_trace::counter!("pipeline.evictions", arrays.len() as u64);
    }

    /// Advances the timeline by a charge no region entry owns.
    fn stall(&mut self, charge: Charge) {
        let cycles = self.charge(charge);
        self.stats.cycles += cycles;
        self.stats.breakdown.dram += cycles;
    }

    /// The one place residency bytes become time: prices a [`Charge`] in
    /// cycles — the write-back, then the cold fetch overlapped with the
    /// transpose-unit stream and its NoC phase — and books its NoC byte-hops
    /// and energy. The timeline is the caller's to advance.
    fn charge(&mut self, c: Charge) -> u64 {
        let dram_cycles = |bytes: u64| bytes as f64 / self.cfg.dram_bytes_per_cycle;
        let hops = self.mesh.avg_hops() * 0.5;
        let relayout_hops = c.relayout as f64 * hops;
        let t_ttu =
            c.relayout as f64 / (self.cfg.n_banks as f64 * self.cfg.bank_bytes_per_cycle as f64);
        let t_noc = self.mesh.phase_cycles(relayout_hops, 0.0) as f64;
        let fill = dram_cycles(c.cold).max(t_ttu).max(t_noc).ceil() as u64
            + if c.cold > 0 { self.cfg.dram_latency } else { 0 };
        let writeback = dram_cycles(c.writeback).ceil() as u64;
        self.stats.traffic.noc_data += relayout_hops + c.writeback as f64 * hops;
        self.stats.energy.dram += (c.cold + c.writeback) as f64 * self.eparams.dram_byte;
        self.stats.energy.l3 += c.relayout as f64 * self.eparams.l3_byte;
        self.stats.energy.noc += relayout_hops * self.eparams.noc_byte_hop;
        infs_trace::counter!("residency.relayout_bytes", c.relayout);
        infs_trace::counter!("residency.writeback_bytes", c.writeback);
        infs_trace::counter!("residency.capacity_evictions", c.capacity_evictions);
        writeback + fill
    }

    /// Stages arrays into L3 ahead of their consuming stage, returning the
    /// cycles the staging occupies **without** advancing the timeline — the
    /// caller decides how much hides under concurrent execution. While
    /// transposed data is resident the arrays enter its tile (so a following
    /// in-memory stage's prepare finds them); otherwise they are pulled warm
    /// from DRAM.
    fn prefetch_resident(&mut self, wanted: &[u32]) -> u64 {
        let all = 0..self.mem.decls().len() as u32;
        let charge = match self.residency.resident_tile(all).cloned() {
            Some(tile) => self.residency.admit(wanted, &[], &tile),
            None => Charge {
                cold: self.residency.touch(wanted, &[]),
                ..Charge::default()
            },
        };
        self.charge(charge)
    }

    /// Runs a sequence of regions on a single timeline under one
    /// [`RunPlan`] — the one entry that takes placement decisions. Every
    /// stage's layout and tier follow `plan.tile` / `plan.tier`; between
    /// stages, [`PipelinePolicy::Fused`] runs the 3-phase
    /// prepare/stream/prefetch loop: while stage *k* streams, stage *k+1*'s
    /// operands (each request's `prefetch` list) are staged, and only
    /// staging cycles exceeding the execution window stall the clock. A lone
    /// kernel is the one-stage case.
    ///
    /// Under [`PipelinePolicy::Roundtrip`] every stage instead behaves like an
    /// isolated request: prefetch and evict lists are ignored and all
    /// resident state is released after each stage — the per-kernel
    /// baseline the fused pipeline is measured against.
    ///
    /// # Errors
    ///
    /// As [`Machine::run_region`]; the first failing stage aborts the run.
    pub fn run(
        &mut self,
        stages: &[StageRequest<'_>],
        mode: ExecMode,
        plan: &RunPlan,
    ) -> Result<Vec<StageReport>, SimError> {
        let _span = infs_trace::span!(
            "sim.pipeline",
            stages = stages.len() as u64,
            mode = mode_label(mode),
        );
        let mut reports = Vec::with_capacity(stages.len());
        for st in stages {
            let t0 = std::time::Instant::now();
            let region = self.enter_region(st.region, st.params, mode, plan)?;
            let prepare_stall = region.prepare_cycles;
            let (mut prefetch_issued, mut prefetch_hidden) = (0, 0);
            match plan.policy {
                PipelinePolicy::Fused => {
                    if !st.prefetch.is_empty() {
                        prefetch_issued = self.prefetch_resident(st.prefetch);
                        prefetch_hidden = prefetch_issued.min(region.cycles);
                        let stall = prefetch_issued - prefetch_hidden;
                        self.stats.cycles += stall;
                        self.stats.breakdown.dram += stall;
                        infs_trace::counter!("pipeline.prefetch_hidden_cycles", prefetch_hidden);
                        infs_trace::counter!("pipeline.prefetch_stall_cycles", stall);
                    }
                    if !st.evict.is_empty() {
                        self.evict_resident(st.evict);
                    }
                }
                PipelinePolicy::Roundtrip => self.release_transposed(),
            }
            infs_trace::counter!("pipeline.prepare_stall_cycles", prepare_stall);
            reports.push(StageReport {
                stage: st.region.name.clone(),
                region,
                prepare_stall,
                prefetch_issued,
                prefetch_hidden,
                host_ns: t0.elapsed().as_nanos() as u64,
            });
        }
        Ok(reports)
    }

    /// Runs one region under a configuration: the one-stage form of
    /// [`Machine::run`] under the machine's own plan (the static heuristics
    /// unless [`Machine::with_plan`] fixed another), for workload drivers
    /// that enter regions one at a time. Resident and transposed state
    /// carries over from call to call (delayed release, §5.2) — what happens
    /// between a driver's regions is the driver's business, so the plan's
    /// `policy` is not consulted here.
    ///
    /// # Errors
    ///
    /// Returns functional execution errors; timing-side layout failures fall
    /// back per the mode's semantics (In-L3 → cores, Inf-S → near-memory) and
    /// are not errors.
    pub fn run_region(
        &mut self,
        region: &RegionInstance,
        params: &[f32],
        mode: ExecMode,
    ) -> Result<RegionReport, SimError> {
        let plan = self.plan.clone();
        self.enter_region(region, params, mode, &plan)
    }

    /// One region entry under a plan — what [`Machine::run`] does per stage.
    fn enter_region(
        &mut self,
        region: &RegionInstance,
        params: &[f32],
        mode: ExecMode,
        plan: &RunPlan,
    ) -> Result<RegionReport, SimError> {
        let tile = plan.tile.as_ref();
        let mut span = infs_trace::span!(
            "sim.region",
            region = region.name.as_str(),
            mode = mode_label(mode),
        );
        if let Some(auditor) = &self.auditor {
            auditor.check(region, &self.cfg).map_err(SimError::Audit)?;
        }
        let seq = self.region_seq;
        self.region_seq += 1;
        self.apply_scheduled_faults(seq);
        let mut report = match mode {
            ExecMode::Base { threads } => self.run_core(region, params, threads),
            ExecMode::NearL3 => {
                if self.health.any_healthy() {
                    self.run_near(region, params, false)
                } else {
                    // The stream engines live at the banks: with none left,
                    // even near-memory offload degrades to the cores.
                    self.count_degradation(Tier::Host);
                    self.run_core(region, params, self.cfg.cores)
                }
            }
            ExecMode::InL3 => match self.plan_in_memory(region, &self.health, tile) {
                Some(inmem) => self.run_in_memory(region, inmem, params, false, &mut span),
                None => self.run_core(region, params, self.cfg.cores),
            },
            ExecMode::InfS | ExecMode::InfSNoJit => {
                let nojit = mode == ExecMode::InfSNoJit;
                let inmem = self.plan_in_memory(region, &self.health, tile);
                let tier = match plan.tier {
                    Some(forced) => self.clamp_forced_tier(forced, inmem.is_some()),
                    None => self.tier_with_health(region, nojit, &self.health, inmem.as_ref()),
                };
                // Degradation accounting tracks the *heuristic* placement
                // only: a forced tier is a choice, not a fault, so it must
                // not advance the retune trigger it feeds.
                if plan.tier.is_none() && !self.health.fully_healthy() {
                    let all_healthy = BankHealth::all_healthy(self.cfg.n_banks);
                    let baseline = self.tier_with_health(
                        region,
                        nojit,
                        &all_healthy,
                        self.plan_in_memory(region, &all_healthy, tile).as_ref(),
                    );
                    if tier < baseline {
                        self.count_degradation(tier);
                    }
                }
                match tier {
                    Tier::InMemory => {
                        let inmem = inmem.expect("the in-memory tier is only chosen from a plan");
                        self.run_in_memory(region, inmem, params, nojit, &mut span)
                    }
                    Tier::NearMemory => self.run_near(region, params, true),
                    Tier::Host => self.run_core(region, params, self.cfg.cores),
                }
            }
        }?;
        self.charge_noc_fault(seq, &mut report);
        span.arg("cycles", report.cycles);
        span.arg("executed", executed_trace_label(report.executed));
        Ok(report)
    }

    /// Consumes the fault plan's schedule for region number `seq`: an SRAM
    /// wordline flip caught by the ECC scrub quarantines the affected bank.
    fn apply_scheduled_faults(&mut self, seq: u64) {
        let Some(plan) = &self.faults else { return };
        if let Some(flip) = plan.sram_flip(seq, self.cfg.n_banks, self.cfg.geometry.wordlines) {
            self.fault_counts.sram_flips_detected += 1;
            infs_trace::counter!("faults.sram_flips_detected", 1u64);
            if self.health.mark_dead(flip.bank) {
                self.fault_counts.banks_quarantined += 1;
                infs_trace::counter!("faults.banks_quarantined", 1u64);
            }
        }
    }

    /// Charges the timing penalty for a scheduled NoC fault on an offloaded
    /// region: a delayed shift message stalls its sync barrier, a dropped
    /// one costs a timeout plus retransmission. Core runs use the regular
    /// coherent path and are unaffected. Functional results never change —
    /// the message is re-sent, not lost.
    fn charge_noc_fault(&mut self, seq: u64, report: &mut RegionReport) {
        if report.executed == Executed::Core {
            return;
        }
        let Some(plan) = &self.faults else { return };
        let penalty = match plan.noc_fault(seq) {
            NocFault::None => return,
            NocFault::Delay(d) => {
                self.fault_counts.noc_delays += 1;
                infs_trace::counter!("faults.noc_delays", 1u64);
                d
            }
            NocFault::Drop => {
                self.fault_counts.noc_drops += 1;
                infs_trace::counter!("faults.noc_drops", 1u64);
                // Detection timeout (two sync rounds) plus the retransmit
                // round trip through the mesh.
                self.cfg.sync_latency * 2 + self.cfg.dram_latency
            }
        };
        self.fault_counts.noc_penalty_cycles += penalty;
        self.stats.cycles += penalty;
        report.cycles += penalty;
        match report.executed {
            Executed::NearMemory => self.stats.breakdown.near_mem += penalty,
            _ => self.stats.breakdown.mv += penalty,
        }
    }

    /// Counts a ladder step down, attributing it to the tier landed on.
    fn count_degradation(&mut self, tier: Tier) {
        match tier {
            Tier::NearMemory => {
                self.fault_counts.degraded_to_near += 1;
                infs_trace::counter!("faults.degraded_to_near", 1u64);
            }
            Tier::Host => {
                self.fault_counts.degraded_to_host += 1;
                infs_trace::counter!("faults.degraded_to_host", 1u64);
            }
            Tier::InMemory => {}
        }
    }

    /// Clamps a forced tier ([`RunPlan::tier`]) to what the machine can
    /// actually honor: in-memory requires the healthy-bank quorum and a
    /// feasible layout (`in_memory_feasible`: the region resolved an
    /// [`InMemoryPlan`]), near-memory requires at least one live bank (the
    /// stream engines sit at the banks), and the host is always available.
    fn clamp_forced_tier(&self, forced: Tier, in_memory_feasible: bool) -> Tier {
        match forced {
            Tier::InMemory if in_memory_feasible => Tier::InMemory,
            Tier::Host => Tier::Host,
            _ if self.health.any_healthy() => Tier::NearMemory,
            _ => Tier::Host,
        }
    }

    /// The Inf-S placement for a region under a given health mask: the Eq 2
    /// decision extended with the degradation ladder (`DESIGN.md` §10).
    /// `plan` is the region's in-memory plan under that mask, `None` when it
    /// cannot run in memory there.
    fn tier_with_health(
        &self,
        region: &RegionInstance,
        nojit: bool,
        health: &BankHealth,
        plan: Option<&InMemoryPlan<'_>>,
    ) -> Tier {
        if !health.any_healthy() {
            return Tier::Host;
        }
        let Some(plan) = plan else {
            return Tier::NearMemory;
        };
        let hw = self.cfg.hw();
        let expected_jit = if nojit {
            0
        } else {
            let (outcome, n_cmds) = match self.jit_class(plan) {
                JitClass::Concrete => (JitOutcome::ConcreteHit, 0),
                JitClass::Template { n_cmds } => (JitOutcome::TemplateHit, n_cmds),
                // Conservative pre-lowering estimate: a handful of commands
                // per node, none of them stamped from an earlier one.
                JitClass::Miss => (JitOutcome::Miss, region.profile.node_count * 4),
            };
            hw.jit_cycles(outcome, n_cmds, 0)
        };
        decide_healthy(&region.profile, &hw, expected_jit, health)
    }

    /// The hardware view the layout planner and JIT see under a health mask:
    /// the machine contracted to its *logical* healthy banks. Logical bank
    /// `i` stands for the `i`-th healthy physical bank
    /// (`infs_runtime::place_on_healthy` is the logical→physical map), so
    /// lowered commands never target quarantined silicon. At full health
    /// this is exactly `cfg.hw()`. The mask is a parameter so the degradation
    /// accounting can evaluate the full-health baseline without being
    /// tainted by the machine's actual (possibly degraded) health.
    fn hw_for(&self, health: &BankHealth) -> HwConfig {
        let mut hw = self.cfg.hw();
        hw.n_banks = health.healthy_count().max(1);
        hw
    }

    /// Resolves everything an in-memory run of `region` under `health` needs,
    /// or `None` when the region cannot run in memory there: no healthy-bank
    /// quorum, no tDFG or schedule for this geometry, or no feasible layout.
    /// The layout's tile is the run's forced `tile` if any; else the tile
    /// most of the region's operands are already resident in, when the
    /// region admits it and its grid is feasible; else the §4.1 pick.
    fn plan_in_memory<'r>(
        &self,
        region: &'r RegionInstance,
        health: &BankHealth,
        tile: Option<&TileShape>,
    ) -> Option<InMemoryPlan<'r>> {
        if !infs_runtime::in_memory_quorum(health) {
            return None;
        }
        let tdfg = region.tdfg.as_ref()?;
        let schedule = region.schedule_for(self.cfg.geometry)?;
        let hw = self.hw_for(health);
        let (needed, written) = Self::accessed_arrays(region);
        let plan = |tile, resident| {
            self.plan_layout(tdfg, &region.hints, &hw, tile, resident)
                .ok()
        };
        let resident = self.residency.resident_tile(needed.iter().copied());
        let kept = resident
            .filter(|_| tile.is_none())
            .and_then(|t| plan(Some(t), true));
        let kept_resident_tile = kept.is_some();
        let layout = kept.or_else(|| plan(tile, false))?;
        let jit = infs_runtime::distill(tdfg, schedule, &hw);
        Some(InMemoryPlan {
            tdfg,
            hw,
            layout,
            kept_resident_tile,
            needed,
            written,
            jit,
        })
    }

    /// Plans (or reuses) the transposed layout for a graph. The cache key
    /// holds every input [`TransposedLayout::plan`] actually reads, so two
    /// graphs with the same lattice footprint — gauss_elim's per-pivot
    /// instances — share one planned layout. A `resident` tile is one the
    /// ledger proposes rather than the run forces: it must be one of the
    /// region's §4.1 candidates, like the heuristic's own pick.
    fn plan_layout(
        &self,
        tdfg: &infs_tdfg::Tdfg,
        hints: &LayoutHints,
        hw: &HwConfig,
        tile: Option<&TileShape>,
        resident: bool,
    ) -> Result<Arc<TransposedLayout>, RuntimeError> {
        let key = (
            TransposedLayout::lattice_shape_for(tdfg)?,
            tdfg.dtype().size_bytes(),
            hints.clone(),
            hw.n_banks,
            tile.cloned(),
            resident,
        );
        if let Some(cached) = self.layouts.lock().expect("layout cache lock").get(&key) {
            return Ok(cached.clone());
        }
        let planned = match tile {
            Some(t) if resident && !TransposedLayout::candidate_tiles(tdfg, hw)?.contains(t) => {
                Err(RuntimeError::NoLayout(
                    infs_geom::GeomError::NoValidTiling {
                        detail: format!("the region does not admit the resident tile {t}"),
                    },
                ))
            }
            Some(t) => TransposedLayout::plan_with_tile(tdfg, t.clone(), hw),
            None => TransposedLayout::plan(tdfg, hints, hw),
        }?;
        let arc = Arc::new(planned);
        let mut layouts = self.layouts.lock().expect("layout cache lock");
        if layouts.len() >= LAYOUT_CACHE_CAP {
            // Re-planning is a pure function of the key: dropping every
            // entry costs host time only, never a cycle.
            layouts.clear();
        }
        layouts.insert(key, arc.clone());
        Ok(arc)
    }

    /// What the JIT cache would do with this region — exact stream, template
    /// patch, or full lowering (consulted by the decision model; the paper's
    /// hardware command cache).
    fn jit_class(&self, plan: &InMemoryPlan<'_>) -> JitClass {
        let Ok((template, slots)) = &plan.jit else {
            return JitClass::Miss;
        };
        self.jit
            .classify(template.signature, slots, plan.layout.tile().dims())
    }

    /// Arrays a region's streams walk (ascending), and those they store to
    /// or update.
    fn accessed_arrays(region: &RegionInstance) -> (Vec<u32>, Vec<u32>) {
        let (mut arrays, mut written) = (Vec::new(), Vec::new());
        for s in region.sdfg.streams() {
            let Some(a) = s.array() else { continue };
            arrays.push(a.0);
            if matches!(s.kind, StreamKind::Store { .. } | StreamKind::Update { .. }) {
                written.push(a.0);
            }
        }
        arrays.sort_unstable();
        arrays.dedup();
        (arrays, written)
    }

    fn run_core(
        &mut self,
        region: &RegionInstance,
        params: &[f32],
        threads: u32,
    ) -> Result<RegionReport, SimError> {
        // Cores may access transposed data with normal requests (§5.3 — the
        // coherence integration keeps transposed lines addressable), so core
        // fallbacks do NOT evict the transposed state; the delayed-release
        // triggers of §5.2 are exposed via `release_transposed`.
        let (arrays, written) = Self::accessed_arrays(region);
        let resident = self.residency.touch(&arrays, &written) == 0;
        let profile = CoreProfile::from_sdfg(&region.sdfg, &self.cfg, resident);
        let out = core_time(&profile, threads, &self.cfg, &self.mesh, &self.eparams);
        let scalars = self.exec_sdfg(region, params)?;
        if infs_trace::enabled() {
            infs_trace::sim_span(
                "machine",
                region.name.clone(),
                self.stats.cycles,
                out.cycles,
                vec![("executed", infs_trace::ArgValue::Str("core".into()))],
            );
        }
        self.stats.cycles += out.cycles;
        self.stats.breakdown.core += out.cycles;
        self.stats.traffic += out.traffic;
        self.stats.energy += out.energy;
        self.stats.ops_core += region.sdfg.profile().ops;
        Ok(RegionReport {
            scalars,
            cycles: out.cycles,
            executed: Executed::Core,
            jit_outcome: None,
            prepare_cycles: 0,
        })
    }

    fn run_near(
        &mut self,
        region: &RegionInstance,
        params: &[f32],
        hybrid: bool,
    ) -> Result<RegionReport, SimError> {
        let (arrays, written) = Self::accessed_arrays(region);
        let resident = self.residency.touch(&arrays, &written) == 0;
        let out = nearmem_time(&region.sdfg, &self.cfg, &self.mesh, &self.eparams, resident);
        let scalars = self.exec_sdfg(region, params)?;
        if infs_trace::enabled() {
            infs_trace::sim_span(
                "machine",
                region.name.clone(),
                self.stats.cycles,
                out.cycles,
                vec![("executed", infs_trace::ArgValue::Str("near-memory".into()))],
            );
        }
        self.stats.cycles += out.cycles;
        // Under the fused configuration, near-memory work interleaved with
        // transposed in-memory state is the "Mix" category of Fig 14.
        if hybrid && self.residency.any_transposed() {
            self.stats.breakdown.mix += out.cycles;
        } else {
            self.stats.breakdown.near_mem += out.cycles;
        }
        self.stats.traffic += out.traffic;
        self.stats.energy += out.energy;
        self.stats.ops_near_memory += out.ops;
        Ok(RegionReport {
            scalars,
            cycles: out.cycles,
            executed: Executed::NearMemory,
            jit_outcome: None,
            prepare_cycles: 0,
        })
    }

    fn run_in_memory(
        &mut self,
        region: &RegionInstance,
        plan: InMemoryPlan<'_>,
        params: &[f32],
        nojit: bool,
        span: &mut infs_trace::SpanGuard,
    ) -> Result<RegionReport, SimError> {
        let InMemoryPlan {
            tdfg,
            hw,
            layout,
            kept_resident_tile,
            needed,
            written,
            jit,
        } = plan;

        // 1. Prepare transposed data (TC_core flush + TTU transpose streams),
        // reusing what is already resident under this tile (delayed release,
        // §5.2) and writing back what the entry displaces.
        let moved = self.residency.admit(&needed, &written, layout.tile());
        span.arg("relayout_bytes", moved.relayout);
        span.arg("writeback_bytes", moved.writeback);
        span.arg("kept_resident_tile", kept_resident_tile);
        let prepare_cycles = self.charge(moved);

        // 2. JIT: resolve the distilled template (O(nodes), done with the
        // plan) through the two-level cache — exact stream (concrete hit),
        // the cached template stamped with this instance's slots (template
        // hit), or the fresh template stamped (miss). The key is the
        // template's canonical signature, never the region name, so
        // shape-equal regions over different arrays — gauss_elim's per-pivot
        // instances, conv's per-channel taps, ping-pong phase pairs — reuse
        // each other's work.
        let (template, slots) = jit?;
        let (cs, outcome) = self.jit.get_or_instantiate(
            &region.name,
            &template,
            &slots,
            layout.tile().dims(),
            |tpl| infs_runtime::instantiate(tpl, &slots, &layout, &hw),
        )?;
        let n_cmds = cs.cmds.len() as u64;
        let s = &mut self.stats;
        match outcome {
            JitOutcome::ConcreteHit => {
                s.jit_hits += 1;
                s.jit_cmd_hits += n_cmds;
            }
            JitOutcome::TemplateHit => {
                s.jit_hits += 1;
                s.jit_template_hits += 1;
                s.jit_cmd_template += n_cmds;
            }
            JitOutcome::Miss => {
                let from_template = cs.stats.cmds_from_template.min(n_cmds);
                s.jit_misses += 1;
                s.jit_cmd_template += from_template;
                s.jit_cmd_misses += n_cmds - from_template;
            }
        }
        let jit_cycles = if nojit {
            0
        } else {
            hw.jit_cycles(outcome, n_cmds, cs.stats.cmds_from_template)
        };

        // 3. Execute the command stream. The command phase starts on the
        // global machine timeline after offload + prepare + JIT.
        let exec_base = self.stats.cycles + self.cfg.offload_latency + prepare_cycles + jit_cycles;
        let exec = inmem::execute_at(&cs, &self.cfg, &self.mesh, &self.eparams, exec_base);

        // 4. Functional execution: the command stream above drives timing
        // only, the values come from the tDFG executor.
        let out = if self.functional {
            let _span = infs_trace::span!(
                "sim.functional",
                executor = "tdfg",
                nodes = tdfg.nodes().len() as u64,
                elems = (0..tdfg.nodes().len() as u32)
                    .filter_map(|i| tdfg.domain(infs_tdfg::NodeId(i)))
                    .map(|d| d.num_elements())
                    .sum::<u64>(),
            );
            infs_tdfg::interp::execute(tdfg, &mut self.mem, params, &HashMap::new())?
        } else {
            infs_tdfg::interp::TdfgOutputs::default()
        };

        let total = self.cfg.offload_latency + prepare_cycles + jit_cycles + exec.cycles;
        if infs_trace::enabled() {
            let start = self.stats.cycles;
            infs_trace::sim_span(
                "machine",
                region.name.clone(),
                start,
                total,
                vec![
                    ("executed", infs_trace::ArgValue::Str("in-memory".into())),
                    ("jit_hit", infs_trace::ArgValue::Bool(outcome.is_hit())),
                ],
            );
            infs_trace::sim_span(
                "machine",
                "offload",
                start,
                self.cfg.offload_latency,
                vec![],
            );
            infs_trace::sim_span(
                "machine",
                "prepare",
                start + self.cfg.offload_latency,
                prepare_cycles,
                vec![],
            );
            infs_trace::sim_span(
                "machine",
                "jit",
                start + self.cfg.offload_latency + prepare_cycles,
                jit_cycles,
                vec![],
            );
        }
        self.stats.cycles += total;
        self.stats.breakdown.dram += prepare_cycles;
        self.stats.breakdown.jit += jit_cycles;
        self.stats.breakdown.mv += exec.mv_cycles;
        self.stats.breakdown.compute += exec
            .cycles
            .saturating_sub(exec.mv_cycles + exec.final_reduce_cycles)
            + self.cfg.offload_latency;
        self.stats.breakdown.final_reduce += exec.final_reduce_cycles;
        self.stats.traffic += exec.traffic;
        self.stats.energy += exec.energy;
        self.stats.ops_in_memory += tdfg.op_profile().total_elem_ops;
        Ok(RegionReport {
            scalars: out.scalars,
            cycles: total,
            executed: Executed::InMemory,
            jit_outcome: Some(outcome),
            prepare_cycles,
        })
    }

    fn exec_sdfg(
        &mut self,
        region: &RegionInstance,
        params: &[f32],
    ) -> Result<Vec<(String, f32)>, SimError> {
        if !self.functional {
            return Ok(Vec::new());
        }
        let _span = infs_trace::span!(
            "sim.functional",
            executor = "sdfg",
            nodes = region.sdfg.streams().len() as u64,
            elems = region.sdfg.loop_trip().iter().product::<u64>(),
        );
        let out = infs_sdfg::interp::execute(&region.sdfg, &mut self.mem, params)?;
        Ok(out.iter().map(|(n, v)| (n.to_string(), v)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
    use infs_isa::Compiler;

    /// `A[i] *= param0` over `n` elements: one lattice per `n`.
    fn scale_region(n: u64) -> RegionInstance {
        let mut k = KernelBuilder::new("scale", infs_sdfg::DataType::F32);
        let a = k.array("A", vec![n]);
        let i = k.parallel_loop("i", 0, n as i64);
        let x = ScalarExpr::load(a, vec![Idx::var(i)]);
        k.assign(
            a,
            vec![Idx::var(i)],
            ScalarExpr::mul(x, ScalarExpr::Param(0)),
        );
        Compiler {
            optimize: false,
            ..Default::default()
        }
        .compile(k.build().unwrap(), &[])
        .unwrap()
        .into_instance(&[])
        .unwrap()
    }

    /// More distinct lattices than the planned-layout cache holds, entered
    /// twice through one resident machine: the cache never outgrows its cap,
    /// and every entry — the second pass re-plans what the overflow dropped —
    /// takes exactly the cycles a fresh machine takes.
    #[test]
    fn layout_cache_is_bounded_and_replanning_moves_no_cycle() {
        let cfg = SystemConfig::default();
        let regions: Vec<_> = (1..=LAYOUT_CACHE_CAP as u64 + 8)
            .map(|k| scale_region(256 * k))
            .collect();
        let jit = Arc::new(JitCache::new());
        let mut m = Machine::with_jit(cfg.clone(), &[], jit.clone());
        let mut peak = 0;
        for pass in 0..2 {
            // Every entry below lowers, on `m` as on a fresh machine, so only
            // the layout cache tells the two apart.
            jit.clear();
            for region in &regions {
                let arrays = region.sdfg.arrays();
                m.reset(arrays);
                let got = m.run_region(region, &[2.0], ExecMode::InL3).unwrap();
                let want = Machine::new(cfg.clone(), arrays)
                    .run_region(region, &[2.0], ExecMode::InL3)
                    .unwrap();
                assert_eq!(got.executed, Executed::InMemory);
                assert_eq!(got.cycles, want.cycles, "pass {pass}, {:?}", arrays);
                let len = m.layouts.lock().unwrap().len();
                assert!(len <= LAYOUT_CACHE_CAP, "{len} planned layouts");
                peak = peak.max(len);
            }
        }
        assert_eq!(peak, LAYOUT_CACHE_CAP, "the cache filled and started over");
    }
}
