//! The resident server: admission, worker pool, dispatch, shutdown.
//!
//! A [`Server`] owns everything long-lived — the bounded admission queue, the
//! content-addressed [`ArtifactCache`], the shared bounded
//! [`JitCache`], and a pool of worker threads each owning one resident
//! [`Machine`] for its lifetime. Requests enter through [`Server::submit`]
//! (in-process) or the TCP front end in [`crate::net`]; both produce the
//! same [`Response`]s.

use crate::artifact::{format_id, parse_id, ArtifactCache, PipelineCache};
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::protocol::{
    executed_label, ArrayPayload, CompileRequest, ExecuteRequest, HealthReport, MetricsReport,
    PipelineRequest, Request, RequestBody, Response, ResponseStats, ScalarOut, StageStats,
    WireError, WireMode,
};
use crate::queue::{AdmissionQueue, PushError};
use infs_faults::{FaultPlan, RetuneTrigger};
use infs_geom::TileShape;
use infs_isa::{fnv1a, Compiler, FatBinary, Fnv1a, IsaError, RegionInstance};
use infs_runtime::{JitCache, JitOutcome, Tier, TransposedLayout};
use infs_sdfg::{ArrayDecl, ArrayId};
use infs_shard::{BatchMap, BatchStats, JoinOutcome};
use infs_sim::{ExecMode, Machine, PipelinePolicy, RunPlan, StageReport, StageRequest};
use infs_tune::{Tuner, Variant};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deadlines are clamped to this (one day) so `Instant` arithmetic cannot
/// overflow on absurd client-supplied values.
const MAX_DEADLINE_MS: u64 = 86_400_000;

/// Where a response goes once a worker (or the batcher's fan-out) produces
/// it. The synchronous [`Server::submit`] path wraps an `mpsc` channel; the
/// reactor front end wraps a closure that hands the serialized response to
/// its outbox.
pub struct Reply(Box<dyn FnOnce(Response) + Send>);

impl Reply {
    /// A reply delivered by calling `f` (from whatever thread finishes the
    /// request).
    pub fn new(f: impl FnOnce(Response) + Send + 'static) -> Self {
        Reply(Box::new(f))
    }

    /// Deliver the response.
    pub fn send(self, response: Response) {
        (self.0)(response);
    }
}

impl std::fmt::Debug for Reply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Reply(..)")
    }
}

/// One admitted unit of work.
struct Job {
    request: Request,
    deadline: Instant,
    enqueued: Instant,
    reply: Reply,
    /// When this job leads an open batch: the batch key to close (fan the
    /// response out to joined waiters) once the response exists.
    batch_key: Option<u64>,
}

/// A request parked in an open batch, waiting for the leader's response.
struct BatchWaiter {
    id: u64,
    enqueued: Instant,
    reply: Reply,
}

/// Everything [`Server::admit`] hands back when admission fails: the intact
/// request (the shard router sheds it to a ring neighbor), the reply, and
/// the typed rejection to deliver if no one else takes it.
pub(crate) struct RejectedAdmission {
    pub(crate) request: Request,
    pub(crate) reply: Reply,
    pub(crate) response: Box<Response>,
}

/// A handle to an admitted request; [`Ticket::wait`] blocks for the response.
pub struct Ticket {
    id: u64,
    rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// Blocks until the worker answers.
    pub fn wait(self) -> Response {
        self.rx.recv().unwrap_or_else(|_| {
            Response::failure(
                self.id,
                WireError::new(WireError::EXECUTION, "worker dropped the request"),
                ResponseStats::default(),
            )
        })
    }
}

/// Outcome of [`Server::submit`]: either a [`Ticket`] for an admitted
/// request, or the immediate rejection response (backpressure with a
/// retry-after hint, or shutting-down).
pub enum Submitted {
    /// Admitted; wait on the ticket.
    Admitted(Ticket),
    /// Rejected at admission; the boxed response says why (boxed so the
    /// enum stays small next to a bare ticket).
    Rejected(Box<Response>),
}

/// Counters returned by [`Server::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownStats {
    /// Requests handled by workers (including per-request failures).
    pub served: u64,
    /// Requests rejected at admission (backpressure or shutting-down).
    pub rejected: u64,
    /// Artifact-cache (hits, misses, evictions).
    pub artifacts: (u64, u64, u64),
    /// Shared JIT-cache (hits, misses).
    pub jit: (u64, u64),
}

/// Pause/resume gate for the worker pool. Paused workers hold *after* popping
/// a job and before serving it — so tests and benchmarks can deterministically
/// fill the admission queue and observe backpressure. While paused, single
/// jobs can be let through with [`Gate::release`] permits, and the number of
/// workers parked at the gate is observable — together these make
/// "serve exactly one request now" a deterministic test step.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    paused: bool,
    /// Jobs allowed through while paused.
    permits: u64,
    /// Workers currently parked in [`Gate::wait_open`].
    waiting: usize,
}

impl Gate {
    fn new() -> Self {
        Gate {
            state: Mutex::new(GateState {
                paused: false,
                permits: 0,
                waiting: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn wait_open(&self) {
        let mut st = self.state.lock().unwrap();
        while st.paused && st.permits == 0 {
            st.waiting += 1;
            st = self.cv.wait(st).unwrap();
            st.waiting -= 1;
        }
        if st.paused {
            st.permits -= 1;
        }
    }

    fn set(&self, paused: bool) {
        let mut st = self.state.lock().unwrap();
        st.paused = paused;
        if !paused {
            st.permits = 0;
            self.cv.notify_all();
        }
    }

    fn release(&self, permits: u64) {
        self.state.lock().unwrap().permits += permits;
        self.cv.notify_all();
    }

    fn waiting(&self) -> usize {
        self.state.lock().unwrap().waiting
    }
}

struct Shared {
    cfg: ServeConfig,
    queue: AdmissionQueue<Job>,
    artifacts: ArtifactCache,
    pipelines: PipelineCache,
    jit: Arc<JitCache>,
    gate: Gate,
    shutting_down: AtomicBool,
    served: AtomicU64,
    rejected: AtomicU64,
    started: Instant,
    /// The seeded chaos plan, when the server runs in chaos mode.
    faults: Option<Arc<FaultPlan>>,
    /// Worker panics caught and turned into [`ServeError::WorkerFault`].
    worker_faults: AtomicU64,
    /// Per-server sequence for the worker-panic fault schedule.
    fault_seq: AtomicU64,
    /// Per-server sequence for the artifact-corruption fault schedule.
    artifact_seq: AtomicU64,
    /// Open batches: identical in-flight requests coalesced onto one
    /// execution (`cfg.batching`); always present, bypassed when disabled.
    batches: BatchMap<BatchWaiter>,
    /// The online autotuner (`cfg.tune`, `DESIGN.md` §15); `None` when
    /// tuning is disabled.
    tuner: Option<Arc<Tuner>>,
    /// Live dead-bank watermark: the most dead banks observed on any
    /// worker's machine. Starts at the plan's initial outage, so the `Health`
    /// verb also reports quarantines that landed *after* boot (SRAM-flip
    /// scrubs).
    banks_dead: AtomicU32,
}

impl Shared {
    /// Server-wide counters for the `Metrics` verb.
    fn metrics(&self) -> MetricsReport {
        let (artifact_hits, artifact_misses, artifact_evictions) = self.artifacts.stats();
        let (jit_hits, jit_misses) = self.jit.stats();
        let (pipeline_hits, pipeline_misses) = self.pipelines.stats();
        let batch = self.batches.stats();
        let tune = self.tuner.as_ref().map(|t| t.stats()).unwrap_or_default();
        MetricsReport {
            served: self.served.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            queue_depth: self.queue.len(),
            queue_capacity: self.queue.capacity(),
            artifact_hits,
            artifact_misses,
            artifact_evictions,
            jit_hits,
            jit_misses,
            jit_template_hits: self.jit.template_hits(),
            jit_evictions: self.jit.evictions(),
            pipeline_hits,
            pipeline_misses,
            batch_executions: batch.executions,
            batch_joined: batch.joined,
            batch_max_occupancy: batch.max_occupancy,
            tune_explored: tune.explored,
            tune_exploited: tune.exploited,
            tune_promotions: tune.promotions,
            tune_demotions: tune.demotions,
            tune_artifacts: tune.artifacts,
            workers: self.cfg.workers.max(1),
            uptime_ms: self.started.elapsed().as_millis() as u64,
        }
    }

    /// The `Health` verb: degradation status plus the fault counters that
    /// explain it (`DESIGN.md` §10).
    fn health(&self) -> HealthReport {
        let total_banks = self.cfg.system.n_banks;
        // Every worker's machine starts from the plan's initial outage and
        // only ever loses banks (a panic-rebuilt machine inherits its
        // predecessor's mask), so this is the max over workers: exact with
        // one worker, the worst machine of the pool otherwise.
        let healthy_banks = total_banks - self.banks_dead.load(Ordering::Relaxed);
        let worker_faults = self.worker_faults.load(Ordering::Relaxed);
        let artifact_corruptions = self.artifacts.corruptions();
        let jit_corruptions = self.jit.corruptions();
        let status = if self.shutting_down.load(Ordering::SeqCst) {
            HealthReport::DRAINING
        } else if healthy_banks < total_banks
            || worker_faults > 0
            || artifact_corruptions > 0
            || jit_corruptions > 0
        {
            HealthReport::DEGRADED
        } else {
            HealthReport::OK
        };
        HealthReport {
            status: status.to_string(),
            healthy_banks,
            total_banks,
            worker_faults,
            artifact_corruptions,
            jit_corruptions,
            queue_depth: self.queue.len(),
            queue_capacity: self.queue.capacity(),
            workers: self.cfg.workers.max(1),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            shards: Vec::new(),
        }
    }

    /// Panics iff the chaos plan schedules a worker fault for the next
    /// sequence number. Called only from compile/execute handling, inside the
    /// worker's `catch_unwind` — the panic is caught, counted, and answered
    /// as a retryable [`WireError::WORKER_FAULT`].
    fn maybe_panic(&self, request_id: u64) {
        if let Some(plan) = &self.faults {
            if plan.worker_panic(self.fault_seq.fetch_add(1, Ordering::Relaxed)) {
                panic!("injected worker fault (chaos): request {request_id}");
            }
        }
    }

    /// Corrupts the freshly inserted artifact when the chaos plan says so;
    /// the next load detects the bad checksum and recompiles.
    fn maybe_corrupt_artifact(&self, key: u64) {
        if let Some(plan) = &self.faults {
            if plan.corrupt_artifact(self.artifact_seq.fetch_add(1, Ordering::Relaxed)) {
                self.artifacts.corrupt(key);
            }
        }
    }
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.queue.close();
        // A paused pool must not wedge shutdown.
        self.gate.set(false);
    }
}

/// The resident multi-tenant compile-and-execute service.
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Starts the worker pool and returns the running server.
    pub fn new(cfg: ServeConfig) -> Self {
        let jit = Arc::new(JitCache::bounded(cfg.jit_capacity));
        let faults = cfg.faults.clone().map(|fc| Arc::new(FaultPlan::new(fc)));
        let tuner = cfg.tune.clone().map(|tc| Arc::new(Tuner::new(tc)));
        let n_banks = cfg.system.n_banks;
        let banks_dead = faults.as_ref().map_or(0, |plan| {
            n_banks - plan.initial_health(n_banks).healthy_count()
        });
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(cfg.queue_capacity),
            artifacts: ArtifactCache::new(cfg.artifact_capacity),
            pipelines: PipelineCache::new(cfg.artifact_capacity),
            jit,
            gate: Gate::new(),
            shutting_down: AtomicBool::new(false),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            started: Instant::now(),
            faults,
            worker_faults: AtomicU64::new(0),
            fault_seq: AtomicU64::new(0),
            artifact_seq: AtomicU64::new(0),
            batches: BatchMap::new(),
            tuner,
            banks_dead: AtomicU32::new(banks_dead),
            cfg,
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared, i))
            })
            .collect();
        Server {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// The configuration the server runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// The shared admission path: coalesce into an open batch when possible,
    /// otherwise take a queue slot. On rejection everything is handed back —
    /// the request (so the shard router can shed it to a ring neighbor), the
    /// reply, and the rejection response — so no caller ever loses a
    /// request silently.
    pub(crate) fn admit(
        &self,
        request: Request,
        reply: Reply,
    ) -> Result<(), Box<RejectedAdmission>> {
        let id = request.id;
        let now = Instant::now();
        let deadline_ms = request
            .deadline_ms
            .unwrap_or(self.shared.cfg.default_deadline_ms)
            .min(MAX_DEADLINE_MS);
        let deadline = now + Duration::from_millis(deadline_ms);

        // Batching happens *before* admission, so joining consumes no queue
        // slot: a request rejected with retry-after that comes back while
        // "its" execution is still open attaches to it instead of competing
        // for capacity (and instead of spawning a duplicate execution).
        let mut reply = reply;
        let mut batch_key = None;
        if self.shared.cfg.batching {
            if let Some((key, guard)) = batch_identity(&request.body) {
                let waiter = BatchWaiter {
                    id,
                    enqueued: now,
                    reply,
                };
                match self.shared.batches.join_or_reserve(key, guard, waiter) {
                    JoinOutcome::Joined => {
                        infs_trace::counter!("serve.batch_joined", 1u64);
                        return Ok(());
                    }
                    JoinOutcome::Reserved(w) => {
                        reply = w.reply;
                        batch_key = Some(key);
                    }
                    // A 64-bit key collision between different bodies:
                    // serve it unbatched, never from the other body's result.
                    JoinOutcome::Collision(w) => reply = w.reply,
                }
            }
        }

        let job = Job {
            request,
            deadline,
            enqueued: now,
            reply,
            batch_key,
        };
        let (job, error) = match self.shared.queue.push(job) {
            Ok(()) => return Ok(()),
            Err(PushError::Full(job)) => {
                let mut err = WireError::new(
                    WireError::BACKPRESSURE,
                    format!(
                        "admission queue full ({} queued)",
                        self.shared.queue.capacity()
                    ),
                );
                err.retry_after_ms = Some(self.shared.cfg.retry_after_ms);
                (job, err)
            }
            Err(PushError::Closed(job)) => (
                job,
                WireError::new(WireError::SHUTTING_DOWN, "server is shutting down"),
            ),
        };
        // The leader never entered the queue, so its reservation must not
        // strand waiters that joined in the meantime: fail them with the
        // same typed rejection (they retry, and typically re-join a batch
        // whose leader *did* get a slot).
        if let Some(key) = job.batch_key {
            for w in self.shared.batches.cancel(key) {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                w.reply.send(Response::failure(
                    w.id,
                    error.clone(),
                    ResponseStats::default(),
                ));
            }
        }
        self.shared.rejected.fetch_add(1, Ordering::Relaxed);
        Err(Box::new(RejectedAdmission {
            request: job.request,
            reply: job.reply,
            response: Box::new(Response::failure(id, error, ResponseStats::default())),
        }))
    }

    /// Submits a request. Full queue → immediate backpressure rejection with
    /// `retry_after_ms`; closed queue → shutting-down rejection; otherwise a
    /// [`Ticket`].
    pub fn submit(&self, request: Request) -> Submitted {
        let id = request.id;
        let (tx, rx) = mpsc::channel();
        let reply = Reply::new(move |response| {
            // A dead receiver (caller gone) is not a server error.
            let _ = tx.send(response);
        });
        match self.admit(request, reply) {
            Ok(()) => Submitted::Admitted(Ticket { id, rx }),
            Err(rej) => Submitted::Rejected(rej.response),
        }
    }

    /// Submits a request whose response is delivered through `reply` — the
    /// nonblocking entry the reactor front end uses. Rejections are
    /// delivered through the same reply, never dropped.
    pub fn submit_with(&self, request: Request, reply: Reply) {
        if let Err(rej) = self.admit(request, reply) {
            rej.reply.send(*rej.response);
        }
    }

    /// Submits and waits: the synchronous convenience for in-process
    /// callers. Rejections come back immediately as failure responses.
    pub fn call(&self, request: Request) -> Response {
        match self.submit(request) {
            Submitted::Admitted(ticket) => ticket.wait(),
            Submitted::Rejected(response) => *response,
        }
    }

    /// Holds workers after their next pop (test/bench hook for deterministic
    /// backpressure: pause, overfill the queue, observe rejections, resume).
    pub fn pause(&self) {
        self.shared.gate.set(true);
    }

    /// Releases paused workers.
    pub fn resume(&self) {
        self.shared.gate.set(false);
    }

    /// While paused, lets exactly `n` popped jobs through the gate — the
    /// deterministic single-step hook batching tests drive.
    pub fn release(&self, n: u64) {
        self.shared.gate.release(n);
    }

    /// Workers currently parked at the pause gate, each holding one popped
    /// job. Spinning until this is nonzero is the deterministic rendezvous
    /// for "a worker has picked up the request but not served it".
    pub fn gate_waiting(&self) -> usize {
        self.shared.gate.waiting()
    }

    /// Batching totals (executions, joins, max occupancy, collisions).
    pub fn batch_stats(&self) -> BatchStats {
        self.shared.batches.stats()
    }

    /// The in-process form of the `Metrics` verb (the shard cluster
    /// aggregates these across members).
    pub fn metrics(&self) -> MetricsReport {
        self.shared.metrics()
    }

    /// True once shutdown has begun (the IO loop's watcher polls this).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// Closes admission. Queued and in-flight requests still complete; call
    /// [`Server::shutdown`] to wait for them. Idempotent — also triggered by
    /// a [`RequestBody::Shutdown`] request.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Graceful shutdown: closes admission, drains every admitted request,
    /// joins the workers, and returns lifetime counters.
    pub fn shutdown(&self) -> ShutdownStats {
        self.shared.begin_shutdown();
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        ShutdownStats {
            served: self.shared.served.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            artifacts: self.shared.artifacts.stats(),
            jit: self.shared.jit.stats(),
        }
    }

    /// Currently queued (admitted, not yet picked up) requests.
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Artifact-cache (hits, misses, evictions) so far.
    pub fn artifact_stats(&self) -> (u64, u64, u64) {
        self.shared.artifacts.stats()
    }

    /// The JIT memoization cache every worker's machine shares.
    pub fn jit(&self) -> Arc<JitCache> {
        self.shared.jit.clone()
    }

    /// The in-process form of the `Health` verb.
    pub fn health(&self) -> HealthReport {
        self.shared.health()
    }

    /// Worker panics caught (each answered as a retryable `worker-fault`).
    pub fn worker_faults(&self) -> u64 {
        self.shared.worker_faults.load(Ordering::Relaxed)
    }

    /// The online autotuner, when tuning is enabled (`DESIGN.md` §15).
    pub fn tuner(&self) -> Option<Arc<Tuner>> {
        self.shared.tuner.clone()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What a worker owns for its whole life: one resident simulated machine —
/// built over the server's shared [`JitCache`], armed with the fault plan and
/// auditor — that every executing request re-targets at the array table it
/// runs ([`Machine::reset`]), and the retune trigger watermarking that
/// machine's monotone degradation counters (which survive `reset`, so the
/// watermark must too).
struct Worker {
    machine: Machine,
    retune: RetuneTrigger,
}

impl Worker {
    /// A machine with no table loaded. Chaos mode arms the server's fault
    /// plan, so SRAM flips, dead banks and NoC faults reach simulated runs;
    /// the audit hook (the tuning soak installs `infs-check` here) validates
    /// every run — incumbent or explorer — before commit.
    fn new(shared: &Shared) -> Self {
        let mut machine = Machine::with_jit(shared.cfg.system.clone(), &[], shared.jit.clone());
        if let Some(plan) = &shared.faults {
            machine.set_fault_plan(plan.clone());
        }
        if let Some(auditor) = &shared.cfg.auditor {
            machine.set_region_auditor(Some(auditor.clone()));
        }
        Worker {
            machine,
            retune: RetuneTrigger::new(),
        }
    }
}

/// Where [`encode_body`] puts its bytes: a counter on the sizing pass, the
/// guard itself on the second, so the guard is allocated once at its exact
/// length (a 512 KiB guard grown by doubling is copied twice over).
trait GuardSink {
    fn put(&mut self, bytes: &[u8]);
}

impl GuardSink for usize {
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

impl GuardSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The exact canonical byte encoding of a batchable request body (`None`
/// for the verbs that are never coalesced). Every variable-length field is
/// length-prefixed and floats go in as their bit patterns, so two bodies
/// encode alike only if they are field-for-field, bit-for-bit the same
/// request — stricter than their JSON text, and without printing a float on
/// the reactor thread.
fn encode_body<G: GuardSink>(body: &RequestBody, g: &mut G) -> Option<()> {
    fn put_bytes(g: &mut impl GuardSink, b: &[u8]) {
        g.put(&(b.len() as u64).to_le_bytes());
        g.put(b);
    }
    fn put_opt(g: &mut impl GuardSink, s: Option<&String>) {
        g.put(&[u8::from(s.is_some())]);
        if let Some(s) = s {
            put_bytes(g, s.as_bytes());
        }
    }
    fn put_all<T: Copy, const N: usize>(
        g: &mut impl GuardSink,
        xs: &[T],
        le: impl Fn(T) -> [u8; N],
    ) {
        g.put(&(xs.len() as u64).to_le_bytes());
        // Through a stack block: one `put` per element is a capacity check
        // and a length update per four bytes of a 512 KiB guard.
        let mut block = [0u8; 1024];
        for run in xs.chunks(block.len() / N) {
            for (bytes, &x) in block.chunks_exact_mut(N).zip(run) {
                bytes.copy_from_slice(&le(x));
            }
            g.put(&block[..run.len() * N]);
        }
    }
    fn put_payloads(g: &mut impl GuardSink, inputs: &[ArrayPayload]) {
        g.put(&(inputs.len() as u64).to_le_bytes());
        for p in inputs {
            g.put(&p.array.to_le_bytes());
            put_all(g, &p.data, |v| v.to_bits().to_le_bytes());
        }
    }
    match body {
        RequestBody::Compile(c) => {
            g.put(&[0]);
            // A kernel is a small tree with no bulk data: its canonical JSON
            // is its encoding.
            put_bytes(g, serde_json::to_string(&c.kernel).ok()?.as_bytes());
            put_all(g, &c.representative_syms, i64::to_le_bytes);
            g.put(&[u8::from(c.optimize)]);
        }
        RequestBody::Execute(e) => {
            g.put(&[1]);
            put_opt(g, e.artifact.as_ref());
            put_opt(g, e.binary.as_ref());
            put_bytes(g, e.region.as_bytes());
            put_all(g, &e.syms, i64::to_le_bytes);
            put_all(g, &e.params, |v| v.to_bits().to_le_bytes());
            g.put(&[e.mode.index()]);
            put_payloads(g, &e.inputs);
            put_all(g, &e.outputs, u32::to_le_bytes);
        }
        RequestBody::Pipeline(p) => {
            g.put(&[2]);
            put_bytes(g, p.graph.as_bytes());
            g.put(&[p.mode.index(), u8::from(p.fused)]);
            put_payloads(g, &p.inputs);
            put_all(g, &p.outputs, u32::to_le_bytes);
        }
        // Control verbs are cheap and side-effecting; never coalesced.
        _ => return None,
    }
    Some(())
}

/// The coalescing identity of a batchable request body: its
/// [`encode_body`] bytes as the guard and [`fold64`] of them as the key (so
/// a 64-bit hash collision degrades to an unbatched execution, never a
/// wrong answer). Tenant, id, and deadline live on the envelope, not the
/// body — identical work batches across tenants because the result is
/// identical.
fn batch_identity(body: &RequestBody) -> Option<(u64, Vec<u8>)> {
    let mut len = 0;
    encode_body(body, &mut len)?;
    let mut guard = Vec::with_capacity(len);
    encode_body(body, &mut guard)?;
    Some((fold64(&guard), guard))
}

/// Folds `bytes` to a batch key, eight bytes per multiply. Unlike the
/// byte-serial [`fnv1a`] behind artifact ids, this value never leaves the
/// process and nothing is addressed by it across runs: it only picks a slot
/// in the batch table, and the guard compare catches a collision.
fn fold64(bytes: &[u8]) -> u64 {
    let step = |h: u64, word: u64| {
        (h ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29)
    };
    let mut words = bytes.chunks_exact(8);
    let mut h = bytes.len() as u64;
    for word in &mut words {
        h = step(h, u64::from_le_bytes(word.try_into().expect("eight bytes")));
    }
    let mut last = [0; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    step(h, u64::from_le_bytes(last))
}

fn worker_loop(shared: &Arc<Shared>, index: usize) {
    infs_trace::name_thread(&format!("worker {index}"));
    let mut worker = Worker::new(shared);
    while let Some(job) = shared.queue.pop() {
        shared.gate.wait_open();
        // Destructure first so the reply survives a panicking handler — the
        // client must get a typed error, not a hang.
        let Job {
            request,
            deadline,
            enqueued,
            reply,
            batch_key,
        } = job;
        let id = request.id;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle(shared, &mut worker, request, deadline, enqueued)
        }));
        let mut response = outcome.unwrap_or_else(|payload| {
            // The panic may have left the machine half-mutated: rebuild it
            // (and its watermark — the new counters start at 0). Quarantined
            // silicon does not heal, so the bank mask carries over. The
            // worker thread itself survives.
            let health = worker.machine.bank_health().clone();
            worker = Worker::new(shared);
            worker.machine.set_bank_health(health);
            shared.worker_faults.fetch_add(1, Ordering::Relaxed);
            infs_trace::counter!("serve.worker_faults", 1u64);
            let fault = ServeError::WorkerFault {
                request_id: id,
                message: panic_message(payload.as_ref()),
            };
            Response::failure(id, fault.to_wire(), ResponseStats::default())
        });
        shared.served.fetch_add(1, Ordering::Relaxed);
        if let Some(key) = batch_key {
            // Close the batch this job led — even on failure: identical
            // requests fail identically, and retryable errors stay
            // retryable for every member. Then fan the one response out.
            let waiters = shared.batches.close(key);
            let size = 1 + waiters.len() as u64;
            response.stats.batch_size = size;
            if !waiters.is_empty() {
                infs_trace::counter!("serve.batch_fanout", waiters.len() as u64);
            }
            let now = Instant::now();
            for w in waiters {
                let mut r = response.clone();
                r.id = w.id;
                // The follower did no work of its own: its wall clock runs
                // from *its* admission, its service time is (at most) the
                // leader's, and everything else was time spent attached to
                // the batch — so the PR 3 stats invariants
                // (`total == queue_wait + service`,
                //  `queue_wait + compile + execute <= total`) still hold.
                let total = now.duration_since(w.enqueued).as_micros() as u64;
                let service = response.stats.service_us.min(total);
                r.stats.total_us = total;
                r.stats.service_us = service;
                r.stats.queue_wait_us = total - service;
                r.stats.execute_us = response.stats.execute_us.min(service);
                r.stats.compile_us = 0;
                r.stats.batched = true;
                for stage in &mut r.stats.stages {
                    stage.compile_us = 0;
                }
                shared.served.fetch_add(1, Ordering::Relaxed);
                w.reply.send(r);
            }
        }
        reply.send(response);
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Successful-handler payload, merged into the response scaffold.
#[derive(Default)]
struct Payload {
    artifact: Option<String>,
    outputs: Vec<ArrayPayload>,
    scalars: Vec<ScalarOut>,
    metrics: Option<MetricsReport>,
    health: Option<HealthReport>,
}

/// Trace label for a request body.
fn request_kind(body: &RequestBody) -> &'static str {
    match body {
        RequestBody::Compile(_) => "compile",
        RequestBody::Execute(_) => "execute",
        RequestBody::Pipeline(_) => "pipeline",
        RequestBody::Ping => "ping",
        RequestBody::Metrics => "metrics",
        RequestBody::Health => "health",
        RequestBody::Shutdown => "shutdown",
    }
}

fn handle(
    shared: &Shared,
    worker: &mut Worker,
    request: Request,
    deadline: Instant,
    enqueued: Instant,
) -> Response {
    let picked = Instant::now();
    let mut stats = ResponseStats {
        queue_wait_us: picked.duration_since(enqueued).as_micros() as u64,
        // Batchable work answers for at least itself; the batch leader's
        // fan-out overwrites this with the real occupancy. Control verbs
        // keep 0 (batching does not apply).
        batch_size: u64::from(matches!(
            &request.body,
            RequestBody::Compile(_) | RequestBody::Execute(_) | RequestBody::Pipeline(_)
        )),
        ..ResponseStats::default()
    };
    // Per-request root span: the queue wait is recorded retroactively as a
    // sibling interval ending where the service span begins.
    let mut span = infs_trace::span!(
        "serve.request",
        id = request.id,
        tenant = request.tenant.as_str(),
        kind = request_kind(&request.body),
    );
    if infs_trace::enabled() {
        let wait_ns = (stats.queue_wait_us).saturating_mul(1000);
        let now_ns = infs_trace::now_ns();
        infs_trace::record_span_at(
            "serve.queue_wait",
            now_ns.saturating_sub(wait_ns),
            wait_ns,
            vec![("id", infs_trace::ArgValue::UInt(request.id))],
        );
    }
    let result = if picked >= deadline {
        Err(timeout("deadline expired while queued"))
    } else {
        match &request.body {
            RequestBody::Ping => Ok(Payload::default()),
            RequestBody::Metrics => Ok(Payload {
                metrics: Some(shared.metrics()),
                ..Payload::default()
            }),
            RequestBody::Health => Ok(Payload {
                health: Some(shared.health()),
                ..Payload::default()
            }),
            RequestBody::Shutdown => {
                shared.begin_shutdown();
                Ok(Payload::default())
            }
            RequestBody::Compile(c) => {
                shared.maybe_panic(request.id);
                handle_compile(shared, c, deadline, &mut stats)
            }
            RequestBody::Execute(e) => {
                shared.maybe_panic(request.id);
                handle_execute(shared, worker, e, deadline, &mut stats)
            }
            RequestBody::Pipeline(p) => {
                shared.maybe_panic(request.id);
                handle_pipeline(shared, worker, p, deadline, &mut stats)
            }
        }
    };
    stats.service_us = picked.elapsed().as_micros() as u64;
    stats.total_us = stats.queue_wait_us + stats.service_us;
    span.arg("ok", result.is_ok());
    span.arg("total_us", stats.total_us);
    match result {
        Ok(payload) => {
            let mut r = Response::success(request.id, stats);
            r.artifact = payload.artifact;
            r.outputs = payload.outputs;
            r.scalars = payload.scalars;
            r.metrics = payload.metrics;
            r.health = payload.health;
            r
        }
        Err(e) => Response::failure(request.id, e, stats),
    }
}

fn bad_request(message: impl Into<String>) -> WireError {
    WireError::new(WireError::BAD_REQUEST, message)
}

fn timeout(message: impl Into<String>) -> WireError {
    WireError::new(WireError::TIMEOUT, message)
}

/// The content-addressing key of a compile request: kernel JSON × symbol
/// binding × geometry set × optimizer flag. Stable across processes (FNV-1a
/// over the canonical encoding), so a restarted server re-derives the same
/// artifact ids.
fn compile_key(compiler: &Compiler, c: &CompileRequest) -> Result<u64, WireError> {
    let mut hash = Fnv1a::new();
    serde_json::to_writer(&mut hash, &c.kernel)
        .map_err(|e| bad_request(format!("unserializable kernel: {e}")))?;
    hash.write(
        format!(
            "|syms={:?}|opt={}|geoms={:?}",
            c.representative_syms, c.optimize, compiler.geometries
        )
        .as_bytes(),
    );
    Ok(hash.finish())
}

fn handle_compile(
    shared: &Shared,
    c: &CompileRequest,
    deadline: Instant,
    stats: &mut ResponseStats,
) -> Result<Payload, WireError> {
    let compiler = Compiler {
        optimize: c.optimize,
        ..Compiler::default()
    };
    let key = compile_key(&compiler, c)?;
    let binary = if let Some(cached) = shared.artifacts.get(key) {
        stats.artifact_cache_hit = true;
        cached
    } else {
        let t0 = Instant::now();
        let _span = infs_trace::span!("serve.compile", optimize = c.optimize);
        let region = compiler
            .compile_with(c.kernel.clone(), &c.representative_syms, &mut |_stage| {
                Instant::now() < deadline
            })
            .map_err(|e| match e {
                IsaError::Cancelled(stage) => {
                    timeout(format!("deadline expired before the {stage} stage"))
                }
                other => WireError::new(WireError::COMPILE, other.to_string()),
            })?;
        stats.compile_us = t0.elapsed().as_micros() as u64;
        let mut fb = FatBinary::new();
        fb.push(region);
        let inserted = shared.artifacts.insert(key, Arc::new(fb));
        shared.maybe_corrupt_artifact(key);
        inserted
    };
    stats.tensorizable = binary.regions.first().map(|r| r.tensorizable);
    Ok(Payload {
        artifact: Some(format_id(key)),
        ..Payload::default()
    })
}

/// Resolves the binary an execute request targets: a cached artifact id, or
/// an inline `FatBinary::to_json` payload registered under its content hash.
fn resolve_binary(shared: &Shared, e: &ExecuteRequest) -> Result<(u64, Arc<FatBinary>), WireError> {
    match (&e.artifact, &e.binary) {
        (Some(id_str), None) => {
            let id = parse_id(id_str)
                .ok_or_else(|| bad_request(format!("malformed artifact id '{id_str}'")))?;
            let binary = shared.artifacts.get(id).ok_or_else(|| {
                WireError::new(
                    WireError::UNKNOWN_ARTIFACT,
                    format!("no artifact {id_str} in the cache (compile first?)"),
                )
            })?;
            Ok((id, binary))
        }
        (None, Some(json)) => {
            let binary = FatBinary::from_json(json)
                .map_err(|err| bad_request(format!("unparseable inline binary: {err}")))?;
            let id = binary
                .content_hash()
                .map_err(|err| bad_request(format!("unhashable inline binary: {err}")))?;
            Ok((id, shared.artifacts.insert(id, Arc::new(binary))))
        }
        _ => Err(bad_request(
            "exactly one of `artifact` / `binary` must be set",
        )),
    }
}

/// Checks a request's inputs and outputs against the declaration table of
/// what it runs. Up front, because functional memory's `write_array` treats
/// a mismatch as a programming error and panics.
fn validate_io(
    decls: &[ArrayDecl],
    inputs: &[ArrayPayload],
    outputs: &[u32],
) -> Result<(), WireError> {
    for p in inputs {
        let decl = decls
            .get(p.array as usize)
            .ok_or_else(|| bad_request(format!("input array id {} out of range", p.array)))?;
        if p.data.len() as u64 != decl.num_elements() {
            return Err(bad_request(format!(
                "input array {} ('{}') has {} elements, got {}",
                p.array,
                decl.name,
                decl.num_elements(),
                p.data.len()
            )));
        }
    }
    for &out in outputs {
        if decls.get(out as usize).is_none() {
            return Err(bad_request(format!("output array id {out} out of range")));
        }
    }
    Ok(())
}

/// The plan a decided variant runs under: `plan` — what the static
/// heuristics give this run — with the variant's one decision replaced. The
/// machine clamps forced tiers to what health and feasibility allow, so an
/// explorer variant can never place a region somewhere it cannot run. Tile
/// dims the geometry layer rejects (impossible for planner-ranked tiles;
/// defensive against rebuilt tables) leave the plan's own tile in place.
fn plan_for(variant: &Variant, mut plan: RunPlan) -> RunPlan {
    match variant {
        Variant::Baseline => {}
        Variant::Tile(dims) => {
            if let Ok(tile) = TileShape::new(dims.clone()) {
                plan.tile = Some(tile);
            }
        }
        Variant::ForceInMemory => plan.tier = Some(Tier::InMemory),
        Variant::ForceNearMemory => plan.tier = Some(Tier::NearMemory),
        Variant::Roundtrip => plan.policy = PipelinePolicy::Roundtrip,
    }
    plan
}

/// A tune table's candidate variant space, enumerated when the table opens.
type Candidates<'a> = &'a dyn Fn() -> Vec<Variant>;

/// What a verb hands [`run_stages`] once it has resolved what runs: a lone
/// kernel is the one-stage case.
struct ServedRun<'a> {
    stages: &'a [StageRequest<'a>],
    mode: ExecMode,
    /// The plan the static heuristics give this run.
    plan: RunPlan,
    /// When this request may be routed through a variant (`DESIGN.md` §15):
    /// the tuner, its table key and the candidate space. `None` runs `plan`.
    tune: Option<(&'a Tuner, u64, Candidates<'a>)>,
    /// The array table of what runs: the worker's machine is re-targeted at
    /// it, and `inputs`/`outputs` are checked against it.
    arrays: &'a [ArrayDecl],
    /// Arrays written before the run.
    inputs: &'a [ArrayPayload],
    /// Arrays read back after it.
    outputs: &'a [u32],
}

/// The run tail every executing verb shares: check the I/O against the run's
/// table, load that table onto the worker's machine (zeroed memory, cold
/// residency), write inputs, decide the variant, run the stages under its
/// plan, watch for degradation, record or demote, read outputs back. Fills
/// the run-level stats (`execute_us`, `cycles`, `executed`, `tuned_*`); the
/// verb shapes the rest from the returned stage reports.
fn run_stages(
    shared: &Shared,
    worker: &mut Worker,
    run: ServedRun<'_>,
    deadline: Instant,
    stats: &mut ResponseStats,
) -> Result<(Vec<StageReport>, Vec<ArrayPayload>), WireError> {
    validate_io(run.arrays, run.inputs, run.outputs)?;
    if Instant::now() >= deadline {
        return Err(timeout("deadline expired before execution"));
    }
    let Worker { machine, retune } = worker;
    machine.reset(run.arrays);
    for p in run.inputs {
        machine.memory().write_array(ArrayId(p.array), &p.data);
    }
    let tuned = run
        .tune
        .map(|(tuner, key, candidates)| (tuner, key, tuner.decide(key, candidates)));
    let plan = match &tuned {
        Some((_, _, d)) => plan_for(&d.variant, run.plan),
        None => run.plan,
    };

    let t0 = Instant::now();
    // The fan-out correctness tests pin "K identical requests, one
    // execution" on this counter.
    infs_trace::counter!("serve.executions", 1u64);
    let mut span = infs_trace::span!("serve.execute", stages = run.stages.len() as u64);
    let start = machine.stats().cycles;
    let result = machine.run(run.stages, run.mode, &plan);
    let cycles = machine.stats().cycles - start;
    span.arg("cycles", cycles);
    drop(span);
    stats.execute_us = t0.elapsed().as_micros() as u64;

    // Fault-driven retune: degradation events that landed during this run
    // (bank quarantines, regions pushed off their Eq-2 tier — forced tiers
    // never count) invalidate every cycle measured on the healthier machine.
    // Demote instead of recording: fault-polluted cycles must not enter the
    // table.
    let events = retune.observe(machine.fault_counters().degradation_events());
    let dead = machine.bank_health().n_banks() - machine.bank_health().healthy_count();
    shared.banks_dead.fetch_max(dead, Ordering::Relaxed);
    if let Some((tuner, key, d)) = &tuned {
        stats.tuned_variant = Some(d.variant.label());
        stats.tuned_explore = d.explore;
        if events > 0 {
            tuner.degrade(*key);
        } else if result.is_ok() {
            tuner.record(*key, d, cycles);
        }
    }

    let stages = result.map_err(|e| WireError::new(WireError::EXECUTION, e.to_string()))?;
    stats.cycles = cycles;
    stats.executed = stages
        .last()
        .map(|s| executed_label(s.region.executed).to_string());
    let outputs = run
        .outputs
        .iter()
        .map(|&id| ArrayPayload {
            array: id,
            data: machine.memory_ref().array(ArrayId(id)).to_vec(),
        })
        .collect();
    Ok((stages, outputs))
}

/// The tuner's table key for an execute target: the content-addressed
/// artifact id refined by region name and symbol binding, because the tile
/// candidate space (and hence the whole variant table) depends on the
/// concrete instantiation, not just the artifact.
fn tune_key(artifact_id: u64, e: &ExecuteRequest) -> u64 {
    fnv1a(format!("{artifact_id:016x}|{}|{:?}", e.region, e.syms).as_bytes())
}

/// Enumerates the candidate variant space for one execute target
/// (`DESIGN.md` §15): the static-heuristic baseline, up to four of the
/// layout planner's next-ranked feasible tiles (element 0 of the ranking
/// *is* the §4.1 pick the baseline already runs), and the two forced tiers.
/// Host-only (non-tensorizable) instantiations get just the baseline —
/// there is no placement to tune.
fn execute_candidates(shared: &Shared, instance: &RegionInstance) -> Vec<Variant> {
    let mut list = vec![Variant::Baseline];
    let Some(tdfg) = &instance.tdfg else {
        return list;
    };
    let hw = shared.cfg.system.hw();
    if let Ok(ranked) = TransposedLayout::ranked_candidates(tdfg, &instance.hints, &hw) {
        for tile in ranked.iter().skip(1).take(4) {
            list.push(Variant::Tile(tile.dims().to_vec()));
        }
    }
    list.push(Variant::ForceInMemory);
    list.push(Variant::ForceNearMemory);
    list
}

fn handle_execute(
    shared: &Shared,
    worker: &mut Worker,
    e: &ExecuteRequest,
    deadline: Instant,
    stats: &mut ResponseStats,
) -> Result<Payload, WireError> {
    let (artifact_id, binary) = resolve_binary(shared, e)?;
    let compiled = binary.region(&e.region).ok_or_else(|| {
        WireError::new(
            WireError::UNKNOWN_REGION,
            format!("no region named '{}' in the artifact", e.region),
        )
    })?;
    // The named region's table is the one the run loads. A binary's regions
    // share one table by contract; an inline binary is outside input and may
    // break it.
    let arrays = compiled.kernel().arrays();
    if let Some(other) = binary
        .regions
        .iter()
        .find(|r| r.kernel().arrays() != arrays)
    {
        return Err(bad_request(format!(
            "unusable binary: region '{}' declares a different array table",
            other.name()
        )));
    }
    stats.tensorizable = Some(compiled.tensorizable);
    let instance = compiled.instantiate(&e.syms).map_err(|err| {
        WireError::new(WireError::EXECUTION, format!("instantiation failed: {err}"))
    })?;

    // Tuning covers full Inf-S executes: that is the mode where the §4.1
    // tile and Eq-2 tier decisions — the variant space — actually apply.
    let tuner = shared.tuner.as_deref().filter(|_| e.mode == WireMode::InfS);
    let candidates = || execute_candidates(shared, &instance);
    let (stages, outputs) = run_stages(
        shared,
        worker,
        ServedRun {
            stages: &[StageRequest {
                region: &instance,
                params: &e.params,
                prefetch: &[],
                evict: &[],
            }],
            mode: e.mode.exec_mode(),
            plan: RunPlan::default(),
            tune: tuner.map(|t| (t, tune_key(artifact_id, e), &candidates as _)),
            arrays,
            inputs: &e.inputs,
            outputs: &e.outputs,
        },
        deadline,
        stats,
    )?;
    let region = stages
        .into_iter()
        .next()
        .expect("one stage in, one report out")
        .region;
    stats.jit_cache_hit = region.jit_outcome.map(JitOutcome::is_hit);
    stats.jit_outcome = region.jit_outcome.map(|o| {
        match o {
            JitOutcome::ConcreteHit => "concrete",
            JitOutcome::TemplateHit => "template",
            JitOutcome::Miss => "miss",
        }
        .to_string()
    });
    Ok(Payload {
        artifact: Some(format_id(artifact_id)),
        outputs,
        scalars: region
            .scalars
            .into_iter()
            .map(|(name, value)| ScalarOut { name, value })
            .collect(),
        ..Payload::default()
    })
}

/// Maps a pipeline compile failure onto the wire error vocabulary: graphs
/// that can never run (structure, capacity) are the client's fault; a stage
/// kernel the compiler rejects is a compile error.
fn pipeline_error(e: infs_pipeline::PipelineError) -> WireError {
    match &e {
        infs_pipeline::PipelineError::Invalid(_)
        | infs_pipeline::PipelineError::Capacity { .. } => bad_request(e.to_string()),
        _ => WireError::new(WireError::COMPILE, e.to_string()),
    }
}

fn handle_pipeline(
    shared: &Shared,
    worker: &mut Worker,
    p: &PipelineRequest,
    deadline: Instant,
    stats: &mut ResponseStats,
) -> Result<Payload, WireError> {
    let graph = infs_pipeline::PipelineGraph::from_json(&p.graph)
        .map_err(|e| bad_request(format!("unparseable pipeline graph: {e}")))?;
    // Deserialization bypasses the builder, so gate before planning anything.
    graph.validate().map_err(pipeline_error)?;
    let key = graph.content_key().map_err(pipeline_error)?;

    // Pipeline-level artifact cache: the whole graph — compiled stages,
    // residency plan — is one content-addressed artifact.
    let compiled = if let Some(cached) = shared.pipelines.get(key) {
        stats.artifact_cache_hit = true;
        cached
    } else {
        let t0 = Instant::now();
        let _span = infs_trace::span!("serve.pipeline_compile", graph = graph.name.as_str());
        let compiled =
            infs_pipeline::compile(&graph, &shared.cfg.system).map_err(pipeline_error)?;
        stats.compile_us = t0.elapsed().as_micros() as u64;
        shared.pipelines.insert(key, Arc::new(compiled))
    };

    // Residency-policy tuning (`DESIGN.md` §15): a fused pipeline request may
    // be routed through the per-kernel round trip instead — legal because
    // the two schedules produce bitwise-identical outputs (the PR 7
    // invariant) — to learn which is actually cheaper for this graph.
    // Explicit round-trip requests are a baseline measurement; never tuned.
    let tuner = shared.tuner.as_deref().filter(|_| p.fused);
    let candidates = || vec![Variant::Baseline, Variant::Roundtrip];
    let (stages, outputs) = run_stages(
        shared,
        worker,
        ServedRun {
            stages: &compiled.stage_requests(),
            mode: p.mode.exec_mode(),
            plan: RunPlan {
                policy: if p.fused {
                    PipelinePolicy::Fused
                } else {
                    PipelinePolicy::Roundtrip
                },
                ..RunPlan::default()
            },
            tune: tuner.map(|t| {
                let tk = fnv1a(format!("pipeline|{key:016x}|{}", p.mode.index()).as_bytes());
                (t, tk, &candidates as _)
            }),
            arrays: &compiled.graph().tensors,
            inputs: &p.inputs,
            outputs: &p.outputs,
        },
        deadline,
        stats,
    )?;
    stats.stages = stages
        .iter()
        .enumerate()
        .map(|(i, s)| StageStats {
            name: s.stage.clone(),
            // Cache hits charge no compile time, matching the top-level rule.
            compile_us: if stats.artifact_cache_hit {
                0
            } else {
                compiled.compile_ns().get(i).copied().unwrap_or(0) / 1000
            },
            execute_us: s.host_ns / 1000,
            cycles: s.region.cycles,
            prepare_stall_cycles: s.prepare_stall,
            prefetch_hidden_cycles: s.prefetch_hidden,
            executed: executed_label(s.region.executed).to_string(),
        })
        .collect();
    Ok(Payload {
        artifact: Some(format_id(key)),
        outputs,
        ..Payload::default()
    })
}
