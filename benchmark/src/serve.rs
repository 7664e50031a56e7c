//! The two serve workloads. Same server, wire and connection count, used in
//! opposite ways: `serve_warm` only reads warm caches, `serve_churn` only
//! misses them.

use crate::gen::{ref_mat_update, ref_scale, ref_stencil, ref_vec_add, Rng};
use crate::harness::{Metrics, Op, Window, Workload};
use crate::spans::Spans;
use crate::stats::{median, quantile, ratio};
use crate::wire::{
    compile_body, execute_body, line, output_matches, parse_response, pipeline_body, Exchange,
    Service, WireClient, CONNECTIONS,
};
use infs_serve::{demo, Client, Request, RequestBody, Response, ResponseStats};
use std::sync::Barrier;
use std::time::Instant;

/// One request (or Compile+Execute pair) of a window, serialised before the
/// clock starts, with the output its reply must carry.
struct Job {
    row: usize,
    /// For a pair: the Compile line. Otherwise empty.
    compile: Vec<u8>,
    /// The request line; for a pair, the Execute line with `ARTIFACT_SLOT`
    /// where the artifact id of the Compile reply goes.
    request: Vec<u8>,
    want: Vec<f32>,
}

/// Placeholder artifact id in a pair's Execute line: as long as a real id,
/// so the line is patched in place.
const ARTIFACT_SLOT: &str = "@@@@@@@@@@@@@@@@";

/// What the traced windows keep for the per-layer metrics.
#[derive(Default)]
struct Kept {
    served: Vec<Served>,
    /// Bytes of request lines sent and reply lines received.
    bytes_in: u64,
    bytes_out: u64,
}

/// One operation's reply as a traced window saw it.
struct Served {
    row: usize,
    client_us: f64,
    stats: ResponseStats,
    /// Server-side stats of a pair's Compile half.
    compile_stats: Option<ResponseStats>,
}

impl Served {
    /// Stats of the operation's compile step: the Compile half of a pair, the
    /// request itself otherwise.
    fn compile_step(&self) -> &ResponseStats {
        self.compile_stats.as_ref().unwrap_or(&self.stats)
    }
}

/// The artifact id of a successful Compile reply, without parsing the line.
fn artifact_id(reply: &[u8]) -> Option<&[u8]> {
    const KEY: &[u8] = b"\"artifact\":\"";
    let at = reply.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    reply.get(at..at + ARTIFACT_SLOT.len())
}

/// Runs the jobs closed-loop: connection `c` takes jobs `c, c + CONNECTIONS,
/// …` and sends each only after the previous reply has arrived.
fn closed_loop(clients: &mut [WireClient], jobs: &[Job]) -> (f64, Vec<Exchange>) {
    let barrier = Barrier::new(clients.len());
    let per_conn: Vec<(Instant, Vec<Exchange>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut done = Vec::new();
                    barrier.wait();
                    let start = Instant::now();
                    for (op, job) in jobs.iter().enumerate().skip(c).step_by(CONNECTIONS) {
                        let sent = Instant::now();
                        let mut compiled = Vec::new();
                        let reply = if job.compile.is_empty() {
                            client.round_trip(&job.request)
                        } else {
                            client.round_trip(&job.compile).and_then(|reply| {
                                compiled = reply;
                                let mut request = job.request.clone();
                                if let (Some(id), Some(at)) = (
                                    artifact_id(&compiled),
                                    find(&request, ARTIFACT_SLOT.as_bytes()),
                                ) {
                                    request[at..at + id.len()].copy_from_slice(id);
                                }
                                client.round_trip(&request)
                            })
                        };
                        let arrived = Instant::now();
                        done.push(Exchange {
                            op,
                            sent,
                            arrived,
                            compiled,
                            // A transport error leaves an empty reply, which
                            // fails verification.
                            reply: reply.unwrap_or_default(),
                        });
                    }
                    (start, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection threads do not panic"))
            .collect()
    });
    let start = per_conn
        .iter()
        .map(|(s, _)| *s)
        .min()
        .expect("connections exist");
    let mut exchanges: Vec<Exchange> = per_conn.into_iter().flat_map(|(_, done)| done).collect();
    exchanges.sort_by_key(|e| e.op);
    let end = exchanges
        .iter()
        .map(|e| e.arrived)
        .max()
        .expect("jobs exist");
    ((end - start).as_secs_f64(), exchanges)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Runs one window and checks every reply, off the clock. `accept` adds the
/// workload's own conditions on a correct reply.
fn serve_window(
    clients: &mut [WireClient],
    jobs: &[Job],
    accept: impl Fn(&Job, &Response) -> bool,
    mut keep: Option<&mut Kept>,
    spans: Option<&mut Spans>,
) -> Window {
    let (wall_s, exchanges) = closed_loop(clients, jobs);
    let mut ops = Vec::with_capacity(jobs.len());
    let mut failed = 0;
    let mut spans = spans;
    for (job, x) in jobs.iter().zip(&exchanges) {
        let us = (x.arrived - x.sent).as_secs_f64() * 1e6;
        ops.push(Op { row: job.row, us });
        let Some(response) = parse_response(&x.reply) else {
            failed += 1;
            continue;
        };
        if !(output_matches(&response, &job.want) && accept(job, &response)) {
            failed += 1;
        }
        let compile_stats = parse_response(&x.compiled).map(|r| r.stats);
        if let Some(spans) = spans.as_deref_mut() {
            // The request span is the client's; its children are synthesised
            // from what the server says it spent, centred in the round trip.
            let (t0, t1) = (spans.at_ns(x.sent), spans.at_ns(x.arrived));
            let request = spans.record("client.request", x.op as u64, None, t0, t1);
            let phases = [
                (
                    "serve.compile_half",
                    compile_stats.as_ref().map_or(0, |s| s.total_us),
                ),
                ("serve.queue_wait", response.stats.queue_wait_us),
                ("serve.compile", response.stats.compile_us),
                ("serve.execute", response.stats.execute_us),
            ];
            let server_ns: u64 = phases.iter().map(|(_, us)| us * 1000).sum();
            let mut at = t0 + (t1 - t0).saturating_sub(server_ns) / 2;
            for (name, us) in phases {
                spans.record(name, x.op as u64, Some(request), at, at + us * 1000);
                at += us * 1000;
            }
        }
        if let Some(keep) = keep.as_deref_mut() {
            // Reply bytes are counted without the stats block, whose digits
            // follow the host clock; what is left repeats exactly.
            let stats_len = |s: &ResponseStats| serde_json::to_string(s).map_or(0, |j| j.len());
            let stats_bytes =
                stats_len(&response.stats) + compile_stats.as_ref().map_or(0, stats_len);
            keep.bytes_in += (job.compile.len() + job.request.len()) as u64;
            keep.bytes_out += (x.compiled.len() + x.reply.len() - stats_bytes) as u64;
            keep.served.push(Served {
                row: job.row,
                client_us: us,
                stats: response.stats,
                compile_stats,
            });
        }
    }
    Window {
        wall_s,
        ops,
        failed,
    }
}

fn p50(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// The server-reported, server-wide and wire-volume metrics both serve
/// workloads print.
fn server_layers(service: &Service, kept: &Kept, out: &mut Metrics) {
    let served = &kept.served;
    let per_op = |bytes: u64| ratio(bytes as f64, served.len() as f64);
    out.insert("wire.bytes_in_per_req".into(), per_op(kept.bytes_in));
    out.insert("wire.bytes_out_per_req".into(), per_op(kept.bytes_out));
    let stat = |f: fn(&ResponseStats) -> u64| p50(served.iter().map(|s| f(&s.stats) as f64));
    out.insert("serve.queue_wait_p50_us".into(), stat(|s| s.queue_wait_us));
    out.insert("serve.service_p50_us".into(), stat(|s| s.service_us));
    out.insert("serve.execute_p50_us".into(), stat(|s| s.execute_us));
    out.insert("serve.total_p50_us".into(), stat(|s| s.total_us));
    out.insert(
        "serve.compile_p50_us".into(),
        p50(served.iter().map(|s| s.compile_step().compile_us as f64)),
    );
    // Counted from the replies, not from the server's lifetime counters: those
    // also count every Execute that names an artifact id as a hit.
    let hits = served
        .iter()
        .filter(|s| s.compile_step().artifact_cache_hit)
        .count();
    out.insert(
        "serve.artifact_hit_rate".into(),
        ratio(hits as f64, served.len() as f64),
    );
    let client: Vec<f64> = served.iter().map(|s| s.client_us).collect();
    out.insert("serve.req_p99_us".into(), quantile(&client, 0.99));
    out.insert(
        "shard.wire_overhead_p50_us".into(),
        p50(served.iter().map(|s| {
            let server = s.stats.total_us + s.compile_stats.as_ref().map_or(0, |c| c.total_us);
            s.client_us - server as f64
        })),
    );

    let m = service.server.metrics();
    out.insert(
        "serve.artifact_evictions".into(),
        m.artifact_evictions as f64,
    );
    out.insert(
        "serve.jit_hit_rate".into(),
        ratio(m.jit_hits as f64, (m.jit_hits + m.jit_misses) as f64),
    );
    out.insert(
        "serve.batched_share".into(),
        ratio(m.batch_joined as f64, m.served as f64),
    );
}

// ---------------------------------------------------------------------------
// serve_warm
// ---------------------------------------------------------------------------

/// Request classes and their weight per 100 requests. The weights put p50
/// inside `tiny` and p90 inside `opt`, never on a class boundary, where a
/// percentile flips between two populations from window to window.
const CLASSES: [(&str, usize); 5] = [
    ("tiny", 60),
    ("pipe", 15),
    ("mid", 10),
    ("opt", 10),
    ("inmem", 5),
];
const TINY: usize = 0;
const PIPE: usize = 1;
const MID: usize = 2;
const OPT: usize = 3;
const INMEM: usize = 4;
const WARM_REQUESTS: usize = 300;
const OPT_CHAIN: u32 = 12;
const INMEM_CHAIN: u32 = 8;

pub struct ServeWarm {
    service: Service,
    clients: Vec<WireClient>,
    jobs: Vec<Job>,
    verified: (u64, u64),
    kept: Kept,
}

fn compile_artifact(
    client: &mut WireClient,
    kernel: infs_frontend::Kernel,
    optimize: bool,
) -> String {
    let reply = client
        .round_trip(&line(0, compile_body(kernel, optimize)))
        .expect("compile round trip");
    parse_response(&reply)
        .and_then(|r| r.artifact)
        .expect("warm-set kernels compile")
}

fn warm_accept(job: &Job, response: &Response) -> bool {
    // The in-memory class must really run on the bitlines from a warm JIT.
    job.row != INMEM
        || (response.stats.executed.as_deref() == Some("in-memory")
            && response.stats.jit_outcome.as_deref() == Some("concrete"))
}

impl Workload for ServeWarm {
    const NAME: &'static str = "serve_warm";
    const PER_OP_BEST: bool = false;

    fn setup(seed: u64) -> Self {
        let service = Service::boot();
        let mut clients: Vec<WireClient> = (0..CONNECTIONS)
            .map(|_| WireClient::connect(service.addr))
            .collect();
        let c = &mut clients[0];
        let scale = compile_artifact(c, demo::scale(256), true);
        let vec_add = compile_artifact(c, demo::vec_add(256), true);
        let stencil = compile_artifact(c, demo::stencil(256), true);
        let mid = compile_artifact(c, demo::scale(4096), true);
        let opt = compile_artifact(c, demo::mat_update(64, OPT_CHAIN), true);
        let inmem = compile_artifact(c, demo::mat_update(256, INMEM_CHAIN), false);
        let graph = demo::pipeline(256, 3.0)
            .to_json()
            .expect("demo pipeline serialises");

        // Exactly the class weights, in one fixed order, in every window of
        // every seed; the seed decides parameters and tensor contents.
        let mut rng = Rng::new(seed);
        let mut classes: Vec<usize> = CLASSES
            .iter()
            .enumerate()
            .flat_map(|(c, &(_, weight))| std::iter::repeat_n(c, weight * WARM_REQUESTS / 100))
            .collect();
        Rng::order().shuffle(&mut classes);
        let jobs: Vec<Job> = classes
            .into_iter()
            .enumerate()
            .map(|(i, class)| {
                let id = i as u64 + 1;
                let (body, want) = match class {
                    TINY => {
                        let a = rng.small_ints(256);
                        match i % 3 {
                            0 => {
                                let p = 1.0 + rng.below(3) as f32;
                                let want = ref_scale(&a, p);
                                (execute_body(&scale, "scale", vec![p], vec![a], 0), want)
                            }
                            1 => {
                                let b = rng.small_ints(256);
                                let want = ref_vec_add(&a, &b);
                                (
                                    execute_body(&vec_add, "vec_add", vec![], vec![a, b], 2),
                                    want,
                                )
                            }
                            _ => {
                                let want = ref_stencil(&a);
                                (execute_body(&stencil, "stencil", vec![], vec![a], 1), want)
                            }
                        }
                    }
                    PIPE => {
                        let x = rng.small_ints(256);
                        let want = demo::pipeline_reference(&x, 3.0);
                        (pipeline_body(&graph, x, 3), want)
                    }
                    MID => {
                        let a = rng.small_ints(4096);
                        let want = ref_scale(&a, 2.0);
                        (execute_body(&mid, "scale", vec![2.0], vec![a], 0), want)
                    }
                    OPT | INMEM => {
                        let (artifact, d, chain) = if class == OPT {
                            (&opt, 64, OPT_CHAIN)
                        } else {
                            (&inmem, 256, INMEM_CHAIN)
                        };
                        let (a, b) = (rng.small_ints(d * d), rng.small_ints(d * d));
                        let want = ref_mat_update(&a, &b, chain);
                        (
                            execute_body(artifact, "mat_update", vec![], vec![a, b], 2),
                            want,
                        )
                    }
                    _ => unreachable!("CLASSES has five entries"),
                };
                Job {
                    row: class,
                    compile: Vec::new(),
                    request: line(id, body),
                    want,
                }
            })
            .collect();

        // One untimed window warms every cache and verifies every output.
        let warm_up = serve_window(&mut clients, &jobs, |_, _| true, None, None);
        ServeWarm {
            service,
            clients,
            verified: (jobs.len() as u64, warm_up.failed),
            jobs,
            kept: Kept::default(),
        }
    }

    fn verified(&self) -> (u64, u64) {
        self.verified
    }

    fn rows(&self) -> Vec<String> {
        CLASSES.iter().map(|(name, _)| name.to_string()).collect()
    }

    fn window(&mut self, _w: usize) -> Window {
        serve_window(&mut self.clients, &self.jobs, warm_accept, None, None)
    }

    fn traced_window(&mut self, _w: usize, spans: &mut Spans) -> Window {
        serve_window(
            &mut self.clients,
            &self.jobs,
            warm_accept,
            Some(&mut self.kept),
            Some(spans),
        )
    }

    fn layers(mut self, _traced: &[(Window, Spans)], out: &mut Metrics) {
        server_layers(&self.service, &self.kept, out);
        for (class, (name, _)) in CLASSES.iter().enumerate() {
            out.insert(
                format!("serve.{name}_p50_us"),
                p50(self
                    .kept
                    .served
                    .iter()
                    .filter(|s| s.row == class)
                    .map(|s| s.client_us)),
            );
        }

        // The same tiny requests through `Server::call`: no socket, no reactor.
        let tiny: Vec<Request> = self
            .jobs
            .iter()
            .filter(|j| j.row == TINY)
            .filter_map(|j| {
                serde_json::from_str(std::str::from_utf8(&j.request).ok()?.trim_end()).ok()
            })
            .collect();
        out.insert(
            "serve.call_p50_us".into(),
            p50(tiny.into_iter().map(|r| {
                let t0 = Instant::now();
                std::hint::black_box(self.service.server.call(r));
                t0.elapsed().as_secs_f64() * 1e6
            })),
        );

        let ping = line(0, RequestBody::Ping);
        let client = &mut self.clients[0];
        out.insert(
            "shard.ping_p50_us".into(),
            p50((0..300).map(|_| {
                let t0 = Instant::now();
                let _ = client.round_trip(&ping);
                t0.elapsed().as_secs_f64() * 1e6
            })),
        );
        // The client the serve crate ships: two writes per line, no TCP_NODELAY.
        let mut shipped = Client::connect(self.service.addr, "bench").expect("server accepts");
        out.insert(
            "serve.client_ping_p50_us".into(),
            p50((0..15).map(|_| {
                let t0 = Instant::now();
                let _ = shipped.ping();
                t0.elapsed().as_secs_f64() * 1e6
            })),
        );
        drop(shipped);

        // Wire codec cost on the very lines sent: a tiny one and an in-memory one.
        for (name, class) in [("tiny", TINY), ("inmem", INMEM)] {
            let job = self
                .jobs
                .iter()
                .find(|j| j.row == class)
                .expect("every class has jobs");
            let text = std::str::from_utf8(&job.request)
                .expect("lines are UTF-8")
                .trim_end();
            let reply = self.clients[0].round_trip(&job.request).unwrap_or_default();
            let response = parse_response(&reply);
            let timed = |f: &dyn Fn() -> bool| {
                p50((0..9).map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(f());
                    t0.elapsed().as_secs_f64() * 1e6
                }))
            };
            out.insert(
                format!("wire.parse_us.{name}"),
                timed(&|| serde_json::from_str::<Request>(text).is_ok()),
            );
            out.insert(
                format!("wire.encode_us.{name}"),
                timed(&|| serde_json::to_string(&response).is_ok()),
            );
        }

        self.clients.clear();
        out.insert(
            "shard.reactor_lines".into(),
            self.service.stop().lines as f64,
        );
    }

    fn teardown(mut self) {
        self.clients.clear();
        self.service.stop();
    }
}

// ---------------------------------------------------------------------------
// serve_churn
// ---------------------------------------------------------------------------

const CHURN_ROWS: [&str; 3] = ["stencil", "vec_add", "mat_update"];
/// Slots per window and family; with `CHURN_DISTINCT_WINDOWS` they tile the
/// size ranges so no kernel repeats within that many consecutive windows.
const STENCIL_SLOTS: usize = 128;
/// Half as many as the stencils, so the median pair is a stencil and not
/// whichever family a coin flip puts at the boundary.
const VEC_ADD_SLOTS: usize = 64;
const MATRIX_SLOTS: usize = 14;
const CHURN_DISTINCT_WINDOWS: usize = 16;

pub struct ServeChurn {
    service: Service,
    clients: Vec<WireClient>,
    seed: u64,
    /// Per-slot phase in its size bucket, from the seed.
    phase: Vec<usize>,
    verified: (u64, u64),
    kept: Kept,
}

impl ServeChurn {
    /// The jobs of window `w`: every one a never-seen kernel, from the same
    /// size buckets as every other window.
    fn jobs(&self, w: usize) -> Vec<Job> {
        let w = w % CHURN_DISTINCT_WINDOWS;
        let mut rng = Rng::new(self.seed ^ (w as u64).wrapping_mul(0x9e37_79b9));
        let mut jobs = Vec::with_capacity(STENCIL_SLOTS + VEC_ADD_SLOTS + MATRIX_SLOTS);
        let mut id = 0;
        let mut pair = |row: usize,
                        kernel: infs_frontend::Kernel,
                        region: &str,
                        inputs: Vec<Vec<f32>>,
                        output: u32,
                        want: Vec<f32>| {
            id += 2;
            Job {
                row,
                compile: line(id - 1, compile_body(kernel, true)),
                request: line(
                    id,
                    execute_body(ARTIFACT_SLOT, region, vec![], inputs, output),
                ),
                want,
            }
        };
        // n in 256..2304: slot j owns a bucket of sizes and takes a different
        // one in every window.
        let size = |j: usize, slots: usize| {
            let width = 2048 / slots;
            256 + j * width + (w + self.phase[j]) % width
        };
        for j in 0..STENCIL_SLOTS {
            let a = rng.small_ints(size(j, STENCIL_SLOTS));
            let want = ref_stencil(&a);
            jobs.push(pair(
                0,
                demo::stencil(a.len() as u64),
                "stencil",
                vec![a],
                1,
                want,
            ));
        }
        for j in 0..VEC_ADD_SLOTS {
            let n = size(j, VEC_ADD_SLOTS);
            let (a, b) = (rng.small_ints(n), rng.small_ints(n));
            let want = ref_vec_add(&a, &b);
            jobs.push(pair(
                1,
                demo::vec_add(n as u64),
                "vec_add",
                vec![a, b],
                2,
                want,
            ));
        }
        for j in 0..MATRIX_SLOTS {
            // d in 24..66 and chain in 4..=10.
            let chain = 4 + (j % 7) as u32;
            let d = 24 + (j / 7) * 21 + (w + self.phase[j]) % 21;
            let (a, b) = (rng.small_ints(d * d), rng.small_ints(d * d));
            let want = ref_mat_update(&a, &b, chain);
            jobs.push(pair(
                2,
                demo::mat_update(d as u64, chain),
                "mat_update",
                vec![a, b],
                2,
                want,
            ));
        }
        Rng::order().shuffle(&mut jobs);
        jobs
    }
}

fn churn_accept(_: &Job, response: &Response) -> bool {
    // A hit would mean the workload is not doing its job.
    !response.stats.batched
}

impl Workload for ServeChurn {
    const NAME: &'static str = "serve_churn";
    const PER_OP_BEST: bool = false;

    fn setup(seed: u64) -> Self {
        let service = Service::boot();
        let clients = (0..CONNECTIONS)
            .map(|_| WireClient::connect(service.addr))
            .collect();
        let mut rng = Rng::new(seed);
        let mut this = ServeChurn {
            service,
            clients,
            seed,
            phase: (0..STENCIL_SLOTS)
                .map(|_| rng.below(1 << 16) as usize)
                .collect(),
            verified: (0, 0),
            kept: Kept::default(),
        };
        // Window 0 is the untimed warm-up (thread pools, allocator, JIT
        // templates); timed windows start at 1.
        let jobs = this.jobs(0);
        let warm_up = serve_window(&mut this.clients, &jobs, churn_accept, None, None);
        this.verified = (jobs.len() as u64, warm_up.failed);
        this
    }

    fn verified(&self) -> (u64, u64) {
        self.verified
    }

    fn rows(&self) -> Vec<String> {
        CHURN_ROWS.iter().map(|r| r.to_string()).collect()
    }

    fn window(&mut self, w: usize) -> Window {
        let jobs = self.jobs(w + 1);
        serve_window(&mut self.clients, &jobs, churn_accept, None, None)
    }

    fn traced_window(&mut self, w: usize, spans: &mut Spans) -> Window {
        let jobs = self.jobs(w + 1);
        serve_window(
            &mut self.clients,
            &jobs,
            churn_accept,
            Some(&mut self.kept),
            Some(spans),
        )
    }

    fn layers(mut self, _traced: &[(Window, Spans)], out: &mut Metrics) {
        server_layers(&self.service, &self.kept, out);
        self.clients.clear();
        out.insert(
            "shard.reactor_lines".into(),
            self.service.stop().lines as f64,
        );
    }

    fn teardown(mut self) {
        self.clients.clear();
        self.service.stop();
    }
}
