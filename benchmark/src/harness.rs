//! What every workload shares: the set-up / window / traced-window protocol
//! and the arithmetic that turns windows into the end-to-end metrics.
//!
//! Every host-clock number is a best-of-repeats. The box this was sized on
//! drifts between fast and slow phases that last 5 to 15 seconds and differ by
//! 15 to 40 %; a median over the windows of a 20-second run follows whichever
//! phases the run fell into, while the fastest repeat finds the fast phase in
//! nearly every run. Medians and maxima are printed beside the results.

use crate::spans::Spans;
use crate::stats::{geomean, max, median, min, quantile};
use std::collections::BTreeMap;
use std::time::Instant;

/// Metric name → value. Units live in `BENCHMARK.json`.
pub type Metrics = BTreeMap<String, f64>;

/// An untraced run sets up this many times, each followed by its share of the
/// timed windows, so the set-up samples are spread over the whole run and
/// `setup_s` (the fastest) does not depend on the phase the run started in.
const ROUNDS: usize = 4;
const MIN_WINDOWS_PER_ROUND: usize = 2;
/// A traced run sets up once and spends its first windows untraced, to have a
/// denominator for `trace.overhead_ratio` measured in the same process.
const UNTRACED_IN_TRACED_RUN: usize = 2;
const MIN_TRACED_WINDOWS: usize = 3;

/// `Op::row` of an operation that belongs to no named row.
pub const NO_ROW: usize = usize::MAX;

/// One timed operation of a window.
pub struct Op {
    /// Index into [`Workload::rows`], or [`NO_ROW`].
    pub row: usize,
    /// Host latency in microseconds.
    pub us: f64,
}

/// One window: the same operations every time it runs.
pub struct Window {
    /// Host seconds from first operation issued to last completed.
    pub wall_s: f64,
    /// Operations in a fixed order: index `i` is the same operation (or, for
    /// `serve_churn`, the same slot) in every window of a run.
    pub ops: Vec<Op>,
    /// Operations that failed, were refused, or returned a wrong output.
    pub failed: u64,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// `true` for the single-threaded in-process workloads, where operation
    /// `i` is the same deterministic computation in every window: the harness
    /// takes each operation's fastest run, and `wall_s` and a row's time are
    /// sums of those. The closed-loop serve workloads overlap operations, and
    /// a request's latency includes what the other connection was doing, so
    /// there each window is summarised whole (its wall time, its percentiles,
    /// each row's mean latency) and the best window is reported.
    const PER_OP_BEST: bool;

    /// Everything before the timed body: input generation from `seed`,
    /// compilation, verification against references, server boot, warm-up.
    fn setup(seed: u64) -> Self;
    /// (checked, failed) output verifications done during set-up.
    fn verified(&self) -> (u64, u64);
    /// Names of the rows `row_geomean_ms` averages over.
    fn rows(&self) -> Vec<String>;
    /// Window number `w` of the run; `w` counts across set-up rounds.
    fn window(&mut self, w: usize) -> Window;
    /// The window again with spans recorded around each layer call.
    fn traced_window(&mut self, w: usize, spans: &mut Spans) -> Window;
    /// Per-layer metrics from the traced windows and the crates' own report
    /// structs; ends the workload the way [`Workload::teardown`] does.
    fn layers(self, traced: &[(Window, Spans)], out: &mut Metrics);
    /// Stops whatever set-up started (servers, threads).
    fn teardown(self) {}
}

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Run exactly this many windows per set-up instead of filling `seconds`.
    pub windows: Option<usize>,
    pub trace: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Human-readable lines: sample counts and min/median/max across windows.
    pub notes: Vec<String>,
    /// Spans of the last traced window, as JSON.
    pub trace_json: Option<String>,
}

/// Fastest traced window's summed self time of one span name (ms).
pub fn self_ms(traced: &[(Window, Spans)], name: &str) -> f64 {
    let per_window: Vec<f64> = traced
        .iter()
        .map(|(_, s)| s.self_ms().get(name).copied().unwrap_or(0.0))
        .collect();
    min(&per_window)
}

/// Fastest run of operation `i` across the windows, in microseconds.
pub fn best_us(windows: &[&Window], i: usize) -> f64 {
    min(&windows.iter().map(|w| w.ops[i].us).collect::<Vec<_>>())
}

/// What one window (or the best-of-windows composite) says.
pub struct Summary {
    pub wall_s: f64,
    p50_us: f64,
    p90_us: f64,
    /// Host milliseconds per named row.
    row_ms: Vec<f64>,
}

fn summarize_window<W: Workload>(
    n_rows: usize,
    wall_s: f64,
    rows: &[usize],
    us: &[f64],
) -> Summary {
    let row_ms = (0..n_rows)
        .map(|r| {
            let of_row = rows.iter().zip(us).filter(|(&row, _)| row == r);
            let (n, total_us) = of_row.fold((0, 0.0), |(n, sum), (_, &us)| (n + 1, sum + us));
            // In-process a row is the sum of its operations. A request class
            // is its mean latency and not its median: a class whose service
            // time straddles a tick of the reactor's 1 ms poll is bimodal, and
            // its median flips between the modes from window to window.
            if W::PER_OP_BEST {
                total_us / 1e3
            } else {
                total_us / n as f64 / 1e3
            }
        })
        .collect();
    Summary {
        wall_s,
        p50_us: median(us),
        p90_us: quantile(us, 0.9),
        row_ms,
    }
}

/// The windows under the workload's best-of-repeats rule.
pub fn summarize<W: Workload>(n_rows: usize, windows: &[&Window]) -> Summary {
    let rows: Vec<usize> = windows[0].ops.iter().map(|o| o.row).collect();
    if W::PER_OP_BEST {
        let best: Vec<f64> = (0..rows.len()).map(|i| best_us(windows, i)).collect();
        return summarize_window::<W>(n_rows, best.iter().sum::<f64>() / 1e6, &rows, &best);
    }
    let each: Vec<Summary> = windows
        .iter()
        .map(|w| {
            let us: Vec<f64> = w.ops.iter().map(|o| o.us).collect();
            summarize_window::<W>(n_rows, w.wall_s, &rows, &us)
        })
        .collect();
    let best = |f: &dyn Fn(&Summary) -> f64| min(&each.iter().map(f).collect::<Vec<_>>());
    Summary {
        wall_s: best(&|s| s.wall_s),
        p50_us: best(&|s| s.p50_us),
        p90_us: best(&|s| s.p90_us),
        row_ms: (0..n_rows).map(|r| best(&|s| s.row_ms[r])).collect(),
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end<W: Workload>(
    rows: &[String],
    windows: &[&Window],
    notes: &mut Vec<String>,
) -> Metrics {
    let s = summarize::<W>(rows.len(), windows);
    let n_ops = windows[0].ops.len();
    let mut m = Metrics::new();
    m.insert("wall_s".into(), s.wall_s);
    m.insert("ops_per_s".into(), n_ops as f64 / s.wall_s);
    m.insert("op_p50_us".into(), s.p50_us);
    m.insert("op_p90_us".into(), s.p90_us);
    m.insert("row_geomean_ms".into(), geomean(&s.row_ms));

    let walls: Vec<f64> = windows.iter().map(|w| w.wall_s).collect();
    notes.push(format!(
        "windows {} x {} ops; window wall_s min {:.4} median {:.4} max {:.4}",
        windows.len(),
        n_ops,
        min(&walls),
        median(&walls),
        max(&walls)
    ));
    notes.push(if W::PER_OP_BEST {
        format!(
            "percentiles over {n_ops} operations ({} beyond p90), each the fastest of {} runs",
            n_ops / 10,
            windows.len()
        )
    } else {
        format!(
            "percentiles over {n_ops} operations per window ({} beyond p90), best of {} windows",
            n_ops / 10,
            windows.len()
        )
    });
    for (name, ms) in rows.iter().zip(&s.row_ms) {
        notes.push(format!("row {name:24} {ms:12.4} ms"));
    }
    m
}

pub fn run<W: Workload>(args: &RunArgs) -> Outcome {
    let rounds = if args.trace { 1 } else { ROUNDS };
    let (mut attempted, mut failed) = (0, 0);
    let mut setups = Vec::with_capacity(rounds);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut last: Option<W> = None;

    let mut body_s = 0.0;
    for round in 1..=rounds {
        if let Some(old) = last.take() {
            old.teardown();
        }
        let t0 = Instant::now();
        let mut state = W::setup(args.seed);
        setups.push(t0.elapsed().as_secs_f64());
        let (checked, wrong) = state.verified();
        attempted += checked;
        failed += wrong;

        // This round's windows run until its share of `seconds` is used up.
        let body = Instant::now();
        let share = args.seconds * round as f64 / rounds as f64 - body_s;
        let more = |done: usize, floor: usize| match args.windows {
            Some(n) => done < n.max(1),
            None => done < floor || body.elapsed().as_secs_f64() < share,
        };
        let w0 = untraced.len() + traced.len();
        if args.trace {
            for w in 0..UNTRACED_IN_TRACED_RUN {
                untraced.push(state.window(w));
            }
            while more(traced.len(), MIN_TRACED_WINDOWS) {
                let mut spans = Spans::new();
                let w = state.traced_window(untraced.len() + traced.len(), &mut spans);
                traced.push((w, spans));
            }
        } else {
            while more(untraced.len() - w0, MIN_WINDOWS_PER_ROUND) {
                untraced.push(state.window(untraced.len()));
            }
        }
        body_s += body.elapsed().as_secs_f64();
        last = Some(state);
    }
    let state = last.expect("a run has at least one round");
    let rows = state.rows();

    for w in untraced.iter().chain(traced.iter().map(|(w, _)| w)) {
        attempted += w.ops.len() as u64;
        failed += w.failed;
    }

    let mut notes = vec![format!(
        "seed {} nproc {} setup_s samples {:?}",
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        setups
    )];
    let refs: Vec<&Window> = untraced.iter().collect();
    let mut e2e = end_to_end::<W>(&rows, &refs, &mut notes);
    e2e.insert("setup_s".into(), min(&setups));

    let mut per_layer = Metrics::new();
    let mut trace_json = None;
    if args.trace {
        let traced_refs: Vec<&Window> = traced.iter().map(|(w, _)| w).collect();
        per_layer.insert(
            "trace.overhead_ratio".into(),
            summarize::<W>(rows.len(), &traced_refs).wall_s / e2e["wall_s"],
        );
        let last = &traced.last().expect("MIN_TRACED_WINDOWS is positive").1;
        notes.push(format!(
            "traced windows {} ({} spans in the last)",
            traced.len(),
            last.len()
        ));
        trace_json = Some(last.to_json());
        state.layers(&traced, &mut per_layer);
    } else {
        state.teardown();
    }
    e2e.insert("peak_rss_mb".into(), peak_rss_mb());

    Outcome {
        attempted,
        failed,
        end_to_end: e2e,
        per_layer,
        notes,
        trace_json,
    }
}
