//! `infs-served` — the resident compile-and-execute daemon.
//!
//! ```text
//! infs-served [--addr HOST:PORT] [--workers N] [--queue N] [--trace PATH]
//!             [--chaos SEED] [--tune SEED] [--shards N] [--no-batching]
//! ```
//!
//! Speaks newline-delimited JSON (see `infs_serve::protocol`). Exits 0 after
//! a graceful shutdown (a `Shutdown` request from any client), having drained
//! every admitted request. With `--trace PATH`, tracing is enabled for the
//! daemon's lifetime and a Chrome trace (plus `PATH.metrics.json`) is written
//! at shutdown. With `--chaos SEED`, the deterministic fault plan
//! [`infs_faults::FaultConfig::chaos`] is injected: worker panics, artifact
//! corruption, dead banks, SRAM flips, and NoC faults — see the README
//! operations runbook. With `--tune SEED`, the online autotuner
//! ([`infs_serve::TuneConfig::seeded`], `DESIGN.md` §15) routes a
//! deterministic sampled fraction of Inf-S execute and fused-pipeline
//! traffic through explorer variants and promotes whichever beats the static
//! heuristics on observed cycles; the two seeds are independent, and the
//! flags compose (a chaos-and-tune soak is the retune drill).
//!
//! IO and topology (`DESIGN.md` §14):
//!
//! - one event-driven reactor thread multiplexes every connection
//!   ([`infs_serve::serve_reactor`]);
//! - `--shards N` (N ≥ 2): N full server shards behind the consistent-hash
//!   tenant router ([`infs_serve::ShardCluster`]); `--workers` counts **per
//!   shard**, and with `--chaos` each shard runs an independently derived
//!   fault plan (`dead_shards` whole shards may start dead). With `--tune`,
//!   each shard keeps its own tuner under an independently derived seed.

use infs_faults::FaultConfig;
use infs_serve::{serve_reactor, ServeConfig, Server, ShardCluster, ShutdownStats, TuneConfig};
use infs_shard::ReactorConfig;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

/// The `--help` text. One line per flag, kept in lockstep with the README
/// flag table and the crate docs above — `tests/help_golden.rs` pins the
/// exact bytes so drift between the three is a test failure, not a surprise.
const HELP: &str = "\
infs-served — resident Infinity Stream compile-and-execute daemon

usage: infs-served [FLAGS]

  --addr HOST:PORT  listen address (default 127.0.0.1:7199)
  --workers N       worker threads per shard (default: min(cores, 4))
  --queue N         admission queue bound; beyond it requests are rejected
                    with a typed backpressure error (default 64)
  --trace PATH      enable tracing; write a Chrome trace to PATH (plus
                    PATH.metrics.json) at shutdown
  --chaos SEED      arm the deterministic fault plan: worker panics,
                    artifact corruption, dead banks, SRAM flips, NoC faults
  --tune SEED       enable online feedback-directed autotuning: route a
                    deterministic sampled fraction of Inf-S traffic through
                    explorer variants (tiles, tiers, residency) and promote
                    variants that beat the static heuristics
  --shards N        run N full server shards behind the consistent-hash
                    tenant router (default 1; N >= 2 enables the router)
  --no-batching     disable coalescing of identical in-flight requests
  --help, -h        print this help and exit
";

struct Args {
    addr: String,
    trace: Option<String>,
    shards: u32,
    cfg: ServeConfig,
}

/// What `parse_args` asks `main` to do: serve, or print help and exit 0.
enum Parsed {
    Run(Box<Args>),
    Help,
}

fn parse_args() -> Result<Parsed, String> {
    let mut args = Args {
        addr: "127.0.0.1:7199".to_string(),
        trace: None,
        shards: 1,
        cfg: ServeConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--trace" => args.trace = Some(value("--trace")?),
            "--workers" => {
                args.cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                args.cfg.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--chaos" => {
                let seed: u64 = value("--chaos")?
                    .parse()
                    .map_err(|e| format!("--chaos: {e}"))?;
                args.cfg.faults = Some(FaultConfig::chaos(seed));
            }
            "--tune" => {
                let seed: u64 = value("--tune")?
                    .parse()
                    .map_err(|e| format!("--tune: {e}"))?;
                args.cfg.tune = Some(TuneConfig::seeded(seed));
            }
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--no-batching" => args.cfg.batching = false,
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(Parsed::Run(Box::new(args)))
}

fn report(stats: &ShutdownStats) {
    println!(
        "infs-served: shut down cleanly; served={} rejected={} artifact(h/m/e)={}/{}/{} jit(h/m)={}/{}",
        stats.served,
        stats.rejected,
        stats.artifacts.0,
        stats.artifacts.1,
        stats.artifacts.2,
        stats.jit.0,
        stats.jit.1,
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Parsed::Run(a)) => *a,
        Ok(Parsed::Help) => {
            print!("{HELP}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let listener = match TcpListener::bind(&args.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("infs-served: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| args.addr.clone());
    // Enable tracing before the worker pool spawns so worker threads can
    // register their names with the collector.
    if args.trace.is_some() {
        infs_trace::clear();
        infs_trace::enable();
    }
    let chaos_seed = args.cfg.faults.as_ref().map(|f| f.seed);
    let tune_seed = args.cfg.tune.as_ref().map(|t| t.seed);

    // The smoke scripts wait for this exact line before connecting.
    println!("infs-served listening on {addr}");
    if let Some(seed) = chaos_seed {
        println!("infs-served: CHAOS MODE (seed {seed}) — injecting deterministic faults");
    }
    if let Some(seed) = tune_seed {
        println!("infs-served: autotuning enabled (seed {seed})");
    }

    let stats = if args.shards > 1 {
        let cluster = Arc::new(ShardCluster::new(&args.cfg, args.shards));
        println!(
            "infs-served: {} shards × {} workers behind the tenant ring",
            cluster.shards(),
            args.cfg.workers
        );
        if let Err(e) = serve_reactor(&cluster, listener, &ReactorConfig::default()) {
            eprintln!("infs-served: reactor failed: {e}");
            return ExitCode::FAILURE;
        }
        cluster.shutdown()
    } else {
        let server = Arc::new(Server::new(args.cfg));
        if let Err(e) = serve_reactor(&server, listener, &ReactorConfig::default()) {
            eprintln!("infs-served: reactor failed: {e}");
            return ExitCode::FAILURE;
        }
        server.shutdown()
    };
    report(&stats);

    if let Some(path) = args.trace {
        infs_trace::disable();
        let metrics_path = format!("{path}.metrics.json");
        if let Err(e) = infs_trace::write_chrome(path.as_ref())
            .and_then(|()| infs_trace::write_metrics(metrics_path.as_ref()))
        {
            eprintln!("infs-served: cannot write trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("infs-served: trace written to {path} (+ {metrics_path})");
    }
    ExitCode::SUCCESS
}
