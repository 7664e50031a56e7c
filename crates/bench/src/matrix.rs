//! The run matrix: every (workload variant, configuration) simulated once
//! per process and shared by all figure runners ([`Ctx::matrix`]).

use crate::Ctx;
use infs_sim::{ExecMode, RunPlan, RunStats};
use infs_workloads::{by_name, run_timed, Scale};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Every workload variant in the evaluation (Table 3 naming).
pub const WORKLOADS: [&str; 13] = [
    "stencil1d",
    "stencil2d",
    "stencil3d",
    "dwt2d",
    "gauss_elim",
    "conv2d",
    "conv3d",
    "mm/in",
    "mm/out",
    "kmeans/in",
    "kmeans/out",
    "gather_mlp/in",
    "gather_mlp/out",
];

/// Every simulated configuration (Fig 11 set plus the Fig 2 Base-1 point).
pub const ALL_CONFIGS: [ConfigName; 6] = [
    ConfigName::Base1,
    ConfigName::Base,
    ConfigName::NearL3,
    ConfigName::InL3,
    ConfigName::InfS,
    ConfigName::InfSNoJit,
];

/// A sweep failure tagged with the (workload, configuration) pair that
/// produced it, so a 78-pair sweep reports *which* cell went wrong.
#[derive(Debug)]
pub struct MatrixError {
    pub bench: String,
    pub config: ConfigName,
    pub source: MatrixFailure,
}

/// What went wrong for one (workload, configuration) cell. A resident process
/// embedding the bench API (the `infs-serve` server, a notebook) must get an
/// error value for a bad workload name, not a `panic!` that kills it.
#[derive(Debug)]
pub enum MatrixFailure {
    /// The workload name matches nothing in [`WORKLOADS`] / `by_name`.
    UnknownWorkload,
    /// The simulation itself failed.
    Sim(infs_sim::SimError),
}

impl fmt::Display for MatrixFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixFailure::UnknownWorkload => write!(f, "unknown workload name"),
            MatrixFailure::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulating {} / {}: {}",
            self.bench,
            self.config.label(),
            self.source
        )
    }
}

impl std::error::Error for MatrixError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.source {
            MatrixFailure::UnknownWorkload => None,
            MatrixFailure::Sim(e) => Some(e),
        }
    }
}

/// The five evaluated configurations (plus single-thread Base for Fig 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ConfigName {
    /// 1-thread baseline.
    Base1,
    /// 64-thread AVX-512 baseline.
    Base,
    /// Near-stream computing.
    NearL3,
    /// In-memory only.
    InL3,
    /// Infinity stream (fused).
    InfS,
    /// Infinity stream with precompiled commands.
    InfSNoJit,
}

impl ConfigName {
    /// All Fig 11 configurations.
    pub const FIG11: [ConfigName; 5] = [
        ConfigName::Base,
        ConfigName::NearL3,
        ConfigName::InL3,
        ConfigName::InfS,
        ConfigName::InfSNoJit,
    ];

    /// The simulator mode for this configuration.
    pub fn mode(self) -> ExecMode {
        match self {
            ConfigName::Base1 => ExecMode::Base { threads: 1 },
            ConfigName::Base => ExecMode::Base { threads: 64 },
            ConfigName::NearL3 => ExecMode::NearL3,
            ConfigName::InL3 => ExecMode::InL3,
            ConfigName::InfS => ExecMode::InfS,
            ConfigName::InfSNoJit => ExecMode::InfSNoJit,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ConfigName::Base1 => "Base-1",
            ConfigName::Base => "Base",
            ConfigName::NearL3 => "Near-L3",
            ConfigName::InL3 => "In-L3",
            ConfigName::InfS => "Inf-S",
            ConfigName::InfSNoJit => "Inf-S-noJIT",
        }
    }
}

/// One simulated (workload, configuration) outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixEntry {
    /// Workload name (Table 3 naming).
    pub bench: String,
    /// Configuration.
    pub config: ConfigName,
    /// Full statistics.
    pub stats: RunStats,
}

/// The run matrix.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunMatrix {
    /// Scale the matrix was produced at (`"paper"` / `"test"`).
    pub scale: String,
    /// Entries keyed `"<bench>|<config label>"`.
    pub entries: BTreeMap<String, MatrixEntry>,
}

impl RunMatrix {
    fn key(bench: &str, config: ConfigName) -> String {
        format!("{bench}|{}", config.label())
    }

    /// Looks up one entry.
    pub fn get(&self, bench: &str, config: ConfigName) -> Option<&MatrixEntry> {
        self.entries.get(&Self::key(bench, config))
    }

    /// Cycles of one entry (`u64::MAX` when missing, so min-comparisons work).
    pub fn cycles(&self, bench: &str, config: ConfigName) -> u64 {
        self.get(bench, config).map_or(u64::MAX, |e| e.stats.cycles)
    }

    /// The best (min-cycle) variant of a workload family for a configuration —
    /// the paper "picks the best implementation for each configuration".
    pub fn best_variant(&self, family: &str, config: ConfigName) -> (String, u64) {
        let inner = format!("{family}/in");
        let outer = format!("{family}/out");
        let (ci, co) = (self.cycles(&inner, config), self.cycles(&outer, config));
        if ci <= co {
            (inner, ci)
        } else {
            (outer, co)
        }
    }

    /// Simulates the full matrix, fanning the (workload, configuration)
    /// pairs out across worker threads.
    ///
    /// # Errors
    ///
    /// Returns the first failed pair.
    pub fn run(ctx: &Ctx) -> Result<RunMatrix, MatrixError> {
        Self::run_subset(ctx, &WORKLOADS, &ALL_CONFIGS, true)
    }

    /// Core sweep over `names` × `configs`, with an explicit
    /// sequential/parallel switch: the result does not depend on it (the
    /// determinism tests diff the two byte-for-byte).
    pub fn run_subset(
        ctx: &Ctx,
        names: &[&str],
        configs: &[ConfigName],
        parallel: bool,
    ) -> Result<RunMatrix, MatrixError> {
        let pairs: Vec<(&str, ConfigName)> = names
            .iter()
            .flat_map(|&name| configs.iter().map(move |&config| (name, config)))
            .collect();
        let workers = if parallel {
            rayon::current_num_threads()
        } else {
            1
        };
        eprintln!(
            "[matrix] {} pairs to simulate on {workers} worker(s)",
            pairs.len()
        );

        let sim_pair = |(name, config): (&str, ConfigName)| {
            let t0 = std::time::Instant::now();
            let stats = run_one(name, config, ctx, RunPlan::default())?;
            eprintln!(
                "[matrix] {name} / {}: {} cycles ({:.1}s host)",
                config.label(),
                stats.cycles,
                t0.elapsed().as_secs_f64()
            );
            Ok((
                Self::key(name, config),
                MatrixEntry {
                    bench: name.to_string(),
                    config,
                    stats,
                },
            ))
        };
        let results: Vec<Result<(String, MatrixEntry), MatrixError>> = if parallel {
            pairs.into_par_iter().map(&sim_pair).collect()
        } else {
            pairs.into_iter().map(sim_pair).collect()
        };
        Ok(RunMatrix {
            scale: ctx.scale_tag().to_string(),
            entries: results.into_iter().collect::<Result<_, _>>()?,
        })
    }
}

/// Simulates one (workload, configuration) pair under `plan` (the default
/// for a matrix cell, a forced tile for a point of the Fig 16/17 sweep).
/// Functional execution is on only at test scale — paper-scale runs are
/// timing-only, with correctness covered by the test-scale verification
/// suite.
///
/// # Errors
///
/// Returns [`MatrixFailure::UnknownWorkload`] (tagged with the requested
/// pair) for a name `by_name` does not know, and [`MatrixFailure::Sim`] for
/// simulation failures — never panics, so a long-lived process can feed it
/// untrusted names.
pub fn run_one(
    name: &str,
    config: ConfigName,
    ctx: &Ctx,
    plan: RunPlan,
) -> Result<RunStats, MatrixError> {
    let err = |source| MatrixError {
        bench: name.to_string(),
        config,
        source,
    };
    let b = by_name(name, ctx.scale()).ok_or_else(|| err(MatrixFailure::UnknownWorkload))?;
    let functional = ctx.scale() == Scale::Test;
    run_timed(b.as_ref(), config.mode(), &ctx.cfg, functional, plan)
        .map_err(|e| err(MatrixFailure::Sim(e)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_labels_and_modes() {
        assert_eq!(ConfigName::InfS.label(), "Inf-S");
        assert_eq!(ConfigName::Base.mode(), ExecMode::Base { threads: 64 });
        assert_eq!(ConfigName::FIG11.len(), 5);
    }

    #[test]
    fn best_variant_picks_min() {
        let mut m = RunMatrix::default();
        for (bench, cycles) in [("mm/in", 100u64), ("mm/out", 50)] {
            m.entries.insert(
                RunMatrix::key(bench, ConfigName::InfS),
                MatrixEntry {
                    bench: bench.into(),
                    config: ConfigName::InfS,
                    stats: RunStats {
                        cycles,
                        ..Default::default()
                    },
                },
            );
        }
        let (name, c) = m.best_variant("mm", ConfigName::InfS);
        assert_eq!((name.as_str(), c), ("mm/out", 50));
        assert_eq!(m.cycles("mm/in", ConfigName::Base), u64::MAX);
    }

    #[test]
    fn pair_lists_cover_the_paper_sweep() {
        assert_eq!(WORKLOADS.len() * ALL_CONFIGS.len(), 78);
        // Keys must be collision-free across the full cross product.
        let keys: std::collections::BTreeSet<String> = WORKLOADS
            .iter()
            .flat_map(|w| ALL_CONFIGS.iter().map(|c| RunMatrix::key(w, *c)))
            .collect();
        assert_eq!(keys.len(), 78);
    }

    #[test]
    fn matrix_error_names_the_pair() {
        let e = MatrixError {
            bench: "conv2d".into(),
            config: ConfigName::NearL3,
            source: MatrixFailure::Sim(infs_sim::SimError::Runtime(
                infs_runtime::RuntimeError::NotInMemory,
            )),
        };
        let msg = e.to_string();
        assert!(msg.contains("conv2d"), "{msg}");
        assert!(msg.contains("Near-L3"), "{msg}");
        assert!(std::error::Error::source(&e).is_some());
    }

    /// An unknown workload name is an error value, not a panic — a resident
    /// process embedding the bench API must survive a bad request.
    #[test]
    fn unknown_workload_is_an_error_not_a_panic() {
        let ctx = Ctx::new(true);
        let e = run_one(
            "no_such_workload",
            ConfigName::InfS,
            &ctx,
            RunPlan::default(),
        )
        .unwrap_err();
        assert!(matches!(e.source, MatrixFailure::UnknownWorkload));
        let msg = e.to_string();
        assert!(msg.contains("no_such_workload"), "{msg}");
        assert!(msg.contains("unknown workload"), "{msg}");
        assert!(std::error::Error::source(&e).is_none());
    }
}
