//! Figure/table regeneration harness for the Infinity Stream reproduction.
//!
//! One runner per table and figure of the paper's evaluation (§8). Each runner
//! executes the relevant workloads on the simulated machine, derives the same
//! rows/series the paper plots, prints them as Markdown, and writes them under
//! `results/`. Absolute cycle counts are not expected to match gem5; the
//! qualitative shape — who wins, by roughly what factor, where crossovers
//! fall — is the reproduction target (see EXPERIMENTS.md).
//!
//! Runners share one *run matrix* ([`Ctx::matrix`]): every (workload,
//! configuration) pair is simulated once per process and Fig 11/12/13/14/15/18
//! and the JIT/tiling analyses are views of it. Every file a runner produces
//! goes through [`Ctx::emit`]; the simulator is deterministic, so
//! [`verify::verify`] holds the committed `results/` to a fresh run byte for
//! byte.
//!
//! `DESIGN.md` §5 (experiment index) maps each runner to its table or
//! figure; the `chaos` runner measures the `DESIGN.md` §10 degradation
//! ladder (`results/chaos.md`).

#![forbid(unsafe_code)]

pub mod figures;
pub mod matrix;
pub mod records;
pub mod table;
pub mod verify;

pub use matrix::{ConfigName, MatrixEntry, MatrixError, MatrixFailure, RunMatrix};
pub use table::Table;

use infs_sim::SystemConfig;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Shared context for figure runners.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Machine parameters (Table 2 defaults).
    pub cfg: SystemConfig,
    /// Use reduced input sizes (CI/tests); full paper sizes otherwise.
    pub quick: bool,
    /// Output directory for results (default `results/`).
    pub out_dir: PathBuf,
    /// Echo what is emitted to stdout (off while [`verify::verify`]
    /// regenerates, whose output is its findings).
    echo: bool,
    matrix: OnceLock<RunMatrix>,
}

// Compile-time audit: one Ctx is shared by reference across all sweep workers.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Ctx>();
};

impl Ctx {
    /// Default context at paper scale.
    pub fn new(quick: bool) -> Self {
        Ctx {
            cfg: SystemConfig::default(),
            quick,
            out_dir: PathBuf::from("results"),
            echo: true,
            matrix: OnceLock::new(),
        }
    }

    /// Workload scale for this context.
    pub fn scale(&self) -> infs_workloads::Scale {
        if self.quick {
            infs_workloads::Scale::Test
        } else {
            infs_workloads::Scale::Paper
        }
    }

    /// The scale as the records and the matrix tag it.
    pub fn scale_tag(&self) -> &'static str {
        if self.quick {
            "test"
        } else {
            "paper"
        }
    }

    /// The full run matrix, simulated on first use.
    ///
    /// # Panics
    ///
    /// Panics if a pair fails to simulate: no figure can be drawn from a
    /// partial matrix.
    pub fn matrix(&self) -> &RunMatrix {
        self.matrix.get_or_init(|| {
            RunMatrix::run(self).unwrap_or_else(|e| panic!("run matrix failed: {e}"))
        })
    }

    /// Writes one artefact under the output directory — the only place this
    /// crate writes a file.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written: a runner whose output did not
    /// land must fail the process, not report success.
    pub fn emit(&self, file: &str, text: &str) {
        let path = self.out_dir.join(file);
        std::fs::create_dir_all(&self.out_dir)
            .and_then(|()| std::fs::write(&path, text))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }

    /// Emits a rendered table as `<name>.md` and echoes it.
    pub fn table(&self, name: &str, t: &Table) {
        let text = t.to_markdown();
        self.emit(&format!("{name}.md"), &text);
        if self.echo {
            println!("## {name}\n\n{text}");
        }
    }

    /// Emits one of the [`records`] as `BENCH_<name>.json`.
    pub fn record<R: serde::Serialize>(&self, name: &str, record: &R) {
        let file = format!("BENCH_{name}.json");
        let text = serde_json::to_string_pretty(record).expect("records serialize");
        self.emit(&file, &format!("{text}\n"));
        if self.echo {
            println!("wrote {}", self.out_dir.join(file).display());
        }
    }
}
