//! `figures verify`: hold a committed results directory to a fresh run.
//!
//! The simulator is deterministic, so every artefact but the host-timed serve
//! soak must regenerate byte for byte. One comparison replaces a schema
//! check, a regression bound and a cross-file consistency check per record:
//! a file that no longer matches what the code prints is stale, whatever the
//! reason.

use crate::records::BenchServe;
use crate::Ctx;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// One runnable target of the `figures` CLI: its name on the command line
/// and the runner, which writes its artefacts through [`Ctx::emit`].
pub type Target = (&'static str, fn(&Ctx));

/// How a committed file disagrees with the fresh run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Committed, but not what the code produces now.
    Stale,
    /// Produced by the run, not committed.
    Missing,
    /// Committed, produced by no target.
    Orphan,
}

/// One disagreement between the committed directory and the fresh run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// What is wrong with the file.
    pub kind: Kind,
    /// File name inside the results directory.
    pub file: String,
    /// For a stale file: where it first differs.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            Kind::Stale => "STALE",
            Kind::Missing => "MISSING",
            Kind::Orphan => "ORPHAN",
        };
        write!(f, "{kind:<7} {}", self.file)?;
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        Ok(())
    }
}

/// The serve soak's files: host wall-clock, so bounded rather than compared.
const SERVE_RECORD: &str = "BENCH_serve.json";
const SERVE_TABLE: &str = "serve.md";

/// The collapse bound on the soak's tail: shared runners are noisy, so the
/// committed p99 is held only to an order of magnitude.
const P99_SLACK: u64 = 10;

/// Runs `targets` into a fresh temporary directory and compares every file
/// they produce with its namesake under `committed`. A committed file that
/// nothing produced is an orphan only when `whole` says the targets are all
/// there are — a partial run cannot tell an orphan from another target's
/// output.
///
/// # Errors
///
/// Returns the I/O error if either directory cannot be read.
pub fn verify(
    targets: &[Target],
    quick: bool,
    committed: &Path,
    whole: bool,
) -> std::io::Result<Vec<Finding>> {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let fresh = Ctx {
        out_dir: std::env::temp_dir().join(format!(
            "infs-verify-{}-{}",
            std::process::id(),
            RUNS.fetch_add(1, Ordering::Relaxed)
        )),
        echo: false,
        ..Ctx::new(quick)
    };
    let _ = std::fs::remove_dir_all(&fresh.out_dir);
    for (_, run) in targets {
        run(&fresh);
    }
    let produced = read_files(&fresh.out_dir);
    let _ = std::fs::remove_dir_all(&fresh.out_dir);
    Ok(compare(&produced?, &read_files(committed)?, whole))
}

fn read_files(dir: &Path) -> std::io::Result<BTreeMap<String, Vec<u8>>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            let name = entry.file_name().to_string_lossy().into_owned();
            files.insert(name, std::fs::read(entry.path())?);
        }
    }
    Ok(files)
}

fn compare(
    produced: &BTreeMap<String, Vec<u8>>,
    committed: &BTreeMap<String, Vec<u8>>,
    whole: bool,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut report = |kind, file: &String, detail| {
        findings.push(Finding {
            kind,
            file: file.clone(),
            detail,
        })
    };
    for (file, new) in produced {
        let stale = match committed.get(file) {
            None => {
                report(Kind::Missing, file, String::new());
                continue;
            }
            // The table prints the record's numbers; the record is checked.
            Some(_) if file == SERVE_TABLE => None,
            Some(old) if file == SERVE_RECORD => serve_drift(old, new),
            Some(old) if old != new => Some(first_difference(old, new)),
            Some(_) => None,
        };
        if let Some(detail) = stale {
            report(Kind::Stale, file, detail);
        }
    }
    if whole {
        for file in committed.keys().filter(|f| !produced.contains_key(*f)) {
            report(Kind::Orphan, file, String::new());
        }
    }
    findings
}

/// Holds a fresh soak to the committed record: same offered load, and a tail
/// within [`P99_SLACK`]× of the committed one.
fn serve_drift(committed: &[u8], fresh: &[u8]) -> Option<String> {
    let parse = |bytes: &[u8]| {
        serde_json::from_str::<BenchServe>(&String::from_utf8_lossy(bytes))
            .map_err(|e| format!("not a serve record: {e}"))
    };
    let (old, new) = match (parse(committed), parse(fresh)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => return Some(e),
    };
    if old.load != new.load || old.workers_total != new.workers_total {
        return Some("the committed record was taken under a different load".into());
    }
    let bound = P99_SLACK * old.sharded.p99_us;
    (new.sharded.p99_us > bound).then(|| {
        format!(
            "p99 {} us is past {P99_SLACK}x the committed {} us",
            new.sharded.p99_us, old.sharded.p99_us
        )
    })
}

/// The first line at which two files differ, with a window of both versions
/// around the first differing character (`matrix.json` is a single line).
fn first_difference(committed: &[u8], fresh: &[u8]) -> String {
    let (old, new) = (
        String::from_utf8_lossy(committed),
        String::from_utf8_lossy(fresh),
    );
    let (mut old, mut new) = (old.split('\n'), new.split('\n'));
    let mut line = 1;
    loop {
        let (a, b) = (old.next(), new.next());
        if a == b && a.is_some() {
            line += 1;
            continue;
        }
        let (a, b) = (a.unwrap_or("<end of file>"), b.unwrap_or("<end of file>"));
        let at = a.chars().zip(b.chars()).take_while(|(x, y)| x == y).count();
        let window =
            |s: &str| -> String { s.chars().skip(at.saturating_sub(40)).take(120).collect() };
        return format!(
            "line {line}, column {}\n    committed:   {}\n    regenerated: {}",
            at + 1,
            window(a),
            window(b)
        );
    }
}
