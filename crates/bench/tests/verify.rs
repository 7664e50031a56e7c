//! The evidence path end to end: `verify` reports exactly the files that no
//! longer match a fresh run, the BENCH records round-trip through their types,
//! and the tile sweep, its `(heuristic)` row and the matrix agree on a cell.

use infs_bench::records::{BenchJit, BenchPipeline, BenchServe, BenchTune};
use infs_bench::verify::{verify, Kind, Target};
use infs_bench::{figures, ConfigName, Ctx};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// A cheap slice of the targets that still covers a matrix view, a sweep, a
/// second file from one runner (`tiling.md`) and a BENCH record.
const TARGETS: [Target; 4] = [
    ("fig11", figures::fig11),
    ("fig16", figures::fig16),
    ("jit", figures::jit),
    ("pipeline", figures::pipeline),
];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("infs-verify-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// [`TARGETS`] run once at quick scale, shared by the tests that read them:
/// the context (for its matrix) and every file the runners wrote.
fn generated() -> &'static (Ctx, BTreeMap<String, String>) {
    static GENERATED: OnceLock<(Ctx, BTreeMap<String, String>)> = OnceLock::new();
    GENERATED.get_or_init(|| {
        let mut ctx = Ctx::new(true);
        ctx.out_dir = scratch("generated");
        for (_, run) in TARGETS {
            run(&ctx);
        }
        let files = std::fs::read_dir(&ctx.out_dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(&path).unwrap())
            })
            .collect();
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
        (ctx, files)
    })
}

#[test]
fn verify_reports_exactly_the_files_that_changed() {
    let committed = scratch("committed");
    for (name, text) in &generated().1 {
        std::fs::write(committed.join(name), text).unwrap();
    }
    assert_eq!(verify(&TARGETS, true, &committed, true).unwrap(), vec![]);

    let fig11 = committed.join("fig11.md");
    let mut bytes = std::fs::read(&fig11).unwrap();
    let last_digit = bytes.iter().rposition(u8::is_ascii_digit).unwrap();
    bytes[last_digit] ^= 1;
    std::fs::write(&fig11, bytes).unwrap();
    std::fs::remove_file(committed.join("jit.md")).unwrap();
    std::fs::write(committed.join("stray.md"), "nobody writes this\n").unwrap();

    let findings = verify(&TARGETS, true, &committed, true).unwrap();
    let found: Vec<(Kind, &str)> = findings.iter().map(|f| (f.kind, f.file.as_str())).collect();
    assert_eq!(
        found,
        [
            (Kind::Stale, "fig11.md"),
            (Kind::Missing, "jit.md"),
            (Kind::Orphan, "stray.md"),
        ]
    );
    let stale = findings[0].to_string();
    assert!(stale.starts_with("STALE   fig11.md: line "), "{stale}");
    assert!(
        stale.contains("committed:") && stale.contains("regenerated:"),
        "no first differing line: {stale}"
    );

    // A partial run cannot tell an orphan from another target's file.
    assert_eq!(
        verify(&TARGETS[3..], true, &committed, false).unwrap(),
        vec![]
    );
    let _ = std::fs::remove_dir_all(&committed);
}

fn figures_in(cwd: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(cwd)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// The CLI's contract: 0 when `results/` matches, 1 naming the file when a
/// byte differs, 2 for a request that cannot be run.
#[test]
fn cli_exit_status_follows_the_findings() {
    let cwd = scratch("cli");
    assert_eq!(figures_in(&cwd, &["eq1"]).0, Some(0));
    assert_eq!(figures_in(&cwd, &["verify", "eq1"]).0, Some(0));
    let eq1 = cwd.join("results/eq1.md");
    let text = std::fs::read_to_string(&eq1).unwrap();
    std::fs::write(&eq1, text.replace("131072", "131073")).unwrap();
    let (code, stdout) = figures_in(&cwd, &["verify", "eq1"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("STALE   eq1.md"), "{stdout}");
    assert!(stdout.contains("131073"), "{stdout}");
    assert_eq!(figures_in(&cwd, &["verify", "--quick"]).0, Some(2));
    assert_eq!(figures_in(&cwd, &["verify", "fig99"]).0, Some(2));
    let _ = std::fs::remove_dir_all(&cwd);
}

/// `text` parses as `R` and re-serialises to itself; with any one top-level
/// field removed it no longer parses.
fn round_trips<R: Serialize + Deserialize + PartialEq + std::fmt::Debug>(text: &str) {
    let record: R = serde_json::from_str(text).unwrap();
    let written = serde_json::to_string_pretty(&record).unwrap() + "\n";
    assert_eq!(written, text, "the record is not what its type writes");
    assert_eq!(serde_json::from_str::<R>(&written).unwrap(), record);

    let serde::Value::Object(fields) = serde_json::parse(text).unwrap() else {
        panic!("a record is an object");
    };
    for (dropped, _) in &fields {
        let mut rest = fields.clone();
        rest.retain(|(k, _)| k != dropped);
        let doc = serde_json::to_string(&serde::Value::Object(rest)).unwrap();
        let err = serde_json::from_str::<R>(&doc).unwrap_err().to_string();
        assert!(err.contains(dropped.as_str()), "without '{dropped}': {err}");
    }
}

/// The four committed records are exactly what their types write — for the
/// serve record, re-encoded by hand from a host-timed run, nothing else
/// checks that.
#[test]
fn committed_records_round_trip_and_reject_a_missing_field() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let read = |name: &str| std::fs::read_to_string(results.join(name)).unwrap();
    round_trips::<BenchJit>(&read("BENCH_jit.json"));
    round_trips::<BenchPipeline>(&read("BENCH_pipeline.json"));
    round_trips::<BenchServe>(&read("BENCH_serve.json"));
    round_trips::<BenchTune>(&read("BENCH_tune.json"));
}

/// One row of a rendered table, by its first two cells.
fn cell(table: &str, bench: &str, tile: &str, column: usize) -> String {
    let prefix = format!("| {bench} | {tile} |");
    let row = table
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no row '{prefix}' in:\n{table}"));
    row.split('|').nth(column).unwrap().trim().to_string()
}

/// A sweep point, the `(heuristic)` row and the matrix cell are the same kind
/// of run (inputs warm in L3), so forcing the tile the heuristic picks gives
/// the matrix's number. At quick scale stencil2d is small enough to stay
/// near-memory, where no tile matters; a sweep on a cold machine still
/// differs from the matrix by the DRAM fill.
#[test]
fn sweep_heuristic_row_and_matrix_cell_agree() {
    let (ctx, files) = generated();
    let cycles = ctx
        .matrix()
        .cycles("stencil2d", ConfigName::InfS)
        .to_string();
    let fig16 = &files["fig16.md"];
    assert_eq!(cell(fig16, "stencil2d", "(heuristic)", 3), cycles);
    assert_eq!(cell(fig16, "stencil2d", "16x16", 3), cycles);
}
