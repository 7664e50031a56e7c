//! Golden test for `infs-served --help`: the flag surface is documented in
//! three places — the `HELP` const, the README flag table, and the crate
//! rustdoc — and this test pins the binary's actual output byte-for-byte so
//! a flag added or reworded in one place without the others fails loudly.

use std::process::Command;

/// The expected `--help` bytes, verbatim. When a flag changes, update this
/// golden AND the README "infs-served flags" table AND the rustdoc header of
/// `src/bin/infs_served.rs` in the same commit.
const GOLDEN: &str = "\
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

fn help_output(flag: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_infs-served"))
        .arg(flag)
        .output()
        .expect("infs-served binary runs")
}

#[test]
fn help_matches_golden_bytes_exactly() {
    for flag in ["--help", "-h"] {
        let out = help_output(flag);
        assert!(out.status.success(), "{flag} must exit 0: {:?}", out.status);
        assert!(out.stderr.is_empty(), "{flag} must not write to stderr");
        let stdout = String::from_utf8(out.stdout).expect("help is valid UTF-8");
        assert_eq!(
            stdout, GOLDEN,
            "{flag} output drifted from the golden copy — update the HELP \
             const, README flag table, rustdoc header, and this golden together"
        );
    }
}

#[test]
fn unknown_flag_fails_with_a_pointer_to_help() {
    let out = help_output("--definitely-not-a-flag");
    assert!(!out.status.success(), "unknown flags must not exit 0");
    let stderr = String::from_utf8(out.stderr).expect("error is valid UTF-8");
    assert!(
        stderr.contains("unknown flag") && stderr.contains("--help"),
        "error must name the flag and point at --help: {stderr:?}"
    );
}
