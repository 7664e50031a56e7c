//! The parallel run matrix must be an invisible optimization: the same bytes
//! as the sequential sweep.

use infs_bench::matrix::{ConfigName, RunMatrix};
use infs_bench::Ctx;

/// Small but non-trivial slice of the 13×6 paper sweep (4 pairs, quick scale).
const NAMES: [&str; 2] = ["stencil1d", "mm/in"];
const CONFIGS: [ConfigName; 2] = [ConfigName::Base1, ConfigName::InfS];

#[test]
fn parallel_and_sequential_matrices_are_byte_identical() {
    let ctx = Ctx::new(true);
    let m_seq = RunMatrix::run_subset(&ctx, &NAMES, &CONFIGS, false).unwrap();
    let m_par = RunMatrix::run_subset(&ctx, &NAMES, &CONFIGS, true).unwrap();
    assert_eq!(m_seq.entries.len(), NAMES.len() * CONFIGS.len());
    assert_eq!(
        serde_json::to_string(&m_seq).unwrap(),
        serde_json::to_string(&m_par).unwrap(),
        "parallel sweep must serialize to the exact bytes of the sequential sweep"
    );
}
