//! The e-graph's bookkeeping (rebuild, dedup, the memo) may get faster but
//! must never change what it extracts. These goldens pin the optimized output
//! byte for byte: the fat binary's content hash for three paper-scale demo
//! kernels, whose last saturation passes grow to thousands of e-nodes, and one
//! FNV-1a fold over the optimized instances of the first 200 kernels of the
//! `0xC0FFEE` fuzz campaign (the seed CI's `fuzz_hunt` runs).

use infs_isa::{Compiler, FatBinary, Fnv1a};
use infs_serve::demo;

/// (kernel, `FatBinary::content_hash`), optimizer on; computed at commit
/// 9840e35, before the rebuild was made linear.
fn goldens() -> [(infs_frontend::Kernel, u64); 3] {
    [
        (demo::mat_stencil(256), 0x3cfa_441a_c763_c128),
        (demo::mat_update(256, 12), 0x7b93_605e_7a2d_a55c),
        (demo::mat_muladd(256, 8), 0x4356_e5fb_bfc7_f38b),
    ]
}

/// FNV-1a over the JSON of every optimized instance, in campaign order.
const CAMPAIGN_FOLD: u64 = 0xc5f1_be88_443d_7b6e;
const CAMPAIGN_SEED: u64 = 0xC0FFEE;
const CAMPAIGN_KERNELS: usize = 200;

#[test]
fn demo_binaries_match_the_goldens() {
    for (kernel, want) in goldens() {
        let name = kernel.name().to_string();
        let mut fb = FatBinary::new();
        fb.push(
            Compiler::default()
                .compile(kernel, &[])
                .expect("demo kernels compile"),
        );
        let hash = fb.content_hash().expect("hashable");
        assert_eq!(hash, want, "{name}: content hash moved ({hash:#018x})");
    }
}

#[test]
fn campaign_instances_match_the_golden_fold() {
    let mut fold = Fnv1a::new();
    for i in 0..CAMPAIGN_KERNELS {
        let spec = infs_check::generate(infs_check::campaign_seed(CAMPAIGN_SEED, i));
        let kernel = spec.to_kernel().expect("campaign kernels build");
        let instance = Compiler::default()
            .compile(kernel, &[])
            .and_then(|r| r.into_instance(&[]))
            .expect("campaign kernels compile");
        serde_json::to_writer(&mut fold, &instance).expect("instances serialize");
    }
    let got = fold.finish();
    assert_eq!(got, CAMPAIGN_FOLD, "campaign fold moved ({got:#018x})");
}
