//! The e-graph's bookkeeping (rebuild, dedup, the memo) may get faster but
//! must never change what it extracts. These goldens pin the optimized output
//! byte for byte: the fat binary's content hash for five paper-scale demo
//! kernels, whose last saturation passes grow to thousands of e-nodes; one
//! FNV-1a fold over the regions the paper-scale stencil and convolution
//! workloads compile; and one over the optimized instances of the first 200
//! kernels of the `0xC0FFEE` fuzz campaign (the seed CI's `fuzz_hunt` runs).
//! A last fold pins region entry away from the compiled binding: the
//! instances the symbolic regions of the matmul, k-means, gather-MLP and
//! PointNet workloads build at a spread of other bindings.

use infs_isa::{Compiler, FatBinary, Fnv1a};
use infs_serve::demo;
use infs_workloads::{by_name, Benchmark, PointNet, PointNetVariant, Scale};

/// (kernel, `FatBinary::content_hash`), optimizer on. The first three were
/// computed at commit 9840e35, before the rebuild was made linear; the last
/// two at 81fa8a2, before the e-graph's operands were inlined.
fn goldens() -> [(infs_frontend::Kernel, u64); 5] {
    [
        (demo::mat_stencil(256), 0x3cfa_441a_c763_c128),
        (demo::mat_update(256, 12), 0x7b93_605e_7a2d_a55c),
        (demo::mat_muladd(256, 8), 0x4356_e5fb_bfc7_f38b),
        (demo::stencil(4096), 0xd4e8_9c73_59e2_5662),
        (demo::mat_update(256, 8), 0xe567_a366_7ce9_5900),
    ]
}

/// FNV-1a over the JSON of every region instance these paper-scale workloads
/// compile at construction, in this order; computed at 81fa8a2.
const WORKLOAD_FOLD: u64 = 0x7418_e0dc_d21d_f731;
const FOLDED_WORKLOADS: [&str; 4] = ["stencil2d", "stencil3d", "conv2d", "dwt2d"];

/// FNV-1a over the JSON of every optimized instance, in campaign order.
const CAMPAIGN_FOLD: u64 = 0xc5f1_be88_443d_7b6e;
const CAMPAIGN_SEED: u64 = 0xC0FFEE;
const CAMPAIGN_KERNELS: usize = 200;

/// FNV-1a over every symbolic region of these paper-scale workloads entered
/// at each of `BINDINGS`; computed at 359cecb, before region entry at a new
/// binding could replay the compiled optimization.
const BINDING_FOLD: u64 = 0x14b7_5fa0_ca44_b1fa;
const BINDING_WORKLOADS: [&str; 6] = [
    "mm/in",
    "mm/out",
    "kmeans/in",
    "kmeans/out",
    "gather_mlp/in",
    "gather_mlp/out",
];
/// Every region here is compiled at `[0]`; a binding past a region's range
/// folds as an error marker.
const BINDINGS: [i64; 9] = [1, 2, 3, 7, 31, 64, 127, 1000, 2047];

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
fn workload_regions_match_the_golden_fold() {
    let mut fold = Fnv1a::new();
    for name in FOLDED_WORKLOADS {
        let bench = by_name(name, Scale::Paper).expect("a Table 3 workload");
        let instances = bench.instances();
        assert!(!instances.is_empty(), "{name} compiles at construction");
        for instance in instances {
            serde_json::to_writer(&mut fold, instance).expect("instances serialize");
        }
    }
    let got = fold.finish();
    assert_eq!(got, WORKLOAD_FOLD, "workload fold moved ({got:#018x})");
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

#[test]
fn workload_regions_entered_at_other_bindings_match_the_golden_fold() {
    let mut benches: Vec<Box<dyn Benchmark>> = BINDING_WORKLOADS
        .iter()
        .map(|name| by_name(name, Scale::Paper).expect("a Table 3 workload"))
        .collect();
    benches.push(Box::new(PointNet::new(Scale::Paper, PointNetVariant::Ssg)));
    let mut fold = Fnv1a::new();
    let mut entered = 0;
    for bench in &benches {
        let symbolic = bench.regions().into_iter().filter(|r| {
            r.representative
                .as_ref()
                .is_some_and(|rep| !rep.syms.is_empty())
        });
        for region in symbolic {
            for s in BINDINGS {
                match region.instantiate(&[s]) {
                    Ok(instance) => {
                        serde_json::to_writer(&mut fold, &*instance).expect("instances serialize");
                        entered += 1;
                    }
                    Err(_) => fold.write(b"error"),
                }
            }
        }
    }
    assert!(entered > 100, "only {entered} entries built an instance");
    let got = fold.finish();
    assert_eq!(got, BINDING_FOLD, "binding fold moved ({got:#018x})");
}
