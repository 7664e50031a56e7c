//! The e-graph's bookkeeping (rebuild, dedup, the memo, the e-node cap) may
//! get faster but must never change what it extracts; only a change to the
//! rule set or the cost model may, and it re-records these goldens on
//! purpose. They pin the optimized output byte for byte: the fat binary's
//! content hash for five paper-scale demo kernels; one FNV-1a fold over the
//! regions the paper-scale stencil and convolution workloads compile; and
//! one over the optimized instances of the first 200
//! kernels of the `0xC0FFEE` fuzz campaign (the seed CI's `fuzz_hunt` runs).
//! A last fold pins region entry away from the compiled binding: the
//! instances the symbolic regions of the matmul, k-means, gather-MLP and
//! PointNet workloads build at a spread of other bindings.
//!
//! The rule set is held to the same pins from the other side: dropping any
//! one kept rule must change one of the demo or campaign graphs.

use infs_egraph::{all_rules, optimize_with_rules, CostParams, Rewrite};
use infs_isa::{Compiler, FatBinary, Fnv1a};
use infs_serve::demo;
use infs_workloads::{by_name, Benchmark, PointNet, PointNetVariant, Scale};

/// (kernel, `FatBinary::content_hash`), optimizer on. `mat_muladd` and
/// `stencil` were computed at commit 81fa8a2, before the e-graph's operands
/// were inlined; the other three were re-recorded when seven Appendix-A
/// rules were deleted.
fn goldens() -> [(infs_frontend::Kernel, u64); 5] {
    [
        (demo::mat_stencil(256), 0x419f_380d_8c21_7493),
        (demo::mat_update(256, 12), 0x8597_42b0_f090_0e5b),
        (demo::mat_muladd(256, 8), 0x4356_e5fb_bfc7_f38b),
        (demo::stencil(4096), 0xd4e8_9c73_59e2_5662),
        (demo::mat_update(256, 8), 0x118c_46ec_56da_e5d6),
    ]
}

/// FNV-1a over the JSON of every region instance these paper-scale workloads
/// compile at construction, in this order; re-recorded when seven
/// Appendix-A rules were deleted.
const WORKLOAD_FOLD: u64 = 0xafb3_c0b5_b636_63fd;
const FOLDED_WORKLOADS: [&str; 4] = ["stencil2d", "stencil3d", "conv2d", "dwt2d"];

/// FNV-1a over the JSON of every optimized instance, in campaign order;
/// re-recorded when seven Appendix-A rules were deleted.
const CAMPAIGN_FOLD: u64 = 0xd80f_51eb_11b0_4d84;
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

/// The tDFGs the demo and campaign goldens optimize, before optimization.
fn pinned_inputs() -> Vec<infs_tdfg::Tdfg> {
    let campaign = (0..CAMPAIGN_KERNELS).map(|i| {
        infs_check::generate(infs_check::campaign_seed(CAMPAIGN_SEED, i))
            .to_kernel()
            .expect("campaign kernels build")
    });
    goldens()
        .into_iter()
        .map(|(kernel, _)| kernel)
        .chain(campaign)
        .filter_map(|kernel| kernel.tensorize(&[]).ok())
        .collect()
}

/// The JSON of `g` optimized with `rules`, or of the error.
fn optimized_json(g: &infs_tdfg::Tdfg, rules: &[Box<dyn Rewrite>]) -> String {
    match optimize_with_rules(g, &CostParams::default(), rules) {
        Ok(opt) => serde_json::to_string(&opt).expect("graphs serialize"),
        Err(e) => format!("error: {e}"),
    }
}

/// No rule rides along for free: without any single one of them some
/// pinned graph comes out different, so each moves a golden above.
#[test]
fn every_kept_rule_moves_a_pinned_graph() {
    let inputs = pinned_inputs();
    let want: Vec<String> = inputs
        .iter()
        .map(|g| optimized_json(g, &all_rules()))
        .collect();
    for dropped in all_rules() {
        let name = dropped.name();
        let rules: Vec<Box<dyn Rewrite>> = all_rules()
            .into_iter()
            .filter(|r| r.name() != name)
            .collect();
        let moved = inputs
            .iter()
            .zip(&want)
            .filter(|(g, want)| optimized_json(g, &rules) != **want)
            .count();
        assert!(moved > 0, "dropping {name} changes no pinned graph");
    }
}
