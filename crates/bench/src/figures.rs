//! One runner per table/figure of the paper's evaluation. See EXPERIMENTS.md
//! for the paper-vs-measured record each runner feeds.

use crate::matrix::{run_one, WORKLOADS};
use crate::records::{
    rounded, BenchJit, BenchPipeline, BenchServe, BenchTune, JitRow, PipelineRow, RetuneRow,
    ServeLoad, ServeRow, TuneRow,
};
use crate::{ConfigName, Ctx, MatrixEntry, RunMatrix, Table};
use infs_geom::TileShape;
use infs_sim::{ExecMode, Machine, RunPlan, StageReport, SystemConfig};
use infs_workloads::{ArraySum, Benchmark, MlpStack, PointNet, PointNetVariant, Scale, VecAdd};
use rayon::prelude::*;

/// Steady-state cycles of `enter` on a timing-only machine over `arrays`: the
/// first entry warms the machine and the second is timed — the Fig 2
/// microbenchmark setting: data in L3, transposed, JIT memoized.
fn steady_cycles(
    cfg: &SystemConfig,
    arrays: &[infs_sdfg::ArrayDecl],
    mut enter: impl FnMut(&mut Machine),
) -> u64 {
    let mut m = Machine::new(cfg.clone(), arrays);
    m.set_functional(false);
    enter(&mut m);
    let warm = m.stats().cycles;
    enter(&mut m);
    m.finish().cycles - warm
}

/// Per-workload summary of the run matrix: Inf-S cycles and the
/// shape-polymorphic JIT cache behaviour. "jit hits" counts region dispatches
/// served from the cache (exact stream or template patch), "template hits"
/// the copy-and-patch subset, "jit misses" the full lowerings, and "jit hit
/// rate" is the *command-level* rate — the fraction of all commands entering
/// in-memory execution that did not pay the full per-command lowering rate
/// ([`infs_sim::RunStats::jit_cmd_hit_rate`]).
///
/// Also emits the matrix itself (`matrix.json`, every cell's full
/// [`infs_sim::RunStats`]) and `BENCH_jit.json`, the per-workload record of
/// the same table.
pub fn matrix_summary(ctx: &Ctx) {
    let m = ctx.matrix();
    let mut t = Table::new(
        "Run matrix summary: per-workload Inf-S JIT cache behaviour \
         (hit rate is command-level; hits include template patches)",
        &[
            "benchmark",
            "Inf-S cycles",
            "jit hits",
            "template hits",
            "jit misses",
            "jit hit rate",
            "noJIT cycles",
        ],
    );
    let mut record = BenchJit {
        scale: m.scale.clone(),
        workloads: Default::default(),
    };
    for name in WORKLOADS {
        let st = &m.get(name, ConfigName::InfS).expect("entry").stats;
        let cmd_total = st.jit_cmd_hits + st.jit_cmd_template + st.jit_cmd_misses;
        let rate = if cmd_total == 0 {
            "-".to_string()
        } else {
            Table::f(st.jit_cmd_hit_rate())
        };
        let nojit = m.cycles(name, ConfigName::InfSNoJit);
        t.row(vec![
            name.into(),
            st.cycles.to_string(),
            st.jit_hits.to_string(),
            st.jit_template_hits.to_string(),
            st.jit_misses.to_string(),
            rate,
            nojit.to_string(),
        ]);
        record.workloads.insert(
            name.to_string(),
            JitRow {
                cycles: st.cycles,
                nojit_cycles: nojit,
                jit_hits: st.jit_hits,
                template_hits: st.jit_template_hits,
                lowerings: st.jit_misses,
                cmd_hits: st.jit_cmd_hits,
                cmd_template: st.jit_cmd_template,
                cmd_misses: st.jit_cmd_misses,
                cmd_hit_rate: rounded(st.jit_cmd_hit_rate(), 6),
            },
        );
    }
    ctx.emit(
        "matrix.json",
        &serde_json::to_string(m).expect("the matrix serializes"),
    );
    ctx.table("matrix", &t);
    ctx.record("jit", &record);
}

/// Fig 2: speedup of the paradigms on `vec_add` / `array_sum` across input
/// sizes, normalized to Base-Thread-1.
pub fn fig2(ctx: &Ctx) {
    let sizes: &[(u64, &str)] = if ctx.quick {
        &[(16 << 10, "16k"), (64 << 10, "64k")]
    } else {
        &[
            (16 << 10, "16k"),
            (64 << 10, "64k"),
            (256 << 10, "256k"),
            (1 << 20, "1M"),
            (4 << 20, "4M"),
        ]
    };
    let mut t = Table::new(
        "Fig 2: speedup over Base-Thread-1 (data in L3, transposed)",
        &["workload", "Base-1", "Base-64", "Near-L3", "In-L3"],
    );
    let configs = [
        ConfigName::Base1,
        ConfigName::Base,
        ConfigName::NearL3,
        ConfigName::InL3,
    ];
    for &(n, label) in sizes {
        for micro in ["vec_add", "array_sum"] {
            let bench: Box<dyn Benchmark> = match micro {
                "vec_add" => Box::new(VecAdd::with_elems(n)),
                _ => Box::new(ArraySum::with_elems(n)),
            };
            let cycles: Vec<u64> = configs
                .iter()
                .map(|c| {
                    steady_cycles(&ctx.cfg, &bench.arrays(), |m| {
                        bench.run(m, c.mode()).expect("benchmark runs");
                    })
                })
                .collect();
            let base1 = cycles[0] as f64;
            let mut row = vec![format!("{micro}/{label}")];
            row.extend(cycles.iter().map(|&c| Table::f(base1 / c as f64)));
            t.row(row);
        }
    }
    ctx.table("fig2", &t);
}

/// The ten Fig 11 rows: the matrix workloads, with the two dataflows of a
/// reduction workload (`mm/in`, `mm/out`) folded into one family (`mm`).
fn families() -> Vec<&'static str> {
    let mut out: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.split_once('/').map_or(*w, |(family, _)| family))
        .collect();
    out.dedup();
    out
}

/// A family's entry under a configuration: the workload itself or, where the
/// family has two dataflows, the faster of them — the paper "picks the best
/// implementation for each configuration".
fn best_entry<'m>(m: &'m RunMatrix, family: &str, config: ConfigName) -> &'m MatrixEntry {
    m.get(family, config)
        .or_else(|| m.get(&m.best_variant(family, config).0, config))
        .expect("entry")
}

fn family_cycles(m: &RunMatrix, config: ConfigName) -> Vec<u64> {
    families()
        .iter()
        .map(|f| best_entry(m, f, config).stats.cycles)
        .collect()
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Fig 11/19 column: Inf-S against the better of the two paradigms it fuses
/// (below 1 the fused configuration loses to one of its own parts).
const FUSION_RATIO: &str = "Inf-S / max(Near-L3, In-L3)";

/// Fig 11: overall speedup over Base for every configuration.
pub fn fig11(ctx: &Ctx) {
    let m = ctx.matrix();
    let mut t = Table::new(
        "Fig 11: speedup over Base (best dataflow per configuration)",
        &[
            "benchmark",
            "Base",
            "Near-L3",
            "In-L3",
            "Inf-S",
            "Inf-S-noJIT",
            FUSION_RATIO,
        ],
    );
    let base = family_cycles(m, ConfigName::Base);
    let mut per_cfg: Vec<Vec<f64>> = Vec::new();
    for config in ConfigName::FIG11 {
        let cycles = family_cycles(m, config);
        per_cfg.push(
            base.iter()
                .zip(&cycles)
                .map(|(b, c)| *b as f64 / *c as f64)
                .collect(),
        );
    }
    // FIG11 order: Base, Near-L3, In-L3, Inf-S, Inf-S-noJIT.
    let ratio = |i: usize| per_cfg[3][i] / per_cfg[1][i].max(per_cfg[2][i]);
    per_cfg.push((0..base.len()).map(ratio).collect());
    for (i, name) in families().iter().enumerate() {
        let mut row = vec![name.to_string()];
        row.extend(per_cfg.iter().map(|s| Table::f(s[i])));
        t.row(row);
    }
    let mut row = vec!["geomean".to_string()];
    row.extend(per_cfg.iter().map(|s| Table::f(geomean(s))));
    t.row(row);
    ctx.table("fig11", &t);
}

/// Fig 12: NoC traffic breakdown (byte-hops, normalized to Base) + utilization.
pub fn fig12(ctx: &Ctx) {
    let m = ctx.matrix();
    let mut t = Table::new(
        "Fig 12: NoC byte-hops normalized to Base (control/data/offload) and utilization",
        &[
            "benchmark",
            "config",
            "control",
            "data",
            "offload",
            "total",
            "noc util",
        ],
    );
    for family in families() {
        let base_total = best_entry(m, family, ConfigName::Base)
            .stats
            .traffic
            .noc_total();
        for config in [ConfigName::Base, ConfigName::NearL3, ConfigName::InfS] {
            let e = best_entry(m, family, config);
            let tr = &e.stats.traffic;
            t.row(vec![
                family.to_string(),
                config.label().into(),
                Table::f(tr.noc_control / base_total),
                Table::f((tr.noc_data + tr.noc_inter_tile) / base_total),
                Table::f(tr.noc_offload / base_total),
                Table::f(tr.noc_total() / base_total),
                Table::f(e.stats.noc_utilization),
            ]);
        }
    }
    ctx.table("fig12", &t);
}

/// Fig 13: Inf-S traffic breakdown per workload variant (bytes, normalized per
/// benchmark to its total).
pub fn fig13(ctx: &Ctx) {
    let m = ctx.matrix();
    let mut t = Table::new(
        "Fig 13: Inf-S traffic breakdown (fraction of bytes×hops + in-array bytes)",
        &[
            "benchmark",
            "intra-tile",
            "inter-tile (bank)",
            "inter-tile (NoC)",
            "offload",
            "data",
            "control",
        ],
    );
    for name in WORKLOADS {
        let e = m.get(name, ConfigName::InfS).expect("entry");
        let tr = &e.stats.traffic;
        let total = tr.noc_total() + tr.intra_tile + tr.inter_tile_local;
        if total == 0.0 {
            continue;
        }
        t.row(vec![
            name.into(),
            Table::f(tr.intra_tile / total),
            Table::f(tr.inter_tile_local / total),
            Table::f(tr.noc_inter_tile / total),
            Table::f(tr.noc_offload / total),
            Table::f(tr.noc_data / total),
            Table::f(tr.noc_control / total),
        ]);
    }
    ctx.table("fig13", &t);
}

/// Fig 14: Inf-S cycle breakdown + fraction of ops executed on bitlines.
pub fn fig14(ctx: &Ctx) {
    let m = ctx.matrix();
    let mut t = Table::new(
        "Fig 14: Inf-S cycle breakdown (fractions) and in-memory op share",
        &[
            "benchmark",
            "DRAM",
            "JIT",
            "Move",
            "Compute",
            "FinalReduce",
            "Mix",
            "Near-Mem",
            "Core",
            "ops in-mem",
        ],
    );
    let mut avgs = [0.0f64; 8];
    let mut count = 0.0f64;
    for name in WORKLOADS {
        let e = m.get(name, ConfigName::InfS).expect("entry");
        let b = &e.stats.breakdown;
        let total = b.total().max(1) as f64;
        let parts = [
            b.dram,
            b.jit,
            b.mv,
            b.compute,
            b.final_reduce,
            b.mix,
            b.near_mem,
            b.core,
        ];
        let mut row = vec![name.to_string()];
        for (i, &p) in parts.iter().enumerate() {
            let frac = p as f64 / total;
            avgs[i] += frac;
            row.push(Table::f(frac));
        }
        row.push(Table::f(e.stats.in_memory_op_fraction()));
        count += 1.0;
        t.row(row);
    }
    let mut row = vec!["avg".to_string()];
    row.extend(avgs.iter().map(|&a| Table::f(a / count.max(1.0))));
    row.push(String::new());
    t.row(row);
    ctx.table("fig14", &t);
}

/// Fig 15: inner vs outer dataflow per configuration, normalized to the
/// Base inner-product implementation.
pub fn fig15(ctx: &Ctx) {
    let m = ctx.matrix();
    let mut t = Table::new(
        "Fig 15: inner vs outer product speedup over Base-In",
        &[
            "family",
            "Base-In",
            "Base-Out",
            "Near-L3-In",
            "Near-L3-Out",
            "Inf-S-In",
            "Inf-S-Out",
        ],
    );
    // The reduction families: the workloads that come in two dataflows.
    for family in WORKLOADS.iter().filter_map(|w| w.strip_suffix("/in")) {
        let base_in = m.cycles(&format!("{family}/in"), ConfigName::Base) as f64;
        let mut row = vec![family.to_string()];
        for config in [ConfigName::Base, ConfigName::NearL3, ConfigName::InfS] {
            for v in ["in", "out"] {
                let c = m.cycles(&format!("{family}/{v}"), config) as f64;
                row.push(Table::f(base_in / c));
            }
        }
        t.row(row);
    }
    ctx.table("fig15", &t);
}

/// Tile-size sweep core: cycles of a benchmark under Inf-S with every region
/// forced onto one tile, for each tile — run exactly as the matrix runs its
/// cells (inputs warm in L3), so a row is comparable with the matrix's.
fn sweep_tiles(ctx: &Ctx, name: &str, ndim: usize) -> Vec<(TileShape, u64)> {
    let bitlines = ctx.cfg.geometry.bitlines as u64;
    // All factorizations of the bitline count over `ndim` dims.
    fn expand(rem: u64, dims_left: usize, cur: &mut Vec<u64>, out: &mut Vec<Vec<u64>>) {
        if dims_left == 1 {
            let mut v = cur.clone();
            v.push(rem);
            out.push(v);
            return;
        }
        let mut t = 1;
        while t <= rem {
            if rem.is_multiple_of(t) {
                cur.push(t);
                expand(rem / t, dims_left - 1, cur, out);
                cur.pop();
            }
            t *= 2;
        }
    }
    let mut shapes = Vec::new();
    expand(bitlines, ndim, &mut Vec::new(), &mut shapes);
    // Each candidate runs a full Inf-S simulation on a fresh Machine — the
    // sweep is embarrassingly parallel, and collection preserves input order.
    shapes
        .into_par_iter()
        .map(|dims| {
            let tile = TileShape::new(dims).expect("nonzero dims");
            let plan = RunPlan {
                tile: Some(tile.clone()),
                ..RunPlan::default()
            };
            // A tile no layout of the workload admits is not a point of the
            // sweep.
            run_one(name, ConfigName::InfS, ctx, plan)
                .ok()
                .map(|stats| (tile, stats.cycles))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flatten()
        .collect()
}

/// Fig 16: cycle sensitivity to the 2-D tile size, with the runtime heuristic's
/// choice (the matrix's Inf-S cell) and the oracle best — and, from the same
/// sweep, the §4.1 tiling analysis (`tiling.md`): heuristic vs oracle vs no
/// tiling.
pub fn fig16(ctx: &Ctx) {
    let benches: &[&str] = if ctx.quick {
        &["stencil2d", "mm/out"]
    } else {
        &[
            "stencil2d",
            "dwt2d",
            "gauss_elim",
            "conv2d",
            "mm/in",
            "mm/out",
            "kmeans/in",
            "kmeans/out",
            "gather_mlp/in",
            "gather_mlp/out",
        ]
    };
    let tiling_benches = ["stencil2d", "dwt2d", "conv2d", "mm/out", "kmeans/out"];
    let mut t = Table::new(
        "Fig 16: Inf-S cycles vs 2-D tile size (ratio to best; heuristic choice marked)",
        &["benchmark", "tile", "cycles", "ratio to best", "notes"],
    );
    let mut tiling = Table::new(
        "Tiling heuristic vs oracle vs no tiling (§8: heuristic within 2% of oracle)",
        &["benchmark", "heuristic/oracle", "no-tiling/heuristic"],
    );
    for name in benches {
        let sweep = sweep_tiles(ctx, name, 2);
        if sweep.is_empty() {
            continue;
        }
        let best = sweep.iter().map(|&(_, c)| c).min().expect("nonempty");
        let heuristic = ctx.matrix().cycles(name, ConfigName::InfS);
        for (tile, cycles) in &sweep {
            t.row(vec![
                name.to_string(),
                tile.to_string(),
                cycles.to_string(),
                Table::f(*cycles as f64 / best as f64),
                String::new(),
            ]);
        }
        t.row(vec![
            name.to_string(),
            "(heuristic)".into(),
            heuristic.to_string(),
            Table::f(heuristic as f64 / best as f64),
            "runtime default".into(),
        ]);
        if tiling_benches.contains(name) {
            // "No tiling": innermost dimension fully contiguous (B×1 tiles).
            let bl = ctx.cfg.geometry.bitlines as u64;
            let no_tiling = sweep
                .iter()
                .find(|(tile, _)| tile.dims()[0] == bl)
                .map_or(f64::NAN, |&(_, c)| c as f64);
            tiling.row(vec![
                name.to_string(),
                Table::f(heuristic as f64 / best as f64),
                Table::f(no_tiling / heuristic as f64),
            ]);
        }
    }
    ctx.table("fig16", &t);
    ctx.table("tiling", &tiling);
}

/// Fig 17: speedup vs 3-D tile size for the 3-D workloads, with the runtime's
/// own choice (the matrix's Inf-S cell) as the `(heuristic)` row.
pub fn fig17(ctx: &Ctx) {
    let benches: &[&str] = if ctx.quick {
        &["stencil3d"]
    } else {
        &["stencil3d", "conv3d"]
    };
    let mut t = Table::new(
        "Fig 17: Inf-S speedup vs 3-D tile size (normalized to worst)",
        &["benchmark", "tile", "cycles", "speedup vs worst"],
    );
    for name in benches {
        let sweep = sweep_tiles(ctx, name, 3);
        if sweep.is_empty() {
            continue;
        }
        let worst = sweep.iter().map(|&(_, c)| c).max().expect("nonempty");
        for (tile, cycles) in &sweep {
            t.row(vec![
                name.to_string(),
                tile.to_string(),
                cycles.to_string(),
                Table::f(worst as f64 / *cycles as f64),
            ]);
        }
        let heuristic = ctx.matrix().cycles(name, ConfigName::InfS);
        t.row(vec![
            name.to_string(),
            "(heuristic)".into(),
            heuristic.to_string(),
            Table::f(worst as f64 / heuristic as f64),
        ]);
    }
    ctx.table("fig17", &t);
}

/// Fig 18: energy efficiency over Base.
pub fn fig18(ctx: &Ctx) {
    let m = ctx.matrix();
    let mut t = Table::new(
        "Fig 18: energy efficiency over Base (higher is better)",
        &[
            "benchmark",
            "Base",
            "Near-L3",
            "In-L3",
            "Inf-S",
            "Inf-S-noJIT",
        ],
    );
    let mut per_cfg: Vec<Vec<f64>> = vec![Vec::new(); 5];
    for family in families() {
        let base_e = best_entry(m, family, ConfigName::Base).stats.energy.total();
        let mut row = vec![family.to_string()];
        for (i, config) in ConfigName::FIG11.iter().enumerate() {
            let e = best_entry(m, family, *config).stats.energy.total();
            let eff = base_e / e.max(1e-9);
            per_cfg[i].push(eff);
            row.push(Table::f(eff));
        }
        t.row(row);
    }
    let mut row = vec!["geomean".to_string()];
    row.extend(per_cfg.iter().map(|s| Table::f(geomean(s))));
    t.row(row);
    ctx.table("fig18", &t);
}

/// Fig 19: PointNet++ SSG/MSG per-stage timeline and overall speedups.
pub fn fig19(ctx: &Ctx) {
    let mut t = Table::new(
        "Fig 19: PointNet++ stage timeline (fraction of configuration runtime) and speedup over Base",
        &["variant", "config", "stage.phase", "fraction", "where"],
    );
    let mut summary = Table::new(
        "Fig 19 summary: speedup over Base",
        &["variant", "Near-L3", "In-L3", "Inf-S", FUSION_RATIO],
    );
    for variant in [PointNetVariant::Ssg, PointNetVariant::Msg] {
        let vname = match variant {
            PointNetVariant::Ssg => "SSG",
            PointNetVariant::Msg => "MSG",
        };
        let mut totals = Vec::new();
        for config in [
            ConfigName::Base,
            ConfigName::NearL3,
            ConfigName::InL3,
            ConfigName::InfS,
        ] {
            let b = PointNet::new(ctx.scale(), variant);
            let arrays = b.arrays();
            let mut m = Machine::new(ctx.cfg.clone(), &arrays);
            m.set_functional(ctx.quick);
            m.set_resident_all(); // §6: inputs warm in L3
            if ctx.quick {
                b.init(m.memory());
            }
            let reports = b
                .run_detailed(&mut m, config.mode())
                .expect("pointnet runs");
            let total: u64 = reports.iter().map(|r| r.cycles).sum();
            assert_eq!(
                total,
                m.stats().cycles,
                "{vname} {}: the stage reports must add up to the machine clock",
                config.label()
            );
            totals.push(total);
            // Aggregate per (stage, phase).
            let mut agg: std::collections::BTreeMap<String, (u64, String)> = Default::default();
            for r in &reports {
                let e = agg
                    .entry(format!("{}.{}", r.stage, r.phase))
                    .or_insert((0, format!("{:?}", r.executed)));
                e.0 += r.cycles;
                e.1 = format!("{:?}", r.executed);
            }
            for (key, (cycles, exec)) in agg {
                t.row(vec![
                    vname.into(),
                    config.label().into(),
                    key,
                    Table::f(cycles as f64 / total.max(1) as f64),
                    exec,
                ]);
            }
        }
        let speedup = |i: usize| totals[0] as f64 / totals[i] as f64;
        summary.row(vec![
            vname.into(),
            Table::f(speedup(1)),
            Table::f(speedup(2)),
            Table::f(speedup(3)),
            Table::f(speedup(3) / speedup(1).max(speedup(2))),
        ]);
    }
    ctx.table("fig19_timeline", &t);
    ctx.table("fig19", &summary);
}

/// §8 JIT analysis: lowering share of runtime, memoization counts, and the
/// noJIT speedup, for each workload at its outer-product dataflow.
pub fn jit(ctx: &Ctx) {
    let m = ctx.matrix();
    let mut t = Table::new(
        "JIT overheads under Inf-S (§8)",
        &[
            "benchmark",
            "jit cycle frac",
            "jit hits",
            "jit misses",
            "noJIT speedup",
        ],
    );
    let mut fracs = Vec::new();
    for name in WORKLOADS.iter().filter(|w| !w.ends_with("/in")) {
        let e = m.get(name, ConfigName::InfS).expect("entry");
        let frac = e.stats.breakdown.jit as f64 / e.stats.cycles.max(1) as f64;
        fracs.push(frac);
        let nojit = m.cycles(name, ConfigName::InfSNoJit) as f64;
        t.row(vec![
            name.to_string(),
            Table::f(frac),
            e.stats.jit_hits.to_string(),
            e.stats.jit_misses.to_string(),
            Table::f(e.stats.cycles as f64 / nojit),
        ]);
    }
    t.row(vec![
        "avg".into(),
        Table::f(fracs.iter().sum::<f64>() / fracs.len().max(1) as f64),
        String::new(),
        String::new(),
        String::new(),
    ]);
    ctx.table("jit", &t);
}

/// Eq 1 and Table 2 closed-form quantities.
pub fn eq1(ctx: &Ctx) {
    let c = &ctx.cfg;
    let mut t = Table::new("Eq 1 / Table 2 derived quantities", &["quantity", "value"]);
    t.row(vec![
        "total bitlines".into(),
        c.total_bitlines().to_string(),
    ]);
    t.row(vec![
        "peak int32 adds/cycle (Eq 1)".into(),
        c.eq1_peak_int32_adds_per_cycle().to_string(),
    ]);
    t.row(vec![
        "peak speedup over 64 AVX-512 cores".into(),
        (c.eq1_peak_int32_adds_per_cycle() / (c.cores as u64 * c.simd_lanes as u64)).to_string(),
    ]);
    t.row(vec![
        "L3 capacity (MB)".into(),
        (c.l3_bytes() >> 20).to_string(),
    ]);
    ctx.table("eq1", &t);
}

/// §8 area model.
pub fn area(ctx: &Ctx) {
    let a = infs_sim::area_report();
    let mut t = Table::new("Area overhead (§8)", &["component", "mm²"]);
    t.row(vec!["baseline chip".into(), Table::f(a.chip_mm2)]);
    t.row(vec!["in-memory compute".into(), Table::f(a.in_memory_mm2)]);
    t.row(vec![
        "near-memory support".into(),
        Table::f(a.near_memory_mm2),
    ]);
    t.row(vec![
        "total overhead".into(),
        format!("{:.2}%", a.overhead_fraction() * 100.0),
    ]);
    ctx.table("area", &t);
}

/// Ablation: the e-graph optimizer's effect on conv2d (the Fig 6 showcase) —
/// compute-command count and steady-state Inf-S cycles with the optimizer on
/// vs off.
pub fn ablate(ctx: &Ctx) {
    use infs_isa::Compiler;
    let n: u64 = if ctx.quick { 256 } else { 2048 };
    let mut t = Table::new(
        "Ablation: e-graph optimizer on conv2d",
        &["variant", "tDFG computes", "Inf-S cycles"],
    );
    for (label, optimize) in [("optimized", true), ("unoptimized", false)] {
        // The conv2d workload always optimizes: rebuild its kernel with the
        // chosen compiler setting.
        let mut k = infs_frontend::KernelBuilder::new("conv2d", infs_sdfg::DataType::F32);
        let a = k.array("A", vec![n, n]);
        let b = k.array("B", vec![n, n]);
        let i = k.parallel_loop("i", 1, n as i64 - 1);
        let j = k.parallel_loop("j", 1, n as i64 - 1);
        let tap = |di: i64, dj: i64, w: f32| {
            infs_frontend::ScalarExpr::mul(
                infs_frontend::ScalarExpr::load(
                    a,
                    vec![
                        infs_frontend::Idx::var_plus(i, di),
                        infs_frontend::Idx::var_plus(j, dj),
                    ],
                ),
                infs_frontend::ScalarExpr::Const(w),
            )
        };
        let mut acc = tap(0, 0, 0.25);
        for (di, dj, w) in [
            (-1i64, -1i64, 0.0625f32),
            (1, -1, 0.0625),
            (-1, 1, 0.0625),
            (1, 1, 0.0625),
            (-1, 0, 0.125),
            (1, 0, 0.125),
            (0, -1, 0.125),
            (0, 1, 0.125),
        ] {
            acc = infs_frontend::ScalarExpr::add(acc, tap(di, dj, w));
        }
        k.accum(
            b,
            vec![infs_frontend::Idx::var(i), infs_frontend::Idx::var(j)],
            infs_sdfg::ReduceOp::Sum,
            acc,
        );
        let compiler = Compiler {
            optimize,
            ..Default::default()
        };
        let inst = compiler
            .compile(k.build().expect("builds"), &[])
            .expect("compiles")
            .into_instance(&[])
            .expect("instantiates");
        let computes = inst
            .tdfg
            .as_ref()
            .map(|g| {
                g.nodes()
                    .iter()
                    .filter(|nd| matches!(nd, infs_tdfg::Node::Compute { .. }))
                    .count()
            })
            .unwrap_or(0);
        let cycles = steady_cycles(&ctx.cfg, inst.sdfg.arrays(), |m| {
            m.run_region(&inst, &[], ExecMode::InfS).expect("runs");
        });
        t.row(vec![label.into(), computes.to_string(), cycles.to_string()]);
    }
    ctx.table("ablate_egraph", &t);
}

/// Ablation: data-type sensitivity of in-memory execution — bit-serial
/// latency scales with operand width (Eq 1 is stated for int32; §2.2 gives
/// O(n) adds and n²+5n multiplies), so narrow types multiply the advantage.
pub fn ablate_dtype(ctx: &Ctx) {
    use infs_sdfg::DataType;
    let n: u64 = if ctx.quick { 64 << 10 } else { 4 << 20 };
    let mut t = Table::new(
        "Ablation: vec_add+scale In-L3 steady-state cycles by element type",
        &["dtype", "cycles", "speedup vs f32"],
    );
    let mut f32_cycles = 0u64;
    for dtype in [DataType::F32, DataType::I32, DataType::U8] {
        let mut k = infs_frontend::KernelBuilder::new("vec_madd", dtype);
        let a = k.array("A", vec![n]);
        let b = k.array("B", vec![n]);
        let c = k.array("C", vec![n]);
        let i = k.parallel_loop("i", 0, n as i64);
        k.assign(
            c,
            vec![infs_frontend::Idx::var(i)],
            infs_frontend::ScalarExpr::add(
                infs_frontend::ScalarExpr::mul(
                    infs_frontend::ScalarExpr::load(a, vec![infs_frontend::Idx::var(i)]),
                    infs_frontend::ScalarExpr::Const(3.0),
                ),
                infs_frontend::ScalarExpr::load(b, vec![infs_frontend::Idx::var(i)]),
            ),
        );
        let region = infs_isa::Compiler::default()
            .compile(k.build().expect("builds"), &[])
            .expect("compiles")
            .into_instance(&[])
            .expect("instantiates");
        let cycles = steady_cycles(&ctx.cfg, region.sdfg.arrays(), |m| {
            m.run_region(&region, &[], ExecMode::InL3).expect("runs");
        });
        if dtype == DataType::F32 {
            f32_cycles = cycles;
        }
        t.row(vec![
            dtype.to_string(),
            cycles.to_string(),
            Table::f(f32_cycles as f64 / cycles as f64),
        ]);
    }
    ctx.table("ablate_dtype", &t);
}

/// Table 3 echo: the workload inventory actually built.
pub fn table3(ctx: &Ctx) {
    let mut t = Table::new(
        "Table 3: workloads (as instantiated)",
        &["benchmark", "arrays", "footprint (MB)"],
    );
    for b in infs_workloads::full_suite(if ctx.quick { Scale::Test } else { Scale::Paper }) {
        let arrays = b.arrays();
        let bytes: u64 = arrays.iter().map(|a| a.size_bytes()).sum();
        t.row(vec![
            b.name().to_string(),
            arrays.len().to_string(),
            Table::f(bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }
    ctx.table("table3", &t);
}

/// Chaos report (`results/chaos.md`): the `DESIGN.md` §10 degradation ladder,
/// measured. An increasing number of L3 banks is killed under a fixed
/// `vec_add`; each run records where Inf-S actually placed the region
/// (in-memory while the bank quorum holds, the near-memory stream engines
/// once it breaks, the host cores when no bank is left), the cycle cost of
/// each rung, the degradation counters, and whether the outputs stayed
/// bit-identical to the scalar reference — degradation changes *where* a
/// region runs, never *what* it computes. A final row replays the
/// [`infs_faults::FaultConfig::chaos`] schedule twice to demonstrate that
/// identical seeds render identical fault schedules (the property the
/// serve-layer chaos tests and `infs-served --chaos` rely on).
pub fn chaos(ctx: &Ctx) {
    use infs_faults::{BankHealth, FaultConfig, FaultPlan};

    let n_banks = ctx.cfg.n_banks;
    let elems: u64 = if ctx.quick { 1 << 17 } else { 4 << 20 };
    let bench = VecAdd::with_elems(elems);
    let arrays = bench.arrays();

    // Golden outputs from the scalar reference.
    let mut golden = infs_sdfg::Memory::for_arrays(&arrays);
    bench.init(&mut golden);
    bench.reference(&mut golden);

    let mut t = Table::new(
        format!("Chaos: dead-bank degradation ladder (vec_add, {elems} elements, {n_banks} banks)"),
        &[
            "dead banks",
            "healthy",
            "executed",
            "cycles",
            "deg to near",
            "deg to host",
            "outputs",
        ],
    );
    for dead in [0u32, 8, 16, 32, 40, 56, 64] {
        let dead = dead.min(n_banks);
        let mut health = BankHealth::all_healthy(n_banks);
        for b in 0..dead {
            health.mark_dead(b);
        }
        let healthy = health.healthy_count();
        let mut m = Machine::new(ctx.cfg.clone(), &arrays);
        m.set_bank_health(health);
        bench.init(m.memory());
        bench
            .run(&mut m, ExecMode::InfS)
            .expect("vec_add survives degradation");
        let executed = {
            let s = m.stats();
            if s.ops_in_memory > 0 {
                "in-memory"
            } else if s.ops_near_memory > 0 {
                "near-memory"
            } else {
                "host"
            }
        };
        let bitwise = bench
            .output_arrays()
            .iter()
            .all(|&id| m.memory_ref().array(id) == golden.array(id));
        assert!(bitwise, "degraded run diverged from the scalar reference");
        let (deg_near, deg_host) = {
            let f = m.fault_counters();
            (f.degraded_to_near, f.degraded_to_host)
        };
        let cycles = m.finish().cycles;
        t.row(vec![
            dead.to_string(),
            healthy.to_string(),
            executed.to_string(),
            cycles.to_string(),
            deg_near.to_string(),
            deg_host.to_string(),
            "bit-identical".to_string(),
        ]);
    }

    // Schedule replay: the whole fault model is a pure function of the seed.
    let wordlines = ctx.cfg.geometry.wordlines;
    let render =
        |seed: u64| FaultPlan::new(FaultConfig::chaos(seed)).schedule(256, n_banks, wordlines);
    let (first, replay) = (render(0xC0FFEE), render(0xC0FFEE));
    assert_eq!(
        first, replay,
        "identical seeds must render identical schedules"
    );
    assert_ne!(
        first,
        render(0xD1FF),
        "distinct seeds must render distinct schedules"
    );
    t.row(vec![
        "chaos(0xC0FFEE) x2".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{} scheduled faults, replay-identical", first.len()),
    ]);
    ctx.table("chaos", &t);
}

/// `results/check.md` — coverage report of the differential verification
/// sweep (DESIGN.md §11, EXPERIMENTS.md "Check").
///
/// Two halves of the `infs-check` contract, both of which must hold for the
/// table to render at all (failures abort the run):
///
/// * **acceptance** — every workload in the suite executes with the structural
///   validator installed as a region auditor, under both the in-memory and
///   near-memory modes (the validator may only reject artifacts the builder
///   could not have produced);
/// * **differential fuzzing** — a fixed-seed campaign of generated kernels,
///   each run through the interpreter oracle plus four machine
///   configurations, must agree bit-for-bit. Its row also sums the cycles
///   of the Inf-S and In-L3 runs at the 256-row geometry, so an optimizer
///   change that moves a campaign cycle shows in this file.
///
/// Acceptance always runs at [`Scale::Test`]: functional interpretation at
/// paper scale takes hours and proves nothing extra about the validator.
pub fn check(ctx: &Ctx) {
    let mut t = Table::new(
        "Check: differential verification coverage",
        &["stage", "runs", "in-memory", "divergences", "status"],
    );

    // Validator acceptance over the workload suite.
    for mode in [ExecMode::InfS, ExecMode::NearL3] {
        let mut accepted = 0usize;
        let mut in_mem = 0u64;
        for b in infs_workloads::full_suite(Scale::Test) {
            let arrays = b.arrays();
            let mut m = Machine::new(ctx.cfg.clone(), &arrays);
            m.set_region_auditor(Some(infs_check::auditor()));
            m.set_functional(true);
            m.set_resident_all();
            b.init(m.memory());
            b.run(&mut m, mode)
                .unwrap_or_else(|e| panic!("validator rejected {} under {mode:?}: {e}", b.name()));
            in_mem += u64::from(m.stats().ops_in_memory > 0);
            accepted += 1;
        }
        t.row(vec![
            format!("workload acceptance ({mode:?})"),
            accepted.to_string(),
            in_mem.to_string(),
            "-".to_string(),
            "all accepted".to_string(),
        ]);
    }

    // Fixed-seed differential fuzzing campaign.
    let kernels = if ctx.quick { 200 } else { 1000 };
    let report = infs_check::fuzz_many(0xC0FFEE, kernels);
    for f in &report.failures {
        eprintln!(
            "seed {:#018x} diverged in {}: {}",
            f.seed, f.divergence.config, f.divergence.what
        );
    }
    assert!(
        report.passed(),
        "{} of {} fuzz kernels diverged",
        report.failures.len(),
        report.run
    );
    t.row(vec![
        format!(
            "differential fuzz ({} kernels, {} tDFG nodes, {} template-patched, \
             {} Inf-S cycles, {} In-L3 cycles)",
            report.run,
            report.total_nodes,
            report.template_patched_runs,
            report.infs_cycles,
            report.inl3_cycles
        ),
        report.machine_runs.to_string(),
        report.in_memory_runs.to_string(),
        report.failures.len().to_string(),
        "bit-identical".to_string(),
    ]);
    ctx.table("check", &t);
}

/// One pipeline graph's fused-vs-roundtrip measurement for [`pipeline`].
struct PipelineRun {
    name: &'static str,
    stages: usize,
    fused: infs_pipeline::PipelineReport,
    roundtrip: infs_pipeline::PipelineReport,
}

/// Runs one graph under both policies on fresh machines, asserts the outputs
/// are bitwise identical and that each run's stage reports add up to its
/// cycles, and returns the two reports. A cycle number from a graph that
/// computed something different would be worse than no number at all, so
/// equivalence gates the measurement.
fn measure_pipeline(
    ctx: &Ctx,
    name: &'static str,
    graph: &infs_pipeline::PipelineGraph,
    arrays: &[infs_sdfg::ArrayDecl],
    seed: &dyn Fn(&mut Machine),
) -> PipelineRun {
    infs_check::validate_pipeline(graph, &ctx.cfg)
        .unwrap_or_else(|e| panic!("pipeline '{name}' failed validation: {e}"));
    let compiled = infs_pipeline::compile(graph, &ctx.cfg).expect("pipeline compiles");

    let mut mf = Machine::new(ctx.cfg.clone(), arrays);
    seed(&mut mf);
    let fused = compiled
        .run_fused(&mut mf, ExecMode::InfS)
        .expect("fused run");

    let mut mr = Machine::new(ctx.cfg.clone(), arrays);
    seed(&mut mr);
    let roundtrip = compiled
        .run_roundtrip(&mut mr, ExecMode::InfS)
        .expect("roundtrip run");

    for &t in graph.produced().iter() {
        let id = infs_sdfg::ArrayId(t);
        assert!(
            mf.memory_ref().array(id) == mr.memory_ref().array(id),
            "pipeline '{name}' tensor '{}' diverges between fused and roundtrip",
            graph.tensors[t as usize].name
        );
    }
    for report in [&fused, &roundtrip] {
        assert_eq!(
            report.stages.iter().map(StageReport::cycles).sum::<u64>(),
            report.total_cycles,
            "pipeline '{name}': stage reports do not add up to the run's cycles"
        );
    }
    PipelineRun {
        name,
        stages: graph.stages.len(),
        fused,
        roundtrip,
    }
}

/// Pipeline figure (DESIGN.md §13): fused streaming-region execution vs the
/// per-kernel host round-trip on the two multi-kernel model graphs — the
/// `mlp_stack` MLP chain and the PointNet SSG classification tail. Both
/// policies run the *same* compiled stages on the same tile; only operand
/// movement differs, so the outputs are asserted bitwise identical before any
/// cycle count is reported.
///
/// Also emits `BENCH_pipeline.json`, the per-graph record of the same table.
/// Fused must beat the round-trip on every graph, or the run fails.
pub fn pipeline(ctx: &Ctx) {
    let mlp = MlpStack::new(ctx.scale());
    let pn = PointNet::new(ctx.scale(), PointNetVariant::Ssg);
    let pn_graph = pn.tail_graph();
    let runs = [
        measure_pipeline(ctx, "mlp_stack", mlp.graph(), &mlp.arrays(), &|m| {
            mlp.init(m.memory());
        }),
        measure_pipeline(ctx, "pointnet_tail", &pn_graph, &pn.arrays(), &|m| {
            pn.seed_tail_inputs(m.memory());
        }),
    ];

    let mut t = Table::new(
        "Pipeline: fused streaming regions vs per-kernel round-trip (Inf-S, outputs bit-identical)",
        &[
            "graph",
            "stages",
            "fused cycles",
            "roundtrip cycles",
            "speedup",
            "prepare stalls",
            "prefetch hidden",
        ],
    );
    let mut record = BenchPipeline {
        scale: ctx.scale_tag().to_string(),
        workloads: Default::default(),
    };
    for r in &runs {
        assert!(
            r.fused.total_cycles < r.roundtrip.total_cycles,
            "{}: fused {} cycles no longer beats the round-trip's {}",
            r.name,
            r.fused.total_cycles,
            r.roundtrip.total_cycles
        );
        let speedup = r.roundtrip.total_cycles as f64 / r.fused.total_cycles as f64;
        t.row(vec![
            r.name.into(),
            r.stages.to_string(),
            r.fused.total_cycles.to_string(),
            r.roundtrip.total_cycles.to_string(),
            Table::f(speedup),
            r.fused.prepare_stall_cycles.to_string(),
            r.fused.prefetch_hidden_cycles.to_string(),
        ]);
        record.workloads.insert(
            r.name.to_string(),
            PipelineRow {
                stages: r.stages as u64,
                fused_cycles: r.fused.total_cycles,
                roundtrip_cycles: r.roundtrip.total_cycles,
                speedup: rounded(speedup, 6),
                prepare_stall_cycles: r.fused.prepare_stall_cycles,
                prefetch_hidden_cycles: r.fused.prefetch_hidden_cycles,
            },
        );
    }
    ctx.table("pipeline", &t);
    ctx.record("pipeline", &record);
}

/// Serving soak (DESIGN.md §14): a deterministic open-loop load —
/// `infs_serve::loadgen` over real loopback sockets — against the serving
/// stack as deployed: the event-driven reactor, request batching on, 4
/// shards × 1 worker behind the consistent-hash tenant router.
///
/// Emits `results/serve.md` and `BENCH_serve.json` (client p50/p99/max
/// latency, goodput RPS, cache hit rates, batch occupancy, per-shard request
/// counts). The load is one fixed size: the numbers are host wall-clock, so
/// there is no paper scale to shrink from. Every request must be answered and
/// every shard accounted for, or the run fails; the latency tail is bounded
/// against the committed record by [`crate::verify`].
pub fn serve(ctx: &Ctx) {
    use infs_serve::loadgen::{self, LoadgenConfig};
    use infs_serve::{serve_reactor, MetricsReport, ServeConfig, ShardCluster};
    use infs_shard::ReactorConfig;
    use std::sync::Arc;

    const WORKERS: usize = 4;
    const SHARDS: u32 = 4;
    let lg = LoadgenConfig {
        rate_rps: 2_000.0,
        duration_ms: 2_000,
        connections: 8,
        // Enough tenants that the consistent-hash ring spreads them over all
        // four shards (8 tenants on 4 shards leaves a shard idle ~40% of the
        // time by the birthday bound), but few distinct bodies per shard, so
        // coalescing identical in-flight requests has something to join.
        tenants: 16,
        seed: 0x5e12_f00d,
        array_len: 256,
        variants: 2,
        deadline_ms: Some(30_000),
    };

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let cluster = Arc::new(ShardCluster::new(
        &ServeConfig {
            workers: WORKERS / SHARDS as usize,
            batching: true,
            ..ServeConfig::default()
        },
        SHARDS,
    ));
    let io = {
        let cluster = cluster.clone();
        std::thread::spawn(move || serve_reactor(&cluster, listener, &ReactorConfig::default()))
    };
    let report = loadgen::run(addr, &lg).expect("load run");
    let metrics = cluster.metrics();
    let per_shard_requests = cluster.shard_requests();
    cluster.begin_shutdown();
    io.join().expect("io thread").expect("reactor");
    cluster.shutdown();
    assert_eq!(report.lost, 0, "the soak lost responses");
    assert_eq!(
        per_shard_requests.len(),
        SHARDS as usize,
        "per-shard request counts do not cover the shards"
    );

    // Goodput: successful responses per wall second — rejections don't count.
    let rps = report.ok as f64 / (report.elapsed_ms.max(1) as f64 / 1000.0);
    let mean_occupancy = match metrics.batch_executions {
        0 => 1.0,
        execs => (execs + metrics.batch_joined) as f64 / execs as f64,
    };
    let artifact_hit_rate = MetricsReport::hit_rate(metrics.artifact_hits, metrics.artifact_misses);
    let jit_hit_rate = MetricsReport::hit_rate(metrics.jit_hits, metrics.jit_misses);

    let mut t = Table::new(
        "Serve soak: event-driven reactor, 4 shards x 1 worker, batching on (open-loop load)",
        &[
            "config",
            "io",
            "shards",
            "ok",
            "rejected",
            "RPS",
            "p50 us",
            "p99 us",
            "mean batch",
            "artifact hit%",
            "jit hit%",
        ],
    );
    let pct = |r: Option<f64>| r.map_or_else(|| "-".to_string(), |r| format!("{:.1}", 100.0 * r));
    t.row(vec![
        "sharded".into(),
        "reactor".into(),
        SHARDS.to_string(),
        report.ok.to_string(),
        metrics.rejected.to_string(),
        Table::f(rps),
        report.latency.percentile(0.50).to_string(),
        report.latency.percentile(0.99).to_string(),
        Table::f(mean_occupancy),
        pct(artifact_hit_rate),
        pct(jit_hit_rate),
    ]);
    ctx.table("serve", &t);
    ctx.record(
        "serve",
        &BenchServe {
            workers_total: WORKERS as u64,
            load: ServeLoad {
                rate_rps: lg.rate_rps,
                duration_ms: lg.duration_ms,
                connections: lg.connections as u64,
                tenants: lg.tenants as u64,
                variants: lg.variants,
                seed: lg.seed,
            },
            sharded: ServeRow {
                shards: u64::from(SHARDS),
                sent: report.sent,
                ok: report.ok,
                rejected: metrics.rejected,
                lost: report.lost,
                rps: rounded(rps, 3),
                p50_us: report.latency.percentile(0.50),
                p99_us: report.latency.percentile(0.99),
                max_us: report.latency.max(),
                artifact_hit_rate: rounded(artifact_hit_rate.unwrap_or(0.0), 6),
                jit_hit_rate: rounded(jit_hit_rate.unwrap_or(0.0), 6),
                batch_executions: metrics.batch_executions,
                batch_joined: metrics.batch_joined,
                batch_max_occupancy: metrics.batch_max_occupancy,
                mean_batch_occupancy: rounded(mean_occupancy, 4),
                per_shard_requests,
            },
        },
    );
}

/// One workload of the autotuning soak.
struct TuneWorkload {
    name: &'static str,
    kernel: infs_frontend::Kernel,
    optimize: bool,
    region: &'static str,
    /// (array id, payload) pairs sent with every execute request.
    inputs: Vec<(u32, Vec<f32>)>,
    /// Array id read back as the output.
    output: u32,
    /// Whether the static §4.1/Eq-2 placement is expected to lose to the
    /// tuner here (the soak's win rows) or to hold (the control row).
    expect_win: bool,
}

/// Per-workload outcome of one soak run (static or tuned server).
struct TuneRun {
    /// Mean cycles of the exploit-path requests in the last quarter of the
    /// soak — the policy's steady-state serving cost. On the static server
    /// every request is an exploit request.
    steady_cycles: u64,
    /// `tuned_variant` label of the last exploit request.
    incumbent: String,
    metrics: infs_serve::MetricsReport,
    /// Output bits of the last response, for bitwise comparison.
    output_bits: Vec<u32>,
}

/// The matrix side length of every soak workload. At 256×256 the ladder
/// kernels sit past Eq-2's crossover: `elems × ops / 16` (the offload side
/// modeled as a 16-lane scalar core) exceeds the bit-serial latency side, so
/// the static heuristic places them in-memory — while the bank-parallel
/// stream engines actually finish first. That model error is exactly what
/// the tuner's observed-cycles feedback corrects.
const TUNE_D: u64 = 256;

/// Execute requests per workload and server — enough for every workload to
/// converge: at 256 the steady-state cycles and incumbents are the same.
const TUNE_REQUESTS: u64 = 96;

fn tune_workloads() -> Vec<TuneWorkload> {
    use infs_serve::demo;
    let d = TUNE_D;
    let a: Vec<f32> = (0..d * d).map(|x| 1.0 + (x % 7) as f32 * 0.125).collect();
    let b: Vec<f32> = (0..d * d).map(|x| 0.5 + (x % 5) as f32 * 0.25).collect();
    vec![
        TuneWorkload {
            name: "mat_update/8",
            kernel: demo::mat_update(d, 8),
            optimize: false,
            region: "mat_update",
            inputs: vec![(0, a.clone()), (1, b.clone())],
            output: 2,
            expect_win: true,
        },
        TuneWorkload {
            name: "mat_update/32",
            kernel: demo::mat_update(d, 32),
            optimize: false,
            region: "mat_update",
            inputs: vec![(0, a.clone()), (1, b.clone())],
            output: 2,
            expect_win: true,
        },
        TuneWorkload {
            name: "mat_muladd/8",
            kernel: demo::mat_muladd(d, 8),
            optimize: false,
            region: "mat_muladd",
            inputs: vec![(0, a.clone()), (1, b.clone())],
            output: 2,
            expect_win: true,
        },
        TuneWorkload {
            name: "mat_muladd/32",
            kernel: demo::mat_muladd(d, 32),
            optimize: false,
            region: "mat_muladd",
            inputs: vec![(0, a.clone()), (1, b.clone())],
            output: 2,
            expect_win: true,
        },
        TuneWorkload {
            name: "mat_stencil",
            kernel: demo::mat_stencil(d),
            optimize: true,
            region: "mat_stencil",
            inputs: vec![(0, a)],
            output: 1,
            expect_win: false,
        },
    ]
}

/// Drives [`TUNE_REQUESTS`] identical execute requests for one workload
/// against a server and distills the steady state. Sequential calls on a
/// single-worker, batching-off server: the request order — and with it every
/// tune decision — is a pure function of the config.
fn tune_soak(
    server: &infs_serve::Server,
    w: &TuneWorkload,
    reference_bits: Option<&[u32]>,
) -> TuneRun {
    use infs_serve::{
        ArrayPayload, CompileRequest, ExecuteRequest, Request, RequestBody, WireMode,
    };
    let compile = server.call(Request {
        id: 0,
        tenant: "tune".into(),
        deadline_ms: None,
        body: RequestBody::Compile(CompileRequest {
            kernel: w.kernel.clone(),
            representative_syms: vec![],
            optimize: w.optimize,
        }),
    });
    assert!(
        compile.ok,
        "{}: compile failed: {:?}",
        w.name, compile.error
    );
    let artifact = compile.artifact.expect("compile yields an artifact");

    let mut log: Vec<(u64, bool, String)> = Vec::new();
    let mut output_bits = Vec::new();
    for i in 0..TUNE_REQUESTS {
        let r = server.call(Request {
            id: 1 + i,
            tenant: "tune".into(),
            deadline_ms: None,
            body: RequestBody::Execute(ExecuteRequest {
                artifact: Some(artifact.clone()),
                binary: None,
                region: w.region.to_string(),
                syms: vec![],
                params: vec![],
                mode: WireMode::InfS,
                inputs: w
                    .inputs
                    .iter()
                    .map(|(id, data)| ArrayPayload {
                        array: *id,
                        data: data.clone(),
                    })
                    .collect(),
                outputs: vec![w.output],
            }),
        });
        assert!(r.ok, "{}: execute {i} failed: {:?}", w.name, r.error);
        output_bits = r.outputs[0].data.iter().map(|v| v.to_bits()).collect();
        if let Some(want) = reference_bits {
            assert_eq!(
                output_bits, want,
                "{}: request {i} output diverges bitwise from the static \
                 reference (variant {:?})",
                w.name, r.stats.tuned_variant
            );
        }
        log.push((
            r.stats.cycles,
            r.stats.tuned_explore,
            r.stats.tuned_variant.unwrap_or_else(|| "static".into()),
        ));
    }

    let tail = &log[log.len() - log.len() / 4..];
    let exploit: Vec<&(u64, bool, String)> = tail.iter().filter(|(_, e, _)| !e).collect();
    assert!(
        !exploit.is_empty(),
        "{}: no exploit request in the tail",
        w.name
    );
    let steady_cycles = (exploit.iter().map(|(c, _, _)| u128::from(*c)).sum::<u128>()
        / exploit.len() as u128) as u64;
    TuneRun {
        steady_cycles,
        incumbent: exploit.last().expect("nonempty").2.clone(),
        metrics: server.metrics(),
        output_bits,
    }
}

/// The tune soak's server: one worker, batching off — so request order is
/// deterministic — with `infs-check`'s region auditor installed on every
/// session, auditing every explored variant before it executes.
fn tune_server(
    tune: Option<infs_serve::TuneConfig>,
    faults: Option<infs_faults::FaultConfig>,
) -> infs_serve::Server {
    infs_serve::Server::new(infs_serve::ServeConfig {
        workers: 1,
        batching: false,
        tune,
        faults,
        auditor: Some(infs_check::auditor()),
        ..infs_serve::ServeConfig::default()
    })
}

/// The `DESIGN.md` §15 autotuning soak: each matrix workload is served twice
/// — once by a static server (the paper's §4.1/Eq-2 placement) and once by a
/// tuned server under a fixed seed — plus a chaos-and-retune drill. Every
/// tuned response is checked bitwise against the static reference, so the
/// tuner can only ever re-place work, never change its result. Emits
/// `results/tune.md`, `results/tune_retune.md` and `BENCH_tune.json`. The soak
/// serves 256×256 demo kernels, not a Table 3 workload, so it has one size at
/// every scale.
pub fn tune(ctx: &Ctx) {
    use infs_serve::TuneConfig;

    let tune_cfg = TuneConfig {
        // Hotter exploration and a lower sample floor than the serving
        // default: the soak wants convergence within a bounded request
        // budget, and the deterministic simulator makes tiny samples exact.
        explore_percent: 40,
        min_samples: 2,
        ..TuneConfig::seeded(0x7C3A_11E5)
    };

    let mut t = Table::new(
        "Autotuning soak: tuned steady-state vs the static \u{a7}4.1/Eq-2 placement \
         (steady state = mean exploit-path cycles over the soak's last quarter; \
         every tuned response bitwise-identical to the static reference)",
        &[
            "workload",
            "static cycles",
            "tuned cycles",
            "speedup",
            "incumbent",
            "promotions",
            "explored",
        ],
    );
    let mut workloads = std::collections::BTreeMap::new();
    let mut wins = 0u64;
    for w in &tune_workloads() {
        let static_server = tune_server(None, None);
        let stat = tune_soak(&static_server, w, None);
        static_server.shutdown();

        let tuned_server = tune_server(Some(tune_cfg.clone()), None);
        let tuned = tune_soak(&tuned_server, w, Some(&stat.output_bits));
        tuned_server.shutdown();

        let speedup = stat.steady_cycles as f64 / tuned.steady_cycles.max(1) as f64;
        let win = tuned.steady_cycles < stat.steady_cycles;
        assert!(
            tuned.steady_cycles <= stat.steady_cycles,
            "{}: tuned steady state {} regressed past static {}",
            w.name,
            tuned.steady_cycles,
            stat.steady_cycles
        );
        if w.expect_win {
            assert!(
                win,
                "{}: expected a tuner win, got static {} vs tuned {}",
                w.name, stat.steady_cycles, tuned.steady_cycles
            );
            wins += 1;
        }
        t.row(vec![
            w.name.into(),
            stat.steady_cycles.to_string(),
            tuned.steady_cycles.to_string(),
            Table::f(speedup),
            tuned.incumbent.clone(),
            tuned.metrics.tune_promotions.to_string(),
            tuned.metrics.tune_explored.to_string(),
        ]);
        workloads.insert(
            w.name.to_string(),
            TuneRow {
                static_cycles: stat.steady_cycles,
                tuned_cycles: tuned.steady_cycles,
                speedup: rounded(speedup, 4),
                incumbent: tuned.incumbent,
                promotions: tuned.metrics.tune_promotions,
                demotions: tuned.metrics.tune_demotions,
                explored: tuned.metrics.tune_explored,
                exploited: tuned.metrics.tune_exploited,
            },
        );
    }
    assert!(wins >= 3, "fewer than 3 tuner wins ({wins})");
    ctx.table("tune", &t);

    // The retune drill: same tuned soak, but a seeded SRAM-flip schedule
    // quarantines banks mid-run. The first flips land after the tuner has
    // promoted, so the drill exercises the full ladder: promote -> fault ->
    // demote -> re-converge on the post-fault machine.
    let drill = &tune_workloads()[1]; // mat_update/32: the widest-margin win
    let static_server = tune_server(None, None);
    let healthy = tune_soak(&static_server, drill, None);
    static_server.shutdown();
    let faults = infs_faults::FaultConfig {
        seed: 0xD2111,
        // The schedule draws one flip per region with probability 1/period:
        // ~8 expected over the soak, spread so some land after the first
        // promotion (those count as demotions) and quarantines keep arriving
        // while the tuner re-converges.
        sram_flip_period: 12,
        ..infs_faults::FaultConfig::none()
    };
    let chaos_server = tune_server(Some(tune_cfg.clone()), Some(faults));
    let drilled = tune_soak(&chaos_server, drill, Some(&healthy.output_bits));
    let health = chaos_server.health();
    chaos_server.shutdown();
    assert!(
        drilled.metrics.tune_demotions >= 1,
        "retune drill never demoted (banks lost: {})",
        health.total_banks - health.healthy_banks
    );
    assert!(
        health.healthy_banks < health.total_banks,
        "retune drill quarantined no banks"
    );

    let mut rt = Table::new(
        "Retune drill: mat_update/32 under a seeded SRAM-flip schedule \
         (quarantines land mid-soak; outputs stay bitwise-identical throughout)",
        &[
            "banks lost",
            "demotions",
            "promotions",
            "steady cycles",
            "incumbent after",
        ],
    );
    rt.row(vec![
        (health.total_banks - health.healthy_banks).to_string(),
        drilled.metrics.tune_demotions.to_string(),
        drilled.metrics.tune_promotions.to_string(),
        drilled.steady_cycles.to_string(),
        drilled.incumbent.clone(),
    ]);
    ctx.table("tune_retune", &rt);

    ctx.record(
        "tune",
        &BenchTune {
            seed: tune_cfg.seed,
            requests: TUNE_REQUESTS,
            explore_percent: u64::from(tune_cfg.explore_percent),
            min_samples: tune_cfg.min_samples,
            promote_margin_percent: u64::from(tune_cfg.promote_margin_percent),
            d: TUNE_D,
            wins,
            workloads,
            retune: RetuneRow {
                workload: drill.name.to_string(),
                banks_lost: u64::from(health.total_banks - health.healthy_banks),
                demotions: drilled.metrics.tune_demotions,
                promotions: drilled.metrics.tune_promotions,
                steady_cycles: drilled.steady_cycles,
                incumbent: drilled.incumbent,
            },
        },
    );
}
