//! `paper_suite`: what regenerating the paper's figures costs. In-process,
//! one thread, timing-only exactly as `infs_workloads::run_timed` runs a
//! cell, every row under Base(64), Near-L3 and Inf-S with a fresh `Machine`
//! and a fresh `JitCache` per cell. `runtime` + `sim` do nearly all the work;
//! the constructors (compilation) sit in set-up.

use crate::gen::Rng;
use crate::harness::{best_us, self_ms, Metrics, Op, Window, Workload, NO_ROW};
use crate::heads::{Conv3dHead, GaussHead};
use crate::spans::Spans;
use crate::stats::{geomean, ratio};
use infs_pipeline::CompiledPipeline;
use infs_runtime::JitCache;
use infs_sdfg::{ArrayDecl, ArrayId};
use infs_sim::{ExecMode, Machine, RunStats, SystemConfig};
use infs_workloads::{by_name, verify, Benchmark, MlpStack, PointNet, PointNetVariant, Scale};
use std::sync::Arc;
use std::time::Instant;

/// Row name → `infs_workloads::by_name` name. The first 13 are Table 3.
const BY_NAME: [(&str, &str); 14] = [
    ("stencil1d", "stencil1d"),
    ("stencil2d", "stencil2d"),
    ("stencil3d", "stencil3d"),
    ("dwt2d", "dwt2d"),
    ("gauss_elim", "gauss_elim"),
    ("conv2d", "conv2d"),
    ("conv3d", "conv3d"),
    ("mm_in", "mm/in"),
    ("mm_out", "mm/out"),
    ("kmeans_in", "kmeans/in"),
    ("kmeans_out", "kmeans/out"),
    ("gather_mlp_in", "gather_mlp/in"),
    ("gather_mlp_out", "gather_mlp/out"),
    ("mlp_stack", "mlp_stack"),
];
const TABLE3_ROWS: usize = 13;

const MODES: [ExecMode; 3] = [
    ExecMode::Base { threads: 64 },
    ExecMode::NearL3,
    ExecMode::InfS,
];
const BASE: usize = 0;
const NEAR_L3: usize = 1;
const INF_S: usize = 2;

enum Runner {
    Bench(Box<dyn Benchmark>),
    Gauss(Box<GaussHead>),
    Conv3d(Box<Conv3dHead>),
    Tail {
        compiled: CompiledPipeline,
        arrays: Vec<ArrayDecl>,
    },
}

impl Runner {
    /// One cell, on a machine lowering through `jit`.
    fn run(&self, mode: ExecMode, cfg: &SystemConfig, jit: Arc<JitCache>) -> RunStats {
        let arrays = match self {
            Runner::Bench(b) => b.arrays(),
            Runner::Gauss(g) => g.arrays(),
            Runner::Conv3d(c) => c.arrays(),
            Runner::Tail { arrays, .. } => arrays.clone(),
        };
        let mut m = Machine::with_jit(cfg.clone(), &arrays, jit);
        m.set_functional(false);
        match self {
            Runner::Tail { compiled, .. } => {
                // Cold operands: staging them is what the fused schedule hides.
                compiled.run_fused(&mut m, mode).expect("tail runs");
            }
            _ => {
                // §6: inputs are assumed tiled to fit in (and warm in) the L3.
                m.set_resident_all();
                match self {
                    Runner::Bench(b) => b.run(&mut m, mode),
                    Runner::Gauss(g) => g.run(&mut m, mode),
                    Runner::Conv3d(c) => c.run(&mut m, mode),
                    Runner::Tail { .. } => unreachable!(),
                }
                .expect("paper-scale rows simulate");
            }
        }
        m.finish()
    }
}

/// When a cell started and ended.
type Stamp = (Instant, Instant);

struct Cell {
    row: usize,
    mode: usize,
    /// Simulated outcome of the first run; every later run must equal it.
    stats: Option<RunStats>,
}

pub struct PaperSuite {
    cfg: SystemConfig,
    rows: Vec<(String, Runner)>,
    /// All row × mode cells in this seed's order.
    cells: Vec<Cell>,
    mlp: MlpStack,
    pointnet: PointNet,
    verified: (u64, u64),
}

fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Output verification at `Scale::Test`, off the clock. Returns (checked, failed).
fn verify_at_test_scale(cfg: &SystemConfig) -> (u64, u64) {
    let (mut checked, mut failed) = (0, 0);
    let mut check = |ok: bool, what: &str| {
        checked += 1;
        if !ok {
            failed += 1;
            eprintln!("paper_suite: verification failed: {what}");
        }
    };
    for (row, name) in BY_NAME {
        let b = by_name(name, Scale::Test).expect("row names are by_name names");
        for mode in [ExecMode::NearL3, ExecMode::InfS] {
            let r = verify(b.as_ref(), mode, cfg);
            check(r.is_ok(), &format!("{row} {mode:?}: {r:?}"));
        }
    }

    // PointNet has no scalar reference (host-side steps sit between its
    // regions); its contract is that every configuration yields the logits
    // the cores compute.
    let pn = PointNet::new(Scale::Test, PointNetVariant::Ssg);
    let logits = |mode| {
        let mut m = Machine::new(cfg.clone(), &pn.arrays());
        pn.init(m.memory());
        pn.run(&mut m, mode).expect("pointnet runs");
        let out = pn.output_arrays()[0];
        m.memory_ref().array(out).to_vec()
    };
    let want = logits(ExecMode::Base { threads: 64 });
    for mode in [ExecMode::NearL3, ExecMode::InfS] {
        check(
            bitwise_eq(&logits(mode), &want),
            &format!("pointnet_ssg {mode:?} vs Base"),
        );
    }

    let graph = pn.tail_graph();
    let compiled = infs_pipeline::compile(&graph, cfg).expect("tail compiles");
    let produced = |mode, fused: bool| {
        let mut m = Machine::new(cfg.clone(), &pn.arrays());
        pn.seed_tail_inputs(m.memory());
        if fused {
            compiled.run_fused(&mut m, mode).expect("tail runs");
        } else {
            compiled.run_roundtrip(&mut m, mode).expect("tail runs");
        }
        graph
            .produced()
            .iter()
            .map(|&t| m.memory_ref().array(ArrayId(t)).to_vec())
            .collect::<Vec<_>>()
    };
    let want = produced(ExecMode::Base { threads: 64 }, false);
    for (what, got) in [
        ("fused", produced(ExecMode::InfS, true)),
        ("roundtrip", produced(ExecMode::InfS, false)),
    ] {
        let ok = got.iter().zip(&want).all(|(g, w)| bitwise_eq(g, w));
        check(
            ok,
            &format!("pointnet_tail Inf-S {what} vs Base round trip"),
        );
    }
    (checked, failed)
}

impl PaperSuite {
    /// Runs every cell once in order and returns, beside the window, when each
    /// cell started and ended. With `warm`, every Inf-S cell is followed by a
    /// second pass on the cache the first one filled, stamped into `warm`.
    fn pass(&mut self, mut warm: Option<&mut Vec<Stamp>>) -> (Window, Vec<Stamp>) {
        let mut ops = Vec::with_capacity(self.cells.len());
        let mut stamps = Vec::with_capacity(self.cells.len());
        let mut failed = 0;
        let t_window = Instant::now();
        for cell in &mut self.cells {
            let runner = &self.rows[cell.row].1;
            let jit = Arc::new(JitCache::new());
            let t0 = Instant::now();
            let stats = runner.run(MODES[cell.mode], &self.cfg, jit.clone());
            let t1 = Instant::now();
            stamps.push((t0, t1));
            ops.push(Op {
                row: if cell.mode == INF_S { cell.row } else { NO_ROW },
                us: (t1 - t0).as_secs_f64() * 1e6,
            });
            match &cell.stats {
                // The simulated clock must not depend on the host's.
                Some(first) if *first != stats => failed += 1,
                Some(_) => {}
                None => cell.stats = Some(stats),
            }
            if let (Some(warm), INF_S) = (warm.as_deref_mut(), cell.mode) {
                let t0 = Instant::now();
                runner.run(MODES[INF_S], &self.cfg, jit);
                warm.push((t0, Instant::now()));
            }
        }
        let window = Window {
            wall_s: t_window.elapsed().as_secs_f64(),
            ops,
            failed,
        };
        (window, stamps)
    }

    fn stats(&self, row: usize, mode: usize) -> &RunStats {
        self.cells
            .iter()
            .find(|c| c.row == row && c.mode == mode)
            .and_then(|c| c.stats.as_ref())
            .expect("every cell ran")
    }

    fn cell_index(&self, row: usize, mode: usize) -> usize {
        self.cells
            .iter()
            .position(|c| c.row == row && c.mode == mode)
            .expect("every cell exists")
    }
}

impl Workload for PaperSuite {
    const NAME: &'static str = "paper_suite";
    const PER_OP_BEST: bool = true;

    fn setup(seed: u64) -> Self {
        let cfg = SystemConfig::default();
        let verified = verify_at_test_scale(&cfg);

        let mut rows: Vec<(String, Runner)> = Vec::new();
        for (row, name) in BY_NAME {
            let runner = match row {
                "gauss_elim" => Runner::Gauss(Box::new(GaussHead::new())),
                "conv3d" => Runner::Conv3d(Box::new(Conv3dHead::new())),
                _ => {
                    Runner::Bench(by_name(name, Scale::Paper).expect("row names are by_name names"))
                }
            };
            rows.push((row.to_string(), runner));
        }
        let pointnet = PointNet::new(Scale::Paper, PointNetVariant::Ssg);
        let tail = infs_pipeline::compile(&pointnet.tail_graph(), &cfg).expect("tail compiles");
        rows.push((
            "pointnet_ssg".into(),
            Runner::Bench(Box::new(PointNet::new(Scale::Paper, PointNetVariant::Ssg))),
        ));
        rows.push((
            "pointnet_tail".into(),
            Runner::Tail {
                compiled: tail,
                arrays: pointnet.arrays(),
            },
        ));

        // The rows and their shapes are the paper's, and a timing-only run
        // reads no tensor data: all the seed can decide is which cell of the
        // fixed cycle a window starts at.
        let mut cells: Vec<Cell> = (0..rows.len())
            .flat_map(|row| {
                (0..MODES.len()).map(move |mode| Cell {
                    row,
                    mode,
                    stats: None,
                })
            })
            .collect();
        Rng::order().shuffle(&mut cells);
        let start = (seed % cells.len() as u64) as usize;
        cells.rotate_left(start);

        PaperSuite {
            cfg,
            rows,
            cells,
            mlp: MlpStack::new(Scale::Paper),
            pointnet,
            verified,
        }
    }

    fn verified(&self) -> (u64, u64) {
        self.verified
    }

    fn rows(&self) -> Vec<String> {
        self.rows.iter().map(|(name, _)| name.clone()).collect()
    }

    fn window(&mut self, _w: usize) -> Window {
        self.pass(None).0
    }

    fn traced_window(&mut self, _w: usize, spans: &mut Spans) -> Window {
        let mut warm = Vec::new();
        let (window, stamps) = self.pass(Some(&mut warm));
        for (i, (cell, (t0, t1))) in self.cells.iter().zip(&stamps).enumerate() {
            let name = ["sim.base_cell", "sim.nearl3_cell", "sim.infs_cell"][cell.mode];
            spans.record(name, i as u64, None, spans.at_ns(*t0), spans.at_ns(*t1));
        }
        for (i, (t0, t1)) in warm.iter().enumerate() {
            spans.record(
                "runtime.warm_jit_cell",
                i as u64,
                None,
                spans.at_ns(*t0),
                spans.at_ns(*t1),
            );
        }
        window
    }

    fn layers(self, traced: &[(Window, Spans)], out: &mut Metrics) {
        let n_rows = self.rows.len();
        let windows: Vec<&Window> = traced.iter().map(|(w, _)| w).collect();
        let host_ms = |row: usize, mode: usize| best_us(&windows, self.cell_index(row, mode)) / 1e3;
        let sum_host_ms = |mode: usize| (0..n_rows).map(|r| host_ms(r, mode)).sum::<f64>();

        let mut infs = RunStats::default();
        for row in 0..n_rows {
            infs.accumulate(self.stats(row, INF_S));
        }
        let speedup =
            |row: usize| self.stats(row, BASE).cycles as f64 / self.stats(row, INF_S).cycles as f64;
        for (row, (name, _)) in self.rows.iter().enumerate() {
            out.insert(format!("sim.host_ms.{name}"), host_ms(row, INF_S));
            out.insert(format!("sim.speedup.{name}"), speedup(row));
        }
        out.insert("sim_cycles".into(), infs.cycles as f64);
        out.insert(
            "infs_speedup_geomean".into(),
            geomean(&(0..TABLE3_ROWS).map(speedup).collect::<Vec<_>>()),
        );
        let infs_host_ms = sum_host_ms(INF_S);
        out.insert("sim.nearl3_host_ms".into(), sum_host_ms(NEAR_L3));
        out.insert("sim.base_host_ms".into(), sum_host_ms(BASE));
        out.insert(
            "sim.cycles_per_host_s".into(),
            infs.cycles as f64 / (infs_host_ms / 1e3),
        );
        let b = infs.breakdown;
        for (name, v) in [
            ("dram", b.dram),
            ("jit", b.jit),
            ("mv", b.mv),
            ("compute", b.compute),
            ("final_reduce", b.final_reduce),
            ("mix", b.mix),
            ("near_mem", b.near_mem),
            ("core", b.core),
        ] {
            out.insert(format!("sim.cycles.{name}"), v as f64);
        }
        out.insert(
            "sim.cycles.unattributed".into(),
            infs.cycles as f64 - b.total() as f64,
        );
        out.insert(
            "sim.ops_in_memory_share".into(),
            infs.in_memory_op_fraction(),
        );

        out.insert("runtime.jit_lowerings".into(), infs.jit_misses as f64);
        out.insert(
            "runtime.jit_template_hits".into(),
            infs.jit_template_hits as f64,
        );
        out.insert("runtime.jit_cmd_hit_rate".into(), infs.jit_cmd_hit_rate());
        out.insert(
            "runtime.host_ms_per_jit_entry".into(),
            ratio(
                infs_host_ms - sum_host_ms(NEAR_L3),
                (infs.jit_hits + infs.jit_misses) as f64,
            ),
        );
        out.insert(
            "runtime.warm_jit_host_ms".into(),
            self_ms(traced, "runtime.warm_jit_cell"),
        );

        // The two pipeline graphs, fused against per-kernel round trip.
        let t0 = Instant::now();
        let tail =
            infs_pipeline::compile(&self.pointnet.tail_graph(), &self.cfg).expect("tail compiles");
        let mlp = infs_pipeline::compile(self.mlp.graph(), &self.cfg).expect("mlp_stack compiles");
        out.insert(
            "pipeline.compile_ms".into(),
            t0.elapsed().as_secs_f64() * 1e3,
        );
        for (name, compiled, arrays) in [
            ("mlp_stack", &mlp, self.mlp.arrays()),
            ("pointnet_tail", &tail, self.pointnet.arrays()),
        ] {
            let cycles = |fused: bool| {
                let mut m = Machine::new(self.cfg.clone(), &arrays);
                m.set_functional(false);
                let r = if fused {
                    compiled.run_fused(&mut m, ExecMode::InfS)
                } else {
                    compiled.run_roundtrip(&mut m, ExecMode::InfS)
                };
                r.expect("pipeline runs").total_cycles as f64
            };
            out.insert(
                format!("pipeline.fused_speedup.{name}"),
                cycles(false) / cycles(true),
            );
        }
    }
}
