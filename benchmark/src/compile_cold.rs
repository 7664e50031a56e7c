//! `compile_cold`: in-process, one thread, no simulation. `frontend`,
//! `egraph` and `isa` do all the work and `sim` none. E-graph cost is
//! independent of tensor size and grows steeply with expression depth, so
//! depth is the property the programs vary.

use crate::gen::{self, Family, Rng};
use crate::harness::{self_ms, Metrics, Op, Window, Workload};
use crate::spans::Spans;
use crate::stats::ratio;
use infs_check::{validate_graph, validate_schedule};
use infs_frontend::Kernel;
use infs_isa::{CompiledRegion, Compiler, FatBinary, Schedule};
use infs_pipeline::PipelineGraph;
use infs_runtime::TransposedLayout;
use infs_serve::demo;
use infs_sim::SystemConfig;
use infs_workloads::{by_name, Scale};
use std::time::Instant;

const CONSTRUCTORS: [&str; 14] = [
    "stencil1d",
    "stencil2d",
    "stencil3d",
    "dwt2d",
    "gauss_elim",
    "conv2d",
    "conv3d",
    "mm/in",
    "mm/out",
    "kmeans/in",
    "kmeans/out",
    "gather_mlp/in",
    "gather_mlp/out",
    "mlp_stack",
];

enum Source {
    /// A workload constructor at `Scale::Paper`: compiles every region the
    /// workload owns.
    Constructor(&'static str),
    Kernel(Kernel),
    Pipeline(PipelineGraph),
}

struct Program {
    row: usize,
    source: Source,
    /// Generated gathers must come back near-memory-only.
    expect_tensorizable: Option<bool>,
}

pub struct CompileCold {
    cfg: SystemConfig,
    compiler: Compiler,
    rows: Vec<String>,
    programs: Vec<Program>,
    verified: (u64, u64),
    compile_fail: u64,
}

fn demo_kernels() -> Vec<(&'static str, Kernel)> {
    vec![
        ("demo_scale_65536", demo::scale(65536)),
        ("demo_vec_add_65536", demo::vec_add(65536)),
        ("demo_stencil_4096", demo::stencil(4096)),
        ("demo_mat_update_256_8", demo::mat_update(256, 8)),
        ("demo_mat_update_256_12", demo::mat_update(256, 12)),
        ("demo_mat_muladd_256_8", demo::mat_muladd(256, 8)),
        ("demo_mat_stencil_256", demo::mat_stencil(256)),
    ]
}

impl CompileCold {
    /// Structural validation of a compiled region, off the clock.
    fn verify_region(region: &CompiledRegion, expect: Option<bool>) -> Result<(), String> {
        if let Some(want) = expect.filter(|&want| want != region.tensorizable) {
            return Err(format!(
                "tensorizable is {}, expected {want}",
                region.tensorizable
            ));
        }
        let inst = region
            .representative
            .as_ref()
            .ok_or("no representative instance")?;
        if let Some(g) = &inst.tdfg {
            validate_graph(g).map_err(|e| e.to_string())?;
            for s in &inst.schedules {
                validate_schedule(g, s).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// The operation this workload times: one program compiled from source.
    fn compile(&self, p: &Program) -> Result<Option<CompiledRegion>, String> {
        match &p.source {
            Source::Constructor(name) => {
                std::hint::black_box(by_name(name, Scale::Paper).ok_or("unknown workload")?);
                Ok(None)
            }
            Source::Kernel(k) => self
                .compiler
                .compile(k.clone(), &[])
                .map(Some)
                .map_err(|e| e.to_string()),
            Source::Pipeline(g) => {
                std::hint::black_box(
                    infs_pipeline::compile(g, &self.cfg).map_err(|e| e.to_string())?,
                );
                Ok(None)
            }
        }
    }

    /// The stages of `Compiler::compile`, one public call each, so each gets
    /// a span of its own.
    fn stepwise(&self, k: &Kernel, region: &CompiledRegion, op: u64, spans: &mut Spans) {
        spans.scope("compile_cold.stepwise", op, |s| {
            let _ = s.scope("frontend.streamize", op, |_| k.streamize(&[]));
            if let Ok(g) = s.scope("frontend.tensorize", op, |_| k.tensorize(&[])) {
                let opt = s.scope("egraph.optimize", op, |_| {
                    infs_egraph::optimize(&g, &self.compiler.cost)
                });
                if let Ok(opt) = opt {
                    s.scope("isa.schedule", op, |_| {
                        self.compiler
                            .geometries
                            .iter()
                            .any(|&geom| Schedule::compute(&opt, geom).is_ok())
                    });
                }
            }
            // The fifth stage embeds the representative instantiation, which
            // runs the first four again.
            let inst = s.scope("isa.instantiate", op, |_| region.instantiate(&[]));

            // What the runtime would do with the instance at region entry.
            let Ok(inst) = inst else { return };
            let (Some(g), Some(schedule)) = (&inst.tdfg, inst.schedule_for(self.cfg.geometry))
            else {
                return;
            };
            let hw = self.cfg.hw();
            let layout = s.scope("runtime.layout_plan", op, |_| {
                TransposedLayout::plan(g, &inst.hints, &hw)
            });
            if let Ok(layout) = layout {
                let _ = s.scope("runtime.lower", op, |_| {
                    infs_runtime::lower(g, schedule, &layout, &hw)
                });
            }
        });
    }

    fn run_window(&mut self, mut spans: Option<&mut Spans>) -> Window {
        let mut ops = Vec::with_capacity(self.programs.len());
        let mut failed = 0;
        let t_window = Instant::now();
        for (i, p) in self.programs.iter().enumerate() {
            let t0 = Instant::now();
            let result = self.compile(p);
            let t1 = Instant::now();
            ops.push(Op {
                row: p.row,
                us: (t1 - t0).as_secs_f64() * 1e6,
            });
            if result.is_err() {
                failed += 1;
            }
            let Some(spans) = spans.as_deref_mut() else {
                continue;
            };
            let name = match p.source {
                Source::Constructor(_) => "workloads.constructor",
                Source::Kernel(_) => "isa.compile",
                Source::Pipeline(_) => "pipeline.compile",
            };
            spans.record(name, i as u64, None, spans.at_ns(t0), spans.at_ns(t1));
            if let (Source::Kernel(k), Ok(Some(region))) = (&p.source, &result) {
                self.stepwise(k, region, i as u64, spans);
            }
        }
        self.compile_fail += failed;
        Window {
            wall_s: t_window.elapsed().as_secs_f64(),
            ops,
            failed,
        }
    }
}

impl Workload for CompileCold {
    const NAME: &'static str = "compile_cold";
    const PER_OP_BEST: bool = true;

    fn setup(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut rows: Vec<String> = Vec::new();
        let mut programs = Vec::new();
        let mut add = |name: String, source, expect_tensorizable| {
            let row = rows.iter().position(|r| *r == name).unwrap_or_else(|| {
                rows.push(name);
                rows.len() - 1
            });
            programs.push(Program {
                row,
                source,
                expect_tensorizable,
            });
        };
        for name in CONSTRUCTORS {
            add(
                format!("new_{}", name.replace('/', "_")),
                Source::Constructor(name),
                None,
            );
        }
        for (name, k) in demo_kernels() {
            add(name.to_string(), Source::Kernel(k), Some(true));
        }
        add(
            "demo_pipeline_4096".into(),
            Source::Pipeline(demo::pipeline(4096, 3.0)),
            None,
        );
        for (i, (family, param)) in gen::plan().into_iter().enumerate() {
            add(
                family.label().to_string(),
                Source::Kernel(gen::kernel(family, param, i, &mut rng)),
                Some(family != Family::Gather),
            );
        }
        Rng::order().shuffle(&mut programs);

        let mut this = CompileCold {
            cfg: SystemConfig::default(),
            compiler: Compiler::default(),
            rows,
            programs,
            verified: (0, 0),
            compile_fail: 0,
        };
        // Verification, off the clock: every kernel's region must pass the
        // structural validators, and the gathers must be near-memory-only.
        let (mut checked, mut bad) = (0, 0);
        for p in this
            .programs
            .iter()
            .filter(|p| matches!(p.source, Source::Kernel(_)))
        {
            checked += 1;
            let verdict = match this.compile(p) {
                Ok(Some(region)) => Self::verify_region(&region, p.expect_tensorizable),
                Ok(None) => Ok(()),
                Err(e) => Err(e),
            };
            if let Err(e) = verdict {
                bad += 1;
                eprintln!(
                    "compile_cold: verification failed: row {}: {e}",
                    this.rows[p.row]
                );
            }
        }
        this.verified = (checked, bad);
        this
    }

    fn verified(&self) -> (u64, u64) {
        self.verified
    }

    fn rows(&self) -> Vec<String> {
        self.rows.clone()
    }

    fn window(&mut self, _w: usize) -> Window {
        self.run_window(None)
    }

    fn traced_window(&mut self, _w: usize, spans: &mut Spans) -> Window {
        self.run_window(Some(spans))
    }

    fn layers(self, traced: &[(Window, Spans)], out: &mut Metrics) {
        for (metric, span) in [
            ("frontend.streamize_ms", "frontend.streamize"),
            ("frontend.tensorize_ms", "frontend.tensorize"),
            ("egraph.optimize_ms", "egraph.optimize"),
            ("isa.compile_ms", "isa.compile"),
            ("isa.schedule_ms", "isa.schedule"),
            ("isa.instantiate_ms", "isa.instantiate"),
            ("runtime.layout_plan_ms", "runtime.layout_plan"),
            ("runtime.lower_ms", "runtime.lower"),
            ("pipeline.compile_ms", "pipeline.compile"),
        ] {
            out.insert(metric.into(), self_ms(traced, span));
        }
        // The five stages of `Compiler::compile`, called one by one, must
        // account for what the one call costs.
        let stages: f64 = [
            "frontend.streamize",
            "frontend.tensorize",
            "egraph.optimize",
            "isa.schedule",
            "isa.instantiate",
        ]
        .iter()
        .map(|s| self_ms(traced, s))
        .sum();
        out.insert(
            "isa.stage_sum_share".into(),
            ratio(stages, out["isa.compile_ms"]),
        );

        // Exact counts, from one more compile of every kernel.
        let (mut kernels, mut tensorizable, mut json_bytes) = (0u64, 0u64, 0u64);
        let (mut n_in, mut n_out) = (0u64, 0u64);
        for p in &self.programs {
            let Source::Kernel(k) = &p.source else {
                continue;
            };
            kernels += 1;
            if let Ok(g) = k.tensorize(&[]) {
                if let Ok(opt) = infs_egraph::optimize(&g, &self.compiler.cost) {
                    n_in += g.nodes().len() as u64;
                    n_out += opt.nodes().len() as u64;
                }
            }
            if let Ok(Some(region)) = self.compile(p) {
                tensorizable += u64::from(region.tensorizable);
                let mut fb = FatBinary::new();
                fb.push(region);
                json_bytes += fb.to_json().map_or(0, |j| j.len() as u64);
            }
        }
        out.insert(
            "frontend.tensorizable_share".into(),
            ratio(tensorizable as f64, kernels as f64),
        );
        out.insert("egraph.nodes_in".into(), n_in as f64);
        out.insert("egraph.nodes_out".into(), n_out as f64);
        out.insert("isa.binary_json_bytes".into(), json_bytes as f64);
        out.insert("isa.compile_fail".into(), self.compile_fail as f64);
    }
}
