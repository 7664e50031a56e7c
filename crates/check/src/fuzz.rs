//! Differential fuzzing of the compile-and-execute pipeline.
//!
//! A seeded generator draws random kernels from a subdomain of the frontend
//! where every configuration must agree *bit for bit*: all data are small
//! integers stored as `f32`, expressions are shallow, and the op pool excludes
//! `div`/`sqrt` — so every intermediate value is an integer far below 2²⁴ and
//! every f32 operation (including reassociated reductions after e-graph
//! rewriting) is exact. Under those conditions "semantically equal" collapses
//! to "bit-identical", and any divergence between configurations is a real
//! compiler or simulator bug, not floating-point noise.
//!
//! Each kernel runs through five configurations:
//!
//! 1. the per-point tDFG oracle ([`infs_tdfg::interp::reference::execute`] —
//!    *not* `interp::execute`, which is what the machines below call: an
//!    oracle that shares the executor could not see it drift);
//! 2. an **unoptimized** binary on the near-memory path (`NearL3`);
//! 3. an **e-graph-optimized** binary on the fused path (`InfS`) at 256×256;
//! 4. the optimized binary again on the in-memory path, but served by the
//!    **shape-polymorphic JIT's template path**: the shared cache is seeded,
//!    its concrete level rotted ([`infs_runtime::JitCache::tamper_slots`]),
//!    and the scored run must be a template hit — the cache's shape record
//!    names the outcome, and the stream is stamped from the run's own
//!    freshly distilled template — pinning the template-hit path against the
//!    oracle;
//! 5. the optimized binary on the JIT-lowered in-memory path (`InL3`) at both
//!    256×256 and 512×512 geometries.
//!
//! Every machine run also carries the [`crate::validate`] auditor, so each
//! random kernel exercises the structural validators too. On divergence the
//! failing spec is greedily minimized and dumped as a JSON reproducer next to
//! its seed.

use crate::validate;
use infs_faults::{mix64, Xorshift64};
use infs_frontend::{FrontendError, Idx, Kernel, KernelBuilder, ScalarExpr};
use infs_isa::{Compiler, SramGeometry};
use infs_runtime::JitCache;
use infs_sdfg::{ArrayId, DataType, Memory, ReduceOp};
use infs_sim::{ExecMode, Executed, JitOutcome, Machine, SystemConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// `mix64` domain tags (see `infs-faults`): one per independent random stream.
const DOMAIN_GEN: u64 = 0x6b;
const DOMAIN_SEED: u64 = 0x6c;
const DOMAIN_DATA: u64 = 0x6d;

/// Magnitude bound for generated input data (inclusive).
const DATA_MAG: i64 = 3;

/// A random expression tree over the kernel's input arrays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FuzzExpr {
    /// `A<array>[i0 + offs[0], i1 + offs[1], …]`, with at most one dimension
    /// pinned to a loop-invariant coordinate (which tensorizes into a thin
    /// input plus a `bc` broadcast node).
    Load {
        /// Input array index (`0..n_inputs`).
        array: usize,
        /// Per-dimension offset from the iteration point.
        offs: Vec<i64>,
        /// `Some((dim, coord))`: dimension `dim` reads the fixed coordinate
        /// `coord` instead of following the loop.
        pin: Option<(usize, i64)>,
    },
    /// An integer constant.
    Const(i32),
    /// A unary op.
    Un {
        /// One of `Neg`/`Abs`/`Relu`.
        op: infs_tdfg::ComputeOp,
        /// Operand.
        a: Box<FuzzExpr>,
    },
    /// A binary op.
    Bin {
        /// One of `Add`/`Sub`/`Mul`/`Min`/`Max`/`CmpLt`/`CmpLe`/`CmpEq`.
        op: infs_tdfg::ComputeOp,
        /// Left operand.
        a: Box<FuzzExpr>,
        /// Right operand.
        b: Box<FuzzExpr>,
    },
    /// `c != 0 ? a : b`.
    Select {
        /// Condition.
        c: Box<FuzzExpr>,
        /// Taken when `c != 0`.
        a: Box<FuzzExpr>,
        /// Taken when `c == 0`.
        b: Box<FuzzExpr>,
    },
}

impl FuzzExpr {
    /// Number of nodes in the tree (the minimizer's size metric).
    pub fn size(&self) -> usize {
        match self {
            FuzzExpr::Load { .. } | FuzzExpr::Const(_) => 1,
            FuzzExpr::Un { a, .. } => 1 + a.size(),
            FuzzExpr::Bin { a, b, .. } => 1 + a.size() + b.size(),
            FuzzExpr::Select { c, a, b } => 1 + c.size() + a.size() + b.size(),
        }
    }

    /// True if any leaf reads an array. Load-free kernels are degenerate
    /// (pure constants are not tensorizable — they legally fall back to the
    /// near-memory path), so the generator and minimizer stay inside the
    /// loaded subdomain where the in-memory oracle exists.
    pub fn has_load(&self) -> bool {
        match self {
            FuzzExpr::Load { .. } => true,
            FuzzExpr::Const(_) => false,
            FuzzExpr::Un { a, .. } => a.has_load(),
            FuzzExpr::Bin { a, b, .. } => a.has_load() || b.has_load(),
            FuzzExpr::Select { c, a, b } => c.has_load() || a.has_load() || b.has_load(),
        }
    }

    /// Direct subtrees, for shrink candidates.
    fn children(&self) -> Vec<&FuzzExpr> {
        match self {
            FuzzExpr::Load { .. } | FuzzExpr::Const(_) => Vec::new(),
            FuzzExpr::Un { a, .. } => vec![a],
            FuzzExpr::Bin { a, b, .. } => vec![a, b],
            FuzzExpr::Select { c, a, b } => vec![c, a, b],
        }
    }

    /// Every proper subtree, deepest last.
    fn subtrees(&self) -> Vec<&FuzzExpr> {
        let mut out = Vec::new();
        let mut stack = self.children();
        while let Some(e) = stack.pop() {
            out.push(e);
            stack.extend(e.children());
        }
        out
    }

    fn to_scalar(&self, inputs: &[ArrayId], loops: &[infs_frontend::LoopVar]) -> ScalarExpr {
        match self {
            FuzzExpr::Load { array, offs, pin } => ScalarExpr::load(
                inputs[*array],
                loops
                    .iter()
                    .zip(offs)
                    .enumerate()
                    .map(|(d, (&l, &o))| match pin {
                        Some((pd, c)) if *pd == d => Idx::constant(*c),
                        _ => Idx::var_plus(l, o),
                    })
                    .collect(),
            ),
            FuzzExpr::Const(c) => ScalarExpr::Const(*c as f32),
            FuzzExpr::Un { op, a } => ScalarExpr::un(*op, a.to_scalar(inputs, loops)),
            FuzzExpr::Bin { op, a, b } => {
                ScalarExpr::bin(*op, a.to_scalar(inputs, loops), b.to_scalar(inputs, loops))
            }
            FuzzExpr::Select { c, a, b } => ScalarExpr::select(
                c.to_scalar(inputs, loops),
                a.to_scalar(inputs, loops),
                b.to_scalar(inputs, loops),
            ),
        }
    }
}

/// A serializable random-kernel specification — the reproducer format.
///
/// `to_kernel` deterministically expands the spec into a frontend kernel over
/// input arrays `A0..A{n_inputs-1}` and an output array `OUT`, all of `shape`,
/// with one parallel loop per dimension over `[margin, extent - margin)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzKernel {
    /// Seed the spec was generated from (recorded for the reproducer).
    pub seed: u64,
    /// Lattice/array shape, innermost first.
    pub shape: Vec<u64>,
    /// Loop-bound inset keeping offset loads in bounds.
    pub margin: i64,
    /// Number of input arrays.
    pub n_inputs: usize,
    /// Value stored to `OUT` at every iteration point.
    pub expr: FuzzExpr,
    /// `Some(op)`: accumulate into `OUT` with `op` instead of assigning.
    pub accum: Option<ReduceOp>,
    /// `Some(op)`: additionally reduce the expression to a named scalar.
    pub scalar: Option<ReduceOp>,
}

impl FuzzKernel {
    /// Expands the spec into a frontend kernel.
    ///
    /// # Errors
    ///
    /// Propagates frontend validation failures (a generator bug if it ever
    /// happens for a generated spec).
    pub fn to_kernel(&self) -> Result<Kernel, FrontendError> {
        let mut k = KernelBuilder::new(format!("fuzz_{:016x}", self.seed), DataType::F32);
        let inputs: Vec<ArrayId> = (0..self.n_inputs)
            .map(|i| k.array(format!("A{i}"), self.shape.clone()))
            .collect();
        let out = k.array("OUT", self.shape.clone());
        let loops: Vec<infs_frontend::LoopVar> = self
            .shape
            .iter()
            .enumerate()
            .map(|(d, &s)| k.parallel_loop(format!("i{d}"), self.margin, s as i64 - self.margin))
            .collect();
        let value = self.expr.to_scalar(&inputs, &loops);
        let idx: Vec<Idx> = loops.iter().map(|&l| Idx::var(l)).collect();
        match self.accum {
            Some(op) => k.accum(out, idx, op, value.clone()),
            None => k.assign(out, idx, value.clone()),
        }
        if let Some(op) = self.scalar {
            k.scalar_reduce("acc", op, value);
        }
        k.build()
    }

    /// Total arrays including `OUT`.
    fn n_arrays(&self) -> usize {
        self.n_inputs + 1
    }

    /// Minimizer size metric: expression nodes plus optional statements.
    fn size(&self) -> usize {
        self.expr.size()
            + usize::from(self.accum.is_some())
            + usize::from(self.scalar.is_some())
            + self.n_inputs
    }
}

fn gen_expr(
    rng: &mut Xorshift64,
    n_inputs: usize,
    shape: &[u64],
    margin: i64,
    depth: u32,
) -> FuzzExpr {
    use infs_tdfg::ComputeOp as Op;
    let ndim = shape.len();
    let leaf = depth >= 3 || rng.next_below(10) < 4;
    if leaf {
        if rng.next_below(10) < 6 {
            let pin = if rng.next_below(4) == 0 {
                let d = rng.next_below(ndim as u64) as usize;
                Some((d, rng.next_below(shape[d]) as i64))
            } else {
                None
            };
            FuzzExpr::Load {
                array: rng.next_below(n_inputs as u64) as usize,
                offs: (0..ndim)
                    .map(|_| rng.next_below(2 * margin as u64 + 1) as i64 - margin)
                    .collect(),
                pin,
            }
        } else {
            FuzzExpr::Const(rng.next_below(5) as i32 - 2)
        }
    } else {
        match rng.next_below(12) {
            0 => FuzzExpr::Un {
                op: [Op::Neg, Op::Abs, Op::Relu][rng.next_below(3) as usize],
                a: Box::new(gen_expr(rng, n_inputs, shape, margin, depth + 1)),
            },
            1 => FuzzExpr::Select {
                c: Box::new(gen_expr(rng, n_inputs, shape, margin, depth + 1)),
                a: Box::new(gen_expr(rng, n_inputs, shape, margin, depth + 1)),
                b: Box::new(gen_expr(rng, n_inputs, shape, margin, depth + 1)),
            },
            k => FuzzExpr::Bin {
                op: [
                    Op::Add,
                    Op::Add,
                    Op::Sub,
                    Op::Mul,
                    Op::Min,
                    Op::Max,
                    Op::CmpLt,
                    Op::CmpLe,
                    Op::CmpEq,
                    Op::Sub,
                ][(k - 2) as usize],
                a: Box::new(gen_expr(rng, n_inputs, shape, margin, depth + 1)),
                b: Box::new(gen_expr(rng, n_inputs, shape, margin, depth + 1)),
            },
        }
    }
}

/// Generates the kernel spec for one seed.
///
/// Shapes are chosen so both SRAM geometries can tile them (512 lattice cells:
/// `[512]` or `[32, 16]`), with up to three input arrays plus the output —
/// well inside the 256×256 wordline budget for f32.
pub fn generate(seed: u64) -> FuzzKernel {
    let mut rng = Xorshift64::new(mix64(seed, DOMAIN_GEN, 0));
    let shape = match rng.next_below(4) {
        0 => vec![512],
        1 => vec![1024],
        2 => vec![32, 16],
        _ => vec![64, 8],
    };
    let margin = 1 + rng.next_below(3) as i64;
    let n_inputs = 1 + rng.next_below(3) as usize;
    let mut expr = gen_expr(&mut rng, n_inputs, &shape, margin, 0);
    if !expr.has_load() {
        expr = FuzzExpr::Bin {
            op: infs_tdfg::ComputeOp::Add,
            a: Box::new(expr),
            b: Box::new(FuzzExpr::Load {
                array: 0,
                offs: vec![0; shape.len()],
                pin: None,
            }),
        };
    }
    let accum = match rng.next_below(5) {
        0 => Some(ReduceOp::Sum),
        1 => Some(ReduceOp::Max),
        _ => None,
    };
    let scalar = match rng.next_below(4) {
        0 => Some(ReduceOp::Sum),
        1 => Some(ReduceOp::Min),
        _ => None,
    };
    FuzzKernel {
        seed,
        shape,
        margin,
        n_inputs,
        expr,
        accum,
        scalar,
    }
}

/// Deterministic integer-valued fill for array `a` of the given element count.
fn fill(seed: u64, a: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let r = mix64(seed, DOMAIN_DATA + a as u64, i as u64);
            (r % (2 * DATA_MAG as u64 + 1)) as f32 - DATA_MAG as f32
        })
        .collect()
}

/// One configuration disagreeing with the oracle (or failing outright).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Divergence {
    /// Which configuration diverged.
    pub config: String,
    /// What differed.
    pub what: String,
}

/// Coverage stats of one agreeing differential run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffOutcome {
    /// tDFG nodes of the optimized instance.
    pub nodes: usize,
    /// Machine configurations compared (excluding the oracle).
    pub machine_runs: u32,
    /// How many of those actually executed on the compute-SRAM bitlines.
    pub in_memory_runs: u32,
    /// Runs served by the shape-polymorphic JIT's copy-and-patch path (a
    /// template hit against a rotted concrete cache level).
    pub template_patched_runs: u32,
    /// Cycles of the `infs-opt-256` run (Inf-S, 256-row geometry).
    pub infs_cycles: u64,
    /// Cycles of the `inl3-opt-256` run (In-L3, 256-row geometry).
    pub inl3_cycles: u64,
}

/// Runs one spec through all four configurations and compares outputs bitwise.
///
/// # Errors
///
/// The first [`Divergence`] — a config failing to compile/execute, a validator
/// rejection, or any output array/scalar differing from the oracle by even one
/// bit.
pub fn run_differential(spec: &FuzzKernel) -> Result<DiffOutcome, Divergence> {
    let diverge = |config: &str, what: String| Divergence {
        config: config.to_string(),
        what,
    };
    let kernel = spec
        .to_kernel()
        .map_err(|e| diverge("frontend", e.to_string()))?;

    // Oracle: tensorize + interpret on a fresh memory.
    let g = kernel
        .tensorize(&[])
        .map_err(|e| diverge("tensorize", e.to_string()))?;
    let mut mem = Memory::for_arrays(kernel.arrays());
    for a in 0..spec.n_arrays() {
        let len = mem.array(ArrayId(a as u32)).len();
        mem.write_array(ArrayId(a as u32), &fill(spec.seed, a, len));
    }
    let oracle_out = infs_tdfg::interp::reference::execute(&g, &mut mem, &[], &HashMap::new())
        .map_err(|e| diverge("interp", e.to_string()))?;
    let expect: Vec<Vec<f32>> = (0..spec.n_arrays())
        .map(|a| mem.array(ArrayId(a as u32)).to_vec())
        .collect();

    // Compiled instances: unoptimized and e-graph-optimized.
    let unopt = Compiler {
        optimize: false,
        ..Compiler::default()
    }
    .compile(kernel.clone(), &[])
    .and_then(|r| r.into_instance(&[]))
    .map_err(|e| diverge("compile-unopt", e.to_string()))?;
    let opt = Compiler::default()
        .compile(kernel.clone(), &[])
        .and_then(|r| r.into_instance(&[]))
        .map_err(|e| diverge("compile-opt", e.to_string()))?;

    let cfg256 = SystemConfig::default();
    let cfg512 = SystemConfig {
        geometry: SramGeometry::G512,
        ..SystemConfig::default()
    };

    // Pin the shape-polymorphic JIT's patched-stream path: seed a shared
    // cache with this kernel's commands (timing-only run, `InL3` so the
    // in-memory path is taken whenever it is feasible at all), then rot the
    // concrete level while leaving the shape records clean. The scored
    // "inl3-patched-256" run below must then be a template hit — and still
    // match the oracle bit for bit.
    let patched_jit = Arc::new(JitCache::new());
    {
        let mut m = Machine::with_jit(cfg256.clone(), kernel.arrays(), patched_jit.clone());
        m.set_functional(false);
        m.set_resident_all();
        let _ = m.run_region(&opt, &[], ExecMode::InL3);
    }
    let tampered = patched_jit.tamper_slots() > 0;

    type Cfg<'a> = (
        &'a str,
        &'a infs_isa::RegionInstance,
        &'a SystemConfig,
        ExecMode,
        Option<Arc<JitCache>>,
    );
    let configs: [Cfg<'_>; 5] = [
        ("near-unopt", &unopt, &cfg256, ExecMode::NearL3, None),
        ("infs-opt-256", &opt, &cfg256, ExecMode::InfS, None),
        (
            "inl3-patched-256",
            &opt,
            &cfg256,
            ExecMode::InL3,
            Some(patched_jit),
        ),
        ("inl3-opt-256", &opt, &cfg256, ExecMode::InL3, None),
        ("inl3-opt-512", &opt, &cfg512, ExecMode::InL3, None),
    ];

    let mut outcome = DiffOutcome {
        nodes: opt.tdfg.as_ref().map_or(0, |t| t.nodes().len()),
        ..DiffOutcome::default()
    };
    for (name, inst, cfg, mode, jit) in configs {
        let mut m = match jit {
            Some(j) => Machine::with_jit(cfg.clone(), kernel.arrays(), j),
            None => Machine::new(cfg.clone(), kernel.arrays()),
        };
        m.set_region_auditor(Some(validate::auditor()));
        m.set_functional(true);
        m.set_resident_all();
        for a in 0..spec.n_arrays() {
            let len = m.memory_ref().array(ArrayId(a as u32)).len();
            m.memory()
                .write_array(ArrayId(a as u32), &fill(spec.seed, a, len));
        }
        let report = m
            .run_region(inst, &[], mode)
            .map_err(|e| diverge(name, e.to_string()))?;
        outcome.machine_runs += 1;
        match name {
            "infs-opt-256" => outcome.infs_cycles = report.cycles,
            "inl3-opt-256" => outcome.inl3_cycles = report.cycles,
            _ => {}
        }
        if report.executed == Executed::InMemory {
            outcome.in_memory_runs += 1;
        }
        if name == "inl3-patched-256" && report.executed == Executed::InMemory && tampered {
            if report.jit_outcome != Some(JitOutcome::TemplateHit) {
                return Err(diverge(
                    name,
                    format!(
                        "expected the rotted cache to be healed by a template \
                         patch, got {:?}",
                        report.jit_outcome
                    ),
                ));
            }
            outcome.template_patched_runs += 1;
        }
        for (a, want) in expect.iter().enumerate() {
            let got = m.memory_ref().array(ArrayId(a as u32));
            for (i, (&w, &g_)) in want.iter().zip(got).enumerate() {
                if w.to_bits() != g_.to_bits() {
                    return Err(diverge(
                        name,
                        format!("array {a} element {i}: oracle {w} vs {g_}"),
                    ));
                }
            }
        }
        for (sname, want) in &oracle_out.scalars {
            match report.scalars.iter().find(|(n, _)| n == sname) {
                Some((_, got)) if got.to_bits() == want.to_bits() => {}
                Some((_, got)) => {
                    return Err(diverge(
                        name,
                        format!("scalar {sname}: oracle {want} vs {got}"),
                    ))
                }
                None => return Err(diverge(name, format!("scalar {sname} missing from report"))),
            }
        }
    }
    Ok(outcome)
}

/// Shrink candidates one greedy step away from `spec`.
fn shrink_candidates(spec: &FuzzKernel) -> Vec<FuzzKernel> {
    let mut out = Vec::new();
    if spec.scalar.is_some() {
        out.push(FuzzKernel {
            scalar: None,
            ..spec.clone()
        });
    }
    if spec.accum.is_some() {
        out.push(FuzzKernel {
            accum: None,
            ..spec.clone()
        });
    }
    // Replace the whole expression by each proper subtree (staying inside the
    // tensorizable subdomain: the expression must keep at least one load).
    for sub in spec.expr.subtrees() {
        if sub.has_load() {
            out.push(FuzzKernel {
                expr: sub.clone(),
                ..spec.clone()
            });
        }
    }
    // Unpin loop-invariant loads (removes bc broadcasts).
    let mut unpinned = spec.clone();
    let mut had_pin = false;
    fn unpin(e: &mut FuzzExpr, changed: &mut bool) {
        match e {
            FuzzExpr::Load { pin, .. } => {
                if pin.take().is_some() {
                    *changed = true;
                }
            }
            FuzzExpr::Const(_) => {}
            FuzzExpr::Un { a, .. } => unpin(a, changed),
            FuzzExpr::Bin { a, b, .. } => {
                unpin(a, changed);
                unpin(b, changed);
            }
            FuzzExpr::Select { c, a, b } => {
                unpin(c, changed);
                unpin(a, changed);
                unpin(b, changed);
            }
        }
    }
    unpin(&mut unpinned.expr, &mut had_pin);
    if had_pin {
        out.push(unpinned);
    }
    // Collapse load offsets to the iteration point (removes mv alignment).
    let mut zeroed = spec.clone();
    let mut changed = false;
    fn zero_offs(e: &mut FuzzExpr, changed: &mut bool) {
        match e {
            FuzzExpr::Load { offs, .. } => {
                if offs.iter().any(|&o| o != 0) {
                    offs.iter_mut().for_each(|o| *o = 0);
                    *changed = true;
                }
            }
            FuzzExpr::Const(_) => {}
            FuzzExpr::Un { a, .. } => zero_offs(a, changed),
            FuzzExpr::Bin { a, b, .. } => {
                zero_offs(a, changed);
                zero_offs(b, changed);
            }
            FuzzExpr::Select { c, a, b } => {
                zero_offs(c, changed);
                zero_offs(a, changed);
                zero_offs(b, changed);
            }
        }
    }
    zero_offs(&mut zeroed.expr, &mut changed);
    if changed {
        out.push(zeroed);
    }
    out
}

/// Greedily minimizes a diverging spec: repeatedly adopts the smallest
/// transformation that still diverges, until no candidate does.
pub fn minimize(spec: &FuzzKernel) -> FuzzKernel {
    let mut cur = spec.clone();
    loop {
        let mut improved = false;
        for cand in shrink_candidates(&cur) {
            if cand.size() < cur.size() && run_differential(&cand).is_err() {
                cur = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return cur;
        }
    }
}

/// Writes a reproducer for a minimized diverging spec.
///
/// The dump directory is `$INFS_CHECK_REPRO_DIR` (default `check-repro`), one
/// subdirectory per seed holding `kernel.json` (the [`FuzzKernel`] spec) and
/// `divergence.txt`. Replay with [`replay`].
///
/// # Errors
///
/// I/O failures creating or writing the dump.
pub fn dump_reproducer(spec: &FuzzKernel, d: &Divergence) -> std::io::Result<PathBuf> {
    let root = std::env::var("INFS_CHECK_REPRO_DIR").unwrap_or_else(|_| "check-repro".into());
    let dir = PathBuf::from(root).join(format!("seed-{:016x}", spec.seed));
    std::fs::create_dir_all(&dir)?;
    let json = serde_json::to_string_pretty(spec)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(dir.join("kernel.json"), json)?;
    std::fs::write(
        dir.join("divergence.txt"),
        format!(
            "seed: {:#018x}\nconfig: {}\n{}\n",
            spec.seed, d.config, d.what
        ),
    )?;
    Ok(dir)
}

/// Re-runs a dumped reproducer (`<dir>/kernel.json`).
///
/// # Errors
///
/// I/O / parse failures as `Err(Ok(io_error_string))`-free plain strings;
/// a still-present divergence is returned as `Ok(Err(divergence))`.
pub fn replay(dir: &std::path::Path) -> Result<Result<DiffOutcome, Divergence>, String> {
    let json = std::fs::read_to_string(dir.join("kernel.json")).map_err(|e| e.to_string())?;
    let spec: FuzzKernel = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    Ok(run_differential(&spec))
}

/// One fuzz failure, with its minimized reproducer.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Seed of the failing kernel.
    pub seed: u64,
    /// The divergence of the *minimized* spec.
    pub divergence: Divergence,
    /// The minimized spec itself.
    pub minimized: FuzzKernel,
    /// Where the reproducer was dumped (`None` if the dump itself failed).
    pub repro_dir: Option<PathBuf>,
}

/// Aggregate result of a fuzzing campaign.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Kernels generated and run.
    pub run: usize,
    /// Machine-configuration runs compared against the oracle.
    pub machine_runs: u32,
    /// Runs that executed on the compute-SRAM bitlines.
    pub in_memory_runs: u32,
    /// Runs served by the shape-polymorphic JIT's copy-and-patch path.
    pub template_patched_runs: u32,
    /// Total tDFG nodes across optimized instances.
    pub total_nodes: usize,
    /// Sum of [`DiffOutcome::infs_cycles`] over the agreeing kernels.
    pub infs_cycles: u64,
    /// Sum of [`DiffOutcome::inl3_cycles`] over the agreeing kernels.
    pub inl3_cycles: u64,
    /// Divergences, each minimized and dumped.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// True when every kernel agreed across all configurations.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The [`generate`] seed of kernel `i` of the campaign [`fuzz_many`] runs
/// from `base_seed`, so other tests can walk the same kernels.
pub fn campaign_seed(base_seed: u64, i: usize) -> u64 {
    mix64(base_seed, DOMAIN_SEED, i as u64)
}

/// Runs `count` kernels derived from `base_seed` through [`run_differential`],
/// minimizing and dumping every failure.
pub fn fuzz_many(base_seed: u64, count: usize) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..count {
        let seed = campaign_seed(base_seed, i);
        let spec = generate(seed);
        report.run += 1;
        match run_differential(&spec) {
            Ok(o) => {
                report.machine_runs += o.machine_runs;
                report.in_memory_runs += o.in_memory_runs;
                report.template_patched_runs += o.template_patched_runs;
                report.total_nodes += o.nodes;
                report.infs_cycles += o.infs_cycles;
                report.inl3_cycles += o.inl3_cycles;
            }
            Err(_) => {
                let minimized = minimize(&spec);
                let divergence = match run_differential(&minimized) {
                    Err(d) => d,
                    // Flaky shrink (should not happen: everything is
                    // deterministic) — fall back to the original failure.
                    Ok(_) => run_differential(&spec).expect_err("original spec diverged"),
                };
                let repro_dir = dump_reproducer(&minimized, &divergence).ok();
                report.failures.push(FuzzFailure {
                    seed,
                    divergence,
                    minimized,
                    repro_dir,
                });
            }
        }
    }
    report
}
