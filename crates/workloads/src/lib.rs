//! The Infinity Stream benchmark suite.
//!
//! Implements every workload of the paper's evaluation (Table 3), the Fig 2
//! microbenchmarks, and the PointNet++ case study (Table 4), each with:
//!
//! * the kernels (written against the `infs-frontend` loop-nest IR — the
//!   "plain C" of this reproduction), structured the way the paper describes:
//!   dense phases tensorize, irregular/low-parallelism phases stay as streams,
//!   and sequential host loops re-enter regions with fresh symbols;
//! * a driver that runs the phases on a simulated [`Machine`] under any
//!   [`ExecMode`];
//! * deterministic input generation; and
//! * a plain-Rust scalar **reference implementation**, against which every
//!   configuration's functional output is verified.
//!
//! Benchmarks scale: [`Scale::Paper`] uses the Table 3 input sizes (timing
//! runs), [`Scale::Test`] shrinks them so functional verification stays fast.
//!
//! `DESIGN.md` §5 (experiment index) maps workloads to the tables and
//! figures they regenerate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv;
mod gather_mlp;
mod gauss;
mod kmeans;
mod micro;
mod mlp_stack;
mod mm;
mod pointnet;
mod stencil;
mod util;

pub use conv::{Conv2d, Conv3d};
pub use gather_mlp::GatherMlp;
pub use gauss::GaussElim;
pub use kmeans::Kmeans;
pub use micro::{ArraySum, VecAdd};
pub use mlp_stack::MlpStack;
pub use mm::MatMul;
pub use pointnet::{PointNet, PointNetVariant};
pub use stencil::{Dwt2d, Stencil1d, Stencil2d, Stencil3d};
pub use util::Dataflow;

use infs_isa::{CompiledRegion, RegionInstance};
use infs_sdfg::{ArrayDecl, Memory};
use infs_sim::{ExecMode, Machine, RunPlan, RunStats, SimError, SystemConfig};

/// Input-size scale of a benchmark instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The Table 3 sizes used for figure regeneration (timing-only friendly).
    Paper,
    /// Reduced sizes for fast functional verification in tests.
    Test,
}

/// A runnable benchmark: kernels + driver + reference.
///
/// `Send + Sync` is a supertrait so benchmark objects can be constructed on
/// one thread and driven on another — the parallel run matrix simulates many
/// (benchmark, configuration) pairs on worker threads at once. Implementors
/// hold only plain data (shapes, scales, constants), so this costs nothing.
pub trait Benchmark: Send + Sync {
    /// Display name (Table 3 naming, e.g. `"stencil2d"` or `"mm/out"`).
    fn name(&self) -> &str;

    /// The shared array table all of the benchmark's kernels use.
    fn arrays(&self) -> Vec<ArrayDecl>;

    /// Fills input arrays (deterministic).
    fn init(&self, mem: &mut Memory);

    /// Drives all phases/iterations on the machine.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (functional failures).
    fn run(&self, m: &mut Machine, mode: ExecMode) -> Result<(), SimError>;

    /// Scalar reference implementation over the same memory layout.
    fn reference(&self, mem: &mut Memory);

    /// Arrays whose contents constitute the checked output.
    fn output_arrays(&self) -> Vec<infs_sdfg::ArrayId>;

    /// The region instances compiled at construction, in build order.
    /// Empty for benchmarks that keep region templates and instantiate them
    /// per entry instead.
    fn instances(&self) -> Vec<&RegionInstance> {
        Vec::new()
    }

    /// The region templates compiled at construction, in build order: what
    /// the driver instantiates per entry, at the compiled binding or another.
    /// Empty for benchmarks that keep only instances.
    fn regions(&self) -> Vec<&CompiledRegion> {
        Vec::new()
    }
}

// Compile-time audit of the types the parallel run matrix moves across or
// shares between worker threads. No `unsafe impl` anywhere: these hold only
// owned plain data, so the auto traits must come for free.
const _: () = {
    const fn assert_send<T: Send + ?Sized>() {}
    const fn assert_sync<T: Sync + ?Sized>() {}
    assert_send::<Box<dyn Benchmark>>();
    assert_send::<Machine>();
    assert_send::<RunStats>();
    assert_send::<SimError>();
    assert_sync::<SystemConfig>();
};

/// Runs a benchmark end-to-end and returns the machine statistics. Every
/// region is entered under `plan`: the default is the static §4.1/Eq-2
/// heuristics, a forced tile is one point of the Fig 16/17 sweep.
///
/// With `functional` disabled the run is timing-only (for paper-scale inputs
/// whose interpretation would take hours); functional verification then
/// happens separately at [`Scale::Test`] via [`verify`].
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_timed(
    b: &dyn Benchmark,
    mode: ExecMode,
    cfg: &SystemConfig,
    functional: bool,
    plan: RunPlan,
) -> Result<RunStats, SimError> {
    let arrays = b.arrays();
    let mut m = Machine::with_plan(cfg.clone(), &arrays, plan);
    m.set_functional(functional);
    // §6: inputs are assumed tiled to fit in (and warm in) the L3.
    m.set_resident_all();
    if functional {
        b.init(m.memory());
    }
    b.run(&mut m, mode)?;
    Ok(m.finish())
}

/// Verifies a benchmark's functional output under a mode against its scalar
/// reference.
///
/// # Errors
///
/// Returns a description of the first mismatching element.
pub fn verify(b: &dyn Benchmark, mode: ExecMode, cfg: &SystemConfig) -> Result<(), String> {
    let arrays = b.arrays();
    let mut m = Machine::new(cfg.clone(), &arrays);
    b.init(m.memory());
    b.run(&mut m, mode).map_err(|e| e.to_string())?;

    let mut golden = Memory::for_arrays(&arrays);
    b.init(&mut golden);
    b.reference(&mut golden);

    for id in b.output_arrays() {
        let got = m.memory_ref().array(id);
        let want = golden.array(id);
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            let tol = 1e-3 * w.abs().max(1.0);
            if (g - w).abs() > tol {
                return Err(format!(
                    "{}: array {} ({}) differs at {}: got {}, want {}",
                    b.name(),
                    id,
                    arrays[id.0 as usize].name,
                    i,
                    g,
                    w
                ));
            }
        }
    }
    Ok(())
}

/// All 13 Table 3 workload variants (the Fig 13/14 x-axis): the ten Fig 11
/// benchmarks with both dataflows of the three reduction workloads.
pub fn full_suite(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Stencil1d::new(scale)),
        Box::new(Stencil2d::new(scale)),
        Box::new(Stencil3d::new(scale)),
        Box::new(Dwt2d::new(scale)),
        Box::new(GaussElim::new(scale)),
        Box::new(Conv2d::new(scale)),
        Box::new(Conv3d::new(scale)),
        Box::new(MatMul::new(scale, Dataflow::Inner)),
        Box::new(MatMul::new(scale, Dataflow::Outer)),
        Box::new(Kmeans::new(scale, Dataflow::Inner)),
        Box::new(Kmeans::new(scale, Dataflow::Outer)),
        Box::new(GatherMlp::new(scale, Dataflow::Inner)),
        Box::new(GatherMlp::new(scale, Dataflow::Outer)),
    ]
}

/// Constructs one benchmark by its Table 3 name (e.g. `"mm/out"`).
pub fn by_name(name: &str, scale: Scale) -> Option<Box<dyn Benchmark>> {
    let b: Box<dyn Benchmark> = match name {
        "stencil1d" => Box::new(Stencil1d::new(scale)),
        "stencil2d" => Box::new(Stencil2d::new(scale)),
        "stencil3d" => Box::new(Stencil3d::new(scale)),
        "dwt2d" => Box::new(Dwt2d::new(scale)),
        "gauss_elim" => Box::new(GaussElim::new(scale)),
        "conv2d" => Box::new(Conv2d::new(scale)),
        "conv3d" => Box::new(Conv3d::new(scale)),
        "mm/in" => Box::new(MatMul::new(scale, Dataflow::Inner)),
        "mm/out" => Box::new(MatMul::new(scale, Dataflow::Outer)),
        "kmeans/in" => Box::new(Kmeans::new(scale, Dataflow::Inner)),
        "kmeans/out" => Box::new(Kmeans::new(scale, Dataflow::Outer)),
        "gather_mlp/in" => Box::new(GatherMlp::new(scale, Dataflow::Inner)),
        "gather_mlp/out" => Box::new(GatherMlp::new(scale, Dataflow::Outer)),
        // Not part of the Table 3 suite: the multi-kernel pipeline workload.
        "mlp_stack" => Box::new(MlpStack::new(scale)),
        _ => return None,
    };
    Some(b)
}
