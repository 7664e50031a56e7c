use infs_frontend::Kernel;
use infs_isa::{CompiledRegion, Compiler, RegionInstance};
use infs_sdfg::Memory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Dataflow variant of the reduction workloads (Fig 15): inner product keeps
/// the reduction in the inner loops (in-memory `reduce`), outer product
/// converts it to element-wise accumulation across sequential rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataflow {
    /// Inner product: in-memory reduction.
    Inner,
    /// Outer product: broadcast + element-wise accumulation.
    Outer,
}

impl Dataflow {
    /// Table 3 / Fig 15 suffix (`"in"` / `"out"`).
    pub fn suffix(self) -> &'static str {
        match self {
            Dataflow::Inner => "in",
            Dataflow::Outer => "out",
        }
    }
}

/// Compiles a kernel into a region template with the default compiler, the
/// e-graph pass included. Entering at `rep_syms` reuses the instance this
/// compile embeds and never re-runs the pass; entering at another binding
/// replays or re-runs it there.
///
/// # Panics
///
/// Panics on compile errors — workload kernels are static test vectors.
pub fn compile(kernel: Kernel, rep_syms: &[i64]) -> CompiledRegion {
    Compiler::default()
        .compile(kernel, rep_syms)
        .expect("workload kernels compile")
}

/// Compiles a kernel without symbols that is entered only as compiled,
/// keeping just the instance the compile built.
///
/// # Panics
///
/// Panics on compile errors.
pub fn compile_instance(kernel: Kernel) -> RegionInstance {
    compile(kernel, &[])
        .into_instance(&[])
        .expect("workload regions instantiate")
}

/// Instantiates a region for concrete symbols (borrowing the embedded
/// instance at the compiled binding).
///
/// # Panics
///
/// Panics on instantiation errors.
pub fn instantiate<'r>(region: &'r CompiledRegion, syms: &[i64]) -> Cow<'r, RegionInstance> {
    region
        .instantiate(syms)
        .expect("workload regions instantiate")
}

/// Deterministic pseudo-random fill in `[lo, hi)` for an array.
pub fn fill_uniform(mem: &mut Memory, array: infs_sdfg::ArrayId, seed: u64, lo: f32, hi: f32) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0000 ^ array.0 as u64);
    for v in mem.array_mut(array) {
        *v = rng.random_range(lo..hi);
    }
}

/// Deterministic fill with small integers (exact in f32 arithmetic, which
/// keeps reference comparison tight for long accumulation chains).
pub fn fill_small_ints(mem: &mut Memory, array: infs_sdfg::ArrayId, seed: u64, modulo: u32) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1237 ^ array.0 as u64);
    for v in mem.array_mut(array) {
        *v = rng.random_range(0..modulo) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infs_sdfg::{ArrayDecl, ArrayId, DataType};

    #[test]
    fn fills_are_deterministic() {
        let decls = [ArrayDecl::new("a", vec![64], DataType::F32)];
        let mut m1 = Memory::for_arrays(&decls);
        let mut m2 = Memory::for_arrays(&decls);
        fill_uniform(&mut m1, ArrayId(0), 7, 0.0, 1.0);
        fill_uniform(&mut m2, ArrayId(0), 7, 0.0, 1.0);
        assert_eq!(m1.array(ArrayId(0)), m2.array(ArrayId(0)));
        assert!(m1
            .array(ArrayId(0))
            .iter()
            .all(|&x| (0.0..1.0).contains(&x)));
        fill_small_ints(&mut m1, ArrayId(0), 3, 8);
        assert!(m1
            .array(ArrayId(0))
            .iter()
            .all(|&x| x.fract() == 0.0 && x < 8.0));
    }

    #[test]
    fn dataflow_suffixes() {
        assert_eq!(Dataflow::Inner.suffix(), "in");
        assert_eq!(Dataflow::Outer.suffix(), "out");
    }
}
