//! The Fig 2 microbenchmarks: `vec_add` and `array_sum`.

use crate::util::{compile_instance, fill_small_ints};
use crate::{Benchmark, Scale};
use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_isa::RegionInstance;
use infs_sdfg::{ArrayDecl, ArrayId, DataType, Memory, ReduceOp};
use infs_sim::{ExecMode, Machine, SimError};

/// `C[i] = A[i] + B[i]` over `n` elements (Fig 2's `vec_add`).
#[derive(Debug)]
pub struct VecAdd {
    n: u64,
    region: RegionInstance,
}

impl VecAdd {
    /// Builds the benchmark at a scale (`Paper` = 4M elements).
    pub fn new(scale: Scale) -> Self {
        Self::with_elems(match scale {
            Scale::Paper => 4 << 20,
            Scale::Test => 4 << 10,
        })
    }

    /// Builds the benchmark with an explicit element count (the Fig 2 sweep).
    pub fn with_elems(n: u64) -> Self {
        let mut k = KernelBuilder::new("vec_add", DataType::F32);
        let a = k.array("A", vec![n]);
        let b = k.array("B", vec![n]);
        let c = k.array("C", vec![n]);
        let i = k.parallel_loop("i", 0, n as i64);
        k.assign(
            c,
            vec![Idx::var(i)],
            ScalarExpr::add(
                ScalarExpr::load(a, vec![Idx::var(i)]),
                ScalarExpr::load(b, vec![Idx::var(i)]),
            ),
        );
        let region = compile_instance(k.build().expect("vec_add builds"));
        VecAdd { n, region }
    }

    /// Element count.
    pub fn elems(&self) -> u64 {
        self.n
    }
}

impl Benchmark for VecAdd {
    fn name(&self) -> &str {
        "vec_add"
    }

    fn arrays(&self) -> Vec<ArrayDecl> {
        self.region.sdfg.arrays().to_vec()
    }

    fn init(&self, mem: &mut Memory) {
        fill_small_ints(mem, ArrayId(0), 1, 64);
        fill_small_ints(mem, ArrayId(1), 2, 64);
    }

    fn run(&self, m: &mut Machine, mode: ExecMode) -> Result<(), SimError> {
        m.run_region(&self.region, &[], mode)?;
        Ok(())
    }

    fn reference(&self, mem: &mut Memory) {
        for i in 0..self.n as usize {
            let v = mem.array(ArrayId(0))[i] + mem.array(ArrayId(1))[i];
            mem.array_mut(ArrayId(2))[i] = v;
        }
    }

    fn output_arrays(&self) -> Vec<ArrayId> {
        vec![ArrayId(2)]
    }

    fn instances(&self) -> Vec<&RegionInstance> {
        vec![&self.region]
    }
}

/// `v = Σ A[i]` over `n` elements (Fig 2's `array_sum`): in-memory partial
/// reduction plus a near-memory final reduce.
#[derive(Debug)]
pub struct ArraySum {
    n: u64,
    region: RegionInstance,
}

impl ArraySum {
    /// Builds the benchmark at a scale (`Paper` = 4M elements).
    pub fn new(scale: Scale) -> Self {
        Self::with_elems(match scale {
            Scale::Paper => 4 << 20,
            Scale::Test => 4 << 10,
        })
    }

    /// Builds the benchmark with an explicit element count.
    pub fn with_elems(n: u64) -> Self {
        let mut k = KernelBuilder::new("array_sum", DataType::F32);
        let a = k.array("A", vec![n]);
        let out = k.array("Out", vec![1]);
        let i = k.parallel_loop("i", 0, n as i64);
        k.scalar_reduce("sum", ReduceOp::Sum, ScalarExpr::load(a, vec![Idx::var(i)]));
        let _ = out;
        let region = compile_instance(k.build().expect("array_sum builds"));
        ArraySum { n, region }
    }

    /// Element count.
    pub fn elems(&self) -> u64 {
        self.n
    }
}

impl Benchmark for ArraySum {
    fn name(&self) -> &str {
        "array_sum"
    }

    fn arrays(&self) -> Vec<ArrayDecl> {
        self.region.sdfg.arrays().to_vec()
    }

    fn init(&self, mem: &mut Memory) {
        fill_small_ints(mem, ArrayId(0), 3, 16);
    }

    fn run(&self, m: &mut Machine, mode: ExecMode) -> Result<(), SimError> {
        let report = m.run_region(&self.region, &[], mode)?;
        // The scalar result lands in the output cell so verification can see it.
        if let Some(v) = report
            .scalars
            .iter()
            .find(|(n, _)| n == "sum")
            .map(|&(_, v)| v)
        {
            mem_store_scalar(m, v);
        }
        Ok(())
    }

    fn reference(&self, mem: &mut Memory) {
        let total: f32 = mem.array(ArrayId(0)).iter().sum();
        mem.array_mut(ArrayId(1))[0] = total;
    }

    fn output_arrays(&self) -> Vec<ArrayId> {
        vec![ArrayId(1)]
    }

    fn instances(&self) -> Vec<&RegionInstance> {
        vec![&self.region]
    }
}

fn mem_store_scalar(m: &mut Machine, v: f32) {
    m.memory().array_mut(ArrayId(1))[0] = v;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use infs_sim::SystemConfig;

    #[test]
    fn vec_add_verifies_under_all_modes() {
        let b = VecAdd::new(Scale::Test);
        let cfg = SystemConfig::default();
        for mode in [
            ExecMode::Base { threads: 64 },
            ExecMode::NearL3,
            ExecMode::InL3,
            ExecMode::InfS,
        ] {
            verify(&b, mode, &cfg).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }

    #[test]
    fn array_sum_verifies_under_all_modes() {
        let b = ArraySum::new(Scale::Test);
        let cfg = SystemConfig::default();
        for mode in [
            ExecMode::Base { threads: 1 },
            ExecMode::NearL3,
            ExecMode::InL3,
            ExecMode::InfS,
        ] {
            verify(&b, mode, &cfg).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }
}
