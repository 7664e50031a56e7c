//! Stencil workloads of Table 3: `stencil1d/2d/3d` (iterative, shift-dominated)
//! and `dwt2d` (a stationary wavelet-lifting transform — the paper's dwt2d is
//! also shift + element-wise; we use the undecimated form because strided
//! (decimated) indices are not bitline-alignable, see DESIGN.md).

use crate::util::{compile_instance, fill_small_ints};
use crate::{Benchmark, Scale};
use infs_frontend::{Idx, KernelBuilder, LoopVar, ScalarExpr};
use infs_isa::RegionInstance;
use infs_sdfg::{ArrayDecl, ArrayId, DataType, Memory};
use infs_sim::{ExecMode, Machine, SimError};

fn load1(a: ArrayId, i: LoopVar, off: i64) -> ScalarExpr {
    ScalarExpr::load(a, vec![Idx::var_plus(i, off)])
}

/// 3-point iterative 1-D stencil: `B[i] = A[i-1]+A[i]+A[i+1]`, ping-ponged.
#[derive(Debug)]
pub struct Stencil1d {
    n: u64,
    iters: u32,
    fwd: RegionInstance,
    bwd: RegionInstance,
}

impl Stencil1d {
    /// Table 3: 4M entries, 10 iterations at paper scale.
    pub fn new(scale: Scale) -> Self {
        let (n, iters) = match scale {
            Scale::Paper => (4 << 20, 10),
            Scale::Test => (1 << 12, 4),
        };
        let build = |name: &str, src_first: bool| {
            let mut k = KernelBuilder::new(name, DataType::F32);
            let a = k.array("A", vec![n]);
            let b = k.array("B", vec![n]);
            let (src, dst) = if src_first { (a, b) } else { (b, a) };
            let i = k.parallel_loop("i", 1, n as i64 - 1);
            let e = ScalarExpr::add(
                ScalarExpr::add(load1(src, i, -1), load1(src, i, 0)),
                load1(src, i, 1),
            );
            k.assign(dst, vec![Idx::var(i)], e);
            compile_instance(k.build().expect("stencil1d builds"))
        };
        Stencil1d {
            n,
            iters,
            fwd: build("stencil1d_fwd", true),
            bwd: build("stencil1d_bwd", false),
        }
    }
}

impl Benchmark for Stencil1d {
    fn name(&self) -> &str {
        "stencil1d"
    }

    fn arrays(&self) -> Vec<ArrayDecl> {
        self.fwd.sdfg.arrays().to_vec()
    }

    fn init(&self, mem: &mut Memory) {
        fill_small_ints(mem, ArrayId(0), 11, 4);
    }

    fn run(&self, m: &mut Machine, mode: ExecMode) -> Result<(), SimError> {
        for it in 0..self.iters {
            let region = if it % 2 == 0 { &self.fwd } else { &self.bwd };
            m.run_region(region, &[], mode)?;
        }
        Ok(())
    }

    fn reference(&self, mem: &mut Memory) {
        let n = self.n as usize;
        for it in 0..self.iters {
            let (s, d) = if it % 2 == 0 {
                (ArrayId(0), ArrayId(1))
            } else {
                (ArrayId(1), ArrayId(0))
            };
            let src = mem.array(s).to_vec();
            let dst = mem.array_mut(d);
            for i in 1..n - 1 {
                dst[i] = src[i - 1] + src[i] + src[i + 1];
            }
        }
    }

    fn output_arrays(&self) -> Vec<ArrayId> {
        vec![ArrayId(if self.iters % 2 == 1 { 1 } else { 0 })]
    }

    fn instances(&self) -> Vec<&RegionInstance> {
        vec![&self.fwd, &self.bwd]
    }
}

/// 5-point iterative 2-D stencil over an `n×n` grid.
#[derive(Debug)]
pub struct Stencil2d {
    n: u64,
    iters: u32,
    fwd: RegionInstance,
    bwd: RegionInstance,
}

impl Stencil2d {
    /// Table 3: 2k×2k, 10 iterations at paper scale.
    pub fn new(scale: Scale) -> Self {
        let (n, iters) = match scale {
            Scale::Paper => (2048, 10),
            Scale::Test => (64, 3),
        };
        let build = |name: &str, src_first: bool| {
            let mut k = KernelBuilder::new(name, DataType::F32);
            let a = k.array("A", vec![n, n]);
            let b = k.array("B", vec![n, n]);
            let (src, dst) = if src_first { (a, b) } else { (b, a) };
            let i = k.parallel_loop("i", 1, n as i64 - 1);
            let j = k.parallel_loop("j", 1, n as i64 - 1);
            let tap = |di: i64, dj: i64| {
                ScalarExpr::load(src, vec![Idx::var_plus(i, di), Idx::var_plus(j, dj)])
            };
            let sum = ScalarExpr::add(
                ScalarExpr::add(tap(0, 0), ScalarExpr::add(tap(-1, 0), tap(1, 0))),
                ScalarExpr::add(tap(0, -1), tap(0, 1)),
            );
            let scaled = ScalarExpr::mul(sum, ScalarExpr::Const(0.2));
            k.assign(dst, vec![Idx::var(i), Idx::var(j)], scaled);
            compile_instance(k.build().expect("stencil2d builds"))
        };
        Stencil2d {
            n,
            iters,
            fwd: build("stencil2d_fwd", true),
            bwd: build("stencil2d_bwd", false),
        }
    }
}

impl Benchmark for Stencil2d {
    fn name(&self) -> &str {
        "stencil2d"
    }

    fn arrays(&self) -> Vec<ArrayDecl> {
        self.fwd.sdfg.arrays().to_vec()
    }

    fn init(&self, mem: &mut Memory) {
        fill_small_ints(mem, ArrayId(0), 22, 8);
    }

    fn run(&self, m: &mut Machine, mode: ExecMode) -> Result<(), SimError> {
        for it in 0..self.iters {
            let region = if it % 2 == 0 { &self.fwd } else { &self.bwd };
            m.run_region(region, &[], mode)?;
        }
        Ok(())
    }

    fn reference(&self, mem: &mut Memory) {
        let n = self.n as usize;
        for it in 0..self.iters {
            let (s, d) = if it % 2 == 0 {
                (ArrayId(0), ArrayId(1))
            } else {
                (ArrayId(1), ArrayId(0))
            };
            let src = mem.array(s).to_vec();
            let dst = mem.array_mut(d);
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    let at = |x: usize, y: usize| src[x + y * n];
                    dst[i + j * n] = 0.2
                        * (at(i, j) + at(i - 1, j) + at(i + 1, j) + at(i, j - 1) + at(i, j + 1));
                }
            }
        }
    }

    fn output_arrays(&self) -> Vec<ArrayId> {
        vec![ArrayId(if self.iters % 2 == 1 { 1 } else { 0 })]
    }

    fn instances(&self) -> Vec<&RegionInstance> {
        vec![&self.fwd, &self.bwd]
    }
}

/// 7-point iterative 3-D stencil over `nx×ny×nz`.
#[derive(Debug)]
pub struct Stencil3d {
    shape: [u64; 3],
    iters: u32,
    fwd: RegionInstance,
    bwd: RegionInstance,
}

impl Stencil3d {
    /// Table 3: 512×512×16, 10 iterations at paper scale.
    pub fn new(scale: Scale) -> Self {
        let (shape, iters) = match scale {
            Scale::Paper => ([512, 512, 16], 10),
            Scale::Test => ([16, 16, 8], 2),
        };
        let build = |name: &str, src_first: bool| {
            let mut k = KernelBuilder::new(name, DataType::F32);
            let a = k.array("A", shape.to_vec());
            let b = k.array("B", shape.to_vec());
            let (src, dst) = if src_first { (a, b) } else { (b, a) };
            let x = k.parallel_loop("x", 1, shape[0] as i64 - 1);
            let y = k.parallel_loop("y", 1, shape[1] as i64 - 1);
            let z = k.parallel_loop("z", 1, shape[2] as i64 - 1);
            let tap = |dx: i64, dy: i64, dz: i64| {
                ScalarExpr::load(
                    src,
                    vec![
                        Idx::var_plus(x, dx),
                        Idx::var_plus(y, dy),
                        Idx::var_plus(z, dz),
                    ],
                )
            };
            let sum = ScalarExpr::add(
                ScalarExpr::add(tap(0, 0, 0), ScalarExpr::add(tap(-1, 0, 0), tap(1, 0, 0))),
                ScalarExpr::add(
                    ScalarExpr::add(tap(0, -1, 0), tap(0, 1, 0)),
                    ScalarExpr::add(tap(0, 0, -1), tap(0, 0, 1)),
                ),
            );
            k.assign(dst, vec![Idx::var(x), Idx::var(y), Idx::var(z)], sum);
            compile_instance(k.build().expect("stencil3d builds"))
        };
        Stencil3d {
            shape,
            iters,
            fwd: build("stencil3d_fwd", true),
            bwd: build("stencil3d_bwd", false),
        }
    }
}

impl Benchmark for Stencil3d {
    fn name(&self) -> &str {
        "stencil3d"
    }

    fn arrays(&self) -> Vec<ArrayDecl> {
        self.fwd.sdfg.arrays().to_vec()
    }

    fn init(&self, mem: &mut Memory) {
        fill_small_ints(mem, ArrayId(0), 33, 4);
    }

    fn run(&self, m: &mut Machine, mode: ExecMode) -> Result<(), SimError> {
        for it in 0..self.iters {
            let region = if it % 2 == 0 { &self.fwd } else { &self.bwd };
            m.run_region(region, &[], mode)?;
        }
        Ok(())
    }

    fn reference(&self, mem: &mut Memory) {
        let [nx, ny, nz] = self.shape.map(|v| v as usize);
        for it in 0..self.iters {
            let (s, d) = if it % 2 == 0 {
                (ArrayId(0), ArrayId(1))
            } else {
                (ArrayId(1), ArrayId(0))
            };
            let src = mem.array(s).to_vec();
            let dst = mem.array_mut(d);
            let at = |x: usize, y: usize, z: usize| src[x + nx * (y + ny * z)];
            for z in 1..nz - 1 {
                for y in 1..ny - 1 {
                    for x in 1..nx - 1 {
                        dst[x + nx * (y + ny * z)] = at(x, y, z)
                            + at(x - 1, y, z)
                            + at(x + 1, y, z)
                            + at(x, y - 1, z)
                            + at(x, y + 1, z)
                            + at(x, y, z - 1)
                            + at(x, y, z + 1);
                    }
                }
            }
        }
    }

    fn output_arrays(&self) -> Vec<ArrayId> {
        vec![ArrayId(if self.iters % 2 == 1 { 1 } else { 0 })]
    }

    fn instances(&self) -> Vec<&RegionInstance> {
        vec![&self.fwd, &self.bwd]
    }
}

/// Stationary (undecimated) wavelet lifting over an `n×n` image: horizontal
/// predict/update, then vertical predict/update.
#[derive(Debug)]
pub struct Dwt2d {
    n: u64,
    phases: Vec<RegionInstance>,
}

impl Dwt2d {
    /// Table 3: 2k×2k at paper scale.
    pub fn new(scale: Scale) -> Self {
        let n = match scale {
            Scale::Paper => 2048,
            Scale::Test => 64,
        };
        // Arrays: 0 = A (input), 1 = D (detail), 2 = S (smooth), 3 = D2, 4 = OUT.
        let mk = |name: &str,
                  src: u32,
                  aux: u32,
                  dst: u32,
                  dim: usize,
                  lo: i64,
                  hi: i64,
                  predict: bool| {
            let mut k = KernelBuilder::new(name, DataType::F32);
            let arrays: Vec<ArrayId> = ["A", "D", "S", "D2", "OUT"]
                .iter()
                .map(|nm| k.array(*nm, vec![n, n]))
                .collect();
            let i = k.parallel_loop(
                "i",
                if dim == 0 { lo } else { 0 },
                if dim == 0 { hi } else { n as i64 },
            );
            let j = k.parallel_loop(
                "j",
                if dim == 1 { lo } else { 0 },
                if dim == 1 { hi } else { n as i64 },
            );
            let tap = |arr: ArrayId, d: i64| {
                let (di, dj) = if dim == 0 { (d, 0) } else { (0, d) };
                ScalarExpr::load(arr, vec![Idx::var_plus(i, di), Idx::var_plus(j, dj)])
            };
            let (weight, base) = if predict { (-0.5, src) } else { (0.25, src) };
            let neighbors =
                ScalarExpr::add(tap(arrays[aux as usize], -1), tap(arrays[aux as usize], 1));
            let e = ScalarExpr::add(
                tap(arrays[base as usize], 0),
                ScalarExpr::mul(neighbors, ScalarExpr::Const(weight)),
            );
            k.assign(arrays[dst as usize], vec![Idx::var(i), Idx::var(j)], e);
            compile_instance(k.build().expect("dwt2d builds"))
        };
        let ni = n as i64;
        let phases = vec![
            // D = A - 0.5 (A←, A→) on dim 0.
            mk("dwt_h_predict", 0, 0, 1, 0, 1, ni - 1, true),
            // S = A + 0.25 (D←, D→).
            mk("dwt_h_update", 0, 1, 2, 0, 2, ni - 2, false),
            // D2 = S - 0.5 (S↑, S↓) on dim 1.
            mk("dwt_v_predict", 2, 2, 3, 1, 1, ni - 1, true),
            // OUT = S + 0.25 (D2↑, D2↓).
            mk("dwt_v_update", 2, 3, 4, 1, 2, ni - 2, false),
        ];
        Dwt2d { n, phases }
    }

    /// The element-wise lifting step used by the reference: along `dim`,
    /// `dst = src + w·(aux[−1] + aux[+1])` on coordinates `[lo, hi)`.
    #[allow(clippy::too_many_arguments)]
    fn lift(
        src: &[f32],
        aux: &[f32],
        dst: &mut [f32],
        n: usize,
        dim: usize,
        lo: usize,
        hi: usize,
        w: f32,
    ) {
        let stride = if dim == 0 { 1 } else { n };
        for y in 0..n {
            for x in 0..n {
                let c = if dim == 0 { x } else { y };
                if c < lo || c >= hi {
                    continue;
                }
                let idx = x + y * n;
                dst[idx] = src[idx] + w * (aux[idx - stride] + aux[idx + stride]);
            }
        }
    }
}

impl Benchmark for Dwt2d {
    fn name(&self) -> &str {
        "dwt2d"
    }

    fn arrays(&self) -> Vec<ArrayDecl> {
        self.phases[0].sdfg.arrays().to_vec()
    }

    fn init(&self, mem: &mut Memory) {
        fill_small_ints(mem, ArrayId(0), 44, 16);
    }

    fn run(&self, m: &mut Machine, mode: ExecMode) -> Result<(), SimError> {
        for p in &self.phases {
            m.run_region(p, &[], mode)?;
        }
        Ok(())
    }

    fn reference(&self, mem: &mut Memory) {
        let n = self.n as usize;
        let a = mem.array(ArrayId(0)).to_vec();
        let mut d = mem.array(ArrayId(1)).to_vec();
        let mut s = mem.array(ArrayId(2)).to_vec();
        let mut d2 = mem.array(ArrayId(3)).to_vec();
        let mut out = mem.array(ArrayId(4)).to_vec();
        Self::lift(&a, &a, &mut d, n, 0, 1, n - 1, -0.5);
        Self::lift(&a, &d, &mut s, n, 0, 2, n - 2, 0.25);
        Self::lift(&s, &s, &mut d2, n, 1, 1, n - 1, -0.5);
        Self::lift(&s, &d2, &mut out, n, 1, 2, n - 2, 0.25);
        mem.write_array(ArrayId(1), &d);
        mem.write_array(ArrayId(2), &s);
        mem.write_array(ArrayId(3), &d2);
        mem.write_array(ArrayId(4), &out);
    }

    fn output_arrays(&self) -> Vec<ArrayId> {
        vec![ArrayId(3), ArrayId(4)]
    }

    fn instances(&self) -> Vec<&RegionInstance> {
        self.phases.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use infs_sim::SystemConfig;

    fn modes() -> [ExecMode; 4] {
        [
            ExecMode::Base { threads: 64 },
            ExecMode::NearL3,
            ExecMode::InL3,
            ExecMode::InfS,
        ]
    }

    #[test]
    fn stencil1d_verifies() {
        let b = Stencil1d::new(Scale::Test);
        for mode in modes() {
            verify(&b, mode, &SystemConfig::default()).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }

    #[test]
    fn stencil2d_verifies() {
        let b = Stencil2d::new(Scale::Test);
        for mode in modes() {
            verify(&b, mode, &SystemConfig::default()).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }

    #[test]
    fn stencil3d_verifies() {
        let b = Stencil3d::new(Scale::Test);
        for mode in modes() {
            verify(&b, mode, &SystemConfig::default()).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }

    #[test]
    fn dwt2d_verifies() {
        let b = Dwt2d::new(Scale::Test);
        for mode in modes() {
            verify(&b, mode, &SystemConfig::default()).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }
}
