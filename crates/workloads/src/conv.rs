//! Convolution workloads: `conv2d` (3×3, constant weights — the Fig 6 e-graph
//! optimization showcase) and `conv3d` (channelled convolution executed as
//! broadcast + element-wise rounds, Table 3: H/W=256, K=3×3, I/O=64).

use crate::util::{compile, compile_instance, fill_small_ints, instantiate};
use crate::{Benchmark, Scale};
use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_isa::{CompiledRegion, RegionInstance};
use infs_sdfg::{ArrayDecl, ArrayId, DataType, Memory};
use infs_sim::{ExecMode, Machine, SimError};

/// 3×3 single-channel convolution with the symmetric constant weights of
/// Fig 6 (`C0` corners/edges, `C1` cross, `C2` center).
#[derive(Debug)]
pub struct Conv2d {
    n: u64,
    region: RegionInstance,
}

const C0: f32 = 0.0625;
const C1: f32 = 0.125;
const C2: f32 = 0.25;

impl Conv2d {
    /// Table 3: 2k×2k at paper scale.
    pub fn new(scale: Scale) -> Self {
        let n = match scale {
            Scale::Paper => 2048,
            Scale::Test => 64,
        };
        let mut k = KernelBuilder::new("conv2d", DataType::F32);
        let a = k.array("A", vec![n, n]);
        let b = k.array("B", vec![n, n]);
        let i = k.parallel_loop("i", 1, n as i64 - 1);
        let j = k.parallel_loop("j", 1, n as i64 - 1);
        let tap = |di: i64, dj: i64, w: f32| {
            ScalarExpr::mul(
                ScalarExpr::load(a, vec![Idx::var_plus(i, di), Idx::var_plus(j, dj)]),
                ScalarExpr::Const(w),
            )
        };
        // Weight pattern of Fig 6: [C0 C1 C0; C1 C2 C1; C0 C1 C0].
        let mut acc = tap(0, 0, C2);
        for (di, dj, w) in [
            (-1, -1, C0),
            (1, -1, C0),
            (-1, 1, C0),
            (1, 1, C0),
            (-1, 0, C1),
            (1, 0, C1),
            (0, -1, C1),
            (0, 1, C1),
        ] {
            acc = ScalarExpr::add(acc, tap(di, dj, w));
        }
        k.assign(b, vec![Idx::var(i), Idx::var(j)], acc);
        // The e-graph optimizer discovers the shared C0/C1 scalings (Fig 6).
        let region = compile_instance(k.build().expect("conv2d builds"));
        Conv2d { n, region }
    }
}

impl Benchmark for Conv2d {
    fn name(&self) -> &str {
        "conv2d"
    }

    fn arrays(&self) -> Vec<ArrayDecl> {
        self.region.sdfg.arrays().to_vec()
    }

    fn init(&self, mem: &mut Memory) {
        fill_small_ints(mem, ArrayId(0), 55, 16);
    }

    fn run(&self, m: &mut Machine, mode: ExecMode) -> Result<(), SimError> {
        m.run_region(&self.region, &[], mode)?;
        Ok(())
    }

    fn reference(&self, mem: &mut Memory) {
        let n = self.n as usize;
        let a = mem.array(ArrayId(0)).to_vec();
        let b = mem.array_mut(ArrayId(1));
        let at = |x: usize, y: usize| a[x + y * n];
        for j in 1..n - 1 {
            for i in 1..n - 1 {
                b[i + j * n] = C2 * at(i, j)
                    + C0 * (at(i - 1, j - 1)
                        + at(i + 1, j - 1)
                        + at(i - 1, j + 1)
                        + at(i + 1, j + 1))
                    + C1 * (at(i - 1, j) + at(i + 1, j) + at(i, j - 1) + at(i, j + 1));
            }
        }
    }

    fn output_arrays(&self) -> Vec<ArrayId> {
        vec![ArrayId(1)]
    }

    fn instances(&self) -> Vec<&RegionInstance> {
        vec![&self.region]
    }
}

/// Channelled 3×3 convolution: `OUT[x][y][co] = Σ_{ci,dx,dy} IN[x+dx][y+dy][ci]
/// · WT[co][ci][tap]`, executed as `CI×9` broadcast + element-wise accumulation
/// rounds over the `(x, y, co)` lattice — the "BC, Elem" pattern of Table 3.
/// Each round's weight vector is staged into a broadcastable buffer by a
/// near-memory copy stream (a hybrid region, like Fig 7's tensor `m`).
#[derive(Debug)]
pub struct Conv3d {
    hw: u64,
    chans: u64,
    wcopy: CompiledRegion,
    acc: CompiledRegion,
}

impl Conv3d {
    /// Table 3: H/W = 256, I/O channels = 64, 3×3 taps at paper scale.
    pub fn new(scale: Scale) -> Self {
        let (hw, chans) = match scale {
            Scale::Paper => (256, 64),
            Scale::Test => (16, 8),
        };
        // Shared array table: 0 IN [hw,hw,ci], 1 OUT [hw,hw,co],
        // 2 WT [co,ci,9], 3 WBUF [1,1,co].
        let declare = |k: &mut KernelBuilder| -> [ArrayId; 4] {
            [
                k.array("IN", vec![hw, hw, chans]),
                k.array("OUT", vec![hw, hw, chans]),
                k.array("WT", vec![chans, chans, 9]),
                k.array("WBUF", vec![1, 1, chans]),
            ]
        };
        // Weight staging: WBUF[0][0][co] = WT[co][ci][t] — near-memory stream.
        let wcopy = {
            let mut k = KernelBuilder::new("conv3d_wcopy", DataType::F32);
            let [_, _, wt, wbuf] = declare(&mut k);
            let ci = k.sym("ci");
            let t = k.sym("t");
            let co = k.parallel_loop("co", 0, chans as i64);
            k.assign(
                wbuf,
                vec![Idx::constant(0), Idx::constant(0), Idx::var(co)],
                ScalarExpr::load(wt, vec![Idx::var(co), Idx::sym(ci), Idx::sym(t)]),
            );
            compile(k.build().expect("conv3d_wcopy builds"), &[0, 0])
        };
        // Accumulation round: OUT += IN(ci plane, shifted) × WBUF (broadcast).
        let acc = {
            let mut k = KernelBuilder::new("conv3d_acc", DataType::F32);
            let [inp, out, _, wbuf] = declare(&mut k);
            let ci = k.sym("ci");
            let dx = k.sym("dx");
            let dy = k.sym("dy");
            let x = k.parallel_loop("x", 1, hw as i64 - 1);
            let y = k.parallel_loop("y", 1, hw as i64 - 1);
            let co = k.parallel_loop("co", 0, chans as i64);
            let in_tap = ScalarExpr::load(
                inp,
                vec![
                    Idx::var(x).plus_sym(dx, 1),
                    Idx::var(y).plus_sym(dy, 1),
                    Idx::sym(ci),
                ],
            );
            let w = ScalarExpr::load(wbuf, vec![Idx::constant(0), Idx::constant(0), Idx::var(co)]);
            k.accum(
                out,
                vec![Idx::var(x), Idx::var(y), Idx::var(co)],
                infs_sdfg::ReduceOp::Sum,
                ScalarExpr::mul(in_tap, w),
            );
            compile(k.build().expect("conv3d_acc builds"), &[0, 0, 0])
        };
        Conv3d {
            hw,
            chans,
            wcopy,
            acc,
        }
    }
}

impl Benchmark for Conv3d {
    fn name(&self) -> &str {
        "conv3d"
    }

    fn arrays(&self) -> Vec<ArrayDecl> {
        self.wcopy.kernel().arrays().to_vec()
    }

    fn init(&self, mem: &mut Memory) {
        fill_small_ints(mem, ArrayId(0), 66, 4);
        fill_small_ints(mem, ArrayId(2), 67, 3);
    }

    fn run(&self, m: &mut Machine, mode: ExecMode) -> Result<(), SimError> {
        for ci in 0..self.chans as i64 {
            for t in 0..9i64 {
                let (dx, dy) = (t % 3 - 1, t / 3 - 1);
                let wcopy = instantiate(&self.wcopy, &[ci, t]);
                m.run_region(&wcopy, &[], mode)?;
                let acc = instantiate(&self.acc, &[ci, dx, dy]);
                m.run_region(&acc, &[], mode)?;
            }
        }
        Ok(())
    }

    fn reference(&self, mem: &mut Memory) {
        let (hw, ch) = (self.hw as usize, self.chans as usize);
        let inp = mem.array(ArrayId(0)).to_vec();
        let wt = mem.array(ArrayId(2)).to_vec();
        let out = mem.array_mut(ArrayId(1));
        let iat = |x: usize, y: usize, c: usize| inp[x + hw * (y + hw * c)];
        for co in 0..ch {
            for y in 1..hw - 1 {
                for x in 1..hw - 1 {
                    let mut acc = 0.0;
                    for ci in 0..ch {
                        for t in 0..9 {
                            let (dx, dy) = ((t % 3) as i64 - 1, (t / 3) as i64 - 1);
                            let w = wt[co + ch * (ci + ch * t)];
                            acc += w * iat((x as i64 + dx) as usize, (y as i64 + dy) as usize, ci);
                        }
                    }
                    out[x + hw * (y + hw * co)] = acc;
                }
            }
        }
    }

    fn output_arrays(&self) -> Vec<ArrayId> {
        vec![ArrayId(1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use infs_sim::SystemConfig;

    #[test]
    fn conv2d_verifies() {
        let b = Conv2d::new(Scale::Test);
        for mode in [
            ExecMode::Base { threads: 64 },
            ExecMode::NearL3,
            ExecMode::InL3,
            ExecMode::InfS,
        ] {
            verify(&b, mode, &SystemConfig::default()).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }

    #[test]
    fn conv3d_verifies() {
        let b = Conv3d::new(Scale::Test);
        for mode in [
            ExecMode::Base { threads: 64 },
            ExecMode::NearL3,
            ExecMode::InfS,
        ] {
            verify(&b, mode, &SystemConfig::default()).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }

    /// A negative tap offset shrinks the accumulation round's touched
    /// lattice, and with it the §4.1 pick. The operands are resident under
    /// the first round's tile, which the second round admits — so it must
    /// enter without moving a byte.
    #[test]
    fn conv3d_taps_keep_the_resident_tile() {
        let b = Conv3d::new(Scale::Test);
        let mut m = Machine::new(SystemConfig::default(), &b.arrays());
        m.set_functional(false);
        m.set_resident_all();
        let mut round = |dx: i64| {
            let acc = instantiate(&b.acc, &[0, dx, 0]);
            m.run_region(&acc, &[], ExecMode::InL3).unwrap()
        };
        let (centre, left) = (round(0), round(-1));
        assert_eq!(left.executed, infs_sim::Executed::InMemory);
        assert!(centre.prepare_cycles > 0);
        assert_eq!(left.prepare_cycles, 0);
    }
}
