use infs_sdfg::{fmax, fmin, DataType};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Element-wise operation of a tDFG compute node.
///
/// Operations are applied per lattice cell to the intersection of the input
/// tensors. Comparison operators produce `1.0` / `0.0` masks that combine with
/// [`Select`](ComputeOp::Select) to express data-dependent element-wise control
/// (e.g. the closest-centroid search in kmeans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ComputeOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// `-a`
    Neg,
    /// `|a|`
    Abs,
    /// `sqrt(a)`
    Sqrt,
    /// `max(a, 0)`
    Relu,
    /// `a < b ? 1 : 0`
    CmpLt,
    /// `a <= b ? 1 : 0`
    CmpLe,
    /// `a == b ? 1 : 0`
    CmpEq,
    /// `c != 0 ? a : b` (inputs ordered `[c, a, b]`)
    Select,
    /// `a` (identity; materializes an aligned copy)
    Copy,
}

impl ComputeOp {
    /// Every operation, in declaration order.
    pub const ALL: [ComputeOp; 15] = [
        ComputeOp::Add,
        ComputeOp::Sub,
        ComputeOp::Mul,
        ComputeOp::Div,
        ComputeOp::Min,
        ComputeOp::Max,
        ComputeOp::Neg,
        ComputeOp::Abs,
        ComputeOp::Sqrt,
        ComputeOp::Relu,
        ComputeOp::CmpLt,
        ComputeOp::CmpLe,
        ComputeOp::CmpEq,
        ComputeOp::Select,
        ComputeOp::Copy,
    ];

    /// Number of input tensors the operation consumes.
    pub fn arity(self) -> usize {
        match self {
            ComputeOp::Neg
            | ComputeOp::Abs
            | ComputeOp::Sqrt
            | ComputeOp::Relu
            | ComputeOp::Copy => 1,
            ComputeOp::Select => 3,
            _ => 2,
        }
    }

    /// True if `op(op(a,b),c) == op(a,op(b,c))`.
    pub fn is_associative(self) -> bool {
        matches!(
            self,
            ComputeOp::Add | ComputeOp::Mul | ComputeOp::Min | ComputeOp::Max
        )
    }

    /// Applies the operation to the given operands.
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != self.arity()`.
    #[inline]
    pub fn eval(self, args: &[f32]) -> f32 {
        assert_eq!(args.len(), self.arity(), "wrong arity for {self}");
        match self {
            ComputeOp::Add => args[0] + args[1],
            ComputeOp::Sub => args[0] - args[1],
            ComputeOp::Mul => args[0] * args[1],
            ComputeOp::Div => args[0] / args[1],
            ComputeOp::Min => fmin(args[0], args[1]),
            ComputeOp::Max => fmax(args[0], args[1]),
            ComputeOp::Neg => -args[0],
            ComputeOp::Abs => args[0].abs(),
            ComputeOp::Sqrt => args[0].sqrt(),
            ComputeOp::Relu => fmax(args[0], 0.0),
            ComputeOp::CmpLt => f32::from(args[0] < args[1]),
            ComputeOp::CmpLe => f32::from(args[0] <= args[1]),
            ComputeOp::CmpEq => f32::from(args[0] == args[1]),
            ComputeOp::Select => {
                if args[0] != 0.0 {
                    args[1]
                } else {
                    args[2]
                }
            }
            ComputeOp::Copy => args[0],
        }
    }
}

impl fmt::Display for ComputeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ComputeOp::Add => "add",
            ComputeOp::Sub => "sub",
            ComputeOp::Mul => "mul",
            ComputeOp::Div => "div",
            ComputeOp::Min => "min",
            ComputeOp::Max => "max",
            ComputeOp::Neg => "neg",
            ComputeOp::Abs => "abs",
            ComputeOp::Sqrt => "sqrt",
            ComputeOp::Relu => "relu",
            ComputeOp::CmpLt => "cmplt",
            ComputeOp::CmpLe => "cmple",
            ComputeOp::CmpEq => "cmpeq",
            ComputeOp::Select => "select",
            ComputeOp::Copy => "copy",
        };
        f.write_str(s)
    }
}

/// Bit-serial in-SRAM latency of one element-wise operation, in cycles.
///
/// Every bitline computes the operation simultaneously, so this latency is paid
/// once per command regardless of how many elements participate — the essence of
/// the in-memory trade-off: long serial latency, massive parallelism.
///
/// Integer formulas follow the paper (§2.2, §5): addition is `O(n)` and
/// multiplication `n² + 5n` for `n`-bit operands, using the compute-SRAM
/// algorithms of Neural Cache / Duality Cache. Floating-point composes
/// mantissa/exponent bit-serial steps in the style of Duality Cache; the
/// constants below are model parameters — the evaluation depends on their
/// *ratios* (mul ≫ add ≫ copy), not their absolute values.
pub fn bit_serial_latency(op: ComputeOp, dtype: DataType) -> u64 {
    let n = dtype.bits() as u64;
    match dtype {
        DataType::I32 | DataType::U8 => match op {
            ComputeOp::Add | ComputeOp::Sub => 2 * n + 1,
            ComputeOp::Mul => n * n + 5 * n,
            ComputeOp::Div | ComputeOp::Sqrt => 3 * n * n / 2 + 5 * n,
            ComputeOp::Min
            | ComputeOp::Max
            | ComputeOp::CmpLt
            | ComputeOp::CmpLe
            | ComputeOp::CmpEq => 2 * n + 1,
            ComputeOp::Neg | ComputeOp::Abs | ComputeOp::Relu | ComputeOp::Copy => n + 1,
            ComputeOp::Select => 3 * n + 1,
        },
        DataType::F32 => {
            // s=1, e=8, m=23 (+hidden bit): mantissa ops dominate.
            const M: u64 = 24;
            const E: u64 = 8;
            match op {
                // Align (shift mantissa by exponent diff) + add + normalize.
                ComputeOp::Add | ComputeOp::Sub => 8 * M + 2 * E, // 208
                // Mantissa multiply + exponent add + normalize.
                ComputeOp::Mul => M * M + 5 * M + 2 * E + 1, // 713
                ComputeOp::Div => 3 * M * M / 2 + 5 * M + 2 * E + 1, // 1001
                ComputeOp::Sqrt => 2 * M * M,                // 1152
                // Sign-magnitude comparison works on the raw bit pattern.
                ComputeOp::Min
                | ComputeOp::Max
                | ComputeOp::CmpLt
                | ComputeOp::CmpLe
                | ComputeOp::CmpEq => 2 * 32 + 1, // 65
                ComputeOp::Neg | ComputeOp::Abs | ComputeOp::Relu | ComputeOp::Copy => 32 + 2, // 34
                ComputeOp::Select => 3 * 32 + 1,                                               // 97
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_covers_all_ops() {
        // `ALL` lists the operations in declaration order, each once. The
        // match has no wildcard, so a new operation does not compile until
        // it is given an arity here, and a new one is appended to `ALL`.
        for (i, &op) in ComputeOp::ALL.iter().enumerate() {
            assert_eq!(op as usize, i, "{op} is out of place in ComputeOp::ALL");
            let arity = match op {
                ComputeOp::Neg
                | ComputeOp::Abs
                | ComputeOp::Sqrt
                | ComputeOp::Relu
                | ComputeOp::Copy => 1,
                ComputeOp::Add
                | ComputeOp::Sub
                | ComputeOp::Mul
                | ComputeOp::Div
                | ComputeOp::Min
                | ComputeOp::Max
                | ComputeOp::CmpLt
                | ComputeOp::CmpLe
                | ComputeOp::CmpEq => 2,
                ComputeOp::Select => 3,
            };
            assert_eq!(op.arity(), arity, "{op}");
        }
    }

    #[test]
    fn eval_binary_ops() {
        assert_eq!(ComputeOp::Add.eval(&[2.0, 3.0]), 5.0);
        assert_eq!(ComputeOp::Sub.eval(&[2.0, 3.0]), -1.0);
        assert_eq!(ComputeOp::Mul.eval(&[2.0, 3.0]), 6.0);
        assert_eq!(ComputeOp::Div.eval(&[3.0, 2.0]), 1.5);
        assert_eq!(ComputeOp::Min.eval(&[2.0, 3.0]), 2.0);
        assert_eq!(ComputeOp::Max.eval(&[2.0, 3.0]), 3.0);
        assert_eq!(ComputeOp::CmpLt.eval(&[2.0, 3.0]), 1.0);
        assert_eq!(ComputeOp::CmpLe.eval(&[3.0, 3.0]), 1.0);
        assert_eq!(ComputeOp::CmpEq.eval(&[3.0, 2.0]), 0.0);
    }

    #[test]
    fn eval_unary_and_select() {
        assert_eq!(ComputeOp::Neg.eval(&[2.0]), -2.0);
        assert_eq!(ComputeOp::Abs.eval(&[-2.0]), 2.0);
        assert_eq!(ComputeOp::Sqrt.eval(&[16.0]), 4.0);
        assert_eq!(ComputeOp::Relu.eval(&[-1.0]), 0.0);
        assert_eq!(ComputeOp::Select.eval(&[1.0, 7.0, 9.0]), 7.0);
        assert_eq!(ComputeOp::Select.eval(&[0.0, 7.0, 9.0]), 9.0);
        assert_eq!(ComputeOp::Copy.eval(&[5.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn eval_panics_on_bad_arity() {
        ComputeOp::Add.eval(&[1.0]);
    }

    #[test]
    fn algebraic_properties() {
        assert!(ComputeOp::Add.is_associative());
        assert!(!ComputeOp::Sub.is_associative());
        assert!(ComputeOp::Min.is_associative());
    }

    #[test]
    fn latency_ratios_match_bit_serial_model() {
        use DataType::*;
        // int mul is n^2-ish, add is O(n).
        assert_eq!(bit_serial_latency(ComputeOp::Add, I32), 65);
        assert_eq!(bit_serial_latency(ComputeOp::Mul, I32), 32 * 32 + 5 * 32);
        // fp32: mul >> add >> cmp/copy.
        let fadd = bit_serial_latency(ComputeOp::Add, F32);
        let fmul = bit_serial_latency(ComputeOp::Mul, F32);
        let fcmp = bit_serial_latency(ComputeOp::Max, F32);
        assert!(fmul > 3 * fadd);
        assert!(fadd > 2 * fcmp);
        // Narrow types are cheaper.
        assert!(bit_serial_latency(ComputeOp::Mul, U8) < bit_serial_latency(ComputeOp::Mul, I32));
    }
}
