use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an array declared in a region (via the `inf_array` API, §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ArrayId(pub u32);

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "arr{}", self.0)
    }
}

/// Element data type of an array.
///
/// Functional simulation carries all values as `f32` (exact for the integer
/// ranges the workloads use); the data type determines element size, the
/// bit-serial latency of in-memory operations, and transposed-layout geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 32-bit IEEE-754 float (the paper's primary evaluation type).
    F32,
    /// 32-bit signed integer.
    I32,
    /// 8-bit unsigned integer (for narrow-type sensitivity studies).
    U8,
}

impl DataType {
    /// Element size in bytes.
    pub fn size_bytes(self) -> u32 {
        match self {
            DataType::F32 | DataType::I32 => 4,
            DataType::U8 => 1,
        }
    }

    /// Element width in bits (the `n` of the bit-serial latency formulas).
    pub fn bits(self) -> u32 {
        self.size_bytes() * 8
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::F32 => "f32",
            DataType::I32 => "i32",
            DataType::U8 => "u8",
        };
        f.write_str(s)
    }
}

/// Declaration of one array participating in a region: the information the
/// `inf_array(ptr, elem_size, sizes…)` runtime call conveys (§3.4, Fig 7).
///
/// Shapes are innermost-dimension-first (`shape[0]` is contiguous in the
/// address space), up to three dimensions as supported by the layout override
/// table (Table 1); higher-dimensional data must fuse dimensions first.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayDecl {
    /// Human-readable name (for diagnostics and experiment reports).
    pub name: String,
    /// Extent per dimension, innermost first. Empty means a scalar cell.
    pub shape: Vec<u64>,
    /// Element type.
    pub dtype: DataType,
}

impl ArrayDecl {
    /// Creates a declaration.
    pub fn new(name: impl Into<String>, shape: Vec<u64>, dtype: DataType) -> Self {
        ArrayDecl {
            name: name.into(),
            shape,
            dtype,
        }
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> u64 {
        self.shape.iter().product()
    }

    /// Total footprint in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.num_elements() * self.dtype.size_bytes() as u64
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }
}

/// `min(a, b)` as every operator in the stack computes it: `f32::min`, with
/// the one case that leaves to the compiler pinned down — of `+0` and `−0`
/// the minimum is `−0` (IEEE 754-2019 `minimumNumber`).
///
/// `f32::min` may return either zero, and an optimized build does pick
/// differently in two loops over the same data, so without this the bitwise
/// contract between the executors, their reference and the e-graph's
/// commuted operands (DESIGN.md §11) would rest on instruction selection.
/// With it the result is a function of the operand bits, commutative and
/// associative on ties.
#[inline]
pub fn fmin(a: f32, b: f32) -> f32 {
    if a == b {
        // Equal operands differ at most in the sign of zero: keep a set sign.
        f32::from_bits(a.to_bits() | b.to_bits())
    } else {
        a.min(b)
    }
}

/// `max(a, b)` with the signed-zero tie pinned the other way: of `+0` and
/// `−0` the maximum is `+0`. See [`fmin`].
#[inline]
pub fn fmax(a: f32, b: f32) -> f32 {
    if a == b {
        f32::from_bits(a.to_bits() & b.to_bits())
    } else {
        a.max(b)
    }
}

/// Associative reduction operator for reduce streams and in-memory reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReduceOp {
    /// Sum of elements.
    Sum,
    /// Minimum element.
    Min,
    /// Maximum element.
    Max,
}

impl ReduceOp {
    /// Identity element of the reduction.
    pub fn identity(self) -> f32 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Min => f32::INFINITY,
            ReduceOp::Max => f32::NEG_INFINITY,
        }
    }

    /// Applies one reduction step.
    #[inline]
    pub fn apply(self, acc: f32, x: f32) -> f32 {
        match self {
            ReduceOp::Sum => acc + x,
            ReduceOp::Min => fmin(acc, x),
            ReduceOp::Max => fmax(acc, x),
        }
    }
}

impl fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Min => "min",
            ReduceOp::Max => "max",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes() {
        assert_eq!(DataType::F32.size_bytes(), 4);
        assert_eq!(DataType::I32.bits(), 32);
        assert_eq!(DataType::U8.bits(), 8);
    }

    #[test]
    fn array_decl_footprint() {
        let a = ArrayDecl::new("a", vec![2048, 2048], DataType::F32);
        assert_eq!(a.num_elements(), 4 << 20);
        assert_eq!(a.size_bytes(), 16 << 20);
        assert_eq!(a.ndim(), 2);
    }

    #[test]
    fn reduce_identities() {
        assert_eq!(ReduceOp::Sum.apply(ReduceOp::Sum.identity(), 3.0), 3.0);
        assert_eq!(ReduceOp::Min.apply(ReduceOp::Min.identity(), 3.0), 3.0);
        assert_eq!(ReduceOp::Max.apply(ReduceOp::Max.identity(), 3.0), 3.0);
    }

    #[test]
    fn min_and_max_pin_the_signed_zero_tie() {
        for (a, b) in [(0.0f32, -0.0f32), (-0.0, 0.0)] {
            assert_eq!(fmin(a, b).to_bits(), (-0.0f32).to_bits());
            assert_eq!(fmax(a, b).to_bits(), 0.0f32.to_bits());
        }
        assert_eq!(fmin(-0.0, -0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(fmax(-0.0, -0.0).to_bits(), (-0.0f32).to_bits());
        // Everything else is `f32::min` / `f32::max`, NaN handling included.
        for (a, b) in [
            (1.5f32, -2.0f32),
            (3.0, 3.0),
            (f32::NAN, 1.0),
            (-1.0, f32::NAN),
        ] {
            assert_eq!(fmin(a, b).to_bits(), a.min(b).to_bits());
            assert_eq!(fmax(a, b).to_bits(), a.max(b).to_bits());
        }
        // A fold's result no longer depends on which zero it meets first.
        let zeros = [0.0f32, -0.0, 0.0, -0.0];
        let fold = |f: fn(f32, f32) -> f32, it: &mut dyn Iterator<Item = &f32>| {
            it.fold(f32::NAN, |acc, &v| if acc.is_nan() { v } else { f(acc, v) })
                .to_bits()
        };
        assert_eq!(
            fold(fmin, &mut zeros.iter()),
            fold(fmin, &mut zeros.iter().rev())
        );
        assert_eq!(
            fold(fmax, &mut zeros.iter()),
            fold(fmax, &mut zeros.iter().rev())
        );
    }

    #[test]
    fn display_impls() {
        assert_eq!(ArrayId(3).to_string(), "arr3");
        assert_eq!(DataType::F32.to_string(), "f32");
        assert_eq!(ReduceOp::Max.to_string(), "max");
    }
}
