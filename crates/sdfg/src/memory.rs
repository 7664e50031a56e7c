use crate::{ArrayDecl, ArrayId, SdfgError};
use std::sync::OnceLock;

/// Functional memory backing a set of declared arrays.
///
/// Interpreters (sDFG, tDFG, and the simulator's functional half) read and write
/// real `f32` element values here, so every configuration — baseline, near-memory
/// and in-memory — can be checked against a scalar reference for end-to-end
/// correctness. Linearization is dimension-0-fastest, matching the lattice-space
/// convention of `infs-geom`.
///
/// Each array's storage is allocated, zeroed, on first access. A timing-only
/// simulation never reads or writes array data, so its memory costs nothing;
/// zeroing it eagerly cost up to 16 MB of `memset` per paper-scale array, or
/// nothing, depending on whether the allocator reused heap pages or mapped
/// fresh ones.
#[derive(Debug, Clone)]
pub struct Memory {
    decls: Vec<ArrayDecl>,
    data: Vec<OnceLock<Vec<f32>>>,
}

impl Memory {
    /// Zero-initialized storage for the given declarations, indexed by their
    /// position (i.e. by [`ArrayId`]).
    pub fn for_arrays(decls: &[ArrayDecl]) -> Self {
        Memory {
            decls: decls.to_vec(),
            data: decls.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// Zeroes every array in place (the state [`for_arrays`](Self::for_arrays)
    /// returns, without reallocating).
    pub fn zero(&mut self) {
        for a in self.data.iter_mut().filter_map(OnceLock::get_mut) {
            a.fill(0.0);
        }
    }

    fn storage(&self, array: usize) -> &Vec<f32> {
        self.data[array].get_or_init(|| vec![0.0; self.decls[array].num_elements() as usize])
    }

    fn storage_mut(&mut self, array: usize) -> &mut Vec<f32> {
        self.storage(array);
        self.data[array].get_mut().expect("initialized above")
    }

    /// The declarations this memory was built for.
    pub fn decls(&self) -> &[ArrayDecl] {
        &self.decls
    }

    /// Declaration of one array.
    ///
    /// # Errors
    ///
    /// Returns [`SdfgError::UnknownArray`] for an undeclared id.
    pub fn decl(&self, array: ArrayId) -> Result<&ArrayDecl, SdfgError> {
        self.decls
            .get(array.0 as usize)
            .ok_or(SdfgError::UnknownArray(array))
    }

    /// Linear index of a coordinate within an array (dimension 0 fastest).
    ///
    /// # Errors
    ///
    /// Returns [`SdfgError::OutOfBounds`] if the coordinate is outside the array
    /// or has the wrong rank, and [`SdfgError::UnknownArray`] for a bad id.
    pub fn linear(&self, array: ArrayId, coords: &[i64]) -> Result<usize, SdfgError> {
        let decl = self.decl(array)?;
        if coords.len() != decl.ndim() {
            return Err(SdfgError::OutOfBounds {
                array,
                coords: coords.to_vec(),
            });
        }
        let mut idx = 0u64;
        let mut stride = 1u64;
        for (d, &c) in coords.iter().enumerate() {
            if c < 0 || c as u64 >= decl.shape[d] {
                return Err(SdfgError::OutOfBounds {
                    array,
                    coords: coords.to_vec(),
                });
            }
            idx += c as u64 * stride;
            stride *= decl.shape[d];
        }
        Ok(idx as usize)
    }

    /// Reads one element.
    ///
    /// # Errors
    ///
    /// See [`linear`](Self::linear).
    pub fn read(&self, array: ArrayId, coords: &[i64]) -> Result<f32, SdfgError> {
        let idx = self.linear(array, coords)?;
        Ok(self.storage(array.0 as usize)[idx])
    }

    /// Writes one element.
    ///
    /// # Errors
    ///
    /// See [`linear`](Self::linear).
    pub fn write(&mut self, array: ArrayId, coords: &[i64], value: f32) -> Result<(), SdfgError> {
        let idx = self.linear(array, coords)?;
        self.storage_mut(array.0 as usize)[idx] = value;
        Ok(())
    }

    /// Borrows the full backing slice of an array (dimension-0-fastest order).
    ///
    /// # Panics
    ///
    /// Panics if the array id is unknown.
    pub fn array(&self, array: ArrayId) -> &[f32] {
        self.storage(array.0 as usize)
    }

    /// Mutably borrows the full backing slice of an array.
    ///
    /// # Panics
    ///
    /// Panics if the array id is unknown.
    pub fn array_mut(&mut self, array: ArrayId) -> &mut [f32] {
        self.storage_mut(array.0 as usize)
    }

    /// Overwrites an array's contents from a slice.
    ///
    /// # Panics
    ///
    /// Panics if the array id is unknown or `values` has the wrong length.
    pub fn write_array(&mut self, array: ArrayId, values: &[f32]) {
        let dst = self.storage_mut(array.0 as usize);
        assert_eq!(
            dst.len(),
            values.len(),
            "array {array} has {} elements, got {}",
            dst.len(),
            values.len()
        );
        dst.copy_from_slice(values);
    }
}

/// Arrays compare by contents; one never accessed reads as zeros.
impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        let zeros = |a: &[f32]| a.iter().all(|&x| x == 0.0);
        self.decls == other.decls
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| match (a.get(), b.get()) {
                    (Some(a), Some(b)) => a == b,
                    (Some(a), None) | (None, Some(a)) => zeros(a),
                    (None, None) => true,
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;

    fn mem() -> Memory {
        Memory::for_arrays(&[
            ArrayDecl::new("a", vec![4, 2], DataType::F32),
            ArrayDecl::new("b", vec![3], DataType::F32),
        ])
    }

    #[test]
    fn zero_initialized() {
        let m = mem();
        assert_eq!(m.array(ArrayId(0)).len(), 8);
        assert!(m.array(ArrayId(0)).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = mem();
        m.write(ArrayId(0), &[3, 1], 7.5).unwrap();
        assert_eq!(m.read(ArrayId(0), &[3, 1]).unwrap(), 7.5);
        // dim0-fastest: (3,1) -> 3 + 1*4 = 7.
        assert_eq!(m.array(ArrayId(0))[7], 7.5);
    }

    #[test]
    fn bounds_are_checked() {
        let m = mem();
        assert!(matches!(
            m.read(ArrayId(0), &[4, 0]),
            Err(SdfgError::OutOfBounds { .. })
        ));
        assert!(matches!(
            m.read(ArrayId(0), &[-1, 0]),
            Err(SdfgError::OutOfBounds { .. })
        ));
        assert!(matches!(
            m.read(ArrayId(0), &[0]),
            Err(SdfgError::OutOfBounds { .. })
        ));
        assert!(matches!(
            m.read(ArrayId(9), &[0]),
            Err(SdfgError::UnknownArray(_))
        ));
    }

    #[test]
    fn arrays_are_allocated_on_first_access() {
        let mut m = mem();
        assert!(m.data.iter().all(|a| a.get().is_none()));
        m.write(ArrayId(1), &[2], 1.0).unwrap();
        assert!(m.data[0].get().is_none());
        assert_eq!(m.array(ArrayId(1)), [0.0, 0.0, 1.0]);
    }

    #[test]
    fn zero_restores_the_initial_state() {
        let mut m = mem();
        m.write(ArrayId(0), &[3, 1], 7.5).unwrap();
        m.write_array(ArrayId(1), &[1.0, 2.0, 3.0]);
        m.zero();
        assert_eq!(m, mem());
    }

    #[test]
    fn write_array_replaces_contents() {
        let mut m = mem();
        m.write_array(ArrayId(1), &[1.0, 2.0, 3.0]);
        assert_eq!(m.read(ArrayId(1), &[2]).unwrap(), 3.0);
    }
}
