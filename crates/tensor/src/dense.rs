use std::fmt;
use std::sync::Arc;

use rand::Rng;

use crate::{Result, Shape, TensorError};

/// A dense, row-major, contiguous `f32` tensor of arbitrary rank.
///
/// `Tensor` is the workhorse value type of the suite: every GNN layer's
/// activations, weights and gradients are `Tensor`s. Operations are defined
/// in [`crate::ops`] as inherent methods and free functions; each one
/// executes on CPU and emits an instrumentation event when recording is
/// enabled (see [`crate::record`]).
///
/// # Storage: shared, copy-on-write
///
/// The data buffer is reference-counted. [`Clone`] and
/// [`Tensor::reshape`] hand out another handle to the *same* buffer in
/// O(1); no handle can observe a write made through another, because the
/// two writers — [`Tensor::as_mut_slice`] and [`Tensor::set`] — first give
/// the written handle a private copy when (and only when) the buffer is
/// shared. A tensor that was never cloned therefore never copies.
///
/// # Example
///
/// ```
/// use gnnmark_tensor::Tensor;
///
/// let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// assert_eq!(t.numel(), 4);
/// # Ok::<(), gnnmark_tensor::TensorError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Arc<Vec<f32>>,
    shape: Shape,
}

impl Tensor {
    fn from_parts(data: Vec<f32>, shape: Shape) -> Self {
        Tensor {
            data: Arc::new(data),
            shape,
        }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor::from_parts(vec![0.0; shape.numel()], shape)
    }

    /// Creates a tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor::from_parts(vec![value; shape.numel()], shape)
    }

    /// Creates a rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor::from_parts(vec![value], Shape::new(&[]))
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] if `data.len()` does not
    /// match the number of elements implied by `dims`.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.numel() != data.len() {
            return Err(TensorError::InvalidArgument {
                op: "from_vec",
                reason: format!(
                    "shape {shape} implies {} elements, data has {}",
                    shape.numel(),
                    data.len()
                ),
            });
        }
        Ok(Tensor::from_parts(data, shape))
    }

    /// Creates a tensor whose elements are produced by `f(flat_index)`.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.numel()).map(&mut f).collect();
        Tensor::from_parts(data, shape)
    }

    /// Creates a tensor of i.i.d. normal samples with the given std-dev.
    pub fn randn<R: Rng + ?Sized>(dims: &[usize], std: f32, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        // Box–Muller transform; draws pairs of uniforms.
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen::<f32>();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor::from_parts(data, shape)
    }

    /// Creates a tensor of i.i.d. uniform samples in `[lo, hi)`.
    pub fn uniform<R: Rng + ?Sized>(dims: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.numel()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor::from_parts(data, shape)
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Extent of dimension `axis`.
    ///
    /// # Panics
    /// Panics if `axis` is out of range.
    pub fn dim(&self, axis: usize) -> usize {
        self.shape.dim(axis)
    }

    /// Read-only view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data. Copies the buffer
    /// first if another handle shares it (see the type docs), so the write
    /// stays private to `self`.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Mutable view of the data if this is the only handle to the buffer;
    /// `None` when it is shared (a caller that must not copy falls back to
    /// writing a fresh buffer).
    pub(crate) fn unique_mut_slice(&mut self) -> Option<&mut [f32]> {
        Arc::get_mut(&mut self.data).map(Vec::as_mut_slice)
    }

    /// Consumes the tensor, returning its data buffer: the buffer itself
    /// when this was the only handle to it, a copy when it is shared.
    pub fn into_vec(self) -> Vec<f32> {
        Arc::unwrap_or_clone(self.data)
    }

    /// `true` when `self` and `other` are handles to one data buffer.
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics if the index is out of bounds; use [`Shape::offset`] via
    /// [`Tensor::shape`] for a fallible variant.
    pub fn get(&self, index: &[usize]) -> f32 {
        let off = self.shape.offset(index).expect("index out of bounds");
        self.data[off]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index).expect("index out of bounds");
        self.as_mut_slice()[off] = value;
    }

    /// The single element of a one-element tensor.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] if the tensor has more than
    /// one element.
    pub fn item(&self) -> Result<f32> {
        if self.numel() != 1 {
            return Err(TensorError::InvalidArgument {
                op: "item",
                reason: format!("tensor has {} elements", self.numel()),
            });
        }
        Ok(self.data[0])
    }

    /// Returns a tensor with the same data viewed under a new shape. The
    /// result shares `self`'s buffer (O(1), see the type docs).
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let new_shape = Shape::new(dims);
        if new_shape.numel() != self.numel() {
            return Err(TensorError::ShapeMismatch {
                op: "reshape",
                lhs: self.dims().to_vec(),
                rhs: dims.to_vec(),
            });
        }
        Ok(Tensor {
            data: Arc::clone(&self.data),
            shape: new_shape,
        })
    }

    /// Fraction of elements that are exactly zero.
    ///
    /// This is the quantity the paper measures for CPU→GPU transfer
    /// sparsity (Figures 7 and 8).
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|v| **v == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }

    /// Size of the tensor's data in bytes.
    pub fn byte_len(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.numel() <= 8 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{:.4}, {:.4}, … ; {} elems]",
                self.data[0],
                self.data[1],
                self.numel()
            )
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 3]).numel(), 6);
        assert_eq!(Tensor::ones(&[3]).as_slice(), &[1.0, 1.0, 1.0]);
        assert_eq!(Tensor::full(&[2], 7.0).as_slice(), &[7.0, 7.0]);
        assert_eq!(Tensor::scalar(2.5).item().unwrap(), 2.5);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[3, 4]);
        t.set(&[2, 1], 9.0);
        assert_eq!(t.get(&[2, 1]), 9.0);
        assert_eq!(t.as_slice()[2 * 4 + 1], 9.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[2, 6], |i| i as f32);
        let r = t.reshape(&[3, 4]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[5, 5]).is_err());
    }

    #[test]
    fn clone_and_reshape_share_one_buffer() {
        let t = Tensor::from_fn(&[2, 6], |i| i as f32);
        let c = t.clone();
        let r = t.reshape(&[3, 4]).unwrap();
        assert!(t.shares_storage(&c) && t.shares_storage(&r));
        assert_eq!(t.as_slice().as_ptr(), r.as_slice().as_ptr());
        assert!(!t.shares_storage(&Tensor::from_fn(&[2, 6], |i| i as f32)));
    }

    #[test]
    fn a_write_through_one_handle_is_invisible_through_the_others() {
        let original = Tensor::from_fn(&[2, 3], |i| i as f32);
        let mut by_slice = original.clone();
        let mut by_set = original.reshape(&[3, 2]).unwrap();
        by_slice.as_mut_slice()[0] = 10.0;
        by_set.set(&[2, 1], 20.0);
        assert_eq!(original.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(by_slice.as_slice(), &[10.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(by_set.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 20.0]);
        assert!(!original.shares_storage(&by_slice) && !original.shares_storage(&by_set));
        // And the other way round: writing the original leaves a clone alone.
        let mut original = original;
        let kept = original.clone();
        original.set(&[0, 0], -1.0);
        assert_eq!(kept.get(&[0, 0]), 0.0);
    }

    #[test]
    fn an_unshared_tensor_is_written_in_place() {
        let mut t = Tensor::zeros(&[4]);
        let buf = t.as_slice().as_ptr();
        t.as_mut_slice()[1] = 1.0;
        t.set(&[2], 2.0);
        assert_eq!(t.as_slice().as_ptr(), buf);
        // A handle that has come and gone leaves the buffer unshared again.
        drop(t.clone());
        t.set(&[3], 3.0);
        assert_eq!(t.as_slice().as_ptr(), buf);
    }

    #[test]
    fn into_vec_copies_only_when_shared() {
        let t = Tensor::ones(&[8]);
        let buf = t.as_slice().as_ptr();
        let shared = t.clone();
        let copy = shared.into_vec();
        assert_ne!(copy.as_ptr(), buf, "`t` still reads the buffer");
        assert_eq!(copy, vec![1.0; 8]);
        let taken = t.into_vec();
        assert_eq!(taken.as_ptr(), buf, "the last handle takes it");
    }

    #[test]
    fn randn_is_deterministic_and_roughly_normal() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        let mean: f32 = t.as_slice().iter().sum::<f32>() / 10_000.0;
        let var: f32 = t
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");

        let mut rng2 = StdRng::seed_from_u64(42);
        let t2 = Tensor::randn(&[10_000], 1.0, &mut rng2);
        assert_eq!(t.as_slice(), t2.as_slice());
    }

    #[test]
    fn sparsity_counts_zeros() {
        let t = Tensor::from_vec(&[4], vec![0.0, 1.0, 0.0, 2.0]).unwrap();
        assert!((t.sparsity() - 0.5).abs() < 1e-9);
        assert_eq!(Tensor::zeros(&[5]).sparsity(), 1.0);
    }

    #[test]
    fn item_requires_single_element() {
        assert!(Tensor::zeros(&[2]).item().is_err());
    }
}
