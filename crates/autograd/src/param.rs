//! Trainable parameters that persist across training steps.

use std::cell::{Ref, RefCell};
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use gnnmark_tensor::half::{self, Precision};
use gnnmark_tensor::Tensor;

static NEXT_PARAM_ID: AtomicU64 = AtomicU64::new(0);

/// Master copy of a reduced-precision parameter: the 16-bit encodings are
/// the storage of record, and the f32 `value` tensor is the convert-on-load
/// working copy (always exactly `decode(bits)`, so the two never diverge).
struct HalfStore {
    bits: Vec<u16>,
    precision: Precision,
}

impl HalfStore {
    /// Rounds `value` into 16-bit master storage and rewrites the f32
    /// working copy with the decoded (quantized) values.
    fn store(&mut self, value: &mut Tensor) {
        let xs = value.as_mut_slice();
        self.bits.clear();
        self.bits.reserve(xs.len());
        for v in xs.iter_mut() {
            let b = self.precision.encode(*v);
            self.bits.push(b);
            *v = self.precision.decode(b);
        }
    }
}

struct ParamInner {
    id: u64,
    name: String,
    value: RefCell<Tensor>,
    grad: RefCell<Option<Tensor>>,
    half: RefCell<Option<HalfStore>>,
}

/// A named, trainable tensor with an accumulated gradient slot.
///
/// `Param` is a cheap-to-clone handle (reference semantics, like
/// `torch.nn.Parameter`). A model owns its `Param`s across steps; each
/// training step reads them onto a fresh [`crate::Tape`] via
/// [`crate::Tape::read`], and [`crate::Tape::backward`] accumulates
/// gradients back into them.
#[derive(Clone)]
pub struct Param {
    inner: Rc<ParamInner>,
}

impl Param {
    /// Creates a parameter with an initial value.
    ///
    /// When the thread's storage precision (see
    /// [`gnnmark_tensor::half::set_thread_precision`]) is f16 or bf16, the
    /// parameter keeps a 16-bit master copy: the initial value is rounded
    /// into it, and every [`Param::set_value`] round-trips through it, so
    /// optimizer updates below the format's resolution are genuinely lost —
    /// the behavior loss scaling exists to compensate.
    pub fn new(name: impl Into<String>, mut value: Tensor) -> Self {
        let half = match half::thread_precision() {
            Precision::Fp32 => None,
            precision => {
                let mut store = HalfStore {
                    bits: Vec::new(),
                    precision,
                };
                store.store(&mut value);
                Some(store)
            }
        };
        Param {
            inner: Rc::new(ParamInner {
                id: NEXT_PARAM_ID.fetch_add(1, Ordering::Relaxed),
                name: name.into(),
                value: RefCell::new(value),
                grad: RefCell::new(None),
                half: RefCell::new(half),
            }),
        }
    }

    /// Globally unique id (used as optimizer state key).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The parameter's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Borrow of the current value.
    ///
    /// # Panics
    /// Panics if the value is currently mutably borrowed (optimizer step in
    /// progress).
    pub fn value(&self) -> Ref<'_, Tensor> {
        self.inner.value.borrow()
    }

    /// Replaces the value (used by optimizers). Reduced-precision parameters
    /// round the new value through their 16-bit master storage.
    pub fn set_value(&self, mut value: Tensor) {
        if let Some(store) = self.inner.half.borrow_mut().as_mut() {
            store.store(&mut value);
        }
        *self.inner.value.borrow_mut() = value;
    }

    /// The precision of the master storage ([`Precision::Fp32`] unless the
    /// parameter was created under a reduced thread precision).
    pub fn storage_precision(&self) -> Precision {
        self.inner
            .half
            .borrow()
            .as_ref()
            .map_or(Precision::Fp32, |s| s.precision)
    }

    /// A clone of the accumulated gradient, if any.
    pub fn grad(&self) -> Option<Tensor> {
        self.inner.grad.borrow().clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.inner.grad.borrow_mut() = None;
    }

    /// Adds `g` into the accumulated gradient.
    ///
    /// The first gradient is kept as it is (no copy). Each later one is
    /// added in place ([`Tensor::add_assign`]: the values and the `add`
    /// event of [`Tensor::add`]) and `g` is dropped. A parameter read at
    /// every step of a recurrent loop is flushed once per read, so the sum
    /// grows in one buffer instead of a fresh one per read; when the
    /// accumulated buffer is still shared (with the tape node the first
    /// gradient came from), the first add writes the sum to a new buffer
    /// and leaves the node's gradient alone.
    ///
    /// # Errors
    /// Returns a shape error if `g` does not match previous accumulations.
    pub fn accumulate_grad(&self, g: Tensor) -> crate::Result<()> {
        let mut slot = self.inner.grad.borrow_mut();
        match slot.as_mut() {
            None => *slot = Some(g),
            Some(acc) => acc.add_assign(&g)?,
        }
        Ok(())
    }

    /// Number of scalar elements.
    pub fn numel(&self) -> usize {
        self.inner.value.borrow().numel()
    }

    /// Size in bytes of the master storage (what DDP all-reduces per step):
    /// 2 bytes per element for f16/bf16 parameters, 4 for fp32.
    pub fn byte_len(&self) -> u64 {
        let elem = self.storage_precision().elem_bytes() as u64;
        self.inner.value.borrow().numel() as u64 * elem
    }
}

impl fmt::Debug for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Param(\"{}\", {:?}, grad={})",
            self.inner.name,
            self.inner.value.borrow().dims(),
            self.inner.grad.borrow().is_some()
        )
    }
}

/// An ordered collection of a model's parameters.
///
/// Provides the aggregate queries DDP and the optimizers need: total
/// parameter count (all-reduce volume) and bulk gradient operations.
#[derive(Debug, Clone, Default)]
pub struct ParamSet {
    params: Vec<Param>,
}

impl ParamSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ParamSet { params: Vec::new() }
    }

    /// Adds a parameter and returns it for convenient chaining.
    pub fn register(&mut self, param: Param) -> Param {
        self.params.push(param.clone());
        param
    }

    /// Appends all parameters of another set.
    pub fn extend(&mut self, other: &ParamSet) {
        self.params.extend(other.params.iter().cloned());
    }

    /// Iterates over the parameters.
    pub fn iter(&self) -> std::slice::Iter<'_, Param> {
        self.params.iter()
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// `true` if the set contains no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn total_scalars(&self) -> usize {
        self.params.iter().map(Param::numel).sum()
    }

    /// Total parameter bytes (the DDP all-reduce payload).
    pub fn total_bytes(&self) -> u64 {
        self.params.iter().map(Param::byte_len).sum()
    }

    /// Clears every parameter's gradient.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Global L2 norm of all gradients (0 if none are populated).
    pub fn grad_norm(&self) -> f64 {
        let mut acc = 0.0f64;
        for p in &self.params {
            if let Some(g) = p.grad() {
                for &v in g.as_slice() {
                    acc += (v as f64) * (v as f64);
                }
            }
        }
        acc.sqrt()
    }

    /// Clips gradients to a maximum global L2 norm (PyTorch's
    /// `clip_grad_norm_`). Returns the pre-clip norm.
    ///
    /// # Errors
    /// Propagates tensor errors from the scaling kernels.
    pub fn clip_grad_norm(&self, max_norm: f64) -> crate::Result<f64> {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = (max_norm / norm) as f32;
            for p in &self.params {
                if let Some(g) = p.grad() {
                    p.zero_grad();
                    p.accumulate_grad(g.mul_scalar(scale))?;
                }
            }
        }
        Ok(norm)
    }
}

impl FromIterator<Param> for ParamSet {
    fn from_iter<T: IntoIterator<Item = Param>>(iter: T) -> Self {
        ParamSet {
            params: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a ParamSet {
    type Item = &'a Param;
    type IntoIter = std::slice::Iter<'a, Param>;

    fn into_iter(self) -> Self::IntoIter {
        self.params.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_handles_share_state() {
        let p = Param::new("w", Tensor::zeros(&[2]));
        let q = p.clone();
        q.set_value(Tensor::ones(&[2]));
        assert_eq!(p.value().as_slice(), &[1.0, 1.0]);
        assert_eq!(p.id(), q.id());
    }

    #[test]
    fn grad_accumulates() {
        let p = Param::new("w", Tensor::zeros(&[2]));
        assert!(p.grad().is_none());
        p.accumulate_grad(Tensor::ones(&[2])).unwrap();
        p.accumulate_grad(Tensor::ones(&[2])).unwrap();
        assert_eq!(p.grad().unwrap().as_slice(), &[2.0, 2.0]);
        p.zero_grad();
        assert!(p.grad().is_none());
    }

    #[test]
    fn ids_are_unique() {
        let a = Param::new("a", Tensor::zeros(&[1]));
        let b = Param::new("b", Tensor::zeros(&[1]));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn param_set_aggregates() {
        let mut set = ParamSet::new();
        set.register(Param::new("a", Tensor::zeros(&[2, 3])));
        set.register(Param::new("b", Tensor::zeros(&[4])));
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_scalars(), 10);
        assert_eq!(set.total_bytes(), 40);
    }

    #[test]
    fn clip_grad_norm_scales_down_only() {
        let mut set = ParamSet::new();
        let p = set.register(Param::new("a", Tensor::zeros(&[2])));
        p.accumulate_grad(Tensor::from_vec(&[2], vec![3.0, 4.0]).unwrap())
            .unwrap();
        // Norm 5 clipped to 1 → grads scaled by 0.2.
        let pre = set.clip_grad_norm(1.0).unwrap();
        assert!((pre - 5.0).abs() < 1e-9);
        let g = p.grad().unwrap();
        assert!((g.as_slice()[0] - 0.6).abs() < 1e-6);
        assert!((set.grad_norm() - 1.0).abs() < 1e-5);
        // Already below the bound → untouched.
        let pre2 = set.clip_grad_norm(10.0).unwrap();
        assert!((pre2 - 1.0).abs() < 1e-5);
        assert!((set.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn half_precision_param_round_trips_storage() {
        let _g = half::PrecisionGuard::new(Precision::Fp16);
        let p = Param::new(
            "w",
            Tensor::from_vec(&[3], vec![1.0, 0.3333333, 100.1]).unwrap(),
        );
        assert_eq!(p.storage_precision(), Precision::Fp16);
        // 3 elements × 2 bytes of master storage.
        assert_eq!(p.byte_len(), 6);
        // The working copy is the quantized value, not the raw f32.
        let v = p.value().as_slice().to_vec();
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], Precision::Fp16.quantize(0.3333333));
        assert_ne!(v[1], 0.3333333);
        // Updates below f16 resolution are genuinely lost on store.
        let nudged: Vec<f32> = v.iter().map(|x| x + 1e-8).collect();
        p.set_value(Tensor::from_vec(&[3], nudged).unwrap());
        assert_eq!(p.value().as_slice(), &v[..]);
    }

    #[test]
    fn rounding_into_half_storage_writes_a_private_copy() {
        // `HalfStore::store` rounds the tensor it is handed in place; a
        // caller that kept a handle to the same buffer must not see that.
        let _g = half::PrecisionGuard::new(Precision::Fp16);
        let raw = Tensor::from_vec(&[2], vec![0.3333333, 100.1]).unwrap();
        let p = Param::new("w", raw.clone());
        assert_eq!(raw.as_slice(), &[0.3333333, 100.1], "Param::new");
        assert_ne!(p.value().as_slice(), raw.as_slice());
        let update = Tensor::from_vec(&[2], vec![0.1, 0.7]).unwrap();
        p.set_value(update.clone());
        assert_eq!(update.as_slice(), &[0.1, 0.7], "Param::set_value");
        assert_eq!(p.value().get(&[0]), Precision::Fp16.quantize(0.1));
    }

    #[test]
    fn grad_handles_share_the_accumulated_buffer() {
        let p = Param::new("w", Tensor::zeros(&[2]));
        let g = Tensor::ones(&[2]);
        p.accumulate_grad(g.clone()).unwrap();
        assert!(
            p.grad().unwrap().shares_storage(&g),
            "first gradient is kept, not copied"
        );
        p.accumulate_grad(g.clone()).unwrap();
        assert_eq!(
            g.as_slice(),
            &[1.0, 1.0],
            "summing leaves the contribution alone"
        );
        assert_eq!(p.grad().unwrap().as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn fp32_param_storage_unchanged() {
        let p = Param::new("w", Tensor::from_vec(&[2], vec![0.1, 0.2]).unwrap());
        assert_eq!(p.storage_precision(), Precision::Fp32);
        assert_eq!(p.byte_len(), 8);
        assert_eq!(p.value().as_slice(), &[0.1, 0.2]);
    }

    #[test]
    fn grad_norm_is_euclidean() {
        let mut set = ParamSet::new();
        let p = set.register(Param::new("a", Tensor::zeros(&[2])));
        p.accumulate_grad(Tensor::from_vec(&[2], vec![3.0, 4.0]).unwrap())
            .unwrap();
        assert!((set.grad_norm() - 5.0).abs() < 1e-9);
    }
}
