//! The autodiff tape: nodes, variables and the reverse pass.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use gnnmark_tensor::half::{self, Precision};
use gnnmark_tensor::ops::gemm::PackScope;
use gnnmark_tensor::Tensor;

use crate::{amp, Param, Result};

/// Process-wide count of nodes ever pushed onto any tape. One relaxed add
/// per recorded op; read by the telemetry metrics registry at run level.
static NODES_RECORDED: AtomicU64 = AtomicU64::new(0);

/// Live activation bytes across all tapes (node values at their storage
/// precision), and the high-water mark since the last reset. Pushing a node
/// adds its footprint; dropping a tape subtracts it — so the peak tracks the
/// largest set of simultaneously live activations, the quantity that halves
/// under f16/bf16 storage.
///
/// The footprint is *logical*: `numel × element size` of every node, also
/// of a node whose value shares its buffer with another holder — a
/// parameter read onto the tape ([`Tape::read`]), a reshape, a gradient
/// passed through. Tensor storage is shared, so those nodes occupy no
/// memory of their own and the counter over-reads resident bytes by their
/// sum (under fp32; quantize-on-push gives each node a private, rounded
/// copy). It is kept logical on purpose: it is a property of the model and
/// the batch, comparable across commits, where resident memory is
/// `peak_rss_mb`'s job.
static ACTIVATION_BYTES: AtomicU64 = AtomicU64::new(0);
static ACTIVATION_PEAK: AtomicU64 = AtomicU64::new(0);

/// Total autodiff nodes recorded across every tape and thread since process
/// start (or the last [`reset_tape_node_counter`]).
pub fn tape_nodes_recorded() -> u64 {
    NODES_RECORDED.load(Ordering::Relaxed)
}

/// Zeroes the process-wide tape node counter (per-run accounting).
pub fn reset_tape_node_counter() {
    NODES_RECORDED.store(0, Ordering::Relaxed);
}

/// High-water mark of live activation bytes (at storage precision) across
/// all tapes since process start or the last [`reset_activation_peak`].
pub fn activation_bytes_peak() -> u64 {
    ACTIVATION_PEAK.load(Ordering::Relaxed)
}

/// Resets the activation high-water mark to the currently live volume
/// (per-run accounting).
pub fn reset_activation_peak() {
    ACTIVATION_PEAK.store(ACTIVATION_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Gradient function of one node: maps `(upstream_grad, own_value,
/// parent_values)` to one optional gradient contribution per parent.
pub(crate) type BackwardFn =
    Box<dyn Fn(&Tensor, &Tensor, &[&Tensor]) -> Result<Vec<Option<Tensor>>>>;

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) grad: Option<Tensor>,
    pub(crate) parents: Vec<usize>,
    pub(crate) backward: Option<BackwardFn>,
    pub(crate) param: Option<Param>,
    /// Footprint of `value` at the storage precision active when it was
    /// recorded; subtracted from the live-activation counter on tape drop.
    pub(crate) act_bytes: u64,
}

#[derive(Default)]
pub(crate) struct TapeInner {
    pub(crate) nodes: Vec<Node>,
}

impl Drop for TapeInner {
    fn drop(&mut self) {
        let freed: u64 = self.nodes.iter().map(|n| n.act_bytes).sum();
        ACTIVATION_BYTES.fetch_sub(freed, Ordering::Relaxed);
    }
}

/// A single-step computation tape.
///
/// Create one per training step, build the forward computation with
/// [`Var`] operations, then call [`Tape::backward`] on the (scalar) loss.
/// The tape is intentionally `!Send`: the multi-GPU simulator runs one
/// independent tape per modeled device thread. While a
/// [`crate::NoGradGuard`] is alive on the thread the tape records nothing:
/// [`Tape::constant`], [`Tape::leaf`] and [`Tape::read`] hand back `Var`s
/// that carry their value, and ops on those stay off the tape.
#[derive(Clone, Default)]
pub struct Tape {
    pub(crate) inner: Rc<RefCell<TapeInner>>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// `true` if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn push(
        &self,
        mut value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
        param: Option<Param>,
    ) -> Var {
        // Under a `NoGradGuard` nothing is recorded: the result carries its
        // value and the node counter, the activation ledger and
        // quantize-on-push below never see it.
        if crate::nograd::active() {
            return Var(Repr::Value(value));
        }
        NODES_RECORDED.fetch_add(1, Ordering::Relaxed);
        // Under reduced thread precision every activation is rounded through
        // 16-bit storage as it lands on the tape ("round-on-store"): the
        // forward computed in f32, the stored result carries f16/bf16
        // resolution into every downstream op and into the backward pass.
        let precision = half::thread_precision();
        if precision != Precision::Fp32 {
            precision.quantize_slice(value.as_mut_slice());
        }
        let act_bytes = value.numel() as u64 * precision.elem_bytes() as u64;
        let live = ACTIVATION_BYTES.fetch_add(act_bytes, Ordering::Relaxed) + act_bytes;
        ACTIVATION_PEAK.fetch_max(live, Ordering::Relaxed);
        let mut inner = self.inner.borrow_mut();
        let id = inner.nodes.len();
        inner.nodes.push(Node {
            value,
            grad: None,
            parents,
            backward,
            param,
            act_bytes,
        });
        Var(Repr::Node {
            id,
            tape: Rc::clone(&self.inner),
        })
    }

    /// Records a constant (non-differentiable) input.
    pub fn constant(&self, value: Tensor) -> Var {
        self.push(value, Vec::new(), None, None)
    }

    /// Records a differentiable leaf whose gradient can be inspected with
    /// [`Var::grad`] after the backward pass.
    pub fn leaf(&self, value: Tensor) -> Var {
        // A leaf participates in grad accumulation but has no parents.
        self.push(value, Vec::new(), None, None)
    }

    /// Reads a [`Param`] onto the tape; after [`Tape::backward`] its
    /// gradient is accumulated into the parameter. The node shares the
    /// parameter's buffer (no copy) unless a reduced thread precision
    /// rounds it on push, which writes to a private copy.
    pub fn read(&self, param: &Param) -> Var {
        let value = param.value().clone();
        self.push(value, Vec::new(), None, Some(param.clone()))
    }

    /// Runs the reverse pass from `loss`, accumulating gradients into every
    /// node and into linked parameters.
    ///
    /// The pass runs inside a [`PackScope`]: a weight read at every step of
    /// an unrolled loop is the right operand of one NT product per step,
    /// and is transposed once for all of them. Gradients are summed in
    /// place ([`Tensor::add_assign`]). Both leave every value and every
    /// emitted event as they would be without them.
    ///
    /// # Errors
    /// Propagates tensor errors from gradient kernels (these indicate a bug
    /// in an op's backward function, e.g. a shape mismatch).
    ///
    /// # Panics
    /// Panics under a [`crate::NoGradGuard`], and if `loss` belongs to a
    /// different tape or to none (it was produced under a guard).
    pub fn backward(&self, loss: &Var) -> Result<()> {
        assert!(
            !crate::nograd::active(),
            "autograd backward inside inference mode (NoGradGuard active): \
             nothing was recorded to differentiate"
        );
        let loss_id = match &loss.0 {
            Repr::Node { id, tape } if Rc::ptr_eq(&self.inner, tape) => *id,
            _ => panic!("loss Var belongs to a different tape"),
        };
        let _packs = PackScope::enter();
        {
            let mut inner = self.inner.borrow_mut();
            // With loss scaling active the seed is the scale itself —
            // algebraically identical to multiplying the loss before
            // backward, without perturbing the recorded forward values.
            let scale = amp::thread_loss_scale();
            let dims = inner.nodes[loss_id].value.dims();
            let seed = if scale == 1.0 {
                Tensor::ones(dims)
            } else {
                Tensor::full(dims, scale)
            };
            inner.nodes[loss_id].grad = Some(seed);
        }
        for i in (0..=loss_id).rev() {
            // Take this node's gradient out to avoid aliasing the borrow of
            // parent values during the gradient computation.
            let upstream = {
                let mut inner = self.inner.borrow_mut();
                inner.nodes[i].grad.take()
            };
            let Some(upstream) = upstream else { continue };

            let (parents, contribs) = {
                let inner = self.inner.borrow();
                let node = &inner.nodes[i];
                match &node.backward {
                    None => (node.parents.clone(), None),
                    Some(bf) => {
                        let parent_vals: Vec<&Tensor> = node
                            .parents
                            .iter()
                            .map(|&p| &inner.nodes[p].value)
                            .collect();
                        let c = bf(&upstream, &node.value, &parent_vals)?;
                        (node.parents.clone(), Some(c))
                    }
                }
            };

            {
                let mut inner = self.inner.borrow_mut();
                if let Some(contribs) = contribs {
                    debug_assert_eq!(contribs.len(), parents.len());
                    for (p, c) in parents.into_iter().zip(contribs) {
                        let Some(c) = c else { continue };
                        match &mut inner.nodes[p].grad {
                            slot @ None => *slot = Some(c),
                            Some(acc) => acc.add_assign(&c)?,
                        }
                    }
                }
                // Restore the node's grad for inspection / param flush.
                inner.nodes[i].grad = Some(upstream);
            }
        }
        // Flush gradients into linked parameters.
        let inner = self.inner.borrow();
        for node in &inner.nodes {
            if let (Some(param), Some(grad)) = (&node.param, &node.grad) {
                param.accumulate_grad(grad.clone())?;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Tape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tape({} nodes)", self.len())
    }
}

/// A handle to a value in a differentiable computation.
///
/// `Var` is a cheap clone. It is either a node on a [`Tape`] (id + tape
/// reference) or, when it was produced under a [`crate::NoGradGuard`], the
/// value itself: no node, no parents, no gradient. Every operation is
/// defined once, as an inherent method (see the crate docs for an
/// end-to-end example), and two private functions, `Tape::push` and
/// `Var::record`, decide which of the two a result is — so the forward a
/// model trains with is the forward it infers with.
#[derive(Clone)]
pub struct Var(Repr);

#[derive(Clone)]
enum Repr {
    Node {
        id: usize,
        tape: Rc<RefCell<TapeInner>>,
    },
    Value(Tensor),
}

impl Var {
    /// The current value: a handle sharing the buffer, not a copy.
    pub fn value(&self) -> Tensor {
        self.with_value(Tensor::clone)
    }

    /// Applies `f` to a borrow of the value without copying.
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        match &self.0 {
            Repr::Node { id, tape } => f(&tape.borrow().nodes[*id].value),
            Repr::Value(value) => f(value),
        }
    }

    /// Dimensions of the value.
    pub fn dims(&self) -> Vec<usize> {
        self.with_value(|t| t.dims().to_vec())
    }

    /// The accumulated gradient (populated by [`Tape::backward`]), sharing
    /// the node's buffer. Always `None` for a value produced under a
    /// [`crate::NoGradGuard`].
    pub fn grad(&self) -> Option<Tensor> {
        match &self.0 {
            Repr::Node { id, tape } => tape.borrow().nodes[*id].grad.clone(),
            Repr::Value(_) => None,
        }
    }

    /// Re-enters the value as a constant, cutting the gradient flow
    /// (PyTorch's `detach`). Used by adversarial training loops.
    pub fn detach(&self) -> Var {
        let value = self.value();
        self.constant_like(value)
    }

    /// Records `value` as a new constant on the same tape as `self` (on
    /// none, if `self` is on none).
    pub fn constant_like(&self, value: Tensor) -> Var {
        match &self.0 {
            Repr::Node { tape, .. } => Tape {
                inner: Rc::clone(tape),
            }
            .constant(value),
            Repr::Value(_) => Var(Repr::Value(value)),
        }
    }

    /// The result of an op: a node on the operands' tape holding `value`
    /// and `backward`, or — when the operands are on no tape, or a
    /// [`crate::NoGradGuard`] is active — `value` alone, `backward` dropped.
    ///
    /// # Panics
    /// Panics if the operands are on different tapes, or some on a tape and
    /// some on none.
    pub(crate) fn record(operands: &[&Var], value: Tensor, backward: BackwardFn) -> Var {
        let nodes = operands.iter().filter_map(|operand| match &operand.0 {
            Repr::Node { id, tape } => Some((*id, tape)),
            Repr::Value(_) => None,
        });
        let Some((_, tape)) = nodes.clone().next() else {
            return Var(Repr::Value(value));
        };
        let ids: Vec<usize> = nodes
            .filter(|(_, other)| Rc::ptr_eq(tape, other))
            .map(|(id, _)| id)
            .collect();
        assert!(
            ids.len() == operands.len(),
            "operands belong to different tapes (or one to none: it was produced under a NoGradGuard)"
        );
        Tape {
            inner: Rc::clone(tape),
        }
        .push(value, ids, Some(backward), None)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dims = self.dims();
        match &self.0 {
            Repr::Node { id, .. } => write!(f, "Var#{id} {dims:?}"),
            Repr::Value(_) => write!(f, "Var(no tape) {dims:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_counter_tracks_pushes() {
        // Process-global counter shared with concurrent tests: delta, >=.
        let before = tape_nodes_recorded();
        let tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[2]));
        let _s = a.sum_all();
        assert!(tape_nodes_recorded() >= before + 2);
    }

    #[test]
    fn constant_has_no_grad_flow() {
        let tape = Tape::new();
        let c = tape.constant(Tensor::ones(&[2]));
        let s = c.sum_all();
        tape.backward(&s).unwrap();
        // Constants do receive a grad slot but flow nowhere.
        assert!(c.grad().is_some());
    }

    #[test]
    fn leaf_grad_of_sum_is_ones() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap());
        let s = x.sum_all();
        tape.backward(&s).unwrap();
        assert_eq!(x.grad().unwrap().as_slice(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn param_receives_gradient() {
        let p = Param::new("p", Tensor::from_vec(&[2], vec![2.0, 3.0]).unwrap());
        let tape = Tape::new();
        let v = tape.read(&p);
        let loss = v.square().sum_all();
        tape.backward(&loss).unwrap();
        // d/dx sum(x²) = 2x
        assert_eq!(p.grad().unwrap().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn reading_a_param_shares_its_buffer_and_never_writes_it() {
        let p = Param::new("p", Tensor::from_vec(&[2], vec![0.3333333, 3.0]).unwrap());
        let tape = Tape::new();
        let v = tape.read(&p);
        assert!(
            v.value().shares_storage(&p.value()),
            "fp32: a reference bump"
        );
        assert!(v.detach().value().shares_storage(&p.value()));
        let r = v.reshape(&[1, 2]).unwrap();
        assert!(r.value().shares_storage(&p.value()));
        // A caller writing its handle gets a private copy.
        let mut mine = v.value();
        mine.set(&[0], 9.0);
        assert_eq!(p.value().as_slice(), &[0.3333333, 3.0]);
        assert_eq!(v.value().as_slice(), &[0.3333333, 3.0]);
        // The optimizer replaces the parameter; the tape keeps what it read.
        p.set_value(Tensor::zeros(&[2]));
        assert_eq!(v.value().as_slice(), &[0.3333333, 3.0]);
    }

    #[test]
    fn quantize_on_push_rounds_the_node_not_the_param() {
        for precision in [Precision::Fp16, Precision::Bf16] {
            // An fp32 parameter read under a reduced thread precision: the
            // push rounds the node's value in place, which must not reach
            // the parameter's buffer.
            let p = Param::new("p", Tensor::from_vec(&[2], vec![0.3333333, 100.1]).unwrap());
            let _g = half::PrecisionGuard::new(precision);
            let tape = Tape::new();
            let v = tape.read(&p);
            assert_eq!(p.value().as_slice(), &[0.3333333, 100.1], "{precision:?}");
            assert_eq!(v.value().get(&[0]), precision.quantize(0.3333333));
            assert!(!v.value().shares_storage(&p.value()));
            // Same for a constant the caller keeps a handle to.
            let mine = Tensor::from_vec(&[1], vec![0.3333333]).unwrap();
            let c = tape.constant(mine.clone());
            assert_eq!(mine.as_slice(), &[0.3333333]);
            assert_eq!(c.value().get(&[0]), precision.quantize(0.3333333));
        }
    }

    #[test]
    fn grad_accumulates_across_uses() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(&[1], vec![3.0]).unwrap());
        let y = x.add(&x).unwrap(); // y = 2x
        let loss = y.sum_all();
        tape.backward(&loss).unwrap();
        assert_eq!(x.grad().unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn detach_cuts_gradient() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(&[1], vec![3.0]).unwrap());
        let d = x.detach();
        let loss = d.square().sum_all();
        tape.backward(&loss).unwrap();
        assert!(x.grad().is_none());
    }

    /// One weight read at each of `T` unrolled steps, against the same graph
    /// over `T` separate parameters holding copies of it (so no NT operand
    /// repeats and no gradient is summed in place), whose grads are summed
    /// by `Tensor::add` in read order. Backward reuses the shared weight's
    /// transpose and flushes its reads in place; neither may change a bit,
    /// a node gradient or an event.
    #[test]
    fn a_weight_read_at_every_step_matches_one_param_per_step() {
        use gnnmark_tensor::record;
        const T: usize = 6;
        let w0 = Tensor::from_fn(&[7, 7], |i| ((i * 37) % 23) as f32 * 0.05 - 0.5);
        let x = Tensor::from_fn(&[5, 7], |i| ((i * 11) % 13) as f32 * 0.1 - 0.6);
        let unrolled = |params: &[Param]| {
            let tape = Tape::new();
            let mut h = tape.constant(x.clone());
            for t in 0..T {
                let w = tape.read(&params[t % params.len()]);
                h = h.matmul(&w).unwrap().tanh();
            }
            let loss = h.square().sum_all();
            record::start_recording();
            tape.backward(&loss).unwrap();
            (tape, record::stop_recording())
        };

        let shared = Param::new("w", w0.clone());
        let (tape, events) = unrolled(std::slice::from_ref(&shared));
        let copy = || Tensor::from_vec(&[7, 7], w0.as_slice().to_vec()).unwrap();
        let copies: Vec<Param> = (0..T)
            .map(|t| Param::new(format!("w{t}"), copy()))
            .collect();
        let (ref_tape, mut ref_events) = unrolled(&copies);
        record::start_recording();
        let mut ref_grad = copies[0].grad().unwrap();
        for p in &copies[1..] {
            ref_grad = ref_grad.add(&p.grad().unwrap()).unwrap();
        }
        ref_events.extend(record::stop_recording());

        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&shared.grad().unwrap()), bits(&ref_grad), "param grad");
        let (nodes, ref_nodes) = (&tape.inner.borrow().nodes, &ref_tape.inner.borrow().nodes);
        assert_eq!(nodes.len(), ref_nodes.len());
        for (i, (n, r)) in nodes.iter().zip(ref_nodes.iter()).enumerate() {
            assert_eq!(
                n.grad.as_ref().map(bits),
                r.grad.as_ref().map(bits),
                "node {i} grad"
            );
        }
        let key = |e: &gnnmark_tensor::OpEvent| (e.kernel, e.flops, e.bytes_read, e.bytes_written);
        let got: Vec<_> = events.iter().map(key).collect();
        assert_eq!(
            got,
            ref_events.iter().map(key).collect::<Vec<_>>(),
            "events"
        );
        assert_eq!(got.iter().filter(|e| e.0 == "sgemm_nt").count(), T);
        assert_eq!(got.iter().filter(|e| e.0 == "add").count(), T - 1);
    }

    #[test]
    #[should_panic(expected = "different tape")]
    fn cross_tape_backward_panics() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let x = t2.leaf(Tensor::ones(&[1]));
        let loss = x.sum_all();
        t1.backward(&loss).unwrap();
    }
}
