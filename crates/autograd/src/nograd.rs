//! Inference-mode guard: a thread-local flag under which autograd records
//! nothing.
//!
//! A model has one forward, written against [`crate::Var`]. While a
//! [`NoGradGuard`] is alive on the thread, `Tape::push` — and so
//! `constant`, `leaf`, `read` and every op — returns a `Var` that carries
//! its value instead of a tape node: no node is allocated, the process-wide
//! node counter and the live-activation ledger do not move, no backward
//! closure is kept, and a value is not rounded through 16-bit storage on
//! its way in. The tensor kernels that run, their order and their results
//! are the taped forward's, so forward-only inference (`gnnmark infer`) is
//! the training forward entered under the guard, not a second
//! implementation of it.
//!
//! A value-carrying `Var` stays one after its guard is gone: ops on it
//! record nothing, its `grad()` is `None`, and combining it with a `Var`
//! that is on a tape panics like operands of two different tapes do.
//! [`crate::Tape::backward`] under the guard is a hard error — there is
//! nothing to differentiate.
//!
//! The flag is thread-local, matching the tape itself (tapes are `!Send`
//! and the suite runs one workload per thread), and the guard is RAII with
//! panic-safe restore, like `PrecisionGuard`.

use std::cell::Cell;

thread_local! {
    static INFERENCE_MODE: Cell<bool> = const { Cell::new(false) };
}

/// `true` while a [`NoGradGuard`] is alive on this thread.
pub fn active() -> bool {
    INFERENCE_MODE.with(Cell::get)
}

/// RAII guard enabling inference mode on the current thread for its
/// lifetime. Nesting is allowed; the previous state is restored on drop
/// (including during unwinding, so a panicking inference run cannot leak
/// the mode into the next workload on a pooled thread).
#[derive(Debug)]
pub struct NoGradGuard {
    prev: bool,
}

impl NoGradGuard {
    /// Enters inference mode on this thread.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let prev = INFERENCE_MODE.with(|f| f.replace(true));
        NoGradGuard { prev }
    }
}

impl Drop for NoGradGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        INFERENCE_MODE.with(|f| f.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Param, Tape};
    use gnnmark_tensor::half::{self, Precision};
    use gnnmark_tensor::Tensor;

    #[test]
    fn guard_toggles_and_restores() {
        assert!(!active());
        {
            let _g = NoGradGuard::new();
            assert!(active());
            {
                let _inner = NoGradGuard::new();
                assert!(active());
            }
            assert!(active(), "nested drop restores the outer guard's state");
        }
        assert!(!active());
    }

    #[test]
    fn tape_works_again_after_guard_drops() {
        {
            let _g = NoGradGuard::new();
        }
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[2]));
        let s = x.sum_all();
        tape.backward(&s).unwrap();
        assert_eq!(x.grad().unwrap().as_slice(), &[1.0, 1.0]);
    }

    /// `tape.len()` is asserted exactly; `tape_nodes_recorded()` and the
    /// activation ledger are process-global and bumped by sibling tests, so
    /// those are asserted where one thread runs alone (`gnnmark infer`, the
    /// benchmark's `infer_fwd`, `tests/loss_fingerprints.rs`).
    #[test]
    fn pushes_reads_and_ops_under_guard_record_nothing_and_match_the_taped_bits() {
        let p = Param::new(
            "p",
            Tensor::from_vec(&[2, 2], vec![0.3333333, -3.0, 0.5, 7.0]).unwrap(),
        );
        let x0 = Tensor::from_vec(&[1, 2], vec![1.5, -0.25]).unwrap();
        let forward = |tape: &Tape| {
            let x = tape.constant(x0.clone());
            x.matmul(&tape.read(&p)).unwrap().tanh().sum_all()
        };
        let taped_tape = Tape::new();
        let taped = forward(&taped_tape);
        assert_eq!(taped_tape.len(), 5);

        let _g = NoGradGuard::new();
        let tape = Tape::new();
        let guarded = forward(&tape);
        assert_eq!(tape.len(), 0);
        assert_eq!(
            guarded.value().item().unwrap().to_bits(),
            taped.value().item().unwrap().to_bits()
        );
        assert!(
            tape.read(&p).value().shares_storage(&p.value()),
            "a read is a reference bump"
        );
        // An op on a `Var` that was taped before the guard records nothing either.
        let _ = taped.square();
        assert_eq!(taped_tape.len(), 5);
    }

    #[test]
    fn a_value_carrying_var_outlives_its_guard_unrecorded() {
        let tape = Tape::new();
        let v = {
            let _g = NoGradGuard::new();
            tape.leaf(Tensor::ones(&[2]))
        };
        let y = v.square().add(&v.detach()).unwrap().sum_all();
        assert_eq!(tape.len(), 0);
        assert_eq!(y.value().item().unwrap(), 4.0);
        assert!(v.grad().is_none() && y.grad().is_none());
        assert!(tape.constant(Tensor::ones(&[2])).grad().is_none());
        assert_eq!(tape.len(), 1, "the tape itself records again");
    }

    #[test]
    #[should_panic(expected = "different tapes")]
    fn mixing_a_value_carrying_var_with_a_taped_one_panics() {
        let tape = Tape::new();
        let v = {
            let _g = NoGradGuard::new();
            tape.constant(Tensor::ones(&[2]))
        };
        let _ = tape.constant(Tensor::ones(&[2])).add(&v);
    }

    /// Inherited, not decided here: the tape-free forwards this replaced
    /// ran f32 ops on parameters that `HalfStore` had already rounded and
    /// never rounded an activation, so neither does a push under the guard.
    #[test]
    fn a_push_under_guard_is_not_rounded_to_the_thread_precision() {
        for precision in [Precision::Fp16, Precision::Bf16] {
            let _p = half::PrecisionGuard::new(precision);
            let third = Tensor::from_vec(&[1], vec![0.3333333]).unwrap();
            let tape = Tape::new();
            assert_eq!(
                tape.constant(third.clone()).value().get(&[0]),
                precision.quantize(0.3333333)
            );
            let _g = NoGradGuard::new();
            let v = tape.constant(third.clone());
            assert_eq!(v.value().get(&[0]), 0.3333333, "{precision:?}");
            assert_eq!(
                v.mul_scalar(1.0).value().get(&[0]),
                0.3333333,
                "{precision:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "inference mode")]
    fn backward_is_a_hard_error_under_guard() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[2]));
        let s = x.sum_all();
        let _g = NoGradGuard::new();
        let _ = tape.backward(&s);
    }
}
