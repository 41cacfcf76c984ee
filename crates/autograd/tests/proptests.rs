//! Property-based gradient checks: random compositions of differentiable
//! ops must match finite differences.

use gnnmark_autograd::{Tape, Var};
use gnnmark_tensor::Tensor;
use proptest::prelude::*;

/// One differentiable unary stage usable in a random chain (restricted to
/// ops that are smooth on positive inputs so finite differences behave).
#[derive(Debug, Clone, Copy)]
enum Stage {
    Sigmoid,
    Tanh,
    Square,
    MulScalar,
    AddScalar,
    Exp,
    SoftmaxRows,
    Relu,
}

fn arb_stage() -> impl Strategy<Value = Stage> {
    proptest::sample::select(vec![
        Stage::Sigmoid,
        Stage::Tanh,
        Stage::Square,
        Stage::MulScalar,
        Stage::AddScalar,
        Stage::Exp,
        Stage::SoftmaxRows,
        Stage::Relu,
    ])
}

fn apply(stage: Stage, v: &Var) -> Var {
    match stage {
        Stage::Sigmoid => v.sigmoid(),
        Stage::Tanh => v.tanh(),
        Stage::Square => v.square(),
        Stage::MulScalar => v.mul_scalar(0.7),
        Stage::AddScalar => v.add_scalar(0.3),
        Stage::Exp => v.mul_scalar(0.2).exp(),
        Stage::SoftmaxRows => v.softmax_rows().expect("rank 2"),
        Stage::Relu => v.add_scalar(0.05).relu(),
    }
}

fn loss_of(stages: &[Stage], x0: &Tensor) -> (f64, Option<Tensor>) {
    let tape = Tape::new();
    let x = tape.leaf(x0.clone());
    let mut h = x.clone();
    for &s in stages {
        h = apply(s, &h);
    }
    let loss = h.square().mean_all();
    tape.backward(&loss).expect("backward");
    (loss.value().item().expect("scalar") as f64, x.grad())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_chains_match_finite_differences(
        stages in proptest::collection::vec(arb_stage(), 1..5),
        rows in 1usize..4,
        cols in 1usize..5,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x0 = Tensor::from_fn(&[rows, cols], |_| rng.gen_range(0.1..0.9));
        let (_, grad) = loss_of(&stages, &x0);
        let grad = grad.expect("leaf grad");

        let eps = 1e-2f32;
        for flat in 0..x0.numel() {
            let mut xp = x0.clone();
            xp.as_mut_slice()[flat] += eps;
            let mut xm = x0.clone();
            xm.as_mut_slice()[flat] -= eps;
            let (lp, _) = loss_of(&stages, &xp);
            let (lm, _) = loss_of(&stages, &xm);
            let fd = (lp - lm) / (2.0 * eps as f64);
            let a = grad.as_slice()[flat] as f64;
            prop_assert!(
                (a - fd).abs() < 5e-2 * (1.0 + fd.abs()),
                "stage chain {stages:?}: grad[{flat}] analytic {a} vs fd {fd}"
            );
        }
    }

    #[test]
    fn backward_is_linear_in_upstream_scale(
        rows in 1usize..4,
        cols in 1usize..5,
        scale in 0.5f32..4.0,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x0 = Tensor::from_fn(&[rows, cols], |_| rng.gen_range(0.2..1.0));

        let grad_of = |s: f32| -> Tensor {
            let tape = Tape::new();
            let x = tape.leaf(x0.clone());
            let loss = x.square().sum_all().mul_scalar(s);
            tape.backward(&loss).unwrap();
            x.grad().unwrap()
        };
        let g1 = grad_of(1.0);
        let gs = grad_of(scale);
        for (a, b) in g1.as_slice().iter().zip(gs.as_slice()) {
            prop_assert!((a * scale - b).abs() < 1e-3 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn grad_accumulates_additively_across_terms(
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x0 = Tensor::from_fn(&[n], |_| rng.gen_range(-1.0..1.0));
        // loss = sum(x) + sum(x) must give grad 2 everywhere.
        let tape = Tape::new();
        let x = tape.leaf(x0);
        let loss = x.sum_all().add(&x.sum_all()).unwrap();
        tape.backward(&loss).unwrap();
        let g = x.grad().unwrap();
        for &v in g.as_slice() {
            prop_assert!((v - 2.0).abs() < 1e-6);
        }
    }
}
