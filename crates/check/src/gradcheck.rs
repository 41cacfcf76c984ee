//! Finite-difference gradient checking.
//!
//! The central harness ([`grad_check`]) evaluates a differentiable
//! computation twice per probed element — once at `x + ε` and once at
//! `x − ε` — and compares the central difference `(f(x+ε) − f(x−ε)) / 2ε`
//! against the analytic gradient the tape produced. The objective is a
//! *weighted* sum of the op output (weights drawn from a deterministic
//! per-op RNG), so ops whose unweighted sum is degenerate — softmax rows
//! sum to 1 regardless of the input — still get a non-trivial gradient.
//!
//! Everything is deterministic: inputs, weights and dropout masks derive
//! from the op name, so a passing check passes forever and a failure is
//! reproducible by name.

use std::rc::Rc;

use gnnmark_autograd::{NoGradGuard, Tape, Var};
use gnnmark_gpusim::stream::fnv1a_64;
use gnnmark_tensor::ops::conv::Conv2dSpec;
use gnnmark_tensor::{CsrMatrix, IntTensor, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Result;

/// Perturbation used by the central difference. Large enough that the
/// f32 forward's rounding noise stays well below the secant slope, small
/// enough that curvature (the O(ε²) truncation term) stays below `tol`.
const EPS: f32 = 1e-2;

/// Elements probed per input tensor (spread evenly across the buffer).
const PROBES_PER_INPUT: usize = 6;

/// Outcome of one gradient check.
#[derive(Debug, Clone)]
pub struct GradReport {
    /// Name of the checked op or workload parameter set.
    pub name: String,
    /// Elements compared.
    pub checked: usize,
    /// Worst scaled error `|analytic − fd| / (1 + max(|analytic|, |fd|))`.
    pub max_err: f64,
    /// Tolerance the check ran at.
    pub tol: f64,
    /// Human-readable description of the worst element.
    pub detail: String,
}

impl GradReport {
    /// `true` when every probed element was within tolerance.
    pub fn passed(&self) -> bool {
        self.max_err <= self.tol
    }

    /// One status line for the CLI report.
    pub fn line(&self) -> String {
        format!(
            "{} grad `{}`: {} element(s), max err {:.2e} (tol {:.0e}){}",
            if self.passed() { "ok  " } else { "FAIL" },
            self.name,
            self.checked,
            self.max_err,
            self.tol,
            if self.passed() {
                String::new()
            } else {
                format!(" — {}", self.detail)
            }
        )
    }
}

/// A differentiable computation under test: builds the output [`Var`]
/// from leaf variables created for each input tensor.
pub trait BuildFn: Fn(&Tape, &[Var]) -> Result<Var> {}
impl<F: Fn(&Tape, &[Var]) -> Result<Var>> BuildFn for F {}

fn weight_for(name: &str, dims: &[usize]) -> Tensor {
    let mut rng = StdRng::seed_from_u64(fnv1a_64(name.as_bytes()) ^ 0x77);
    Tensor::uniform(dims, -1.0, 1.0, &mut rng)
}

fn eval_loss(build: &dyn BuildFn, inputs: &[Tensor], w: &Tensor) -> Result<f64> {
    let tape = Tape::new();
    let leaves: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
    let out = build(&tape, &leaves)?;
    let loss = out.mul(&tape.constant(w.clone()))?.sum_all();
    Ok(loss.value().item()? as f64)
}

/// Analytic gradients of the weighted objective with respect to every
/// input, via one tape backward pass. Returns `(loss, grads)`; an input
/// with no gradient path yields a zero tensor of its shape.
fn analytic_grads(build: &dyn BuildFn, inputs: &[Tensor], w: &Tensor) -> Result<Vec<Tensor>> {
    let tape = Tape::new();
    let leaves: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
    let out = build(&tape, &leaves)?;
    let loss = out.mul(&tape.constant(w.clone()))?.sum_all();
    tape.backward(&loss)?;
    Ok(leaves
        .iter()
        .zip(inputs)
        .map(|(l, t)| l.grad().unwrap_or_else(|| Tensor::zeros(t.dims())))
        .collect())
}

/// Indices probed in a buffer of `n` elements: up to [`PROBES_PER_INPUT`],
/// spread evenly so both ends and the middle are covered.
fn probe_indices(n: usize) -> Vec<usize> {
    let k = PROBES_PER_INPUT.min(n);
    (0..k).map(|i| i * n / k).collect()
}

/// Compares supplied analytic gradients against central finite
/// differences of the weighted objective. This is the comparator half of
/// [`grad_check`]; exposing it separately lets tests feed a deliberately
/// perturbed gradient and assert the failure names the op.
///
/// # Errors
/// Propagates tensor-engine errors from the forward evaluations.
pub fn grad_check_against(
    name: &str,
    inputs: &[Tensor],
    tol: f64,
    build: &dyn BuildFn,
    analytic: &[Tensor],
) -> Result<GradReport> {
    // Learn the output shape once, then fix the objective weights.
    let probe_tape = Tape::new();
    let probe_leaves: Vec<Var> = inputs.iter().map(|t| probe_tape.leaf(t.clone())).collect();
    let out_dims = build(&probe_tape, &probe_leaves)?.dims();
    let w = weight_for(name, &out_dims);

    let mut max_err = 0.0f64;
    let mut checked = 0usize;
    let mut detail = String::from("all elements within tolerance");
    for (ti, t) in inputs.iter().enumerate() {
        for idx in probe_indices(t.numel()) {
            let mut plus = inputs.to_vec();
            plus[ti].as_mut_slice()[idx] += EPS;
            let lp = eval_loss(build, &plus, &w)?;
            let mut minus = inputs.to_vec();
            minus[ti].as_mut_slice()[idx] -= EPS;
            let lm = eval_loss(build, &minus, &w)?;
            let fd = (lp - lm) / (2.0 * EPS as f64);
            let a = analytic[ti].as_slice()[idx] as f64;
            let err = (a - fd).abs() / (1.0 + a.abs().max(fd.abs()));
            checked += 1;
            if err > max_err {
                max_err = err;
                detail = format!(
                    "op `{name}` input #{ti} element {idx}: analytic {a:.6e} vs finite-difference {fd:.6e}"
                );
            }
        }
    }
    Ok(GradReport {
        name: name.to_string(),
        checked,
        max_err,
        tol,
        detail,
    })
}

/// Full gradient check of one op: computes analytic gradients via the
/// tape, then compares them against central finite differences — and
/// evaluates the op once more under a [`NoGradGuard`], failing the report
/// unless that records nothing and returns the taped forward's bits. Every
/// differentiable op comes through here, so this is what stands behind
/// "inference is the training forward under the guard".
///
/// # Errors
/// Propagates tensor-engine errors.
pub fn grad_check(
    name: &str,
    inputs: &[Tensor],
    tol: f64,
    build: &dyn BuildFn,
) -> Result<GradReport> {
    let forward = || -> Result<(usize, Tensor)> {
        let tape = Tape::new();
        let leaves: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
        let out = build(&tape, &leaves)?.value();
        Ok((tape.len(), out))
    };
    let (_, taped) = forward()?;
    let w = weight_for(name, taped.dims());
    let analytic = analytic_grads(build, inputs, &w)?;
    let mut report = grad_check_against(name, inputs, tol, build, &analytic)?;
    let (recorded, guarded) = {
        let _no_grad = NoGradGuard::new();
        forward()?
    };
    let same_bits = guarded.dims() == taped.dims()
        && guarded
            .as_slice()
            .iter()
            .zip(taped.as_slice())
            .all(|(g, t)| g.to_bits() == t.to_bits());
    if recorded != 0 || !same_bits {
        report.max_err = f64::INFINITY;
        report.detail = format!(
            "op `{name}` under NoGradGuard: {recorded} tape node(s) recorded, value {} the taped forward's",
            if same_bits { "bit-equal to" } else { "differs from" }
        );
    }
    Ok(report)
}

/// Deterministic strictly-positive inputs (safe for `ln`, `sqrt`,
/// `recip`, `div` denominators).
fn positive(name: &str, dims: &[usize]) -> Tensor {
    let mut rng = StdRng::seed_from_u64(fnv1a_64(name.as_bytes()));
    Tensor::uniform(dims, 0.2, 1.5, &mut rng)
}

/// Deterministic sign-alternating inputs bounded away from zero, so
/// kinked activations (relu family) are probed on both branches without
/// any element sitting at the kink.
fn mixed(name: &str, dims: &[usize]) -> Tensor {
    let mut t = positive(name, dims);
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        if i % 2 == 1 {
            *v = -*v;
        }
    }
    t
}

/// A small sparse 4×4 matrix with an asymmetric pattern, plus its
/// transpose (the pair [`Var::spmm`] needs for its backward pass).
fn small_csr() -> Result<(Rc<CsrMatrix>, Rc<CsrMatrix>)> {
    let a = CsrMatrix::from_coo(
        4,
        4,
        &[
            (0, 0, 0.8),
            (0, 2, 0.4),
            (1, 1, 1.1),
            (1, 3, -0.5),
            (2, 0, 0.3),
            (3, 2, 0.9),
            (3, 3, 0.6),
        ],
    )?;
    let at = a.transpose();
    Ok((Rc::new(a), Rc::new(at)))
}

/// A small symmetric 4×4 sparse matrix for [`Var::spmm_sym`].
fn small_sym_csr() -> Result<Rc<CsrMatrix>> {
    Ok(Rc::new(CsrMatrix::from_coo(
        4,
        4,
        &[
            (0, 0, 0.9),
            (0, 1, 0.3),
            (1, 0, 0.3),
            (1, 1, 0.7),
            (2, 3, 0.5),
            (3, 2, 0.5),
            (2, 2, 1.0),
            (3, 3, 0.4),
        ],
    )?))
}

/// Runs the finite-difference check against every differentiable op the
/// tensor/autograd layer exposes, at the given tolerance. One report per
/// op; `reports.iter().all(GradReport::passed)` is the gate condition.
///
/// # Errors
/// Propagates tensor-engine errors (a check that errors is itself a bug).
pub fn all_op_reports(tol: f64) -> Result<Vec<GradReport>> {
    let mut reports = Vec::new();
    let mut run = |name: &str, inputs: &[Tensor], build: &dyn BuildFn| -> Result<()> {
        reports.push(grad_check(name, inputs, tol, build)?);
        Ok(())
    };

    // ---- element-wise binary ----
    let d = &[3usize, 4][..];
    run("add", &[mixed("add.a", d), mixed("add.b", d)], &|_, v| {
        v[0].add(&v[1])
    })?;
    run("sub", &[mixed("sub.a", d), mixed("sub.b", d)], &|_, v| {
        v[0].sub(&v[1])
    })?;
    run("mul", &[mixed("mul.a", d), mixed("mul.b", d)], &|_, v| {
        v[0].mul(&v[1])
    })?;
    // Denominators stay ≥ 0.7: 1/y is curved enough near 0.2 that the
    // ε = 1e-2 central difference truncation error alone exceeds 1e-3.
    run(
        "div",
        &[mixed("div.a", d), positive("div.b", d).add_scalar(0.5)],
        &|_, v| v[0].div(&v[1]),
    )?;

    // ---- element-wise unary ----
    run("neg", &[mixed("neg.x", d)], &|_, v| Ok(v[0].neg()))?;
    run("add_scalar", &[mixed("adds.x", d)], &|_, v| {
        Ok(v[0].add_scalar(0.7))
    })?;
    run("mul_scalar", &[mixed("muls.x", d)], &|_, v| {
        Ok(v[0].mul_scalar(-1.3))
    })?;
    run("relu", &[mixed("relu.x", d)], &|_, v| Ok(v[0].relu()))?;
    run("leaky_relu", &[mixed("lrelu.x", d)], &|_, v| {
        Ok(v[0].leaky_relu(0.1))
    })?;
    run(
        "prelu",
        &[mixed("prelu.x", d), positive("prelu.a", &[1])],
        &|_, v| v[0].prelu(&v[1]),
    )?;
    run("sigmoid", &[mixed("sigm.x", d)], &|_, v| Ok(v[0].sigmoid()))?;
    run("tanh", &[mixed("tanh.x", d)], &|_, v| Ok(v[0].tanh()))?;
    run("exp", &[mixed("exp.x", d)], &|_, v| Ok(v[0].exp()))?;
    run("ln", &[positive("ln.x", d)], &|_, v| Ok(v[0].ln()))?;
    run("square", &[mixed("square.x", d)], &|_, v| Ok(v[0].square()))?;
    run("sqrt", &[positive("sqrt.x", d)], &|_, v| Ok(v[0].sqrt()))?;
    run("recip", &[positive("recip.x", d)], &|_, v| Ok(v[0].recip()))?;
    run("dropout", &[mixed("drop.x", d)], &|_, v| {
        // Re-seeded per evaluation: the mask is identical across the
        // analytic pass and every finite-difference evaluation.
        let mut rng = StdRng::seed_from_u64(0xd120);
        v[0].dropout(0.4, &mut rng)
    })?;

    // ---- GEMM family ----
    run(
        "matmul",
        &[mixed("mm.a", &[3, 4]), mixed("mm.b", &[4, 2])],
        &|_, v| v[0].matmul(&v[1]),
    )?;
    run(
        "matmul_nt",
        &[mixed("mmnt.a", &[3, 4]), mixed("mmnt.b", &[2, 4])],
        &|_, v| v[0].matmul_nt(&v[1]),
    )?;
    run(
        "matmul_tn",
        &[mixed("mmtn.a", &[4, 3]), mixed("mmtn.b", &[4, 2])],
        &|_, v| v[0].matmul_tn(&v[1]),
    )?;
    run(
        "bmm",
        &[mixed("bmm.a", &[2, 3, 4]), mixed("bmm.b", &[2, 4, 2])],
        &|_, v| v[0].bmm(&v[1]),
    )?;
    run(
        "bmm_nt",
        &[mixed("bmmnt.a", &[2, 3, 4]), mixed("bmmnt.b", &[2, 2, 4])],
        &|_, v| v[0].bmm_nt(&v[1]),
    )?;

    // ---- shape / layout ----
    run("transpose2d", &[mixed("tr.x", d)], &|_, v| {
        v[0].transpose2d()
    })?;
    run("reshape", &[mixed("rs.x", d)], &|_, v| {
        v[0].reshape(&[2, 6])
    })?;
    run("slice_cols", &[mixed("slc.x", d)], &|_, v| {
        v[0].slice_cols(1, 3)
    })?;
    run("slice_rows", &[mixed("slr.x", &[4, 3])], &|_, v| {
        v[0].slice_rows(1, 3)
    })?;
    run(
        "concat_rows",
        &[mixed("ccr.a", &[2, 3]), mixed("ccr.b", &[2, 3])],
        &|_, v| Var::concat_rows(&[v[0].clone(), v[1].clone()]),
    )?;
    run(
        "concat_cols",
        &[mixed("ccc.a", &[3, 2]), mixed("ccc.b", &[3, 2])],
        &|_, v| Var::concat_cols(&[v[0].clone(), v[1].clone()]),
    )?;

    // ---- broadcast-style ----
    run(
        "add_bias",
        &[mixed("ab.x", d), mixed("ab.b", &[4])],
        &|_, v| v[0].add_bias(&v[1]),
    )?;
    run(
        "scale_rows",
        &[mixed("sr.x", d), positive("sr.s", &[3])],
        &|_, v| v[0].scale_rows(&v[1]),
    )?;
    run(
        "scale_cols",
        &[mixed("sc.x", d), positive("sc.s", &[4])],
        &|_, v| v[0].scale_cols(&v[1]),
    )?;

    // ---- sparse ----
    let (adj, adj_t) = small_csr()?;
    run("spmm", &[mixed("spmm.x", &[4, 3])], &move |_, v| {
        Var::spmm(&adj, &adj_t, &v[0])
    })?;
    let sym = small_sym_csr()?;
    run("spmm_sym", &[mixed("spmms.x", &[4, 3])], &move |_, v| {
        Var::spmm_sym(&sym, &v[0])
    })?;

    // ---- irregular (gather / scatter / embedding) ----
    let gidx = IntTensor::from_vec(&[4], vec![0, 2, 2, 4])?;
    run("gather_rows", &[mixed("gr.x", &[5, 3])], &move |_, v| {
        v[0].gather_rows(&gidx)
    })?;
    let iidx = IntTensor::from_vec(&[4], vec![4, 1, 3, 1])?;
    run("index_select", &[mixed("is.x", &[5, 3])], &move |_, v| {
        v[0].index_select(&iidx)
    })?;
    let eidx = IntTensor::from_vec(&[5], vec![0, 3, 5, 3, 2])?;
    run(
        "embedding_lookup",
        &[mixed("el.t", &[6, 4])],
        &move |_, v| v[0].embedding_lookup(&eidx),
    )?;
    let sidx = IntTensor::from_vec(&[5], vec![0, 3, 1, 3, 2])?;
    run(
        "scatter_add_rows",
        &[mixed("sar.x", &[5, 3])],
        &move |_, v| v[0].scatter_add_rows(&sidx, 4),
    )?;
    let pidx = IntTensor::from_vec(&[4], vec![2, 0, 4, 1])?;
    run(
        "select_per_row",
        &[mixed("spr.x", &[4, 5])],
        &move |_, v| v[0].select_per_row(&pidx),
    )?;

    // ---- softmax / losses ----
    run("softmax_rows", &[mixed("sm.x", &[3, 5])], &|_, v| {
        v[0].softmax_rows()
    })?;
    run("log_softmax_rows", &[mixed("lsm.x", &[3, 5])], &|_, v| {
        v[0].log_softmax_rows()
    })?;
    let target = Tensor::from_fn(&[3, 4], |i| if i % 3 == 0 { 1.0 } else { 0.0 });
    run(
        "bce_with_logits_mean",
        &[mixed("bce.x", d)],
        &move |_, v| v[0].bce_with_logits_mean(&target),
    )?;

    // ---- normalization ----
    run(
        "batch_norm",
        &[
            mixed("bn.x", &[6, 4]),
            positive("bn.g", &[4]),
            mixed("bn.b", &[4]),
        ],
        &|_, v| v[0].batch_norm(&v[1], &v[2], 1e-5),
    )?;

    // ---- convolution ----
    run(
        "conv2d",
        &[mixed("cv.x", &[2, 2, 5, 5]), mixed("cv.w", &[3, 2, 3, 3])],
        &|_, v| v[0].conv2d(&v[1], Conv2dSpec::default()),
    )?;
    run(
        "conv2d_strided",
        &[mixed("cvs.x", &[1, 2, 6, 6]), mixed("cvs.w", &[2, 2, 3, 3])],
        &|_, v| {
            v[0].conv2d(
                &v[1],
                Conv2dSpec {
                    stride_h: 2,
                    stride_w: 2,
                    pad_h: 1,
                    pad_w: 1,
                },
            )
        },
    )?;

    // ---- reductions ----
    run("sum_all", &[mixed("sa.x", d)], &|_, v| Ok(v[0].sum_all()))?;
    run("mean_all", &[mixed("ma.x", d)], &|_, v| Ok(v[0].mean_all()))?;
    run("sum_rows", &[mixed("sro.x", d)], &|_, v| v[0].sum_rows())?;
    run("mean_rows", &[mixed("mro.x", d)], &|_, v| v[0].mean_rows())?;
    run("sum_cols", &[mixed("sco.x", d)], &|_, v| v[0].sum_cols())?;

    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_passes_at_1e3() {
        let reports = all_op_reports(1e-3).unwrap();
        assert!(reports.len() >= 45, "only {} ops covered", reports.len());
        let failures: Vec<String> = reports
            .iter()
            .filter(|r| !r.passed())
            .map(GradReport::line)
            .collect();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn perturbed_gradient_fails_and_names_the_op() {
        // Feed a 5%-scaled analytic gradient for matmul: the comparator
        // must fail and its detail must name the offending op.
        let inputs = [mixed("pm.a", &[3, 4]), mixed("pm.b", &[4, 2])];
        let build: &dyn BuildFn = &|_: &Tape, v: &[Var]| v[0].matmul(&v[1]);
        let good = grad_check("matmul", &inputs, 1e-3, build).unwrap();
        assert!(good.passed(), "{}", good.line());

        let probe_tape = Tape::new();
        let leaves: Vec<Var> = inputs.iter().map(|t| probe_tape.leaf(t.clone())).collect();
        let out_dims = build(&probe_tape, &leaves).unwrap().dims();
        let w = weight_for("matmul", &out_dims);
        let mut bad = analytic_grads(build, &inputs, &w).unwrap();
        for g in &mut bad {
            for v in g.as_mut_slice() {
                *v *= 1.05;
            }
        }
        let report = grad_check_against("matmul", &inputs, 1e-3, build, &bad).unwrap();
        assert!(!report.passed(), "perturbed gradient must fail");
        assert!(report.detail.contains("matmul"), "{}", report.detail);
        assert!(report.line().contains("FAIL"));
    }

    #[test]
    fn weighted_objective_catches_softmax() {
        // The unweighted sum of softmax rows is constant (gradient 0);
        // the weighted objective must produce a non-zero gradient.
        let x = mixed("smtest.x", &[2, 4]);
        let build: &dyn BuildFn = &|_: &Tape, v: &[Var]| v[0].softmax_rows();
        let probe_tape = Tape::new();
        let leaves = vec![probe_tape.leaf(x.clone())];
        let dims = build(&probe_tape, &leaves).unwrap().dims();
        let w = weight_for("softmax_check", &dims);
        let grads = analytic_grads(build, &[x], &w).unwrap();
        assert!(grads[0].as_slice().iter().any(|&g| g.abs() > 1e-4));
    }
}
