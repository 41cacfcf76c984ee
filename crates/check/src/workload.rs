//! End-to-end parameter-gradient checks of the eight workloads.
//!
//! Each workload exposes [`gnnmark_workloads::Workload::probe`]: a
//! deterministic forward + backward over a fixed probe batch. The checker
//! reads the analytic parameter gradients from one probe, then
//! re-evaluates the probe loss with individual parameter elements nudged
//! by ±ε and compares the central finite difference against the analytic
//! value. A bug anywhere in a workload's model stack — ops, autograd
//! rules, layer wiring — shows up here even if every op passes its
//! isolated check.
//!
//! Parameters are first jittered away from the init point. Biases start
//! at exactly zero, and upstream ReLUs emit exact zeros, so freshly-built
//! models evaluate some ReLU pre-activations exactly on the kink — where
//! the analytic subgradient (0) and any finite difference legitimately
//! disagree. A small deterministic offset moves the check to a generic,
//! differentiable point without touching the workloads themselves.

use gnnmark_gpusim::stream::fnv1a_64;
use gnnmark_tensor::Tensor;
use gnnmark_workloads::{Scale, TrainMode, Workload, WorkloadKind};
use rand::SeedableRng;

use crate::gradcheck::GradReport;
use crate::Result;

const EPS: f32 = 1e-3;
/// Parameter-jitter amplitude (uniform ±): large enough to clear ReLU
/// kinks by many ε, small enough to keep every model numerically tame.
const JITTER: f32 = 0.02;
/// FD probes per parameter tensor: the element with the largest analytic
/// gradient (best-conditioned) plus one fixed mid-tensor element.
const PROBES_PER_PARAM: usize = 2;

fn set_elem(p: &gnnmark_autograd::Param, idx: usize, v: f32) {
    let mut t = p.value().clone();
    t.as_mut_slice()[idx] = v;
    p.set_value(t);
}

/// Nudges every parameter by a deterministic uniform offset in
/// `[-JITTER, JITTER]` so the probe evaluates at a generic point.
fn jitter_params(params: &gnnmark_autograd::ParamSet, seed: u64) -> Result<()> {
    for p in params.iter() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ fnv1a_64(p.name().as_bytes()));
        let value = p.value().clone();
        let offset = Tensor::uniform(value.dims(), -JITTER, JITTER, &mut rng);
        p.set_value(value.add(&offset)?);
    }
    Ok(())
}

/// Gradient-checks one workload at `scale`/`seed`. The report's `name` is
/// the workload label; on failure the detail names the offending
/// parameter tensor and element.
///
/// # Errors
/// Propagates workload construction and tensor-engine errors.
pub fn workload_grad_report(
    kind: WorkloadKind,
    scale: Scale,
    seed: u64,
    tol: f64,
) -> Result<GradReport> {
    workload_grad_report_mode(kind, scale, seed, tol, &TrainMode::FullGraph)
}

/// Gradient-checks one workload built under an explicit training mode.
/// In minibatch mode the probe runs the sampled gather/index-select path
/// (fanout blocks, rectangular SpMM, feature gathers), so a bug anywhere
/// in the sampling stack surfaces as an analytic/FD mismatch. The report
/// name carries the mode key so full-graph and minibatch lines are
/// distinguishable in one run.
///
/// # Errors
/// Propagates workload construction and tensor-engine errors.
pub fn workload_grad_report_mode(
    kind: WorkloadKind,
    scale: Scale,
    seed: u64,
    tol: f64,
    mode: &TrainMode,
) -> Result<GradReport> {
    let mut w: Box<dyn Workload> = kind.build_mode(scale, seed, mode)?;
    let params = w.params();

    jitter_params(&params, seed)?;
    params.zero_grad();
    let _ = w.probe()?;
    let analytic: Vec<Option<Tensor>> = params.iter().map(|p| p.grad()).collect();

    let mut max_err = 0.0f64;
    let mut checked = 0usize;
    let mut detail = String::new();
    for (pi, p) in params.iter().enumerate() {
        let n = p.numel();
        if n == 0 {
            continue;
        }
        let grads = analytic[pi].as_ref();
        let argmax = grads.map_or(0, |g| {
            let s = g.as_slice();
            (0..n)
                .max_by(|&a, &b| s[a].abs().total_cmp(&s[b].abs()))
                .unwrap_or(0)
        });
        let mut idxs = vec![argmax];
        if PROBES_PER_PARAM > 1 && n > 1 && n / 2 != argmax {
            idxs.push(n / 2);
        }
        for idx in idxs {
            let orig = p.value().as_slice()[idx];
            // Round-trip the step through f32 so the denominator is the
            // step the forward pass actually saw.
            let hi = orig + EPS;
            let lo = orig - EPS;
            set_elem(p, idx, hi);
            let plus = w.probe()?;
            set_elem(p, idx, lo);
            let minus = w.probe()?;
            set_elem(p, idx, orig);
            let fd = (plus - minus) / ((hi - lo) as f64);
            let a = grads.map_or(0.0, |g| g.as_slice()[idx] as f64);
            let err = (a - fd).abs() / (1.0 + a.abs().max(fd.abs()));
            checked += 1;
            if err > max_err {
                max_err = err;
                if err > tol {
                    detail = format!(
                        "workload `{}` param `{}` element {idx}: analytic {a:.6e} vs finite-difference {fd:.6e}",
                        kind.label(),
                        p.name()
                    );
                }
            }
        }
    }

    let name = match mode {
        TrainMode::FullGraph => kind.label().to_string(),
        TrainMode::Minibatch(_) => format!("{} [{}]", kind.label(), mode.key()),
    };
    Ok(GradReport {
        name,
        checked,
        max_err,
        tol,
        detail,
    })
}

/// Gradient-checks every workload in the suite.
///
/// # Errors
/// Propagates workload construction and tensor-engine errors.
pub fn all_workload_reports(scale: Scale, seed: u64, tol: f64) -> Result<Vec<GradReport>> {
    WorkloadKind::ALL
        .iter()
        .map(|&k| workload_grad_report(k, scale, seed, tol))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic_for_every_workload() {
        for &kind in &WorkloadKind::ALL {
            let mut w = kind.build(Scale::Test, 7).unwrap();
            w.params().zero_grad();
            let a = w.probe().unwrap();
            w.params().zero_grad();
            let b = w.probe().unwrap();
            assert_eq!(a, b, "{} probe loss must be repeatable", kind.label());
        }
    }

    #[test]
    fn tlstm_params_pass_gradient_check() {
        let r = workload_grad_report(WorkloadKind::Tlstm, Scale::Test, 7, 1e-3).unwrap();
        assert!(r.checked >= 4, "checked {}", r.checked);
        assert!(r.passed(), "{}", r.line());
    }

    /// Regression: at the unjittered init point, STGCN's zero biases put
    /// block-2 ReLU pre-activations exactly on the kink and the check used
    /// to report a spurious zero-vs-nonzero mismatch. The jitter must keep
    /// the probe at a generic point where analytic and FD agree.
    #[test]
    fn stgcn_params_pass_gradient_check() {
        let r = workload_grad_report(WorkloadKind::Stgcn, Scale::Test, 42, 1e-3).unwrap();
        assert!(r.checked >= 10, "checked {}", r.checked);
        assert!(r.passed(), "{}", r.line());
    }
}
