//! Mini-batch sampling verification (check layer 4).
//!
//! Three check families cover the neighbor-sampling training mode:
//!
//! * **Sampled-path gradients** — the fanout-sampled block stack
//!   (feature gather + rectangular SpMM aggregation) is differentiated
//!   against central finite differences, first as an isolated op chain
//!   and then end-to-end through the PSAGE and ARGA workloads built in
//!   minibatch mode, so a bug anywhere in the gather/index-select path
//!   surfaces as an analytic/FD mismatch.
//! * **Full-graph parity** — a full-coverage seed set with unlimited
//!   fanout makes the sampled blocks equal the full normalized
//!   adjacency, so the sampled forward pass (and ARGA's probe loss)
//!   must reproduce the full-graph computation *bit-for-bit*. This is
//!   the strongest correctness statement the sampling engine admits:
//!   minibatch mode is exactly full-graph mode restricted to a subgraph.
//! * **Golden op streams** — minibatch-mode kernel streams of the two
//!   fanout-sampled workloads (PSAGE-MVL, ARGA) are snapshotted under
//!   `results/golden/opstream-minibatch/` next to the full-graph family.

use gnnmark::suite::{run_workload_full, RunArtifacts, SuiteConfig};
use gnnmark_autograd::Tape;
use gnnmark_graph::{FanoutSampler, Graph};
use gnnmark_nn::gcn::NormAdj;
use gnnmark_nn::{sampled, SampledGcn};
use gnnmark_tensor::Tensor;
use gnnmark_workloads::{MinibatchConfig, Scale, TrainMode, WorkloadKind};

use crate::gradcheck::{grad_check, GradReport};
use crate::workload::workload_grad_report_mode;
use crate::Result;

/// The two workloads with a real fanout-sampled path (the batched
/// workloads only re-chunk their existing loops in minibatch mode).
pub const SAMPLED_WORKLOADS: [WorkloadKind; 2] = [WorkloadKind::PsageMvl, WorkloadKind::ArgaCora];

/// Outcome of one parity comparison.
#[derive(Debug, Clone)]
pub struct ParityReport {
    /// Comparison name (e.g. `sampled-gcn-forward`).
    pub name: String,
    /// Whether the two sides matched exactly.
    pub ok: bool,
    /// Failure description (empty when ok).
    pub detail: String,
}

impl ParityReport {
    /// One status line for the CLI report.
    pub fn line(&self) -> String {
        if self.ok {
            format!("ok   parity `{}`: bit-identical", self.name)
        } else {
            format!("FAIL parity `{}` — {}", self.name, self.detail)
        }
    }
}

/// A small deterministic graph with enough structure that two-level
/// fanout sampling produces non-trivial blocks: a ring with chords.
/// Features are bounded away from zero so the ReLU between aggregation
/// levels never evaluates on its kink during FD probing.
fn check_graph(n: usize) -> Result<Graph> {
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    edges.extend((0..n / 3).map(|i| (i, (i + n / 2) % n)));
    let feats = Tensor::from_fn(&[n, 4], |i| ((i * 13) % 7) as f32 / 7.0 + 0.1);
    Graph::from_undirected_edges(n, &edges, feats)
}

/// FD gradient check of the sampled gather/index-select path in
/// isolation: two fanout blocks aggregated with the rectangular SpMM
/// (ReLU between levels), differentiated w.r.t. the gathered features.
///
/// # Errors
/// Propagates sampling and tensor-engine errors.
pub fn sampled_path_grad_report(tol: f64) -> Result<GradReport> {
    let g = check_graph(12)?;
    let sampler = FanoutSampler::new(&[3, 2], 11)?;
    let batch = sampler.sample(&g.normalized_adjacency()?, &[0, 3, 7, 10], 0)?;
    let x = g.features().gather_rows(&batch.input_index()?)?;
    let blocks = batch.blocks;
    grad_check("sampled-block-aggregate", &[x], tol, &move |_tape, v| {
        let mut h = v[0].clone();
        for (i, b) in blocks.iter().enumerate() {
            h = sampled::block_aggregate(b, &h)?;
            if i + 1 < blocks.len() {
                h = h.relu();
            }
        }
        Ok(h)
    })
}

/// End-to-end FD gradient checks of the fanout-sampled workloads built
/// in minibatch mode (small batch, two-level fanout), exercising the
/// full sampling → gather → rectangular-SpMM → loss stack.
///
/// The checks run at `max(tol, 5e-3)`: fanout weights are rescaled by
/// `deg/fanout`, which amplifies curvature along the sampled path, and
/// PSAGE's hinge loss puts kinks within ε of some probe points — both
/// produce legitimate analytic/FD gaps around 2e-3 that the bit-exact
/// parity layer (not a tighter FD tolerance) is the right tool against.
///
/// # Errors
/// Propagates workload construction and tensor-engine errors.
pub fn minibatch_workload_reports(scale: Scale, seed: u64, tol: f64) -> Result<Vec<GradReport>> {
    let tol = tol.max(5e-3);
    let mode = TrainMode::Minibatch(MinibatchConfig {
        batch_size: 8,
        fanouts: vec![4, 3],
    });
    SAMPLED_WORKLOADS
        .iter()
        .map(|&k| workload_grad_report_mode(k, scale, seed, tol, &mode))
        .collect()
}

/// The full-graph parity checks: full-coverage seeds + unlimited fanout
/// must reproduce the full-graph computation bit-for-bit, both for an
/// isolated [`SampledGcn`] forward pass and for ARGA's probe loss.
///
/// # Errors
/// Propagates construction and tensor-engine errors; parity violations
/// are reported in the returned [`ParityReport`]s instead.
pub fn parity_reports(scale: Scale, seed: u64) -> Result<Vec<ParityReport>> {
    let mut out = vec![sampled_gcn_parity()?];

    // ARGA: a batch covering every node with unlimited fanout makes the
    // minibatch probe loss equal the full-graph probe loss exactly.
    let kind = WorkloadKind::ArgaCora;
    let cover = TrainMode::Minibatch(MinibatchConfig {
        batch_size: 1 << 20, // clamped to the node count by the probe
        fanouts: vec![0, 0],
    });
    let lf = kind.build(scale, seed)?.probe()?;
    let lm = kind.build_mode(scale, seed, &cover)?.probe()?;
    out.push(if lf.to_bits() == lm.to_bits() {
        ParityReport {
            name: "arga-fullcoverage-probe".to_string(),
            ok: true,
            detail: String::new(),
        }
    } else {
        ParityReport {
            name: "arga-fullcoverage-probe".to_string(),
            ok: false,
            detail: format!("full-graph probe loss {lf:.9e} vs full-coverage minibatch {lm:.9e}"),
        }
    });
    Ok(out)
}

fn sampled_gcn_parity() -> Result<ParityReport> {
    use rand::SeedableRng;
    let g = check_graph(10)?;
    let norm_adj = g.normalized_adjacency()?;
    let n = g.num_nodes();
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let model = SampledGcn::new("parity", &[4, 5, 3], &mut rng)?;
    let sampler = FanoutSampler::new(&[0, 0], 0)?;
    let seeds: Vec<i64> = (0..n as i64).collect();
    let batch = sampler.sample(&norm_adj, &seeds, 0)?;

    let tape = Tape::new();
    let x = tape.constant(g.features().clone());
    let via_blocks = model.forward(&tape, &batch.blocks, &x)?;

    let adj = NormAdj::new_symmetric(norm_adj);
    let mut h = x;
    for (i, conv) in model.convs().iter().enumerate() {
        h = conv.forward(&tape, &adj, &h)?;
        if i + 1 < model.num_layers() {
            h = h.relu();
        }
    }

    let (a, b) = (via_blocks.value(), h.value());
    let ok = a.as_slice() == b.as_slice();
    let detail = if ok {
        String::new()
    } else {
        let first = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .position(|(x, y)| x != y)
            .unwrap_or(0);
        format!(
            "sampled vs full-graph forward diverges at element {first}: {} vs {}",
            a.as_slice()[first],
            b.as_slice()[first]
        )
    };
    Ok(ParityReport {
        name: "sampled-gcn-forward".to_string(),
        ok,
        detail,
    })
}

/// Runs the fanout-sampled workloads in minibatch mode (default fanout
/// config) at the test scale, producing the artifacts the minibatch
/// golden layer snapshots.
///
/// # Errors
/// Propagates workload failures.
pub fn golden_runs(seed: u64) -> Result<Vec<RunArtifacts>> {
    let mut cfg = SuiteConfig::test().with_mode(TrainMode::Minibatch(MinibatchConfig::default()));
    cfg.seed = seed;
    SAMPLED_WORKLOADS
        .iter()
        .map(|&k| run_workload_full(k, &cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_path_passes_gradient_check() {
        let r = sampled_path_grad_report(1e-3).unwrap();
        assert!(r.checked >= 4, "checked {}", r.checked);
        assert!(r.passed(), "{}", r.line());
    }

    #[test]
    fn parity_holds_at_test_scale() {
        for r in parity_reports(Scale::Test, 42).unwrap() {
            assert!(r.ok, "{}", r.line());
        }
    }

    #[test]
    fn minibatch_workloads_pass_gradient_check() {
        for r in minibatch_workload_reports(Scale::Test, 42, 1e-3).unwrap() {
            assert!(
                r.name.contains("[minibatch-"),
                "mode key in name: {}",
                r.name
            );
            assert!(r.passed(), "{}", r.line());
        }
    }
}
