//! Quickstart: train a 2-layer GCN on a Cora-like citation graph while the
//! profiler watches, then print the training curve and an nvprof-style
//! summary of what the modeled V100 did.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gnnmark::{DeviceSpec, ProfileSession};
use gnnmark_autograd::{Adam, Optimizer, Tape};
use gnnmark_graph::datasets::{citation, CitationKind};
use gnnmark_nn::gcn::NormAdj;
use gnnmark_nn::{losses, GcnConv, Module};
use rand::SeedableRng;

fn main() -> gnnmark::Result<()> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);

    // 1. A citation graph shaped like Cora (scaled to 25 % of its nodes).
    let graph = citation(CitationKind::Cora, 0.25, 42)?;
    let labels = graph
        .labels()
        .expect("citation graphs carry labels")
        .clone();
    println!(
        "dataset: {} nodes, {} edges, {}-d features, sparsity {:.1}%",
        graph.num_nodes(),
        graph.num_edges(),
        graph.feature_dim(),
        graph.features().sparsity() * 100.0
    );

    // 2. A 2-layer GCN.
    let adj = NormAdj::new_symmetric(graph.normalized_adjacency()?);
    let conv1 = GcnConv::new("gcn1", graph.feature_dim(), 32, &mut rng)?;
    let conv2 = GcnConv::new("gcn2", 32, 7, &mut rng)?;
    let mut params = conv1.params();
    params.extend(&conv2.params());
    let mut opt = Adam::new(5e-3);

    // 3. Train under a profiling session on the modeled V100.
    let mut session = ProfileSession::new("quickstart-gcn", DeviceSpec::v100());
    session.upload(graph.features());
    session.upload_csr(adj.matrix());
    for epoch in 0..15 {
        params.zero_grad();
        session.begin_step();
        let tape = Tape::new();
        let x = tape.constant(graph.features().clone());
        let h = conv1.forward(&tape, &adj, &x)?.relu();
        let logits = conv2.forward(&tape, &adj, &h)?;
        let loss = losses::cross_entropy(&logits, &labels)?;
        tape.backward(&loss)?;
        opt.step(&params)?;
        session.end_step();

        let acc = losses::accuracy(&logits.value(), &labels)?;
        println!(
            "epoch {epoch:>2}  loss {:.4}  train-acc {:.1}%",
            loss.value().item()?,
            acc * 100.0
        );
    }

    // 4. What did the GPU do?
    let profile = session.finish();
    println!();
    println!("modeled V100 summary ({} kernels):", profile.kernels.len());
    println!(
        "  kernel time {:.2} ms | {:.0} GFLOPS | {:.0} GIOPS | IPC {:.2}",
        profile.total_kernel_time_ns() / 1e6,
        profile.gflops(),
        profile.giops(),
        profile.ipc()
    );
    println!(
        "  L1 hit {:.1}% | L2 hit {:.1}% | divergent loads {:.1}% | H2D sparsity {:.1}%",
        profile.l1_hit_rate() * 100.0,
        profile.l2_hit_rate() * 100.0,
        profile.divergence() * 100.0,
        profile.mean_sparsity * 100.0
    );
    println!();
    println!("{}", gnnmark::figures::fig2_time_breakdown(&[profile]));
    Ok(())
}
