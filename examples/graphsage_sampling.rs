//! GraphSAGE-style sampled training: instead of full-graph aggregation,
//! each step samples a bounded fanout of neighbors per layer for a
//! minibatch of seed nodes (Hamilton et al., 2017) — the memory-scaling
//! technique PinSAGE builds on (paper §III), and the path `--mode
//! minibatch` ARGA takes. Demonstrates `MinibatchSampler::epoch`,
//! `FanoutSampler` blocks and `SampledGcn` together on a citation graph.
//!
//! ```text
//! cargo run --release --example graphsage_sampling
//! ```

use gnnmark_autograd::{Adam, Optimizer, Tape};
use gnnmark_graph::datasets::{citation, CitationKind};
use gnnmark_graph::sampler::MinibatchSampler;
use gnnmark_graph::FanoutSampler;
use gnnmark_nn::{losses, Module, SampledGcn};
use gnnmark_tensor::IntTensor;
use rand::SeedableRng;

fn main() -> gnnmark::Result<()> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(33);
    let graph = citation(CitationKind::Cora, 0.15, 33)?;
    let labels = graph.labels().expect("labels").clone();
    let n = graph.num_nodes();
    println!(
        "Cora-like graph: {n} nodes, {} edges, {}-d features",
        graph.num_edges(),
        graph.feature_dim()
    );

    let adj = graph.normalized_adjacency()?;
    let model = SampledGcn::new("sage", &[graph.feature_dim(), 32, 7], &mut rng)?;
    let params = model.params();
    let mut opt = Adam::new(5e-3);

    // Two layers, input side first: 10 neighbors per node feed the first
    // layer, 5 per seed feed the second.
    let fanout = FanoutSampler::new(&[10, 5], 33)?;
    let mut batches = MinibatchSampler::new(n, 256, &mut rng)?;
    let mut batch_id = 0u64;
    for epoch in 0..8 {
        let mut epoch_loss = 0.0;
        let mut edges = 0u64;
        let epoch_batches = batches.epoch(&mut rng);
        let num_batches = epoch_batches.num_batches();
        for ids in epoch_batches {
            let batch = fanout.sample(&adj, ids.as_slice(), batch_id)?;
            batch_id += 1;
            edges += batch.edges;
            // Only the sampled input frontier's features are gathered.
            let x_in = graph.features().gather_rows(&batch.input_index()?)?;
            let batch_labels = IntTensor::from_vec(
                &[ids.numel()],
                ids.as_slice()
                    .iter()
                    .map(|&i| labels.as_slice()[i as usize])
                    .collect(),
            )?;

            params.zero_grad();
            let tape = Tape::new();
            let x = tape.constant(x_in);
            let logits = model.forward(&tape, &batch.blocks, &x)?;
            let loss = losses::cross_entropy(&logits, &batch_labels)?;
            tape.backward(&loss)?;
            opt.step(&params)?;
            epoch_loss += loss.value().item()? as f64;
        }
        println!(
            "epoch {epoch}  mean minibatch loss {:.4} over {num_batches} batches, {edges} sampled edges",
            epoch_loss / num_batches as f64
        );
    }

    // Full-graph evaluation with the trained parameters: seeds 0..n with
    // unlimited fanout make every block the full normalized adjacency.
    let full = FanoutSampler::new(&[0, 0], 0)?;
    let seeds: Vec<i64> = (0..n as i64).collect();
    let batch = full.sample(&adj, &seeds, 0)?;
    let tape = Tape::new();
    let x = tape.constant(graph.features().clone());
    let logits = model.forward(&tape, &batch.blocks, &x)?;
    let acc = losses::accuracy(&logits.value(), &labels)?;
    println!(
        "full-graph train accuracy after sampled training: {:.1}%",
        acc * 100.0
    );
    Ok(())
}
