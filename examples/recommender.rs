//! Recommendation with PinSAGE (the paper's heterogeneous-graph
//! workload): train item embeddings on a MovieLens-like interaction graph
//! with random-walk importance sampling, then use the embeddings to rank
//! similar items for a query.
//!
//! ```text
//! cargo run --release --example recommender
//! ```

use gnnmark_autograd::Tape;
use gnnmark_graph::datasets::movielens_like;
use gnnmark_graph::sampler::RandomWalkSampler;
use gnnmark_nn::PinSageConv;
use gnnmark_profiler::ProfileSession;
use gnnmark_tensor::IntTensor;
use gnnmark_workloads::psage::{Psage, PsageDataset};
use gnnmark_workloads::{Scale, Workload};
use rand::SeedableRng;

fn main() -> gnnmark::Result<()> {
    // Train the PSAGE workload for a few epochs.
    let mut workload = Psage::new(PsageDataset::MovieLens, Scale::Small, 11)?;
    let mut session = ProfileSession::new("recommender", gnnmark::DeviceSpec::v100());
    println!("training PinSAGE on a MovieLens-like interaction graph…");
    let before = workload.eval_loss()?;
    for epoch in 0..4 {
        let loss = workload.run_epoch(&mut session)?;
        println!("  epoch {epoch}: margin loss {loss:.4}");
    }
    let after = workload.eval_loss()?;
    println!("probe-batch loss: {before:.4} → {after:.4}");

    // Embed a handful of items with a freshly sampled neighborhood and
    // rank them against a query by dot product.
    let data = movielens_like(0.2, 11)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let conv = PinSageConv::new("demo", data.feature_dim(), 64, &mut rng)?;
    let sampler = RandomWalkSampler::new(16, 3, 6);
    let candidates: Vec<i64> = (0..16).collect();
    let n = candidates.len();
    let ids = IntTensor::from_vec(&[n], candidates.clone())?;
    let hoods = sampler.sample(&data, &ids, &mut rng);
    let (agg, agg_t, seeds) = PinSageConv::build_batch(&hoods, data.num_nodes())?;
    let tape = Tape::new();
    let feats = tape.constant(data.features().clone());
    let emb = conv.forward(&tape, &feats, &agg, &agg_t, &seeds)?.value();

    let query = 0usize;
    let d = emb.dim(1);
    let score = |a: usize, b: usize| -> f32 {
        let (ra, rb) = (
            &emb.as_slice()[a * d..(a + 1) * d],
            &emb.as_slice()[b * d..(b + 1) * d],
        );
        ra.iter().zip(rb).map(|(x, y)| x * y).sum()
    };
    let mut ranked: Vec<(i64, f32)> = candidates
        .iter()
        .skip(1)
        .map(|&c| (c, score(query, c as usize)))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!();
    println!("items most similar to item {query} (by embedding dot product):");
    for (item, s) in ranked.iter().take(5) {
        println!("  item {item:>3}  score {s:+.3}");
    }

    let profile = session.finish();
    println!();
    println!(
        "training profile: {} kernels, sort share {:.1}%, element-wise share {:.1}% \
         (the paper's PSAGE-MVL is sort-heavy; NWP flips to element-wise)",
        profile.kernels.len(),
        profile.time_share(gnnmark_profiler::FigureCategory::Sort) * 100.0,
        profile.time_share(gnnmark_profiler::FigureCategory::ElementWise) * 100.0
    );
    Ok(())
}
