//! Property tests for the parallel execution layer's core guarantee:
//! every kernel is **bit-identical** at 1, 2, 4 and 8 threads.
//!
//! The parallel kernels partition *output* regions and keep each output
//! element's floating-point accumulation order fixed, so the thread count
//! may only change wall-clock, never a single bit of any result. The sizes
//! below are far under `par`'s grain and would all plan one chunk, so the
//! multi-thread legs run under `par::force_split` — every region with two
//! or more rows really goes to the pool, and each leg asserts that one did.

use std::sync::Mutex;

use gnnmark_tensor::{par, CsrMatrix, IntTensor, Tensor};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Serializes tests that flip the process-wide thread setting (results are
/// thread-count-invariant, but the 1-thread leg should really run inline).
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` inline at 1 thread, then force-split at 2, 4 and 8 threads,
/// and returns the raw outputs. `f` must contain a kernel with at least two
/// partitionable rows: every multi-thread leg asserts a region ran pooled.
fn at_thread_counts(f: impl Fn() -> Vec<f32>) -> Vec<Vec<f32>> {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = par::threads();
    let outs = [1usize, 2, 4, 8]
        .iter()
        .map(|&t| {
            par::set_threads(t);
            if t == 1 {
                return f();
            }
            let (pooled_before, _) = par::regions();
            let out = par::force_split(&f);
            assert!(
                par::regions().0 > pooled_before,
                "no region ran pooled at {t} threads: the parity check is vacuous"
            );
            out
        })
        .collect();
    par::set_threads(prev);
    outs
}

fn assert_bit_identical(outs: &[Vec<f32>], what: &str) {
    let base = &outs[0];
    for (i, o) in outs.iter().enumerate().skip(1) {
        assert_eq!(o.len(), base.len(), "{what}: length diverged");
        for (j, (a, b)) in o.iter().zip(base).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{what}: element {j} diverged at thread setting #{i}: {a} vs {b}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gemm_bit_identical_across_thread_counts(
        m in 2usize..96,
        k in 1usize..48,
        n in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::from_fn(&[m, k], |_| rng.gen_range(-2.0..2.0));
        let b = Tensor::from_fn(&[k, n], |_| rng.gen_range(-2.0..2.0));
        let outs = at_thread_counts(|| a.matmul(&b).unwrap().into_vec());
        assert_bit_identical(&outs, "matmul");
    }

    #[test]
    fn gemm_nt_and_tn_match_explicit_transpose_at_any_thread_count(
        m in 2usize..48,
        k in 1usize..32,
        n in 1usize..48,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::from_fn(&[m, k], |_| rng.gen_range(-2.0..2.0));
        let bt = Tensor::from_fn(&[n, k], |_| rng.gen_range(-2.0..2.0));
        let at = Tensor::from_fn(&[k, m], |_| rng.gen_range(-2.0..2.0));
        let b = Tensor::from_fn(&[k, n], |_| rng.gen_range(-2.0..2.0));

        // NT/TN go through the same transpose-pack + blocked kernel as
        // plain matmul, so they match matmul-of-explicit-transpose exactly.
        let reference_nt = a.matmul(&bt.transpose2d().unwrap()).unwrap();
        let reference_tn = at.transpose2d().unwrap().matmul(&b).unwrap();
        let nt = at_thread_counts(|| a.matmul_nt(&bt).unwrap().into_vec());
        let tn = at_thread_counts(|| at.matmul_tn(&b).unwrap().into_vec());
        assert_bit_identical(&nt, "matmul_nt");
        assert_bit_identical(&tn, "matmul_tn");
        prop_assert_eq!(nt[0].as_slice(), reference_nt.as_slice());
        prop_assert_eq!(tn[0].as_slice(), reference_tn.as_slice());
    }

    #[test]
    fn spmm_bit_identical_across_thread_counts(
        rows in 2usize..200,
        cols in 1usize..40,
        n in 1usize..48,
        entries in proptest::collection::vec(
            (0usize..1000, 0usize..1000, -3.0f32..3.0), 0..1500),
        seed in any::<u64>(),
    ) {
        let triplets: Vec<(usize, usize, f32)> = entries
            .into_iter()
            .map(|(r, c, v)| (r % rows, c % cols, v))
            .collect();
        let sp = CsrMatrix::from_coo(rows, cols, &triplets).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Tensor::from_fn(&[cols, n], |_| rng.gen_range(-2.0..2.0));
        let outs = at_thread_counts(|| sp.spmm(&x).unwrap().into_vec());
        assert_bit_identical(&outs, "spmm");
    }

    #[test]
    fn scatter_bit_identical_across_thread_counts(
        n in 2usize..2048,
        d in 1usize..48,
        out_rows in 2usize..96,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let src = Tensor::from_fn(&[n, d], |_| rng.gen_range(-2.0..2.0));
        let idx = IntTensor::from_vec(
            &[n],
            (0..n).map(|_| rng.gen_range(0..out_rows) as i64).collect(),
        )
        .unwrap();
        let add = at_thread_counts(|| src.scatter_add_rows(&idx, out_rows).unwrap().into_vec());
        let max = at_thread_counts(|| src.scatter_max_rows(&idx, out_rows).unwrap().into_vec());
        let gather = at_thread_counts(|| {
            let big = Tensor::from_fn(&[out_rows, d], |i| i as f32 * 0.25);
            big.gather_rows(&idx).unwrap().into_vec()
        });
        assert_bit_identical(&add, "scatter_add_rows");
        assert_bit_identical(&max, "scatter_max_rows");
        assert_bit_identical(&gather, "gather_rows");
    }

    #[test]
    fn conv2d_forward_and_backward_bit_identical(
        n in 2usize..4,
        c_in in 1usize..5,
        c_out in 1usize..5,
        h in 3usize..12,
        w in 3usize..24,
        pad in 0usize..2,
        seed in any::<u64>(),
    ) {
        use gnnmark_tensor::ops::conv::Conv2dSpec;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Tensor::from_fn(&[n, c_in, h, w], |_| rng.gen_range(-2.0..2.0));
        let k = Tensor::from_fn(&[c_out, c_in, 3, 3], |_| rng.gen_range(-1.0..1.0));
        let spec = Conv2dSpec { stride_h: 1, stride_w: 1, pad_h: pad, pad_w: pad };
        let (oh, ow) = spec.output_size(h, w, 3, 3).unwrap();
        let dout = Tensor::from_fn(&[n, c_out, oh, ow], |_| rng.gen_range(-1.0..1.0));
        let fwd = at_thread_counts(|| x.conv2d(&k, spec).unwrap().into_vec());
        let bwd = at_thread_counts(|| {
            let (dx, dw) = x.conv2d_backward(&k, spec, &dout).unwrap();
            let mut out = dx.into_vec();
            out.extend(dw.into_vec());
            out
        });
        assert_bit_identical(&fwd, "conv2d");
        assert_bit_identical(&bwd, "conv2d_backward");
    }

    #[test]
    fn elementwise_softmax_and_reductions_bit_identical(
        rows in 2usize..400,
        d in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Tensor::from_fn(&[rows, d], |_| rng.gen_range(-4.0..4.0));
        let y = Tensor::from_fn(&[rows, d], |_| rng.gen_range(-4.0..4.0));
        let combined = at_thread_counts(|| {
            let mut out = x.add(&y).unwrap().relu().into_vec();
            out.extend(x.softmax_rows().unwrap().into_vec());
            out.extend(x.sum_rows().unwrap().into_vec());
            out.extend(x.sum_cols().unwrap().into_vec());
            out
        });
        assert_bit_identical(&combined, "elementwise/softmax/reduce");
    }
}

/// Oversubscription: more worker threads than partitionable items. Every
/// kernel must still produce the single-thread result bit-for-bit when the
/// output has fewer rows/elements than the thread count (the partitioner
/// hands some workers empty ranges).
#[test]
fn oversubscribed_threads_exceed_items() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0515);
    let a = Tensor::from_fn(&[2, 3], |_| rng.gen_range(-2.0..2.0));
    let b = Tensor::from_fn(&[3, 2], |_| rng.gen_range(-2.0..2.0));
    let sp = CsrMatrix::from_coo(3, 2, &[(0, 1, 0.5), (2, 0, -1.5), (2, 1, 0.25)]).unwrap();
    let x = Tensor::from_fn(&[2, 2], |_| rng.gen_range(-2.0..2.0));
    let src = Tensor::from_fn(&[2, 3], |_| rng.gen_range(-2.0..2.0));
    let idx = IntTensor::from_vec(&[2], vec![1, 1]).unwrap();
    let outs = at_thread_counts(|| {
        // 8 threads vs 2-3 output rows: most workers get empty ranges.
        let mut out = a.matmul(&b).unwrap().into_vec();
        out.extend(sp.spmm(&x).unwrap().into_vec());
        out.extend(src.scatter_add_rows(&idx, 2).unwrap().into_vec());
        out.extend(src.softmax_rows().unwrap().into_vec());
        out.extend(src.sum_cols().unwrap().into_vec());
        out
    });
    assert_bit_identical(&outs, "oversubscribed kernels");
}
