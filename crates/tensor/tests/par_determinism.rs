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

use gnnmark_tensor::ops::gemm::PackScope;
use gnnmark_tensor::{par, record, CsrMatrix, IntTensor, Tensor};
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

/// One element's term of the BCE loss, `(1 − y)·z + softplus(−z)`, as
/// `Tensor::bce_with_logits_mean` computes it.
fn bce_term(z: f32, y: f32) -> f32 {
    let softplus_neg = (-z).max(0.0) + (-(z.abs())).exp().ln_1p();
    (1.0 - y) * z + softplus_neg
}

/// The serial reference for `Tensor::bce_with_logits_mean`: every term
/// added into one f64 in index order. `black_box` keeps the compiler from
/// folding the empty case's `0/0` to a NaN of other bits.
fn bce_serial(z: &[f32], y: &[f32]) -> f32 {
    let (z, y) = std::hint::black_box((z, y));
    let acc = z
        .iter()
        .zip(y)
        .fold(0.0f64, |acc, (&z, &y)| acc + bce_term(z, y) as f64);
    (acc / z.len() as f64) as f32
}

/// The same terms summed in another order: one f64 partial per `chunks`
/// equal chunk, then the partials in order.
fn bce_chunk_partials(z: &[f32], y: &[f32], chunks: usize) -> f32 {
    let acc: f64 = par::even_ranges(z.len(), chunks)
        .into_iter()
        .map(|r| {
            z[r.clone()]
                .iter()
                .zip(&y[r])
                .fold(0.0f64, |part, (&z, &y)| part + bce_term(z, y) as f64)
        })
        .sum();
    (acc / z.len() as f64) as f32
}

/// The loss computes its terms a block of 64 Ki logits at a time on the
/// pool and sums them into one f64 on the caller, in index order. Its bits
/// must be the serial loop's at every thread count, around every block
/// edge and on the values where `exp` and `ln_1p` are at their limits.
#[test]
fn bce_loss_bits_equal_the_serial_loop_at_any_thread_count() {
    const BLOCK: usize = 64 * 1024;
    const EDGES: [f32; 8] = [0.0, -0.0, 1e-30, -1e-30, 20.0, -20.0, 100.0, -100.0];
    const TARGETS: [f32; 3] = [0.0, 0.5, 1.0];
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBCE);
    let mut cases: Vec<(String, Vec<f32>, Vec<f32>)> = Vec::new();
    for n in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17] {
        // Every edge logit against every target, the rest random logits.
        let z: Vec<f32> = (0..n)
            .map(|i| {
                EDGES
                    .get(i % 64)
                    .copied()
                    .unwrap_or_else(|| rng.gen_range(-8.0..8.0))
            })
            .collect();
        let y: Vec<f32> = (0..n).map(|i| TARGETS[(i / 8) % 3]).collect();
        if n > 0 {
            let mut z_nan = z.clone();
            z_nan[n - 1] = f32::NAN;
            cases.push((format!("{n} logits, last NaN"), z_nan, y.clone()));
        }
        cases.push((format!("{n} logits"), z, y));
    }
    // Order-sensitive at f32 precision. A mean of non-negative terms
    // rounds a reordered f64 sum to the same f32 almost always, so this
    // case is built to tell the orders apart: over one block (a power of
    // two, so the mean's division is exact) the terms 2^53 and 2^29 put
    // the f64 sum at 2^16 times an f32 rounding midpoint, where f64's ulp
    // is 2. Each later ln 2 term then rounds away in index order, but a
    // partial sum of them from zero does not, and tips the mean over the
    // midpoint.
    let mut z = vec![0.0f32; BLOCK];
    z[0] = 2f32.powi(53);
    z[1] = 2f32.powi(29);
    let mut y = vec![0.5f32; BLOCK];
    y[..2].fill(0.0);
    for t in [2, 4, 8] {
        assert_ne!(
            bce_chunk_partials(&z, &y, t).to_bits(),
            bce_serial(&z, &y).to_bits(),
            "the absorbing case no longer tells per-chunk partials from index order"
        );
    }
    cases.push(("one block, absorbing".to_string(), z, y));

    let tensors: Vec<(Tensor, Tensor)> = cases
        .iter()
        .map(|(_, z, y)| {
            let n = z.len();
            (
                Tensor::from_vec(&[n], z.clone()).unwrap(),
                Tensor::from_vec(&[n], y.clone()).unwrap(),
            )
        })
        .collect();
    let outs = at_thread_counts(|| {
        tensors
            .iter()
            .map(|(z, y)| z.bce_with_logits_mean(y).unwrap().item().unwrap())
            .collect()
    });
    for (t, out) in [1, 2, 4, 8].iter().zip(&outs) {
        for ((what, z, y), loss) in cases.iter().zip(out) {
            let want = bce_serial(z, y);
            assert!(
                loss.to_bits() == want.to_bits(),
                "{what} at {t} threads: {loss} ({:#x}) vs serial {want} ({:#x})",
                loss.to_bits(),
                want.to_bits()
            );
        }
    }
}

/// A recurrent backward's NT products: one weight (and one batched
/// operand) against a fresh left operand at each of `T` steps. Inside a
/// `PackScope` each is transposed once; every product must equal the
/// unscoped one, bit for bit, at every thread count.
#[test]
fn scoped_nt_reuse_equals_unscoped_products_at_any_thread_count() {
    const T: usize = 6;
    let mut rng = rand::rngs::StdRng::seed_from_u64(39);
    let mut draw = |dims: &[usize]| Tensor::from_fn(dims, |_| rng.gen_range(-2.0..2.0));
    let w = draw(&[24, 40]);
    let wb = draw(&[3, 17, 40]);
    let xs: Vec<Tensor> = (0..T).map(|_| draw(&[9, 40])).collect();
    let xbs: Vec<Tensor> = (0..T).map(|_| draw(&[3, 5, 40])).collect();
    let products = || {
        let mut out = Vec::new();
        for (x, xb) in xs.iter().zip(&xbs) {
            out.extend(x.matmul_nt(&w).unwrap().into_vec());
            out.extend(xb.bmm_nt(&wb).unwrap().into_vec());
        }
        out
    };
    let unscoped = products();
    let scoped = at_thread_counts(|| {
        let _scope = PackScope::enter();
        products()
    });
    assert_bit_identical(&scoped, "scoped NT");
    assert_bit_identical(&[unscoped, scoped[0].clone()], "scoped vs unscoped NT");
}

#[test]
fn add_assign_equals_add_at_any_thread_count() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(40);
    let x = Tensor::from_fn(&[300, 7], |_| rng.gen_range(-4.0..4.0));
    let y = Tensor::from_fn(&[300, 7], |_| rng.gen_range(-4.0..4.0));
    let want = x.add(&y).unwrap().into_vec();
    let outs = at_thread_counts(|| {
        let mut acc = Tensor::from_vec(x.dims(), x.as_slice().to_vec()).unwrap();
        acc.add_assign(&y).unwrap();
        acc.into_vec()
    });
    assert_bit_identical(&outs, "add_assign");
    assert_bit_identical(&[want, outs[0].clone()], "add_assign vs add");
}

/// `add_assign` is `add` to the modeled device: one event, the same one.
/// It writes in place only into a buffer no other handle reads.
#[test]
fn add_assign_emits_adds_event_and_copies_a_shared_buffer() {
    let x = Tensor::from_fn(&[37, 5], |i| i as f32 * 0.5 - 20.0);
    let y = Tensor::from_fn(&[37, 5], |i| 3.0 - i as f32 * 0.25);
    record::start_recording();
    let sum = x.add(&y).unwrap();
    let want = record::stop_recording();
    assert_eq!(want.len(), 1);

    let mut shared = x.clone();
    record::start_recording();
    shared.add_assign(&y).unwrap();
    assert_eq!(record::stop_recording(), want, "shared buffer");
    assert_eq!(shared.as_slice(), sum.as_slice());
    assert!(!shared.shares_storage(&x));
    let x_again = Tensor::from_fn(&[37, 5], |i| i as f32 * 0.5 - 20.0);
    assert_eq!(
        x.as_slice(),
        x_again.as_slice(),
        "the other handle keeps its values"
    );

    let mut own = x_again;
    let buf = own.as_slice().as_ptr();
    record::start_recording();
    own.add_assign(&y).unwrap();
    assert_eq!(record::stop_recording(), want, "unshared buffer");
    assert_eq!(own.as_slice(), sum.as_slice());
    assert_eq!(own.as_slice().as_ptr(), buf, "summed where it lies");

    assert!(own.add_assign(&Tensor::zeros(&[5, 37])).is_err());
}
