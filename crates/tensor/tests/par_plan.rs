//! The fork decision, pinned: which kernels `par` plans as one chunk and
//! which it sends to the pool, and that the pool survives a task panic.
//!
//! Both tests read `par::regions()`, a process-wide count, so they take one
//! lock and nothing else in this binary runs a kernel.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use gnnmark_tensor::ops::conv::Conv2dSpec;
use gnnmark_tensor::{par, IntTensor, Tensor};

static LOCK: Mutex<()> = Mutex::new(());

/// Regions that went to the pool while `f` ran.
fn pooled_regions(f: impl FnOnce()) -> u64 {
    let (before, _) = par::regions();
    f();
    par::regions().0 - before
}

#[test]
fn gnn_sized_kernels_plan_one_chunk_and_large_ones_fork() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = par::threads();

    let a = Tensor::from_fn(&[64, 128], |i| (i % 17) as f32 * 0.1 - 0.5);
    let b = Tensor::from_fn(&[128, 128], |i| (i % 13) as f32 * 0.1 - 0.4);
    let x = Tensor::from_fn(&[8192], |i| (i % 29) as f32 * 0.05);
    let src = Tensor::from_fn(&[32_768, 32], |i| (i % 23) as f32 * 0.1);
    let idx =
        IntTensor::from_vec(&[32_768], (0..32_768).map(|i| (i * 97) % 2048).collect()).unwrap();
    // A thin transposed operand: `matmul_tn` reads the `[4, 256]` matrix
    // in place, so there is one region to plan and it is tiny.
    let thin = Tensor::from_fn(&[4, 256], |i| i as f32 * 0.01);
    let rhs = Tensor::from_fn(&[4, 8], |i| i as f32 * 0.1);
    // A loss over 4 Ki logits: 16 µs of libm work, well under two grains.
    let logits = Tensor::from_fn(&[4096], |i| (i % 31) as f32 * 0.2 - 3.0);
    let labels = Tensor::from_fn(&[4096], |i| (i % 2) as f32);
    for t in [1usize, 2, 4, 8] {
        par::set_threads(t);
        for (what, pooled) in [
            (
                "64x128x128 gemm",
                pooled_regions(|| drop(a.matmul(&b).unwrap())),
            ),
            ("8 Ki add", pooled_regions(|| drop(x.add(&x).unwrap()))),
            (
                "32 Ki x 32 scatter_add",
                pooled_regions(|| drop(src.scatter_add_rows(&idx, 2048).unwrap())),
            ),
            (
                "256 x 4 x 8 matmul_tn",
                pooled_regions(|| drop(thin.matmul_tn(&rhs).unwrap())),
            ),
            (
                "4 Ki bce loss",
                pooled_regions(|| drop(logits.bce_with_logits_mean(&labels).unwrap())),
            ),
        ] {
            assert_eq!(pooled, 0, "{what} forked at {t} threads");
        }
    }

    par::set_threads(2);
    let big = Tensor::from_fn(&[384, 384], |i| (i % 17) as f32 * 0.1 - 0.5);
    assert_eq!(
        pooled_regions(|| drop(big.matmul(&big).unwrap())),
        1,
        "384^3 gemm must fork at two threads"
    );
    // STGCN at `Scale::Small`: block 2's first temporal convolution, a
    // (3, 1) kernel from 32 to 2 x 32 channels over [batch 4, 8 steps, 52
    // sensors].
    let img = Tensor::from_fn(&[4, 32, 8, 52], |i| (i % 7) as f32 * 0.1);
    let filt = Tensor::from_fn(&[64, 32, 3, 1], |i| (i % 5) as f32 * 0.1);
    assert_eq!(
        pooled_regions(|| drop(img.conv2d(&filt, Conv2dSpec::default()).unwrap())),
        1,
        "STGCN's Small convolution must fork at two threads"
    );
    // ARGA's reconstruction loss at `Scale::Small`: 677^2 logits, seven
    // blocks of at most 64 Ki terms, each of which forks.
    let recon = Tensor::from_fn(&[677, 677], |i| (i % 19) as f32 * 0.5 - 4.5);
    let adj = Tensor::from_fn(&[677, 677], |i| if i % 7 == 0 { 1.0 } else { 0.0 });
    assert_eq!(
        pooled_regions(|| drop(recon.bce_with_logits_mean(&adj).unwrap())),
        7,
        "ARGA's Small reconstruction loss must fork each block at two threads"
    );

    par::set_threads(prev);
}

/// How many of `rounds` x 8 tasks ran on a thread other than the caller.
fn tasks_on_helpers(rounds: usize) -> usize {
    let caller = std::thread::current().id();
    let on_helpers = AtomicUsize::new(0);
    for _ in 0..rounds {
        par::run(8, &|_| {
            // Long enough for a woken helper to claim a share. Opaque per
            // iteration: a plain `(0..n).sum()` folds to a constant under
            // `--release` and the caller drains all eight tasks alone.
            let mut acc = 0u64;
            for i in 0..20_000u64 {
                acc = std::hint::black_box(acc + i);
            }
            std::hint::black_box(acc);
            if std::thread::current().id() != caller {
                on_helpers.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    on_helpers.into_inner()
}

#[test]
fn a_task_panic_does_not_switch_the_pool_off() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = par::threads();
    par::set_threads(2);

    assert!(
        tasks_on_helpers(200) > 0,
        "helpers take tasks before the panic"
    );
    let caught = std::panic::catch_unwind(|| {
        par::run(8, &|i| {
            if i == 3 {
                panic!("boom");
            }
        });
    });
    assert!(
        caught.is_err(),
        "the task panic is re-raised on the submitter"
    );
    let (pooled_before, _) = par::regions();
    assert!(
        tasks_on_helpers(200) > 0,
        "helpers still take tasks after it"
    );
    assert_eq!(
        par::regions().0 - pooled_before,
        200,
        "every later region is pooled"
    );

    par::set_threads(prev);
}
