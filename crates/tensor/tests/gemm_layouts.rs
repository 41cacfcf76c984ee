//! A layout flag is not a different product: `matmul_tn`, `matmul_nt`,
//! `bmm_tn` and `bmm_nt` must equal `matmul` / `bmm` against an explicitly
//! transposed operand **bit for bit**, in every lane, inline and forked.
//!
//! TN reads its left operand through strides and NT transposes its right
//! operand with `simd::transpose`; neither may touch an accumulation. The
//! shapes are the ragged ones: odd `m` (the unpaired last row), `k` on both
//! sides of the 8-deep panel and of the 256-deep `KC` block, `n` below one
//! vector, and operands with all-zero panels (which the kernel skips) and
//! `-0.0` (which it must not mistake for a reason to skip differently).
//!
//! Inside a `PackScope` the NT layouts reuse a transposed operand; the last
//! tests hold the scope's key (buffer and dims) and count the packs built.

use std::sync::Mutex;

use gnnmark_tensor::ops::gemm::{packs_built, PackScope};
use gnnmark_tensor::simd::{self, SimdLevel};
use gnnmark_tensor::{par, Tensor};

/// `par::set_threads` is process-wide; the tests here take turns.
static LOCK: Mutex<()> = Mutex::new(());

const MS: [usize; 5] = [1, 2, 5, 24, 33];
const KS: [usize; 6] = [1, 7, 8, 9, 257, 300];
const NS: [usize; 5] = [1, 3, 7, 8, 20];

/// Deterministic operand: mostly dense values, with every third 8-panel of
/// every other row all zero, and `-0.0` sprinkled through both kinds.
fn operand(rows: usize, cols: usize, salt: usize) -> Tensor {
    Tensor::from_fn(&[rows, cols], |i| {
        let (r, c) = (i / cols, i % cols);
        let h = (i * 2654435761 + salt * 40503) % 1009;
        if h % 11 == 3 {
            -0.0
        } else if r % 2 == 0 && (c / 8) % 3 == 1 {
            0.0
        } else {
            h as f32 * 0.01 - 5.0
        }
    })
}

/// Element-by-element transpose, independent of the kernels under test.
fn transposed(t: &Tensor) -> Tensor {
    let (rows, cols) = (t.dim(0), t.dim(1));
    let src = t.as_slice();
    Tensor::from_fn(&[cols, rows], |i| src[(i % rows) * cols + i / rows])
}

fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
    }
}

/// Runs `f` in the scalar lane and the detected one, each inline (every
/// shape here is far below the fork grain) and under `par::force_split` at
/// three threads (so `m >= 2` really is cut across the pool).
fn in_every_lane_and_plan(f: impl Fn(&str)) {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = par::threads();
    par::set_threads(3);
    for lvl in [SimdLevel::Scalar, simd::detect()] {
        simd::with_level(lvl, || {
            f(&format!("{} inline", lvl.as_str()));
            let (pooled_before, _) = par::regions();
            par::force_split(|| f(&format!("{} forked", lvl.as_str())));
            assert!(par::regions().0 > pooled_before, "nothing forked: vacuous");
        });
    }
    par::set_threads(prev);
}

#[test]
fn matmul_tn_and_nt_equal_matmul_of_the_explicit_transpose() {
    in_every_lane_and_plan(|how| {
        for m in MS {
            for k in KS {
                for n in NS {
                    let a = operand(m, k, 1);
                    let b = operand(k, n, 2);
                    let want = a.matmul(&b).unwrap();
                    let what = format!("{m}x{k}x{n} {how}");
                    let tn = transposed(&a).matmul_tn(&b).unwrap();
                    assert_same_bits(&tn, &want, &format!("tn {what}"));
                    let nt = a.matmul_nt(&transposed(&b)).unwrap();
                    assert_same_bits(&nt, &want, &format!("nt {what}"));
                }
            }
        }
    });
}

#[test]
fn batched_tn_and_nt_equal_bmm_of_the_explicit_transposes() {
    let stack = |ts: &[Tensor]| {
        let dims = [ts.len(), ts[0].dim(0), ts[0].dim(1)];
        let data: Vec<f32> = ts
            .iter()
            .flat_map(|t| t.as_slice().iter().copied())
            .collect();
        Tensor::from_vec(&dims, data).unwrap()
    };
    in_every_lane_and_plan(|how| {
        for (m, k, n) in [(1, 9, 3), (5, 7, 8), (3, 257, 7), (24, 8, 20)] {
            let a = [operand(m, k, 3), operand(m, k, 4)];
            let b = [operand(k, n, 5), operand(k, n, 6)];
            let want = stack(&a).bmm(&stack(&b)).unwrap();
            let what = format!("2x{m}x{k}x{n} {how}");
            let at = stack(&[transposed(&a[0]), transposed(&a[1])]);
            assert_same_bits(
                &at.bmm_tn(&stack(&b)).unwrap(),
                &want,
                &format!("bmm_tn {what}"),
            );
            let bt = stack(&[transposed(&b[0]), transposed(&b[1])]);
            assert_same_bits(
                &stack(&a).bmm_nt(&bt).unwrap(),
                &want,
                &format!("bmm_nt {what}"),
            );
        }
    });
}

#[test]
fn every_lane_transposes_to_the_same_bits() {
    // Dimensions around the 8 x 8 register block and the 32-column band,
    // whole matrices and column sub-ranges (what a forked pack hands each
    // task), with a NaN payload and a `-0.0` to prove bits move untouched.
    for rows in [1usize, 7, 8, 9, 17, 40] {
        for stride in [1usize, 5, 8, 13, 33, 70] {
            let mut src: Vec<f32> = (0..rows * stride).map(|i| i as f32 * 0.5 - 3.0).collect();
            src[0] = f32::from_bits(0x7fc0_1234);
            src[rows * stride - 1] = -0.0;
            for cols in [0..stride, stride / 3..stride - stride / 4] {
                let mut want = vec![f32::NAN; cols.len() * rows];
                for c in cols.clone() {
                    for r in 0..rows {
                        want[(c - cols.start) * rows + r] = src[r * stride + c];
                    }
                }
                for lvl in [SimdLevel::Scalar, simd::detect()] {
                    let mut got = vec![f32::NAN; cols.len() * rows];
                    simd::transpose(lvl, &src, rows, stride, cols.clone(), &mut got);
                    let same = got
                        .iter()
                        .zip(&want)
                        .all(|(g, w)| g.to_bits() == w.to_bits());
                    assert!(
                        same,
                        "{rows} x {stride} cols {cols:?} in the {} lane",
                        lvl.as_str()
                    );
                }
            }
        }
    }
}

#[test]
fn transpose2d_uses_it_at_every_plan() {
    in_every_lane_and_plan(|how| {
        for (rows, cols) in [(1, 1), (3, 40), (37, 23), (64, 9)] {
            let t = operand(rows, cols, 7);
            assert_same_bits(
                &t.transpose2d().unwrap(),
                &transposed(&t),
                &format!("{rows}x{cols} {how}"),
            );
        }
    });
}

#[test]
fn a_pack_scope_keys_by_buffer_and_dims() {
    let w = operand(6, 20, 8);
    let x = operand(5, 20, 9);
    let x_view = operand(5, 6, 10);
    let xb = operand(5, 20, 11).reshape(&[1, 5, 20]).unwrap();
    // One buffer, three dims: [6, 20], [20, 6] and [1, 6, 20].
    let w_view = w.reshape(&[20, 6]).unwrap();
    let w_batched = w.reshape(&[1, 6, 20]).unwrap();
    let want = x.matmul(&transposed(&w)).unwrap();
    let want_view = x_view.matmul(&transposed(&w_view)).unwrap();
    let want_batched = xb
        .bmm(&transposed(&w).reshape(&[1, 20, 6]).unwrap())
        .unwrap();

    let before = packs_built();
    let _scope = PackScope::enter();
    for t in 0..4 {
        assert_same_bits(&x.matmul_nt(&w).unwrap(), &want, &format!("step {t}"));
    }
    assert_eq!(packs_built() - before, 1, "the scope reuses its pack");
    assert_same_bits(
        &x_view.matmul_nt(&w_view).unwrap(),
        &want_view,
        "same buffer, other dims",
    );
    assert_same_bits(
        &xb.bmm_nt(&w_batched).unwrap(),
        &want_batched,
        "rank-3 view",
    );
    assert_same_bits(&x.matmul_nt(&w).unwrap(), &want, "after the other views");
    assert_eq!(packs_built() - before, 3, "one pack per (buffer, dims)");
}

#[test]
fn a_write_after_its_pack_reaches_the_next_product() {
    let x = operand(3, 9, 12);
    let original = operand(4, 9, 13);
    let mut w = original.clone();
    let _scope = PackScope::enter();
    let first = x.matmul_nt(&w).unwrap();
    w.as_mut_slice()[5] = 42.0;
    w.set(&[3, 8], -7.0);
    let second = x.matmul_nt(&w).unwrap();
    assert_same_bits(
        &first,
        &x.matmul(&transposed(&original)).unwrap(),
        "before the write",
    );
    assert_same_bits(
        &second,
        &x.matmul(&transposed(&w)).unwrap(),
        "after the write",
    );
    assert_eq!(
        original.as_slice()[5],
        operand(4, 9, 13).as_slice()[5],
        "the kept handle is untouched"
    );
}

#[test]
fn a_nested_scope_shares_the_outer_scopes_packs() {
    let x = operand(3, 9, 14);
    let w = operand(4, 9, 15);
    let v = operand(2, 9, 16);
    let before = packs_built();
    let _outer = PackScope::enter();
    let want = x.matmul_nt(&w).unwrap();
    {
        let _inner = PackScope::enter();
        assert_same_bits(&x.matmul_nt(&w).unwrap(), &want, "inner hit");
        let _ = x.matmul_nt(&v).unwrap();
    }
    assert_same_bits(&x.matmul_nt(&w).unwrap(), &want, "outer hit");
    let _ = x.matmul_nt(&v).unwrap();
    assert_eq!(
        packs_built() - before,
        2,
        "closing the inner scope keeps w's pack and v's, built once each"
    );
}

#[test]
fn another_thread_packs_as_if_no_scope_were_open() {
    let x = operand(3, 9, 17);
    let w = operand(4, 9, 18);
    let want = x.matmul(&transposed(&w)).unwrap();
    let _scope = PackScope::enter();
    let _ = x.matmul_nt(&w).unwrap();
    std::thread::scope(|s| {
        s.spawn(|| {
            for t in 0..3 {
                let before = packs_built();
                assert_same_bits(&x.matmul_nt(&w).unwrap(), &want, &format!("call {t}"));
                assert_eq!(
                    packs_built() - before,
                    1,
                    "no scope here: each call builds its own pack"
                );
            }
        });
    });
}
