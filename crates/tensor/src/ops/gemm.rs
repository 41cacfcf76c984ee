//! Dense matrix multiplication: GEMM and batched GEMM.
//!
//! GEMM feeds the *update* phase of every GNN layer. The paper finds that
//! GEMM + SpMM together account for only ~25 % of GNN training time — far
//! below their share in DNN training — but GEMM still posts the highest
//! per-kernel GFLOPS (mid-300s on the V100).
//!
//! All variants (NN, NT, TN, batched) execute through one cache-blocked,
//! unroll-by-8 micro-kernel ([`gemm_kernel`]). It reads its left operand
//! through row/k strides, so a transposed left operand (TN) is read where
//! it lies: the kernel only ever wants eight `a` scalars per panel. The
//! right operand it streams in rows, so a transposed right operand (NT) is
//! transposed first ([`transpose_pack`]). Row blocks run on the
//! [`crate::par`] pool; each output row is accumulated in a fixed k-order
//! by exactly one task, so results are bit-identical at every thread
//! count, and identical between a layout flag and an explicit transpose.
//!
//! While a [`PackScope`] is open on the thread — the autograd tape opens
//! one for each backward pass — the NT layouts keep each transposed right
//! operand and reuse it for every later product against the same buffer
//! at the same dims. A recurrent model reads one weight at every time
//! step, so its backward transposes that weight once instead of once per
//! step. Every product still runs and emits its event; only the host's
//! repeated pack goes.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::ops::Range;

use super::emit_sequential;
use crate::cost;
use crate::instrument::OpClass;
use crate::simd::{self, SimdLevel};
use crate::{par, pool, Result, Tensor, TensorError};

/// k-panel depth of the blocked micro-kernel: one panel of B (`KC` rows of
/// `n` floats) stays L1/L2-resident while it is swept over a row block.
const KC: usize = 256;

/// Validates a GEMM operand pair: both `rank`-dimensional, contracted
/// dimensions equal, and (for rank 3) equal batch counts. One shared
/// helper instead of the per-variant copies this file used to carry.
fn check_pair(
    op: &'static str,
    a: &Tensor,
    b: &Tensor,
    rank: usize,
    a_axis: usize,
    b_axis: usize,
) -> Result<()> {
    if a.rank() != rank || b.rank() != rank {
        return Err(TensorError::RankMismatch {
            op,
            expected: rank,
            actual: if a.rank() != rank { a.rank() } else { b.rank() },
        });
    }
    let batch_ok = rank < 3 || a.dim(0) == b.dim(0);
    if a.dim(a_axis) != b.dim(b_axis) || !batch_ok {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    Ok(())
}

/// The shared micro-kernel: `C += A·B` for the block `rows` of A's rows.
///
/// `a` is the whole left operand — `[m, k]` row-major, or `[k, m]` when
/// `a_transposed` (the TN layouts), read where it lies either way — `b` the
/// full right operand (`k × n`, row-major) and `c` the output block matching
/// `rows` (`rows.len() × n`, row-major). k advances through fixed `KC` panels
/// with an 8-deep unrolled update, so the accumulation order of every
/// output element depends only on `k` — never on how rows were partitioned
/// across threads, nor on A's layout. The 8-deep panel update and the
/// scalar k-tail both dispatch through [`crate::simd`] at `lvl` — the
/// caller resolves the level once on the requesting thread so pool workers
/// inherit it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_kernel(
    lvl: SimdLevel,
    a: &[f32],
    a_transposed: bool,
    rows: Range<usize>,
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    // One body, compiled once per layout: element `(i, kk)` of A sits at
    // `i * row + kk * col`, and the row-major instance borrows its
    // eight-scalar panels where the transposed one gathers them.
    if a_transposed {
        gemm_body::<true>(lvl, a, 1, m, rows, b, c, k, n);
    } else {
        gemm_body::<false>(lvl, a, k, 1, rows, b, c, k, n);
    }
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gemm_body<const GATHER: bool>(
    lvl: SimdLevel,
    a: &[f32],
    row: usize,
    col: usize,
    rows: Range<usize>,
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
) {
    debug_assert!(b.len() >= k * n);
    debug_assert_eq!(c.len(), rows.len() * n);
    if n == 0 {
        return;
    }
    // The eight scalars `(i, kk..kk + 8)` of one panel update.
    macro_rules! panel {
        ($buf:ident, $i:expr, $kk:expr) => {{
            let base = $i * row + $kk * col;
            if GATHER {
                $buf = std::array::from_fn(|r| a[base + r * col]);
                &$buf
            } else {
                <&[f32; 8]>::try_from(&a[base..base + 8]).unwrap()
            }
        }};
    }
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        // Pair output rows so the AVX2 lane reuses each loaded B lane for
        // two C rows; rows never mix, so every output element still
        // accumulates in pure k-order.
        let mut pairs = c.chunks_exact_mut(2 * n);
        let mut i = rows.start;
        for pair in &mut pairs {
            let (c_row0, c_row1) = pair.split_at_mut(n);
            let mut kk = k0;
            while kk + 8 <= k1 {
                let (buf0, buf1): ([f32; 8], [f32; 8]);
                let al0 = panel!(buf0, i, kk);
                let al1 = panel!(buf1, i + 1, kk);
                // Skip fully-zero a-panels (ReLU activations are sparse);
                // data-dependent, so identical at every thread count.
                let z0 = al0 == &[0.0; 8];
                let z1 = al1 == &[0.0; 8];
                let panel = &b[kk * n..(kk + 8) * n];
                match (z0, z1) {
                    (true, true) => {}
                    (false, true) => simd::axpy8(lvl, c_row0, al0, panel, n),
                    (true, false) => simd::axpy8(lvl, c_row1, al1, panel, n),
                    (false, false) => simd::axpy8x2(lvl, c_row0, c_row1, al0, al1, panel, n),
                }
                kk += 8;
            }
            while kk < k1 {
                let b_row = &b[kk * n..][..n];
                let a0 = a[i * row + kk * col];
                if a0 != 0.0 {
                    simd::axpy(lvl, c_row0, a0, b_row);
                }
                let a1 = a[(i + 1) * row + kk * col];
                if a1 != 0.0 {
                    simd::axpy(lvl, c_row1, a1, b_row);
                }
                kk += 1;
            }
            i += 2;
        }
        let c_row = pairs.into_remainder();
        if !c_row.is_empty() {
            let mut kk = k0;
            while kk + 8 <= k1 {
                let buf: [f32; 8];
                let al = panel!(buf, i, kk);
                if al != &[0.0; 8] {
                    simd::axpy8(lvl, c_row, al, &b[kk * n..(kk + 8) * n], n);
                }
                kk += 8;
            }
            while kk < k1 {
                let aik = a[i * row + kk * col];
                if aik != 0.0 {
                    simd::axpy(lvl, c_row, aik, &b[kk * n..][..n]);
                }
                kk += 1;
            }
        }
    }
}

/// Row-range partition for `rows` output rows of `k × n` MACs each.
fn gemm_row_ranges(rows: usize, k: usize, n: usize) -> Vec<Range<usize>> {
    let macs = rows.saturating_mul(k).saturating_mul(n);
    par::split(rows, macs, par::Cost::GEMM_MAC)
}

/// `out = A·B` over the pool, row-block parallel. `out` must be zeroed.
fn matmul_into(
    a: &[f32],
    a_transposed: bool,
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let lvl = simd::level();
    let ranges = gemm_row_ranges(m, k, n);
    par::for_row_ranges_mut(out, n, &ranges, |_, r, chunk| {
        gemm_kernel(lvl, a, a_transposed, r, b, chunk, m, k, n);
    });
}

/// Transpose of a row-major `rows × cols` slice into `dst` (`cols × rows`):
/// the pack step of the NT layouts, and `transpose2d`. Destination rows
/// (= source columns) are partitioned across the pool; each block goes
/// through [`simd::transpose`].
pub(crate) fn transpose_pack(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    let lvl = simd::level();
    let ranges = par::split(cols, rows * cols, par::Cost::ELEMENT);
    par::for_row_ranges_mut(dst, rows, &ranges, |_, cr, chunk| {
        simd::transpose(lvl, src, rows, cols, cr, chunk);
    });
}

/// A transposed right operand kept by the open [`PackScope`]. `src` is a
/// handle to the operand: while it is held the buffer can be neither freed
/// (so its address cannot come back as another tensor's) nor written in
/// place (a writer gets a private copy), so a match on buffer identity and
/// dims is always the same values.
struct KeptPack {
    src: Tensor,
    packed: Vec<f32>,
}

/// This thread's pack scope: how many [`PackScope`] guards are open, the
/// packs kept since the outermost one opened, and how many packs this
/// thread has built in all.
#[derive(Default)]
struct Scope {
    depth: usize,
    packs: Vec<KeptPack>,
    built: u64,
}

thread_local! {
    static SCOPE: RefCell<Scope> = RefCell::default();
}

/// While alive, [`Tensor::matmul_nt`] and [`Tensor::bmm_nt`] on this thread
/// transpose each distinct right operand once and reuse the pack: the key
/// is the operand's buffer (as [`Tensor::shares_storage`] compares it) plus
/// its dims, and the scope holds a handle to the operand so the key cannot
/// go stale. Results and emitted events are exactly those of the unscoped
/// products. A guard opened inside another shares the outer scope's packs;
/// dropping the outermost frees every pack.
///
/// The scope has no bound: it keeps one pack per distinct NT operand,
/// which is meant for one autograd backward pass (`Tape::backward` opens
/// it), not for a long-lived loop.
#[must_use = "the scope closes when the guard is dropped"]
pub struct PackScope {
    _thread_bound: PhantomData<*const ()>,
}

impl PackScope {
    /// Opens (or, if one is open, joins) this thread's pack scope.
    pub fn enter() -> PackScope {
        SCOPE.with(|s| s.borrow_mut().depth += 1);
        PackScope {
            _thread_bound: PhantomData,
        }
    }
}

impl Drop for PackScope {
    fn drop(&mut self) {
        SCOPE.with(|s| {
            let mut s = s.borrow_mut();
            s.depth -= 1;
            if s.depth == 0 {
                s.packs.clear();
            }
        });
    }
}

/// NT packs this thread has built so far, in a scope or outside one; tests
/// count them to see what a [`PackScope`] reused.
#[doc(hidden)]
pub fn packs_built() -> u64 {
    SCOPE.with(|s| s.borrow().built)
}

/// Runs `f` on the row-major transpose of `b`, which holds `batches`
/// blocks of `[n, k]` (packed: `batches` blocks of `[k, n]`). Inside a
/// [`PackScope`] the pack is looked up, or made and kept; outside one it
/// is made for this call and freed after it.
pub(crate) fn with_nt_pack<R>(
    b: &Tensor,
    batches: usize,
    n: usize,
    k: usize,
    f: impl FnOnce(&[f32]) -> R,
) -> R {
    let pack = || {
        let src = b.as_slice();
        let mut packed = pool::zeroed(batches * n * k);
        for bi in 0..batches {
            let block = bi * n * k..(bi + 1) * n * k;
            transpose_pack(&src[block.clone()], n, k, &mut packed[block]); // [n,k] → [k,n]
        }
        packed
    };
    SCOPE.with(|s| {
        let mut s = s.borrow_mut();
        if s.depth == 0 {
            s.built += 1;
            drop(s);
            return f(&pack());
        }
        let hit = s
            .packs
            .iter()
            .position(|p| p.src.shares_storage(b) && p.src.dims() == b.dims());
        let i = hit.unwrap_or_else(|| {
            s.built += 1;
            s.packs.push(KeptPack {
                src: b.clone(),
                packed: pack(),
            });
            s.packs.len() - 1
        });
        f(&s.packs[i].packed)
    })
}

impl Tensor {
    /// Matrix product of `self` (`[m, k]`) with `other` (`[k, n]`).
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank 2,
    /// or [`TensorError::ShapeMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        check_pair("matmul", self, other, 2, 1, 0)?;
        let (m, k) = (self.dim(0), self.dim(1));
        let n = other.dim(1);
        let mut out = pool::zeroed(m * n);
        matmul_into(self.as_slice(), false, other.as_slice(), &mut out, m, k, n);
        let result = Tensor::from_vec(&[m, n], out)?;

        let macs = (m * k * n) as u64;
        emit_sequential(
            OpClass::Gemm,
            "sgemm",
            2 * macs,
            cost::gemm_iops(m, k, n),
            ((m * k) + (k * n)) as u64 * 4,
            (m * n) as u64 * 4,
            (m * n) as u64,
        );
        Ok(result)
    }

    /// Matrix product with a transposed right operand:
    /// `self` (`[m, k]`) × `otherᵀ` where `other` is `[n, k]`.
    ///
    /// Real BLAS libraries provide this as a layout flag (`gemm_nt`), so no
    /// transpose kernel is *profiled* — backward passes and attention use
    /// it. Here `other` is transposed first and the product runs through
    /// the same blocked micro-kernel as [`Tensor::matmul`], so NT results
    /// are bit-identical to `matmul` against an explicitly transposed
    /// operand. Inside a [`PackScope`] (every autograd backward pass) the
    /// transpose of a given `other` is made once and reused by each later
    /// call on the same buffer and dims; the product and its event are
    /// never skipped.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
    /// on malformed operands.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor> {
        check_pair("matmul_nt", self, other, 2, 1, 1)?;
        let (m, k) = (self.dim(0), self.dim(1));
        let n = other.dim(0);
        let out = with_nt_pack(other, 1, n, k, |packed| {
            let mut out = pool::zeroed(m * n);
            matmul_into(self.as_slice(), false, packed, &mut out, m, k, n);
            out
        });
        let result = Tensor::from_vec(&[m, n], out)?;
        let macs = (m * k * n) as u64;
        emit_sequential(
            OpClass::Gemm,
            "sgemm_nt",
            2 * macs,
            cost::gemm_iops(m, k, n),
            ((m * k) + (n * k)) as u64 * 4,
            (m * n) as u64 * 4,
            (m * n) as u64,
        );
        Ok(result)
    }

    /// Matrix product with a transposed left operand:
    /// `selfᵀ` (`self` is `[k, m]`) × `other` (`[k, n]`).
    ///
    /// No pack: the shared micro-kernel reads `self` through transposed
    /// strides, in the same k-order as [`Tensor::matmul`] reads an
    /// explicitly transposed copy, so the two are bit-identical.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
    /// on malformed operands.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        check_pair("matmul_tn", self, other, 2, 0, 0)?;
        let (k, m) = (self.dim(0), self.dim(1));
        let n = other.dim(1);
        let mut out = pool::zeroed(m * n);
        matmul_into(self.as_slice(), true, other.as_slice(), &mut out, m, k, n);
        let result = Tensor::from_vec(&[m, n], out)?;
        let macs = (m * k * n) as u64;
        emit_sequential(
            OpClass::Gemm,
            "sgemm_tn",
            2 * macs,
            cost::gemm_iops(m, k, n),
            ((k * m) + (k * n)) as u64 * 4,
            (m * n) as u64 * 4,
            (m * n) as u64,
        );
        Ok(result)
    }

    /// Batched matrix product: `self` (`[b, m, k]`) × `other` (`[b, k, n]`).
    ///
    /// Emits a single GEMM event covering the whole batch, mirroring how
    /// cuBLAS batches these launches.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
    /// on malformed operands.
    pub fn bmm(&self, other: &Tensor) -> Result<Tensor> {
        check_pair("bmm", self, other, 3, 2, 1)?;
        let (b, m, k) = (self.dim(0), self.dim(1), self.dim(2));
        let n = other.dim(2);
        let mut out = pool::zeroed(b * m * n);
        bmm_into(
            self.as_slice(),
            false,
            other.as_slice(),
            &mut out,
            b,
            m,
            k,
            n,
        );
        let result = Tensor::from_vec(&[b, m, n], out)?;
        let macs = (b * m * k * n) as u64;
        emit_sequential(
            OpClass::Gemm,
            "sgemm_batched",
            2 * macs,
            cost::gemm_iops(b * m, k, n),
            (b * (m * k + k * n)) as u64 * 4,
            (b * m * n) as u64 * 4,
            (b * m * n) as u64,
        );
        Ok(result)
    }
}

/// Batched `out += A·B`: the flattened `b*m` output rows are partitioned
/// across the pool; each task dispatches per-batch segments to
/// [`gemm_kernel`]. Every batch of `a` holds `m * k` elements, as `[m, k]`
/// or — `a_transposed` — as `[k, m]`. `out` must be zeroed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bmm_into(
    a: &[f32],
    a_transposed: bool,
    bmat: &[f32],
    out: &mut [f32],
    batches: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let lvl = simd::level();
    let ranges = gemm_row_ranges(batches * m, k, n);
    par::for_row_ranges_mut(out, n, &ranges, |_, r, chunk| {
        let mut row = r.start;
        while row < r.end {
            let bi = row / m;
            let seg_end = r.end.min((bi + 1) * m);
            gemm_kernel(
                lvl,
                &a[bi * m * k..(bi + 1) * m * k],
                a_transposed,
                row - bi * m..seg_end - bi * m,
                &bmat[bi * k * n..(bi + 1) * k * n],
                &mut chunk[(row - r.start) * n..(seg_end - r.start) * n],
                m,
                k,
                n,
            );
            row = seg_end;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k) = (a.dim(0), a.dim(1));
        let n = b.dim(1);
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a.as_slice()[i * k + kk] * b.as_slice()[kk * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        let a = Tensor::randn(&[67, 129], 1.0, &mut rng);
        let b = Tensor::randn(&[129, 43], 1.0, &mut rng);
        let c = a.matmul(&b).unwrap();
        let expect = naive_matmul(&a, &b);
        for (x, y) in c.as_slice().iter().zip(&expect) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(a.matmul(&i).unwrap().as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        assert!(a.matmul(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn matmul_nt_and_tn_match_explicit_transpose() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        let a = Tensor::randn(&[5, 7], 1.0, &mut rng);
        let b = Tensor::randn(&[4, 7], 1.0, &mut rng);
        let nt = a.matmul_nt(&b).unwrap();
        let explicit = a.matmul(&b.transpose2d().unwrap()).unwrap();
        // NT routes through the same packed kernel as matmul-of-transpose,
        // so the match is exact, not approximate.
        assert_eq!(nt.as_slice(), explicit.as_slice());
        let c = Tensor::randn(&[7, 5], 1.0, &mut rng);
        let d = Tensor::randn(&[7, 3], 1.0, &mut rng);
        let tn = c.matmul_tn(&d).unwrap();
        let explicit = c.transpose2d().unwrap().matmul(&d).unwrap();
        assert_eq!(tn.as_slice(), explicit.as_slice());
        assert!(a.matmul_nt(&c).is_err());
        assert!(a.matmul_tn(&b).is_err());
    }

    #[test]
    fn transpose_pack_matches_transpose2d() {
        let t = Tensor::from_fn(&[37, 23], |i| i as f32 * 0.25);
        let mut packed = vec![0.0; 37 * 23];
        transpose_pack(t.as_slice(), 37, 23, &mut packed);
        assert_eq!(packed, t.transpose2d().unwrap().into_vec());
    }

    #[test]
    fn gemm_kernel_handles_ragged_k() {
        // k not a multiple of 8 exercises both the unrolled and scalar tails.
        for k in [1usize, 7, 8, 9, 17, 300] {
            let a = Tensor::from_fn(&[3, k], |i| (i % 11) as f32 - 5.0);
            let b = Tensor::from_fn(&[k, 5], |i| (i % 7) as f32 - 3.0);
            let c = a.matmul(&b).unwrap();
            let expect = naive_matmul(&a, &b);
            for (x, y) in c.as_slice().iter().zip(&expect) {
                assert!((x - y).abs() < 1e-3, "k={k}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn bmm_per_batch() {
        let a = Tensor::from_vec(&[2, 1, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(&[2, 2, 1], vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let c = a.bmm(&b).unwrap();
        assert_eq!(c.dims(), &[2, 1, 1]);
        assert_eq!(c.as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn gemm_event_flop_count() {
        record::start_recording();
        let a = Tensor::ones(&[4, 8]);
        let b = Tensor::ones(&[8, 2]);
        let _ = a.matmul(&b).unwrap();
        let events = record::stop_recording();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].class, OpClass::Gemm);
        assert_eq!(events[0].flops, 2 * 4 * 8 * 2);
        assert!(events[0].flops > events[0].iops, "GEMM must be fp-dominant");
    }

    use crate::instrument::OpClass;
}
