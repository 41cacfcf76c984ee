//! Runtime-dispatched SIMD microkernels for the hot tensor loops.
//!
//! Every dense kernel in [`crate::ops`] funnels its innermost loop through
//! this module: an explicit f32x8 lane layer with two implementations,
//! AVX2+FMA (256-bit) and a scalar reference. The active lane is picked
//! **at runtime** — the binary is compiled for the baseline target, CPU
//! features are detected once, and the `GNNMARK_SIMD={auto,avx2,scalar}`
//! environment variable (or [`set_level`]) overrides the choice. A CPU
//! without AVX2+FMA, and any non-x86-64 target, runs the scalar lane.
//!
//! These are the two lanes CI executes: the golden gates pin the scalar
//! lane, and `auto` is AVX2 on every x86-64 runner. A lane for another
//! instruction set comes with a CI runner that executes it.
//!
//! # Determinism contract: two lanes
//!
//! * **Scalar lane** ([`SimdLevel::Scalar`]): the reference loops are the
//!   exact expressions the pre-SIMD kernels used, so results are
//!   *byte-identical* to historical runs at every thread count. Golden
//!   snapshots and the bit-exact determinism tests run in this lane.
//! * **AVX2 lane** ([`SimdLevel::Avx2`]): multiply-adds contract with FMA
//!   and the reductions use multiple accumulators, so results differ from
//!   the scalar lane in final ULPs. The lane is still fully deterministic
//!   and — like the scalar kernels — accumulates every output element in a
//!   fixed k-order, so results remain bit-identical at every *thread*
//!   count. AVX2-vs-scalar agreement is verified by tolerance proptests
//!   (`tests/simd_parity.rs`).
//!
//! Thread composition: the `par` pool partitions rows/chunks, each worker
//! then runs these lane kernels, so threads × lanes multiply. Kernels accept
//! the level as an argument — callers resolve [`level`] once *on the
//! requesting thread* (so a thread-local override set by a test or by the
//! verification gate is honored) and capture it into the parallel closure.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set lane the microkernels execute with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Reference Rust loops — byte-identical to the pre-SIMD kernels.
    Scalar,
    /// 256-bit AVX2 lanes with FMA contraction (requires `avx2` + `fma`).
    Avx2,
}

impl SimdLevel {
    /// Lower-case name, matching the `GNNMARK_SIMD` spellings.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// 0 = not yet initialized from the environment.
static LEVEL: AtomicU8 = AtomicU8::new(0);

thread_local! {
    static LEVEL_OVERRIDE: Cell<Option<SimdLevel>> = const { Cell::new(None) };
}

fn encode(l: SimdLevel) -> u8 {
    match l {
        SimdLevel::Scalar => 1,
        SimdLevel::Avx2 => 2,
    }
}

fn decode(v: u8) -> Option<SimdLevel> {
    match v {
        1 => Some(SimdLevel::Scalar),
        2 => Some(SimdLevel::Avx2),
        _ => None,
    }
}

/// The widest lane the running CPU supports: AVX2 on an x86-64 CPU with
/// AVX2 and FMA, else scalar.
pub fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        return SimdLevel::Avx2;
    }
    SimdLevel::Scalar
}

/// Clamps a requested level to what the CPU actually supports: a request
/// for AVX2 gets the detected lane.
fn clamp_supported(requested: SimdLevel) -> SimdLevel {
    match requested {
        SimdLevel::Scalar => SimdLevel::Scalar,
        SimdLevel::Avx2 => detect(),
    }
}

fn level_from_env() -> SimdLevel {
    match std::env::var("GNNMARK_SIMD").as_deref() {
        Ok("scalar") => SimdLevel::Scalar,
        // "auto", "avx2", unset, or unrecognized: detect (which is what
        // `avx2` clamps to).
        _ => detect(),
    }
}

/// The active SIMD level: a thread-local override (see [`with_level`]) if
/// one is set, else the process-wide setting (initialized lazily from
/// `GNNMARK_SIMD` / CPU detection).
pub fn level() -> SimdLevel {
    if let Some(l) = LEVEL_OVERRIDE.with(Cell::get) {
        return l;
    }
    match decode(LEVEL.load(Ordering::Relaxed)) {
        Some(l) => l,
        None => {
            let l = level_from_env();
            LEVEL.store(encode(l), Ordering::Relaxed);
            l
        }
    }
}

/// Sets the process-wide SIMD level (clamped to what the CPU supports).
/// Returns the level actually installed.
pub fn set_level(requested: SimdLevel) -> SimdLevel {
    let l = clamp_supported(requested);
    LEVEL.store(encode(l), Ordering::Relaxed);
    l
}

/// Runs `f` with a *thread-local* SIMD level override (clamped to what the
/// CPU supports), restoring the previous override afterwards — including on
/// panic. Kernels dispatched from this thread (even when their inner loops
/// run on pool workers — callers resolve the level before forking) use the
/// override; other threads are unaffected, so concurrently running tests
/// don't interfere.
pub fn with_level<R>(requested: SimdLevel, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SimdLevel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LEVEL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = LEVEL_OVERRIDE.with(|c| c.replace(Some(clamp_supported(requested))));
    let _restore = Restore(prev);
    f()
}

/// Element-wise binary kernels with a dedicated SIMD path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `a + alpha * b`
    Axpy(f32),
    /// `a * b * s` (dropout mask-and-rescale)
    MulScale(f32),
}

/// Element-wise unary kernels with a dedicated SIMD path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnOp {
    /// `max(x, 0)`
    Relu,
    /// `-x`
    Neg,
    /// `x * x`
    Square,
    /// `x * s`
    MulScalar(f32),
    /// `x + s`
    AddScalar(f32),
}

// ---------------------------------------------------------------------------
// Scalar reference lane. These loops ARE the determinism contract: they must
// stay expression-for-expression identical to the historical kernels.
// ---------------------------------------------------------------------------

mod scalar {
    use std::ops::Range;

    use super::{BinOp, UnOp};

    pub fn binary(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
        match op {
            BinOp::Add => each(a, b, out, |x, y| x + y),
            BinOp::Sub => each(a, b, out, |x, y| x - y),
            BinOp::Mul => each(a, b, out, |x, y| x * y),
            BinOp::Div => each(a, b, out, |x, y| x / y),
            BinOp::Axpy(alpha) => each(a, b, out, move |x, y| x + alpha * y),
            BinOp::MulScale(s) => each(a, b, out, move |x, y| x * y * s),
        }
    }

    #[inline]
    fn each(a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = f(x, y);
        }
    }

    pub fn unary(op: UnOp, src: &[f32], out: &mut [f32]) {
        match op {
            UnOp::Relu => each1(src, out, |x| x.max(0.0)),
            UnOp::Neg => each1(src, out, |x| -x),
            UnOp::Square => each1(src, out, |x| x * x),
            UnOp::MulScalar(s) => each1(src, out, move |x| x * s),
            UnOp::AddScalar(s) => each1(src, out, move |x| x + s),
        }
    }

    #[inline]
    fn each1(src: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
        for (o, &x) in out.iter_mut().zip(src) {
            *o = f(x);
        }
    }

    pub fn accumulate(dst: &mut [f32], src: &[f32]) {
        for (o, &x) in dst.iter_mut().zip(src) {
            *o += x;
        }
    }

    pub fn axpy(dst: &mut [f32], alpha: f32, src: &[f32]) {
        for (o, &s) in dst.iter_mut().zip(src) {
            *o += alpha * s;
        }
    }

    pub fn axpy8(dst: &mut [f32], a: &[f32; 8], b: &[f32], stride: usize) {
        let (b0, b1, b2, b3) = (b, &b[stride..], &b[2 * stride..], &b[3 * stride..]);
        let (b4, b5, b6, b7) = (
            &b[4 * stride..],
            &b[5 * stride..],
            &b[6 * stride..],
            &b[7 * stride..],
        );
        let (a0, a1, a2, a3) = (a[0], a[1], a[2], a[3]);
        let (a4, a5, a6, a7) = (a[4], a[5], a[6], a[7]);
        for (j, o) in dst.iter_mut().enumerate() {
            *o += a0 * b0[j]
                + a1 * b1[j]
                + a2 * b2[j]
                + a3 * b3[j]
                + a4 * b4[j]
                + a5 * b5[j]
                + a6 * b6[j]
                + a7 * b7[j];
        }
    }

    /// The body every lane of [`super::tap_sum`] runs: a strip of `STRIP`
    /// outputs is held in registers across all taps. `inline(always)` so the
    /// AVX2 wrapper compiles it with 256-bit registers; neither instance may
    /// contract or reorder, so they agree bit for bit.
    #[inline(always)]
    pub fn tap_sum(dst: &mut [f32], weights: &[f32], offsets: &[usize], src: &[f32]) {
        const STRIP: usize = 32;
        let mut base = 0;
        let mut strips = dst.chunks_exact_mut(STRIP);
        for strip in &mut strips {
            let mut acc = [0.0f32; STRIP];
            for (&wt, &off) in weights.iter().zip(offsets) {
                let x: &[f32; STRIP] = src[off + base..][..STRIP].try_into().unwrap();
                for (a, &xv) in acc.iter_mut().zip(x) {
                    *a += wt * xv;
                }
            }
            strip.copy_from_slice(&acc);
            base += STRIP;
        }
        let tail = strips.into_remainder();
        if tail.is_empty() {
            return;
        }
        let mut acc = [0.0f32; STRIP];
        let acc = &mut acc[..tail.len()];
        for (&wt, &off) in weights.iter().zip(offsets) {
            for (a, &xv) in acc.iter_mut().zip(&src[off + base..]) {
                *a += wt * xv;
            }
        }
        tail.copy_from_slice(acc);
    }

    /// Cache-blocked: 32 × 32 tiles keep the strided reads of one tile in
    /// L1 while its destination rows are written.
    pub fn transpose(src: &[f32], rows: usize, stride: usize, cols: Range<usize>, dst: &mut [f32]) {
        const T: usize = 32;
        for c0 in cols.clone().step_by(T) {
            let c1 = (c0 + T).min(cols.end);
            for r0 in (0..rows).step_by(T) {
                let r1 = (r0 + T).min(rows);
                for c in c0..c1 {
                    let drow = &mut dst[(c - cols.start) * rows..][..rows];
                    for r in r0..r1 {
                        drow[r] = src[r * stride + c];
                    }
                }
            }
        }
    }

    pub fn vsum(xs: &[f32]) -> f32 {
        xs.iter().sum()
    }

    pub fn vmax(xs: &[f32]) -> f32 {
        xs.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    pub fn div_scalar(inout: &mut [f32], denom: f32) {
        for o in inout.iter_mut() {
            *o /= denom;
        }
    }

    pub fn sub2(src: &[f32], s1: f32, s2: f32, out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(src) {
            *o = v - s1 - s2;
        }
    }
}

// ---------------------------------------------------------------------------
// x86-64 AVX2+FMA (runtime-detected).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    #![allow(unsafe_op_in_unsafe_fn)]

    use super::{BinOp, UnOp};
    use std::arch::x86_64::*;
    use std::ops::Range;

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn binary_avx2(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
        let n = out.len();
        let mut j = 0;
        macro_rules! lanes {
            ($combine:expr, $tail:expr) => {{
                while j + 8 <= n {
                    let x = _mm256_loadu_ps(a.as_ptr().add(j));
                    let y = _mm256_loadu_ps(b.as_ptr().add(j));
                    _mm256_storeu_ps(out.as_mut_ptr().add(j), $combine(x, y));
                    j += 8;
                }
                while j < n {
                    out[j] = $tail(a[j], b[j]);
                    j += 1;
                }
            }};
        }
        match op {
            BinOp::Add => lanes!(|x, y| _mm256_add_ps(x, y), |x: f32, y: f32| x + y),
            BinOp::Sub => lanes!(|x, y| _mm256_sub_ps(x, y), |x: f32, y: f32| x - y),
            BinOp::Mul => lanes!(|x, y| _mm256_mul_ps(x, y), |x: f32, y: f32| x * y),
            BinOp::Div => lanes!(|x, y| _mm256_div_ps(x, y), |x: f32, y: f32| x / y),
            BinOp::Axpy(alpha) => {
                let va = _mm256_set1_ps(alpha);
                lanes!(|x, y| _mm256_fmadd_ps(va, y, x), |x: f32, y: f32| alpha
                    .mul_add(y, x))
            }
            BinOp::MulScale(s) => {
                let vs = _mm256_set1_ps(s);
                lanes!(
                    |x, y| _mm256_mul_ps(_mm256_mul_ps(x, y), vs),
                    |x: f32, y: f32| x * y * s
                )
            }
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn unary_avx2(op: UnOp, src: &[f32], out: &mut [f32]) {
        let n = out.len();
        let mut j = 0;
        macro_rules! lanes {
            ($map:expr, $tail:expr) => {{
                while j + 8 <= n {
                    let x = _mm256_loadu_ps(src.as_ptr().add(j));
                    _mm256_storeu_ps(out.as_mut_ptr().add(j), $map(x));
                    j += 8;
                }
                while j < n {
                    out[j] = $tail(src[j]);
                    j += 1;
                }
            }};
        }
        match op {
            UnOp::Relu => {
                let z = _mm256_setzero_ps();
                lanes!(|x| _mm256_max_ps(x, z), |x: f32| x.max(0.0))
            }
            UnOp::Neg => {
                let sign = _mm256_set1_ps(-0.0);
                lanes!(|x| _mm256_xor_ps(x, sign), |x: f32| -x)
            }
            UnOp::Square => lanes!(|x| _mm256_mul_ps(x, x), |x: f32| x * x),
            UnOp::MulScalar(s) => {
                let vs = _mm256_set1_ps(s);
                lanes!(|x| _mm256_mul_ps(x, vs), |x: f32| x * s)
            }
            UnOp::AddScalar(s) => {
                let vs = _mm256_set1_ps(s);
                lanes!(|x| _mm256_add_ps(x, vs), |x: f32| x + s)
            }
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn accumulate_avx2(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let mut j = 0;
        while j + 8 <= n {
            let d = _mm256_loadu_ps(dst.as_ptr().add(j));
            let s = _mm256_loadu_ps(src.as_ptr().add(j));
            _mm256_storeu_ps(dst.as_mut_ptr().add(j), _mm256_add_ps(d, s));
            j += 8;
        }
        while j < n {
            dst[j] += src[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy_avx2(dst: &mut [f32], alpha: f32, src: &[f32]) {
        let n = dst.len();
        let va = _mm256_set1_ps(alpha);
        let mut j = 0;
        while j + 16 <= n {
            let d0 = _mm256_loadu_ps(dst.as_ptr().add(j));
            let d1 = _mm256_loadu_ps(dst.as_ptr().add(j + 8));
            let s0 = _mm256_loadu_ps(src.as_ptr().add(j));
            let s1 = _mm256_loadu_ps(src.as_ptr().add(j + 8));
            _mm256_storeu_ps(dst.as_mut_ptr().add(j), _mm256_fmadd_ps(va, s0, d0));
            _mm256_storeu_ps(dst.as_mut_ptr().add(j + 8), _mm256_fmadd_ps(va, s1, d1));
            j += 16;
        }
        while j + 8 <= n {
            let d = _mm256_loadu_ps(dst.as_ptr().add(j));
            let s = _mm256_loadu_ps(src.as_ptr().add(j));
            _mm256_storeu_ps(dst.as_mut_ptr().add(j), _mm256_fmadd_ps(va, s, d));
            j += 8;
        }
        while j < n {
            dst[j] = alpha.mul_add(src[j], dst[j]);
            j += 1;
        }
    }

    /// Two-row variant of [`axpy8_avx2`]: updates two independent output
    /// rows against the same 8-row B panel, so each B lane is loaded once
    /// and FMA'd twice. Per-element accumulation order is identical to two
    /// sequential single-row updates (the rows never mix).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy8x2_avx2(
        dst0: &mut [f32],
        dst1: &mut [f32],
        a0: &[f32; 8],
        a1: &[f32; 8],
        b: &[f32],
        stride: usize,
    ) {
        let n = dst0.len();
        debug_assert_eq!(dst1.len(), n);
        let bp = b.as_ptr();
        let mut j = 0;
        while j + 8 <= n {
            let mut c0 = _mm256_loadu_ps(dst0.as_ptr().add(j));
            let mut c1 = _mm256_loadu_ps(dst1.as_ptr().add(j));
            macro_rules! step {
                ($r:expr) => {{
                    let bv = _mm256_loadu_ps(bp.add($r * stride + j));
                    c0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[$r]), bv, c0);
                    c1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[$r]), bv, c1);
                }};
            }
            step!(0);
            step!(1);
            step!(2);
            step!(3);
            step!(4);
            step!(5);
            step!(6);
            step!(7);
            _mm256_storeu_ps(dst0.as_mut_ptr().add(j), c0);
            _mm256_storeu_ps(dst1.as_mut_ptr().add(j), c1);
            j += 8;
        }
        while j < n {
            let mut c0 = dst0[j];
            let mut c1 = dst1[j];
            for r in 0..8 {
                let bv = b[r * stride + j];
                c0 = a0[r].mul_add(bv, c0);
                c1 = a1[r].mul_add(bv, c1);
            }
            dst0[j] = c0;
            dst1[j] = c1;
            j += 1;
        }
    }

    /// `dst[j] += Σ_r a[r]·b[r·stride + j]`, FMA'd in fixed r-order per
    /// element — the 8-deep GEMM panel update.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy8_avx2(dst: &mut [f32], a: &[f32; 8], b: &[f32], stride: usize) {
        let n = dst.len();
        let va: [__m256; 8] = std::array::from_fn(|r| _mm256_set1_ps(a[r]));
        let bp = b.as_ptr();
        let mut j = 0;
        while j + 16 <= n {
            let mut c0 = _mm256_loadu_ps(dst.as_ptr().add(j));
            let mut c1 = _mm256_loadu_ps(dst.as_ptr().add(j + 8));
            macro_rules! step {
                ($r:expr) => {{
                    let row = bp.add($r * stride + j);
                    c0 = _mm256_fmadd_ps(va[$r], _mm256_loadu_ps(row), c0);
                    c1 = _mm256_fmadd_ps(va[$r], _mm256_loadu_ps(row.add(8)), c1);
                }};
            }
            step!(0);
            step!(1);
            step!(2);
            step!(3);
            step!(4);
            step!(5);
            step!(6);
            step!(7);
            _mm256_storeu_ps(dst.as_mut_ptr().add(j), c0);
            _mm256_storeu_ps(dst.as_mut_ptr().add(j + 8), c1);
            j += 16;
        }
        while j + 8 <= n {
            let mut c = _mm256_loadu_ps(dst.as_ptr().add(j));
            macro_rules! step {
                ($r:expr) => {
                    c = _mm256_fmadd_ps(va[$r], _mm256_loadu_ps(bp.add($r * stride + j)), c)
                };
            }
            step!(0);
            step!(1);
            step!(2);
            step!(3);
            step!(4);
            step!(5);
            step!(6);
            step!(7);
            _mm256_storeu_ps(dst.as_mut_ptr().add(j), c);
            j += 8;
        }
        while j < n {
            let mut c = dst[j];
            for r in 0..8 {
                c = a[r].mul_add(b[r * stride + j], c);
            }
            dst[j] = c;
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn vsum_avx2(xs: &[f32]) -> f32 {
        let n = xs.len();
        let mut j = 0;
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        while j + 32 <= n {
            a0 = _mm256_add_ps(a0, _mm256_loadu_ps(xs.as_ptr().add(j)));
            a1 = _mm256_add_ps(a1, _mm256_loadu_ps(xs.as_ptr().add(j + 8)));
            a2 = _mm256_add_ps(a2, _mm256_loadu_ps(xs.as_ptr().add(j + 16)));
            a3 = _mm256_add_ps(a3, _mm256_loadu_ps(xs.as_ptr().add(j + 24)));
            j += 32;
        }
        while j + 8 <= n {
            a0 = _mm256_add_ps(a0, _mm256_loadu_ps(xs.as_ptr().add(j)));
            j += 8;
        }
        let mut acc = hsum256(_mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3)));
        while j < n {
            acc += xs[j];
            j += 1;
        }
        acc
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn vmax_avx2(xs: &[f32]) -> f32 {
        let n = xs.len();
        let mut j = 0;
        let mut m = f32::NEG_INFINITY;
        if n >= 8 {
            let mut vm = _mm256_set1_ps(f32::NEG_INFINITY);
            while j + 8 <= n {
                vm = _mm256_max_ps(vm, _mm256_loadu_ps(xs.as_ptr().add(j)));
                j += 8;
            }
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), vm);
            for &l in &lanes {
                m = m.max(l);
            }
        }
        while j < n {
            m = m.max(xs[j]);
            j += 1;
        }
        m
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn div_scalar_avx2(inout: &mut [f32], denom: f32) {
        let n = inout.len();
        let vd = _mm256_set1_ps(denom);
        let mut j = 0;
        while j + 8 <= n {
            let x = _mm256_loadu_ps(inout.as_ptr().add(j));
            _mm256_storeu_ps(inout.as_mut_ptr().add(j), _mm256_div_ps(x, vd));
            j += 8;
        }
        while j < n {
            inout[j] /= denom;
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sub2_avx2(src: &[f32], s1: f32, s2: f32, out: &mut [f32]) {
        let n = out.len();
        let v1 = _mm256_set1_ps(s1);
        let v2 = _mm256_set1_ps(s2);
        let mut j = 0;
        while j + 8 <= n {
            let x = _mm256_loadu_ps(src.as_ptr().add(j));
            _mm256_storeu_ps(
                out.as_mut_ptr().add(j),
                _mm256_sub_ps(_mm256_sub_ps(x, v1), v2),
            );
            j += 8;
        }
        while j < n {
            out[j] = src[j] - s1 - s2;
            j += 1;
        }
    }

    /// 8 × 8 blocks transposed in registers (unpack / shuffle / 128-bit
    /// permute), walked in 32-column bands so a band's source lines are
    /// used whole before they leave L1; the ragged right and bottom strips
    /// (fewer than 8 wide) take the plain loop. A pure permutation: bits
    /// move, none change.
    ///
    /// # Safety
    /// Requires `avx2`; `src` must hold `(rows - 1) * stride + cols.end`
    /// elements and `dst` `cols.len() * rows` (checked by
    /// [`super::transpose`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn transpose_avx2(
        src: &[f32],
        rows: usize,
        stride: usize,
        cols: Range<usize>,
        dst: &mut [f32],
    ) {
        const BAND: usize = 32;
        let rows8 = rows & !7;
        let cols8 = cols.start + (cols.len() & !7);
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        for c0 in (cols.start..cols8).step_by(BAND) {
            let c1 = (c0 + BAND).min(cols8);
            for r0 in (0..rows8).step_by(8) {
                for c in (c0..c1).step_by(8) {
                    let s = sp.add(r0 * stride + c);
                    let r: [__m256; 8] =
                        std::array::from_fn(|i| _mm256_loadu_ps(s.add(i * stride)));
                    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
                    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
                    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
                    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
                    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
                    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
                    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
                    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
                    let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
                    let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
                    let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
                    let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
                    let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
                    let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
                    let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
                    let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
                    let d = dp.add((c - cols.start) * rows + r0);
                    _mm256_storeu_ps(d, _mm256_permute2f128_ps::<0x20>(u0, u4));
                    _mm256_storeu_ps(d.add(rows), _mm256_permute2f128_ps::<0x20>(u1, u5));
                    _mm256_storeu_ps(d.add(2 * rows), _mm256_permute2f128_ps::<0x20>(u2, u6));
                    _mm256_storeu_ps(d.add(3 * rows), _mm256_permute2f128_ps::<0x20>(u3, u7));
                    _mm256_storeu_ps(d.add(4 * rows), _mm256_permute2f128_ps::<0x31>(u0, u4));
                    _mm256_storeu_ps(d.add(5 * rows), _mm256_permute2f128_ps::<0x31>(u1, u5));
                    _mm256_storeu_ps(d.add(6 * rows), _mm256_permute2f128_ps::<0x31>(u2, u6));
                    _mm256_storeu_ps(d.add(7 * rows), _mm256_permute2f128_ps::<0x31>(u3, u7));
                }
            }
        }
        for c in cols.clone() {
            let edge = if c < cols8 { rows8 } else { 0 };
            for r in edge..rows {
                dst[(c - cols.start) * rows + r] = src[r * stride + c];
            }
        }
    }

    /// [`super::scalar::tap_sum`] compiled for 256-bit registers. `fma` is
    /// deliberately not enabled: nothing here may contract.
    #[target_feature(enable = "avx2")]
    pub unsafe fn tap_sum_avx2(dst: &mut [f32], weights: &[f32], offsets: &[usize], src: &[f32]) {
        super::scalar::tap_sum(dst, weights, offsets, src)
    }

    /// Horizontal sum of one 256-bit register in fixed lane order.
    #[inline]
    unsafe fn hsum256(v: __m256) -> f32 {
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), v);
        let lo = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
        let hi = ((lanes[4] + lanes[5]) + lanes[6]) + lanes[7];
        lo + hi
    }
}

// ---------------------------------------------------------------------------
// Public dispatchers. Callers resolve `level()` once on the requesting
// thread and pass it down, so pool workers inherit the caller's lane.
// ---------------------------------------------------------------------------

/// Element-wise `out[i] = op(a[i], b[i])`.
pub fn binary(lvl: SimdLevel, op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert!(a.len() >= out.len() && b.len() >= out.len());
    match lvl {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::binary_avx2(op, a, b, out) },
        _ => scalar::binary(op, a, b, out),
    }
}

/// Element-wise `out[i] = op(src[i])`.
pub fn unary(lvl: SimdLevel, op: UnOp, src: &[f32], out: &mut [f32]) {
    debug_assert!(src.len() >= out.len());
    match lvl {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::unary_avx2(op, src, out) },
        _ => scalar::unary(op, src, out),
    }
}

/// `dst[i] += src[i]`.
pub fn accumulate(lvl: SimdLevel, dst: &mut [f32], src: &[f32]) {
    debug_assert!(src.len() >= dst.len());
    match lvl {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::accumulate_avx2(dst, src) },
        _ => scalar::accumulate(dst, src),
    }
}

/// `dst[i] += alpha * src[i]` (the SpMM row-accumulation inner loop).
pub fn axpy(lvl: SimdLevel, dst: &mut [f32], alpha: f32, src: &[f32]) {
    debug_assert!(src.len() >= dst.len());
    match lvl {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::axpy_avx2(dst, alpha, src) },
        _ => scalar::axpy(dst, alpha, src),
    }
}

/// The 8-deep GEMM panel update: `dst[j] += Σ_{r<8} a[r] · b[r·stride + j]`.
///
/// `b` must hold at least `7*stride + dst.len()` elements. Per output
/// element the accumulation order depends only on `r`, never on how rows
/// were partitioned across threads.
pub fn axpy8(lvl: SimdLevel, dst: &mut [f32], a: &[f32; 8], b: &[f32], stride: usize) {
    debug_assert!(b.len() >= 7 * stride + dst.len());
    match lvl {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::axpy8_avx2(dst, a, b, stride) },
        _ => scalar::axpy8(dst, a, b, stride),
    }
}

/// Two-row GEMM panel update: like two [`axpy8`] calls on independent
/// output rows, but the AVX2 lane loads each B lane once and FMAs it into
/// both rows. Results are element-for-element identical to the two
/// single-row calls within every lane.
#[allow(clippy::too_many_arguments)]
pub fn axpy8x2(
    lvl: SimdLevel,
    dst0: &mut [f32],
    dst1: &mut [f32],
    a0: &[f32; 8],
    a1: &[f32; 8],
    b: &[f32],
    stride: usize,
) {
    debug_assert!(b.len() >= 7 * stride + dst0.len().max(dst1.len()));
    match lvl {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::axpy8x2_avx2(dst0, dst1, a0, a1, b, stride) },
        _ => {
            axpy8(lvl, dst0, a0, b, stride);
            axpy8(lvl, dst1, a1, b, stride);
        }
    }
}

/// A sum of weighted, shifted windows of `src`, the direct convolution's
/// inner loop: `dst[j] = Σ_t weights[t] · src[offsets[t] + j]`, summed from
/// `0.0` in `t` order with a separate multiply and add per tap. Both lanes
/// run the same loop — a strip of 32 outputs stays in registers across all
/// taps — so they agree exactly; AVX2 only widens the registers.
///
/// # Panics
/// Panics if a window `offsets[t] .. offsets[t] + dst.len()` leaves `src`.
pub fn tap_sum(lvl: SimdLevel, dst: &mut [f32], weights: &[f32], offsets: &[usize], src: &[f32]) {
    debug_assert_eq!(weights.len(), offsets.len());
    match lvl {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the level is only ever `Avx2` when the CPU has it; the
        // body is safe code and bounds-checks every window itself.
        SimdLevel::Avx2 => unsafe { x86::tap_sum_avx2(dst, weights, offsets, src) },
        _ => scalar::tap_sum(dst, weights, offsets, src),
    }
}

/// Transposes columns `cols` of a row-major `rows × stride` matrix into
/// `dst` (`cols.len() × rows`, row-major): `dst[(c - cols.start) * rows + r]
/// = src[r * stride + c]`. The pack step of the NT GEMM layouts and
/// `transpose2d`. Both lanes move the same bits, so they agree exactly;
/// AVX2 transposes 8 × 8 blocks in registers, the scalar lane runs the
/// cache-blocked loop.
///
/// # Panics
/// Panics if `src` or `dst` is too short for the shape.
pub fn transpose(
    lvl: SimdLevel,
    src: &[f32],
    rows: usize,
    stride: usize,
    cols: Range<usize>,
    dst: &mut [f32],
) {
    assert!(
        cols.start <= cols.end && cols.end <= stride,
        "columns outside the row"
    );
    assert!(
        rows == 0 || src.len() >= (rows - 1) * stride + cols.end,
        "source shorter than rows × stride"
    );
    assert!(dst.len() >= cols.len() * rows, "destination too short");
    match lvl {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the level is only ever `Avx2` when the CPU has it
        // (`clamp_supported`), and the lengths were checked above.
        SimdLevel::Avx2 => unsafe { x86::transpose_avx2(src, rows, stride, cols, dst) },
        _ => scalar::transpose(src, rows, stride, cols, dst),
    }
}

/// Sum of all elements. Scalar lane: sequential left-to-right; AVX2 lane:
/// multi-accumulator (deterministic but reassociated).
pub fn vsum(lvl: SimdLevel, xs: &[f32]) -> f32 {
    match lvl {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::vsum_avx2(xs) },
        _ => scalar::vsum(xs),
    }
}

/// Maximum element (`-inf` when empty). Max is associative, so both lanes
/// agree on NaN-free inputs.
pub fn vmax(lvl: SimdLevel, xs: &[f32]) -> f32 {
    match lvl {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::vmax_avx2(xs) },
        _ => scalar::vmax(xs),
    }
}

/// `inout[i] /= denom` (softmax normalization).
pub fn div_scalar(lvl: SimdLevel, inout: &mut [f32], denom: f32) {
    match lvl {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::div_scalar_avx2(inout, denom) },
        _ => scalar::div_scalar(inout, denom),
    }
}

/// `out[i] = src[i] - s1 - s2` (the log-softmax shift).
pub fn sub2(lvl: SimdLevel, src: &[f32], s1: f32, s2: f32, out: &mut [f32]) {
    debug_assert!(src.len() >= out.len());
    match lvl {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::sub2_avx2(src, s1, s2, out) },
        _ => scalar::sub2(src, s1, s2, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize, salt: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.37 + salt).sin() * 3.0)
            .collect()
    }

    #[test]
    fn binary_lanes_agree_with_scalar() {
        for n in [0usize, 1, 3, 7, 8, 9, 31, 100] {
            let a = data(n, 0.1);
            let b: Vec<f32> = data(n, 2.2).iter().map(|v| v + 1.5).collect();
            for op in [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Axpy(0.3),
                BinOp::MulScale(1.7),
            ] {
                let mut want = vec![0.0; n];
                binary(SimdLevel::Scalar, op, &a, &b, &mut want);
                for lvl in [SimdLevel::Scalar, detect()] {
                    let mut got = vec![0.0; n];
                    binary(lvl, op, &a, &b, &mut got);
                    for (g, w) in got.iter().zip(&want) {
                        assert!(
                            (g - w).abs() <= 1e-5 * w.abs().max(1.0),
                            "{op:?} {lvl:?} n={n}: {g} vs {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reductions_agree_with_scalar() {
        for n in [0usize, 1, 5, 8, 33, 257] {
            let xs = data(n, 0.7);
            for lvl in [SimdLevel::Scalar, detect()] {
                let tol = 1e-4 * (n as f32).max(1.0).sqrt();
                assert!((vsum(lvl, &xs) - vsum(SimdLevel::Scalar, &xs)).abs() <= tol);
                assert_eq!(vmax(lvl, &xs), vmax(SimdLevel::Scalar, &xs));
            }
        }
    }

    #[test]
    fn axpy8_handles_remainders() {
        for n in [0usize, 1, 4, 7, 8, 15, 16, 17, 40] {
            let stride = n.max(1);
            let b = data(8 * stride, 0.5);
            let a: [f32; 8] = std::array::from_fn(|i| (i as f32) * 0.25 - 1.0);
            let mut want = data(n, 9.0);
            scalar::axpy8(&mut want, &a, &b, stride);
            for lvl in [SimdLevel::Scalar, detect()] {
                let mut got = data(n, 9.0);
                axpy8(lvl, &mut got, &a, &b, stride);
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g - w).abs() <= 1e-4 * w.abs().max(1.0),
                        "{lvl:?} n={n}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn with_level_overrides_and_restores() {
        let base = level();
        with_level(SimdLevel::Scalar, || {
            assert_eq!(level(), SimdLevel::Scalar);
        });
        assert_eq!(level(), base);
    }

    #[test]
    fn set_level_clamps_to_supported() {
        // `clamp_supported` is what `set_level` installs; calling
        // `set_level(Scalar)` here would switch the lane under concurrently
        // running tests.
        assert_eq!(clamp_supported(SimdLevel::Scalar), SimdLevel::Scalar);
        assert_eq!(clamp_supported(SimdLevel::Avx2), detect());
        let prev = level();
        assert_eq!(set_level(prev), prev);
    }

    #[test]
    fn env_spellings_round_trip() {
        assert_eq!(SimdLevel::Scalar.as_str(), "scalar");
        assert_eq!(SimdLevel::Avx2.as_str(), "avx2");
    }
}
