//! SIMD-lane parity: every vectorized kernel must agree with the scalar
//! reference lane within an ULP-aware tolerance, and the scalar lane
//! itself must stay byte-stable (it is the golden determinism contract
//! that `results/golden/` op-stream checks and the historic loss
//! fingerprints were recorded against).
//!
//! On hosts without SIMD support `detect()` returns `Scalar` and the
//! parity tests degrade to exact self-comparison — still valid, just
//! vacuous.

use gnnmark_tensor::simd::{self, BinOp, SimdLevel, UnOp};
use gnnmark_tensor::Tensor;
use proptest::prelude::*;

/// Relative-ish tolerance: SIMD lanes reassociate reductions and contract
/// mul+add into FMA, so results may differ by a few ULPs that scale with
/// the magnitude of the value. 1e-5 relative (floored at 1e-5 absolute)
/// comfortably covers both while still catching genuinely wrong lanes.
fn close(a: f32, b: f32) -> bool {
    if a == b {
        return true; // covers ±0 and exact agreement
    }
    if a.is_nan() && b.is_nan() {
        return true;
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= 1e-5 * scale
}

fn assert_close(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        assert!(close(x, y), "{what}[{i}]: scalar={x} simd={y}");
    }
}

/// Lengths that exercise full vector bodies, remainder lanes, and the
/// empty input.
fn lens() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        1usize..9,
        15usize..18,
        31usize..34,
        63usize..67
    ]
}

fn vecs(n: usize) -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (
        proptest::collection::vec(-100.0f32..100.0, n),
        proptest::collection::vec(-100.0f32..100.0, n),
    )
}

proptest! {
    #[test]
    fn binary_ops_match_scalar((a, b) in lens().prop_flat_map(vecs), alpha in -2.0f32..2.0) {
        let auto = simd::detect();
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Axpy(alpha),
            BinOp::MulScale(alpha),
        ] {
            let mut scalar_out = vec![0.0f32; a.len()];
            let mut simd_out = vec![0.0f32; a.len()];
            simd::binary(SimdLevel::Scalar, op, &a, &b, &mut scalar_out);
            simd::binary(auto, op, &a, &b, &mut simd_out);
            assert_close(&scalar_out, &simd_out, &format!("{op:?}"));
        }
    }

    #[test]
    fn div_matches_scalar((a, b) in lens().prop_flat_map(vecs)) {
        // Keep denominators away from zero so both lanes stay finite.
        let b: Vec<f32> = b.iter().map(|v| if v.abs() < 0.5 { 1.0 } else { *v }).collect();
        let mut scalar_out = vec![0.0f32; a.len()];
        let mut simd_out = vec![0.0f32; a.len()];
        simd::binary(SimdLevel::Scalar, BinOp::Div, &a, &b, &mut scalar_out);
        simd::binary(simd::detect(), BinOp::Div, &a, &b, &mut simd_out);
        assert_close(&scalar_out, &simd_out, "Div");
    }

    #[test]
    fn unary_ops_match_scalar((a, _) in lens().prop_flat_map(vecs), s in -3.0f32..3.0) {
        let auto = simd::detect();
        for op in [
            UnOp::Relu,
            UnOp::Neg,
            UnOp::Square,
            UnOp::MulScalar(s),
            UnOp::AddScalar(s),
        ] {
            let mut scalar_out = vec![0.0f32; a.len()];
            let mut simd_out = vec![0.0f32; a.len()];
            simd::unary(SimdLevel::Scalar, op, &a, &mut scalar_out);
            simd::unary(auto, op, &a, &mut simd_out);
            assert_close(&scalar_out, &simd_out, &format!("{op:?}"));
        }
    }

    #[test]
    fn reductions_match_scalar((a, _) in lens().prop_flat_map(vecs)) {
        let auto = simd::detect();
        assert!(close(simd::vsum(SimdLevel::Scalar, &a), simd::vsum(auto, &a)), "vsum");
        // Max is associative: the lanes must agree exactly.
        assert_eq!(
            simd::vmax(SimdLevel::Scalar, &a).to_bits(),
            simd::vmax(auto, &a).to_bits(),
            "vmax"
        );
    }

    #[test]
    fn accumulate_axpy_sub2_div_match_scalar((a, b) in lens().prop_flat_map(vecs), alpha in -2.0f32..2.0) {
        let auto = simd::detect();

        let mut d0 = a.clone();
        let mut d1 = a.clone();
        simd::accumulate(SimdLevel::Scalar, &mut d0, &b);
        simd::accumulate(auto, &mut d1, &b);
        assert_close(&d0, &d1, "accumulate");

        let mut d0 = a.clone();
        let mut d1 = a.clone();
        simd::axpy(SimdLevel::Scalar, &mut d0, alpha, &b);
        simd::axpy(auto, &mut d1, alpha, &b);
        assert_close(&d0, &d1, "axpy");

        let mut o0 = vec![0.0f32; a.len()];
        let mut o1 = vec![0.0f32; a.len()];
        simd::sub2(SimdLevel::Scalar, &a, alpha, 0.75, &mut o0);
        simd::sub2(auto, &a, alpha, 0.75, &mut o1);
        assert_close(&o0, &o1, "sub2");

        let mut d0 = a.clone();
        let mut d1 = a.clone();
        simd::div_scalar(SimdLevel::Scalar, &mut d0, 3.5);
        simd::div_scalar(auto, &mut d1, 3.5);
        assert_close(&d0, &d1, "div_scalar");
    }

    #[test]
    fn gemm_panel_kernels_match_scalar(cols in 1usize..40, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let auto = simd::detect();
        let a0: [f32; 8] = std::array::from_fn(|_| rng.gen_range(-2.0f32..2.0));
        let a1: [f32; 8] = std::array::from_fn(|_| rng.gen_range(-2.0f32..2.0));
        let stride = cols + rng.gen_range(0usize..3); // padded row stride
        let b: Vec<f32> = (0..8 * stride).map(|_| rng.gen_range(-2.0f32..2.0)).collect();

        let mut s = vec![0.5f32; cols];
        let mut v = vec![0.5f32; cols];
        simd::axpy8(SimdLevel::Scalar, &mut s, &a0, &b, stride);
        simd::axpy8(auto, &mut v, &a0, &b, stride);
        assert_close(&s, &v, "axpy8");

        let (mut s0, mut s1) = (vec![0.5f32; cols], vec![0.25f32; cols]);
        let (mut v0, mut v1) = (vec![0.5f32; cols], vec![0.25f32; cols]);
        simd::axpy8x2(SimdLevel::Scalar, &mut s0, &mut s1, &a0, &a1, &b, stride);
        simd::axpy8x2(auto, &mut v0, &mut v1, &a0, &a1, &b, stride);
        assert_close(&s0, &v0, "axpy8x2 row0");
        assert_close(&s1, &v1, "axpy8x2 row1");
    }

    #[test]
    fn tensor_ops_match_across_lanes(m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::from_fn(&[m, k], |_| rng.gen_range(-2.0f32..2.0));
        let b = Tensor::from_fn(&[k, n], |_| rng.gen_range(-2.0f32..2.0));

        let scalar = simd::with_level(SimdLevel::Scalar, || {
            (a.matmul(&b).unwrap(), a.softmax_rows().unwrap(), a.relu())
        });
        let auto = simd::with_level(simd::detect(), || {
            (a.matmul(&b).unwrap(), a.softmax_rows().unwrap(), a.relu())
        });
        assert_close(scalar.0.as_slice(), auto.0.as_slice(), "matmul");
        assert_close(scalar.1.as_slice(), auto.1.as_slice(), "softmax_rows");
        // Relu is a pure comparison: lanes must agree bit-for-bit.
        assert_eq!(scalar.2.as_slice(), auto.2.as_slice(), "relu");
    }
}

/// FNV-1a over the little-endian byte rendering, matching the digest the
/// check crate uses for figure goldens.
fn fnv1a_bytes(xs: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_le_bits_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

trait LeBytes {
    fn to_le_bits_bytes(&self) -> [u8; 4];
}
impl LeBytes for f32 {
    fn to_le_bits_bytes(&self) -> [u8; 4] {
        self.to_bits().to_le_bytes()
    }
}

/// The scalar lane IS the historic kernel, expression for expression, so
/// a deterministic input must keep producing byte-identical output on
/// every platform and every future refactor. These digests were recorded
/// from the pre-SIMD kernels; a mismatch means the golden determinism
/// lane drifted and `results/golden/` / checkpoint fingerprints are no
/// longer comparable across versions.
#[test]
fn forced_scalar_lane_is_bit_stable() {
    simd::with_level(SimdLevel::Scalar, || {
        let a = Tensor::from_fn(&[32, 48], |i| {
            ((i * 2654435761) % 1000) as f32 * 0.003 - 1.5
        });
        let b = Tensor::from_fn(&[48, 24], |i| ((i * 40503) % 997) as f32 * 0.002 - 1.0);

        let gemm = a.matmul(&b).unwrap();
        let softmax = a.softmax_rows().unwrap();
        let sum = Tensor::from_vec(&[1], vec![a.as_slice().iter().sum()]).unwrap();

        // Same inputs, run twice: the lane must be deterministic.
        assert_eq!(gemm.as_slice(), a.matmul(&b).unwrap().as_slice());

        let digest = fnv1a_bytes(gemm.as_slice())
            ^ fnv1a_bytes(softmax.as_slice()).rotate_left(1)
            ^ fnv1a_bytes(sum.as_slice()).rotate_left(2);
        assert_eq!(
            digest, GOLDEN_SCALAR_DIGEST,
            "scalar-lane output drifted from the recorded golden digest"
        );
    });
}

/// Recorded from the scalar reference loops. Update ONLY when the scalar
/// lane changes on purpose (which also invalidates `results/golden/`).
const GOLDEN_SCALAR_DIGEST: u64 = 6_522_836_538_623_809_907;

/// `add_assign` runs `simd::accumulate`, `add` runs `simd::binary`: within
/// each lane the two must agree bit for bit, on every pairing of NaN, ±0,
/// ±inf, subnormals and ordinary values (121 elements: a ragged tail).
#[test]
fn add_assign_equals_add_in_the_scalar_and_auto_lanes() {
    let specials = [
        f32::NAN,
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        -f32::from_bits(0x0040_0000),
        f32::MIN_POSITIVE,
        1.5,
        -3.25,
        f32::MAX,
    ];
    let n = specials.len();
    let a = Tensor::from_fn(&[n, n], |i| specials[i / n]);
    let b = Tensor::from_fn(&[n, n], |i| specials[i % n]);
    for lvl in [SimdLevel::Scalar, simd::detect()] {
        simd::with_level(lvl, || {
            let want = a.add(&b).unwrap();
            let mut got = Tensor::from_vec(a.dims(), a.as_slice().to_vec()).unwrap();
            got.add_assign(&b).unwrap();
            for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{} lane, [{i}]: {g} vs {w}",
                    lvl.as_str()
                );
            }
        });
    }
}
