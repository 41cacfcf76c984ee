//! Reduced-precision (f16 / bf16) storage support.
//!
//! GNNMark's mixed-precision characterization stores parameters and
//! activations in 16-bit formats while computing in f32 ("convert-on-load
//! f32 compute, round-on-store"). This module provides the bit-level
//! conversions — IEEE 754 binary16 with round-to-nearest-even, and
//! bfloat16 (truncated-f32 layout, also rounded-to-nearest-even) — plus a
//! thread-local precision mode that the training loop sets so parameter
//! stores and tape activations quantize transparently.

use std::cell::Cell;

/// Numeric storage precision for parameters and activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit IEEE single precision (the default; no quantization).
    Fp32,
    /// 16-bit IEEE half precision: 5 exponent bits, 10 mantissa bits.
    Fp16,
    /// bfloat16: f32's 8 exponent bits, 7 mantissa bits.
    Bf16,
}

impl Precision {
    /// Bytes per element in this storage format.
    pub fn elem_bytes(self) -> usize {
        match self {
            Precision::Fp32 => 4,
            Precision::Fp16 | Precision::Bf16 => 2,
        }
    }

    /// Lower-case name as used by `--precision`.
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::Fp32 => "fp32",
            Precision::Fp16 => "fp16",
            Precision::Bf16 => "bf16",
        }
    }

    /// Parses a `--precision` spelling.
    pub fn parse(s: &str) -> Option<Precision> {
        match s {
            "fp32" | "f32" => Some(Precision::Fp32),
            "fp16" | "f16" | "half" => Some(Precision::Fp16),
            "bf16" | "bfloat16" => Some(Precision::Bf16),
            _ => None,
        }
    }

    /// Encodes one f32 into this format's bit pattern (low 16 bits used for
    /// the half formats; fp32 round-trips through the identity).
    pub fn encode(self, v: f32) -> u16 {
        match self {
            Precision::Fp32 => 0, // not used; fp32 params keep their Vec<f32>
            Precision::Fp16 => f32_to_f16_bits(v),
            Precision::Bf16 => f32_to_bf16_bits(v),
        }
    }

    /// Decodes one bit pattern produced by [`Precision::encode`].
    pub fn decode(self, bits: u16) -> f32 {
        match self {
            Precision::Fp32 => 0.0,
            Precision::Fp16 => f16_bits_to_f32(bits),
            Precision::Bf16 => bf16_bits_to_f32(bits),
        }
    }

    /// Rounds `v` through this storage format and back to f32. Identity for
    /// [`Precision::Fp32`]; idempotent for all formats.
    pub fn quantize(self, v: f32) -> f32 {
        match self {
            Precision::Fp32 => v,
            _ => self.decode(self.encode(v)),
        }
    }

    /// Quantizes a whole slice in place (no-op for fp32).
    pub fn quantize_slice(self, xs: &mut [f32]) {
        if self == Precision::Fp32 {
            return;
        }
        for v in xs.iter_mut() {
            *v = self.quantize(*v);
        }
    }
}

/// Right-shift with round-to-nearest-even: `v >> s`, rounding ties to even.
fn rne_shift(v: u32, s: u32) -> u32 {
    let q = v >> s;
    let rem = v & ((1u32 << s) - 1);
    let half = 1u32 << (s - 1);
    if rem > half || (rem == half && (q & 1) == 1) {
        q + 1
    } else {
        q
    }
}

/// Converts an f32 to IEEE binary16 bits with round-to-nearest-even.
pub fn f32_to_f16_bits(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN: keep NaN-ness (set a mantissa bit for NaN).
        return sign | 0x7c00 | if man != 0 { 0x0200 } else { 0 };
    }
    // Unbiased exponent, then rebias for f16 (bias 15).
    let e = exp - 127 + 15;
    if e >= 0x1f {
        // Overflow → infinity.
        return sign | 0x7c00;
    }
    if e <= 0 {
        // Subnormal (or zero) in f16.
        if e < -10 {
            return sign; // Rounds to zero.
        }
        // Implicit leading 1 becomes explicit, then shift into place.
        let man = man | 0x0080_0000;
        let shift = (14 - e) as u32;
        return sign | rne_shift(man, shift) as u16;
    }
    // Normal: round the 23-bit mantissa to 10 bits. A mantissa carry
    // naturally increments the exponent (and can round up to infinity).
    let rounded = rne_shift(man, 13);
    sign | (((e as u32) << 10) + rounded) as u16
}

/// Converts IEEE binary16 bits back to f32 (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x03ff) as u32;
    if exp == 0x1f {
        // Inf / NaN.
        let bits = sign | 0x7f80_0000 | (man << 13);
        return f32::from_bits(bits);
    }
    if exp == 0 {
        if man == 0 {
            return f32::from_bits(sign);
        }
        // Subnormal: value is man * 2^-24, exactly representable in f32.
        let mag = man as f32 * (-24f32).exp2();
        return if sign != 0 { -mag } else { mag };
    }
    let bits = sign | ((exp + 127 - 15) << 23) | (man << 13);
    f32::from_bits(bits)
}

/// Converts an f32 to bfloat16 bits with round-to-nearest-even.
pub fn f32_to_bf16_bits(v: f32) -> u16 {
    let bits = v.to_bits();
    if v.is_nan() {
        // Quiet the NaN so truncation can't produce an infinity.
        return ((bits >> 16) as u16) | 0x0040;
    }
    // Round-to-nearest-even via the add-shift trick.
    let round = ((bits >> 16) & 1) + 0x7fff;
    ((bits + round) >> 16) as u16
}

/// Converts bfloat16 bits back to f32 (exact).
pub fn bf16_bits_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

thread_local! {
    static THREAD_PRECISION: Cell<Precision> = const { Cell::new(Precision::Fp32) };
}

/// Sets the storage precision for parameters/activations created on this
/// thread, returning the previous value. The training loop sets this before
/// building a workload and restores it afterwards.
pub fn set_thread_precision(p: Precision) -> Precision {
    THREAD_PRECISION.with(|c| c.replace(p))
}

/// The storage precision active on this thread (default [`Precision::Fp32`]).
pub fn thread_precision() -> Precision {
    THREAD_PRECISION.with(Cell::get)
}

/// Restores the previous thread precision on drop — use in training loops so
/// a panicking workload doesn't leak its precision onto a pooled thread.
pub struct PrecisionGuard {
    prev: Precision,
}

impl PrecisionGuard {
    /// Sets `p` as the thread precision until the guard drops.
    pub fn new(p: Precision) -> Self {
        PrecisionGuard {
            prev: set_thread_precision(p),
        }
    }
}

impl Drop for PrecisionGuard {
    fn drop(&mut self) {
        set_thread_precision(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trips_exact_values() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, 6.1035156e-5] {
            let q = Precision::Fp16.quantize(v);
            assert_eq!(q, v, "{v} should be exactly representable in f16");
        }
        assert_eq!(f32_to_f16_bits(0.0), 0);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10 → ties to even (1.0).
        let v = 1.0 + (-11f32).exp2();
        assert_eq!(Precision::Fp16.quantize(v), 1.0);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9 → ties to even (1+2^-9).
        let v = 1.0 + 3.0 * (-11f32).exp2();
        assert_eq!(Precision::Fp16.quantize(v), 1.0 + (-9f32).exp2());
    }

    #[test]
    fn f16_overflow_and_subnormals() {
        assert_eq!(Precision::Fp16.quantize(1e6), f32::INFINITY);
        assert_eq!(Precision::Fp16.quantize(-1e6), f32::NEG_INFINITY);
        assert!(Precision::Fp16.quantize(f32::NAN).is_nan());
        // Smallest f16 subnormal is 2^-24; half of it rounds to zero (ties-to-even).
        let tiny = (-24f32).exp2();
        assert_eq!(Precision::Fp16.quantize(tiny), tiny);
        assert_eq!(Precision::Fp16.quantize(tiny / 2.0), 0.0);
        assert_eq!(Precision::Fp16.quantize(tiny * 1.5), tiny * 2.0);
    }

    #[test]
    fn f16_quantize_is_idempotent() {
        for i in 0..1000 {
            let v = (i as f32 * 0.731 - 300.0).tan();
            let q = Precision::Fp16.quantize(v);
            let qq = Precision::Fp16.quantize(q);
            assert!(q == qq || (q.is_nan() && qq.is_nan()), "{v} -> {q} -> {qq}");
        }
    }

    #[test]
    fn bf16_round_trips_and_rounds() {
        for v in [0.0f32, -0.0, 1.0, -2.5, 3.0e38, 1.0e-38] {
            let q = Precision::Bf16.quantize(v);
            let rel = if v == 0.0 { 0.0 } else { ((q - v) / v).abs() };
            assert!(rel <= 1.0 / 128.0, "{v} -> {q}");
        }
        // bf16 keeps f32's exponent range: no overflow at f32::MAX.
        assert!(
            Precision::Bf16.quantize(f32::MAX).is_finite() || f32::MAX.to_bits() & 0xffff > 0x7fff
        );
        assert!(Precision::Bf16.quantize(f32::NAN).is_nan());
        // Idempotent.
        for i in 0..1000 {
            let v = (i as f32 * 1.371 - 500.0).tan();
            let q = Precision::Bf16.quantize(v);
            let qq = Precision::Bf16.quantize(q);
            assert!(q == qq || (q.is_nan() && qq.is_nan()));
        }
    }

    #[test]
    fn f16_matches_reference_table() {
        // Spot-checked against the IEEE 754 binary16 tables.
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff);
        assert_eq!(f16_bits_to_f32(0x3555), 0.333_251_95);
        assert_eq!(f32_to_f16_bits(0.333_251_95), 0x3555);
    }

    #[test]
    fn precision_parse_and_bytes() {
        assert_eq!(Precision::parse("fp16"), Some(Precision::Fp16));
        assert_eq!(Precision::parse("bf16"), Some(Precision::Bf16));
        assert_eq!(Precision::parse("fp32"), Some(Precision::Fp32));
        assert_eq!(Precision::parse("int8"), None);
        assert_eq!(Precision::Fp16.elem_bytes(), 2);
        assert_eq!(Precision::Fp32.elem_bytes(), 4);
        assert_eq!(Precision::Bf16.as_str(), "bf16");
    }

    #[test]
    fn thread_precision_guard_restores() {
        assert_eq!(thread_precision(), Precision::Fp32);
        {
            let _g = PrecisionGuard::new(Precision::Fp16);
            assert_eq!(thread_precision(), Precision::Fp16);
        }
        assert_eq!(thread_precision(), Precision::Fp32);
    }
}
