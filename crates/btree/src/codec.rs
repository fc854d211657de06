//! Order-preserving encodings for tree keys.
//!
//! The tree stores `u64` keys. iDistance ring keys are naturally integral
//! (Formula 6 of the paper floors to an integer), while QALSH hash keys are
//! real-valued; the standard sign-flip bit transform maps `f64` to `u64` so
//! that the unsigned order of the images equals the numeric order of the
//! pre-images (for all non-NaN floats, with `-0.0 < +0.0`).

/// Maps an `f64` to a `u64` whose unsigned order matches numeric order.
///
/// Negative floats have their bits inverted; non-negative floats get the
/// sign bit flipped. NaNs are rejected.
#[inline]
pub fn f64_to_key(x: f64) -> u64 {
    assert!(!x.is_nan(), "NaN cannot be used as a tree key");
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1u64 << 63)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Inverse of [`f64_to_key`]: a round trip shows the map loses no bit.
    fn key_to_f64(key: u64) -> f64 {
        if key >> 63 == 1 {
            f64::from_bits(key ^ (1u64 << 63))
        } else {
            f64::from_bits(!key)
        }
    }

    #[test]
    fn ordering_of_reference_values() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        let keys: Vec<u64> = vals.iter().map(|&v| f64_to_key(v)).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{keys:?}");
        // -0.0 and 0.0 map to adjacent but distinct keys.
        assert!(f64_to_key(-0.0) < f64_to_key(0.0));
    }

    #[test]
    fn roundtrip_reference_values() {
        for &v in &[-123.456, -0.0, 0.0, 1.0, 6.02e23, f64::MIN, f64::MAX] {
            let back = key_to_f64(f64_to_key(v));
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        f64_to_key(f64::NAN);
    }

    proptest! {
        #[test]
        fn order_preserving(a in proptest::num::f64::NORMAL, b in proptest::num::f64::NORMAL) {
            let (ka, kb) = (f64_to_key(a), f64_to_key(b));
            prop_assert_eq!(a < b, ka < kb);
            prop_assert_eq!(a == b, ka == kb);
        }

        #[test]
        fn roundtrip(a in proptest::num::f64::NORMAL) {
            prop_assert_eq!(key_to_f64(f64_to_key(a)).to_bits(), a.to_bits());
        }
    }
}
