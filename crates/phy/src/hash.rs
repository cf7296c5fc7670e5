//! The crate's deterministic hashing substrate.
//!
//! Every stochastic quantity in this crate — a link's frozen shadowing
//! gain, a packet's fading draw — is a *pure function* of a seed and an
//! identity tuple, never of call order. That is what makes phy runs
//! reproducible across thread counts, replay, and incremental
//! reconstruction: the "random field" is frozen at seed time and merely
//! read thereafter.

/// One SplitMix64 scramble step.
#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a seed with up to three identity words into one well-scrambled
/// 64-bit value.
#[inline]
pub fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    mix_stream(mix_prefix(seed, a, b), c)
}

/// The part of [`mix`] that depends on `(seed, a, b)` alone, so several
/// streams of one identity pay for it once.
#[inline]
pub(crate) fn mix_prefix(seed: u64, a: u64, b: u64) -> u64 {
    let z = splitmix(seed ^ 0x1234_5678_9ABC_DEF0);
    let z = splitmix(z ^ a.wrapping_mul(0xFF51_AFD7_ED55_8CCD));
    splitmix(z ^ b.wrapping_mul(0xC4CE_B9FE_1A85_EC53))
}

/// Stream `c` of a [`mix_prefix`]: `mix(seed, a, b, c)` bit for bit.
#[inline]
pub(crate) fn mix_stream(prefix: u64, c: u64) -> u64 {
    splitmix(prefix ^ c.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// How many [`unit_open`] ticks make 1: `unit_open(bits)` is
/// `unit_ticks(bits) / UNIT_TICKS`, exactly.
pub(crate) const UNIT_TICKS: u64 = 1 << 53;

/// The integer numerator of [`unit_open`]: a uniform integer in
/// `[1, 2⁵³]` from 64 hash bits.
#[inline]
pub(crate) fn unit_ticks(bits: u64) -> u64 {
    (bits >> 11) + 1
}

/// A uniform `f64` in `(0, 1]` from 64 hash bits (never exactly zero, so
/// it is safe under `ln`).
#[inline]
pub fn unit_open(bits: u64) -> f64 {
    (unit_ticks(bits) as f64) * (1.0 / UNIT_TICKS as f64)
}

/// A standard-normal sample from two hash streams (Box–Muller), clamped
/// to `±clamp` standard deviations.
///
/// The clamp keeps the derived gains within a finite band, which is what
/// lets spatial queries bound their search radius; 3.2σ truncation
/// discards well under 0.2% of the tail mass.
#[inline]
pub fn clamped_normal(bits_a: u64, bits_b: u64, clamp: f64) -> f64 {
    let u1 = unit_open(bits_a);
    let u2 = unit_open(bits_b);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    z.clamp(-clamp, clamp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_sensitive() {
        assert_eq!(mix(1, 2, 3, 4), mix(1, 2, 3, 4));
        assert_ne!(mix(1, 2, 3, 4), mix(2, 2, 3, 4));
        assert_ne!(mix(1, 2, 3, 4), mix(1, 3, 2, 4));
        assert_ne!(mix(1, 2, 3, 4), mix(1, 2, 3, 5));
    }

    #[test]
    fn mix_is_its_prefix_then_its_stream() {
        for (seed, a, b, c) in [(1, 2, 3, 4), (0, 0, 0, 0), (u64::MAX, 7, 9, 0x5AD1)] {
            assert_eq!(mix(seed, a, b, c), mix_stream(mix_prefix(seed, a, b), c));
        }
    }

    #[test]
    fn unit_open_stays_in_half_open_interval() {
        for bits in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            let u = unit_open(bits);
            assert!(u > 0.0 && u <= 1.0, "u = {u}");
        }
    }

    #[test]
    fn clamped_normal_statistics() {
        let n = 20_000;
        let samples: Vec<f64> = (0..n)
            .map(|i| clamped_normal(mix(7, i, 0, 0), mix(7, i, 1, 0), 3.2))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|z| z * z).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
        assert!(samples.iter().all(|z| z.abs() <= 3.2));
        // The clamp actually binds somewhere in a large sample's tails.
        assert!(samples.iter().any(|z| z.abs() > 2.5));
    }
}
