//! Log-normal shadowing: the frozen per-link gain field.
//!
//! Large-scale fading by obstacles multiplies each link's received power
//! by a factor that is log-normally distributed across links — the
//! standard model (Rappaport): `gain_dB ~ N(0, σ²)` with σ typically
//! 4–12 dB outdoors. Crucially the factor is *frozen*: the obstacle field
//! does not change during a run, so the gain is a deterministic function
//! of the link identity and a seed, not a per-packet draw.
//!
//! Two reciprocity modes:
//!
//! * [`ShadowingMode::Reciprocal`] — `gain(u→v) = gain(v→u)`, the
//!   physical default for a static channel (reciprocity theorem);
//! * [`ShadowingMode::Independent`] — the two directions draw
//!   independently, producing genuinely **asymmetric links**. This is the
//!   regime that stresses CBTC's asymmetric-edge-removal optimization
//!   (§3.2): a node may hear a neighbor it cannot reach back.

use cbtc_radio::{GainScreen, LinkGain};
use serde::{Deserialize, Serialize};

use crate::hash::{clamped_normal, mix_prefix, mix_stream, unit_open, unit_ticks, UNIT_TICKS};

/// Truncation of the shadowing normal, in standard deviations. Keeps
/// every gain inside a finite band so spatial queries can bound their
/// search radius; the discarded tail mass is < 0.2%.
pub const SHADOWING_CLAMP_SIGMAS: f64 = 3.2;

/// Relative slack of the gain screen's u₁ bound and clamp test — orders
/// of magnitude above the few-ulp rounding of the exact draw (`ln`,
/// `sqrt`, `cos`, two `powf`).
const SCREEN_SLACK: f64 = 1e-6;

/// Half-width of the guard band the gain screen keeps around u₂ = ¼ and
/// u₂ = ¾, where `cos(2πu₂)` changes sign.
const SIGN_GUARD: f64 = 1e-9;

/// The hash streams of a link's two Box–Muller uniforms.
const U1_STREAM: u64 = 0x5AD0;
const U2_STREAM: u64 = 0x5AD1;

/// Whether the two directions of a link share one shadowing draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShadowingMode {
    /// One draw per unordered pair: `gain(u→v) = gain(v→u)`.
    Reciprocal,
    /// Independent draws per ordered pair: links are asymmetric.
    Independent,
}

/// A frozen log-normal shadowing field over directed links.
///
/// # Example
///
/// ```
/// use cbtc_phy::{Shadowing, ShadowingMode};
/// use cbtc_radio::LinkGain;
///
/// let field = Shadowing::new(6.0, ShadowingMode::Reciprocal, 42);
/// let g = field.link_gain(3, 9);
/// assert_eq!(g, field.link_gain(9, 3)); // reciprocal
/// assert!(g > 0.0 && g <= field.max_gain());
///
/// // σ = 0 is *exactly* the ideal radio.
/// let ideal = Shadowing::new(0.0, ShadowingMode::Independent, 42);
/// assert_eq!(ideal.link_gain(3, 9), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Shadowing {
    sigma_db: f64,
    mode: ShadowingMode,
    seed: u64,
}

impl Shadowing {
    /// Creates a shadowing field with standard deviation `sigma_db`
    /// (decibels) in the given reciprocity mode, frozen at `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma_db` is finite and non-negative.
    pub fn new(sigma_db: f64, mode: ShadowingMode, seed: u64) -> Self {
        assert!(
            sigma_db.is_finite() && sigma_db >= 0.0,
            "shadowing σ must be finite and non-negative, got {sigma_db}"
        );
        Shadowing {
            sigma_db,
            mode,
            seed,
        }
    }

    /// The ideal field: σ = 0, every gain exactly 1.
    pub fn ideal() -> Self {
        Shadowing::new(0.0, ShadowingMode::Reciprocal, 0)
    }

    /// The standard deviation in dB.
    pub fn sigma_db(&self) -> f64 {
        self.sigma_db
    }

    /// The reciprocity mode.
    pub fn mode(&self) -> ShadowingMode {
        self.mode
    }

    /// The seed the field is frozen at.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The hash prefix of the directed link's draw: one per unordered
    /// pair under [`ShadowingMode::Reciprocal`], one per ordered pair
    /// under [`ShadowingMode::Independent`].
    fn draw_prefix(&self, from: u64, to: u64) -> u64 {
        let (a, b) = match self.mode {
            ShadowingMode::Reciprocal => (from.min(to), from.max(to)),
            ShadowingMode::Independent => (from, to),
        };
        mix_prefix(self.seed, a, b)
    }

    /// The shadowing deviation of the directed link in dB (the normal
    /// draw scaled by σ, before conversion to a linear gain).
    pub fn deviation_db(&self, from: u64, to: u64) -> f64 {
        if self.sigma_db == 0.0 {
            return 0.0;
        }
        let prefix = self.draw_prefix(from, to);
        let z = clamped_normal(
            mix_stream(prefix, U1_STREAM),
            mix_stream(prefix, U2_STREAM),
            SHADOWING_CLAMP_SIGMAS,
        );
        self.sigma_db * z
    }

    /// The smallest gain the field can produce.
    pub fn min_gain(&self) -> f64 {
        if self.sigma_db == 0.0 {
            1.0
        } else {
            10f64.powf(-self.sigma_db * SHADOWING_CLAMP_SIGMAS / 10.0)
        }
    }
}

impl LinkGain for Shadowing {
    fn link_gain(&self, from: u64, to: u64) -> f64 {
        if self.sigma_db == 0.0 {
            return 1.0;
        }
        10f64.powf(self.deviation_db(from, to) / 10.0)
    }

    fn max_gain(&self) -> f64 {
        if self.sigma_db == 0.0 {
            1.0
        } else {
            10f64.powf(self.sigma_db * SHADOWING_CLAMP_SIGMAS / 10.0)
        }
    }

    /// The Box–Muller screen on the draw [`Shadowing::deviation_db`]
    /// makes, `z = √(−2 ln u₁)·cos(2πu₂)` clamped to ±3.2. A gain reaches
    /// `floor` only if `z ≥ t = 10·log₁₀(floor)/σ`, so the screen rules a
    /// link out when
    ///
    /// * `t > 3.2·(1 + 10⁻⁶)`: the clamp keeps every gain below the floor
    ///   ([`GainScreen::All`]);
    /// * u₁'s 53-bit integer exceeds `⌈exp(−t²/2)·(1 + 10⁻⁶)·2⁵³⌉ + 1`:
    ///   then `|z| ≤ √(−2 ln u₁) < t` with room to spare;
    /// * u₂ lies strictly inside `(¼ + 10⁻⁹, ¾ − 10⁻⁹)`: the cosine, and
    ///   with it `z`, is negative (`floor > 1` needs `z > 0`).
    ///
    /// The 10⁻⁶ slack and the 10⁻⁹ guard band are far wider than the
    /// few-ulp rounding of the exact draw, so a link ruled out here has a
    /// computed gain below the floor. σ = 0 and `floor ≤ 1` get no screen.
    fn gain_screen(&self, floor: f64) -> Option<GainScreen> {
        if self.sigma_db == 0.0 || floor.is_nan() || floor <= 1.0 {
            return None;
        }
        let t = 10.0 * floor.log10() / self.sigma_db;
        if t > SHADOWING_CLAMP_SIGMAS * (1.0 + SCREEN_SLACK) {
            return Some(GainScreen::All);
        }
        let bound = (-0.5 * t * t).exp() * (1.0 + SCREEN_SLACK) * UNIT_TICKS as f64;
        Some(GainScreen::DrawAbove(bound.ceil() as u64 + 1))
    }

    fn screens_out(&self, screen: GainScreen, from: u64, to: u64) -> bool {
        let bound = match screen {
            GainScreen::All => return true,
            GainScreen::DrawAbove(bound) => bound,
        };
        let prefix = self.draw_prefix(from, to);
        if unit_ticks(mix_stream(prefix, U1_STREAM)) > bound {
            return true;
        }
        cosine_negative(unit_open(mix_stream(prefix, U2_STREAM)))
    }
}

/// Whether `u₂` lies strictly inside the guarded band
/// `(¼ + 10⁻⁹, ¾ − 10⁻⁹)`, where `cos(2πu₂) < 0`.
fn cosine_negative(u2: f64) -> bool {
    u2 > 0.25 + SIGN_GUARD && u2 < 0.75 - SIGN_GUARD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_zero_is_exactly_ideal() {
        let s = Shadowing::ideal();
        for (a, b) in [(0u64, 1u64), (5, 2), (1000, 1000)] {
            assert_eq!(s.link_gain(a, b), 1.0);
        }
        assert_eq!(s.max_gain(), 1.0);
        assert_eq!(s.min_gain(), 1.0);
    }

    #[test]
    fn reciprocal_mode_is_symmetric() {
        let s = Shadowing::new(8.0, ShadowingMode::Reciprocal, 3);
        for i in 0..100u64 {
            assert_eq!(s.link_gain(i, i + 7), s.link_gain(i + 7, i));
        }
    }

    #[test]
    fn independent_mode_is_asymmetric() {
        let s = Shadowing::new(8.0, ShadowingMode::Independent, 3);
        let asymmetric = (0..100u64).filter(|&i| s.link_gain(i, i + 7) != s.link_gain(i + 7, i));
        assert!(asymmetric.count() > 90, "directions should rarely collide");
    }

    #[test]
    fn gains_respect_bounds_and_determinism() {
        let s = Shadowing::new(6.0, ShadowingMode::Independent, 11);
        for i in 0..500u64 {
            let g = s.link_gain(i, i + 1);
            assert!(g >= s.min_gain() && g <= s.max_gain(), "gain {g}");
            assert_eq!(g, s.link_gain(i, i + 1));
        }
    }

    #[test]
    fn deviation_statistics_match_sigma() {
        let sigma = 6.0;
        let s = Shadowing::new(sigma, ShadowingMode::Independent, 5);
        let n = 10_000u64;
        let devs: Vec<f64> = (0..n).map(|i| s.deviation_db(i, i + 13)).collect();
        let mean = devs.iter().sum::<f64>() / n as f64;
        let std = (devs.iter().map(|d| d * d).sum::<f64>() / n as f64).sqrt();
        assert!(mean.abs() < 0.2, "mean {mean} dB");
        assert!((std - sigma).abs() < 0.2, "std {std} dB vs σ {sigma}");
    }

    #[test]
    fn seeds_select_different_fields() {
        let a = Shadowing::new(6.0, ShadowingMode::Reciprocal, 1);
        let b = Shadowing::new(6.0, ShadowingMode::Reciprocal, 2);
        assert!((0..50u64).any(|i| a.link_gain(i, i + 1) != b.link_gain(i, i + 1)));
    }

    /// The gain floor whose screen threshold is `t` standard deviations.
    fn floor_at(s: &Shadowing, t: f64) -> f64 {
        10f64.powf(s.sigma_db() * t / 10.0)
    }

    #[test]
    fn no_screen_at_sigma_zero_or_a_floor_of_one() {
        let ideal = Shadowing::new(0.0, ShadowingMode::Independent, 4);
        assert_eq!(ideal.gain_screen(1e9), None);
        let s = Shadowing::new(8.0, ShadowingMode::Independent, 4);
        for floor in [f64::NAN, 0.5, 1.0] {
            assert_eq!(s.gain_screen(floor), None, "floor {floor}");
        }
        assert!(s.gain_screen(1.0 + 1e-12).is_some());
        assert_eq!(s.gain_screen(f64::INFINITY), Some(GainScreen::All));
    }

    #[test]
    fn the_clamp_rules_out_every_link_only_past_its_slack() {
        let s = Shadowing::new(8.0, ShadowingMode::Independent, 21);
        let edge = SHADOWING_CLAMP_SIGMAS * (1.0 + SCREEN_SLACK);
        assert_eq!(
            s.gain_screen(floor_at(&s, edge * (1.0 + 1e-9))),
            Some(GainScreen::All)
        );
        let below = s.gain_screen(floor_at(&s, edge * (1.0 - 1e-9)));
        assert!(matches!(below, Some(GainScreen::DrawAbove(b)) if b > 1));
        // A link drawn at the clamp has exactly the maximum gain; at a
        // floor of exactly that gain, the screen must let it through.
        let at_max = s.gain_screen(s.max_gain()).expect("floor above 1");
        let clamped: Vec<(u64, u64)> = (0..200_000u64)
            .map(|i| (i, i + 1))
            .filter(|&(a, b)| s.link_gain(a, b) == s.max_gain())
            .collect();
        assert!(clamped.len() > 20, "the clamp binds in a large sample");
        for (a, b) in clamped {
            assert!(!s.screens_out(at_max, a, b), "link {a}→{b} at the clamp");
        }
    }

    #[test]
    fn the_sign_band_edges_hold_only_negative_draws() {
        let bits = |ticks: u64| (ticks - 1) << 11;
        let u = |ticks: u64| unit_open(bits(ticks));
        let ticks_of = |x: f64| (x * UNIT_TICKS as f64) as u64;
        // The first and last ticks inside the band.
        let mut lo = ticks_of(0.25 + SIGN_GUARD);
        while !cosine_negative(u(lo)) {
            lo += 1;
        }
        let mut hi = ticks_of(0.75 - SIGN_GUARD) + 1;
        while !cosine_negative(u(hi)) {
            hi -= 1;
        }
        assert!(!cosine_negative(u(lo - 1)) && !cosine_negative(u(hi + 1)));
        assert!(!cosine_negative(0.25) && !cosine_negative(0.75));
        // At every u₁ — including the smallest, which draws the largest
        // |z| — the edges give a non-positive normal.
        for u1 in [1, 2, 1 << 20, UNIT_TICKS / 2, UNIT_TICKS] {
            for u2 in [lo, lo + 1, hi - 1, hi] {
                let z = clamped_normal(bits(u1), bits(u2), SHADOWING_CLAMP_SIGMAS);
                assert!(z <= 0.0, "z = {z} at u₁ tick {u1}, u₂ tick {u2}");
            }
        }
        // Just outside a quarter, the cosine is positive again.
        let z = clamped_normal(bits(1), bits(ticks_of(0.25) - 1), SHADOWING_CLAMP_SIGMAS);
        assert!(z > 0.0);
    }

    #[test]
    fn no_screened_link_reaches_the_floor() {
        for mode in [ShadowingMode::Independent, ShadowingMode::Reciprocal] {
            let s = Shadowing::new(8.0, mode, 77);
            for t in [0.002, 0.5, 1.5, 3.0, SHADOWING_CLAMP_SIGMAS] {
                let floor = floor_at(&s, t);
                let screen = s.gain_screen(floor).expect("floor above 1");
                let mut screened = 0u32;
                for a in 0..1000u64 {
                    for b in 1000..2000u64 {
                        if s.screens_out(screen, a, b) {
                            screened += 1;
                            let g = s.link_gain(a, b);
                            assert!(g < floor, "{mode:?} t {t}: {a}→{b} gain {g} ≥ {floor}");
                        }
                    }
                }
                // Half the links draw a negative cosine; the u₁ bound adds
                // most of the rest as t grows.
                assert!(screened > 450_000, "{mode:?} t {t}: {screened} screened");
            }
        }
    }

    #[test]
    #[should_panic(expected = "shadowing σ")]
    fn negative_sigma_rejected() {
        let _ = Shadowing::new(-1.0, ShadowingMode::Reciprocal, 0);
    }
}
