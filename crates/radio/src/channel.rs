//! Stochastic-channel trait extensions: per-link gains and packet
//! reception rates.
//!
//! The paper's radio is the deterministic power law `p(d) = S·dⁿ`: every
//! link inside range succeeds, every link outside fails. Real channels
//! deviate in two ways the topology-control literature cares about
//! (Sethu & Gerety's non-uniform path loss; Chu & Sethu's lifetime work):
//!
//! * **per-link gain** — shadowing by obstacles multiplies the received
//!   power by a link-specific factor that is *frozen in time* (the
//!   obstacle does not move) but varies across links, and may differ per
//!   direction (different antenna environments at the two ends);
//! * **soft reception** — near the sensitivity threshold, delivery is
//!   probabilistic rather than a hard cut.
//!
//! [`LinkGain`] and [`Prr`] abstract exactly those two deviations, so the
//! simulator and the construction pipeline can be written once and run
//! against the ideal radio ([`IdealGain`] + [`PerfectPrr`], reproducing
//! the paper's model bit for bit) or against the stochastic models of the
//! `cbtc-phy` crate.

use std::fmt::Debug;

/// A frozen per-link power-gain field on top of deterministic path loss.
///
/// `link_gain(u, v)` multiplies the power received at `v` from `u`. The
/// field must be **deterministic**: repeated queries of the same directed
/// link return the same factor (a frozen shadowing environment), which is
/// what makes runs reproducible and lets construction and simulation see
/// the same world.
pub trait LinkGain: Debug {
    /// The power-gain multiplier of the directed link `from → to`
    /// (`1.0` = exactly the deterministic path-loss model).
    fn link_gain(&self, from: u64, to: u64) -> f64;

    /// A finite upper bound on [`LinkGain::link_gain`] over all links,
    /// used to bound spatial queries (a transmission can reach at most
    /// `range(p · max_gain)`).
    fn max_gain(&self) -> f64 {
        1.0
    }

    /// The per-packet (fast-fading) power gain for the directed link,
    /// deterministic in the packet `token`. `1.0` = no multipath fading.
    fn packet_gain(&self, from: u64, to: u64, token: u64) -> f64 {
        let _ = (from, to, token);
        1.0
    }

    /// A finite upper bound on [`LinkGain::packet_gain`].
    fn max_packet_gain(&self) -> f64 {
        1.0
    }

    /// A conservative screen for links whose gain falls short of `floor`,
    /// prepared once and then applied per link with
    /// [`LinkGain::screens_out`] — for a caller that must rule out many
    /// links against one gain floor more cheaply than pricing each.
    ///
    /// The contract is one-sided: a link the screen rules out has
    /// `link_gain < floor`, short of it by at least the rounding of the
    /// exact computation; a link it lets through may still fall short.
    /// `None` — the default, what any field without a cheaper test
    /// returns, and the answer for any floor the field cannot screen
    /// (NaN included) — rules nothing out.
    ///
    /// Log-normal shadowing (`cbtc_phy::Shadowing`) screens its
    /// Box–Muller draw: a gain reaches the floor only if the normal draw
    /// reaches `t = 10·log₁₀(floor)/σ`, which rules out every link when
    /// `t > 3.2·(1 + 10⁻⁶)` (past the clamp), and otherwise each link
    /// whose u₁ integer exceeds `⌈exp(−t²/2)·(1 + 10⁻⁶)·2⁵³⌉ + 1` or whose
    /// u₂ lies inside `(¼ + 10⁻⁹, ¾ − 10⁻⁹)` (a negative cosine). The
    /// 10⁻⁶ slack and the 10⁻⁹ band dwarf the few-ulp rounding of the
    /// exact draw.
    fn gain_screen(&self, floor: f64) -> Option<GainScreen> {
        let _ = floor;
        None
    }

    /// Whether `screen`, prepared by this field's
    /// [`LinkGain::gain_screen`], rules the directed link `from → to` out.
    fn screens_out(&self, screen: GainScreen, from: u64, to: u64) -> bool {
        let _ = (screen, from, to);
        false
    }
}

/// A per-floor link screen, built by [`LinkGain::gain_screen`] and read
/// only by the same field's [`LinkGain::screens_out`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GainScreen {
    /// The floor exceeds every gain the field can produce: every link is
    /// ruled out.
    All,
    /// Links whose field-defined draw word exceeds this bound are ruled
    /// out (the field may rule out more with tests of its own).
    DrawAbove(u64),
}

/// A packet-reception-rate curve: the probability a packet is decoded
/// given its received signal and the power the channel requires.
///
/// Both values arrive un-divided so that implementations with hard
/// cutoffs (notably [`PerfectPrr`]) can compare them exactly — `signal ≥
/// threshold` reproduces the paper's reception set `p(d) ≤ p` without a
/// floating-point division in between. Interference raises `threshold`
/// (an SINR requirement is a higher effective noise floor).
pub trait Prr: Debug {
    /// Probability in `[0, 1]` that a packet with received signal budget
    /// `signal` is decoded when the channel requires `threshold`.
    /// Implementations must return exactly `1.0` / `0.0` where delivery
    /// is certain / impossible, so callers can skip random draws.
    fn delivery_probability(&self, signal: f64, threshold: f64) -> f64;
}

/// The ideal channel: every link gain is exactly 1 (the paper's radio).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdealGain;

impl LinkGain for IdealGain {
    fn link_gain(&self, _from: u64, _to: u64) -> f64 {
        1.0
    }
}

/// The ideal reception curve: a hard threshold at `signal ≥ threshold`,
/// reproducing the unit-disk reception set exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerfectPrr;

impl Prr for PerfectPrr {
    fn delivery_probability(&self, signal: f64, threshold: f64) -> f64 {
        if signal >= threshold {
            1.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_gain_is_unity() {
        let g = IdealGain;
        assert_eq!(g.link_gain(3, 9), 1.0);
        assert_eq!(g.max_gain(), 1.0);
        assert_eq!(g.packet_gain(3, 9, 42), 1.0);
        assert_eq!(g.max_packet_gain(), 1.0);
    }

    #[test]
    fn perfect_prr_is_a_step() {
        let p = PerfectPrr;
        assert_eq!(p.delivery_probability(2.0, 1.0), 1.0);
        assert_eq!(p.delivery_probability(1.0, 1.0), 1.0);
        assert_eq!(p.delivery_probability(0.999_999, 1.0), 0.0);
    }

    #[test]
    fn traits_are_object_safe() {
        let g: &dyn LinkGain = &IdealGain;
        let p: &dyn Prr = &PerfectPrr;
        assert_eq!(g.link_gain(0, 1), 1.0);
        assert_eq!(p.delivery_probability(5.0, 1.0), 1.0);
    }
}
