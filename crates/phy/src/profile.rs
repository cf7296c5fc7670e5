//! [`PhyProfile`]: the serializable description of a physical layer.
//!
//! Every phy consumer — the discrete-event simulator, the topology
//! construction, the lifetime engine, benchmark JSON — configures itself
//! from this one plain-data struct, so a profile written into a report
//! reproduces the run exactly.

use cbtc_radio::{GainScreen, LinkGain};
use serde::{Deserialize, Serialize};

use crate::{Fading, PrrCurve, Shadowing, ShadowingMode};

/// Interference-engine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterferenceProfile {
    /// Interference cutoff as a multiple of the radio range `R`:
    /// transmitters beyond `range_factor · R` of a receiver are ignored.
    pub range_factor: f64,
}

impl Default for InterferenceProfile {
    fn default() -> Self {
        // Twice the radio range captures every interferer that can move a
        // threshold-region packet by more than a fraction of a dB.
        InterferenceProfile { range_factor: 2.0 }
    }
}

/// Slotted-CSMA (listen-before-talk) parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CsmaProfile {
    /// Carrier-sense range as a multiple of the radio range `R`.
    pub cs_range_factor: f64,
    /// Largest random backoff, in slots (a deferred transmission retries
    /// after `1 + uniform(0..max_backoff)` slots).
    pub max_backoff: u64,
    /// Sense attempts before transmitting regardless (broadcast beacons
    /// must eventually air).
    pub max_attempts: u32,
}

impl Default for CsmaProfile {
    fn default() -> Self {
        CsmaProfile {
            cs_range_factor: 1.0,
            max_backoff: 16,
            max_attempts: 5,
        }
    }
}

/// A complete physical-layer description.
///
/// # Example
///
/// ```
/// use cbtc_phy::PhyProfile;
/// use cbtc_radio::LinkGain;
///
/// // The ideal profile reproduces the paper's radio exactly.
/// let ideal = PhyProfile::ideal();
/// assert_eq!(ideal.channel().link_gain(1, 2), 1.0);
///
/// // A 6 dB shadowed profile has genuinely lossy, asymmetric links.
/// let rough = PhyProfile::shadowed(6.0, 42);
/// assert!(rough.channel().max_gain() > 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhyProfile {
    /// Log-normal shadowing standard deviation in dB (0 = none).
    pub sigma_db: f64,
    /// Whether link shadowing is reciprocal or per-direction.
    pub shadowing_mode: ShadowingMode,
    /// Per-packet multipath fading model.
    pub fading: Fading,
    /// The packet-reception-rate curve.
    pub prr: PrrCurve,
    /// Seed of every frozen random field (shadowing, fading, MAC backoff,
    /// angle-of-arrival error).
    pub seed: u64,
    /// Maximum angle-of-arrival error in radians (0 = the paper's exact
    /// directional sensing). Consumers build a seeded
    /// `cbtc_radio::DirectionSensor` from this, so the per-link error
    /// field is reproducible at any thread count.
    pub aoa_error: f64,
    /// SINR interference engine; `None` = concurrent transmissions never
    /// collide (the paper's model).
    pub interference: Option<InterferenceProfile>,
    /// Slotted CSMA listen-before-talk; `None` = transmit immediately.
    pub csma: Option<CsmaProfile>,
}

impl PhyProfile {
    /// The paper's radio expressed as a phy profile: no shadowing, no
    /// fading, hard reception threshold, no interference, no MAC. Runs
    /// through the phy pipeline with this profile are **bit-identical**
    /// to runs that bypass it.
    pub fn ideal() -> Self {
        PhyProfile {
            sigma_db: 0.0,
            shadowing_mode: ShadowingMode::Reciprocal,
            fading: Fading::None,
            prr: PrrCurve::Perfect,
            seed: 0,
            aoa_error: 0.0,
            interference: None,
            csma: None,
        }
    }

    /// Shadowing only: independently drawn per direction (asymmetric
    /// links), hard threshold, no fading/interference/MAC. The profile
    /// the construction-robustness sweep uses.
    pub fn shadowed(sigma_db: f64, seed: u64) -> Self {
        PhyProfile {
            sigma_db,
            shadowing_mode: ShadowingMode::Independent,
            ..PhyProfile::ideal().with_seed(seed)
        }
    }

    /// The full stochastic stack: independent shadowing, Rician fading
    /// (K = 6), the soft PRR transition, SINR interference and slotted
    /// CSMA — the profile the protocol-overhead experiments use.
    pub fn realistic(sigma_db: f64, seed: u64) -> Self {
        PhyProfile {
            sigma_db,
            shadowing_mode: ShadowingMode::Independent,
            fading: Fading::Rician { k: 6.0 },
            prr: PrrCurve::paper_transition(),
            seed,
            aoa_error: 0.02,
            interference: Some(InterferenceProfile::default()),
            csma: Some(CsmaProfile::default()),
        }
    }

    /// The profile with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The frozen shadowing field this profile describes.
    pub fn shadowing(&self) -> Shadowing {
        Shadowing::new(self.sigma_db, self.shadowing_mode, self.seed)
    }

    /// The angle-of-arrival sensor this profile describes: exact when
    /// `aoa_error` is 0, otherwise a bounded-error sensor seeded from the
    /// profile — the one seeding rule every consumer (simulator,
    /// construction, probes) shares, so their error fields can never
    /// silently diverge.
    pub fn sensor(&self) -> cbtc_radio::DirectionSensor {
        if self.aoa_error > 0.0 {
            cbtc_radio::DirectionSensor::with_error_bound_seeded(self.aoa_error, self.seed)
        } else {
            cbtc_radio::DirectionSensor::exact()
        }
    }

    /// The combined link/packet gain channel this profile describes.
    pub fn channel(&self) -> StochasticChannel {
        StochasticChannel {
            shadowing: self.shadowing(),
            fading: self.fading,
            seed: self.seed,
        }
    }

    /// Whether this profile is exactly the ideal radio (every gain 1,
    /// hard threshold, exact bearings): the phy pipeline then reproduces
    /// the ideal path bit for bit.
    pub fn is_ideal_radio(&self) -> bool {
        self.sigma_db == 0.0
            && self.fading == Fading::None
            && self.prr.is_perfect()
            && self.aoa_error == 0.0
    }
}

/// Shadowing and fading composed behind the [`LinkGain`] interface — what
/// the simulator's delivery pipeline consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StochasticChannel {
    shadowing: Shadowing,
    fading: Fading,
    seed: u64,
}

impl StochasticChannel {
    /// The shadowing component.
    pub fn shadowing(&self) -> &Shadowing {
        &self.shadowing
    }

    /// The fading component.
    pub fn fading(&self) -> &Fading {
        &self.fading
    }
}

impl LinkGain for StochasticChannel {
    fn link_gain(&self, from: u64, to: u64) -> f64 {
        self.shadowing.link_gain(from, to)
    }

    fn max_gain(&self) -> f64 {
        self.shadowing.max_gain()
    }

    fn packet_gain(&self, from: u64, to: u64, token: u64) -> f64 {
        self.fading.packet_gain(from, to, token, self.seed)
    }

    fn max_packet_gain(&self) -> f64 {
        self.fading.max_gain()
    }

    fn gain_screen(&self, floor: f64) -> Option<GainScreen> {
        self.shadowing.gain_screen(floor)
    }

    fn screens_out(&self, screen: GainScreen, from: u64, to: u64) -> bool {
        self.shadowing.screens_out(screen, from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtc_radio::Prr;

    #[test]
    fn ideal_profile_is_ideal() {
        let p = PhyProfile::ideal();
        assert!(p.is_ideal_radio());
        let ch = p.channel();
        assert_eq!(ch.link_gain(1, 2), 1.0);
        assert_eq!(ch.packet_gain(1, 2, 3), 1.0);
        assert_eq!(ch.max_gain(), 1.0);
        assert_eq!(ch.max_packet_gain(), 1.0);
        assert!(p.interference.is_none() && p.csma.is_none());
    }

    #[test]
    fn shadowed_profile_draws_asymmetric_gains() {
        let p = PhyProfile::shadowed(8.0, 5);
        assert!(!p.is_ideal_radio());
        let ch = p.channel();
        let differs = (0..50u64).any(|i| ch.link_gain(i, i + 1) != ch.link_gain(i + 1, i));
        assert!(differs);
        // Still a hard threshold.
        assert_eq!(p.prr.delivery_probability(1.0, 1.0), 1.0);
    }

    #[test]
    fn realistic_profile_has_all_stages() {
        let p = PhyProfile::realistic(6.0, 1);
        assert!(p.interference.is_some());
        assert!(p.csma.is_some());
        assert!(!p.prr.is_perfect());
        let ch = p.channel();
        assert_ne!(ch.packet_gain(1, 2, 0), ch.packet_gain(1, 2, 1));
    }

    #[test]
    fn profile_round_trips_through_json() {
        let p = PhyProfile::realistic(4.0, 9);
        let json = serde_json::to_string(&p).unwrap();
        let back: PhyProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
