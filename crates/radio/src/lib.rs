//! # cbtc-radio
//!
//! Wireless propagation substrate for the CBTC reproduction.
//!
//! The paper abstracts the radio as a *power function* `p(d)` giving the
//! minimum transmission power needed to establish a link over distance `d`,
//! with a common maximum power `P = p(R)`. Transmission power "increases as
//! the n-th power of the distance … for some n ≥ 2" (citing Rappaport). The
//! protocol additionally assumes that from a message's transmission power
//! (carried in the message) and its reception power, the receiver can
//! estimate `p(d(u, v))`.
//!
//! This crate supplies exactly those facilities:
//!
//! * [`Power`] — a transmission/reception power level (linear scale);
//! * [`PathLoss`] and [`PowerLaw`] — the `p(d) = S·dⁿ` propagation model
//!   with its inverse, reception power, and maximum range `R`;
//! * [`PowerSchedule`] — the `Increase` function of Figure 1
//!   (`Increaseᵏ(p0) = P` for sufficiently large `k`), with the paper's
//!   default `Increase(p) = 2p`;
//! * [`estimate_required_power`] — the reception-based estimate of
//!   `p(d(u, v))` used when a node answers a "Hello";
//! * [`DirectionSensor`] — angle-of-arrival sensing with an optional error
//!   bound (the paper assumes perfect directional information; the noise
//!   knob supports robustness experiments).
//!
//! # Paper map
//!
//! | item | implements |
//! |------|------------|
//! | [`PathLoss`], [`PowerLaw`] | §1: `p(d) = S·dⁿ`, `n ≥ 2`, maximum power `P = p(R)` |
//! | [`PowerSchedule`] | Figure 1's `Increase` with the default `Increase(p) = 2p` |
//! | [`estimate_required_power`] | §2's reception-power estimate of `p(d(u, v))` |
//! | [`PowerBasis`] | §2's measurement assumption as a pricing mode: compute powers from geometry or from the measured attenuation |
//! | [`DirectionSensor`] | §2's angle-of-arrival assumption (exact or bounded-error) |
//! | [`LinkGain`], [`Prr`] | beyond the paper: the stochastic-channel interface (`cbtc-phy` supplies shadowing/fading/PRR implementations; [`IdealGain`] + [`PerfectPrr`] reproduce the paper's radio) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basis;
mod channel;
mod pathloss;
mod power;
mod schedule;
mod sensing;

pub use basis::PowerBasis;
pub use channel::{GainScreen, IdealGain, LinkGain, PerfectPrr, Prr};
pub use pathloss::{InvalidModelError, PathLoss, PowerLaw};
pub use power::Power;
pub use schedule::{PowerSchedule, ScheduleKind};
pub use sensing::DirectionSensor;

/// Estimates the minimum power needed to reach the sender of a message,
/// from the power it was sent with and the power it was received at.
///
/// This is the paper's §2 assumption: "given the transmission power `p` and
/// the reception power `p′`, `u` can estimate `p(d(u, v))`". Under any
/// distance-monotone [`PathLoss`] model the attenuation `p / p′` determines
/// the distance, hence the required power.
///
/// # Example
///
/// ```
/// use cbtc_radio::{estimate_required_power, PathLoss, Power, PowerLaw};
///
/// let model = PowerLaw::paper_default();
/// let d = 123.0;
/// let tx = model.max_power();
/// let rx = model.reception_power(tx, d);
/// let est = estimate_required_power(&model, tx, rx);
/// assert!((est.linear() - model.required_power(d).linear()).abs() < 1e-6);
/// ```
pub fn estimate_required_power<M: PathLoss + ?Sized>(
    model: &M,
    tx_power: Power,
    rx_power: Power,
) -> Power {
    let d = model.distance_from_attenuation(tx_power, rx_power);
    model.required_power(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_matches_true_required_power_across_distances() {
        let model = PowerLaw::new(2.0, 1.0, 500.0).unwrap();
        for d in [1.0, 10.0, 99.5, 250.0, 499.9, 500.0] {
            let tx = model.max_power();
            let rx = model.reception_power(tx, d);
            let est = estimate_required_power(&model, tx, rx);
            let truth = model.required_power(d);
            assert!(
                (est.linear() - truth.linear()).abs() / truth.linear() < 1e-9,
                "d={d}: est {est} vs {truth}"
            );
        }
    }

    #[test]
    fn estimate_is_independent_of_tx_power_used() {
        // Whether the Hello was heard at low or high power, the estimated
        // required power is the same — only the ratio matters.
        let model = PowerLaw::new(4.0, 2.0, 500.0).unwrap();
        let d = 77.0;
        let est_low = {
            let tx = model.required_power(d); // barely reaches
            estimate_required_power(&model, tx, model.reception_power(tx, d))
        };
        let est_high = {
            let tx = model.max_power();
            estimate_required_power(&model, tx, model.reception_power(tx, d))
        };
        assert!((est_low.linear() - est_high.linear()).abs() / est_high.linear() < 1e-9);
    }
}
