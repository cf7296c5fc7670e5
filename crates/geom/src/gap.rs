//! The α-gap test over sets of directions.
//!
//! CBTC's growing phase is driven by a single predicate: *is there a gap of
//! more than α between the angles of two consecutive discovered neighbors?*
//! By the observation in §2 of the paper this holds iff there is a cone of
//! degree α centered at the node containing no discovered neighbor.

use std::f64::consts::TAU;

use crate::{Alpha, Angle};

/// The largest counter-clockwise gap between consecutive directions, in
/// radians.
///
/// Returns `2π` for an empty set (the whole circle is one gap) and for a
/// single direction (the circle minus a point is still a `2π` sweep back to
/// itself).
///
/// # Example
///
/// ```
/// use cbtc_geom::{Angle, gap::max_gap};
/// use std::f64::consts::PI;
///
/// let dirs = [Angle::ZERO, Angle::new(PI / 2.0)];
/// assert!((max_gap(&dirs) - 1.5 * PI).abs() < 1e-12);
/// assert_eq!(max_gap(&[]), 2.0 * PI);
/// ```
pub fn max_gap(directions: &[Angle]) -> f64 {
    match directions.len() {
        0 => TAU,
        1 => TAU,
        _ => {
            let mut sorted: Vec<Angle> = directions.to_vec();
            sorted.sort();
            let mut largest: f64 = 0.0;
            for w in sorted.windows(2) {
                largest = largest.max(w[0].ccw_to(w[1]));
            }
            // Wrap-around gap from the last direction back to the first.
            let last = sorted[sorted.len() - 1];
            let first = sorted[0];
            if last == first {
                // Sorted and extremes equal ⇒ all directions identical:
                // the circle minus one point is a full 2π sweep.
                return TAU;
            }
            largest.max(last.ccw_to(first))
        }
    }
}

/// The paper's `gap-α(Du)` test: `true` iff there is a gap of **more than**
/// `α` between two consecutive directions, i.e. iff some cone of degree `α`
/// around the node contains no direction from the set.
///
/// The comparison is strict (gaps of exactly `α` do not count), matching the
/// termination condition of the algorithm in Figure 1. A tiny tolerance
/// absorbs floating-point noise so that a gap within [`crate::EPS`] of `α`
/// is treated as exactly `α`.
///
/// # Example
///
/// ```
/// use cbtc_geom::{Alpha, Angle, gap::has_alpha_gap};
/// use std::f64::consts::PI;
///
/// // Four directions at right angles: largest gap is π/2.
/// let dirs: Vec<Angle> = (0..4).map(|k| Angle::new(k as f64 * PI / 2.0)).collect();
/// assert!(!has_alpha_gap(&dirs, Alpha::new(PI / 2.0)?));
/// assert!(has_alpha_gap(&dirs, Alpha::new(PI / 2.0 - 0.01)?));
/// # Ok::<(), cbtc_geom::InvalidAlphaError>(())
/// ```
pub fn has_alpha_gap(directions: &[Angle], alpha: Alpha) -> bool {
    max_gap(directions) > alpha.radians() + crate::EPS
}

/// Like [`has_alpha_gap`], but also reports where the widest gap begins.
///
/// Returns `(gap, start)` where `start` is the direction after which the
/// widest counter-clockwise gap opens, or `None` when the set is empty.
/// Useful for diagnostics and for the reconfiguration logic, which wants to
/// know *where* coverage was lost after a `leave` event.
pub fn widest_gap(directions: &[Angle]) -> Option<(f64, Angle)> {
    if directions.is_empty() {
        return None;
    }
    let mut sorted: Vec<Angle> = directions.to_vec();
    sorted.sort();
    let mut best_gap = 0.0;
    let mut best_start = sorted[0];
    let n = sorted.len();
    for i in 0..n {
        let a = sorted[i];
        let b = sorted[(i + 1) % n];
        let g = if n == 1 { TAU } else { a.ccw_to(b) };
        // For n > 1 with duplicate extremes ccw_to(a, a) == 0, which is fine.
        if g > best_gap {
            best_gap = g;
            best_start = a;
        }
    }
    if n == 1 {
        return Some((TAU, sorted[0]));
    }
    // All directions identical: the gap is the full circle starting there.
    if best_gap == 0.0 {
        return Some((TAU, sorted[0]));
    }
    Some((best_gap, best_start))
}

/// Incremental form of the `gap-α` test, the one the construction hot
/// loop runs: a sorted `Vec` of normalized radians plus an O(1)-per-insert
/// count of the spans that exceed the α-gap threshold.
///
/// The growing phase asks the same question after every discovery group:
/// *does an α-gap remain?* Re-running [`has_alpha_gap`] costs
/// `O(k log k)` per query over `k` directions — `O(k² log k)` across a
/// node's whole growth. But the growing phase never needs the maximum
/// gap itself: it asks one fixed question per node, *does any gap exceed
/// `α +`[`crate::EPS`]?*, for a single α known up front.
/// `FlatGapTracker` therefore fixes the threshold at construction and
/// maintains only `open`, the number of consecutive-direction spans
/// exceeding it. An insertion splits exactly
/// one span into two: decrement `open` if the removed span was open,
/// increment per new open span — three comparisons, no tree. The sorted
/// direction vec is the only storage, and [`FlatGapTracker::reset`] keeps
/// its capacity so a reused tracker allocates nothing at steady state.
///
/// ## Bit-identity with the batch scan
///
/// Spans are computed by the *same* expression as [`Angle::ccw_to`] over
/// the same normalized radians, duplicates contribute nothing (as their
/// zero-width spans never can in [`max_gap`]), a set with fewer than two
/// distinct directions is a full `2π` sweep in both formulations, and the
/// threshold is the same `α + EPS` sum — so
/// [`max_gap`](FlatGapTracker::max_gap) equals [`max_gap`] and
/// [`has_open_gap`](FlatGapTracker::has_open_gap) equals
/// [`has_alpha_gap`] **bit for bit** on every insertion prefix; the tests
/// assert it exhaustively.
///
/// # Example
///
/// ```
/// use cbtc_geom::{Alpha, Angle, gap::FlatGapTracker};
/// use std::f64::consts::TAU;
///
/// let mut t = FlatGapTracker::new(Alpha::TWO_PI_THIRDS);
/// assert!(t.has_open_gap());
/// for k in 0..3 {
///     t.insert(Angle::new(k as f64 * TAU / 3.0));
/// }
/// // Three directions 2π/3 apart: no gap of more than 2π/3 remains.
/// assert!(!t.has_open_gap());
/// ```
#[derive(Debug, Clone)]
pub struct FlatGapTracker {
    /// Distinct normalized radians in `f64::total_cmp` order (equal bits
    /// deduplicate).
    dirs: Vec<f64>,
    /// `α + EPS`, fixed at construction/reset.
    threshold: f64,
    /// Number of consecutive-direction spans (wrap-around included)
    /// strictly exceeding `threshold`; meaningful when `dirs.len() ≥ 2`.
    open: usize,
}

impl FlatGapTracker {
    /// An empty tracker armed for the strict α-gap threshold
    /// `α +`[`crate::EPS`].
    pub fn new(alpha: Alpha) -> Self {
        FlatGapTracker {
            dirs: Vec::new(),
            threshold: alpha.radians() + crate::EPS,
            open: 0,
        }
    }

    /// Forgets all directions and re-arms for `alpha`, keeping the
    /// direction buffer's capacity — the scratch-reuse entry point.
    pub fn reset(&mut self, alpha: Alpha) {
        self.dirs.clear();
        self.threshold = alpha.radians() + crate::EPS;
        self.open = 0;
    }

    /// Number of *distinct* directions tracked.
    pub fn len(&self) -> usize {
        self.dirs.len()
    }

    /// Whether no direction has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.dirs.is_empty()
    }

    /// The counter-clockwise span from `a` to `b` — the exact expression
    /// of [`Angle::ccw_to`], kept textually in sync for bit-identity.
    fn span(a: f64, b: f64) -> f64 {
        let d = b - a;
        if d < 0.0 {
            d + TAU
        } else {
            d
        }
    }

    /// Inserts a direction. Duplicates of an already-tracked direction
    /// are no-ops, mirroring their zero-width contribution in
    /// [`max_gap`].
    pub fn insert(&mut self, dir: Angle) {
        let r = dir.radians();
        let i = self
            .dirs
            .partition_point(|x| x.total_cmp(&r) == std::cmp::Ordering::Less);
        if self.dirs.get(i).is_some_and(|x| x.to_bits() == r.to_bits()) {
            return;
        }
        match self.dirs.len() {
            0 => {}
            1 => {
                let other = self.dirs[0];
                self.open = usize::from(Self::span(other, r) > self.threshold)
                    + usize::from(Self::span(r, other) > self.threshold);
            }
            n => {
                let pred = if i == 0 {
                    self.dirs[n - 1]
                } else {
                    self.dirs[i - 1]
                };
                let succ = if i == n { self.dirs[0] } else { self.dirs[i] };
                self.open -= usize::from(Self::span(pred, succ) > self.threshold);
                self.open += usize::from(Self::span(pred, r) > self.threshold);
                self.open += usize::from(Self::span(r, succ) > self.threshold);
            }
        }
        self.dirs.insert(i, r);
    }

    /// The incremental `gap-α(Du)` verdict: exactly [`has_alpha_gap`]
    /// for the α the tracker was armed with, over the inserted
    /// multiset.
    pub fn has_open_gap(&self) -> bool {
        if self.dirs.len() < 2 {
            TAU > self.threshold
        } else {
            self.open > 0
        }
    }

    /// The largest counter-clockwise gap between consecutive directions —
    /// exactly [`max_gap`] over the inserted multiset. `O(k)`; kept for
    /// diagnostics and the bit-identity tests, not used by the hot loop.
    pub fn max_gap(&self) -> f64 {
        if self.dirs.len() < 2 {
            return TAU;
        }
        let mut largest: f64 = 0.0;
        for w in self.dirs.windows(2) {
            largest = largest.max(Self::span(w[0], w[1]));
        }
        largest.max(Self::span(self.dirs[self.dirs.len() - 1], self.dirs[0]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_3, PI};

    fn angles(v: &[f64]) -> Vec<Angle> {
        v.iter().copied().map(Angle::new).collect()
    }

    #[test]
    fn empty_and_singleton_have_full_gap() {
        assert_eq!(max_gap(&[]), TAU);
        assert_eq!(max_gap(&angles(&[1.0])), TAU);
        assert!(has_alpha_gap(&[], Alpha::FIVE_PI_SIXTHS));
        assert!(has_alpha_gap(&angles(&[0.3]), Alpha::FIVE_PI_SIXTHS));
    }

    #[test]
    fn evenly_spread_directions() {
        // k evenly spaced directions: max gap 2π/k.
        for k in 2..12usize {
            let dirs: Vec<Angle> = (0..k)
                .map(|i| Angle::new(i as f64 * TAU / k as f64))
                .collect();
            let expect = TAU / k as f64;
            assert!(
                (max_gap(&dirs) - expect).abs() < 1e-9,
                "k={k}: {} vs {expect}",
                max_gap(&dirs)
            );
        }
    }

    #[test]
    fn gap_test_is_strict_at_alpha() {
        // Directions exactly 2π/3 apart: gap == α == 2π/3, no α-gap.
        let dirs = angles(&[0.0, TAU / 3.0, 2.0 * TAU / 3.0]);
        assert!(!has_alpha_gap(&dirs, Alpha::TWO_PI_THIRDS));
        // Remove one: the gap becomes 4π/3 > 2π/3.
        assert!(has_alpha_gap(&dirs[..2], Alpha::TWO_PI_THIRDS));
    }

    #[test]
    fn wraparound_gap_detected() {
        // Directions at 350° and 10°: the big gap spans 340° through the
        // middle of the circle, not across 0.
        let dirs = angles(&[350f64.to_radians(), 10f64.to_radians()]);
        let g = max_gap(&dirs);
        assert!((g - 340f64.to_radians()).abs() < 1e-9);
    }

    #[test]
    fn duplicates_do_not_confuse_the_scan() {
        let dirs = angles(&[1.0, 1.0, 1.0, 1.0 + PI]);
        assert!((max_gap(&dirs) - PI).abs() < 1e-12);
        let same = angles(&[2.0, 2.0]);
        assert_eq!(max_gap(&same), TAU);
    }

    #[test]
    fn widest_gap_reports_location() {
        let dirs = angles(&[0.0, FRAC_PI_2, PI]);
        let (g, start) = widest_gap(&dirs).unwrap();
        assert!((g - PI).abs() < 1e-12);
        assert!(start.circular_distance(Angle::new(PI)) < 1e-12);
        assert!(widest_gap(&[]).is_none());
        let (g1, s1) = widest_gap(&angles(&[0.7])).unwrap();
        assert_eq!(g1, TAU);
        assert!(s1.circular_distance(Angle::new(0.7)) < 1e-12);
    }

    #[test]
    fn widest_gap_all_identical_directions() {
        let dirs = angles(&[FRAC_PI_3, FRAC_PI_3, FRAC_PI_3]);
        let (g, s) = widest_gap(&dirs).unwrap();
        assert_eq!(g, TAU);
        assert!(s.circular_distance(Angle::new(FRAC_PI_3)) < 1e-12);
    }

    #[test]
    fn gap_matches_max_gap_value() {
        let dirs = angles(&[0.2, 1.9, 3.0, 4.4, 6.0]);
        let g = max_gap(&dirs);
        let (wg, _) = widest_gap(&dirs).unwrap();
        assert!((g - wg).abs() < 1e-15);
    }

    #[test]
    fn tracker_matches_batch_on_every_prefix() {
        // Pseudo-random direction stream with forced duplicates and a
        // wrap-straddling pair; after every insertion the flat tracker
        // must agree bit-for-bit with the batch scan over the prefix.
        let mut stream: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.754_877_666_246_692_8).fract() * TAU)
            .collect();
        stream[10] = stream[3];
        stream[20] = stream[3];
        stream[30] = 350f64.to_radians();
        stream[31] = 10f64.to_radians();
        for alpha in [Alpha::FIVE_PI_SIXTHS, Alpha::TWO_PI_THIRDS] {
            let mut tracker = FlatGapTracker::new(alpha);
            let mut prefix = Vec::new();
            assert_eq!(tracker.max_gap(), TAU);
            assert!(tracker.is_empty());
            for (i, &raw) in stream.iter().enumerate() {
                let dir = Angle::new(raw);
                tracker.insert(dir);
                prefix.push(dir);
                assert_eq!(
                    tracker.max_gap().to_bits(),
                    max_gap(&prefix).to_bits(),
                    "prefix of {} directions",
                    i + 1
                );
                assert_eq!(tracker.has_open_gap(), has_alpha_gap(&prefix, alpha));
            }
        }
    }

    #[test]
    fn tracker_handles_duplicates_and_identical_sets() {
        let mut t = FlatGapTracker::new(Alpha::FIVE_PI_SIXTHS);
        assert!(t.is_empty());
        t.insert(Angle::new(1.0));
        t.insert(Angle::new(1.0));
        t.insert(Angle::new(1.0));
        assert_eq!(t.len(), 1);
        assert_eq!(t.max_gap(), TAU, "all-identical directions are a 2π sweep");
        t.insert(Angle::new(1.0 + PI));
        assert_eq!(t.len(), 2);
        assert!((t.max_gap() - PI).abs() < 1e-12);
        t.reset(Alpha::FIVE_PI_SIXTHS);
        assert!(t.is_empty());
        assert_eq!(t.max_gap(), TAU);
    }

    #[test]
    fn flat_tracker_is_bit_identical_to_btree_tracker_on_every_prefix() {
        // Reference: the directions in a `BTreeSet<Angle>` (deduplicated
        // by `Angle`'s total order rather than the flat tracker's sorted
        // vec), every circular-neighbor span rescanned per prefix.
        fn btree_max_gap(dirs: &std::collections::BTreeSet<Angle>) -> f64 {
            if dirs.len() < 2 {
                return TAU;
            }
            let first = *dirs.iter().next().expect("len checked");
            let last = *dirs.iter().next_back().expect("len checked");
            dirs.iter()
                .zip(dirs.iter().skip(1))
                .map(|(a, b)| a.ccw_to(*b))
                .fold(last.ccw_to(first), f64::max)
        }
        // The same stress stream as `tracker_matches_batch_on_every_prefix`.
        let mut stream: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.754_877_666_246_692_8).fract() * TAU)
            .collect();
        stream[10] = stream[3];
        stream[20] = stream[3];
        stream[30] = 350f64.to_radians();
        stream[31] = 10f64.to_radians();
        for alpha in [Alpha::FIVE_PI_SIXTHS, Alpha::TWO_PI_THIRDS] {
            let mut flat = FlatGapTracker::new(alpha);
            let mut btree = std::collections::BTreeSet::new();
            for (i, &raw) in stream.iter().enumerate() {
                let dir = Angle::new(raw);
                flat.insert(dir);
                btree.insert(dir);
                let reference = btree_max_gap(&btree);
                assert_eq!(flat.len(), btree.len(), "prefix of {} directions", i + 1);
                assert_eq!(
                    flat.max_gap().to_bits(),
                    reference.to_bits(),
                    "prefix of {} directions",
                    i + 1
                );
                assert_eq!(
                    flat.has_open_gap(),
                    reference > alpha.radians() + crate::EPS
                );
            }
        }
    }

    #[test]
    fn flat_tracker_reset_reuses_and_rearms() {
        let mut t = FlatGapTracker::new(Alpha::TWO_PI_THIRDS);
        for k in 0..3 {
            t.insert(Angle::new(k as f64 * TAU / 3.0));
        }
        assert!(!t.has_open_gap());
        // Re-armed for a tighter alpha, the same directions leave a gap.
        t.reset(Alpha::new(FRAC_PI_2).unwrap());
        assert!(t.is_empty());
        assert!(t.has_open_gap(), "empty tracker is a full 2π sweep");
        for k in 0..3 {
            t.insert(Angle::new(k as f64 * TAU / 3.0));
        }
        assert!(t.has_open_gap(), "2π/3 gaps exceed π/2");
    }

    #[test]
    fn flat_tracker_strict_at_exact_alpha_and_full_circle() {
        // Gap exactly α: not an α-gap (strict test with EPS absorption).
        let mut t = FlatGapTracker::new(Alpha::TWO_PI_THIRDS);
        t.insert(Angle::new(0.0));
        t.insert(Angle::new(TAU / 3.0));
        t.insert(Angle::new(2.0 * TAU / 3.0));
        assert!(!t.has_open_gap());
        // α = 2π: even the empty tracker's full sweep does not exceed it.
        let full = FlatGapTracker::new(Alpha::new(TAU).unwrap());
        assert!(!full.has_open_gap());
        // Duplicates are no-ops.
        let mut d = FlatGapTracker::new(Alpha::FIVE_PI_SIXTHS);
        d.insert(Angle::new(1.0));
        d.insert(Angle::new(1.0));
        assert_eq!(d.len(), 1);
        assert_eq!(d.max_gap(), TAU);
    }

    #[test]
    fn tracker_insertion_order_is_irrelevant() {
        let dirs = angles(&[5.9, 0.1, 3.3, 2.2, 4.7, 1.6]);
        for alpha in [Alpha::FIVE_PI_SIXTHS, Alpha::new(1.2).unwrap()] {
            let mut forward = FlatGapTracker::new(alpha);
            let mut backward = FlatGapTracker::new(alpha);
            for &d in &dirs {
                forward.insert(d);
            }
            for &d in dirs.iter().rev() {
                backward.insert(d);
            }
            assert_eq!(forward.max_gap().to_bits(), backward.max_gap().to_bits());
            assert_eq!(forward.max_gap().to_bits(), max_gap(&dirs).to_bits());
            assert_eq!(forward.has_open_gap(), backward.has_open_gap());
            assert_eq!(forward.has_open_gap(), has_alpha_gap(&dirs, alpha));
        }
    }
}
