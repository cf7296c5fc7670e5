//! Angular coverage sets: the `coverα(dir)` operator of §3.1.
//!
//! The shrink-back optimization lets a boundary node drop its
//! highest-power discovery rounds *as long as the angular coverage does not
//! change*. Coverage of a direction set `dir` under degree `α` is
//!
//! ```text
//! coverα(dir) = { θ : ∃ θ′ ∈ dir,  |θ − θ′| mod 2π ≤ α/2 }
//! ```
//!
//! i.e. the union of closed arcs of width `α` centered at each direction.
//! [`ArcSet`] represents such unions canonically so that coverage equality
//! (`coverα(dir_i) = coverα(dir_k)`) can be decided exactly.

use std::f64::consts::TAU;
use std::fmt;

use crate::{Alpha, Angle, EPS};

/// A canonical union of closed arcs on the unit circle.
///
/// Invariants: arcs are stored sorted by start angle, pairwise disjoint and
/// non-touching (touching arcs are merged), with at most one arc wrapping
/// through `2π` (stored with `end > 2π`). The full circle is a dedicated
/// state.
///
/// # Example
///
/// ```
/// use cbtc_geom::{Alpha, Angle, coverage::ArcSet};
/// use std::f64::consts::PI;
///
/// let dirs = [Angle::ZERO, Angle::new(PI)];
/// let cover = ArcSet::cover(&dirs, Alpha::new(PI)?);
/// assert!(cover.is_full()); // two arcs of width π centered 0 and π
/// # Ok::<(), cbtc_geom::InvalidAlphaError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArcSet {
    /// `(start, end)` pairs with `0 ≤ start < 2π`, `start < end ≤ start+2π`.
    /// Empty with `full == true` means the entire circle.
    arcs: Vec<(f64, f64)>,
    full: bool,
}

impl ArcSet {
    /// The empty set.
    pub fn empty() -> Self {
        ArcSet {
            arcs: Vec::new(),
            full: false,
        }
    }

    /// The full circle.
    pub fn full_circle() -> Self {
        ArcSet {
            arcs: Vec::new(),
            full: true,
        }
    }

    /// Builds an arc set from raw `(start, width)` arcs.
    ///
    /// Arcs of non-positive width are ignored; widths of `2π` or more make
    /// the set the full circle.
    pub fn from_arcs<I>(arcs: I) -> Self
    where
        I: IntoIterator<Item = (Angle, f64)>,
    {
        let mut set = ArcSet::empty();
        set.assign_arcs(arcs, &mut Vec::new());
        set
    }

    /// The paper's `coverα(dir)`: the union of closed arcs of width `α`
    /// centered at each direction in `dirs`.
    pub fn cover(dirs: &[Angle], alpha: Alpha) -> Self {
        let mut set = ArcSet::empty();
        set.assign_cover(dirs, alpha, &mut Vec::new());
        set
    }

    /// Overwrites this set with [`ArcSet::cover`]`(dirs, alpha)` — the
    /// same arithmetic, reusing this set's storage and the caller's span
    /// buffer instead of allocating both, for loops that test many
    /// covers (shrink-back walks one per distance prefix).
    pub fn assign_cover(&mut self, dirs: &[Angle], alpha: Alpha, spans: &mut Vec<(f64, f64)>) {
        let half = alpha.half();
        self.assign_arcs(
            dirs.iter().map(|d| (d.rotated(-half), alpha.radians())),
            spans,
        );
    }

    fn assign_arcs<I>(&mut self, arcs: I, spans: &mut Vec<(f64, f64)>)
    where
        I: IntoIterator<Item = (Angle, f64)>,
    {
        spans.clear();
        for (start, width) in arcs {
            if width <= 0.0 {
                continue;
            }
            if width >= TAU - EPS {
                self.set_full();
                return;
            }
            let s = start.radians();
            spans.push((s, s + width));
        }
        self.normalize(spans);
    }

    fn set_full(&mut self) {
        self.arcs.clear();
        self.full = true;
    }

    /// Sets this set to the union of `spans` (sorted in place).
    fn normalize(&mut self, spans: &mut [(f64, f64)]) {
        self.full = false;
        let merged = &mut self.arcs;
        merged.clear();
        if spans.is_empty() {
            return;
        }
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Linear merge of overlapping or touching spans.
        for &(s, e) in spans.iter() {
            match merged.last_mut() {
                Some(last) if s <= last.1 + EPS => {
                    last.1 = last.1.max(e);
                }
                _ => merged.push((s, e)),
            }
        }
        // Fold the wrap-around of the final span onto the front spans.
        let (first_s, _) = merged[0];
        let last = merged.len() - 1;
        if merged[last].1 >= TAU {
            let overhang = merged[last].1 - TAU;
            if overhang + EPS >= first_s {
                // The wrapping span reaches (or passes) the first span:
                // absorb front spans until a real gap appears.
                let mut reach = overhang;
                let mut absorbed = 0;
                for &(s, e) in merged.iter().take(last) {
                    if s <= reach + EPS {
                        reach = reach.max(e);
                        absorbed += 1;
                    } else {
                        break;
                    }
                }
                if absorbed == last || reach + EPS >= merged[last].0 {
                    // Everything merged into one circuit: check fullness.
                    if reach + TAU + EPS >= merged[last].0 + TAU && merged[last].0 <= reach + EPS {
                        self.set_full();
                        return;
                    }
                }
                merged[last].1 = reach + TAU;
                merged.drain(..absorbed);
                // Re-check fullness: the remaining wrap arc may now span 2π.
                let n = merged.len();
                if n == 1 && merged[0].1 - merged[0].0 >= TAU - EPS {
                    self.set_full();
                    return;
                }
            }
        }
        // Move a wrapping arc to the end if normalization reordered things.
        merged.sort_by(|a, b| a.0.total_cmp(&b.0));
    }

    /// Whether this set is the full circle.
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Whether this set is empty.
    pub fn is_empty(&self) -> bool {
        !self.full && self.arcs.is_empty()
    }

    /// Total angular measure covered, in `[0, 2π]`.
    pub fn measure(&self) -> f64 {
        if self.full {
            TAU
        } else {
            self.arcs.iter().map(|(s, e)| e - s).sum()
        }
    }

    /// Number of disjoint arcs (0 for empty, and 1 for the full circle).
    pub fn arc_count(&self) -> usize {
        if self.full {
            1
        } else {
            self.arcs.len()
        }
    }

    /// Whether the angle `theta` is covered.
    pub fn contains(&self, theta: Angle) -> bool {
        if self.full {
            return true;
        }
        let t = theta.radians();
        self.arcs
            .iter()
            .any(|&(s, e)| (t >= s - EPS && t <= e + EPS) || t + TAU <= e + EPS)
    }

    /// Whether the closed arc starting at `start` with width `width` is
    /// entirely covered.
    ///
    /// Because stored arcs are disjoint with real gaps between them, a
    /// contiguous query arc is covered iff a single stored arc contains it.
    pub fn contains_arc(&self, start: Angle, width: f64) -> bool {
        if self.full {
            return true;
        }
        if width <= 0.0 {
            return self.contains(start);
        }
        if width >= TAU - EPS {
            return false; // a non-full set cannot cover the whole circle
        }
        let qs = start.radians();
        let qe = qs + width;
        for &(s, e) in &self.arcs {
            for shift in [0.0, TAU] {
                if qs + shift >= s - EPS && qe + shift <= e + EPS {
                    return true;
                }
            }
        }
        false
    }

    /// Whether every arc of `other` is covered by `self`.
    pub fn covers(&self, other: &ArcSet) -> bool {
        if self.full {
            return true;
        }
        if other.full {
            return false;
        }
        other
            .arcs
            .iter()
            .all(|&(s, e)| self.contains_arc(Angle::new(s.rem_euclid(TAU)), e - s))
    }

    /// Whether two arc sets cover the same angles (mutual inclusion, with
    /// [`EPS`] tolerance at arc endpoints).
    pub fn same_coverage(&self, other: &ArcSet) -> bool {
        self.covers(other) && other.covers(self)
    }
}

impl Default for ArcSet {
    fn default() -> Self {
        ArcSet::empty()
    }
}

impl fmt::Display for ArcSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.full {
            return write!(f, "[full circle]");
        }
        if self.arcs.is_empty() {
            return write!(f, "[empty]");
        }
        let parts: Vec<String> = self
            .arcs
            .iter()
            .map(|(s, e)| format!("[{s:.4}, {e:.4}]"))
            .collect();
        write!(f, "{}", parts.join(" ∪ "))
    }
}

/// Convenience wrapper: `coverα(dirs_a) = coverα(dirs_b)`.
///
/// This is the exact test the shrink-back phase performs when deciding how
/// many power levels can be dropped.
pub fn same_cover(dirs_a: &[Angle], dirs_b: &[Angle], alpha: Alpha) -> bool {
    ArcSet::cover(dirs_a, alpha).same_coverage(&ArcSet::cover(dirs_b, alpha))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gap::has_alpha_gap;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn angles(v: &[f64]) -> Vec<Angle> {
        v.iter().copied().map(Angle::new).collect()
    }

    #[test]
    fn empty_and_full() {
        let e = ArcSet::empty();
        assert!(e.is_empty());
        assert_eq!(e.measure(), 0.0);
        assert!(!e.contains(Angle::ZERO));
        let f = ArcSet::full_circle();
        assert!(f.is_full());
        assert_eq!(f.measure(), TAU);
        assert!(f.contains(Angle::new(3.0)));
        assert!(f.covers(&e));
        assert!(!e.covers(&f));
    }

    #[test]
    fn single_arc_membership() {
        let a = ArcSet::from_arcs([(Angle::new(1.0), 0.5)]);
        assert!(a.contains(Angle::new(1.0)));
        assert!(a.contains(Angle::new(1.25)));
        assert!(a.contains(Angle::new(1.5)));
        assert!(!a.contains(Angle::new(1.6)));
        assert!(!a.contains(Angle::new(0.9)));
        assert!((a.measure() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlapping_arcs_merge() {
        let a = ArcSet::from_arcs([(Angle::new(0.0), 1.0), (Angle::new(0.5), 1.0)]);
        assert_eq!(a.arc_count(), 1);
        assert!((a.measure() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn touching_arcs_merge() {
        let a = ArcSet::from_arcs([(Angle::new(0.0), 1.0), (Angle::new(1.0), 1.0)]);
        assert_eq!(a.arc_count(), 1);
        assert!((a.measure() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_arcs_stay_disjoint() {
        let a = ArcSet::from_arcs([(Angle::new(0.0), 0.5), (Angle::new(2.0), 0.5)]);
        assert_eq!(a.arc_count(), 2);
        assert!((a.measure() - 1.0).abs() < 1e-12);
        assert!(!a.contains(Angle::new(1.0)));
    }

    #[test]
    fn wraparound_arc_membership() {
        // Arc from 350° spanning 20°: covers 355° and 5°.
        let a = ArcSet::from_arcs([(Angle::from_degrees(350.0), 20f64.to_radians())]);
        assert!(a.contains(Angle::from_degrees(355.0)));
        assert!(a.contains(Angle::from_degrees(5.0)));
        assert!(!a.contains(Angle::from_degrees(15.0)));
        assert!(!a.contains(Angle::from_degrees(345.0)));
    }

    #[test]
    fn wraparound_merges_with_front_arc() {
        // [350°, 10°] and [5°, 30°] must merge into [350°, 30°].
        let a = ArcSet::from_arcs([
            (Angle::from_degrees(350.0), 20f64.to_radians()),
            (Angle::from_degrees(5.0), 25f64.to_radians()),
        ]);
        assert_eq!(a.arc_count(), 1);
        assert!((a.measure() - 40f64.to_radians()).abs() < 1e-9);
        assert!(a.contains(Angle::from_degrees(25.0)));
        assert!(!a.contains(Angle::from_degrees(31.0)));
    }

    #[test]
    fn arcs_covering_whole_circle_become_full() {
        let a = ArcSet::from_arcs([
            (Angle::new(0.0), 2.5),
            (Angle::new(2.0), 2.5),
            (Angle::new(4.0), 2.5),
        ]);
        assert!(a.is_full());
    }

    #[test]
    fn cover_full_circle_iff_no_alpha_gap() {
        // The bridge between gap detection and coverage: coverα(dir) is the
        // full circle iff there is no α-gap.
        let alpha = Alpha::TWO_PI_THIRDS;
        let no_gap = angles(&[0.0, 2.0, 4.0]); // max gap ≈ 2.28 > 2π/3? 2π−4 ≈ 2.28 > 2.094 — gap!
        let gapped = has_alpha_gap(&no_gap, alpha);
        assert_eq!(!ArcSet::cover(&no_gap, alpha).is_full(), gapped);

        let tight = angles(&[0.0, TAU / 3.0, 2.0 * TAU / 3.0]);
        assert!(!has_alpha_gap(&tight, alpha));
        assert!(ArcSet::cover(&tight, alpha).is_full());
    }

    #[test]
    fn contains_arc_within_and_across() {
        let a = ArcSet::from_arcs([(Angle::new(1.0), 1.0)]);
        assert!(a.contains_arc(Angle::new(1.2), 0.5));
        assert!(a.contains_arc(Angle::new(1.0), 1.0));
        assert!(!a.contains_arc(Angle::new(1.2), 1.0));
        // Wrapping query against a wrapping arc.
        let w = ArcSet::from_arcs([(Angle::from_degrees(340.0), 40f64.to_radians())]);
        assert!(w.contains_arc(Angle::from_degrees(350.0), 20f64.to_radians()));
        assert!(!w.contains_arc(Angle::from_degrees(350.0), 40f64.to_radians()));
    }

    #[test]
    fn same_cover_detects_redundant_directions() {
        let alpha = Alpha::FIVE_PI_SIXTHS;
        // A direction in the middle of an already-covered arc adds nothing.
        let base = angles(&[0.0, 1.0]);
        let with_extra = angles(&[0.0, 0.5, 1.0]);
        assert!(same_cover(&base, &with_extra, alpha));
        // A far-away direction does add coverage.
        let with_far = angles(&[0.0, 1.0, PI]);
        assert!(!same_cover(&base, &with_far, alpha));
    }

    #[test]
    fn coverage_subset_relation() {
        let alpha = Alpha::TWO_PI_THIRDS;
        let small = ArcSet::cover(&angles(&[0.0]), alpha);
        let big = ArcSet::cover(&angles(&[0.0, FRAC_PI_2]), alpha);
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
        assert!(small.covers(&small.clone()));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ArcSet::full_circle().to_string(), "[full circle]");
        assert_eq!(ArcSet::empty().to_string(), "[empty]");
        let a = ArcSet::from_arcs([(Angle::new(0.0), 1.0)]);
        assert!(a.to_string().contains("∪") || a.to_string().contains("[0.0000"));
    }
}
