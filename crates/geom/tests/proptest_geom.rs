//! Property-based tests of the geometry substrate.

use std::f64::consts::{FRAC_PI_4, TAU};

use cbtc_geom::coverage::ArcSet;
use cbtc_geom::gap::{has_alpha_gap, max_gap, widest_gap, FlatGapTracker};
use cbtc_geom::triangle::{angle_at, largest_angle_faces_largest_side};
use cbtc_geom::{Alpha, Angle, Cone, Point2};
use proptest::prelude::*;

fn angles(max_len: usize) -> impl Strategy<Value = Vec<Angle>> {
    proptest::collection::vec(0.0f64..TAU, 0..max_len)
        .prop_map(|v| v.into_iter().map(Angle::new).collect())
}

fn alphas() -> impl Strategy<Value = Alpha> {
    (0.05f64..TAU).prop_map(|a| Alpha::new(a).unwrap())
}

/// Either of the paper's two α values exactly, or a uniform one.
fn paper_biased_alphas() -> impl Strategy<Value = Alpha> {
    (0u8..5, 0.05f64..TAU).prop_map(|(sel, a)| match sel {
        0 => Alpha::TWO_PI_THIRDS,
        1 => Alpha::FIVE_PI_SIXTHS,
        _ => Alpha::new(a).unwrap(),
    })
}

/// Directions biased toward exact ties: multiples of π/4 (the axis rays
/// and diagonals), mixed with uniform ones.
fn biased_angles(max_len: usize) -> impl Strategy<Value = Vec<Angle>> {
    let direction = (0u8..12, 0.0f64..TAU).prop_map(|(sel, a)| {
        Angle::new(if sel < 8 {
            f64::from(sel) * FRAC_PI_4
        } else {
            a
        })
    });
    proptest::collection::vec(direction, 0..max_len)
}

fn points() -> impl Strategy<Value = Point2> {
    (-1000.0f64..1000.0, -1000.0f64..1000.0).prop_map(|(x, y)| Point2::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn angle_normalization_in_range(raw in -1e6f64..1e6) {
        let a = Angle::new(raw);
        prop_assert!(a.radians() >= 0.0);
        prop_assert!(a.radians() < TAU);
        // Adding full turns never changes the normalized value (beyond fp).
        let b = Angle::new(raw + TAU);
        prop_assert!(a.circular_distance(b) < 1e-6);
    }

    #[test]
    fn circular_distance_is_a_metric(x in 0.0f64..TAU, y in 0.0f64..TAU, z in 0.0f64..TAU) {
        let (a, b, c) = (Angle::new(x), Angle::new(y), Angle::new(z));
        prop_assert!((a.circular_distance(b) - b.circular_distance(a)).abs() < 1e-12);
        prop_assert!(a.circular_distance(a) == 0.0);
        prop_assert!(a.circular_distance(b) <= std::f64::consts::PI + 1e-12);
        // Triangle inequality.
        prop_assert!(
            a.circular_distance(c) <= a.circular_distance(b) + b.circular_distance(c) + 1e-9
        );
    }

    #[test]
    fn ccw_arcs_around_the_circle_sum_to_tau(x in 0.0f64..TAU, y in 0.0f64..TAU) {
        let (a, b) = (Angle::new(x), Angle::new(y));
        prop_assume!(a != b);
        prop_assert!((a.ccw_to(b) + b.ccw_to(a) - TAU).abs() < 1e-9);
    }

    #[test]
    fn max_gap_is_rotation_invariant(dirs in angles(24), shift in 0.0f64..TAU) {
        prop_assume!(!dirs.is_empty());
        let rotated: Vec<Angle> = dirs.iter().map(|d| d.rotated(shift)).collect();
        prop_assert!((max_gap(&dirs) - max_gap(&rotated)).abs() < 1e-6);
    }

    #[test]
    fn gaps_sum_to_tau(dirs in angles(24)) {
        prop_assume!(dirs.len() >= 2);
        let mut sorted = dirs.clone();
        sorted.sort();
        sorted.dedup();
        prop_assume!(sorted.len() >= 2);
        let total: f64 = (0..sorted.len())
            .map(|i| sorted[i].ccw_to(sorted[(i + 1) % sorted.len()]))
            .sum();
        prop_assert!((total - TAU).abs() < 1e-9);
        prop_assert!(max_gap(&sorted) <= TAU);
        prop_assert!(max_gap(&sorted) >= TAU / sorted.len() as f64 - 1e-9);
    }

    #[test]
    fn adding_a_direction_never_widens_the_gap(dirs in angles(24), extra in 0.0f64..TAU) {
        let before = max_gap(&dirs);
        let mut more = dirs.clone();
        more.push(Angle::new(extra));
        prop_assert!(max_gap(&more) <= before + 1e-12);
    }

    #[test]
    fn widest_gap_agrees_with_max_gap(dirs in angles(24)) {
        prop_assume!(!dirs.is_empty());
        let (g, start) = widest_gap(&dirs).unwrap();
        prop_assert!((g - max_gap(&dirs)).abs() < 1e-12);
        // The reported start is one of the input directions.
        prop_assert!(dirs.contains(&start));
    }

    #[test]
    fn cover_measure_bounds(dirs in angles(16), alpha in alphas()) {
        let cover = ArcSet::cover(&dirs, alpha);
        let measure = cover.measure();
        prop_assert!((0.0..=TAU + 1e-9).contains(&measure));
        if dirs.is_empty() {
            prop_assert!(cover.is_empty());
        } else {
            // At least one arc's width, at most the sum of all widths.
            prop_assert!(measure >= alpha.radians().min(TAU) - 1e-9);
            prop_assert!(measure <= (dirs.len() as f64) * alpha.radians() + 1e-9);
        }
    }

    #[test]
    fn cover_contains_arc_centers_and_respects_gap_duality(
        dirs in angles(16),
        alpha in alphas(),
    ) {
        let cover = ArcSet::cover(&dirs, alpha);
        for d in &dirs {
            prop_assert!(cover.contains(*d));
        }
        let g = max_gap(&dirs);
        prop_assume!((g - alpha.radians()).abs() > 1e-6);
        prop_assert_eq!(cover.is_full(), !has_alpha_gap(&dirs, alpha));
    }

    #[test]
    fn cone_contains_its_target_and_boundary_symmetry(
        apex in points(),
        target in points(),
        alpha in alphas(),
    ) {
        prop_assume!(apex.distance(target) > 1e-6);
        let cone = Cone::bisected_by(apex, alpha, target);
        prop_assert!(cone.contains(target));
        // Mirroring the target across the bisector stays inside.
        let dir = apex.direction_to(target);
        let off = alpha.half() * 0.99;
        prop_assert!(cone.contains_direction(dir.rotated(off)));
        prop_assert!(cone.contains_direction(dir.rotated(-off)));
    }

    #[test]
    fn triangle_angles_sum_to_pi(a in points(), b in points(), c in points()) {
        prop_assume!(a.distance(b) > 1e-3 && b.distance(c) > 1e-3 && a.distance(c) > 1e-3);
        // Skip near-collinear triples where fp noise dominates.
        let area2 = ((b - a).cross(c - a)).abs();
        prop_assume!(area2 > 1e-3);
        let sum = angle_at(b, a, c) + angle_at(a, b, c) + angle_at(a, c, b);
        prop_assert!((sum - std::f64::consts::PI).abs() < 1e-6);
        prop_assert!(largest_angle_faces_largest_side(a, b, c));
    }

    #[test]
    fn direction_to_is_antisymmetric(a in points(), b in points()) {
        prop_assume!(a.distance(b) > 1e-6);
        let fwd = a.direction_to(b);
        let back = b.direction_to(a);
        prop_assert!(fwd.circular_distance(back.opposite()) < 1e-9);
    }

    /// The flat tracker the construction hot loop runs is **bit-identical**
    /// to the batch scan — same max gap bits and same verdict after every
    /// insertion, for every α — which is what lets the growing phase ask
    /// the α-gap question incrementally without changing one output bit.
    #[test]
    fn flat_tracker_bit_identical_to_batch_scan(
        raw in proptest::collection::vec(0.0f64..TAU, 0..32),
        alpha in paper_biased_alphas(),
    ) {
        let mut flat = FlatGapTracker::new(alpha);
        let mut prefix: Vec<Angle> = Vec::new();
        for r in raw {
            let dir = Angle::new(r);
            flat.insert(dir);
            prefix.push(dir);
            let mut distinct = prefix.clone();
            distinct.sort();
            distinct.dedup();
            prop_assert_eq!(flat.len(), distinct.len());
            prop_assert_eq!(flat.max_gap().to_bits(), max_gap(&prefix).to_bits());
            prop_assert_eq!(flat.has_open_gap(), has_alpha_gap(&prefix, alpha));
        }
    }

    /// Insertion order is irrelevant to the flat tracker: any permutation
    /// of the same direction set yields the same max gap bits and verdict.
    #[test]
    fn tracker_verdicts_are_order_independent(
        dirs in biased_angles(12),
        alpha in paper_biased_alphas(),
    ) {
        let mut forward = FlatGapTracker::new(alpha);
        let mut backward = FlatGapTracker::new(alpha);
        for &d in &dirs {
            forward.insert(d);
        }
        for &d in dirs.iter().rev() {
            backward.insert(d);
        }
        prop_assert_eq!(forward.max_gap().to_bits(), backward.max_gap().to_bits());
        prop_assert_eq!(forward.has_open_gap(), backward.has_open_gap());
        prop_assert_eq!(forward.len(), backward.len());
        prop_assert_eq!(forward.has_open_gap(), has_alpha_gap(&dirs, alpha));
    }
}
