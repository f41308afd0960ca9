//! Algorithm RELATIONSHIP (§3.1): are two shots *related*?
//!
//! Two shots are related when they share similar backgrounds. The paper's
//! algorithm walks the first shot's frames once while cycling through the
//! second shot's frames, comparing one `Sign^BA` pair per step with Eq. 2:
//!
//! ```text
//! D_s = (max. difference in Sign^BA s / 256) × 100 %
//! ```
//!
//! and declares the shots related as soon as some pair has `D_s < 10 %`.
//! We reproduce the iteration literally — including its quirk that `i` and
//! `j` advance in lock-step (so at most `|A|` of the `|A|·|B|` pairs are
//! examined; the paper notes the average cost is much less than the
//! `O(|A|·|B|)` bound because the scan stops at the first related pair).

use crate::pixel::Rgb;

/// Eq. 2 relatedness threshold: `D_s < 10 %` ⇔ max channel diff `< 25.6`.
pub const RELATED_THRESHOLD_PERCENT: f64 = 10.0;

/// Eq. 2: the percentage difference between two background signs.
#[inline]
pub fn d_s(a: Rgb, b: Rgb) -> f64 {
    a.percent_diff(b)
}

/// Algorithm RELATIONSHIP with the paper's exact iteration and threshold.
///
/// `a` and `b` are the per-frame `Sign^BA` sequences of the two shots.
pub fn shots_related(a: &[Rgb], b: &[Rgb]) -> bool {
    shots_related_with_threshold(a, b, RELATED_THRESHOLD_PERCENT)
}

/// Algorithm RELATIONSHIP with an explicit `D_s` threshold (exposed for the
/// sensitivity-sweep experiments).
pub fn shots_related_with_threshold(a: &[Rgb], b: &[Rgb], threshold_percent: f64) -> bool {
    if a.is_empty() || b.is_empty() {
        return false;
    }
    // Step 1: i <- 1, j <- 1 (0-based here).
    let mut i = 0usize;
    let mut j = 0usize;
    loop {
        // Step 2 & 3: compare, stop if related.
        if d_s(a[i], b[j]) < threshold_percent {
            return true;
        }
        // Step 4: advance i; stop when A is exhausted; cycle j through B.
        i += 1;
        if i >= a.len() {
            return false;
        }
        j += 1;
        if j >= b.len() {
            j = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference: the pair `(i, j)` (0-based frame offsets) at which
    /// RELATIONSHIP's lock-step scan first succeeds, or `None`.
    fn first_related_pair(a: &[Rgb], b: &[Rgb], threshold_percent: f64) -> Option<(usize, usize)> {
        if a.is_empty() || b.is_empty() {
            return None;
        }
        let mut i = 0usize;
        let mut j = 0usize;
        loop {
            if d_s(a[i], b[j]) < threshold_percent {
                return Some((i, j));
            }
            i += 1;
            if i >= a.len() {
                return None;
            }
            j += 1;
            if j >= b.len() {
                j = 0;
            }
        }
    }

    #[test]
    fn identical_backgrounds_related_immediately() {
        let a = vec![Rgb::new(100, 120, 90); 5];
        let b = vec![Rgb::new(101, 119, 92); 7];
        assert!(shots_related(&a, &b));
        assert_eq!(first_related_pair(&a, &b, 10.0), Some((0, 0)));
    }

    #[test]
    fn threshold_is_strict_inequality() {
        // D_s exactly 10% (max diff 25.6 is not attainable with integers;
        // 26/256 = 10.15% > 10%, 25/256 = 9.77% < 10%).
        let a = [Rgb::gray(100)];
        let just_related = [Rgb::gray(125)]; // diff 25 -> 9.77%
        let not_related = [Rgb::gray(126)]; // diff 26 -> 10.16%
        assert!(shots_related(&a, &just_related));
        assert!(!shots_related(&a, &not_related));
    }

    #[test]
    fn lockstep_iteration_can_miss_pairs() {
        // Documented quirk: a related pair exists at (0, 1) but the
        // lock-step scan only visits (0,0), (1,1), (2,0) for |A|=3, |B|=2.
        let a = [Rgb::gray(0), Rgb::gray(0), Rgb::gray(0)];
        let b = [Rgb::gray(200), Rgb::gray(10)];
        // Visited pairs: (0,200) diff 200; (0,10) diff 10 -> related!
        // (i=1 pairs with j=1.)
        assert!(shots_related(&a, &b));
        // Now make the only related value sit where lock-step never looks:
        // |A| = 2, |B| = 3: visited pairs are (0,0), (1,1).
        let a2 = [Rgb::gray(0), Rgb::gray(0)];
        let b2 = [Rgb::gray(200), Rgb::gray(180), Rgb::gray(5)];
        assert!(
            !shots_related(&a2, &b2),
            "lock-step scan must not find the pair at (·, 2)"
        );
    }

    #[test]
    fn empty_shots_are_unrelated() {
        let a = [Rgb::gray(0)];
        assert!(!shots_related(&a, &[]));
        assert!(!shots_related(&[], &a));
        assert!(!shots_related(&[], &[]));
    }

    #[test]
    fn wrapping_j_revisits_b() {
        // |A| = 5, |B| = 2: j cycles 0,1,0,1,0 while i walks 0..5; the
        // related value at b[0] is found when i = 2.
        let a = [
            Rgb::gray(100),
            Rgb::gray(100),
            Rgb::gray(0),
            Rgb::gray(100),
            Rgb::gray(100),
        ];
        let b = [Rgb::gray(10), Rgb::gray(200)];
        assert_eq!(first_related_pair(&a, &b, 10.0), Some((2, 0)));
    }

    #[test]
    fn custom_threshold() {
        let a = [Rgb::gray(0)];
        let b = [Rgb::gray(100)]; // D_s = 39.06%
        assert!(!shots_related_with_threshold(&a, &b, 30.0));
        assert!(shots_related_with_threshold(&a, &b, 40.0));
    }

    proptest! {
        #[test]
        fn prop_related_implies_witness(
            a in prop::collection::vec(any::<[u8;3]>(), 1..16),
            b in prop::collection::vec(any::<[u8;3]>(), 1..16),
        ) {
            let a: Vec<Rgb> = a.into_iter().map(Rgb).collect();
            let b: Vec<Rgb> = b.into_iter().map(Rgb).collect();
            let related = shots_related(&a, &b);
            let witness = first_related_pair(&a, &b, 10.0);
            prop_assert_eq!(related, witness.is_some());
            if let Some((i, j)) = witness {
                prop_assert!(d_s(a[i], b[j]) < 10.0);
            }
        }

        #[test]
        fn prop_self_related(a in prop::collection::vec(any::<[u8;3]>(), 1..16)) {
            let a: Vec<Rgb> = a.into_iter().map(Rgb).collect();
            // Pair (0, 0) compares a frame with itself: D_s = 0 < 10%.
            prop_assert!(shots_related(&a, &a));
        }

        #[test]
        fn prop_visited_pairs_bounded_by_len_a(
            a in prop::collection::vec(any::<[u8;3]>(), 1..16),
            b in prop::collection::vec(any::<[u8;3]>(), 1..16),
        ) {
            let a: Vec<Rgb> = a.into_iter().map(Rgb).collect();
            let b: Vec<Rgb> = b.into_iter().map(Rgb).collect();
            if let Some((i, _)) = first_related_pair(&a, &b, 10.0) {
                prop_assert!(i < a.len());
            }
        }
    }
}
