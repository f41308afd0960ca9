//! Recall / precision for shot boundary detection (§5.1).
//!
//! Following the paper (and the IR convention it cites \[27\]):
//!
//! * **recall** — correctly detected shot changes ÷ actual shot changes;
//! * **precision** — correctly detected ÷ total detected.
//!
//! A detected boundary is *correct* when it falls within a small tolerance
//! window of an actual boundary (gradual transitions make the exact frame
//! ambiguous; the literature scores with a window). Matching is one-to-one
//! and greedy in temporal order, so a burst of detections around one true
//! cut earns one true positive and the rest count as false alarms.

/// Outcome counts of one detection run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectionEval {
    /// Detected boundaries matched to a true boundary.
    pub true_positives: usize,
    /// Detected boundaries with no true boundary nearby.
    pub false_positives: usize,
    /// True boundaries no detection matched.
    pub false_negatives: usize,
}

impl DetectionEval {
    /// Recall in `\[0, 1\]`; 1.0 when there were no true boundaries.
    pub fn recall(&self) -> f64 {
        let actual = self.true_positives + self.false_negatives;
        if actual == 0 {
            1.0
        } else {
            self.true_positives as f64 / actual as f64
        }
    }

    /// Precision in `\[0, 1\]`; 1.0 when nothing was detected.
    pub fn precision(&self) -> f64 {
        let detected = self.true_positives + self.false_positives;
        if detected == 0 {
            1.0
        } else {
            self.true_positives as f64 / detected as f64
        }
    }

    /// Harmonic mean of recall and precision.
    pub fn f1(&self) -> f64 {
        let r = self.recall();
        let p = self.precision();
        if r + p == 0.0 {
            0.0
        } else {
            2.0 * r * p / (r + p)
        }
    }

    /// Pool counts from another run (for corpus totals, like Table 5's
    /// bottom row).
    pub fn merge(&mut self, other: DetectionEval) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
    }
}

/// Match `detected` boundaries against `truth` with a tolerance window of
/// ± `tolerance` frames. Both inputs must be ascending.
pub fn evaluate_boundaries(truth: &[usize], detected: &[usize], tolerance: usize) -> DetectionEval {
    debug_assert!(truth.windows(2).all(|w| w[0] < w[1]), "truth must ascend");
    debug_assert!(
        detected.windows(2).all(|w| w[0] < w[1]),
        "detections must ascend"
    );
    let mut eval = DetectionEval::default();
    let mut ti = 0usize;
    let mut di = 0usize;
    while ti < truth.len() && di < detected.len() {
        let t = truth[ti];
        let d = detected[di];
        if d + tolerance < t {
            // Detection too early for this truth: false positive.
            eval.false_positives += 1;
            di += 1;
        } else if t + tolerance < d {
            // Truth passed unmatched: miss.
            eval.false_negatives += 1;
            ti += 1;
        } else {
            eval.true_positives += 1;
            ti += 1;
            di += 1;
        }
    }
    eval.false_positives += detected.len() - di;
    eval.false_negatives += truth.len() - ti;
    eval
}

/// Convenience: evaluate and return `(recall, precision)`.
pub fn recall_precision(truth: &[usize], detected: &[usize], tolerance: usize) -> (f64, f64) {
    let e = evaluate_boundaries(truth, detected, tolerance);
    (e.recall(), e.precision())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_detection() {
        let t = [10, 20, 30];
        let e = evaluate_boundaries(&t, &t, 0);
        assert_eq!(e.true_positives, 3);
        assert_eq!(e.recall(), 1.0);
        assert_eq!(e.precision(), 1.0);
        assert_eq!(e.f1(), 1.0);
    }

    #[test]
    fn nothing_detected() {
        let e = evaluate_boundaries(&[5, 15], &[], 2);
        assert_eq!(e.false_negatives, 2);
        assert_eq!(e.recall(), 0.0);
        assert_eq!(e.precision(), 1.0, "no detections, no false alarms");
        assert_eq!(e.f1(), 0.0);
    }

    #[test]
    fn no_truth_all_false_alarms() {
        let e = evaluate_boundaries(&[], &[3, 9], 2);
        assert_eq!(e.false_positives, 2);
        assert_eq!(e.recall(), 1.0);
        assert_eq!(e.precision(), 0.0);
    }

    #[test]
    fn tolerance_window_matches_offsets() {
        let e = evaluate_boundaries(&[100], &[102], 2);
        assert_eq!(e.true_positives, 1);
        let e = evaluate_boundaries(&[100], &[103], 2);
        assert_eq!(e.true_positives, 0);
        assert_eq!(e.false_positives, 1);
        assert_eq!(e.false_negatives, 1);
        // Early detections match too.
        let e = evaluate_boundaries(&[100], &[98], 2);
        assert_eq!(e.true_positives, 1);
    }

    #[test]
    fn one_to_one_matching_burst() {
        // Three detections around one true cut: 1 TP + 2 FP.
        let e = evaluate_boundaries(&[50], &[49, 50, 51], 2);
        assert_eq!(e.true_positives, 1);
        assert_eq!(e.false_positives, 2);
        assert_eq!(e.false_negatives, 0);
    }

    #[test]
    fn interleaved_sequences() {
        let truth = [10, 30, 50, 70];
        let detected = [11, 29, 55, 90];
        let e = evaluate_boundaries(&truth, &detected, 2);
        // 11~10 TP, 29~30 TP, 55 misses 50 (|5|>2) -> FP + FN, 90 FP, 70 FN.
        assert_eq!(e.true_positives, 2);
        assert_eq!(e.false_positives, 2);
        assert_eq!(e.false_negatives, 2);
        assert!((e.recall() - 0.5).abs() < 1e-12);
        assert!((e.precision() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_pools_counts() {
        let mut a = evaluate_boundaries(&[10], &[10], 0);
        let b = evaluate_boundaries(&[10], &[99], 0);
        a.merge(b);
        assert_eq!(a.true_positives, 1);
        assert_eq!(a.false_positives, 1);
        assert_eq!(a.false_negatives, 1);
        assert!((a.recall() - 0.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_counts_are_consistent(
            truth_gaps in prop::collection::vec(1usize..30, 0..20),
            det_gaps in prop::collection::vec(1usize..30, 0..20),
            tol in 0usize..4,
        ) {
            let truth: Vec<usize> = truth_gaps.iter().scan(0usize, |s, g| { *s += g; Some(*s) }).collect();
            let detected: Vec<usize> = det_gaps.iter().scan(0usize, |s, g| { *s += g; Some(*s) }).collect();
            let e = evaluate_boundaries(&truth, &detected, tol);
            prop_assert_eq!(e.true_positives + e.false_negatives, truth.len());
            prop_assert_eq!(e.true_positives + e.false_positives, detected.len());
            prop_assert!((0.0..=1.0).contains(&e.recall()));
            prop_assert!((0.0..=1.0).contains(&e.precision()));
            prop_assert!((0.0..=1.0).contains(&e.f1()));
        }

        #[test]
        fn prop_self_detection_is_perfect(
            gaps in prop::collection::vec(1usize..40, 1..20),
            tol in 0usize..5,
        ) {
            let truth: Vec<usize> = gaps.iter().scan(0usize, |s, g| { *s += g; Some(*s) }).collect();
            let e = evaluate_boundaries(&truth, &truth, tol);
            prop_assert_eq!(e.recall(), 1.0);
            prop_assert_eq!(e.precision(), 1.0);
        }

        #[test]
        fn prop_wider_tolerance_never_reduces_tp(
            truth_gaps in prop::collection::vec(5usize..40, 0..12),
            det_gaps in prop::collection::vec(5usize..40, 0..12),
        ) {
            let truth: Vec<usize> = truth_gaps.iter().scan(0usize, |s, g| { *s += g; Some(*s) }).collect();
            let detected: Vec<usize> = det_gaps.iter().scan(0usize, |s, g| { *s += g; Some(*s) }).collect();
            let tight = evaluate_boundaries(&truth, &detected, 0);
            let loose = evaluate_boundaries(&truth, &detected, 2);
            prop_assert!(loose.true_positives >= tight.true_positives);
        }
    }
}
