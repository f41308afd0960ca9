//! Signatures and the stage-3 shift-and-match background tracking (§2.1,
//! Figure 4).
//!
//! A [`Signature`] is the one-row pyramid reduction of a frame's TBA. Two
//! frames of the same shot under camera motion have signatures that are
//! *shifted* copies of each other, so the tracker slides one signature over
//! the other one pixel at a time and, for every alignment, measures the
//! longest run of matching overlapping pixels. The running maximum over all
//! shifts ("how much the two images share the common background") is
//! compared against a threshold to decide whether the frames belong to the
//! same shot.
//!
//! Only a run longer than the running maximum can change it, so each
//! alignment is probed at intervals of one more than that maximum rather
//! than tested pixel by pixel; the result equals the every-pixel scan's.

use crate::pixel::Rgb;

/// A one-row pyramid signature (length is a size-set member, e.g. 253 for
/// 160×120 frames).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature(Vec<Rgb>);

impl Signature {
    /// Wrap a pixel line.
    pub fn new(pixels: Vec<Rgb>) -> Self {
        Signature(pixels)
    }

    /// Signature length.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the signature holds no pixels (never for real frames).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The pixels.
    #[inline]
    pub fn pixels(&self) -> &[Rgb] {
        &self.0
    }

    /// Mean absolute per-channel difference between two aligned signatures
    /// (no shifting). This is the stage-2 "quick" signature test: cheap,
    /// catches static-camera same-shot pairs long before the expensive
    /// tracking stage.
    ///
    /// # Panics
    /// Panics if lengths differ (all frames of a video share geometry).
    pub fn quick_diff(&self, other: &Signature) -> f64 {
        assert_eq!(self.len(), other.len(), "signatures must share length");
        if self.0.is_empty() {
            return 0.0;
        }
        let total: u64 = self
            .0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| u64::from(a.l1_dist(*b)))
            .sum();
        total as f64 / (self.0.len() as f64 * 3.0)
    }

    /// `max(floor, longest run)` of matching pixels between two aligned
    /// pixel slices: the longest run exactly when it is longer than
    /// `floor`, otherwise `floor`.
    ///
    /// Only a run longer than the best found so far can matter, and any
    /// run of `floor + 1` pixels after the last known mismatch contains
    /// the position `floor` pixels past it. So the loop probes there; a
    /// mismatch moves the start past the probe, and a match is extended
    /// both ways to its full run, which then raises the floor. With
    /// `floor = 0` every position is probed.
    fn run_over(a: &[Rgb], b: &[Rgb], tol: u8, floor: usize) -> usize {
        let n = a.len().min(b.len());
        let matches = |i: usize| a[i].matches_within(b[i], tol);
        let mut best = floor;
        // Every run still to find starts at or after `start`.
        let mut start = 0;
        while start + best < n {
            let probe = start + best;
            if !matches(probe) {
                start = probe + 1;
                continue;
            }
            let mut lo = probe;
            while lo > start && matches(lo - 1) {
                lo -= 1;
            }
            let mut hi = probe + 1;
            while hi < n && matches(hi) {
                hi += 1;
            }
            best = best.max(hi - lo);
            start = hi + 1;
        }
        best
    }

    /// Stage-3 background tracking: shift the two signatures toward each
    /// other one pixel at a time (both directions, up to `max_shift`), and
    /// return the best longest-run match found together with the shift that
    /// produced it.
    ///
    /// `tol` is the per-channel pixel-match tolerance. A shift of `s > 0`
    /// aligns `self[s..]` with `other[..n-s]` (i.e. `other` slid right);
    /// `s < 0` is the mirror case.
    pub fn track(&self, other: &Signature, tol: u8, max_shift: usize) -> TrackResult {
        assert_eq!(self.len(), other.len(), "signatures must share length");
        let n = self.len();
        if n == 0 {
            return TrackResult {
                best_run: 0,
                best_shift: 0,
                signature_len: 0,
            };
        }
        let max_shift = max_shift.min(n - 1);
        let mut best_run = Self::run_over(&self.0, &other.0, tol, 0);
        let mut best_shift: isize = 0;
        for s in 1..=max_shift {
            // `other` shifted right by s relative to `self`.
            let run = Self::run_over(&self.0[s..], &other.0[..n - s], tol, best_run);
            if run > best_run {
                best_run = run;
                best_shift = s as isize;
            }
            // `other` shifted left by s.
            let run = Self::run_over(&self.0[..n - s], &other.0[s..], tol, best_run);
            if run > best_run {
                best_run = run;
                best_shift = -(s as isize);
            }
        }
        TrackResult {
            best_run,
            best_shift,
            signature_len: n,
        }
    }

    /// Early-exit variant of [`Signature::track`] for detection: stops as
    /// soon as a run of at least `target_run` pixels is found, since the
    /// detector only needs to know whether the score clears its threshold
    /// (§6: "we are also studying techniques to speed up the video data
    /// segmentation process").
    ///
    /// The returned `best_run` is exact when below `target_run`; when the
    /// search exits early it is *some* run ≥ `target_run` (sufficient for a
    /// threshold decision, not necessarily the global maximum).
    pub fn track_until(
        &self,
        other: &Signature,
        tol: u8,
        max_shift: usize,
        target_run: usize,
    ) -> TrackResult {
        assert_eq!(self.len(), other.len(), "signatures must share length");
        let n = self.len();
        if n == 0 {
            return TrackResult {
                best_run: 0,
                best_shift: 0,
                signature_len: 0,
            };
        }
        let max_shift = max_shift.min(n - 1);
        let mut best_run = Self::run_over(&self.0, &other.0, tol, 0);
        let mut best_shift: isize = 0;
        if best_run >= target_run {
            return TrackResult {
                best_run,
                best_shift,
                signature_len: n,
            };
        }
        for s in 1..=max_shift {
            // Once the overlap is no longer than the best run found, no
            // further shift can improve the result.
            if n - s <= best_run {
                break;
            }
            let run = Self::run_over(&self.0[s..], &other.0[..n - s], tol, best_run);
            if run > best_run {
                best_run = run;
                best_shift = s as isize;
                if best_run >= target_run {
                    break;
                }
            }
            let run = Self::run_over(&self.0[..n - s], &other.0[s..], tol, best_run);
            if run > best_run {
                best_run = run;
                best_shift = -(s as isize);
                if best_run >= target_run {
                    break;
                }
            }
        }
        TrackResult {
            best_run,
            best_shift,
            signature_len: n,
        }
    }
}

/// Result of the stage-3 shift-and-match tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackResult {
    /// Longest run of matching overlapping pixels over all shifts tried.
    pub best_run: usize,
    /// The shift (in signature pixels) at which `best_run` occurred;
    /// positive means the second frame's content moved right.
    pub best_shift: isize,
    /// Signature length, for normalization.
    pub signature_len: usize,
}

impl TrackResult {
    /// `best_run / signature_len` in `\[0, 1\]`: the fraction of the
    /// background the two frames demonstrably share.
    pub fn score(&self) -> f64 {
        if self.signature_len == 0 {
            0.0
        } else {
            self.best_run as f64 / self.signature_len as f64
        }
    }
}

impl Signature {
    /// Resample this signature by `scale` (nearest-neighbor), keeping its
    /// length: content stretches (`scale > 1`, as after zooming in) or
    /// shrinks toward the center. Building block of the zoom-aware tracker.
    pub fn rescaled(&self, scale: f64) -> Signature {
        assert!(scale > 0.0, "scale must be positive");
        let n = self.0.len();
        if n == 0 {
            return self.clone();
        }
        let center = (n as f64 - 1.0) / 2.0;
        let pixels = (0..n)
            .map(|i| {
                let src = center + (i as f64 - center) / scale;
                let idx = src.round().clamp(0.0, n as f64 - 1.0) as usize;
                self.0[idx]
            })
            .collect();
        Signature::new(pixels)
    }

    /// Zoom-aware tracking (an extension beyond the paper, §6 direction):
    /// try the plain shift search and, additionally, shift searches against
    /// rescaled copies of `self` at each ratio in `scales` — a camera zoom
    /// rescales the background strip, which pure shifting cannot follow.
    /// Returns the best result over all attempted scales.
    pub fn track_multiscale(
        &self,
        other: &Signature,
        tol: u8,
        max_shift: usize,
        scales: &[f64],
    ) -> TrackResult {
        let mut best = self.track(other, tol, max_shift);
        for &scale in scales {
            let r = self.rescaled(scale).track(other, tol, max_shift);
            if r.best_run > best.best_run {
                best = r;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sig_from(values: &[u8]) -> Signature {
        Signature::new(values.iter().map(|&v| Rgb::gray(v)).collect())
    }

    #[test]
    fn quick_diff_zero_for_identical() {
        let s = sig_from(&[1, 2, 3, 4, 5]);
        assert_eq!(s.quick_diff(&s), 0.0);
    }

    #[test]
    fn quick_diff_uniform_offset() {
        let a = sig_from(&[10, 20, 30, 40, 50]);
        let b = sig_from(&[15, 25, 35, 45, 55]);
        assert!((a.quick_diff(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn identical_signatures_track_with_full_run_at_zero_shift() {
        let s = sig_from(&[5, 9, 14, 200, 30, 77, 4, 4, 8, 250, 13, 1, 90]);
        let r = s.track(&s, 0, s.len());
        assert_eq!(r.best_run, s.len());
        assert_eq!(r.best_shift, 0);
        assert!((r.score() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shifted_signature_found_at_correct_shift() {
        // b is a shifted-by-3 copy of a (camera pan); the tracker must find
        // a long run at shift 3 (new content enters at one edge, so the run
        // is n - 3).
        let base: Vec<u8> = (0..32).map(|i| (i * 23 % 251) as u8).collect();
        let n = 24;
        let a = sig_from(&base[0..n]);
        let b = sig_from(&base[3..n + 3]);
        let r = a.track(&b, 0, n);
        assert_eq!(r.best_run, n - 3);
        assert_eq!(r.best_shift.unsigned_abs(), 3);
    }

    #[test]
    fn opposite_shift_direction_detected() {
        let base: Vec<u8> = (0..32).map(|i| (i * 31 % 211) as u8).collect();
        let n = 24;
        let a = sig_from(&base[4..n + 4]);
        let b = sig_from(&base[0..n]);
        let r1 = a.track(&b, 0, n);
        let r2 = b.track(&a, 0, n);
        assert_eq!(r1.best_run, n - 4);
        assert_eq!(r2.best_run, n - 4);
        // Mirror symmetry of the shift sign.
        assert_eq!(r1.best_shift, -r2.best_shift);
    }

    #[test]
    fn unrelated_signatures_score_low() {
        let a = sig_from(&(0..29).map(|i| (i * 53 % 256) as u8).collect::<Vec<_>>());
        let b = sig_from(
            &(0..29)
                .map(|i| ((i * 101 % 256) ^ 0x5a) as u8)
                .collect::<Vec<_>>(),
        );
        let r = a.track(&b, 4, 29);
        assert!(r.score() < 0.3, "unrelated content scored {:.3}", r.score());
    }

    #[test]
    fn max_shift_limits_search() {
        let base: Vec<u8> = (0..40).map(|i| (i * 17 % 199) as u8).collect();
        let n = 24;
        let a = sig_from(&base[0..n]);
        let b = sig_from(&base[10..n + 10]);
        // With max_shift 4 the true alignment (shift 10) is unreachable.
        let limited = a.track(&b, 0, 4);
        let full = a.track(&b, 0, n);
        assert!(limited.best_run < full.best_run);
        assert_eq!(full.best_shift.unsigned_abs(), 10);
    }

    #[test]
    fn tolerance_admits_noisy_matches() {
        let clean: Vec<u8> = (0..24).map(|i| (i * 19 % 230) as u8).collect();
        let noisy: Vec<u8> = clean
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 2 == 0 { v.saturating_add(3) } else { v })
            .collect();
        let a = sig_from(&clean);
        let b = sig_from(&noisy);
        assert_eq!(a.track(&b, 0, 0).best_run, 1); // exact match breaks on noise
        assert_eq!(a.track(&b, 3, 0).best_run, 24); // tolerance rides over it
    }

    #[test]
    fn empty_signature_tracks_to_zero() {
        let e = Signature::new(vec![]);
        let r = e.track(&e, 0, 5);
        assert_eq!(r.best_run, 0);
        assert_eq!(r.score(), 0.0);
    }

    #[test]
    fn rescaled_identity_and_bounds() {
        let s = sig_from(&(0..25).map(|i| (i * 9) as u8).collect::<Vec<_>>());
        assert_eq!(s.rescaled(1.0), s);
        let stretched = s.rescaled(1.5);
        assert_eq!(stretched.len(), s.len());
        // Center pixel unchanged.
        assert_eq!(stretched.pixels()[12], s.pixels()[12]);
        // Every output pixel is some input pixel (nearest-neighbor).
        for p in stretched.pixels() {
            assert!(s.pixels().contains(p));
        }
    }

    #[test]
    fn multiscale_tracks_a_zoom_that_plain_shifting_cannot() {
        // b is a 1.25x-zoomed copy of a (smooth ramp content, so nearest-
        // neighbor rescale is faithful).
        let n = 61usize;
        let a = Signature::new(
            (0..n)
                .map(|i| Rgb::gray((i as f64 * 250.0 / n as f64) as u8))
                .collect(),
        );
        let b = a.rescaled(1.25);
        let plain = a.track(&b, 2, n);
        let multi = a.track_multiscale(&b, 2, n, &[0.8, 1.25]);
        assert!(
            multi.best_run > plain.best_run,
            "multiscale {} must beat plain {}",
            multi.best_run,
            plain.best_run
        );
        assert!(multi.score() > 0.9, "score {:.2}", multi.score());
    }

    #[test]
    fn multiscale_never_worse_than_plain() {
        let a = sig_from(&(0..29).map(|i| (i * 31 % 256) as u8).collect::<Vec<_>>());
        let b = sig_from(&(0..29).map(|i| (i * 17 % 256) as u8).collect::<Vec<_>>());
        let plain = a.track(&b, 8, 29);
        let multi = a.track_multiscale(&b, 8, 29, &[0.9, 1.1]);
        assert!(multi.best_run >= plain.best_run);
    }

    #[test]
    fn track_until_early_exits_on_identical() {
        let s = sig_from(&(0..40).map(|i| (i * 7 % 256) as u8).collect::<Vec<_>>());
        let r = s.track_until(&s, 0, 40, 10);
        // Exits at zero shift with a sufficient (not necessarily maximal) run.
        assert!(r.best_run >= 10);
        assert_eq!(r.best_shift, 0);
    }

    #[test]
    fn track_until_exact_below_target() {
        // When no run reaches the target, the result equals the exhaustive
        // search exactly.
        let a = sig_from(&(0..29).map(|i| (i * 53 % 256) as u8).collect::<Vec<_>>());
        let b = sig_from(
            &(0..29)
                .map(|i| ((i * 101 % 256) ^ 0x5a) as u8)
                .collect::<Vec<_>>(),
        );
        let exact = a.track(&b, 4, 29);
        let early = a.track_until(&b, 4, 29, 29);
        assert_eq!(exact.best_run, early.best_run);
    }

    /// The tracker as it was before `run_over`: every pixel of every
    /// diagonal tested, kept as the reference the probing loops must
    /// reproduce exactly.
    mod reference {
        use super::*;

        pub fn longest_run(a: &[Rgb], b: &[Rgb], tol: u8) -> usize {
            let (mut best, mut cur) = (0, 0);
            for (pa, pb) in a.iter().zip(b) {
                cur = if pa.matches_within(*pb, tol) {
                    cur + 1
                } else {
                    0
                };
                best = best.max(cur);
            }
            best
        }

        /// Pre-probe `Signature::track` (`target_run: None`) and
        /// `Signature::track_until` (`Some(target)`) in one loop.
        pub fn track(
            x: &Signature,
            y: &Signature,
            tol: u8,
            max_shift: usize,
            target_run: Option<usize>,
        ) -> TrackResult {
            let (a, b) = (x.pixels(), y.pixels());
            let n = a.len();
            if n == 0 {
                return TrackResult {
                    best_run: 0,
                    best_shift: 0,
                    signature_len: 0,
                };
            }
            let target = target_run.unwrap_or(usize::MAX);
            let mut best_run = longest_run(a, b, tol);
            let mut best_shift: isize = 0;
            if best_run < target {
                for s in 1..=max_shift.min(n - 1) {
                    if target_run.is_some() && n - s <= best_run {
                        break;
                    }
                    let run = longest_run(&a[s..], &b[..n - s], tol);
                    if run > best_run {
                        best_run = run;
                        best_shift = s as isize;
                        if best_run >= target {
                            break;
                        }
                    }
                    let run = longest_run(&a[..n - s], &b[s..], tol);
                    if run > best_run {
                        best_run = run;
                        best_shift = -(s as isize);
                        if best_run >= target {
                            break;
                        }
                    }
                }
            }
            TrackResult {
                best_run,
                best_shift,
                signature_len: n,
            }
        }
    }

    /// Runs of `(palette index, length)` for [`low_entropy`].
    fn palette_runs() -> impl Strategy<Value = Vec<(u8, usize)>> {
        prop::collection::vec((0u8..3, 1usize..12), 1..30)
    }

    /// A low-entropy signature: pixels from a three-value palette in long
    /// runs, so diagonals tie and runs straddle probe positions.
    fn low_entropy(runs: &[(u8, usize)]) -> Vec<u8> {
        runs.iter()
            .flat_map(|&(v, len)| std::iter::repeat(v * 8).take(len))
            .take(120)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The probing tracker returns the whole `TrackResult` of the
        /// every-pixel loops it replaced — run, shift and length — for
        /// `track` and for `track_until` at any target.
        #[test]
        fn prop_probing_tracker_equals_reference(
            a in palette_runs(),
            b in palette_runs(),
            tol in 0u8..10,
            shift_pct in 0usize..100,
            target in 1usize..130,
        ) {
            let (a, b) = (low_entropy(&a), low_entropy(&b));
            let n = a.len().min(b.len());
            let (sa, sb) = (sig_from(&a[..n]), sig_from(&b[..n]));
            let max_shift = n * shift_pct / 100;
            prop_assert_eq!(
                sa.track(&sb, tol, max_shift),
                reference::track(&sa, &sb, tol, max_shift, None)
            );
            prop_assert_eq!(
                sa.track_until(&sb, tol, max_shift, target),
                reference::track(&sa, &sb, tol, max_shift, Some(target))
            );
        }

        #[test]
        fn prop_run_over_is_max_of_floor_and_longest_run(
            a in palette_runs(),
            b in palette_runs(),
            tol in 0u8..10,
            floor in 0usize..40,
        ) {
            let (a, b) = (low_entropy(&a), low_entropy(&b));
            let n = a.len().min(b.len());
            let (sa, sb) = (sig_from(&a[..n]), sig_from(&b[..n]));
            let (pa, pb) = (sa.pixels(), sb.pixels());
            prop_assert_eq!(
                Signature::run_over(pa, pb, tol, floor),
                floor.max(reference::longest_run(pa, pb, tol))
            );
        }
    }

    proptest! {
        /// The §6 speed-up never changes a threshold decision: for any
        /// target, `track_until` clears the target iff the exhaustive
        /// search's maximum does.
        #[test]
        fn prop_track_until_decision_equivalent(
            a in prop::collection::vec(any::<u8>(), 4..40),
            b in prop::collection::vec(any::<u8>(), 4..40),
            tol in 0u8..24,
            target in 1usize..32,
        ) {
            let n = a.len().min(b.len());
            let sa = sig_from(&a[..n]);
            let sb = sig_from(&b[..n]);
            let exact = sa.track(&sb, tol, n);
            let early = sa.track_until(&sb, tol, n, target);
            prop_assert_eq!(exact.best_run >= target, early.best_run >= target,
                "exact {} early {} target {}", exact.best_run, early.best_run, target);
            // Below target, early is exact.
            if exact.best_run < target {
                prop_assert_eq!(exact.best_run, early.best_run);
            }
        }

        #[test]
        fn prop_track_symmetric_in_run(
            a in prop::collection::vec(any::<u8>(), 8..32),
            b_seed in any::<u64>(),
            tol in 0u8..16,
        ) {
            let n = a.len();
            let mut x = b_seed | 1;
            let mut next = || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 40) as u8
            };
            let b: Vec<u8> = (0..n).map(|_| next()).collect();
            let sa = sig_from(&a);
            let sb = sig_from(&b);
            let r_ab = sa.track(&sb, tol, n);
            let r_ba = sb.track(&sa, tol, n);
            prop_assert_eq!(r_ab.best_run, r_ba.best_run);
        }

        #[test]
        fn prop_score_in_unit_interval(
            a in prop::collection::vec(any::<u8>(), 1..48),
            shift in 0usize..8,
            tol in 0u8..32,
        ) {
            let sa = sig_from(&a);
            let rotated: Vec<u8> = a.iter().cycle().skip(shift % a.len()).take(a.len()).copied().collect();
            let sb = sig_from(&rotated);
            let r = sa.track(&sb, tol, a.len());
            prop_assert!((0.0..=1.0).contains(&r.score()));
        }

        #[test]
        fn prop_self_track_is_perfect(a in prop::collection::vec(any::<u8>(), 1..64)) {
            let s = sig_from(&a);
            let r = s.track(&s, 0, a.len());
            prop_assert_eq!(r.best_run, a.len());
            prop_assert_eq!(r.best_shift, 0);
        }

        #[test]
        fn prop_larger_tolerance_never_hurts(
            a in prop::collection::vec(any::<u8>(), 4..32),
            b in prop::collection::vec(any::<u8>(), 4..32),
            t1 in 0u8..32,
            t2 in 0u8..32,
        ) {
            let n = a.len().min(b.len());
            let sa = sig_from(&a[..n]);
            let sb = sig_from(&b[..n]);
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            prop_assert!(sa.track(&sb, lo, n).best_run <= sa.track(&sb, hi, n).best_run);
        }
    }
}
