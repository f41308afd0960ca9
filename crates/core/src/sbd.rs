//! The three-stage camera-tracking shot-boundary detector (§2.1, Figure 4).
//!
//! For every pair of consecutive frames the detector runs a cascade:
//!
//! 1. **Sign test** — if the two frames' `Sign^BA` pixels are nearly
//!    identical, the frames are in the same shot. The cheapest possible
//!    test (one pixel), it "quickly eliminates the easy cases".
//! 2. **Signature quick test** — if the aligned signatures' mean difference
//!    is small, same shot. Still cheap (one pass over ~253 pixels).
//! 3. **Background tracking** — shift the two signatures toward each other
//!    one pixel at a time; the running maximum of the longest run of
//!    matching overlapping pixels measures how much background the frames
//!    share. Same shot iff the normalized score clears a threshold.
//!
//! The detector also gathers per-stage statistics (used to reproduce the
//! Figure 4 cascade behaviour) and exposes every threshold through
//! [`SbdConfig`] — three thresholds in total, versus "at least three" for
//! histogram methods and "at least six" for edge-change-ratio methods \[2\].

use crate::error::Result;
use crate::features::{extract_features, FrameFeatures};
use crate::frame::Video;
use crate::shot::Shot;

/// Tunable thresholds of the cascade.
///
/// The defaults were calibrated on the synthetic corpus so that the paper's
/// headline behaviour holds (recall ≈ 0.9, precision ≈ 0.85 on the Table 5
/// workload); the paper itself only says "a certain threshold" for stage 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SbdConfig {
    /// Stage 1: same shot if `Sign^BA` max-channel diff ≤ this (0–255).
    pub sign_same_max_diff: u8,
    /// Stage 2: same shot if aligned-signature mean abs diff ≤ this.
    pub signature_same_max_diff: f64,
    /// Stage 3: per-pixel match tolerance while tracking (0–255).
    pub track_tolerance: u8,
    /// Stage 3: same shot if `best_run / signature_len` ≥ this (0–1).
    pub track_min_score: f64,
    /// Stage 3: search shifts up to this fraction of the signature length
    /// (1.0 = exhaustive, as in the paper; smaller bounds the work for
    /// high-rate video where inter-frame motion is small).
    pub max_shift_fraction: f64,
    /// Stage 3: stop the shift search as soon as a run clearing the score
    /// threshold is found (§6's segmentation speed-up; decisions are
    /// identical to the exhaustive search, see
    /// `signature::tests::prop_track_until_decision_equivalent`).
    pub early_exit: bool,
}

impl Default for SbdConfig {
    fn default() -> Self {
        SbdConfig {
            sign_same_max_diff: 3,
            signature_same_max_diff: 6.0,
            track_tolerance: 14,
            track_min_score: 0.45,
            max_shift_fraction: 1.0,
            early_exit: true,
        }
    }
}

/// Which cascade stage decided a frame pair, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageDecision {
    /// Stage 1 sign test accepted the pair as same-shot.
    SameBySign,
    /// Stage 2 signature quick test accepted the pair as same-shot.
    SameBySignature,
    /// Stage 3 tracking accepted the pair as same-shot.
    SameByTracking,
    /// Stage 3 tracking declared a shot boundary.
    Boundary,
}

/// Aggregate statistics over one video's detection run (Figure 4's cascade
/// in numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SbdStats {
    /// Total consecutive-frame pairs examined.
    pub pairs: usize,
    /// Pairs resolved by the stage-1 sign test.
    pub stage1_same: usize,
    /// Pairs resolved by the stage-2 signature quick test.
    pub stage2_same: usize,
    /// Pairs resolved same-shot by stage-3 tracking.
    pub stage3_same: usize,
    /// Pairs declared boundaries (always by stage 3).
    pub boundaries: usize,
}

impl SbdStats {
    /// Fraction of pairs that never reached the expensive stage 3.
    pub fn quick_elimination_rate(&self) -> f64 {
        if self.pairs == 0 {
            return 0.0;
        }
        (self.stage1_same + self.stage2_same) as f64 / self.pairs as f64
    }
}

/// Full result of shot boundary detection over a video.
#[derive(Debug, Clone, PartialEq)]
pub struct Segmentation {
    /// Detected shots, in temporal order, covering every frame exactly once.
    pub shots: Vec<Shot>,
    /// Frame indices at which a new shot starts (excluding frame 0).
    pub boundaries: Vec<usize>,
    /// Per-pair decisions (index `i` decides the pair `(i, i+1)`).
    pub decisions: Vec<StageDecision>,
    /// Cascade statistics.
    pub stats: SbdStats,
}

/// The camera-tracking shot boundary detector.
#[derive(Debug, Clone, Default)]
pub struct CameraTrackingDetector {
    config: SbdConfig,
}

impl CameraTrackingDetector {
    /// Detector with the default thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Detector with explicit thresholds.
    pub fn with_config(config: SbdConfig) -> Self {
        CameraTrackingDetector { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SbdConfig {
        &self.config
    }

    /// Decide whether the pair of frames with features `(a, b)` belong to
    /// the same shot.
    pub fn decide_pair(&self, a: &FrameFeatures, b: &FrameFeatures) -> StageDecision {
        let cfg = &self.config;
        // Stage 1: single-pixel sign comparison.
        if a.sign_ba.max_channel_diff(b.sign_ba) <= cfg.sign_same_max_diff {
            return StageDecision::SameBySign;
        }
        // Stage 2: aligned signature comparison.
        if a.signature_ba.quick_diff(&b.signature_ba) <= cfg.signature_same_max_diff {
            return StageDecision::SameBySignature;
        }
        // Stage 3: background tracking.
        let n = a.signature_ba.len();
        let max_shift = ((n as f64) * cfg.max_shift_fraction).round() as usize;
        let track = if cfg.early_exit {
            let target = (cfg.track_min_score * n as f64).ceil() as usize;
            a.signature_ba
                .track_until(&b.signature_ba, cfg.track_tolerance, max_shift, target)
        } else {
            a.signature_ba
                .track(&b.signature_ba, cfg.track_tolerance, max_shift)
        };
        if track.score() >= cfg.track_min_score {
            StageDecision::SameByTracking
        } else {
            StageDecision::Boundary
        }
    }

    /// Segment a feature sequence into shots.
    ///
    /// Delegates to the pipeline's cascade bookkeeping
    /// ([`crate::pipeline::segment_features`]) — the decision loop lives in
    /// one place for batch, streaming, and slice-level callers alike.
    pub fn segment_features(&self, features: &[FrameFeatures]) -> Segmentation {
        crate::pipeline::segment_features(self, features)
    }

    /// Extract features and segment a video in one call.
    pub fn segment_video(&self, video: &Video) -> Result<(Vec<FrameFeatures>, Segmentation)> {
        let features = extract_features(video)?;
        let seg = self.segment_features(&features);
        Ok((features, seg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBuf;
    use crate::pixel::Rgb;

    /// Features for a synthetic frame whose whole content is one texture
    /// indexed by `world` and shifted by `dx` (camera pan).
    fn textured_frame(world: u64, dx: i64) -> FrameBuf {
        FrameBuf::from_fn(80, 60, |x, y| {
            let xx = i64::from(x) + dx;
            let yy = i64::from(y);
            let h = (xx.wrapping_mul(31).wrapping_add(yy.wrapping_mul(17)) ^ (world as i64 * 7919))
                .unsigned_abs();
            Rgb::new(
                (h % 251) as u8,
                ((h / 251) % 241) as u8,
                ((h / 1024) % 239) as u8,
            )
        })
    }

    fn features_of(frames: &[FrameBuf]) -> Vec<FrameFeatures> {
        let v = Video::new(frames.to_vec(), 3.0).unwrap();
        extract_features(&v).unwrap()
    }

    #[test]
    fn static_video_is_one_shot() {
        let frames = vec![FrameBuf::filled(80, 60, Rgb::gray(120)); 10];
        let seg = CameraTrackingDetector::new().segment_features(&features_of(&frames));
        assert_eq!(seg.shots.len(), 1);
        assert_eq!(
            seg.shots[0],
            Shot {
                id: 0,
                start: 0,
                end: 9
            }
        );
        assert!(seg.boundaries.is_empty());
        assert_eq!(seg.stats.stage1_same, 9);
        assert!((seg.stats.quick_elimination_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hard_cut_detected_between_different_worlds() {
        let mut frames = Vec::new();
        for _ in 0..5 {
            frames.push(textured_frame(1, 0));
        }
        for _ in 0..5 {
            frames.push(textured_frame(2, 0));
        }
        let seg = CameraTrackingDetector::new().segment_features(&features_of(&frames));
        assert_eq!(seg.boundaries, vec![5]);
        assert_eq!(seg.shots.len(), 2);
        assert_eq!(seg.shots[0].end, 4);
        assert_eq!(seg.shots[1].start, 5);
    }

    /// A smooth world with a sustained luminance gradient plus texture
    /// (real backgrounds are smooth at the signature's sampling scale;
    /// white noise is the known worst case for any shift-matching tracker).
    /// The gradient makes the frame's mean color move under a pan, so the
    /// pan genuinely fails the stage-1/2 quick tests and exercises the
    /// tracker.
    fn smooth_pan_frame(dx: i64) -> FrameBuf {
        FrameBuf::from_fn(160, 120, move |x, y| {
            let xx = (i64::from(x) + dx) as f64;
            let v = 30.0 + 0.7 * xx + 10.0 * (xx / 13.0).sin() + 6.0 * (f64::from(y) / 40.0).sin();
            let v = v.clamp(0.0, 255.0) as u8;
            Rgb::new(v, (u16::from(v) * 3 / 4) as u8, 255 - v)
        })
    }

    #[test]
    fn camera_pan_does_not_split_shot() {
        // The headline claim: a pan survives because tracking finds the
        // shifted background. (A pure horizontal pan can only ever shift-
        // match the top-bar section of the strip, c/(c+2h) ≈ 43% of the
        // signature, so very fast pans whose in-place matching also fails
        // sit at the technique's geometric ceiling; 9 px/frame at 3 fps
        // stays inside it.)
        let frames: Vec<FrameBuf> = (0..8).map(|i| smooth_pan_frame(i * 9)).collect();
        let seg = CameraTrackingDetector::new().segment_features(&features_of(&frames));
        assert!(
            seg.boundaries.is_empty(),
            "pan produced spurious boundaries at {:?} (decisions {:?})",
            seg.boundaries,
            seg.decisions
        );
        // The pan must exercise the tracker: a shifted texture fails the
        // stage-1 test for at least some pairs.
        assert!(
            seg.stats.stage3_same > 0,
            "expected the pan to reach stage 3: {:?}",
            seg.stats
        );
    }

    #[test]
    fn shots_partition_frames() {
        let mut frames = Vec::new();
        for world in 0..4u64 {
            for i in 0..6 {
                frames.push(textured_frame(world * 100 + 5, i));
            }
        }
        let seg = CameraTrackingDetector::new().segment_features(&features_of(&frames));
        // Shots tile the video: start at 0, end at last, contiguous.
        assert_eq!(seg.shots.first().unwrap().start, 0);
        assert_eq!(seg.shots.last().unwrap().end, frames.len() - 1);
        for w in seg.shots.windows(2) {
            assert_eq!(w[1].start, w[0].end + 1);
        }
        let total: usize = seg.shots.iter().map(Shot::len).sum();
        assert_eq!(total, frames.len());
        // Ids are sequential.
        for (i, s) in seg.shots.iter().enumerate() {
            assert_eq!(s.id, i);
        }
    }

    #[test]
    fn empty_features_empty_segmentation() {
        let seg = CameraTrackingDetector::new().segment_features(&[]);
        assert!(seg.shots.is_empty());
        assert!(seg.boundaries.is_empty());
        assert_eq!(seg.stats.pairs, 0);
    }

    #[test]
    fn single_frame_is_one_shot() {
        let frames = vec![FrameBuf::filled(80, 60, Rgb::gray(10))];
        let seg = CameraTrackingDetector::new().segment_features(&features_of(&frames));
        assert_eq!(
            seg.shots,
            vec![Shot {
                id: 0,
                start: 0,
                end: 0
            }]
        );
    }

    #[test]
    fn thresholds_control_sensitivity() {
        // A luminance flicker of 10 gray levels fails stages 1 and 2 but is
        // absorbed by stage-3 tracking under the default config; a
        // pathologically strict config declares boundaries everywhere.
        let frames: Vec<FrameBuf> = (0..6)
            .map(|i| FrameBuf::filled(80, 60, Rgb::gray(100 + (i % 2) as u8 * 10)))
            .collect();
        let feats = features_of(&frames);
        let lax = CameraTrackingDetector::new().segment_features(&feats);
        assert!(lax.boundaries.is_empty());
        assert!(
            lax.stats.stage3_same > 0,
            "flicker must reach stage 3: {:?}",
            lax.stats
        );
        let strict = CameraTrackingDetector::with_config(SbdConfig {
            sign_same_max_diff: 0,
            signature_same_max_diff: 0.0,
            track_tolerance: 0,
            track_min_score: 1.1, // unreachable
            max_shift_fraction: 1.0,
            early_exit: false,
        })
        .segment_features(&feats);
        assert_eq!(strict.boundaries.len(), 5);
    }

    #[test]
    fn decisions_align_with_boundaries() {
        let mut frames = Vec::new();
        for _ in 0..3 {
            frames.push(textured_frame(7, 0));
        }
        for _ in 0..3 {
            frames.push(textured_frame(8, 0));
        }
        let seg = CameraTrackingDetector::new().segment_features(&features_of(&frames));
        for (i, d) in seg.decisions.iter().enumerate() {
            assert_eq!(
                *d == StageDecision::Boundary,
                seg.boundaries.contains(&(i + 1)),
                "decision {i} and boundary list disagree"
            );
        }
        let n_same = seg
            .decisions
            .iter()
            .filter(|d| **d != StageDecision::Boundary)
            .count();
        assert_eq!(
            seg.stats.stage1_same + seg.stats.stage2_same + seg.stats.stage3_same,
            n_same
        );
    }
}
