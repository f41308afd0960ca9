//! End-to-end analysis facade: Steps 1–3 of the paper's methodology in one
//! call.
//!
//! * **Step 1** — segment the video into shots with the camera-tracking SBD
//!   and extract the per-frame signs;
//! * **Step 2** — build the scene tree from the shots;
//! * **Step 3** — compute each shot's `(Var^BA, Var^OA)` feature vector,
//!   ready to be inserted into a [`crate::index::ShotIndex`].

use crate::error::Result;
use crate::frame::Video;
use crate::parallel::Parallelism;
use crate::pipeline::AnalysisEngine;
use crate::pixel::Rgb;
use crate::sbd::{SbdConfig, Segmentation};
use crate::scenetree::{SceneTree, SceneTreeConfig};
use crate::shot::Shot;
use crate::simd::SimdLevel;
use crate::variance::ShotFeature;

/// Combined configuration for the full pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AnalyzerConfig {
    /// Shot boundary detection thresholds.
    pub sbd: SbdConfig,
    /// Scene-tree construction parameters.
    pub scene_tree: SceneTreeConfig,
    /// Threads a batch ([`AnalysisEngine::push_frames`]) extracts frames
    /// on, the caller included: [`Parallelism::Auto`] (the default) uses
    /// every CPU this process may run on, `Threads(n)` caps the count and
    /// `Serial` spawns none. The engine resolves it once, when it is
    /// built. The cascade and everything after it run on the caller in
    /// frame order, so the analysis is identical for every setting — this
    /// knob only changes wall-clock time. Per-frame streaming
    /// ([`AnalysisEngine::push_frame`]) always runs on the caller.
    pub parallelism: Parallelism,
    /// SIMD instruction set for the extraction kernels. Every level
    /// produces bit-identical features — like [`AnalyzerConfig::parallelism`],
    /// this knob only changes wall-clock time.
    pub simd: SimdLevel,
}

/// Everything the pipeline derives from one video.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoAnalysis {
    /// Per-frame background signs (`Sign_i^BA`).
    pub signs_ba: Vec<Rgb>,
    /// Per-frame object-area signs (`Sign_i^OA`).
    pub signs_oa: Vec<Rgb>,
    /// The segmentation (shots, boundaries, cascade statistics).
    pub segmentation: Segmentation,
    /// The browsing hierarchy.
    pub scene_tree: SceneTree,
    /// Per-shot feature vectors, aligned with `segmentation.shots`.
    pub features: Vec<ShotFeature>,
}

impl VideoAnalysis {
    /// The shots.
    pub fn shots(&self) -> &[Shot] {
        &self.segmentation.shots
    }

    /// Number of frames analyzed.
    pub fn frame_count(&self) -> usize {
        self.signs_ba.len()
    }
}

/// The full Steps 1–3 pipeline, as a one-call batch facade.
///
/// A thin driver over [`AnalysisEngine`] — the analysis logic itself lives
/// in [`crate::pipeline`]; this type only packages "one video in, one
/// [`VideoAnalysis`] out". Code analyzing many clips back to back should
/// hold an [`AnalysisEngine`] directly so its scratch arena is reused
/// across clips.
#[derive(Debug, Clone, Default)]
pub struct VideoAnalyzer {
    config: AnalyzerConfig,
}

impl VideoAnalyzer {
    /// Analyzer with default (paper-calibrated) thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Analyzer with explicit configuration.
    pub fn with_config(config: AnalyzerConfig) -> Self {
        VideoAnalyzer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Run Steps 1–3 on a video.
    pub fn analyze(&self, video: &Video) -> Result<VideoAnalysis> {
        AnalysisEngine::new(self.config).analyze(video)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBuf;

    fn two_scene_video() -> Video {
        let mut frames = Vec::new();
        // Two palettes far apart, each with mild texture: the cut between
        // them is unambiguous at every cascade stage.
        let tex = |base: Rgb, x: u32, y: u32| {
            let n = ((x * 7 + y * 13) % 16) as u8;
            Rgb::new(
                base.r().saturating_add(n),
                base.g().saturating_add(n),
                base.b().saturating_add(n),
            )
        };
        for _ in 0..6 {
            frames.push(FrameBuf::from_fn(80, 60, |x, y| {
                tex(Rgb::new(200, 60, 40), x, y)
            }));
        }
        for _ in 0..6 {
            frames.push(FrameBuf::from_fn(80, 60, |x, y| {
                tex(Rgb::new(30, 90, 210), x, y)
            }));
        }
        Video::new(frames, 3.0).unwrap()
    }

    #[test]
    fn full_pipeline_produces_consistent_artifacts() {
        let analysis = VideoAnalyzer::new().analyze(&two_scene_video()).unwrap();
        assert_eq!(analysis.frame_count(), 12);
        assert_eq!(analysis.shots().len(), 2);
        assert_eq!(analysis.features.len(), 2);
        assert_eq!(analysis.scene_tree.shot_count(), 2);
        analysis.scene_tree.check_invariants().unwrap();
        // Static shots: zero variance in both areas.
        for f in &analysis.features {
            assert_eq!(f.var_ba, 0.0);
            assert_eq!(f.var_oa, 0.0);
        }
    }

    #[test]
    fn analysis_is_deterministic() {
        let v = two_scene_video();
        let a = VideoAnalyzer::new().analyze(&v).unwrap();
        let b = VideoAnalyzer::new().analyze(&v).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_config_yields_identical_analysis() {
        let v = two_scene_video();
        let serial = VideoAnalyzer::with_config(AnalyzerConfig {
            parallelism: Parallelism::Serial,
            ..AnalyzerConfig::default()
        })
        .analyze(&v)
        .unwrap();
        for p in [
            Parallelism::Threads(2),
            Parallelism::Threads(4),
            Parallelism::Auto,
        ] {
            let cfg = AnalyzerConfig {
                parallelism: p,
                ..AnalyzerConfig::default()
            };
            assert_eq!(VideoAnalyzer::with_config(cfg).analyze(&v).unwrap(), serial);
        }
    }

    #[test]
    fn config_plumbs_through() {
        let cfg = AnalyzerConfig {
            sbd: SbdConfig {
                track_min_score: 0.5,
                ..SbdConfig::default()
            },
            scene_tree: SceneTreeConfig {
                relationship_threshold_percent: 5.0,
            },
            parallelism: Parallelism::Threads(2),
            simd: SimdLevel::Scalar,
        };
        let an = VideoAnalyzer::with_config(cfg);
        assert_eq!(an.config().sbd.track_min_score, 0.5);
        assert_eq!(an.config().scene_tree.relationship_threshold_percent, 5.0);
        assert_eq!(an.config().simd, SimdLevel::Scalar);
        an.analyze(&two_scene_video()).unwrap();
    }

    #[test]
    fn simd_config_yields_identical_analysis() {
        let v = two_scene_video();
        let reference = VideoAnalyzer::new().analyze(&v).unwrap();
        for simd in SimdLevel::all_available() {
            let cfg = AnalyzerConfig {
                simd,
                ..AnalyzerConfig::default()
            };
            assert_eq!(
                VideoAnalyzer::with_config(cfg).analyze(&v).unwrap(),
                reference,
                "analysis must be bit-identical at {simd}"
            );
        }
    }
}
