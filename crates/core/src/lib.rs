//! # vdb-core
//!
//! A from-scratch implementation of the video organization / browsing /
//! indexing framework of **Oh & Hua, "Efficient and Cost-effective
//! Techniques for Browsing and Indexing Large Video Databases", SIGMOD
//! 2000**:
//!
//! 1. **Camera-tracking shot boundary detection** ([`sbd`]): each frame's
//!    ⊓-shaped background area is reduced by a modified Gaussian pyramid
//!    ([`pyramid`]) to a one-row *signature* and a one-pixel *sign*; a
//!    three-stage cascade (sign test → signature test → shift-and-match
//!    background tracking) splits the video into shots.
//! 2. **Scene trees** ([`scenetree`]): shots sharing similar backgrounds
//!    (algorithm RELATIONSHIP, [`relationship`]) are grouped bottom-up into
//!    a browsing hierarchy of unbounded height whose shape reflects the
//!    video's semantic complexity.
//! 3. **Variance-based indexing** ([`index`]): each shot's feature vector is
//!    the pair of sign variances `(Var^BA, Var^OA)` ([`variance`]); an
//!    index keyed on `D^v = √Var^BA − √Var^OA` answers similarity queries
//!    (Eqs. 7–8) that seed scene-tree browsing.
//!
//! The [`analyzer::VideoAnalyzer`] facade runs all three steps:
//!
//! ```
//! use vdb_core::analyzer::VideoAnalyzer;
//! use vdb_core::frame::{FrameBuf, Video};
//! use vdb_core::pixel::Rgb;
//!
//! // Two static "shots" with very different content.
//! let mut frames = vec![FrameBuf::filled(80, 60, Rgb::gray(30)); 5];
//! frames.extend(vec![FrameBuf::filled(80, 60, Rgb::gray(200)); 5]);
//! let video = Video::new(frames, 3.0).unwrap();
//!
//! let analysis = VideoAnalyzer::new().analyze(&video).unwrap();
//! assert_eq!(analysis.shots().len(), 2);
//! assert_eq!(analysis.segmentation.boundaries, vec![5]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyzer;
pub mod error;
pub mod features;
pub mod frame;
pub mod geometry;
pub mod index;
pub mod kernels;
pub mod parallel;
pub mod pipeline;
pub mod pixel;
pub mod pyramid;
pub mod relationship;
pub mod sbd;
pub mod scenetree;
pub mod shot;
pub mod signature;
pub mod simd;
pub mod sizeset;
pub mod streaming;
pub mod variance;

pub use analyzer::{AnalyzerConfig, VideoAnalysis, VideoAnalyzer};
pub use error::{CoreError, Result};
pub use frame::{FrameBuf, Video};
pub use index::{
    BucketIndex, BucketParams, CorpusStats, CostEstimate, CostModel, IndexEntry, IndexRuntime,
    Match, Plan, PlanChoice, ProbeStats, ShotIndex, ShotKey, VarianceIndex, VarianceQuery,
};
pub use parallel::Parallelism;
pub use pipeline::{AnalysisEngine, PipelineMetrics, PushOutcome};
pub use pixel::Rgb;
pub use sbd::{CameraTrackingDetector, SbdConfig, Segmentation};
pub use scenetree::{build_scene_tree, SceneTree};
pub use shot::Shot;
pub use simd::{ResolvedIsa, SimdIsa, SimdLevel};
pub use streaming::StreamingAnalyzer;
pub use variance::ShotFeature;
