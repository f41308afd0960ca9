//! The one incremental analysis engine behind every analysis entry point.
//!
//! The paper's framework is a single conceptual pipeline — per-frame
//! TBA/FOA extraction and pyramid reduction (§2), the SBD cascade
//! (Figure 4), shot assembly, the scene tree (§3), and the variance index
//! features (§4). [`AnalysisEngine`] is its only implementation:
//!
//! ```text
//!            frames ──► feature extraction ──► SBD cascade ──► shot assembly
//!                       (caller + helpers,     (caller, in      │
//!                        one cursor, each      frame order,     ▼
//!                        with its own scratch)  as frames ready) scene tree
//!            VideoAnalysis ◄── index features ◄──────────────────┘
//! ```
//!
//! * [`crate::analyzer::VideoAnalyzer`] is a thin batch driver: one
//!   `push_frames` over the whole video, then [`AnalysisEngine::finish`];
//! * streaming callers (the store's `StreamIngest`) own an engine and call
//!   [`AnalysisEngine::push_frame`] / [`AnalysisEngine::push_frames`] as
//!   frames arrive, then [`AnalysisEngine::finish`];
//! * `push_frames` is one ordered pipeline for every thread count: the
//!   config's [`crate::parallel::Parallelism`] (resolved once, when the
//!   engine is built) sets how many scoped helper threads extract beside
//!   the caller, and the caller runs the cascade on frame `i` as soon as
//!   frames `0..=i` are extracted ([`crate::parallel`] holds the hand-off).
//!   With no helpers the same loop is the serial path.
//!
//! Batch, streaming, and parallel results are therefore equal **by
//! construction** (they run the same code on the same features).
//!
//! The engine owns one [`ScratchBuffers`] arena per thread it extracts on
//! (the caller's and each helper's), so after warm-up extraction and
//! pyramid reduction perform no per-frame heap allocation on any thread
//! (see [`crate::pyramid::reduction_allocs`]); the arenas survive
//! [`AnalysisEngine::finish`] and are reused across batches and clips,
//! even clips of different dimensions.

use crate::analyzer::{AnalyzerConfig, VideoAnalysis};
use crate::error::{CoreError, Result};
use crate::features::{FeatureExtractor, FrameFeatures, ScratchBuffers};
use crate::frame::{FrameBuf, Video};
use crate::parallel::HandOff;
use crate::pixel::Rgb;
use crate::pyramid::{charge_reduction_allocs, reduction_allocs};
use crate::sbd::{CameraTrackingDetector, SbdStats, Segmentation, StageDecision};
use crate::scenetree::build_scene_tree_with_config;
use crate::shot::Shot;
use crate::variance::ShotFeature;
use vdb_obs::{global_tracer, Counter, Histogram, Registry};

/// The pipeline's handles into an observability registry: one span
/// histogram per stage and the cascade's stage-hit counters (how often
/// the cheap sign comparison vs. signature shifting vs. full tracking
/// resolved a frame pair — the paper's Figure 4 cost metric, live).
///
/// Registered by name, so every engine pointed at the same registry
/// (e.g. [`vdb_obs::global`], the default) aggregates into one set of
/// metrics; per-stage frames/s falls out as
/// `core.pipeline.frames / core.pipeline.<stage>_us`.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    extract_us: Histogram,
    cascade_us: Histogram,
    assemble_us: Histogram,
    scenetree_us: Histogram,
    index_us: Histogram,
    frames: Counter,
    clips: Counter,
    sign_same: Counter,
    signature_same: Counter,
    tracking_same: Counter,
    boundaries: Counter,
}

impl PipelineMetrics {
    /// Get-or-register the pipeline's metrics in `registry`.
    pub fn register(registry: &Registry) -> Self {
        PipelineMetrics {
            extract_us: registry.histogram("core.pipeline.extract_us"),
            cascade_us: registry.histogram("core.pipeline.cascade_us"),
            assemble_us: registry.histogram("core.pipeline.assemble_us"),
            scenetree_us: registry.histogram("core.pipeline.scenetree_us"),
            index_us: registry.histogram("core.pipeline.index_us"),
            frames: registry.counter("core.pipeline.frames"),
            clips: registry.counter("core.pipeline.clips"),
            sign_same: registry.counter("core.cascade.sign_same"),
            signature_same: registry.counter("core.cascade.signature_same"),
            tracking_same: registry.counter("core.cascade.tracking_same"),
            boundaries: registry.counter("core.cascade.boundaries"),
        }
    }

    /// Fold one clip's cascade statistics into the stage-hit counters
    /// (five counter adds per clip — the per-pair hot loop stays
    /// untouched).
    fn record_cascade(&self, stats: &SbdStats) {
        self.sign_same.add(stats.stage1_same as u64);
        self.signature_same.add(stats.stage2_same as u64);
        self.tracking_same.add(stats.stage3_same as u64);
        self.boundaries.add(stats.boundaries as u64);
    }
}

/// What the engine reports about the newest frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// First frame of the stream.
    First,
    /// Same shot as the previous frame (with the deciding stage).
    Same(StageDecision),
    /// This frame starts a new shot.
    Boundary,
}

/// The cascade bookkeeping: per-pair decisions, per-stage statistics,
/// boundary list, and incremental shot assembly.
///
/// This struct is the *only* place the repo turns [`StageDecision`]s into
/// shots — batch, streaming, parallel, and the slice-level
/// [`segment_features`] all funnel through [`CascadeState::record`].
#[derive(Debug, Clone, Default)]
struct CascadeState {
    signs_ba: Vec<Rgb>,
    signs_oa: Vec<Rgb>,
    decisions: Vec<StageDecision>,
    stats: SbdStats,
    boundaries: Vec<usize>,
    shot_start: usize,
    shots: Vec<Shot>,
    prev: Option<FrameFeatures>,
}

impl CascadeState {
    /// Fold one pair decision into decisions/stats/boundaries/shots.
    /// `boundary_frame` is the index of the pair's *second* frame — the
    /// frame a new shot would start at.
    fn record(&mut self, d: StageDecision, boundary_frame: usize) -> PushOutcome {
        self.stats.pairs += 1;
        match d {
            StageDecision::SameBySign => self.stats.stage1_same += 1,
            StageDecision::SameBySignature => self.stats.stage2_same += 1,
            StageDecision::SameByTracking => self.stats.stage3_same += 1,
            StageDecision::Boundary => self.stats.boundaries += 1,
        }
        self.decisions.push(d);
        if d == StageDecision::Boundary {
            self.shots.push(Shot {
                id: self.shots.len(),
                start: self.shot_start,
                end: boundary_frame - 1,
            });
            self.boundaries.push(boundary_frame);
            self.shot_start = boundary_frame;
            PushOutcome::Boundary
        } else {
            PushOutcome::Same(d)
        }
    }

    /// Advance by one frame's features (the streaming driver).
    fn push(&mut self, detector: &CameraTrackingDetector, features: FrameFeatures) -> PushOutcome {
        let outcome = match &self.prev {
            None => PushOutcome::First,
            Some(prev) => {
                let d = detector.decide_pair(prev, &features);
                self.record(d, self.signs_ba.len())
            }
        };
        self.signs_ba.push(features.sign_ba);
        self.signs_oa.push(features.sign_oa);
        self.prev = Some(features);
        outcome
    }

    /// Close the last shot and emit the [`Segmentation`]. `frames` is the
    /// total frame count (zero yields an empty segmentation).
    fn into_segmentation(mut self, frames: usize) -> Segmentation {
        if frames > 0 {
            self.shots.push(Shot {
                id: self.shots.len(),
                start: self.shot_start,
                end: frames - 1,
            });
        }
        Segmentation {
            shots: self.shots,
            boundaries: self.boundaries,
            decisions: self.decisions,
            stats: self.stats,
        }
    }
}

/// Segment an already-extracted feature sequence into shots.
///
/// The slice-level driver over the same cascade bookkeeping the engine
/// uses; [`CameraTrackingDetector::segment_features`] delegates here.
pub fn segment_features(
    detector: &CameraTrackingDetector,
    features: &[FrameFeatures],
) -> Segmentation {
    let mut state = CascadeState::default();
    for (i, pair) in features.windows(2).enumerate() {
        state.record(detector.decide_pair(&pair[0], &pair[1]), i + 1);
    }
    state.into_segmentation(features.len())
}

/// The canonical Steps 1–3 pipeline, consumed incrementally.
///
/// Frames go in (`push_frame` / `push_frames` / `analyze`); a
/// [`VideoAnalysis`] comes out of [`AnalysisEngine::finish`]. Between the
/// two the engine keeps only O(signs) state — the previous frame's
/// features plus the per-frame sign history the scene tree and variance
/// features need; frames themselves are never retained.
///
/// `finish` resets the per-clip state, so one engine can be reused for
/// clip after clip (as [`crate::analyzer::VideoAnalyzer`] and the store's
/// ingest paths do), amortizing its scratch arena across the whole
/// workload.
#[derive(Debug)]
pub struct AnalysisEngine {
    config: AnalyzerConfig,
    detector: CameraTrackingDetector,
    extractor: Option<FeatureExtractor>,
    dims: Option<(u32, u32)>,
    scratch: ScratchBuffers,
    /// The config's thread count, caller included, resolved once.
    threads: usize,
    /// One arena per helper thread `push_frames` has spawned so far;
    /// grown on demand up to `threads − 1`.
    helpers: Vec<ScratchBuffers>,
    state: CascadeState,
    obs: Option<PipelineMetrics>,
}

impl Default for AnalysisEngine {
    fn default() -> Self {
        Self::new(AnalyzerConfig::default())
    }
}

impl AnalysisEngine {
    /// Engine with the given configuration, instrumented into the
    /// process-wide [`vdb_obs::global`] registry.
    pub fn new(config: AnalyzerConfig) -> Self {
        Self::with_registry(config, vdb_obs::global())
    }

    /// Engine instrumented into a specific registry (tests and benchmarks
    /// use a private one for count-exact isolation).
    pub fn with_registry(config: AnalyzerConfig, registry: &Registry) -> Self {
        Self::build(config, Some(PipelineMetrics::register(registry)))
    }

    /// Engine with no observability at all — not even the disabled-check
    /// loads. The baseline the workspace's overhead test measures
    /// instrumentation against; production paths should prefer
    /// [`AnalysisEngine::new`] with a disabled registry instead.
    pub fn without_observability(config: AnalyzerConfig) -> Self {
        Self::build(config, None)
    }

    fn build(config: AnalyzerConfig, obs: Option<PipelineMetrics>) -> Self {
        AnalysisEngine {
            detector: CameraTrackingDetector::with_config(config.sbd),
            config,
            extractor: None,
            dims: None,
            scratch: ScratchBuffers::default(),
            threads: config.parallelism.effective_threads(),
            helpers: Vec::new(),
            state: CascadeState::default(),
            obs,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Frames consumed since the last `finish`.
    pub fn frame_count(&self) -> usize {
        self.state.signs_ba.len()
    }

    /// Boundaries confirmed so far in the current clip (final: streaming
    /// decisions never change retroactively).
    pub fn boundaries(&self) -> &[usize] {
        &self.state.boundaries
    }

    /// Dimensions locked by the clip's first frame (`None` before any
    /// frame has been pushed, and again after `finish`).
    pub fn dims(&self) -> Option<(u32, u32)> {
        self.dims
    }

    /// Consume the next frame. All frames of one clip must share the first
    /// frame's dimensions; a mismatched frame is rejected without being
    /// consumed.
    pub fn push_frame(&mut self, frame: &FrameBuf) -> Result<PushOutcome> {
        self.check_dims(frame, 0)?;
        self.ensure_extractor(frame)?;
        let features = {
            let _span = self.obs.as_ref().map(|o| o.extract_us.start());
            self.extractor
                .as_ref()
                .expect("created above")
                .extract_frame(frame, &mut self.scratch)
        };
        if let Some(obs) = &self.obs {
            obs.frames.incr();
        }
        let _span = self.obs.as_ref().map(|o| o.cascade_us.start());
        Ok(self.state.push(&self.detector, features))
    }

    /// Consume a batch of frames. Equivalent to calling
    /// [`AnalysisEngine::push_frame`] once per frame, only faster.
    ///
    /// One ordered pipeline for every thread count: up to `threads − 1`
    /// scoped helpers (never more than the batch has frames after the
    /// first) and the calling thread extract frames, each with its own
    /// engine-owned arena, claiming indices from one cursor; the calling
    /// thread also runs the cascade on frame `i` as soon as frames `0..=i`
    /// are extracted, and parks when it has nothing to claim or cascade.
    /// With no helpers this is the serial loop.
    ///
    /// On error nothing is consumed: every check (dimensions, layout)
    /// runs before the first frame is extracted, and extraction itself
    /// cannot fail.
    ///
    /// Runs under a `core.pipeline.extract` trace span (and the
    /// `extract_us` histogram) until every frame is claimed, with the
    /// cascade keeping pace inside it, then under `core.pipeline.cascade`
    /// (`cascade_us`) while it cascades the frames still in flight. The
    /// spans are inert, one branch per stage, outside a sampled trace.
    pub fn push_frames(&mut self, frames: &[FrameBuf]) -> Result<Vec<PushOutcome>> {
        let Some(first) = frames.first() else {
            return Ok(Vec::new());
        };
        self.check_dims(first, 0)?;
        self.ensure_extractor(first)?;
        for (i, frame) in frames.iter().enumerate().skip(1) {
            self.check_dims(frame, i)?;
        }
        let extractor = self.extractor.as_ref().expect("created above");
        let spawn = (frames.len() - 1).min(self.threads - 1);
        if self.helpers.len() < spawn {
            self.helpers.resize_with(spawn, ScratchBuffers::default);
        }
        let helpers = &mut self.helpers[..spawn];
        // The caller starts on frame 0 and helper `k` on frame `k`.
        let hand_off = HandOff::new(frames.len(), helpers.len() + 1);
        let mut outcomes = Vec::with_capacity(frames.len());
        let tracer = global_tracer();
        let (state, detector, scratch) = (&mut self.state, &self.detector, &mut self.scratch);
        let mut cascade = |features| state.push(detector, features);
        let helper_allocs = std::thread::scope(|s| {
            let helpers: Vec<_> = helpers
                .iter_mut()
                .zip(1..)
                .map(|(scratch, first)| {
                    let hand_off = &hand_off;
                    s.spawn(move || {
                        let before = reduction_allocs();
                        hand_off.help(first, |i| extractor.extract_frame(&frames[i], scratch));
                        reduction_allocs() - before
                    })
                })
                .collect();
            {
                let mut tspan = tracer.span("core.pipeline.extract");
                if tspan.is_recording() {
                    tspan.attr("frames", frames.len());
                }
                let _span = self.obs.as_ref().map(|o| o.extract_us.start());
                let mut next = Some(0);
                while let Some(i) = next {
                    hand_off.put(i, extractor.extract_frame(&frames[i], scratch));
                    while let Some(features) = hand_off.take(outcomes.len()) {
                        outcomes.push(cascade(features));
                    }
                    next = hand_off.claim();
                }
            }
            let _tspan = tracer.span("core.pipeline.cascade");
            let _span = self.obs.as_ref().map(|o| o.cascade_us.start());
            for i in outcomes.len()..frames.len() {
                outcomes.push(cascade(hand_off.wait(i)));
            }
            helpers
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .sum::<u64>()
        });
        charge_reduction_allocs(helper_allocs);
        if let Some(obs) = &self.obs {
            obs.frames.add(frames.len() as u64);
        }
        Ok(outcomes)
    }

    /// Close the clip: finalize the last shot, build the scene tree and
    /// per-shot index features. The engine is left ready for the next clip
    /// (state cleared, scratch arena retained).
    ///
    /// # Errors
    /// [`CoreError::EmptyVideo`] if no frame was ever pushed.
    ///
    /// Opens `core.pipeline.assemble`, `.scenetree` and `.index` trace
    /// spans.
    pub fn finish(&mut self) -> Result<VideoAnalysis> {
        if self.state.signs_ba.is_empty() {
            return Err(CoreError::EmptyVideo);
        }
        let mut state = std::mem::take(&mut self.state);
        self.extractor = None;
        self.dims = None;
        let signs_ba = std::mem::take(&mut state.signs_ba);
        let signs_oa = std::mem::take(&mut state.signs_oa);
        let frames = signs_ba.len();
        let tracer = global_tracer();
        let segmentation = {
            let _tspan = tracer.span("core.pipeline.assemble");
            let _span = self.obs.as_ref().map(|o| o.assemble_us.start());
            state.into_segmentation(frames)
        };
        let scene_tree = {
            let _tspan = tracer.span("core.pipeline.scenetree");
            let _span = self.obs.as_ref().map(|o| o.scenetree_us.start());
            build_scene_tree_with_config(&segmentation.shots, &signs_ba, self.config.scene_tree)
        };
        let features = {
            let mut tspan = tracer.span("core.pipeline.index");
            if tspan.is_recording() {
                tspan.attr("shots", segmentation.shots.len());
            }
            let _span = self.obs.as_ref().map(|o| o.index_us.start());
            segmentation
                .shots
                .iter()
                .map(|s| {
                    ShotFeature::from_signs(&signs_ba[s.start..=s.end], &signs_oa[s.start..=s.end])
                })
                .collect()
        };
        if let Some(obs) = &self.obs {
            obs.clips.incr();
            obs.record_cascade(&segmentation.stats);
        }
        Ok(VideoAnalysis {
            signs_ba,
            signs_oa,
            segmentation,
            scene_tree,
            features,
        })
    }

    /// Batch driver: analyze one whole video (any state left over from an
    /// unfinished clip is discarded first). Runs under a
    /// `core.pipeline.analyze` span: every stage (extract → cascade →
    /// assemble → scenetree → index) is a child span, so one traced
    /// ingest shows where the time went.
    pub fn analyze(&mut self, video: &Video) -> Result<VideoAnalysis> {
        self.reset();
        let mut tspan = global_tracer().span("core.pipeline.analyze");
        self.push_frames(video.frames())?;
        let analysis = self.finish()?;
        if tspan.is_recording() {
            tspan.attr("frames", video.len());
            tspan.attr("shots", analysis.segmentation.shots.len());
        }
        Ok(analysis)
    }

    /// Drop any in-flight clip state (scratch arena retained).
    pub fn reset(&mut self) {
        self.state = CascadeState::default();
        self.extractor = None;
        self.dims = None;
    }

    fn ensure_extractor(&mut self, frame: &FrameBuf) -> Result<()> {
        if self.extractor.is_none() {
            let (w, h) = frame.dims();
            self.extractor = Some(FeatureExtractor::with_simd(w, h, self.config.simd)?);
            self.dims = Some((w, h));
        }
        Ok(())
    }

    /// All frames of a clip must share dimensions, like frames of a
    /// [`Video`]; a stray frame is rejected without being consumed.
    fn check_dims(&self, frame: &FrameBuf, index: usize) -> Result<()> {
        match self.dims {
            Some(first) if frame.dims() != first => Err(CoreError::InconsistentDimensions {
                first,
                other: frame.dims(),
                frame: self.frame_count() + index,
            }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::Parallelism;
    use proptest::prelude::*;
    use vdb_obs::TraceContext;

    fn clip(dims: (u32, u32), worlds: &[(u64, usize)]) -> Vec<FrameBuf> {
        let mut frames = Vec::new();
        for &(world, n) in worlds {
            for t in 0..n {
                frames.push(FrameBuf::from_fn(dims.0, dims.1, move |x, y| {
                    let h = (u64::from(x) * 31 + u64::from(y) * 17 + t as u64)
                        ^ world.wrapping_mul(7919);
                    Rgb::new(
                        (h % 251) as u8,
                        ((h / 7) % 241) as u8,
                        ((h / 64) % 239) as u8,
                    )
                }));
            }
        }
        frames
    }

    #[test]
    fn engine_equals_frame_at_a_time_equals_slice_segmentation() {
        let frames = clip((80, 60), &[(1, 6), (2, 5), (3, 7)]);
        let video = Video::new(frames.clone(), 3.0).unwrap();

        let mut batch_engine = AnalysisEngine::default();
        let batch = batch_engine.analyze(&video).unwrap();

        let mut incremental = AnalysisEngine::default();
        for f in &frames {
            incremental.push_frame(f).unwrap();
        }
        assert_eq!(incremental.finish().unwrap(), batch);

        let detector = CameraTrackingDetector::default();
        let features: Vec<FrameFeatures> = frames
            .iter()
            .map(|f| FeatureExtractor::new(80, 60).unwrap().extract(f).unwrap())
            .collect();
        assert_eq!(segment_features(&detector, &features), batch.segmentation);
    }

    #[test]
    fn push_outcomes_report_boundaries_live() {
        let frames = clip((80, 60), &[(1, 6), (2, 5), (3, 7)]);
        let mut engine = AnalysisEngine::default();
        let outcomes: Vec<PushOutcome> = frames
            .iter()
            .map(|f| engine.push_frame(f).unwrap())
            .collect();
        assert_eq!(outcomes[0], PushOutcome::First);
        let live_boundaries: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| **o == PushOutcome::Boundary)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(live_boundaries, vec![6, 11]);
        assert_eq!(engine.boundaries(), &[6, 11]);
        assert_eq!(engine.frame_count(), frames.len());
    }

    #[test]
    fn push_frames_equals_push_one_at_a_time() {
        let frames = clip((80, 60), &[(1, 6), (2, 5), (3, 7)]);
        let mut serial = AnalysisEngine::default();
        let serial_outcomes: Vec<PushOutcome> = frames
            .iter()
            .map(|f| serial.push_frame(f).unwrap())
            .collect();
        let serial_analysis = serial.finish().unwrap();

        for threads in [1usize, 2, 4] {
            let mut batched = AnalysisEngine::new(AnalyzerConfig {
                parallelism: Parallelism::Threads(threads),
                ..AnalyzerConfig::default()
            });
            // Uneven batches (an empty one too), crossing shot boundaries.
            let mut outcomes = Vec::new();
            let mut rest = frames.as_slice();
            for take in [1usize, 0, 5, 3, usize::MAX] {
                let (chunk, tail) = rest.split_at(take.min(rest.len()));
                outcomes.extend(batched.push_frames(chunk).unwrap());
                rest = tail;
            }
            assert_eq!(outcomes, serial_outcomes, "threads={threads}");
            assert_eq!(
                batched.finish().unwrap(),
                serial_analysis,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn finish_on_empty_engine_is_empty_video_error() {
        let mut engine = AnalysisEngine::default();
        assert!(matches!(engine.finish(), Err(CoreError::EmptyVideo)));
    }

    #[test]
    fn engine_resets_between_clips() {
        let mut engine = AnalysisEngine::default();
        let small = Video::new(clip((80, 60), &[(1, 5)]), 3.0).unwrap();
        let large = Video::new(clip((160, 120), &[(2, 5)]), 3.0).unwrap();
        // finish() must clear the dims lock so the next clip may differ.
        let a = engine.analyze(&small).unwrap();
        let b = engine.analyze(&large).unwrap();
        assert_eq!(a, AnalysisEngine::default().analyze(&small).unwrap());
        assert_eq!(b, AnalysisEngine::default().analyze(&large).unwrap());
        // Incremental use across clips, with finish() as the only reset.
        for f in small.frames() {
            engine.push_frame(f).unwrap();
        }
        assert_eq!(engine.finish().unwrap(), a);
        engine.push_frames(large.frames()).unwrap();
        assert_eq!(engine.finish().unwrap(), b);
    }

    #[test]
    fn mismatched_dims_rejected_mid_clip() {
        let mut engine = AnalysisEngine::default();
        engine
            .push_frame(&FrameBuf::filled(80, 60, Rgb::gray(40)))
            .unwrap();
        let err = engine.push_frame(&FrameBuf::filled(160, 120, Rgb::gray(40)));
        assert!(matches!(
            err,
            Err(CoreError::InconsistentDimensions { frame: 1, .. })
        ));
        assert_eq!(engine.frame_count(), 1, "bad frame must not be consumed");
    }

    #[test]
    fn warm_engine_batch_path_reduces_without_allocating() {
        // The acceptance test for the scratch arena: after the first
        // clip has warmed the buffers, an entire batch analysis performs
        // zero heap allocations inside the pyramid reductions.
        let video = Video::new(clip((160, 120), &[(1, 4), (2, 4)]), 3.0).unwrap();
        let mut engine = AnalysisEngine::default();
        engine.analyze(&video).unwrap();
        let before = reduction_allocs();
        for _ in 0..3 {
            engine.analyze(&video).unwrap();
        }
        assert_eq!(
            reduction_allocs(),
            before,
            "warm batch analysis must not allocate in the pyramid reductions"
        );
    }

    #[test]
    fn warm_helper_threads_reduce_without_allocating() {
        // Each helper extracts at least one frame of every batch with its
        // own engine-owned arena and reports its allocations to the
        // caller: a cold three-thread engine warms three arenas, and after
        // that one warm batch no thread allocates again.
        let video = Video::new(clip((160, 120), &[(1, 4), (2, 4)]), 3.0).unwrap();
        let threads = |n| {
            AnalysisEngine::new(AnalyzerConfig {
                parallelism: Parallelism::Threads(n),
                ..AnalyzerConfig::default()
            })
        };
        let before = reduction_allocs();
        threads(1).analyze(&video).unwrap();
        let one_arena = reduction_allocs() - before;
        assert!(one_arena > 0, "a cold arena must grow");

        let mut engine = threads(3);
        let before = reduction_allocs();
        engine.analyze(&video).unwrap();
        assert_eq!(reduction_allocs() - before, 3 * one_arena);
        let before = reduction_allocs();
        for _ in 0..3 {
            engine.analyze(&video).unwrap();
        }
        assert_eq!(
            reduction_allocs(),
            before,
            "warm helper threads must not allocate in the pyramid reductions"
        );
    }

    #[test]
    fn every_batch_size_and_thread_count_equals_push_frame() {
        // Batches of 0, 1, 2, 3 and 37 frames (37 crosses two shot
        // boundaries) on 1, 2, 3 and 8 threads, so some batches have more
        // helpers than frames.
        let frames = clip((80, 60), &[(1, 12), (2, 13), (3, 12)]);
        for n in [0usize, 1, 2, 3, 37] {
            let batch = &frames[..n];
            let mut reference = AnalysisEngine::default();
            let expected: Vec<PushOutcome> = batch
                .iter()
                .map(|f| reference.push_frame(f).unwrap())
                .collect();
            let expected_analysis = reference.finish().ok();
            for threads in [1usize, 2, 3, 8] {
                let registry = Registry::new();
                let config = AnalyzerConfig {
                    parallelism: Parallelism::Threads(threads),
                    ..AnalyzerConfig::default()
                };
                let mut engine = AnalysisEngine::with_registry(config, &registry);
                let label = format!("{n} frames on {threads} threads");
                assert_eq!(engine.push_frames(batch).unwrap(), expected, "{label}");
                assert_eq!(engine.frame_count(), n, "{label}");
                assert_eq!(
                    registry.snapshot().counter("core.pipeline.frames"),
                    Some(n as u64),
                    "{label}"
                );
                assert_eq!(engine.finish().ok(), expected_analysis, "{label}");
            }
        }
    }

    #[test]
    fn traced_analyze_records_every_stage_under_one_root() {
        let video = Video::new(clip((80, 60), &[(1, 6), (2, 5)]), 3.0).unwrap();
        let mut engine = AnalysisEngine::default();
        let plain = engine.analyze(&video).unwrap();

        let tracer = global_tracer();
        let root = tracer.trace_root_forced();
        let traced = {
            let _entered = root.enter();
            engine.analyze(&video).unwrap()
        };
        assert_eq!(traced, plain, "tracing must never change the analysis");

        let events = tracer.recorder().events_for(root.trace_id);
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        for stage in [
            "core.pipeline.extract",
            "core.pipeline.cascade",
            "core.pipeline.assemble",
            "core.pipeline.scenetree",
            "core.pipeline.index",
            "core.pipeline.analyze",
        ] {
            assert!(names.contains(&stage), "missing span {stage} in {names:?}");
        }
        // Stage spans are children of the analyze span.
        let analyze = events
            .iter()
            .find(|e| e.name == "core.pipeline.analyze")
            .unwrap();
        assert_eq!(analyze.parent_id, 0);
        assert!(analyze.attrs.contains("frames=11"));
        for e in events.iter().filter(|e| e.name != "core.pipeline.analyze") {
            assert_eq!(e.parent_id, analyze.span_id, "{} misparented", e.name);
        }

        // An unsampled context records nothing.
        let before = tracer.recorder().total_recorded();
        let _entered = TraceContext::disabled().enter();
        engine.analyze(&video).unwrap();
        assert_eq!(tracer.recorder().total_recorded(), before);
    }

    #[test]
    fn instrumentation_observes_without_perturbing() {
        let frames = clip((80, 60), &[(1, 6), (2, 5), (3, 7)]);
        let video = Video::new(frames, 3.0).unwrap();

        let registry = Registry::new();
        let mut instrumented = AnalysisEngine::with_registry(AnalyzerConfig::default(), &registry);
        let mut bare = AnalysisEngine::without_observability(AnalyzerConfig::default());
        let a = instrumented.analyze(&video).unwrap();
        let b = bare.analyze(&video).unwrap();
        assert_eq!(a, b, "metrics must never change the analysis");

        // The registry saw exactly one clip's worth of work, and the
        // stage-hit counters are the segmentation's own stats.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.pipeline.clips"), Some(1));
        assert_eq!(snap.counter("core.pipeline.frames"), Some(18));
        let stats = &a.segmentation.stats;
        assert_eq!(
            snap.counter("core.cascade.sign_same"),
            Some(stats.stage1_same as u64)
        );
        assert_eq!(
            snap.counter("core.cascade.signature_same"),
            Some(stats.stage2_same as u64)
        );
        assert_eq!(
            snap.counter("core.cascade.tracking_same"),
            Some(stats.stage3_same as u64)
        );
        assert_eq!(
            snap.counter("core.cascade.boundaries"),
            Some(stats.boundaries as u64)
        );
        // Every stage span fired.
        for stage in [
            "core.pipeline.extract_us",
            "core.pipeline.cascade_us",
            "core.pipeline.assemble_us",
            "core.pipeline.scenetree_us",
            "core.pipeline.index_us",
        ] {
            assert!(
                snap.histogram(stage).unwrap().count > 0,
                "{stage} never recorded"
            );
        }
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let video = Video::new(clip((80, 60), &[(1, 5), (2, 5)]), 3.0).unwrap();
        let registry = Registry::disabled();
        let mut engine = AnalysisEngine::with_registry(AnalyzerConfig::default(), &registry);
        let analysis = engine.analyze(&video).unwrap();
        assert_eq!(
            analysis,
            AnalysisEngine::without_observability(AnalyzerConfig::default())
                .analyze(&video)
                .unwrap()
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.pipeline.frames"), Some(0));
        assert_eq!(snap.histogram("core.pipeline.extract_us").unwrap().count, 0);
    }

    proptest! {
        /// Stale-state guard: one engine (one scratch arena) reused across
        /// many clips of different dimensions yields exactly what a fresh
        /// engine yields for each clip.
        #[test]
        fn prop_engine_reuse_across_clip_dims_is_stateless(
            picks in proptest::collection::vec((0usize..3, 0u64..50, 2usize..6), 1..5)
        ) {
            const DIMS: [(u32, u32); 3] = [(80, 60), (160, 120), (100, 80)];
            let mut reused = AnalysisEngine::default();
            for (which, world, n) in picks {
                let dims = DIMS[which];
                let video = Video::new(clip(dims, &[(world, n), (world + 1, n)]), 3.0).unwrap();
                let from_reused = reused.analyze(&video).unwrap();
                let from_fresh = AnalysisEngine::default().analyze(&video).unwrap();
                prop_assert_eq!(from_reused, from_fresh);
            }
        }
    }
}
