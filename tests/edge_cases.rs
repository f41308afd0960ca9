//! Degenerate-input behavior across every analysis entry point: empty
//! videos, single frames, fully static clips, and frames below the
//! pyramid's minimum size. The contract is uniform — a clean `Err` (or a
//! degenerate-but-valid analysis), never a panic, in the batch analyzer,
//! the frame-at-a-time engine, the parallel extraction path, and the store.

use vdb_core::analyzer::{AnalyzerConfig, VideoAnalyzer};
use vdb_core::error::CoreError;
use vdb_core::features::FeatureExtractor;
use vdb_core::frame::{FrameBuf, Video};
use vdb_core::parallel::Parallelism;
use vdb_core::pipeline::AnalysisEngine;
use vdb_core::pixel::Rgb;
use vdb_store::{ServerStore, VideoDatabase};

fn parallel_cfg(threads: usize) -> AnalyzerConfig {
    AnalyzerConfig {
        parallelism: Parallelism::Threads(threads),
        ..AnalyzerConfig::default()
    }
}

#[test]
fn zero_frames_is_a_construction_error() {
    assert!(matches!(
        Video::new(vec![], 3.0),
        Err(CoreError::EmptyVideo)
    ));
}

#[test]
fn empty_stream_and_empty_batches_yield_empty_video_error() {
    let mut s = AnalysisEngine::new(parallel_cfg(4));
    for _ in 0..3 {
        assert!(s.push_frames(&[]).unwrap().is_empty());
    }
    assert_eq!(s.frame_count(), 0);
    assert!(matches!(s.finish(), Err(CoreError::EmptyVideo)));
}

#[test]
fn single_frame_video_is_one_shot_everywhere() {
    let frame = FrameBuf::filled(80, 60, Rgb::new(12, 200, 99));
    let video = Video::new(vec![frame.clone()], 3.0).unwrap();

    for cfg in [AnalyzerConfig::default(), parallel_cfg(4)] {
        let a = VideoAnalyzer::with_config(cfg).analyze(&video).unwrap();
        assert_eq!(a.frame_count(), 1);
        assert_eq!(a.shots().len(), 1);
        assert!(a.segmentation.boundaries.is_empty());
        assert!(a.segmentation.decisions.is_empty());
        a.scene_tree.check_invariants().unwrap();

        let mut s = AnalysisEngine::new(cfg);
        s.push_frames(std::slice::from_ref(&frame)).unwrap();
        assert_eq!(s.finish().unwrap(), a);
    }

    let mut db = VideoDatabase::new();
    let id = db.ingest("one-frame", &video, vec![], vec![]).unwrap();
    assert_eq!(db.analysis(id).unwrap().shots.len(), 1);
}

#[test]
fn identical_frames_collapse_to_one_zero_variance_shot() {
    let video = Video::new(vec![FrameBuf::filled(80, 60, Rgb::gray(77)); 30], 3.0).unwrap();
    for cfg in [AnalyzerConfig::default(), parallel_cfg(3)] {
        let a = VideoAnalyzer::with_config(cfg).analyze(&video).unwrap();
        assert_eq!(a.shots().len(), 1, "static clip must stay one shot");
        assert!(a.segmentation.boundaries.is_empty());
        assert_eq!(a.features.len(), 1);
        assert_eq!(a.features[0].var_ba, 0.0);
        assert_eq!(a.features[0].var_oa, 0.0);
    }
}

#[test]
fn below_minimum_dims_error_never_panic() {
    let tiny = Video::new(vec![FrameBuf::black(8, 8); 4], 3.0).unwrap();

    // Batch, serial and parallel configs.
    for cfg in [AnalyzerConfig::default(), parallel_cfg(4)] {
        assert!(matches!(
            VideoAnalyzer::with_config(cfg).analyze(&tiny),
            Err(CoreError::FrameTooSmall { .. })
        ));
    }

    // Streaming: the first frame rejects, and the analyzer stays usable
    // as an empty stream.
    let mut s = AnalysisEngine::new(parallel_cfg(2));
    assert!(s.push_frame(&FrameBuf::black(8, 8)).is_err());
    assert!(s.push_frames(&vec![FrameBuf::black(8, 8); 2]).is_err());
    assert_eq!(s.frame_count(), 0);
    assert!(matches!(s.finish(), Err(CoreError::EmptyVideo)));

    // The extractor itself refuses construction.
    assert!(FeatureExtractor::new(8, 8).is_err());

    // Store: a clean DbError, nothing registered.
    let mut db = VideoDatabase::new();
    assert!(db.ingest("tiny", &tiny, vec![], vec![]).is_err());
    assert!(db.is_empty());
    let shared = ServerStore::new(VideoDatabase::with_config(parallel_cfg(2)));
    assert!(shared
        .write(|b| b.ingest_clip("tiny".into(), &tiny, vec![], vec![]))
        .is_err());
    assert!(shared.read(|d| d.is_empty()));
}

#[test]
fn mixed_dimension_frames_rejected_without_consuming() {
    // A batch containing a frame whose dimensions differ from the
    // stream's first frame: rejected with the frame's absolute index, no
    // partial consumption, analyzer still usable.
    let good = FrameBuf::filled(80, 60, Rgb::gray(10));
    let stray = FrameBuf::filled(160, 120, Rgb::gray(10));

    let mut s = AnalysisEngine::new(parallel_cfg(4));
    s.push_frames(&vec![good.clone(); 3]).unwrap();
    let err = s
        .push_frames(&[good.clone(), stray.clone(), good.clone()])
        .unwrap_err();
    assert!(matches!(
        err,
        CoreError::InconsistentDimensions {
            first: (80, 60),
            other: (160, 120),
            frame: 4,
        }
    ));
    assert_eq!(s.frame_count(), 3, "failed batch must not be consumed");

    assert!(s.push_frame(&stray).is_err());
    s.push_frame(&good).unwrap();
    let analysis = s.finish().unwrap();
    assert_eq!(analysis.frame_count(), 4);
}

#[test]
fn parallel_extraction_on_empty_and_tiny_inputs() {
    // More threads than frames (including zero frames) must not panic or
    // deadlock, and must match the frame-at-a-time result.
    let mut engine = AnalysisEngine::new(parallel_cfg(8));
    assert!(engine.push_frames(&[]).unwrap().is_empty());
    let frames = vec![FrameBuf::filled(80, 60, Rgb::gray(5)); 2];
    let outcomes = engine.push_frames(&frames).unwrap();
    let mut one_at_a_time = AnalysisEngine::new(parallel_cfg(1));
    let expected: Vec<_> = frames
        .iter()
        .map(|f| one_at_a_time.push_frame(f).unwrap())
        .collect();
    assert_eq!(outcomes, expected);
    assert_eq!(engine.finish().unwrap(), one_at_a_time.finish().unwrap());
}
