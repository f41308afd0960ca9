//! Cross-implementation equivalence: the three ways to analyze a video —
//! batch [`VideoAnalyzer`], frame-at-a-time [`AnalysisEngine::push_frame`],
//! and batched parallel [`AnalysisEngine::push_frames`] — must produce
//! **identical** [`vdb_core::analyzer::VideoAnalysis`] artifacts for every
//! genre, frame size, and thread count.
//!
//! This is the lock on the parallel ingest path: feature extraction is a
//! pure per-frame function and the cascade is sequential, so no amount of
//! threading may perturb a single sign, decision, boundary, scene node, or
//! variance. Equality is asserted on the whole `VideoAnalysis` (derived
//! `PartialEq` covers signs, segmentation incl. cascade stats, scene tree,
//! and features).

use proptest::prelude::*;
use vdb_core::analyzer::{AnalyzerConfig, VideoAnalysis, VideoAnalyzer};
use vdb_core::frame::{FrameBuf, Video};
use vdb_core::parallel::Parallelism;
use vdb_core::pipeline::AnalysisEngine;
use vdb_synth::script::generate;
use vdb_synth::{build_script, Genre};

const GENRES: [Genre; 3] = [Genre::Sitcom, Genre::Sports, Genre::Commercials];
const SIZES: [(u32, u32); 2] = [(80, 60), (160, 120)];
const THREADS: [usize; 3] = [1, 2, 4];

fn clip(genre: Genre, dims: (u32, u32), seed: u64) -> (Vec<FrameBuf>, Video) {
    let script = build_script(genre, 8, Some(6.0), dims, seed);
    let video = generate(&script).video;
    (video.frames().to_vec(), video)
}

fn config(threads: usize) -> AnalyzerConfig {
    AnalyzerConfig {
        parallelism: Parallelism::Threads(threads),
        ..AnalyzerConfig::default()
    }
}

/// The reference every path is held to: the batch analyzer on the
/// calling thread alone.
fn serial_reference(video: &Video) -> VideoAnalysis {
    VideoAnalyzer::with_config(AnalyzerConfig {
        parallelism: Parallelism::Serial,
        ..AnalyzerConfig::default()
    })
    .analyze(video)
    .unwrap()
}

/// The full grid: 3 genres × 2 frame sizes × serial reference, then every
/// thread count through every implementation.
#[test]
fn all_paths_agree_across_genres_sizes_and_threads() {
    for (gi, &genre) in GENRES.iter().enumerate() {
        for (si, &dims) in SIZES.iter().enumerate() {
            let seed = 1000 + (gi * SIZES.len() + si) as u64;
            let (frames, video) = clip(genre, dims, seed);
            let reference = serial_reference(&video);
            assert!(
                reference.shots().len() >= 2,
                "{genre} {dims:?}: degenerate clip, test has no power"
            );

            for &threads in &THREADS {
                let label = format!("{genre} {dims:?} threads={threads}");

                // Batch analyzer with parallel extraction.
                let batch = VideoAnalyzer::with_config(config(threads))
                    .analyze(&video)
                    .unwrap();
                assert_eq!(batch, reference, "batch parallel diverged: {label}");

                // Streaming, one frame at a time.
                let mut push_one = AnalysisEngine::new(config(threads));
                for f in &frames {
                    push_one.push_frame(f).unwrap();
                }
                assert_eq!(
                    push_one.finish().unwrap(),
                    reference,
                    "streaming push diverged: {label}"
                );

                // Streaming, batched parallel extraction.
                let mut batched = AnalysisEngine::new(config(threads));
                for chunk in frames.chunks(7) {
                    batched.push_frames(chunk).unwrap();
                }
                assert_eq!(
                    batched.finish().unwrap(),
                    reference,
                    "streaming push_frames diverged: {label}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: for a random genre, seed, thread count, and arbitrary
    /// batch segmentation of the frame stream, `push_frames` equals the
    /// batch analyzer frame for frame.
    #[test]
    fn random_batch_splits_preserve_equivalence(
        genre_idx in 0usize..3,
        seed in 1u64..10_000,
        threads in 1usize..5,
        chunk in 1usize..13,
    ) {
        let (frames, video) = clip(GENRES[genre_idx], (80, 60), seed);
        let reference = serial_reference(&video);

        let mut s = AnalysisEngine::new(config(threads));
        // Chunk width varies per case; a width ≥ len is one big batch.
        for batch in frames.chunks(chunk) {
            s.push_frames(batch).unwrap();
        }
        prop_assert_eq!(s.finish().unwrap(), reference);
    }
}
