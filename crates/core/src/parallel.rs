//! Parallel frame-feature extraction.
//!
//! Per-frame feature extraction (§2.1–§2.2: TBA/FOA crop, pyramid
//! reduction to signature and signs) is embarrassingly parallel — each
//! frame is independent. Only the SBD cascade that follows compares
//! *adjacent* frames and is inherently sequential. This module shards
//! frames across scoped worker threads, collects the per-frame
//! [`FrameFeatures`] back in frame order, and leaves the cascade exactly
//! as it is — so the result of a parallel run is **bit-identical** to the
//! serial path for every thread count:
//!
//! * extraction is a pure function of one frame (no accumulation order to
//!   perturb), and
//! * workers write into a pre-sized slot table indexed by frame number, so
//!   collection order is frame order regardless of scheduling.
//!
//! Errors also match serial semantics: if several frames fail, the error
//! reported is the one the serial loop would have hit first.

use crate::error::Result;
use crate::features::{FeatureExtractor, FrameFeatures, ScratchBuffers};
use crate::frame::FrameBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many worker threads feature extraction may use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Extract in the calling thread (the default; no threads spawned).
    #[default]
    Serial,
    /// Use exactly this many workers. `Threads(0)` and `Threads(1)`
    /// behave like [`Parallelism::Serial`].
    Threads(usize),
    /// One worker per available CPU core.
    Auto,
}

impl Parallelism {
    /// Resolve to a concrete worker count (always ≥ 1).
    pub fn effective_threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// Extract features for every frame, sharded across `threads` scoped
/// workers.
///
/// Returns the same `Vec<FrameFeatures>` (and on failure, the same
/// earliest error) as the serial `extractor.extract(frame)` loop. With
/// `threads <= 1` — or fewer frames than workers would help with — it *is*
/// the serial loop, extracting through `scratch` (allocation-free after
/// warm-up); the sharded path gives each worker its own private arena for
/// the duration of the batch. This is the pipeline engine's extraction
/// front-end.
pub fn extract_features_reusing(
    extractor: &FeatureExtractor,
    frames: &[FrameBuf],
    threads: usize,
    scratch: &mut ScratchBuffers,
) -> Result<Vec<FrameFeatures>> {
    let threads = threads.min(frames.len());
    if threads <= 1 {
        return frames
            .iter()
            .map(|f| extractor.extract_with(f, scratch))
            .collect();
    }

    // Work queue: an atomic cursor over frame indices; results land in
    // per-frame slots so collection order is frame order.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<Result<FrameFeatures>>>> = Vec::with_capacity(frames.len());
    slots.resize_with(frames.len(), || Mutex::new(None));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = ScratchBuffers::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= frames.len() {
                        break;
                    }
                    let result = extractor.extract_with(&frames[i], &mut scratch);
                    *slots[i].lock().expect("slot lock poisoned") = Some(result);
                }
            });
        }
    });

    // In-order collection: the first error encountered here is the first
    // error the serial loop would have returned.
    let mut out = Vec::with_capacity(frames.len());
    for slot in slots {
        let result = slot
            .into_inner()
            .expect("slot lock poisoned")
            .expect("every frame index was claimed by a worker");
        out.push(result?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Video;
    use crate::pixel::Rgb;

    fn textured_frames(n: usize, w: u32, h: u32) -> Vec<FrameBuf> {
        (0..n)
            .map(|t| {
                FrameBuf::from_fn(w, h, move |x, y| {
                    Rgb::new(
                        ((x * 3 + t as u32 * 17) % 251) as u8,
                        ((y * 5 + t as u32 * 29) % 241) as u8,
                        ((x + y + t as u32) % 223) as u8,
                    )
                })
            })
            .collect()
    }

    #[test]
    fn parallelism_resolution() {
        assert_eq!(Parallelism::Serial.effective_threads(), 1);
        assert_eq!(Parallelism::Threads(0).effective_threads(), 1);
        assert_eq!(Parallelism::Threads(6).effective_threads(), 6);
        assert!(Parallelism::Auto.effective_threads() >= 1);
    }

    #[test]
    fn parallel_matches_serial_for_every_thread_count() {
        let frames = textured_frames(23, 80, 60);
        let ex = FeatureExtractor::new(80, 60).unwrap();
        let serial: Vec<FrameFeatures> = frames.iter().map(|f| ex.extract(f).unwrap()).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            let parallel =
                extract_features_reusing(&ex, &frames, threads, &mut ScratchBuffers::default())
                    .unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_frame_inputs() {
        let ex = FeatureExtractor::new(80, 60).unwrap();
        assert_eq!(
            extract_features_reusing(&ex, &[], 4, &mut ScratchBuffers::default()).unwrap(),
            vec![]
        );
        let one = textured_frames(1, 80, 60);
        let out = extract_features_reusing(&ex, &one, 4, &mut ScratchBuffers::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], ex.extract(&one[0]).unwrap());
    }

    #[test]
    fn video_level_helper_matches_free_function() {
        // `features::extract_features` (the video-level helper) equals the
        // sharded free function at every `Parallelism`.
        let video = Video::new(textured_frames(12, 160, 120), 3.0).unwrap();
        let serial = crate::features::extract_features(&video).unwrap();
        let ex = FeatureExtractor::new(160, 120).unwrap();
        for p in [
            Parallelism::Serial,
            Parallelism::Threads(4),
            Parallelism::Auto,
        ] {
            let threads = p.effective_threads();
            let got = extract_features_reusing(
                &ex,
                video.frames(),
                threads,
                &mut ScratchBuffers::default(),
            );
            assert_eq!(got.unwrap(), serial, "{p:?}");
        }
    }

    #[test]
    fn simd_by_threads_grid_is_bit_identical() {
        // The two performance knobs must compose without perturbing output.
        let frames = textured_frames(17, 97, 73);
        let serial: Vec<FrameFeatures> = {
            let ex = FeatureExtractor::new(97, 73).unwrap();
            frames.iter().map(|f| ex.extract(f).unwrap()).collect()
        };
        for simd in crate::simd::SimdLevel::all_available() {
            let ex = FeatureExtractor::with_simd(97, 73, simd).unwrap();
            for threads in [1, 3, 8] {
                assert_eq!(
                    extract_features_reusing(&ex, &frames, threads, &mut ScratchBuffers::default())
                        .unwrap(),
                    serial,
                    "simd={simd} threads={threads}"
                );
            }
        }
    }
}
