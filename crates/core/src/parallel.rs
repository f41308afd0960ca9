//! The thread model of batch ingest: how many threads extract, and how
//! their frames reach the cascade in order.
//!
//! Per-frame feature extraction (§2.1–§2.2: TBA/FOA crop, pyramid
//! reduction to signature and signs) is a pure function of one frame;
//! only the SBD cascade that follows compares *adjacent* frames and is
//! sequential. [`crate::pipeline::AnalysisEngine::push_frames`] therefore
//! runs one ordered pipeline: scoped helper threads and the calling
//! thread claim frame indices from one atomic cursor and extract them,
//! and the calling thread feeds frame `i` to the cascade as soon as
//! frames `0..=i` are ready. `HandOff` is the meeting point: one slot
//! per frame, written once by whichever thread extracted it and taken
//! once, in frame order, by the caller.
//!
//! The result is **bit-identical** for every thread count: each frame's
//! features do not depend on which thread extracted them, and the
//! cascade consumes them in frame order whatever the scheduling.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, Thread};

/// How many threads a batch of frames is extracted on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Extract in the calling thread only (no threads spawned).
    Serial,
    /// Use at most this many threads, the caller included. `Threads(0)`
    /// and `Threads(1)` behave like [`Parallelism::Serial`].
    Threads(usize),
    /// One thread per CPU this process may run on (the default).
    #[default]
    Auto,
}

impl Parallelism {
    /// Resolve to a concrete thread count (always ≥ 1). `Auto` asks
    /// [`std::thread::available_parallelism`], which reads the affinity
    /// mask and cgroup quota, so the engine resolves it once when it is
    /// built.
    pub fn effective_threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// Per-frame results passed from the threads that produce them to the one
/// thread that consumes them in order.
///
/// Each participant starts on an item of its own (in the engine the
/// consumer takes 0 and helper `k` takes `k`), so every spawned helper
/// extracts at least one frame; after that each claims the next
/// unclaimed index from one cursor. The consumer blocks in
/// [`HandOff::wait`] by parking (no busy spin); every [`HandOff::put`]
/// unparks it.
pub(crate) struct HandOff<T> {
    next: AtomicUsize,
    slots: Vec<Mutex<Option<T>>>,
    consumer: Thread,
    abandoned: AtomicBool,
}

impl<T> HandOff<T> {
    /// A hand-off of `len` items consumed by the calling thread. Items
    /// `0..preassigned` are each some participant's first item, so the
    /// cursor starts after them.
    pub(crate) fn new(len: usize, preassigned: usize) -> Self {
        let mut slots = Vec::with_capacity(len);
        slots.resize_with(len, || Mutex::new(None));
        HandOff {
            next: AtomicUsize::new(preassigned),
            slots,
            consumer: thread::current(),
            abandoned: AtomicBool::new(false),
        }
    }

    /// The next unclaimed item, if any is left.
    pub(crate) fn claim(&self) -> Option<usize> {
        // Relaxed: the cursor only hands out distinct indices; the items
        // themselves travel through the slot mutexes.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.slots.len()).then_some(i)
    }

    /// Publish item `i` and wake the consumer.
    pub(crate) fn put(&self, i: usize, value: T) {
        *self.slots[i].lock().expect("slot lock poisoned") = Some(value);
        self.consumer.unpark();
    }

    /// Item `i` if it is ready (and not taken yet); `None` past the end.
    pub(crate) fn take(&self, i: usize) -> Option<T> {
        self.slots
            .get(i)?
            .lock()
            .expect("slot lock poisoned")
            .take()
    }

    /// Item `i`, parking until a helper has put it.
    ///
    /// # Panics
    /// If a helper thread panicked, since the item may never come.
    pub(crate) fn wait(&self, i: usize) -> T {
        loop {
            if let Some(value) = self.take(i) {
                return value;
            }
            assert!(
                !self.abandoned.load(Ordering::Acquire),
                "a helper thread panicked"
            );
            thread::park();
        }
    }

    /// A helper's whole life: produce item `first`, then every item it
    /// claims. A panic in `produce` marks the hand-off abandoned and wakes
    /// the consumer, so it does not wait for an item that never comes.
    pub(crate) fn help(&self, first: usize, mut produce: impl FnMut(usize) -> T) {
        struct Abandon<'a, T>(&'a HandOff<T>);
        impl<T> Drop for Abandon<'_, T> {
            fn drop(&mut self) {
                if thread::panicking() {
                    // Pairs with the Acquire load in `wait`.
                    self.0.abandoned.store(true, Ordering::Release);
                    self.0.consumer.unpark();
                }
            }
        }
        let _abandon = Abandon(self);
        let mut item = Some(first);
        while let Some(i) = item {
            self.put(i, produce(i));
            item = self.claim();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::AnalyzerConfig;
    use crate::features::{FeatureExtractor, FrameFeatures};
    use crate::frame::{FrameBuf, Video};
    use crate::pipeline::AnalysisEngine;
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

    /// `len` items produced by `helpers` helper threads (the consumer
    /// produces none) and consumed in order.
    fn hand_off_in_order<T: Send>(
        len: usize,
        helpers: usize,
        produce: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let helpers = helpers.min(len);
        let hand_off = HandOff::new(len, helpers);
        // Here the consumer produces nothing: helper `k` starts on item `k`.
        let (hand_off_ref, produce) = (&hand_off, &produce);
        thread::scope(|s| {
            for k in 0..helpers {
                s.spawn(move || hand_off_ref.help(k, produce));
            }
            (0..len).map(|i| hand_off.wait(i)).collect()
        })
    }

    #[test]
    fn parallelism_resolution() {
        assert_eq!(Parallelism::default(), Parallelism::Auto);
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
        for helpers in [1, 2, 3, 4, 8] {
            let got = hand_off_in_order(frames.len(), helpers, |i| ex.extract(&frames[i]).unwrap());
            assert_eq!(got, serial, "helpers={helpers}");
        }
    }

    #[test]
    fn video_level_helper_matches_free_function() {
        // `features::extract_features` (the video-level helper) equals
        // what the hand-off delivers at every `Parallelism`.
        let video = Video::new(textured_frames(12, 160, 120), 3.0).unwrap();
        let serial = crate::features::extract_features(&video).unwrap();
        let ex = FeatureExtractor::new(160, 120).unwrap();
        for p in [
            Parallelism::Serial,
            Parallelism::Threads(4),
            Parallelism::Auto,
        ] {
            let got = hand_off_in_order(video.len(), p.effective_threads(), |i| {
                ex.extract(&video.frames()[i]).unwrap()
            });
            assert_eq!(got, serial, "{p:?}");
        }
    }

    #[test]
    fn simd_by_threads_grid_is_bit_identical() {
        // The two performance knobs must compose without perturbing the
        // analysis, through the engine's own batch path.
        let video = Video::new(textured_frames(17, 97, 73), 3.0).unwrap();
        let serial = AnalysisEngine::new(AnalyzerConfig {
            parallelism: Parallelism::Serial,
            ..AnalyzerConfig::default()
        })
        .analyze(&video)
        .unwrap();
        for simd in crate::simd::SimdLevel::all_available() {
            for threads in [1, 3, 8] {
                let config = AnalyzerConfig {
                    parallelism: Parallelism::Threads(threads),
                    simd,
                    ..AnalyzerConfig::default()
                };
                assert_eq!(
                    AnalysisEngine::new(config).analyze(&video).unwrap(),
                    serial,
                    "simd={simd} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn empty_and_single_frame_inputs() {
        assert!(hand_off_in_order(0, 4, |i| i).is_empty());
        assert_eq!(hand_off_in_order(1, 4, |i| i * 10), vec![0]);
        // Nothing is left to claim once the cursor passes the end.
        let hand_off = HandOff::<usize>::new(2, 1);
        assert_eq!(hand_off.claim(), Some(1));
        assert_eq!(hand_off.claim(), None);
        assert_eq!(hand_off.claim(), None);
        assert_eq!(hand_off.take(2), None, "past the end is never ready");
    }

    #[test]
    fn a_panicking_helper_fails_the_consumer_instead_of_hanging_it() {
        let result = std::panic::catch_unwind(|| {
            hand_off_in_order(6, 2, |i| {
                assert_ne!(i, 3, "injected failure");
                i
            })
        });
        assert!(result.is_err());
    }
}
