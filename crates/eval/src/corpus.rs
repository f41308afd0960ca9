//! Building and analyzing the Table 5 corpus.
//!
//! Expands every [`ClipSpec`] into a generated clip at the requested scale
//! and (optionally, in parallel on scoped threads) runs a
//! detector over each. Generation and analysis dominate experiment time at
//! full scale, so the corpus builder is the crate's one parallel component.

use vdb_core::frame::Video;
use vdb_synth::clips::{table5_clips, ClipSpec, Scale};
use vdb_synth::script::{generate, GroundTruth};

/// One generated corpus clip.
#[derive(Debug, Clone)]
pub struct CorpusClip {
    /// Which Table 5 row it came from.
    pub spec: ClipSpec,
    /// The frames.
    pub video: Video,
    /// The ground truth.
    pub truth: GroundTruth,
}

/// Default frame size for corpus experiments. 80×60 halves the paper's
/// 160×120 in each dimension; the geometry/pyramid pipeline is identical
/// and experiments run ~4× faster.
pub const CORPUS_DIMS: (u32, u32) = (80, 60);

/// Generate the whole 22-clip corpus at a scale, sequentially.
pub fn build_corpus(scale: Scale, dims: (u32, u32), seed: u64) -> Vec<CorpusClip> {
    table5_clips()
        .into_iter()
        .map(|spec| {
            let script = spec.script(scale, dims, seed);
            let g = generate(&script);
            CorpusClip {
                spec,
                video: g.video,
                truth: g.truth,
            }
        })
        .collect()
}

/// Generate the corpus with `workers` threads (order preserved).
pub fn build_corpus_parallel(
    scale: Scale,
    dims: (u32, u32),
    seed: u64,
    workers: usize,
) -> Vec<CorpusClip> {
    let specs = table5_clips();
    let n = specs.len();
    let mut slots: Vec<Option<CorpusClip>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots_mutex = parking_slots(slots);
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let spec = specs[i];
                let script = spec.script(scale, dims, seed);
                let g = generate(&script);
                let clip = CorpusClip {
                    spec,
                    video: g.video,
                    truth: g.truth,
                };
                slots_mutex[i].lock().unwrap().replace(clip);
            });
        }
    });
    slots_mutex
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every slot filled"))
        .collect()
}

fn parking_slots(slots: Vec<Option<CorpusClip>>) -> Vec<std::sync::Mutex<Option<CorpusClip>>> {
    slots.into_iter().map(std::sync::Mutex::new).collect()
}

/// Apply `f` to every clip in parallel, collecting results in clip order.
/// Used to fan detector runs out over the corpus.
pub fn map_corpus<R: Send>(
    clips: &[CorpusClip],
    workers: usize,
    f: impl Fn(&CorpusClip) -> R + Sync,
) -> Vec<R> {
    let n = clips.len();
    let mut slots: Vec<std::sync::Mutex<Option<R>>> = Vec::with_capacity(n);
    slots.resize_with(n, || std::sync::Mutex::new(None));
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&clips[i]);
                slots[i].lock().unwrap().replace(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree() {
        let a = build_corpus(Scale::Fraction(0.02), CORPUS_DIMS, 9);
        let b = build_corpus_parallel(Scale::Fraction(0.02), CORPUS_DIMS, 9, 4);
        assert_eq!(a.len(), 22);
        assert_eq!(b.len(), 22);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec.name, y.spec.name);
            assert_eq!(x.truth, y.truth);
            assert_eq!(x.video, y.video);
        }
    }

    #[test]
    fn map_corpus_preserves_order() {
        let clips = build_corpus(Scale::Fraction(0.02), CORPUS_DIMS, 3);
        let names = map_corpus(&clips, 4, |c| c.spec.name.to_string());
        let expected: Vec<String> = clips.iter().map(|c| c.spec.name.to_string()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn clips_have_expected_boundary_counts() {
        let clips = build_corpus(Scale::Fraction(0.02), CORPUS_DIMS, 3);
        for c in &clips {
            assert_eq!(
                c.truth.boundaries.len() + 1,
                c.truth.shot_count(),
                "{}",
                c.spec.name
            );
            assert!(!c.video.is_empty());
        }
    }
}
