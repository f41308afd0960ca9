//! # vdb-eval
//!
//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures on the synthetic corpus.
//!
//! * [`metrics`] — recall/precision/F1 with tolerance-window boundary
//!   matching (§5.1's definitions);
//! * [`corpus`] — builds the 22-clip Table 5 corpus (optionally in
//!   parallel) and fans detector runs over it;
//! * [`experiments`] — Table 5, the Figure 4 cascade statistics, the
//!   baseline shoot-out, and the threshold-sensitivity sweep;
//! * [`retrieval`] — Figures 5–7 (scene trees), Table 3, Table 4, Figures
//!   8–10 (variance-similarity retrieval), and the hierarchy comparison;
//! * [`ablation`] — the FBA-shape ablation (why the ⊓?) and the §6
//!   basic-vs-extended similarity-model comparison;
//! * [`indexperf`] — the scan-vs-index crossover sweep for the bucketed
//!   shot index and its cost model;
//! * [`report`] — fixed-width table rendering shared by all runners.
//!
//! The `vdb-bench` crate's `tables` and `figures` binaries are thin CLI
//! wrappers over these runners; EXPERIMENTS.md records their output.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod corpus;
pub mod experiments;
pub mod indexperf;
pub mod metrics;
pub mod report;
pub mod retrieval;

pub use corpus::{build_corpus, build_corpus_parallel, CorpusClip, CORPUS_DIMS};
pub use metrics::{evaluate_boundaries, recall_precision, DetectionEval};

#[cfg(test)]
mod tests {
    use crate::corpus::map_corpus;
    use crate::{build_corpus, CORPUS_DIMS};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vdb_core::analyzer::{AnalyzerConfig, VideoAnalyzer};
    use vdb_core::parallel::Parallelism;
    use vdb_synth::clips::Scale;

    #[test]
    fn scope_joins_all_children() {
        let clips = build_corpus(Scale::Fraction(0.02), CORPUS_DIMS, 5);
        // More workers than clips, and a zero worker count: either way
        // every clip is visited once and every worker is joined before
        // the results come back.
        for workers in [0, 4, clips.len() + 3] {
            let visits = AtomicUsize::new(0);
            let out = map_corpus(&clips, workers, |c| {
                visits.fetch_add(1, Ordering::Relaxed);
                c.video.len()
            });
            assert_eq!(
                visits.load(Ordering::Relaxed),
                clips.len(),
                "workers={workers}"
            );
            let expected: Vec<usize> = clips.iter().map(|c| c.video.len()).collect();
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn children_can_spawn_grandchildren() {
        let clips = build_corpus(Scale::Fraction(0.02), CORPUS_DIMS, 5);
        let clips = &clips[..3];
        let serial = VideoAnalyzer::new();
        let threaded = VideoAnalyzer::with_config(AnalyzerConfig {
            parallelism: Parallelism::Threads(2),
            ..AnalyzerConfig::default()
        });
        // Each corpus worker runs an analyzer that fans frame extraction
        // out on scoped threads of its own.
        let nested = map_corpus(clips, 2, |c| threaded.analyze(&c.video).unwrap());
        for (clip, analysis) in clips.iter().zip(&nested) {
            assert_eq!(
                analysis,
                &serial.analyze(&clip.video).unwrap(),
                "{}",
                clip.spec.name
            );
        }
    }
}
