//! Observability must be free when it is off: an engine wired to a
//! *disabled* registry may not measurably slow the warm streaming path
//! compared to an engine built with no instrumentation at all.
//!
//! Methodology: the two engines analyze the same clip in strict
//! alternation (so thermal drift, page-cache state, and scheduler noise
//! hit both sides equally) and each side keeps its *minimum* elapsed
//! time — the min-of-N estimator converges on the true cost because all
//! measurement noise is additive. The timing budget is only *enforced*
//! in optimized builds: the <2% guarantee is a property of release code
//! (where the `Option<PipelineMetrics>` checks and `Span` drop glue
//! compile away), and debug-build wall clock on shared CI runners is
//! dominated by scheduler noise. Debug runs still execute both engines
//! and assert their analyses are identical.

use std::time::{Duration, Instant};
use vdb_core::analyzer::AnalyzerConfig;
use vdb_core::pipeline::AnalysisEngine;
use vdb_obs::{global_tracer, Registry, TraceContext, Tracer};
use vdb_synth::{build_script, generate, Genre};

#[test]
fn disabled_observability_adds_no_measurable_overhead() {
    let script = build_script(Genre::Sitcom, 12, None, (64, 48), 77);
    let video = generate(&script).video;
    let config = AnalyzerConfig::default();

    let disabled = Registry::disabled();

    let run = |instrumented: bool| -> (Duration, usize) {
        let start = Instant::now();
        let analysis = if instrumented {
            let mut engine = AnalysisEngine::with_registry(config, &disabled);
            engine.analyze(&video).expect("analyze")
        } else {
            let mut engine = AnalysisEngine::without_observability(config);
            engine.analyze(&video).expect("analyze")
        };
        let elapsed = start.elapsed();
        assert!(
            !analysis.segmentation.shots.is_empty(),
            "sanity: real work happened"
        );
        (elapsed, analysis.segmentation.shots.len())
    };

    // Warm-up — touch both paths so lazy init and caches are paid up
    // front — and check the engines agree on the analysis itself.
    let (_, shots_instrumented) = run(true);
    let (_, shots_bare) = run(false);
    assert_eq!(
        shots_instrumented, shots_bare,
        "instrumentation must not perturb results"
    );

    const ROUNDS: usize = 9;
    let mut best_disabled = Duration::MAX;
    let mut best_bare = Duration::MAX;
    for _ in 0..ROUNDS {
        best_disabled = best_disabled.min(run(true).0);
        best_bare = best_bare.min(run(false).0);
    }

    // 2% relative budget, plus 300µs absolute epsilon for timer and
    // allocator granularity on small workloads.
    let budget = best_bare + best_bare / 50 + Duration::from_micros(300);
    if cfg!(debug_assertions) {
        // Unoptimized builds pay ~3% for the un-inlined instrumentation
        // glue and debug wall clock swings far wider than that under CI
        // load, so report instead of asserting.
        eprintln!(
            "obs_overhead (debug, informational): disabled {best_disabled:?} vs bare \
             {best_bare:?} (release budget would be {budget:?})"
        );
        return;
    }
    assert!(
        best_disabled <= budget,
        "disabled-registry engine too slow: {best_disabled:?} vs bare {best_bare:?} \
         (budget {budget:?})"
    );
}

/// Request tracing must also be free when it is off: analyzing under a
/// *sampled-out* trace context (what head sampling hands most requests)
/// may not measurably slow the pipeline versus the plain untraced entry
/// point, and — structurally — must never write the process-wide flight
/// recorder. Same strict-alternation min-of-N methodology as above; the
/// timing budget is likewise enforced only in release builds.
#[test]
fn sampled_out_tracing_writes_nothing_and_adds_no_measurable_cost() {
    let script = build_script(Genre::Sitcom, 12, None, (64, 48), 78);
    let video = generate(&script).video;
    let config = AnalyzerConfig::default();
    let disabled = Registry::disabled();

    // sample_every = 0 samples nothing: the root context comes back
    // unsampled, exactly what a head-sampled-out request carries.
    let tracer = Tracer::new(16);
    tracer.set_sample_every(0);
    let sampled_out = tracer.trace_root();
    assert!(!sampled_out.is_sampled());
    assert_eq!(sampled_out, TraceContext::disabled());

    // Spans opened under a sampled-out context are fully inert: not
    // recording, attrs are no-ops, and nothing reaches the ring.
    let recorder = global_tracer().recorder();
    let before = recorder.total_recorded();
    {
        let _entered = sampled_out.enter();
        let mut span = global_tracer().span("bench.probe");
        assert!(!span.is_recording());
        span.attr("ignored", 1);
    }
    assert_eq!(
        recorder.total_recorded(),
        before,
        "inert span must not write the flight recorder"
    );

    let run = |ctx: Option<&TraceContext>| -> Duration {
        let mut engine = AnalysisEngine::with_registry(config, &disabled);
        let start = Instant::now();
        let analysis = match ctx {
            Some(ctx) => {
                let _entered = ctx.enter();
                engine.analyze(&video).expect("analyze")
            }
            None => engine.analyze(&video).expect("analyze"),
        };
        let elapsed = start.elapsed();
        assert!(!analysis.segmentation.shots.is_empty());
        elapsed
    };

    run(Some(&sampled_out));
    run(None);
    const ROUNDS: usize = 9;
    let mut best_traced = Duration::MAX;
    let mut best_plain = Duration::MAX;
    for _ in 0..ROUNDS {
        best_traced = best_traced.min(run(Some(&sampled_out)));
        best_plain = best_plain.min(run(None));
    }

    // The whole alternation ran under sampled-out contexts: still not one
    // ring write (hence no span ids allocated and no span clock reads).
    assert_eq!(
        recorder.total_recorded(),
        before,
        "sampled-out analyze must not write the flight recorder"
    );

    let budget = best_plain + best_plain / 50 + Duration::from_micros(300);
    if cfg!(debug_assertions) {
        eprintln!(
            "trace_overhead (debug, informational): sampled-out {best_traced:?} vs plain \
             {best_plain:?} (release budget would be {budget:?})"
        );
        return;
    }
    assert!(
        best_traced <= budget,
        "sampled-out tracing too slow: {best_traced:?} vs plain {best_plain:?} \
         (budget {budget:?})"
    );
}
