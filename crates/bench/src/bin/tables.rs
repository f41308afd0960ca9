//! Regenerate the paper's tables on the synthetic corpus.
//!
//! ```text
//! cargo run -p vdb-bench --release --bin tables [--scale F] [--seed N] [table1|table3|table4|table5|baseline-compare|sensitivity|complexity|crossover|all]
//! ```
//!
//! `--scale` is the fraction of each Table 5 clip's published shot-change
//! count to synthesize (default 0.25; 1.0 regenerates the full 3,629-cut
//! corpus and takes a few minutes).

use vdb_core::sbd::SbdConfig;
use vdb_eval::ablation::{
    foreground_heavy_corpus, render_fba_ablation, render_model_ablation, run_fba_ablation,
    run_model_ablation, run_thickness_ablation, run_tree_threshold_ablation, run_zoom_ablation,
};
use vdb_eval::complexity::{render_sweep, run_pyramid_sweep, run_scenetree_sweep, FRAMES_PER_SHOT};
use vdb_eval::corpus::{build_corpus_parallel, CorpusClip, CORPUS_DIMS};
use vdb_eval::experiments::{
    render_baseline_comparison, render_sensitivity, run_baseline_comparison, run_sensitivity_sweep,
    run_table5, run_tolerance_sweep,
};
use vdb_eval::indexperf::{render_crossover, run_crossover};
use vdb_eval::retrieval::{run_table3, run_table4, FIGURE5_SEED};
use vdb_synth::Scale;

struct Args {
    scale: f64,
    seed: u64,
    which: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.25,
        seed: 1234,
        which: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a number");
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer");
            }
            other => args.which.push(other.to_string()),
        }
    }
    if args.which.is_empty() {
        args.which.push("all".to_string());
    }
    args
}

fn wants(args: &Args, name: &str) -> bool {
    args.which.iter().any(|w| w == name || w == "all")
}

fn corpus(args: &Args) -> Vec<CorpusClip> {
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    eprintln!(
        "building corpus at scale {} (seed {}) with {workers} workers...",
        args.scale, args.seed
    );
    build_corpus_parallel(Scale::Fraction(args.scale), CORPUS_DIMS, args.seed, workers)
}

fn table1() {
    println!("== Table 1: nearest size-set approximation ==\n");
    let ranges = [
        (1usize, 2usize),
        (3, 8),
        (9, 20),
        (21, 44),
        (45, 92),
        (93, 188),
    ];
    println!("{:<16} {:>14}", "h',b',w' or L'", "h, b, w or L");
    println!("{}", "-".repeat(31));
    for (lo, hi) in ranges {
        let snapped = vdb_core::sizeset::snap(lo);
        assert_eq!(
            snapped,
            vdb_core::sizeset::snap(hi),
            "range must be uniform"
        );
        println!("{:<16} {:>14}", format!("{lo}..={hi}"), snapped);
    }
    println!();
}

fn main() {
    let args = parse_args();
    if wants(&args, "table1") {
        table1();
    }
    if wants(&args, "table3") {
        println!("== Table 3: per-shot feature table of the Figure 5 clip ==\n");
        println!("{}", run_table3(FIGURE5_SEED));
    }
    if wants(&args, "table4") {
        println!("== Table 4: index tables for the two synthetic movies ==\n");
        let exp = run_table4(4004);
        println!("{}", exp.render_index_tables());
    }
    let needs_corpus = [
        "table5",
        "baseline-compare",
        "sensitivity",
        "ablation-fba",
        "tolerance",
        "ablation-thickness",
    ]
    .iter()
    .any(|t| wants(&args, t));
    if needs_corpus {
        let clips = corpus(&args);
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
        if wants(&args, "table5") {
            println!("== Table 5: camera-tracking SBD over the 22-clip corpus ==\n");
            let report = run_table5(&clips, SbdConfig::default(), workers);
            println!("{}", report.render());
            println!("By category:\n{}", report.render_by_category());
        }
        if wants(&args, "baseline-compare") {
            println!("== Baseline comparison (the §1/§6 claims) ==\n");
            let rows = run_baseline_comparison(&clips, workers);
            println!("{}", render_baseline_comparison(&rows));
        }
        if wants(&args, "sensitivity") {
            println!("== Threshold sensitivity sweep (the [2] critique) ==\n");
            let rows = run_sensitivity_sweep(&clips, workers);
            println!("{}", render_sensitivity(&rows));
        }
        if wants(&args, "tolerance") {
            println!("== Boundary-matching tolerance sweep ==\n");
            println!(
                "{}",
                run_tolerance_sweep(&clips, SbdConfig::default(), workers)
            );
        }
        if wants(&args, "ablation-thickness") {
            println!("== FBA-thickness ablation (the empirical 10%) ==\n");
            println!("{}", run_thickness_ablation(&clips, workers));
        }
        if wants(&args, "ablation-fba") {
            println!("== FBA-shape ablation, general corpus ==\n");
            let rows = run_fba_ablation(&clips, SbdConfig::default(), workers);
            println!("{}", render_fba_ablation(&rows));
            println!("== FBA-shape ablation, foreground-heavy corpus ==\n");
            let fg = foreground_heavy_corpus(args.seed, 8);
            let rows = run_fba_ablation(&fg, SbdConfig::default(), workers);
            println!("{}", render_fba_ablation(&rows));
        }
    }
    if wants(&args, "ablation-tree") {
        println!("== RELATIONSHIP-threshold ablation (scene-tree shape) ==\n");
        println!("{}", run_tree_threshold_ablation(2025));
    }
    if wants(&args, "ablation-zoom") {
        println!("== Zoom-robustness ablation (shift-only vs multiscale) ==\n");
        println!("{}", run_zoom_ablation(args.seed, 6));
    }
    if wants(&args, "complexity") {
        println!("== §2.1: O(m) pyramid, one size-set line to its sign ==\n");
        println!("{}", render_sweep("m (pixels)", &run_pyramid_sweep()));
        println!("== §3.1: scene-tree construction, {FRAMES_PER_SHOT} frames per shot ==\n");
        println!("{}", render_sweep("n (shots)", &run_scenetree_sweep()));
    }
    if wants(&args, "crossover") {
        println!("== Scan-vs-index crossover (D^v-sorted index table) ==\n");
        let sizes = [1_000, 10_000, 100_000, 500_000];
        let points = run_crossover(&sizes, 9, args.seed);
        println!("{}", render_crossover(&points));
    }
    if wants(&args, "ablation-model") {
        println!("== Similarity-model ablation (basic vs §6 extended) ==\n");
        let exp = run_table4(4004);
        let a = run_model_ablation(&exp);
        println!("{}", render_model_ablation(&a));
    }
}
