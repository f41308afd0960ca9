//! Golden `query` / `explain` replies, byte for byte.
//!
//! A fixed script of shell lines runs through [`execute_readonly`] over a
//! deterministic corpus: eight `demo` movies (the shell's own `demo`
//! command) plus two of them ingested again under genre/form classes, so
//! equal features tie on distance and the `genre=`/`form=` filters keep
//! some rows and drop others. The transcript is compared with the
//! checked-in `tests/query_golden.out`; any change to a reply — a row, its
//! order, the count line, the `explain` summary — fails the test.
//!
//! The script covers range queries (narrow, wide, every row), `limit`
//! (including 0), filtered ranges, top-k (with a filter, a `limit`, `k=0`
//! and a `k` far beyond the table), queries that match nothing, NaN,
//! infinite and negative parameters, parse errors, `explain` (whose
//! summary pins each probe's exact work: a change that reads fewer rows
//! shows as a diff of the `.out`), and by-example range queries at stored
//! shots with the benchmark's tolerances.
//!
//! Regenerate the file only when a reply is meant to change:
//!
//! ```bash
//! cargo test -p vdb-store --test query_golden -- --ignored write_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use vdb_store::shell::{execute_mutation, execute_readonly, Command};
use vdb_store::VideoDatabase;
use vdb_synth::script::generate;
use vdb_synth::{build_script, Genre};

/// The demo movies: `demo 8` assigns seeds 9000..9008.
const DEMO_MOVIES: usize = 8;

/// Fixed query lines; the by-example lines are appended by [`script`].
const LINES: &[&str] = &[
    "stats",
    "query ba=1 oa=12",
    "query ba=1 oa=12 alpha=0.5 beta=0.5",
    "query ba=2 oa=12 alpha=3 beta=3",
    "query ba=2 oa=12 alpha=3 beta=3 limit=3",
    "query ba=2 oa=12 alpha=3 beta=3 limit=0",
    "query ba=1 oa=12 alpha=1000 beta=1000",
    "query ba=1 oa=12 alpha=1000 beta=1000 limit=25",
    "query ba=2 oa=12 alpha=3 beta=3 genre=comedy",
    "query ba=2 oa=12 alpha=3 beta=3 genre=comedy form=feature limit=2",
    "query ba=2 oa=12 alpha=3 beta=3 form=short",
    "query ba=2 oa=12 alpha=3 beta=3 genre=western",
    "query ba=1 oa=12 alpha=1000 beta=1000 genre=comedy limit=30",
    "query ba=4 oa=4 alpha=0 beta=0",
    "query ba=2 oa=12 k=5",
    "query ba=2 oa=12 k=5 genre=comedy",
    "query ba=2 oa=12 k=12 limit=4",
    "query ba=2 oa=12 k=100000000000",
    "query ba=2 oa=12 k=0",
    "query ba=1000000 oa=0",
    "query ba=0 oa=1000000 alpha=2 beta=2",
    "query ba=nan oa=4",
    "query ba=4 oa=4 alpha=nan beta=1",
    "query ba=4 oa=4 alpha=1 beta=nan",
    "query ba=4 oa=4 alpha=inf beta=inf limit=2",
    "query ba=4 oa=nan",
    "query ba=4 oa=4 alpha=-1 beta=1",
    "query ba=4 oa=4 alpha=1 beta=-1",
    "query ba=nan oa=4 k=3",
    "query ba=-1 oa=4 alpha=3 beta=3",
    "query ba=x oa=1",
    "explain ba=2 oa=12 alpha=3 beta=3",
    "explain ba=2 oa=12 alpha=3 beta=3 genre=comedy limit=2",
    "explain ba=1 oa=12 alpha=1000 beta=1000 limit=1",
    "explain ba=2 oa=12 k=5",
    "explain ba=1000000 oa=0",
    "explain ba=2 oa=12 alpha=0.2 beta=2",
    "explain ba=1.5 oa=1.8 alpha=0.05 beta=1",
    "explain ba=1.5 oa=1.8 alpha=0.05 beta=1 genre=comedy",
];

/// The demo corpus plus two classed copies (see the module docs).
fn corpus() -> VideoDatabase {
    let mut db = VideoDatabase::new();
    let demo = execute_mutation(&mut db, &Command::Demo(DEMO_MOVIES)).expect("demo mutates");
    assert_eq!(demo.lines().count(), DEMO_MOVIES, "{demo}");
    let t = db.taxonomy().clone();
    for (seed, genre, form) in [(9000, "comedy", "feature"), (9003, "comedy", "short")] {
        let clip = generate(&build_script(Genre::Movie, 12, Some(9.0), (80, 60), seed));
        db.ingest(
            format!("classed-{seed}"),
            &clip.video,
            vec![t.genre(genre).unwrap()],
            vec![t.form(form).unwrap()],
        )
        .unwrap();
    }
    db
}

/// [`LINES`], then by-example range queries at a few stored shots with
/// `alpha=0.5 beta=0.5 limit=8` (the features print in Rust's shortest
/// round-trip form, so the query point is the stored point exactly).
fn script(db: &VideoDatabase) -> Vec<String> {
    let mut lines: Vec<String> = LINES.iter().map(|l| l.to_string()).collect();
    for (video, shot) in [(0, 0), (0, 3), (3, 5), (7, 11), (9, 2)] {
        let f = db.analysis(video).unwrap().features[shot];
        lines.push(format!(
            "query ba={} oa={} alpha=0.5 beta=0.5 limit=8",
            f.var_ba, f.var_oa
        ));
    }
    lines
}

/// Every line and its reply, `> line` first.
fn transcript() -> String {
    let db = corpus();
    let mut out = String::new();
    for line in script(&db) {
        let reply = execute_readonly(&db, &Command::parse(&line))
            .unwrap_or_else(|| panic!("'{line}' is not read-only"));
        let _ = writeln!(out, "> {line}");
        out.push_str(&reply);
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/query_golden.out")
}

#[test]
fn query_replies_match_the_golden_transcript() {
    let want = std::fs::read_to_string(golden_path()).expect("tests/query_golden.out");
    let got = transcript();
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "reply differs from tests/query_golden.out at line {}:\n  got:  {:?}\n  want: {:?}",
            first + 1,
            got.lines().nth(first),
            want.lines().nth(first)
        );
    }
}

#[test]
#[ignore = "rewrites tests/query_golden.out"]
fn write_golden() {
    std::fs::write(golden_path(), transcript()).unwrap();
}
