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
//! shows as a diff of the `.out`), by-example range queries at stored
//! shots with the benchmark's tolerances, and `tree <video> <node>` on
//! answer nodes, unknown nodes and malformed names.
//!
//! The same script's `query` lines also pin the distributed reply: over
//! the corpus split across 1, 2 and 3 databases, the shards' `xquery`
//! rows merged and printed equal the whole corpus's reply.
//!
//! Regenerate the file only when a reply is meant to change:
//!
//! ```bash
//! cargo test -p vdb-store --test query_golden -- --ignored write_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use vdb_store::db::push_answers;
use vdb_store::shell::{execute_mutation, execute_readonly, Command};
use vdb_store::transfer::ExportedVideo;
use vdb_store::{ShardQueryAnswers, VideoDatabase};
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
    "tree 7 SN_4^1",
    "tree 0 SN_2^3",
    "tree 3 SN_8^1",
    "tree 2 SN_9^0",
    "tree 0 SN_99^0",
    "tree 0 SN_2^7",
    "tree 0 SN_2-1",
    "tree 0 SN_0^0",
    "tree 42 SN_1^0",
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
    transcript_of(&corpus())
}

fn transcript_of(db: &VideoDatabase) -> String {
    let mut out = String::new();
    for line in script(db) {
        let reply = execute_readonly(db, &Command::parse(&line))
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

/// One `tree <video> <node>` reply line: name, level and frame range.
fn node_line(line: &str) -> (String, usize, usize, usize) {
    let f: Vec<&str> = line.split_whitespace().collect();
    assert_eq!((f[2], f[4], f[6]), ("level", "frames", "rep"), "{line}");
    let (lo, hi) = f[5].split_once("..").unwrap();
    (
        f[1].to_string(),
        f[3].parse().unwrap(),
        lo.parse().unwrap(),
        hi.parse().unwrap(),
    )
}

/// Seed browsing (§4.2) by request: every answer row of the script names
/// a node that `tree <video> <node>` opens, the node's frames contain the
/// answer's shot, and following the child that keeps the name's shot
/// reaches that shot's leaf.
#[test]
fn every_answer_node_opens_and_drills_to_its_shot() {
    let db = corpus();
    let mut rows = 0;
    for row in transcript_of(&db).lines() {
        let Some((head, tail)) = row.split_once(" -> ") else {
            continue;
        };
        let f: Vec<&str> = head.split_whitespace().collect();
        let video: u64 = f[1].parse().unwrap();
        let shot: usize = f[2].strip_prefix("shot#").unwrap().parse().unwrap();
        let shot = db.analysis(video).unwrap().shots[shot - 1];
        let mut name = tail.split_whitespace().next().unwrap().to_string();
        let named_shot = name.split_once('^').unwrap().0.to_string();
        loop {
            let reply =
                execute_readonly(&db, &Command::parse(&format!("tree {video} {name}"))).unwrap();
            let mut lines = reply.lines();
            let (opened, level, lo, hi) = node_line(lines.next().unwrap());
            assert_eq!(opened, name, "{reply}");
            assert!(lo <= shot.start && shot.end <= hi, "{row}\n{reply}");
            if level == 0 {
                assert_eq!((lo, hi), (shot.start, shot.end), "{row}\n{reply}");
                break;
            }
            let next = lines
                .filter(|l| l.starts_with("  child "))
                .map(node_line)
                .find(|c| c.0.split_once('^').unwrap().0 == named_shot)
                .unwrap_or_else(|| panic!("no child keeps {named_shot}:\n{reply}"));
            name = next.0;
        }
        rows += 1;
    }
    assert!(rows > 100, "only {rows} answer rows");
}

/// The router's merge, in process: the corpus split over 1, 2 and 3
/// databases (video `g` on database `g % n`, moved there the way a
/// rebalance moves a video), and every `query` line of the script
/// answered by each as its `xquery` reply — encoded, decoded, mapped back
/// to whole-corpus ids, merged and printed — equals the whole corpus's
/// own reply. A line that does not parse never reaches a shard; the
/// router prints the single node's parse error for it.
#[test]
fn sharded_replies_match_the_single_node() {
    let whole = corpus();
    let lines = script(&whole);
    for n in 1..=3 {
        let mut shards: Vec<VideoDatabase> = (0..n).map(|_| VideoDatabase::new()).collect();
        let mut gids: Vec<Vec<u64>> = vec![Vec::new(); n];
        for gid in 0..whole.len() as u64 {
            let (name, dims, fps, analysis, genres, forms) =
                ExportedVideo::from_db(&whole, gid).unwrap().into_analysis();
            let slot = gid as usize % n;
            let local = shards[slot]
                .ingest_precomputed(name, dims, fps, analysis, genres, forms)
                .unwrap();
            assert_eq!(local, gids[slot].len() as u64);
            gids[slot].push(gid);
        }
        let (mut merged, mut refused) = (0, 0);
        for line in &lines {
            let Some(text) = line.strip_prefix("query ") else {
                continue;
            };
            let want = execute_readonly(&whole, &Command::parse(line)).unwrap();
            let mut replies = Vec::new();
            for (shard, gids) in shards.iter().zip(&gids) {
                let Ok(answers) = shard.query_str_sharded(text) else {
                    break;
                };
                let mut decoded = ShardQueryAnswers::decode(&answers.encode()).unwrap();
                // Debug text, so a NaN distance compares equal to itself.
                let (sent, got) = (format!("{answers:?}"), format!("{decoded:?}"));
                assert_eq!(got, sent, "'{line}' did not survive its codec");
                for row in &mut decoded.rows {
                    row.answer.key.video = gids[row.answer.key.video as usize];
                }
                replies.push(decoded);
            }
            if replies.len() < n {
                assert!(want.starts_with("  query error: "), "'{line}': {want}");
                refused += 1;
                continue;
            }
            let (answers, count) = ShardQueryAnswers::merge(replies);
            let mut got = String::new();
            push_answers(&mut got, count, &answers);
            assert_eq!(got, want, "'{line}' over {n} shards");
            merged += 1;
        }
        assert_eq!((merged, refused), (34, 1), "over {n} shards");
    }
}

#[test]
#[ignore = "rewrites tests/query_golden.out"]
fn write_golden() {
    std::fs::write(golden_path(), transcript()).unwrap();
}
