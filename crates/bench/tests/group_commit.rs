//! Pins the journal's group-commit contract: K streamed commits staged
//! concurrently must share write barriers instead of paying one fsync
//! each, and the batching must never trade away durability.

use std::sync::Mutex;
use vdb_core::analyzer::AnalyzerConfig;
use vdb_core::{AnalysisEngine, VideoAnalysis};
use vdb_store::JournaledDatabase;
use vdb_synth::script::generate;
use vdb_synth::{build_script, Genre};

const K: usize = 6;

fn temp_journal(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vdb-group-commit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("db.vdbj")
}

fn analysis() -> ((u32, u32), f64, VideoAnalysis) {
    let clip = generate(&build_script(Genre::Drama, 3, Some(8.0), (48, 36), 17)).video;
    let mut analyzer = AnalysisEngine::new(AnalyzerConfig::default());
    analyzer.push_frames(clip.frames()).unwrap();
    ((48, 36), clip.fps(), analyzer.finish().unwrap())
}

/// The deterministic fsync pin: staging K commits before waiting any
/// ticket must ride fewer than K write barriers — the first waiter leads
/// one batched write that covers everything staged behind it. The
/// wait-per-commit loop is the contrast and pays a barrier per commit.
#[test]
fn staged_commits_share_write_barriers() {
    let (dims, fps, analysis) = analysis();

    let path = temp_journal("staged");
    let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
    let before = j.journal_stats();
    let tickets: Vec<_> = (0..K)
        .map(|i| {
            j.commit_stream(format!("s{i}"), dims, fps, analysis.clone(), vec![], vec![])
                .unwrap()
                .1
        })
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    let grouped = j.journal_stats().batches - before.batches;
    assert!(
        (grouped as usize) < K,
        "{K} staged commits took {grouped} write barriers — group commit is not batching"
    );

    let path = temp_journal("serial");
    let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
    let before = j.journal_stats();
    for i in 0..K {
        let (_, ticket) = j
            .commit_stream(format!("s{i}"), dims, fps, analysis.clone(), vec![], vec![])
            .unwrap();
        ticket.wait().unwrap();
    }
    let serial = j.journal_stats().batches - before.batches;
    assert_eq!(
        serial as usize, K,
        "waiting out each commit must cost one barrier per commit"
    );
    assert!(grouped < serial);
}

/// Batching must not weaken durability: K threads committing through a
/// shared journal all ack only after their records are on disk, and every
/// video survives a reopen with its full analysis.
#[test]
fn concurrent_commits_are_individually_durable() {
    let (dims, fps, analysis) = analysis();
    let path = temp_journal("threads");
    let j = Mutex::new(JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap());

    std::thread::scope(|s| {
        for i in 0..K {
            let j = &j;
            let analysis = analysis.clone();
            s.spawn(move || {
                // Stage under the lock, wait the barrier outside it — the
                // same discipline vdbd's session pumps follow.
                let (_, ticket) = j
                    .lock()
                    .unwrap()
                    .commit_stream(format!("t{i}"), dims, fps, analysis, vec![], vec![])
                    .unwrap();
                assert!(ticket.is_pending());
                ticket.wait().unwrap();
            });
        }
    });

    let stats = j.lock().unwrap().journal_stats();
    assert!(stats.staged_records >= K as u64);
    drop(j);

    let reopened = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
    assert_eq!(reopened.db().len(), K);
    for meta in reopened.db().catalog().all() {
        assert!(reopened.db().analysis(meta.id).is_ok());
    }
}
