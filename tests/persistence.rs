//! Persistence integration: databases survive save/load byte-for-byte in
//! behaviour, and the segment layer's corruption contract holds end-to-end.

use std::path::PathBuf;
use vdb_core::analyzer::AnalyzerConfig;
use vdb_store::{JournaledDatabase, StreamIngest, VideoDatabase};
use vdb_synth::script::generate;
use vdb_synth::{build_script, Genre};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vdb-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn build_db(clips: usize) -> VideoDatabase {
    let mut db = VideoDatabase::new();
    let taxonomy = db.taxonomy().clone();
    for i in 0..clips {
        let genre = if i % 2 == 0 {
            Genre::News
        } else {
            Genre::Drama
        };
        let clip = generate(&build_script(genre, 8, Some(8.0), (80, 60), i as u64));
        db.ingest(
            format!("clip-{i}"),
            &clip.video,
            vec![taxonomy.genre("historical").unwrap()],
            vec![taxonomy.form("feature").unwrap()],
        )
        .unwrap();
    }
    db
}

#[test]
fn full_database_roundtrip_preserves_all_answers() {
    let dir = temp_dir("roundtrip");
    let path = dir.join("db.vdbs");
    let db = build_db(3);
    db.save(&path).unwrap();
    let restored = VideoDatabase::load(&path, AnalyzerConfig::default()).unwrap();

    assert_eq!(restored.len(), db.len());
    assert_eq!(restored.index().len(), db.index().len());
    for meta in db.catalog().all() {
        let r = restored.catalog().get(meta.id).unwrap();
        assert_eq!(r, meta);
        assert_eq!(
            restored.analysis(meta.id).unwrap(),
            db.analysis(meta.id).unwrap()
        );
    }
    // Identical answers for a spread of queries.
    for i in 0..12 {
        let q = format!("ba={} oa={}", f64::from(i) * 2.5, f64::from(i) * 1.5);
        let before: Vec<_> = db
            .query_str(&q)
            .unwrap()
            .into_iter()
            .map(|a| (a.key, a.scene_node))
            .collect();
        let after: Vec<_> = restored
            .query_str(&q)
            .unwrap()
            .into_iter()
            .map(|a| (a.key, a.scene_node))
            .collect();
        assert_eq!(before, after, "query {i}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A saved database carries its index: reopening adopts the persisted
/// copy (one adoption, zero rebuilds on the fresh instance's runtime
/// counters) and answers identically.
#[test]
fn saved_index_is_adopted_not_rebuilt() {
    let dir = temp_dir("idx-adopt");
    let path = dir.join("db.vdbs");
    let db = build_db(3);
    db.save(&path).unwrap();
    let restored = VideoDatabase::load(&path, AnalyzerConfig::default()).unwrap();
    let runtime = restored.index().runtime();
    assert_eq!(runtime.adoptions, 1, "persisted index should be adopted");
    assert_eq!(runtime.refreshes, 0, "no rebuild on adopted load");
    assert!(restored.index().is_finalized());
    assert_eq!(restored.index().entries(), db.index().entries());
    for i in 0..8 {
        let q = format!("ba={} oa={}", f64::from(i) * 3.0, f64::from(i) * 2.0);
        let keys = |db: &VideoDatabase| {
            db.query_str(&q)
                .unwrap()
                .into_iter()
                .map(|a| (a.key, a.scene_node))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&db), keys(&restored), "query {i}");
        let topk = |db: &VideoDatabase| {
            db.query_str(&format!("{q} k=5"))
                .unwrap()
                .into_iter()
                .map(|a| a.key)
                .collect::<Vec<_>>()
        };
        assert_eq!(topk(&db), topk(&restored), "top-k query {i}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A journal compacted by [`JournaledDatabase::compact`] ends in an index
/// record; reopening adopts it without a rebuild and the answers match.
#[test]
fn compacted_journal_adopts_index_on_reopen() {
    let dir = temp_dir("idx-journal");
    let path = dir.join("db.vdbj");
    let q = "ba=6 oa=18 alpha=3 beta=3";
    let before = {
        let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        for i in 0..3 {
            let clip = generate(&build_script(Genre::Sitcom, 6, Some(8.0), (80, 60), 50 + i));
            j.ingest(format!("clip-{i}"), &clip.video, vec![], vec![])
                .unwrap();
        }
        j.compact().unwrap();
        j.db()
            .query_str(q)
            .unwrap()
            .into_iter()
            .map(|a| a.key)
            .collect::<Vec<_>>()
    };
    let j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
    let runtime = j.db().index().runtime();
    assert_eq!(runtime.adoptions, 1);
    assert_eq!(runtime.refreshes, 0);
    let after: Vec<_> = j
        .db()
        .query_str(q)
        .unwrap()
        .into_iter()
        .map(|a| a.key)
        .collect();
    assert_eq!(before, after);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Legacy journals (every journal that was never compacted — ingest
/// appends no index records) must still load: the index is rebuilt from
/// the replayed rows, counted as exactly one refresh and no adoption.
#[test]
fn legacy_journal_rebuilds_index_on_load() {
    let dir = temp_dir("idx-legacy");
    let path = dir.join("db.vdbj");
    {
        let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        for i in 0..2 {
            let clip = generate(&build_script(Genre::News, 6, Some(8.0), (80, 60), 70 + i));
            j.ingest(format!("clip-{i}"), &clip.video, vec![], vec![])
                .unwrap();
        }
    }
    let j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
    let runtime = j.db().index().runtime();
    assert_eq!(runtime.adoptions, 0, "nothing persisted to adopt");
    assert_eq!(runtime.refreshes, 1, "one rebuild from replayed rows");
    assert!(j.db().index().is_finalized());
    assert_eq!(
        j.db().index().len(),
        j.db().stats().shots,
        "rebuilt index covers every stored shot"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An index record followed by more ingests is stale: its fingerprint no
/// longer matches the replayed rows, so reopening falls back to a rebuild
/// that includes the newer clips.
#[test]
fn stale_index_record_falls_back_to_rebuild() {
    let dir = temp_dir("idx-stale");
    let path = dir.join("db.vdbj");
    {
        let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        let clip = generate(&build_script(Genre::Drama, 6, Some(8.0), (80, 60), 90));
        j.ingest("old", &clip.video, vec![], vec![]).unwrap();
        j.compact().unwrap(); // index record now mid-file after the next append
        let clip = generate(&build_script(Genre::Sports, 6, Some(8.0), (80, 60), 91));
        j.ingest("new", &clip.video, vec![], vec![]).unwrap();
    }
    let j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
    let runtime = j.db().index().runtime();
    assert_eq!(runtime.adoptions, 0, "stale index must not be adopted");
    assert_eq!(runtime.refreshes, 1);
    assert_eq!(j.db().len(), 2);
    assert_eq!(j.db().index().len(), j.db().stats().shots);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn double_save_is_idempotent_bytes() {
    let dir = temp_dir("idem");
    let p1 = dir.join("a.vdbs");
    let p2 = dir.join("b.vdbs");
    let db = build_db(2);
    db.save(&p1).unwrap();
    db.save(&p2).unwrap();
    let a = std::fs::read(&p1).unwrap();
    let b = std::fs::read(&p2).unwrap();
    assert_eq!(a, b, "save must be deterministic");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_file_loads_the_durable_prefix() {
    let dir = temp_dir("trunc");
    let path = dir.join("db.vdbs");
    let db = build_db(2);
    db.save(&path).unwrap();
    // Chop off the tail: the last record is torn, everything before loads.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 37]).unwrap();
    let restored = VideoDatabase::load(&path, AnalyzerConfig::default()).unwrap();
    assert!(restored.len() <= db.len());
    // Catalog entries that did load are intact.
    for meta in restored.catalog().all() {
        assert_eq!(db.catalog().get(meta.id).unwrap(), meta);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn garbage_file_is_rejected() {
    let dir = temp_dir("garbage");
    let path = dir.join("junk.vdbs");
    std::fs::write(&path, b"this is not a database").unwrap();
    assert!(VideoDatabase::load(&path, AnalyzerConfig::default()).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reload_then_continue_ingesting() {
    let dir = temp_dir("continue");
    let path = dir.join("db.vdbs");
    let db = build_db(2);
    db.save(&path).unwrap();

    let mut restored = VideoDatabase::load(&path, AnalyzerConfig::default()).unwrap();
    let clip = generate(&build_script(Genre::Sports, 6, Some(10.0), (80, 60), 99));
    let new_id = restored
        .ingest("late-arrival", &clip.video, vec![], vec![])
        .unwrap();
    assert_eq!(restored.len(), 3);
    // New id does not collide with restored ones.
    for meta in db.catalog().all() {
        assert_ne!(meta.id, new_id);
    }
    // And the combined database persists again cleanly.
    let path2 = dir.join("db2.vdbs");
    restored.save(&path2).unwrap();
    let twice = VideoDatabase::load(&path2, AnalyzerConfig::default()).unwrap();
    assert_eq!(twice.len(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Streamed commits go through the journal's group-commit path; a session
/// torn mid-stream stages nothing. After a restart only the committed
/// video exists — no partial video is ever visible.
#[test]
fn streamed_commit_survives_restart_and_torn_session_leaves_nothing() {
    let dir = temp_dir("stream-torn");
    let path = dir.join("db.vdbj");
    let clip = generate(&build_script(Genre::Drama, 4, Some(8.0), (64, 48), 21));
    let committed_analysis;
    {
        let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        let config = j.db().config();

        let mut live = StreamIngest::new("live", clip.video.dims(), clip.video.fps(), config);
        for frame in clip.video.frames() {
            live.push(frame).unwrap();
        }
        let finished = live.finish().unwrap();
        let (id, ticket) = finished.commit(&mut j).unwrap();
        assert!(
            ticket.is_pending(),
            "journaled commits ack after the barrier"
        );
        ticket.wait().unwrap();
        committed_analysis = j.db().analysis(id).unwrap().clone();

        // A second session dies mid-stream: frames were pushed but the
        // client vanished before commit. Dropping the session simulates
        // the daemon tearing it down — nothing may reach the journal.
        let mut torn = StreamIngest::new("torn", clip.video.dims(), clip.video.fps(), config);
        for frame in clip.video.frames().iter().take(5) {
            torn.push(frame).unwrap();
        }
        drop(torn);
    }

    let j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
    assert_eq!(j.db().len(), 1, "only the committed stream survives");
    let meta = j.db().catalog().all().pop().unwrap();
    assert_eq!(meta.name, "live");
    assert_eq!(
        j.db().analysis(meta.id).unwrap(),
        &committed_analysis,
        "replay must reproduce the streamed analysis bit-for-bit"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A journal torn mid-batch (crash during the group write) loads the
/// durable prefix, and every video that survives replay has a complete
/// analysis — uncommitted tails are swept, never half-visible.
#[test]
fn torn_journal_tail_never_yields_a_partial_video() {
    let dir = temp_dir("stream-tail");
    let path = dir.join("db.vdbj");
    let clip = generate(&build_script(Genre::News, 3, Some(8.0), (64, 48), 5));
    {
        let mut j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        let config = j.db().config();
        for name in ["first", "second"] {
            let mut s = StreamIngest::new(name, clip.video.dims(), clip.video.fps(), config);
            for frame in clip.video.frames() {
                s.push(frame).unwrap();
            }
            let (_, ticket) = s.finish().unwrap().commit(&mut j).unwrap();
            ticket.wait().unwrap();
        }
    }
    let bytes = std::fs::read(&path).unwrap();
    // Tear the tail at many offsets (keeping the file header intact):
    // whatever replays must be coherent.
    for cut in [1, 17, 257, bytes.len() / 2] {
        std::fs::write(&path, &bytes[..bytes.len() - cut]).unwrap();
        let j = JournaledDatabase::open(&path, AnalyzerConfig::default()).unwrap();
        assert!(j.db().len() <= 2);
        for meta in j.db().catalog().all() {
            assert!(
                j.db().analysis(meta.id).is_ok(),
                "video '{}' replayed without its analysis",
                meta.name
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
