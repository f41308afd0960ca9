//! The router's half of an exact cross-shard merge: map every shard-local
//! video id to its global id, then merge and print with `vdb-store`'s own
//! rows and renderers, so a healthy cluster answers byte-identically to a
//! single node holding the union corpus. Each reply format (the `xquery`
//! and `xlist` rows, the `stats` line, the answer and list rows) is
//! written once, in `vdb-store`; what stays here is routing: the gid
//! remap and the partial marker.
//!
//! Rows re-sort on global ids, so equal distances tie-break on
//! `(gid, shot)` exactly as they would on one node holding every video.

use vdb_store::db::push_answers;
use vdb_store::{DbStats, ListRow, ShardQueryAnswers};

/// Maps `(slot, shard-local id)` to the global id, `None` if unmapped.
pub type GidOf<'a> = &'a dyn Fn(usize, u64) -> Option<u64>;

fn global(gid_of: GidOf<'_>, slot: usize, local: u64) -> Result<u64, String> {
    gid_of(slot, local).ok_or_else(|| format!("no gid for shard {slot} video {local}"))
}

/// Merge per-shard `xquery` replies into the single-node `query` reply.
/// An unmapped row is an error (the caller refreshes its catalog and
/// retries).
pub fn merge_query(
    per_shard: &[(usize, ShardQueryAnswers)],
    gid_of: GidOf<'_>,
) -> Result<String, String> {
    let mut shards = Vec::with_capacity(per_shard.len());
    for (slot, answers) in per_shard {
        let mut answers = answers.clone();
        for row in &mut answers.rows {
            row.answer.key.video = global(gid_of, *slot, row.answer.key.video)?;
        }
        shards.push(answers);
    }
    let (answers, count) = ShardQueryAnswers::merge(shards);
    let mut out = String::new();
    push_answers(&mut out, count, &answers);
    Ok(out)
}

/// Merge per-shard `xlist` replies into the single-node `list` reply,
/// ordered by gid.
pub fn merge_list(
    per_shard: &[(usize, Vec<ListRow>)],
    gid_of: GidOf<'_>,
) -> Result<String, String> {
    let mut rows = Vec::new();
    for (slot, list) in per_shard {
        for row in list {
            let id = global(gid_of, *slot, row.id)?;
            rows.push(ListRow { id, ..row.clone() });
        }
    }
    rows.sort_by_key(|row| row.id);
    let mut out = String::new();
    for row in &rows {
        row.render(&mut out);
    }
    Ok(out)
}

/// Merge the first line of each shard's `stats` reply into the line a
/// single node holding every shard's videos prints.
pub fn merge_stats(per_shard: &[(usize, String)]) -> Result<String, String> {
    let mut merged = DbStats::default();
    for (slot, text) in per_shard {
        let line = text.lines().next().unwrap_or("");
        let stats: DbStats = line
            .parse()
            .map_err(|e| format!("shard {slot} sent an unparseable stats reply: {e}"))?;
        merged = merged.union(stats);
    }
    Ok(format!("  {merged}\n"))
}

/// The `partial=` marker appended to a degraded scatter-gather answer:
/// `ok` of `total` shards answered; `missing` lists the dead slots.
pub fn partial_marker(ok: usize, total: usize, missing: &[usize]) -> String {
    let slots: Vec<String> = missing.iter().map(|s| s.to_string()).collect();
    format!("  partial={ok}/{total} missing={}\n", slots.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_core::index::ShotKey;
    use vdb_store::{QueryAnswer, ShardQueryRow};

    fn row(v: u64, s: u32, d: f64) -> ShardQueryRow {
        ShardQueryRow {
            answer: QueryAnswer {
                key: ShotKey { video: v, shot: s },
                distance: d,
                var_ba: 1.5,
                var_oa: 20.25,
                scene_node: 0,
                scene_name: format!("SN_{}^1", s + 1),
                rep_frame: 3,
            },
            keep: true,
        }
    }

    fn range(rows: Vec<ShardQueryRow>) -> ShardQueryAnswers {
        ShardQueryAnswers {
            k: None,
            limit: None,
            kept_total: rows.len(),
            rows,
        }
    }

    #[test]
    fn xquery_reply_round_trips() {
        let text = format!(
            "mode=topk kept=1 k=5 limit=-\nrow v=2 s=7 d={:016x} ba={:016x} oa={:016x} rep=42 keep=1 nid=3 node=SN_8^2\n",
            0.25f64.to_bits(),
            1.5f64.to_bits(),
            20.25f64.to_bits()
        );
        let parsed = ShardQueryAnswers::decode(&text).unwrap();
        assert_eq!(parsed.k, Some(5));
        assert_eq!(parsed.kept_total, 1);
        assert_eq!(parsed.limit, None);
        assert_eq!(parsed.rows.len(), 1);
        let r = &parsed.rows[0];
        assert!(r.keep);
        let a = &r.answer;
        assert_eq!((a.key.video, a.key.shot, a.rep_frame), (2, 7, 42));
        assert_eq!((a.distance, a.var_ba, a.var_oa), (0.25, 1.5, 20.25));
        assert_eq!((a.scene_node, a.scene_name.as_str()), (3, "SN_8^2"));
        assert_eq!(parsed.encode(), text);
    }

    #[test]
    fn topk_merge_ranks_before_filtering() {
        // Shard 0's nearest row is filtered out; single-node top-2 would
        // rank it anyway and then drop it — count must be 1, not 2.
        let dropped = ShardQueryRow {
            keep: false,
            ..row(0, 0, 0.1)
        };
        let a = ShardQueryAnswers {
            k: Some(2),
            limit: None,
            kept_total: 1,
            rows: vec![dropped, row(0, 1, 0.9)],
        };
        let b = ShardQueryAnswers {
            k: Some(2),
            limit: None,
            kept_total: 1,
            rows: vec![row(0, 0, 0.5)],
        };
        let text = merge_query(&[(0, a), (1, b)], &|slot, local| {
            Some(slot as u64 * 10 + local)
        })
        .unwrap();
        // Global top-2 by distance: (shard0,0.1,dropped), (shard1,0.5,kept).
        assert!(text.starts_with("  1 answers\n"), "{text}");
        assert!(text.contains("video 10 "), "{text}");
        assert!(!text.contains("video 0 "), "{text}");
    }

    #[test]
    fn range_merge_orders_by_distance_then_key() {
        let a = range(vec![row(0, 3, 0.5), row(0, 9, 0.7)]);
        let b = range(vec![row(0, 1, 0.5)]);
        // Equal distances tie-break on (gid, shot): gid 0 before gid 10,
        // though slot 1's local id sorts first.
        let text = merge_query(&[(1, a), (0, b)], &|slot, local| {
            Some(slot as u64 * 10 + local)
        })
        .unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "  3 answers");
        assert!(lines[1].starts_with("  video 0 "), "{text}");
        assert!(lines[2].starts_with("  video 10 shot#4 "), "{text}");
        assert!(lines[3].starts_with("  video 10 shot#10"), "{text}");
    }

    #[test]
    fn range_limit_caps_count_and_rows() {
        let a = ShardQueryAnswers {
            limit: Some(2),
            ..range((0..8).map(|i| row(0, i, 0.1 * i as f64)).collect())
        };
        let text = merge_query(&[(0, a)], &|_, local| Some(local)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "  2 answers");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn an_unmapped_video_is_an_error_naming_it() {
        let a = range(vec![row(0, 0, 0.1)]);
        let b = range(vec![row(4, 0, 0.2)]);
        let known = |slot: usize, local: u64| (slot, local) == (0, 0);
        let err = merge_query(&[(0, a), (1, b)], &|slot, local| {
            known(slot, local).then_some(7)
        })
        .unwrap_err();
        assert_eq!(err, "no gid for shard 1 video 4");
        let list = ListRow {
            id: 4,
            name: "x".to_string(),
            frames: 1,
            duration_secs: 1.0,
        };
        let err = merge_list(&[(1, vec![list])], &|_, _| None).unwrap_err();
        assert_eq!(err, "no gid for shard 1 video 4");
    }

    #[test]
    fn list_merge_orders_by_gid() {
        let v = |id, name: &str| ListRow {
            id,
            name: name.to_string(),
            frames: 96,
            duration_secs: 8.0,
        };
        let text = merge_list(
            &[(0, vec![v(0, "b movie")]), (1, vec![v(0, "a movie")])],
            &|slot, _| Some(1 - slot as u64),
        )
        .unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("a movie"));
        assert!(lines[1].contains("b movie"));
    }

    #[test]
    fn stats_parse_and_merge() {
        let reply =
            "  videos 2  shots 14  frames 192  scene nodes 30  tallest tree 4  index rows 14\nmore\n";
        let short = "  videos 1  shots 5  frames 60  scene nodes 9  tallest tree 3  index rows 5\n";
        let merged = merge_stats(&[(0, reply.to_string()), (1, short.to_string())]).unwrap();
        assert_eq!(
            merged,
            "  videos 3  shots 19  frames 252  scene nodes 39  tallest tree 4  index rows 19\n"
        );
        let err = merge_stats(&[(2, "  videos 2  shots x\n".to_string())]).unwrap_err();
        assert!(
            err.starts_with("shard 2 sent an unparseable stats reply"),
            "{err}"
        );
        assert_eq!(partial_marker(2, 3, &[1]), "  partial=2/3 missing=1\n");
    }
}
