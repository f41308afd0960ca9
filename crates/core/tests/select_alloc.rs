//! The allocation bound of a capped range selection, counted exactly.
//!
//! `ShotIndex::select` answers a range query with the first `cap` matches
//! and the count of all of them. It counts on the sorted columns and
//! keeps only `cap` rows in a heap, so the bytes it allocates depend on
//! `cap`, not on how many rows match. This binary installs a counting
//! global allocator (its own process, so no other suite is affected) and
//! checks that a query matching ten times as many rows allocates no more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vdb_core::index::{IndexEntry, ShotIndex, ShotKey, VarianceQuery};

struct Counting;

thread_local! {
    /// Bytes requested by this thread (the test harness runs other
    /// threads; only the measuring thread's requests count).
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated by `f` on this thread, and its result.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (ALLOCATED.with(Cell::get) - before, out)
}

/// 48 000 rows on a grid: `√Var^BA` and `√Var^OA` each step through
/// 0..40, so `D^v` spans [-40, 40] and a window's match count grows with
/// its area.
fn index() -> ShotIndex {
    let rows: Vec<IndexEntry> = (0..48_000u32)
        .map(|i| {
            let sba = f64::from(i % 240) / 6.0;
            let soa = f64::from(i / 240) / 5.0;
            IndexEntry {
                key: ShotKey {
                    video: u64::from(i / 20),
                    shot: i % 20,
                },
                var_ba: sba * sba,
                var_oa: soa * soa,
            }
        })
        .collect();
    ShotIndex::from_entries(rows)
}

#[test]
fn capped_range_select_allocates_independently_of_the_match_count() {
    const CAP: usize = 8;
    let idx = index();
    let narrow = VarianceQuery::new(400.0, 400.0).with_tolerances(0.5, 0.5);
    let wide = VarianceQuery::new(400.0, 400.0).with_tolerances(2.0, 2.5);
    let mut even = |key: ShotKey| key.video % 2 == 0;
    // Warm up: first use initializes the process-wide metric handles.
    idx.select(&narrow, None, CAP, None);
    idx.select(&narrow, None, CAP, Some(&mut even));

    for filtered in [false, true] {
        let mut bytes = Vec::new();
        let mut counts = Vec::new();
        for q in [&narrow, &wide] {
            let mut keep = even;
            let keep = filtered.then_some(&mut keep as &mut dyn FnMut(ShotKey) -> bool);
            let (b, (rows, kept, explain)) = allocated_by(|| idx.select(q, None, CAP, keep));
            assert_eq!(rows.len(), CAP);
            assert!(kept <= explain.matches);
            bytes.push(b);
            counts.push(explain.matches);
        }
        assert!(
            counts[1] >= 10 * counts[0],
            "the wide query must match ten times the rows: {counts:?}"
        );
        assert!(
            bytes[1] <= bytes[0],
            "filtered={filtered}: {} B for {} matches, then {} B for {}",
            bytes[0],
            counts[0],
            bytes[1],
            counts[1]
        );
        assert!(
            bytes[1] <= 64 * CAP,
            "filtered={filtered}: {} B is more than a heap of {CAP} rows",
            bytes[1]
        );
    }
}
