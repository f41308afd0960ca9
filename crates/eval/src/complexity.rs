//! The two complexity claims no other experiment checks: §2.1's `O(m)`
//! pyramid reduction of one size-set line, and §3.1's scene-tree
//! construction, swept over the number of shots.
//!
//! Both sweeps run over fixed, deterministic inputs and are timed with
//! [`ns_per_iter`] (a median over short batches of `std::time::Instant`
//! readings). Linear growth shows up as a flat per-unit column. The
//! `tables` binary prints them
//! (`cargo run -p vdb-bench --release --bin tables complexity`).

use crate::report::{ratio, Table};
use std::hint::black_box;
use std::time::{Duration, Instant};
use vdb_core::pixel::Rgb;
use vdb_core::pyramid::reduce_line_to_sign;
use vdb_core::scenetree::build_scene_tree;
use vdb_core::shot::Shot;
use vdb_core::sizeset::size_set;

/// Frames per shot in the scene-tree sweep.
pub const FRAMES_PER_SHOT: usize = 12;

/// Size-set exponents `j` of the pyramid sweep: lines of `size_set(j)`
/// pixels.
pub const LINE_EXPONENTS: std::ops::RangeInclusive<u32> = 3..=8;

/// Shot counts of the scene-tree sweep.
pub const TREE_SHOTS: [usize; 4] = [16, 64, 256, 1024];

/// One size of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRow {
    /// The swept size: pixels per line, or shots per clip.
    pub size: usize,
    /// Median wall time of one call (ns).
    pub ns_per_iter: f64,
}

impl SweepRow {
    /// Time per unit of size (ns) — flat when growth is linear.
    pub fn ns_per_unit(&self) -> f64 {
        self.ns_per_iter / self.size as f64
    }
}

/// Median wall time of one call to `routine` (ns): a short warm-up sizes
/// batches of about 5 ms, and the median of 11 batch means is returned.
/// Always positive and finite.
pub fn ns_per_iter<R>(mut routine: impl FnMut() -> R) -> f64 {
    const BATCHES: usize = 11;
    let warm = Instant::now();
    let mut warm_iters = 0u32;
    while warm_iters == 0 || warm.elapsed() < Duration::from_millis(10) {
        black_box(routine());
        warm_iters += 1;
    }
    let per_iter = warm.elapsed().as_nanos() as f64 / f64::from(warm_iters);
    let batch = (5e6 / per_iter).ceil().clamp(1.0, 1e6) as u32;
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            start.elapsed().as_nanos() as f64 / f64::from(batch)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    // A clock that cannot resolve the batch still reports a positive time.
    samples[BATCHES / 2].max(f64::MIN_POSITIVE)
}

/// A size-set line of `n` gray pixels with a fixed ramp.
fn line(n: usize) -> Vec<Rgb> {
    (0..n).map(|i| Rgb::gray((i * 13 % 251) as u8)).collect()
}

/// A dialogue-heavy clip of `n_shots` shots: locations cycle with an
/// occasional fresh scene, the realistic mix of related and unrelated
/// shots, and each shot's sign wobbles a little from frame to frame.
fn scripted_shots(n_shots: usize, frames_per_shot: usize) -> (Vec<Shot>, Vec<Rgb>) {
    let mut shots = Vec::with_capacity(n_shots);
    let mut signs = Vec::with_capacity(n_shots * frames_per_shot);
    for i in 0..n_shots {
        let label = if i % 7 == 6 {
            (i / 7 + 4) as u8
        } else {
            (i % 3) as u8
        };
        let start = i * frames_per_shot;
        shots.push(Shot {
            id: i,
            start,
            end: start + frames_per_shot - 1,
        });
        for f in 0..frames_per_shot {
            signs.push(Rgb::gray(
                label.wrapping_mul(37).wrapping_add((f % 3) as u8),
            ));
        }
    }
    (shots, signs)
}

/// Time `routine` on each `(size, input)` pair; one row per pair, in
/// the order given.
pub fn sweep<T, R>(inputs: &[(usize, T)], mut routine: impl FnMut(&T) -> R) -> Vec<SweepRow> {
    inputs
        .iter()
        .map(|(size, input)| SweepRow {
            size: *size,
            ns_per_iter: ns_per_iter(|| routine(black_box(input))),
        })
        .collect()
}

/// §2.1: reduce one `size_set(j)` line to its sign, `j` over
/// [`LINE_EXPONENTS`].
pub fn run_pyramid_sweep() -> Vec<SweepRow> {
    let lines: Vec<(usize, Vec<Rgb>)> = LINE_EXPONENTS
        .map(|j| {
            let n = size_set(j);
            (n, line(n))
        })
        .collect();
    sweep(&lines, |l| reduce_line_to_sign(l).expect("size-set line"))
}

/// §3.1: build the scene tree of a scripted dialogue clip, `n` over
/// [`TREE_SHOTS`] with [`FRAMES_PER_SHOT`] frames each.
pub fn run_scenetree_sweep() -> Vec<SweepRow> {
    let clips: Vec<_> = TREE_SHOTS
        .iter()
        .map(|&n| (n, scripted_shots(n, FRAMES_PER_SHOT)))
        .collect();
    sweep(&clips, |(shots, signs)| build_scene_tree(shots, signs))
}

/// Render one sweep: size, time per call, time per unit, and the per-unit
/// growth against the smallest size (1.00 = linear).
pub fn render_sweep(size_label: &str, rows: &[SweepRow]) -> String {
    let mut t = Table::new(vec![size_label, "ns/call", "ns/unit", "vs first"]);
    let first = rows.first().map_or(1.0, SweepRow::ns_per_unit);
    for r in rows {
        t.row(vec![
            r.size.to_string(),
            format!("{:.0}", r.ns_per_iter),
            format!("{:.2}", r.ns_per_unit()),
            ratio(r.ns_per_unit() / first),
        ]);
    }
    t.render()
}
