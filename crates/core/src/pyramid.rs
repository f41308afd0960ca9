//! The modified Gaussian pyramid (§2.1, Figure 3).
//!
//! Burt & Adelson's Gaussian pyramid \[24\] reduces an image by low-pass
//! filtering and subsampling. The paper re-purposes it to collapse a
//! two-dimensional TBA/FOA grid to a single row of pixels (the *signature*)
//! and finally to a single pixel (the *sign*).
//!
//! One reduction step maps a line of `s_j` pixels to `s_{j-1} = (s_j − 3)/2`
//! pixels with the classic 5-tap kernel `(1, 4, 6, 4, 1)/16` centered at
//! every second input pixel; the size set `{1, 5, 13, 29, 61, ...}` is
//! exactly the family of lengths for which the 5-tap window tiles the input
//! without padding: the last window `[2(s_{j-1}−1) .. 2(s_{j-1}−1)+4]` ends
//! at index `s_j − 1`.
//!
//! The paper's complexity claim — `O(2^log(m+1)) = O(m)` for `m` pixels —
//! holds: each step visits each input pixel a constant number of times and
//! the lengths shrink geometrically. `reduce_grid_to_signature` +
//! `reduce_line_to_sign` realize Figure 3's "13×5 TBA → 13-pixel signature →
//! sign".

use crate::error::{CoreError, Result};
use crate::geometry::PixelGrid;
use crate::pixel::Rgb;
use crate::simd::{ResolvedIsa, SimdLevel};
use crate::sizeset::in_size_set;
use std::cell::Cell;

/// The 5-tap Burt–Adelson kernel, numerators over 16.
const KERNEL: [u32; 5] = [1, 4, 6, 4, 1];

thread_local! {
    /// Per-thread count of heap allocations made inside the reduction
    /// routines (fresh buffers plus scratch growth). After a
    /// [`ReduceScratch`] has warmed up, the `*_with`/`*_into` entry points
    /// leave this counter untouched — the property the pipeline engine's
    /// zero-allocation hot path is asserted on.
    static REDUCTION_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations performed by this thread's pyramid reductions so far,
/// including those of the helper threads a batch
/// ([`crate::pipeline::AnalysisEngine::push_frames`]) ran on its behalf.
///
/// Strictly increasing; compare two readings to count the allocations in
/// between. Thread-local, so concurrent tests never perturb each other's
/// readings.
pub fn reduction_allocs() -> u64 {
    REDUCTION_ALLOCS.with(Cell::get)
}

/// Add `n` allocations to this thread's counter: a batch charges its
/// caller with what its helper threads reported.
pub(crate) fn charge_reduction_allocs(n: u64) {
    REDUCTION_ALLOCS.with(|c| c.set(c.get() + n));
}

/// Make sure `buf` can hold `cap` pixels without reallocating mid-loop,
/// charging the counter only when actual heap growth happens. Shared with
/// the fused extraction path in [`crate::features`], so one counter
/// observes every reduction-related buffer.
pub(crate) fn ensure_capacity(buf: &mut Vec<Rgb>, cap: usize) {
    if buf.capacity() < cap {
        charge_reduction_allocs(1);
        buf.reserve(cap - buf.len());
    }
}

/// Reusable intermediate buffers for the pyramid reductions.
///
/// One reduction needs at most two scratch lines (current and next level);
/// the buffers grow to the largest input ever seen and are then reused —
/// zero allocations per frame after warm-up. One scratch must not be
/// shared across threads (each parallel extraction worker owns its own).
#[derive(Debug, Clone, Default)]
pub struct ReduceScratch {
    a: Vec<Rgb>,
    b: Vec<Rgb>,
}

#[inline]
fn kernel_reduce(window: &[Rgb]) -> Rgb {
    debug_assert_eq!(window.len(), 5);
    let mut acc = [0u32; 3];
    for (w, p) in KERNEL.iter().zip(window) {
        for (ch, a) in acc.iter_mut().enumerate() {
            *a += w * u32::from(p.0[ch]);
        }
    }
    // Round to nearest: the kernel weights sum to 16.
    Rgb([
        ((acc[0] + 8) / 16) as u8,
        ((acc[1] + 8) / 16) as u8,
        ((acc[2] + 8) / 16) as u8,
    ])
}

/// One pyramid reduction step into a caller-owned buffer: a line of
/// size-set length `s_j` becomes a line of length `s_{j-1}` in `out`
/// (cleared first). Allocation-free once `out` has the capacity.
///
/// # Errors
/// [`CoreError::NotInSizeSet`] if `line.len()` is not a size-set member
/// greater than 1.
pub fn reduce_step_into(line: &[Rgb], out: &mut Vec<Rgb>) -> Result<()> {
    let n = line.len();
    if n <= 1 || !in_size_set(n) {
        return Err(CoreError::NotInSizeSet { len: n });
    }
    let out_len = (n - 3) / 2;
    out.clear();
    ensure_capacity(out, out_len);
    for i in 0..out_len {
        out.push(kernel_reduce(&line[2 * i..2 * i + 5]));
    }
    Ok(())
}

/// Collapse a line of size-set length all the way to a single pixel
/// (the *sign*), reusing `scratch` for the intermediate levels.
pub fn reduce_line_to_sign_with(line: &[Rgb], scratch: &mut ReduceScratch) -> Result<Rgb> {
    if line.len() == 1 {
        return Ok(line[0]);
    }
    // Ping-pong without swapping the vectors: odd levels land in `a`, even
    // ones in `b`, so each buffer keeps the capacity of its own largest
    // level and one warm-up call sizes both for good.
    reduce_step_into(line, &mut scratch.a)?;
    loop {
        if scratch.a.len() == 1 {
            return Ok(scratch.a[0]);
        }
        reduce_step_into(&scratch.a, &mut scratch.b)?;
        if scratch.b.len() == 1 {
            return Ok(scratch.b[0]);
        }
        reduce_step_into(&scratch.b, &mut scratch.a)?;
    }
}

/// Collapse a line of size-set length all the way to a single pixel
/// (the *sign*).
pub fn reduce_line_to_sign(line: &[Rgb]) -> Result<Rgb> {
    reduce_line_to_sign_with(line, &mut ReduceScratch::default())
}

/// Collapse every column of a grid to one pixel into a caller-owned
/// buffer, producing the one-row *signature* in `out` (cleared first).
///
/// Intermediate pyramid levels live in `scratch`; once both `scratch` and
/// `out` have warmed up to the grid's size, the reduction performs no heap
/// allocation (see [`reduction_allocs`]).
///
/// The grid's row count must be in the size set; the column count (the
/// signature length) must be too, so the signature can later be reduced to
/// the sign.
pub fn reduce_grid_to_signature_into(
    grid: &PixelGrid,
    scratch: &mut ReduceScratch,
    out: &mut Vec<Rgb>,
) -> Result<()> {
    reduce_grid_to_signature_into_isa(grid, scratch, out, SimdLevel::Auto.resolve())
}

/// [`reduce_grid_to_signature_into`] running the column reduction at an
/// explicit SIMD level. Every level is bit-identical (the knob only picks
/// lane width, see [`crate::kernels`]); this entry point exists so the
/// equivalence suites and benches can pin one.
pub fn reduce_grid_to_signature_into_isa(
    grid: &PixelGrid,
    scratch: &mut ReduceScratch,
    out: &mut Vec<Rgb>,
    isa: ResolvedIsa,
) -> Result<()> {
    let rows = grid.rows();
    let cols = grid.cols();
    if !in_size_set(rows) {
        return Err(CoreError::NotInSizeSet { len: rows });
    }
    if !in_size_set(cols) {
        return Err(CoreError::NotInSizeSet { len: cols });
    }
    out.clear();
    ensure_capacity(out, cols);
    if rows == 1 {
        // Already a single line.
        out.extend_from_slice(grid.data());
        return Ok(());
    }
    // Reduce all columns in lock-step, operating on whole rows for cache
    // friendliness (and so each level is one call into the row kernel):
    // `collapse_grid_to_row` ping-pongs flat `(rows-3)/2 × cols` levels
    // between the two scratch buffers: `a` holds the grid, `b` at most the
    // first level.
    scratch.a.clear();
    ensure_capacity(&mut scratch.a, rows * cols);
    scratch.a.extend_from_slice(grid.data());
    // The collapse works on slices, so `b` needs *length* (not just
    // capacity) for the first level; contents are fully overwritten.
    let b_len = ((rows - 3) / 2) * cols;
    ensure_capacity(&mut scratch.b, b_len);
    if scratch.b.len() < b_len {
        scratch.b.resize(b_len, Rgb::BLACK);
    }
    out.extend_from_slice(crate::kernels::collapse_grid_to_row(
        &mut scratch.a,
        &mut scratch.b,
        rows,
        cols,
        isa,
    ));
    Ok(())
}

/// Collapse every column of a grid to one pixel, producing the one-row
/// *signature* (Figure 3: a 13×5 TBA's five-pixel columns each become one
/// pixel, giving a 13-pixel line).
///
/// Allocates per call; the hot path uses [`reduce_grid_to_signature_into`].
pub fn reduce_grid_to_signature(grid: &PixelGrid) -> Result<Vec<Rgb>> {
    let mut out = Vec::new();
    reduce_grid_to_signature_into(grid, &mut ReduceScratch::default(), &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizeset::size_set;
    use proptest::prelude::*;

    /// One reduction step into a fresh line.
    fn reduce_step(line: &[Rgb]) -> Result<Vec<Rgb>> {
        let mut out = Vec::new();
        reduce_step_into(line, &mut out)?;
        Ok(out)
    }

    /// A grid all the way to its sign: signature first, then its pyramid.
    fn reduce_grid_to_sign(grid: &PixelGrid) -> Result<Rgb> {
        reduce_line_to_sign(&reduce_grid_to_signature(grid)?)
    }

    fn gray_line(values: &[u8]) -> Vec<Rgb> {
        values.iter().map(|&v| Rgb::gray(v)).collect()
    }

    #[test]
    fn reduce_step_rejects_bad_lengths() {
        for n in [0usize, 2, 3, 4, 6, 7, 12, 14] {
            let line = vec![Rgb::BLACK; n];
            assert!(
                matches!(reduce_step(&line), Err(CoreError::NotInSizeSet { .. })),
                "length {n} must be rejected"
            );
        }
        assert!(matches!(
            reduce_step(&[Rgb::BLACK]),
            Err(CoreError::NotInSizeSet { len: 1 })
        ));
    }

    #[test]
    fn five_to_one_is_kernel_average() {
        // (1*0 + 4*16 + 6*32 + 4*48 + 1*64) / 16 = (0+64+192+192+64)/16 = 32.
        let line = gray_line(&[0, 16, 32, 48, 64]);
        let out = reduce_step(&line).unwrap();
        assert_eq!(out, vec![Rgb::gray(32)]);
    }

    #[test]
    fn thirteen_to_five_window_placement() {
        // Mark pixel 12 (the last); only the last output (window 8..12)
        // should see it.
        let mut line = vec![Rgb::gray(0); 13];
        line[12] = Rgb::gray(160);
        let out = reduce_step(&line).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], Rgb::gray(0));
        assert_eq!(out[3], Rgb::gray(0));
        // Last window: weight 1/16 on pixel 12 -> 10.
        assert_eq!(out[4], Rgb::gray(10));
    }

    /// Figure 3 golden test: a 13×5 TBA reduces to a 13-pixel signature and
    /// then a single sign.
    #[test]
    fn figure3_thirteen_by_five() {
        let grid = PixelGrid::from_fn(5, 13, |r, c| Rgb::gray((10 * r + c) as u8));
        let sig = reduce_grid_to_signature(&grid).unwrap();
        assert_eq!(sig.len(), 13);
        // Column c holds values 10r + c; kernel average over r: exactly 20 + c.
        for (c, p) in sig.iter().enumerate() {
            assert_eq!(*p, Rgb::gray(20 + c as u8), "signature[{c}]");
        }
        let sign = reduce_line_to_sign(&sig).unwrap();
        // Signature is the ramp 20..=32; its pyramid collapses near the
        // center value 26.
        assert_eq!(sign, Rgb::gray(26));
    }

    #[test]
    fn scratch_paths_match_allocating_paths() {
        let grid = PixelGrid::from_fn(13, 29, |r, c| Rgb::gray(((r * 31 + c * 7) % 256) as u8));
        let mut scratch = ReduceScratch::default();
        let mut sig = Vec::new();
        reduce_grid_to_signature_into(&grid, &mut scratch, &mut sig).unwrap();
        assert_eq!(sig, reduce_grid_to_signature(&grid).unwrap());
        assert_eq!(
            reduce_line_to_sign_with(&sig, &mut scratch).unwrap(),
            reduce_line_to_sign(&sig).unwrap()
        );
    }

    #[test]
    fn warm_scratch_reduces_without_allocating() {
        let grid_a = PixelGrid::from_fn(13, 253, |r, c| Rgb::gray(((r * 3 + c) % 256) as u8));
        let grid_b = PixelGrid::from_fn(13, 253, |r, c| Rgb::gray(((r * 5 + c * 2) % 256) as u8));
        let mut scratch = ReduceScratch::default();
        let mut sig = Vec::new();
        // Warm-up pass allocates; every pass after it must not.
        reduce_grid_to_signature_into(&grid_a, &mut scratch, &mut sig).unwrap();
        reduce_line_to_sign_with(&sig, &mut scratch).unwrap();
        let before = reduction_allocs();
        for _ in 0..10 {
            reduce_grid_to_signature_into(&grid_b, &mut scratch, &mut sig).unwrap();
            reduce_line_to_sign_with(&sig, &mut scratch).unwrap();
            reduce_grid_to_signature_into(&grid_a, &mut scratch, &mut sig).unwrap();
            reduce_line_to_sign_with(&sig, &mut scratch).unwrap();
        }
        assert_eq!(
            reduction_allocs(),
            before,
            "warm reductions must not allocate"
        );
    }

    #[test]
    fn grid_reduction_is_bit_identical_at_every_simd_level() {
        let grid = PixelGrid::from_fn(13, 253, |r, c| Rgb::gray(((r * 37 + c * 11) % 256) as u8));
        let reference = reduce_grid_to_signature(&grid).unwrap();
        for level in SimdLevel::all_available() {
            let mut scratch = ReduceScratch::default();
            let mut sig = Vec::new();
            reduce_grid_to_signature_into_isa(&grid, &mut scratch, &mut sig, level.resolve())
                .unwrap();
            assert_eq!(sig, reference, "level {level}");
        }
    }

    #[test]
    fn uniform_grid_reduces_to_same_value() {
        let grid = PixelGrid::from_fn(13, 29, |_, _| Rgb::new(77, 11, 200));
        assert_eq!(reduce_grid_to_sign(&grid).unwrap(), Rgb::new(77, 11, 200));
    }

    #[test]
    fn single_row_grid_signature_is_the_row() {
        let grid = PixelGrid::from_fn(1, 5, |_, c| Rgb::gray(c as u8));
        let sig = reduce_grid_to_signature(&grid).unwrap();
        assert_eq!(sig, gray_line(&[0, 1, 2, 3, 4]));
    }

    #[test]
    fn grid_with_bad_rows_rejected() {
        let grid = PixelGrid::from_fn(4, 5, |_, _| Rgb::BLACK);
        assert!(matches!(
            reduce_grid_to_signature(&grid),
            Err(CoreError::NotInSizeSet { len: 4 })
        ));
        let grid = PixelGrid::from_fn(5, 6, |_, _| Rgb::BLACK);
        assert!(matches!(
            reduce_grid_to_signature(&grid),
            Err(CoreError::NotInSizeSet { len: 6 })
        ));
    }

    #[test]
    fn sign_is_shift_invariant_for_uniform_shift() {
        // Shifting every pixel by +10 shifts the sign by +10 (linearity up
        // to rounding).
        let grid_a = PixelGrid::from_fn(5, 13, |r, c| Rgb::gray((5 * r + 3 * c) as u8));
        let grid_b = PixelGrid::from_fn(5, 13, |r, c| Rgb::gray((5 * r + 3 * c + 10) as u8));
        let a = reduce_grid_to_sign(&grid_a).unwrap();
        let b = reduce_grid_to_sign(&grid_b).unwrap();
        assert!(b.0[0].abs_diff(a.0[0].wrapping_add(10)) <= 1);
    }

    #[test]
    fn paper_tba_shape_reduces() {
        // The real 160x120 layout gives a 13×253 TBA; two reductions of the
        // column (13 -> 5 -> 1... wait, columns have length 13) and six of
        // the 253-long signature.
        let grid = PixelGrid::from_fn(13, 253, |r, c| Rgb::gray(((r * 17 + c * 3) % 256) as u8));
        let sig = reduce_grid_to_signature(&grid).unwrap();
        assert_eq!(sig.len(), 253);
        let sign = reduce_line_to_sign(&sig).unwrap();
        // Smoke: result is a valid pixel, deterministic.
        assert_eq!(sign, reduce_grid_to_sign(&grid).unwrap());
    }

    proptest! {
        #[test]
        fn prop_reduce_bounded_by_extrema(
            j in 2u32..=6,
            seed in any::<u64>(),
        ) {
            let n = size_set(j);
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            };
            let line: Vec<Rgb> = (0..n).map(|_| Rgb::new(next(), next(), next())).collect();
            let lo: [u8; 3] = core::array::from_fn(|ch| line.iter().map(|p| p.0[ch]).min().unwrap());
            let hi: [u8; 3] = core::array::from_fn(|ch| line.iter().map(|p| p.0[ch]).max().unwrap());
            let out = reduce_step(&line).unwrap();
            prop_assert_eq!(out.len(), (n - 3) / 2);
            for p in &out {
                for ch in 0..3 {
                    prop_assert!(p.0[ch] >= lo[ch] && p.0[ch] <= hi[ch]);
                }
            }
            let sign = reduce_line_to_sign(&line).unwrap();
            for ch in 0..3 {
                prop_assert!(sign.0[ch] >= lo[ch] && sign.0[ch] <= hi[ch]);
            }
        }

        #[test]
        fn prop_grid_sign_bounded(
            rows_j in 1u32..=4,
            cols_j in 1u32..=5,
            seed in any::<u64>(),
        ) {
            let rows = size_set(rows_j);
            let cols = size_set(cols_j);
            let mut x = seed | 1;
            let mut next = || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            };
            let grid = PixelGrid::from_fn(rows, cols, |_, _| Rgb::new(next(), next(), next()));
            let lo: [u8; 3] = core::array::from_fn(|ch| grid.data().iter().map(|p| p.0[ch]).min().unwrap());
            let hi: [u8; 3] = core::array::from_fn(|ch| grid.data().iter().map(|p| p.0[ch]).max().unwrap());
            let sign = reduce_grid_to_sign(&grid).unwrap();
            for ch in 0..3 {
                prop_assert!(sign.0[ch] >= lo[ch] && sign.0[ch] <= hi[ch]);
            }
        }
    }
}
