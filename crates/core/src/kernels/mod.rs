//! The extraction kernels: vertical 5-tap reduction, crop gather, and the
//! grid collapse built from them — scalar reference code plus `core::arch`
//! SIMD variants dispatched by a [`ResolvedIsa`] witness.
//!
//! # What runs here
//!
//! Per-frame extraction spends essentially all of its time in two loops:
//!
//! 1. **Crop**: sampling the frame into the TBA/FOA grids. The
//!    nearest-neighbor back-projection (two `f64` multiplies per cell) is
//!    identical for every frame of a layout, so
//!    [`crate::geometry::AreaLayout`] precomputes it once. The TBA's
//!    rotated side columns need a per-cell index table, and its per-frame
//!    crop is [`gather_pixels`] — scattered 3-byte loads, which defeat
//!    vector gathers, so there is no SIMD variant. The FOA needs no
//!    gather at all: its crop is a row map times a column map, so the
//!    extractor reduces frame rows in place and picks columns from the
//!    one row that is left (see [`crate::features`]).
//! 2. **Reduce**: collapsing grid rows five at a time with the
//!    Burt–Adelson kernel `(1,4,6,4,1)/16` (§2.1). [`reduce_rows5`] does
//!    one such step across all columns — per output byte
//!    `(a + 4b + 6c + 4d + e + 8) >> 4` — which is the vectorized hot loop:
//!    contiguous `u8` lanes widened to `u16` (max accumulator
//!    `255·16 + 8 = 4088`, far below `u16::MAX`), then narrowed back.
//!
//! # Bit-identity
//!
//! Every variant computes the exact expression of the scalar reference:
//! the scalar path's `(acc + 8) / 16` on `u32` equals `(acc + 8) >> 4` on
//! `u16` for all attainable `acc`, and the final u16→u8 narrowing is exact
//! because results never exceed 255 (weights sum to 16). The per-level
//! equivalence suites assert this end to end; the unit tests here assert
//! it per kernel, including odd lengths that exercise the scalar tails.
//!
//! # Safety model
//!
//! The `unsafe` target-feature bodies live in the arch submodules and are
//! only reachable through the safe dispatchers in this module, which
//! require a [`ResolvedIsa`] — a witness constructible solely via runtime
//! feature detection (see [`crate::simd`]). Lane loads/stores stay within
//! `i + LANES <= len` and remainders run the scalar tail, so no access
//! leaves the slices.

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

use crate::pixel::{rgb_as_bytes, rgb_as_bytes_mut, Rgb};
use crate::simd::{Kind, ResolvedIsa};
use crate::sizeset::in_size_set;

/// One vertical pyramid step across all columns of five equal-length byte
/// rows: `out[j] = (r0[j] + 4·r1[j] + 6·r2[j] + 4·r3[j] + r4[j] + 8) >> 4`.
///
/// Rows are raw channel bytes (see [`rgb_as_bytes`]); the kernel is
/// channel-oblivious because the weights apply per byte position. Runs the
/// instruction set named by `isa`, with identical results at every level.
///
/// # Panics
/// If the five rows and `out` do not all share one length.
pub fn reduce_rows5(isa: ResolvedIsa, rows: [&[u8]; 5], out: &mut [u8]) {
    let [r0, r1, r2, r3, r4] = rows;
    let n = out.len();
    assert!(
        r0.len() == n && r1.len() == n && r2.len() == n && r3.len() == n && r4.len() == n,
        "reduce_rows5: row lengths {:?} != out length {n}",
        [r0.len(), r1.len(), r2.len(), r3.len(), r4.len()],
    );
    match isa.kind() {
        Kind::Scalar => reduce_rows5_scalar_from(r0, r1, r2, r3, r4, out, 0),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `ResolvedIsa` with this kind is only constructible
        // when `is_x86_feature_detected!("sse2")` held (crate::simd).
        Kind::Sse2 => unsafe { x86::reduce_rows5_sse2(r0, r1, r2, r3, r4, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: witness guarantees AVX2 was detected at runtime.
        Kind::Avx2 => unsafe { x86::reduce_rows5_avx2(r0, r1, r2, r3, r4, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: witness guarantees NEON was detected at runtime.
        Kind::Neon => unsafe { neon::reduce_rows5_neon(r0, r1, r2, r3, r4, out) },
    }
}

/// The portable reference loop, starting at byte `start` — also the tail
/// handler for every SIMD variant (lengths are rarely lane multiples: grid
/// widths are size-set values, all odd, times 3 bytes).
#[inline]
pub(crate) fn reduce_rows5_scalar_from(
    r0: &[u8],
    r1: &[u8],
    r2: &[u8],
    r3: &[u8],
    r4: &[u8],
    out: &mut [u8],
    start: usize,
) {
    for j in start..out.len() {
        let acc = u16::from(r0[j])
            + 4 * u16::from(r1[j])
            + 6 * u16::from(r2[j])
            + 4 * u16::from(r3[j])
            + u16::from(r4[j]);
        out[j] = ((acc + 8) >> 4) as u8;
    }
}

/// Crop gather: copy `src[idx[k]]` into `out[k]` for every `k`.
///
/// `idx` is a precomputed nearest-neighbor table (grid cell → frame pixel
/// index, see [`crate::geometry::AreaLayout::tba_index_table`]), so one
/// frame crop is a single pass of dependent loads — the `f64`
/// back-projection math runs once per layout instead of once per pixel.
///
/// # Panics
/// If `idx` and `out` differ in length, or any index is out of bounds for
/// `src` (tables built for the matching frame size never are).
pub fn gather_pixels(src: &[Rgb], idx: &[u32], out: &mut [Rgb]) {
    assert_eq!(idx.len(), out.len(), "gather_pixels: index/output mismatch");
    for (slot, &i) in out.iter_mut().zip(idx) {
        *slot = src[i as usize];
    }
}

/// Collapse the `rows × cols` grid held in `a[..rows * cols]` to a single
/// row and return it (a slice of `a` or `b`, whichever the last level
/// landed in). Allocation-free, for the zero-alloc hot path.
///
/// Levels ping-pong between `a` and `b` using [`reduce_rows5`] row-wise;
/// `b` must hold at least `max(1, (rows − 3) / 2) · cols` pixels. `rows`
/// must be a size-set member (callers validate; debug-asserted here).
pub fn collapse_grid_to_row<'a>(
    a: &'a mut [Rgb],
    b: &'a mut [Rgb],
    rows: usize,
    cols: usize,
    isa: ResolvedIsa,
) -> &'a [Rgb] {
    debug_assert!(in_size_set(rows), "row count {rows} not in size set");
    debug_assert!(a.len() >= rows * cols);
    debug_assert!(rows == 1 || b.len() >= ((rows - 3) / 2) * cols);
    let (mut src, mut dst) = (a, b);
    let mut cur_rows = rows;
    while cur_rows > 1 {
        let out_rows = (cur_rows - 3) / 2;
        for i in 0..out_rows {
            let top = 2 * i * cols;
            let window: [&[u8]; 5] =
                core::array::from_fn(|k| rgb_as_bytes(&src[top + k * cols..top + (k + 1) * cols]));
            reduce_rows5(
                isa,
                window,
                rgb_as_bytes_mut(&mut dst[i * cols..(i + 1) * cols]),
            );
        }
        std::mem::swap(&mut src, &mut dst);
        cur_rows = out_rows;
    }
    &src[..cols]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SimdLevel;

    /// Deterministic byte stream (no `proptest` here: these tests are the
    /// ones the CI Miri job runs, and they must stay interpreter-cheap).
    struct Lcg(u64);
    impl Lcg {
        fn next_u8(&mut self) -> u8 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) as u8
        }
        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next_u8()).collect()
        }
        fn pixels(&mut self, n: usize) -> Vec<Rgb> {
            (0..n)
                .map(|_| Rgb::new(self.next_u8(), self.next_u8(), self.next_u8()))
                .collect()
        }
    }

    /// The u32 arithmetic of `pyramid::kernel_reduce`, per byte — the
    /// independent reference the kernels must match bit for bit.
    fn reference_reduce(r: [&[u8]; 5], j: usize) -> u8 {
        let acc: u32 = [1u32, 4, 6, 4, 1]
            .iter()
            .zip(r)
            .map(|(w, row)| w * u32::from(row[j]))
            .sum();
        ((acc + 8) / 16) as u8
    }

    #[test]
    fn every_level_matches_reference_on_awkward_lengths() {
        let mut rng = Lcg(7);
        // Lengths around lane boundaries: sub-lane, exact lanes, lane+tail,
        // and the real grid widths (size-set values × 3 bytes, all odd).
        for n in [0, 1, 2, 3, 15, 16, 17, 31, 32, 33, 48, 100, 375, 759] {
            let rows: Vec<Vec<u8>> = (0..5).map(|_| rng.bytes(n)).collect();
            let r: [&[u8]; 5] = core::array::from_fn(|k| rows[k].as_slice());
            let expected: Vec<u8> = (0..n).map(|j| reference_reduce(r, j)).collect();
            for level in SimdLevel::all_available() {
                let isa = level.try_resolve().unwrap();
                let mut out = vec![0u8; n];
                reduce_rows5(isa, r, &mut out);
                assert_eq!(out, expected, "len {n} at {isa}");
            }
        }
    }

    #[test]
    fn saturating_inputs_stay_exact() {
        // All-255 rows drive the accumulator to its maximum 4088; the
        // narrowing back to u8 must still be exact (255), not saturating
        // garbage.
        let row = vec![255u8; 50];
        let r: [&[u8]; 5] = [&row, &row, &row, &row, &row];
        for level in SimdLevel::all_available() {
            let mut out = vec![0u8; 50];
            reduce_rows5(level.try_resolve().unwrap(), r, &mut out);
            assert!(out.iter().all(|&b| b == 255), "{level}");
        }
    }

    #[test]
    #[should_panic(expected = "length")]
    fn mismatched_lengths_panic() {
        let a = [0u8; 4];
        let b = [0u8; 5];
        let mut out = [0u8; 4];
        reduce_rows5(ResolvedIsa::SCALAR, [&a, &a, &a, &b, &a], &mut out);
    }

    #[test]
    fn gather_follows_index_table() {
        let src: Vec<Rgb> = (0..10).map(|i| Rgb::gray(i as u8 * 20)).collect();
        let idx = [9u32, 0, 3, 3, 7];
        let mut out = vec![Rgb::BLACK; 5];
        gather_pixels(&src, &idx, &mut out);
        assert_eq!(
            out,
            vec![
                Rgb::gray(180),
                Rgb::gray(0),
                Rgb::gray(60),
                Rgb::gray(60),
                Rgb::gray(140)
            ]
        );
    }

    #[test]
    fn collapse_matches_per_column_pyramid() {
        let mut rng = Lcg(99);
        for (rows, cols) in [(1usize, 5usize), (5, 13), (13, 29), (61, 125), (125, 125)] {
            let grid = rng.pixels(rows * cols);
            // Reference: reduce each column independently with the scalar
            // formula until one pixel remains.
            let mut expected = Vec::with_capacity(cols);
            for c in 0..cols {
                let mut col: Vec<Rgb> = (0..rows).map(|r| grid[r * cols + c]).collect();
                while col.len() > 1 {
                    col = (0..(col.len() - 3) / 2)
                        .map(|i| {
                            let w: Vec<Vec<u8>> =
                                (0..5).map(|k| col[2 * i + k].0.to_vec()).collect();
                            let r: [&[u8]; 5] = core::array::from_fn(|k| w[k].as_slice());
                            Rgb([
                                reference_reduce(r, 0),
                                reference_reduce(r, 1),
                                reference_reduce(r, 2),
                            ])
                        })
                        .collect();
                }
                expected.push(col[0]);
            }
            for level in SimdLevel::all_available() {
                let isa = level.try_resolve().unwrap();
                let mut a = grid.clone();
                let scratch_rows = if rows == 1 { 1 } else { (rows - 3) / 2 };
                let mut b = vec![Rgb::BLACK; scratch_rows * cols];
                let out = collapse_grid_to_row(&mut a, &mut b, rows, cols, isa);
                assert_eq!(out, expected, "{rows}x{cols} at {isa}");
            }
        }
    }
}
