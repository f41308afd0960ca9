//! Background/object-area geometry (§2 of the paper, Figure 1).
//!
//! Every frame is carved into:
//!
//! * the ⊓-shaped **fixed background area** (FBA): a top bar of height `w`
//!   spanning the full width plus two vertical columns of width `w` running
//!   down the left and right edges — the regions where camera motion shows
//!   up and foreground objects usually do not;
//! * the **fixed object area** (FOA): the central/bottom region between the
//!   columns and below the top bar, where primary objects appear.
//!
//! The FBA's two vertical columns are rotated *outward* (Figure 2) to form
//! the rectangular **transformed background area** (TBA) of height `w` and
//! length `L = c + 2h`, so background comparison becomes a one-dimensional
//! shift-and-match over the TBA's pyramid signature.
//!
//! Raw dimensions are estimated from the frame size (`w' = ⌊c/10⌋`,
//! `b' = c − 2w'`, `h' = r − w'`, `L' = c + 2h'`) and snapped to the
//! Gaussian-pyramid size set (see [`crate::sizeset`]).

use crate::error::{CoreError, Result};
use crate::frame::FrameBuf;
use crate::pixel::Rgb;
use crate::sizeset::snap;

/// A small rectangular grid of pixels (rows × cols), the unit the Gaussian
/// pyramid reduces. Produced by TBA/FOA extraction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PixelGrid {
    rows: usize,
    cols: usize,
    data: Vec<Rgb>,
}

impl PixelGrid {
    /// Build from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<Rgb>) -> Self {
        assert_eq!(data.len(), rows * cols, "grid data length mismatch");
        PixelGrid { rows, cols, data }
    }

    /// Build by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, f: impl FnMut(usize, usize) -> Rgb) -> Self {
        let mut grid = PixelGrid::default();
        grid.fill_from_fn(rows, cols, f);
        grid
    }

    /// Refill this grid in place by evaluating `f(row, col)`, resizing to
    /// `rows × cols`. The backing storage is reused, so a grid cycled
    /// through frames of one layout allocates only on its first fill.
    pub fn fill_from_fn(
        &mut self,
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> Rgb,
    ) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.reserve(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                self.data.push(f(r, c));
            }
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Pixel at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Rgb {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Row-major pixel data.
    #[inline]
    pub fn data(&self) -> &[Rgb] {
        &self.data
    }
}

/// The complete area geometry for one frame size.
///
/// Computed once per video (all frames share dimensions) and reused for
/// every frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaLayout {
    /// Frame width (`c`).
    pub frame_width: u32,
    /// Frame height (`r`).
    pub frame_height: u32,
    /// Raw FBA bar/column thickness `w' = ⌊c/10⌋`.
    pub w_raw: usize,
    /// Raw FOA width `b' = c − 2w'`.
    pub b_raw: usize,
    /// Raw FOA height / FBA column height `h' = r − w'`.
    pub h_raw: usize,
    /// Raw TBA length `L' = c + 2h'`.
    pub l_raw: usize,
    /// Snapped TBA height `w`.
    pub w: usize,
    /// Snapped FOA width `b`.
    pub b: usize,
    /// Snapped FOA height `h`.
    pub h: usize,
    /// Snapped TBA length `L`.
    pub l: usize,
}

impl AreaLayout {
    /// Compute the layout for a `width × height` frame.
    ///
    /// Mirrors §2.2: `w'` is 10 % of the frame width ("determined
    /// empirically using our video clips"), the other raw dimensions follow,
    /// and all four are snapped to the size set.
    ///
    /// # Errors
    /// [`CoreError::FrameTooSmall`] if any raw dimension would be zero
    /// (frames narrower than 10 px or not taller than `w'`).
    pub fn for_frame(width: u32, height: u32) -> Result<Self> {
        Self::for_frame_with_fraction(width, height, 0.1)
    }

    /// [`AreaLayout::for_frame`] with an explicit border-thickness fraction
    /// instead of the paper's empirical 10 % (`w' = ⌊c·fraction⌋`).
    /// Exposed for the FBA-thickness ablation: thinner borders see less
    /// background (noisier signs), thicker ones encroach on the object
    /// area.
    pub fn for_frame_with_fraction(width: u32, height: u32, fraction: f64) -> Result<Self> {
        assert!(
            fraction > 0.0 && fraction < 0.5,
            "border fraction must be in (0, 0.5)"
        );
        let c = width as usize;
        let r = height as usize;
        let w_raw = (c as f64 * fraction) as usize;
        if w_raw == 0 || r <= w_raw || c <= 2 * w_raw {
            return Err(CoreError::FrameTooSmall { width, height });
        }
        let b_raw = c - 2 * w_raw;
        let h_raw = r - w_raw;
        let l_raw = c + 2 * h_raw;
        Ok(AreaLayout {
            frame_width: width,
            frame_height: height,
            w_raw,
            b_raw,
            h_raw,
            l_raw,
            w: snap(w_raw),
            b: snap(b_raw),
            h: snap(h_raw),
            l: snap(l_raw),
        })
    }

    /// Extract the transformed background area of `frame` as a `w × L` grid.
    ///
    /// The conceptual raw strip is `[left column rotated] [top bar] [right
    /// column rotated]`, of size `w' × L'`; the snapped `w × L` grid samples
    /// it with nearest-neighbor so the pyramid's size-set requirement is met
    /// regardless of the exact frame dimensions. Rotation is *outward*
    /// (Figure 2): the strip is continuous where each column meets the bar.
    pub fn extract_tba(&self, frame: &FrameBuf) -> PixelGrid {
        let mut grid = PixelGrid::default();
        self.extract_tba_into(frame, &mut grid);
        grid
    }

    /// [`AreaLayout::extract_tba`] into a reusable grid (see
    /// [`PixelGrid::fill_from_fn`]): no allocation once the grid has
    /// warmed up to this layout's `w × L`.
    pub fn extract_tba_into(&self, frame: &FrameBuf, grid: &mut PixelGrid) {
        debug_assert_eq!(frame.dims(), (self.frame_width, self.frame_height));
        let (w_raw, h_raw, l_raw) = (self.w_raw, self.h_raw, self.l_raw);
        let c = self.frame_width as i64;
        let r = self.frame_height as i64;
        grid.fill_from_fn(self.w, self.l, |t, u| {
            // Nearest-neighbor back-projection into the raw strip.
            let rt = ((t as f64 + 0.5) * w_raw as f64 / self.w as f64) as i64;
            let ru = ((u as f64 + 0.5) * l_raw as f64 / self.l as f64) as i64;
            let rt = rt.clamp(0, w_raw as i64 - 1);
            let ru = ru.clamp(0, l_raw as i64 - 1);
            // Map raw strip coordinate (rt, ru) to a frame pixel.
            if ru < h_raw as i64 {
                // Left column, rotated outward: strip column 0 is the bottom
                // of the frame's left column; the junction (ru = h'-1)
                // touches the top bar.
                frame.get_clamped(rt, r - 1 - ru)
            } else if ru < h_raw as i64 + c {
                // Top bar.
                frame.get_clamped(ru - h_raw as i64, rt)
            } else {
                // Right column, rotated outward: the junction (ru = h'+c)
                // touches the top bar; the far end is the bottom.
                let v = ru - h_raw as i64 - c;
                frame.get_clamped(c - 1 - rt, w_raw as i64 + v)
            }
        })
    }

    /// Precompute the TBA crop as an index table: entry `t * L + u` is the
    /// frame-pixel index (`y * frame_width + x`) that TBA grid cell
    /// `(t, u)` samples.
    ///
    /// The table evaluates the *same* nearest-neighbor back-projection as
    /// [`AreaLayout::extract_tba_into`] — same `f64` expressions, same
    /// clamping — so gathering through it is bit-identical to the closure
    /// path (pinned by tests). Crop geometry is a function of the layout
    /// alone, so the `f64` math runs once per layout here instead of once
    /// per pixel per frame; the per-frame crop becomes a pure gather
    /// ([`crate::kernels::gather_pixels`]).
    pub fn tba_index_table(&self) -> Vec<u32> {
        let (w_raw, h_raw, l_raw) = (self.w_raw, self.h_raw, self.l_raw);
        let c = i64::from(self.frame_width);
        let r = i64::from(self.frame_height);
        let mut table = Vec::with_capacity(self.w * self.l);
        for t in 0..self.w {
            let rt = nearest(t, self.w, w_raw) as i64;
            for u in 0..self.l {
                let ru = nearest(u, self.l, l_raw) as i64;
                let (x, y) = if ru < h_raw as i64 {
                    (rt, r - 1 - ru)
                } else if ru < h_raw as i64 + c {
                    (ru - h_raw as i64, rt)
                } else {
                    let v = ru - h_raw as i64 - c;
                    (c - 1 - rt, w_raw as i64 + v)
                };
                table.push(Self::pixel_index(x, y, c, r));
            }
        }
        table
    }

    /// The FOA crop's row map: entry `t` is the frame row that FOA grid
    /// row `t` samples.
    ///
    /// The FOA crop is a product of two maps — grid cell `(t, u)` is the
    /// frame pixel `foa_rows()[t] * frame_width + w' + foa_cols()[u]` —
    /// because [`AreaLayout::extract_foa_into`]'s back-projection treats
    /// the two axes independently. Both maps evaluate its `f64`
    /// expressions and clamping, so sampling through them is
    /// bit-identical to the closure path (pinned by tests). Every entry
    /// lies inside the frame, so the closure's border clamp never fires.
    pub fn foa_rows(&self) -> Vec<usize> {
        (0..self.h)
            .map(|t| self.w_raw + nearest(t, self.h, self.h_raw))
            .collect()
    }

    /// The FOA crop's column map: entry `u` is the raw FOA column
    /// (counted from `w'`, so in `0..b'`) that FOA grid column `u`
    /// samples. See [`AreaLayout::foa_rows`].
    pub fn foa_cols(&self) -> Vec<usize> {
        (0..self.b)
            .map(|u| nearest(u, self.b, self.b_raw))
            .collect()
    }

    /// Frame coordinate → flat pixel index, with the same border clamp as
    /// `FrameBuf::get_clamped` (a no-op for in-range layouts, kept for
    /// exact behavioral parity with the closure-based extractors).
    #[inline]
    fn pixel_index(x: i64, y: i64, c: i64, r: i64) -> u32 {
        let x = x.clamp(0, c - 1);
        let y = y.clamp(0, r - 1);
        // Frames larger than u32::MAX pixels would overflow the compact
        // table entries; real frames are orders of magnitude smaller.
        debug_assert!(y * c + x <= i64::from(u32::MAX));
        (y * c + x) as u32
    }

    /// Extract the fixed object area of `frame` as an `h × b` grid.
    ///
    /// The raw FOA occupies rows `w'..r` and columns `w'..c−w'` (the central
    /// and bottom region of Figure 1); the snapped grid samples it with
    /// nearest-neighbor.
    pub fn extract_foa(&self, frame: &FrameBuf) -> PixelGrid {
        let mut grid = PixelGrid::default();
        self.extract_foa_into(frame, &mut grid);
        grid
    }

    /// [`AreaLayout::extract_foa`] into a reusable grid: no allocation once
    /// the grid has warmed up to this layout's `h × b`.
    pub fn extract_foa_into(&self, frame: &FrameBuf, grid: &mut PixelGrid) {
        debug_assert_eq!(frame.dims(), (self.frame_width, self.frame_height));
        let (w_raw, h_raw, b_raw) = (self.w_raw, self.h_raw, self.b_raw);
        grid.fill_from_fn(self.h, self.b, |row, col| {
            let rr = ((row as f64 + 0.5) * h_raw as f64 / self.h as f64) as i64;
            let rc = ((col as f64 + 0.5) * b_raw as f64 / self.b as f64) as i64;
            let rr = rr.clamp(0, h_raw as i64 - 1);
            let rc = rc.clamp(0, b_raw as i64 - 1);
            frame.get_clamped(w_raw as i64 + rc, w_raw as i64 + rr)
        })
    }
}

/// Nearest-neighbor back-projection of snapped index `i` (of `snapped`)
/// onto a raw axis of `raw` positions — the expression the closure crops
/// evaluate per cell.
fn nearest(i: usize, snapped: usize, raw: usize) -> usize {
    let x = ((i as f64 + 0.5) * raw as f64 / snapped as f64) as i64;
    x.clamp(0, raw as i64 - 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_layout_for_160x120() {
        // The paper's clips: 160x120. w' = 16 -> w = 13; h' = 104 -> h = 125;
        // b' = 128 -> b = 125; L' = 368 -> L = 253.
        let lay = AreaLayout::for_frame(160, 120).unwrap();
        assert_eq!(lay.w_raw, 16);
        assert_eq!(lay.b_raw, 128);
        assert_eq!(lay.h_raw, 104);
        assert_eq!(lay.l_raw, 368);
        assert_eq!(lay.w, 13);
        assert_eq!(lay.b, 125);
        assert_eq!(lay.h, 125);
        assert_eq!(lay.l, 253);
    }

    #[test]
    fn fraction_variant_scales_border() {
        let thin = AreaLayout::for_frame_with_fraction(160, 120, 0.05).unwrap();
        let paper = AreaLayout::for_frame(160, 120).unwrap();
        let thick = AreaLayout::for_frame_with_fraction(160, 120, 0.2).unwrap();
        assert_eq!(thin.w_raw, 8);
        assert_eq!(paper.w_raw, 16);
        assert_eq!(thick.w_raw, 32);
        assert!(thin.w <= paper.w && paper.w <= thick.w);
        // Default equals the paper's 10%.
        assert_eq!(
            paper,
            AreaLayout::for_frame_with_fraction(160, 120, 0.1).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "border fraction")]
    fn fraction_out_of_range_panics() {
        let _ = AreaLayout::for_frame_with_fraction(160, 120, 0.6);
    }

    #[test]
    fn tiny_frames_rejected() {
        assert!(matches!(
            AreaLayout::for_frame(8, 8),
            Err(CoreError::FrameTooSmall { .. })
        ));
        assert!(matches!(
            AreaLayout::for_frame(100, 10),
            Err(CoreError::FrameTooSmall { .. })
        ));
        assert!(AreaLayout::for_frame(40, 30).is_ok());
    }

    #[test]
    fn tba_dimensions_are_snapped() {
        let lay = AreaLayout::for_frame(160, 120).unwrap();
        let frame = FrameBuf::filled(160, 120, Rgb::gray(42));
        let tba = lay.extract_tba(&frame);
        assert_eq!((tba.rows(), tba.cols()), (lay.w, lay.l));
        // Uniform frame -> uniform TBA.
        assert!(tba.data().iter().all(|&p| p == Rgb::gray(42)));
    }

    #[test]
    fn foa_dimensions_are_snapped() {
        let lay = AreaLayout::for_frame(160, 120).unwrap();
        let frame = FrameBuf::filled(160, 120, Rgb::gray(7));
        let foa = lay.extract_foa(&frame);
        assert_eq!((foa.rows(), foa.cols()), (lay.h, lay.b));
        assert!(foa.data().iter().all(|&p| p == Rgb::gray(7)));
    }

    #[test]
    fn tba_samples_background_not_center() {
        // Paint the FOA region green, the border red: the TBA must be all
        // red, the FOA all green.
        let lay = AreaLayout::for_frame(160, 120).unwrap();
        let (w, h) = (lay.w_raw as u32, lay.h_raw as u32);
        let frame = FrameBuf::from_fn(160, 120, |x, y| {
            let in_foa = y >= w && x >= w && x < 160 - w && y < w + h;
            if in_foa {
                Rgb::new(0, 255, 0)
            } else {
                Rgb::new(255, 0, 0)
            }
        });
        let tba = lay.extract_tba(&frame);
        assert!(
            tba.data().iter().all(|&p| p == Rgb::new(255, 0, 0)),
            "TBA must only sample the ⊓-shaped border"
        );
        let foa = lay.extract_foa(&frame);
        assert!(
            foa.data().iter().all(|&p| p == Rgb::new(0, 255, 0)),
            "FOA must only sample the central region"
        );
    }

    #[test]
    fn tba_is_smooth_within_segments() {
        // A frame whose pixel value is a smooth ramp: within each of the
        // three strip segments (left column / top bar / right column) the
        // resampled TBA must not jump. (The two junction columns may jump by
        // up to ~w' because the frame's corner blocks belong to the bar, not
        // the columns.)
        let lay = AreaLayout::for_frame(160, 120).unwrap();
        let frame = FrameBuf::from_fn(160, 120, |x, y| {
            Rgb::gray((((x + y) * 255) / (160 + 120)) as u8)
        });
        let tba = lay.extract_tba(&frame);
        // Strip columns where the raw segments meet, in snapped coordinates.
        let j1 = (lay.h_raw as f64 * lay.l as f64 / lay.l_raw as f64).round() as usize;
        let j2 = ((lay.h_raw + lay.frame_width as usize) as f64 * lay.l as f64 / lay.l_raw as f64)
            .round() as usize;
        let near_junction = |col: usize| col.abs_diff(j1) <= 2 || col.abs_diff(j2) <= 2;
        for row in 0..tba.rows() {
            for col in 1..tba.cols() {
                if near_junction(col) || near_junction(col - 1) {
                    continue;
                }
                let a = tba.get(row, col - 1);
                let b = tba.get(row, col);
                assert!(
                    a.max_channel_diff(b) <= 8,
                    "discontinuity at row {row}, col {col}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn horizontal_pan_shifts_tba_content() {
        // The whole point of the TBA: a horizontal camera pan becomes a
        // horizontal shift of the top-bar section of the strip.
        let lay = AreaLayout::for_frame(160, 120).unwrap();
        let world = |x: i64, y: i64| Rgb::gray((((x * 7 + y * 13) % 251) & 0xff) as u8);
        let frame_at =
            |dx: i64| FrameBuf::from_fn(160, 120, |x, y| world(i64::from(x) + dx, i64::from(y)));
        let t0 = lay.extract_tba(&frame_at(0));
        let t1 = lay.extract_tba(&frame_at(10));
        // Compare the top-bar middle sections shifted by 10 columns
        // (snapped L == raw L' is false here, so allow the nearest-neighbour
        // resampling to blur the match; check a correlation-style majority).
        let row = 0;
        let offset = (10.0 * lay.l as f64 / lay.l_raw as f64).round() as usize;
        let lo = lay.l / 3;
        let hi = 2 * lay.l / 3;
        let mut matches = 0;
        let mut total = 0;
        for col in lo..hi {
            total += 1;
            if t0.get(row, col + offset).max_channel_diff(t1.get(row, col)) <= 16 {
                matches += 1;
            }
        }
        assert!(
            matches * 10 >= total * 8,
            "pan should shift TBA content: {matches}/{total} matched"
        );
    }

    fn gather(frame: &FrameBuf, table: &[u32]) -> Vec<Rgb> {
        table.iter().map(|&i| frame.pixels()[i as usize]).collect()
    }

    /// The FOA sampled through its row and column maps, row-major:
    /// cell `(t, u)` is `frame[row(t) + col(u)]`.
    fn sample_foa(frame: &FrameBuf, lay: &AreaLayout) -> Vec<Rgb> {
        let c = lay.frame_width as usize;
        let (rows, cols) = (lay.foa_rows(), lay.foa_cols());
        assert_eq!((rows.len(), cols.len()), (lay.h, lay.b));
        assert!(rows.iter().all(|&y| y < lay.frame_height as usize));
        assert!(cols.iter().all(|&x| x < lay.b_raw));
        rows.iter()
            .flat_map(|&y| {
                cols.iter()
                    .map(move |&x| frame.pixels()[y * c + lay.w_raw + x])
            })
            .collect()
    }

    #[test]
    fn index_tables_reproduce_closure_crops_exactly() {
        // The TBA table and the FOA row/column maps must evaluate the
        // identical nearest-neighbor mapping: sampling through them
        // reproduces extract_tba/extract_foa bit for bit, including odd
        // dims where snapping is far from the raw size.
        for (w, h) in [
            (160u32, 120u32),
            (80, 60),
            (41, 31),
            (97, 73),
            (59, 47),
            (20, 20),
        ] {
            let lay = AreaLayout::for_frame(w, h).unwrap();
            let frame = FrameBuf::from_fn(w, h, |x, y| {
                Rgb::new(
                    ((x * 7 + y * 3) % 251) as u8,
                    ((x + y * 11) % 241) as u8,
                    ((x * 13 + y) % 239) as u8,
                )
            });
            let tba_table = lay.tba_index_table();
            assert_eq!(tba_table.len(), lay.w * lay.l);
            assert_eq!(
                gather(&frame, &tba_table),
                lay.extract_tba(&frame).data(),
                "TBA table mismatch at {w}x{h}"
            );
            assert_eq!(
                sample_foa(&frame, &lay),
                lay.extract_foa(&frame).data(),
                "FOA maps mismatch at {w}x{h}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_index_tables_match_closure_crops(
            width in 20u32..400,
            height in 20u32..400,
            seed in any::<u8>(),
            // Sweep the crop rectangle too, not just the paper's 10%.
            frac_pct in 5u32..45,
        ) {
            let fraction = frac_pct as f64 / 100.0;
            if let Ok(lay) = AreaLayout::for_frame_with_fraction(width, height, fraction) {
                let frame = FrameBuf::from_fn(width, height, |x, y| {
                    Rgb::gray(((x * 3 + y * 5) as u8).wrapping_add(seed))
                });
                let tba = lay.extract_tba(&frame);
                let foa = lay.extract_foa(&frame);
                prop_assert_eq!(gather(&frame, &lay.tba_index_table()), tba.data());
                prop_assert_eq!(sample_foa(&frame, &lay), foa.data());
            }
        }

        #[test]
        fn prop_layout_dims_in_size_set(width in 20u32..1000, height in 20u32..1000) {
            if let Ok(lay) = AreaLayout::for_frame(width, height) {
                use crate::sizeset::in_size_set;
                prop_assert!(in_size_set(lay.w));
                prop_assert!(in_size_set(lay.b));
                prop_assert!(in_size_set(lay.h));
                prop_assert!(in_size_set(lay.l));
            }
        }

        #[test]
        fn prop_extraction_never_panics(width in 20u32..400, height in 20u32..400, seed in any::<u8>()) {
            if let Ok(lay) = AreaLayout::for_frame(width, height) {
                let frame = FrameBuf::from_fn(width, height, |x, y| {
                    Rgb::gray(((x * 3 + y * 5) as u8).wrapping_add(seed))
                });
                let tba = lay.extract_tba(&frame);
                let foa = lay.extract_foa(&frame);
                prop_assert_eq!((tba.rows(), tba.cols()), (lay.w, lay.l));
                prop_assert_eq!((foa.rows(), foa.cols()), (lay.h, lay.b));
            }
        }

        #[test]
        fn prop_uniform_frame_uniform_areas(width in 20u32..300, height in 20u32..300, v in any::<u8>()) {
            if let Ok(lay) = AreaLayout::for_frame(width, height) {
                let frame = FrameBuf::filled(width, height, Rgb::gray(v));
                prop_assert!(lay.extract_tba(&frame).data().iter().all(|&p| p == Rgb::gray(v)));
                prop_assert!(lay.extract_foa(&frame).data().iter().all(|&p| p == Rgb::gray(v)));
            }
        }
    }
}
