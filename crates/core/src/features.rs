//! Per-frame feature extraction: `Sign^BA`, `Sign^OA`, and the background
//! signature (§2.1–§2.2).
//!
//! For every frame `i` the extractor computes:
//!
//! * `signature_ba` — the one-row pyramid reduction of the frame's TBA;
//! * `sign_ba` (`Sign_i^BA`) — the single-pixel reduction of the TBA, used
//!   by the stage-1 quick test, by RELATIONSHIP (Eq. 2), and by `Var^BA`;
//! * `sign_oa` (`Sign_i^OA`) — the single-pixel reduction of the FOA, used
//!   by `Var^OA`.
//!
//! # The fused hot path
//!
//! The textbook formulation crops the frame into a TBA/FOA grid and then
//! reduces that grid — two passes, with the full grid materialized in
//! between. This module fuses them, differently for the two areas:
//!
//! * **TBA.** Its side columns are rotated frame columns, so the crop is
//!   a precomputed index-table gather ([`AreaLayout::tba_index_table`]).
//!   Grid rows are gathered into a 5-row ring just in time for the first
//!   vertical reduction, so each grid cell is gathered exactly once and
//!   only `5 × cols` gathered pixels are ever live. Output row `i`
//!   consumes source rows `2i..2i+4`; the ring slot for row `r` is
//!   `r % 5`, collision-free because any kernel window spans 5
//!   consecutive rows.
//! * **FOA.** Its crop is a product of a row map and a column map
//!   ([`AreaLayout::foa_rows`], [`AreaLayout::foa_cols`]). The vertical
//!   kernel works on each column on its own, so picking columns commutes
//!   with the whole vertical collapse: the first level reads its five
//!   rows as slices of the frame (`b'` raw columns wide, no gather), the
//!   levels collapse to one `b'`-pixel row, and the `b` signature pixels
//!   are picked from it through the column map.
//!
//! The remaining (much smaller) levels collapse via
//! [`crate::kernels::collapse_grid_to_row`] at the extractor's resolved
//! SIMD level. Results are bit-identical to the unfused crop-then-reduce
//! composition at every level — pinned by the proptests below and the
//! scalar-vs-SIMD equivalence suite.

use crate::error::Result;
use crate::frame::{FrameBuf, Video};
use crate::geometry::AreaLayout;
use crate::kernels;
use crate::pixel::{rgb_as_bytes, rgb_as_bytes_mut, Rgb};
use crate::pyramid::{ensure_capacity, reduce_line_to_sign_with, ReduceScratch};
use crate::signature::Signature;
use crate::simd::{ResolvedIsa, SimdLevel};
use crate::sizeset::in_size_set;

/// Reusable working memory for per-frame feature extraction.
///
/// Extraction needs a handful of temporaries per frame — the TBA's 5-row
/// gather ring, the intermediate pyramid levels, and the FOA's throwaway
/// signature. A `ScratchBuffers` owns all of them and is threaded through
/// [`FeatureExtractor::extract_with`], so after the first frame (warm-up)
/// the only per-frame allocation left is the returned [`FrameFeatures`]'s
/// own `Signature` — the crop gathers and pyramid reductions themselves
/// are allocation-free (asserted via [`crate::pyramid::reduction_allocs`]).
///
/// The buffers grow to the largest frame layout ever seen and carry no
/// frame content between uses, so one scratch may be reused across clips
/// of different dimensions. Not shareable across threads: each parallel
/// extraction worker owns its own.
#[derive(Debug, Clone, Default)]
pub struct ScratchBuffers {
    grids: GridScratch,
    reduce: ReduceScratch,
    sig_oa: Vec<Rgb>,
}

/// Scratch for the fused crop-and-reduce grid passes: the TBA's 5-row
/// gather ring plus the two ping-pong level buffers both areas use. Kept
/// separate from [`ReduceScratch`] (the *line* pyramid's buffers) so the
/// line reductions' clear/push length games never force the grid passes
/// to re-initialize their full-length buffers.
#[derive(Debug, Clone, Default)]
struct GridScratch {
    ring: [Vec<Rgb>; 5],
    a: Vec<Rgb>,
    b: Vec<Rgb>,
}

/// Grow `buf` to at least `len` initialized pixels, charging the reduction
/// allocation counter only on true heap growth. Never shrinks, so warm
/// slices stay valid across layout changes.
fn grow_pixels(buf: &mut Vec<Rgb>, len: usize) {
    if buf.len() < len {
        ensure_capacity(buf, len);
        buf.resize(len, Rgb::BLACK);
    }
}

/// The features extracted from one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameFeatures {
    /// `Sign_i^BA`: the background area reduced to one pixel.
    pub sign_ba: Rgb,
    /// `Sign_i^OA`: the object area reduced to one pixel.
    pub sign_oa: Rgb,
    /// The TBA's one-row signature (kept for the SBD tracker; dropped from
    /// persistent storage once shots are formed).
    pub signature_ba: Signature,
}

/// Extracts [`FrameFeatures`] for frames of one fixed size.
///
/// Construct once per video; the [`AreaLayout`] (and hence all pyramid
/// shapes), the crop tables, and the resolved SIMD level are fixed
/// by the frame dimensions and configuration. Shareable across parallel
/// workers by `&self` (each worker brings its own [`ScratchBuffers`]).
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    layout: AreaLayout,
    isa: ResolvedIsa,
    /// `w × L` nearest-neighbor table: TBA cell → frame pixel index.
    tba_table: Vec<u32>,
    /// FOA grid row → frame row ([`AreaLayout::foa_rows`]).
    foa_rows: Vec<usize>,
    /// FOA grid column → raw FOA column ([`AreaLayout::foa_cols`]).
    foa_cols: Vec<usize>,
}

impl FeatureExtractor {
    /// Create an extractor for `width × height` frames, auto-detecting the
    /// SIMD level ([`SimdLevel::Auto`]).
    pub fn new(width: u32, height: u32) -> Result<Self> {
        Self::with_simd(width, height, SimdLevel::Auto)
    }

    /// Create an extractor for `width × height` frames at an explicit
    /// [`SimdLevel`]. Every level extracts bit-identical features; the
    /// knob only changes wall-clock time.
    ///
    /// # Errors
    /// [`crate::CoreError::FrameTooSmall`] for unusable dimensions;
    /// [`crate::CoreError::SimdUnavailable`] if a forced level names an
    /// instruction set this host lacks.
    pub fn with_simd(width: u32, height: u32, simd: SimdLevel) -> Result<Self> {
        Self::with_layout(AreaLayout::for_frame(width, height)?, simd)
    }

    /// Create an extractor for an explicit (possibly non-default)
    /// [`AreaLayout`], e.g. one built with
    /// [`AreaLayout::for_frame_with_fraction`].
    ///
    /// # Errors
    /// [`crate::CoreError::NotInSizeSet`] if a side of the TBA grid
    /// (`w × L`) or of the FOA grid (`h × b`) is not a size-set member, so
    /// the pyramid could not tile it (checked here once, not per frame);
    /// [`crate::CoreError::SimdUnavailable`] as for
    /// [`FeatureExtractor::with_simd`].
    pub fn with_layout(layout: AreaLayout, simd: SimdLevel) -> Result<Self> {
        check_grid(layout.w, layout.l)?;
        check_grid(layout.h, layout.b)?;
        let isa = simd.try_resolve()?;
        Ok(FeatureExtractor {
            layout,
            isa,
            tba_table: layout.tba_index_table(),
            foa_rows: layout.foa_rows(),
            foa_cols: layout.foa_cols(),
        })
    }

    /// The geometry in use.
    pub fn layout(&self) -> &AreaLayout {
        &self.layout
    }

    /// The instruction set the extraction kernels run with.
    pub fn simd(&self) -> ResolvedIsa {
        self.isa
    }

    /// Extract features for a single frame.
    ///
    /// Allocates fresh working memory per call; hot paths keep a
    /// [`ScratchBuffers`] and use [`FeatureExtractor::extract_with`].
    ///
    /// # Panics
    /// Debug-asserts that the frame matches the extractor's dimensions; the
    /// video-level APIs validate this up front.
    pub fn extract(&self, frame: &FrameBuf) -> Result<FrameFeatures> {
        self.extract_with(frame, &mut ScratchBuffers::default())
    }

    /// Extract features for a single frame, reusing `scratch` for every
    /// temporary. Bit-identical to [`FeatureExtractor::extract`]; after
    /// warm-up the crop gathers and pyramid reductions allocate nothing
    /// and the only per-frame allocation is the returned signature.
    ///
    /// Never fails once the extractor is built: construction checked the
    /// layout.
    pub fn extract_with(
        &self,
        frame: &FrameBuf,
        scratch: &mut ScratchBuffers,
    ) -> Result<FrameFeatures> {
        Ok(self.extract_frame(frame, scratch))
    }

    /// [`FeatureExtractor::extract_with`] without the `Result`: the
    /// engine's per-frame step, which cannot fail once the layout is
    /// checked.
    pub(crate) fn extract_frame(
        &self,
        frame: &FrameBuf,
        scratch: &mut ScratchBuffers,
    ) -> FrameFeatures {
        debug_assert_eq!(
            frame.dims(),
            (self.layout.frame_width, self.layout.frame_height)
        );
        let pixels = frame.pixels();
        // The BA signature outlives the call inside `FrameFeatures`, so it
        // gets its own allocation — sized up front so the reduction never
        // grows it.
        let mut signature = Vec::with_capacity(self.layout.l);
        fused_crop_signature(
            pixels,
            &self.tba_table,
            self.layout.w,
            self.layout.l,
            self.isa,
            &mut scratch.grids,
            &mut signature,
        );
        self.foa_signature(pixels, &mut scratch.grids, &mut scratch.sig_oa);
        // `L` and `b` are size-set members (checked at construction), so
        // both lines reduce to a sign.
        let sign_of = |line: &[Rgb], reduce: &mut ReduceScratch| {
            reduce_line_to_sign_with(line, reduce).expect("layout checked at construction")
        };
        FrameFeatures {
            sign_ba: sign_of(&signature, &mut scratch.reduce),
            sign_oa: sign_of(&scratch.sig_oa, &mut scratch.reduce),
            signature_ba: Signature::new(signature),
        }
    }

    /// Extract features for every frame of a video.
    pub fn extract_video(&self, video: &Video) -> Result<Vec<FrameFeatures>> {
        video.frames().iter().map(|f| self.extract(f)).collect()
    }

    /// The FOA's crop + grid pyramid without a gather: collapse the raw
    /// FOA's `b'` columns over the sampled frame rows, then pick the `b`
    /// signature pixels through the column map, into `out` (cleared
    /// first).
    ///
    /// The vertical kernel works on each column on its own, so picking
    /// columns before or after the vertical collapse gives the same
    /// pixels. Level 1 therefore reads its five rows straight out of the
    /// frame as `pixels[row·c + w'..][..b']`, and the remaining levels
    /// collapse in place. Bit-identical to `extract_foa_into` +
    /// `reduce_grid_to_signature_into` at every SIMD level.
    fn foa_signature(&self, pixels: &[Rgb], grids: &mut GridScratch, out: &mut Vec<Rgb>) {
        let lay = &self.layout;
        let (c, x0, width) = (lay.frame_width as usize, lay.w_raw, lay.b_raw);
        let row = |t: usize| &pixels[self.foa_rows[t] * c + x0..][..width];
        out.clear();
        ensure_capacity(out, lay.b);
        if lay.h == 1 {
            let line = row(0);
            out.extend(self.foa_cols.iter().map(|&u| line[u]));
            return;
        }
        let out_rows = (lay.h - 3) / 2;
        grow_pixels(&mut grids.a, out_rows * width);
        grow_pixels(&mut grids.b, out_rows * width);
        for i in 0..out_rows {
            let window: [&[u8]; 5] = core::array::from_fn(|k| rgb_as_bytes(row(2 * i + k)));
            kernels::reduce_rows5(
                self.isa,
                window,
                rgb_as_bytes_mut(&mut grids.a[i * width..(i + 1) * width]),
            );
        }
        let line =
            kernels::collapse_grid_to_row(&mut grids.a, &mut grids.b, out_rows, width, self.isa);
        out.extend(self.foa_cols.iter().map(|&u| line[u]));
    }
}

/// Both grid sides must be size-set members for the pyramid to tile them
/// (and the signature, one grid row long, to reduce to a sign).
fn check_grid(rows: usize, cols: usize) -> Result<()> {
    for len in [rows, cols] {
        if !in_size_set(len) {
            return Err(crate::CoreError::NotInSizeSet { len });
        }
    }
    Ok(())
}

/// The TBA's fused crop + grid pyramid: gather `rows × cols` grid cells from
/// `pixels` through `table` and collapse them to the one-row signature in
/// `out` (cleared first), without ever materializing the full grid.
///
/// Rows are gathered into the 5-slot ring exactly when the first vertical
/// reduction needs them (output row `i` consumes source rows `2i..2i+4`,
/// so each source row is gathered exactly once), the level-1 grid lands in
/// `grids.a`, and the remaining levels collapse in place. Bit-identical to
/// `extract_tba_into` + `reduce_grid_to_signature_into` at every SIMD level.
fn fused_crop_signature(
    pixels: &[Rgb],
    table: &[u32],
    rows: usize,
    cols: usize,
    isa: ResolvedIsa,
    grids: &mut GridScratch,
    out: &mut Vec<Rgb>,
) {
    debug_assert_eq!(table.len(), rows * cols);
    out.clear();
    ensure_capacity(out, cols);
    if rows == 1 {
        // The grid already is a single line: the signature is the gather.
        out.resize(cols, Rgb::BLACK);
        kernels::gather_pixels(pixels, table, &mut out[..]);
        return;
    }
    let out_rows = (rows - 3) / 2;
    for slot in grids.ring.iter_mut() {
        grow_pixels(slot, cols);
    }
    grow_pixels(&mut grids.a, out_rows * cols);
    grow_pixels(&mut grids.b, out_rows * cols);
    let mut gathered = 0usize;
    for i in 0..out_rows {
        // Pull in the source rows this window needs (2 new ones after the
        // first window; 5 for it). Slot `r % 5` cannot collide within the
        // 5-consecutive-row window.
        while gathered <= 2 * i + 4 {
            kernels::gather_pixels(
                pixels,
                &table[gathered * cols..(gathered + 1) * cols],
                &mut grids.ring[gathered % 5][..cols],
            );
            gathered += 1;
        }
        let window: [&[u8]; 5] =
            core::array::from_fn(|k| rgb_as_bytes(&grids.ring[(2 * i + k) % 5][..cols]));
        kernels::reduce_rows5(
            isa,
            window,
            rgb_as_bytes_mut(&mut grids.a[i * cols..(i + 1) * cols]),
        );
    }
    out.extend_from_slice(kernels::collapse_grid_to_row(
        &mut grids.a,
        &mut grids.b,
        out_rows,
        cols,
        isa,
    ));
}

/// Convenience: build the extractor from the video itself and run it.
pub fn extract_features(video: &Video) -> Result<Vec<FrameFeatures>> {
    let (w, h) = video.dims();
    FeatureExtractor::new(w, h)?.extract_video(video)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::pyramid::{reduce_grid_to_signature, reduce_line_to_sign};
    use proptest::prelude::*;

    fn uniform_video(n: usize, color: Rgb) -> Video {
        Video::new(vec![FrameBuf::filled(80, 60, color); n], 3.0).unwrap()
    }

    /// The unfused reference: crop-then-reduce composed from the closure
    /// extractors and the scalar grid pyramid, with the FOA signature
    /// (which `FrameFeatures` does not keep).
    fn composed_reference(layout: &AreaLayout, frame: &FrameBuf) -> (FrameFeatures, Vec<Rgb>) {
        let tba = layout.extract_tba(frame);
        let signature = reduce_grid_to_signature(&tba).unwrap();
        let sign_ba = reduce_line_to_sign(&signature).unwrap();
        let foa = layout.extract_foa(frame);
        let sig_oa = reduce_grid_to_signature(&foa).unwrap();
        let sign_oa = reduce_line_to_sign(&sig_oa).unwrap();
        let features = FrameFeatures {
            sign_ba,
            sign_oa,
            signature_ba: Signature::new(signature),
        };
        (features, sig_oa)
    }

    #[test]
    fn uniform_frame_signs_equal_color() {
        let ex = FeatureExtractor::new(80, 60).unwrap();
        let f = ex
            .extract(&FrameBuf::filled(80, 60, Rgb::new(9, 90, 200)))
            .unwrap();
        assert_eq!(f.sign_ba, Rgb::new(9, 90, 200));
        assert_eq!(f.sign_oa, Rgb::new(9, 90, 200));
        assert!(f
            .signature_ba
            .pixels()
            .iter()
            .all(|&p| p == Rgb::new(9, 90, 200)));
    }

    #[test]
    fn signature_length_matches_layout() {
        let ex = FeatureExtractor::new(160, 120).unwrap();
        let f = ex.extract(&FrameBuf::black(160, 120)).unwrap();
        assert_eq!(f.signature_ba.len(), ex.layout().l);
        assert_eq!(f.signature_ba.len(), 253);
    }

    #[test]
    fn background_and_object_are_independent() {
        // Change only the FOA: sign_oa must move, sign_ba must not.
        let ex = FeatureExtractor::new(160, 120).unwrap();
        let lay = *ex.layout();
        let (w, h) = (lay.w_raw as u32, lay.h_raw as u32);
        let frame_with_center = |center: Rgb| {
            FrameBuf::from_fn(160, 120, move |x, y| {
                let in_foa = y >= w && x >= w && x < 160 - w && y < w + h;
                if in_foa {
                    center
                } else {
                    Rgb::gray(128)
                }
            })
        };
        let fa = ex.extract(&frame_with_center(Rgb::gray(0))).unwrap();
        let fb = ex.extract(&frame_with_center(Rgb::gray(255))).unwrap();
        assert_eq!(
            fa.sign_ba, fb.sign_ba,
            "background sign must ignore the FOA"
        );
        assert!(
            fa.sign_oa.max_channel_diff(fb.sign_oa) > 200,
            "object sign must follow the FOA"
        );
    }

    #[test]
    fn extract_video_returns_one_feature_per_frame() {
        let v = uniform_video(7, Rgb::gray(10));
        let feats = extract_features(&v).unwrap();
        assert_eq!(feats.len(), 7);
        assert!(feats.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn too_small_video_fails() {
        let v = Video::new(vec![FrameBuf::black(8, 8)], 3.0).unwrap();
        assert!(matches!(
            extract_features(&v),
            Err(CoreError::FrameTooSmall { .. })
        ));
    }

    #[test]
    fn scratch_extraction_matches_fresh_extraction_across_dims() {
        // One scratch cycled through two different layouts (and back) must
        // not leak any state between frames.
        let mut scratch = ScratchBuffers::default();
        for dims in [(80u32, 60u32), (160, 120), (80, 60)] {
            let ex = FeatureExtractor::new(dims.0, dims.1).unwrap();
            for seed in 0..4u8 {
                let frame = FrameBuf::from_fn(dims.0, dims.1, |x, y| {
                    Rgb::gray(((x * 3 + y * 5) as u8).wrapping_add(seed * 37))
                });
                assert_eq!(
                    ex.extract_with(&frame, &mut scratch).unwrap(),
                    ex.extract(&frame).unwrap(),
                    "dims {dims:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn one_warm_frame_leaves_the_next_frame_allocation_free() {
        // Warmed on a single frame, the scratch must reduce the next frame
        // with no allocation at all, not only after a few frames.
        let ex = FeatureExtractor::new(160, 120).unwrap();
        let frames: Vec<FrameBuf> = (0..2u8)
            .map(|seed| {
                FrameBuf::from_fn(160, 120, |x, y| {
                    Rgb::gray(((x * 3 + y * 5) as u8).wrapping_add(seed * 37))
                })
            })
            .collect();
        let mut scratch = ScratchBuffers::default();
        ex.extract_with(&frames[0], &mut scratch).unwrap();
        let before = crate::pyramid::reduction_allocs();
        ex.extract_with(&frames[1], &mut scratch).unwrap();
        assert_eq!(crate::pyramid::reduction_allocs(), before);
    }

    #[test]
    fn layout_outside_the_size_set_is_refused_at_construction() {
        // A hand-built layout whose TBA height is no size-set member is
        // refused when the extractor is built, not on its first frame.
        let mut layout = AreaLayout::for_frame(160, 120).unwrap();
        layout.w = 12;
        assert!(matches!(
            FeatureExtractor::with_layout(layout, SimdLevel::Auto),
            Err(CoreError::NotInSizeSet { len: 12 })
        ));
        let mut layout = AreaLayout::for_frame(160, 120).unwrap();
        layout.b = 12;
        assert!(matches!(
            FeatureExtractor::with_layout(layout, SimdLevel::Auto),
            Err(CoreError::NotInSizeSet { len: 12 })
        ));
    }

    #[test]
    fn deterministic_extraction() {
        let frame = FrameBuf::from_fn(80, 60, |x, y| {
            Rgb::new((x * 3) as u8, (y * 5) as u8, ((x + y) * 2) as u8)
        });
        let ex = FeatureExtractor::new(80, 60).unwrap();
        let a = ex.extract(&frame).unwrap();
        let b = ex.extract(&frame).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fused_matches_composed_at_every_level_on_fixed_dims() {
        // Odd frame dims land the grids on non-lane-multiple byte widths;
        // 160x120 is the paper layout; at 64x48 the FOA's snapped width
        // exceeds its raw width (b = 61 > b' = 52), so the column map
        // repeats columns.
        for (w, h) in [
            (160u32, 120u32),
            (80, 60),
            (41, 31),
            (97, 73),
            (64, 48),
            (320, 240),
        ] {
            let frame = FrameBuf::from_fn(w, h, |x, y| {
                Rgb::new(
                    ((x * 3 + y * 17) % 253) as u8,
                    ((x * 11 + y * 5) % 251) as u8,
                    ((x + y * 23) % 241) as u8,
                )
            });
            let layout = AreaLayout::for_frame(w, h).unwrap();
            let (expected, expected_oa) = composed_reference(&layout, &frame);
            for level in SimdLevel::all_available() {
                let ex = FeatureExtractor::with_simd(w, h, level).unwrap();
                let mut scratch = ScratchBuffers::default();
                let got = ex.extract_with(&frame, &mut scratch).unwrap();
                assert_eq!(got, expected, "{w}x{h} at {level}");
                assert_eq!(
                    scratch.sig_oa, expected_oa,
                    "FOA signature {w}x{h} at {level}"
                );
            }
        }
    }

    /// Hand-rolled (no proptest) so the CI Miri job can run it: the FOA
    /// window slices frame rows in place, and this checks every slice
    /// stays inside the frame and the result equals the crop-then-reduce
    /// composition — including a one-row FOA (100x11: `h = 1`) and a
    /// column map that repeats columns (64x48: `b > b'`).
    #[test]
    fn foa_window_reads_frame_rows_in_place() {
        for (w, h) in [(41u32, 31u32), (64, 48), (100, 11), (20, 20)] {
            let frame = FrameBuf::from_fn(w, h, |x, y| {
                Rgb::new((x * 7 + y) as u8, (x + y * 5) as u8, (x * y) as u8)
            });
            let layout = AreaLayout::for_frame(w, h).unwrap();
            let expected = reduce_grid_to_signature(&layout.extract_foa(&frame)).unwrap();
            for level in SimdLevel::all_available() {
                let ex = FeatureExtractor::with_layout(layout, level).unwrap();
                let mut grids = GridScratch::default();
                let mut sig = Vec::new();
                ex.foa_signature(frame.pixels(), &mut grids, &mut sig);
                assert_eq!(sig, expected, "{w}x{h} at {level}");
            }
        }
        assert!(AreaLayout::for_frame(64, 48)
            .map(|l| l.b > l.b_raw)
            .unwrap());
        assert_eq!(AreaLayout::for_frame(100, 11).unwrap().h, 1);
    }

    #[test]
    fn forced_unavailable_isa_is_an_error() {
        // At least one of these is absent on any given host arch.
        let mut saw_err = false;
        for level in [
            SimdLevel::Forced(crate::SimdIsa::Neon),
            SimdLevel::Forced(crate::SimdIsa::Avx2),
        ] {
            if let Err(e) = FeatureExtractor::with_simd(80, 60, level) {
                assert!(matches!(e, CoreError::SimdUnavailable { .. }));
                saw_err = true;
            }
        }
        // On x86_64 Neon always errors; on aarch64 Avx2 always errors.
        if cfg!(any(target_arch = "x86_64", target_arch = "aarch64")) {
            assert!(saw_err);
        }
    }

    proptest! {
        /// The tentpole invariant: fused crop+reduce equals crop-then-reduce
        /// composed, for random frame dims, crop rectangles (border
        /// fractions), and hence pyramid depths — at every available SIMD
        /// level.
        #[test]
        fn prop_fused_equals_composed(
            width in 20u32..260,
            height in 20u32..260,
            frac_pct in 5u32..45,
            seed in any::<u8>(),
        ) {
            let fraction = frac_pct as f64 / 100.0;
            if let Ok(layout) = AreaLayout::for_frame_with_fraction(width, height, fraction) {
                let frame = FrameBuf::from_fn(width, height, |x, y| {
                    Rgb::new(
                        ((x * 7 + y * 3) as u8).wrapping_add(seed),
                        ((x + y * 13) as u8).wrapping_mul(31),
                        ((x * 5 + y * 11) as u8) ^ seed,
                    )
                });
                let (expected, expected_oa) = composed_reference(&layout, &frame);
                let mut scratch = ScratchBuffers::default();
                for level in SimdLevel::all_available() {
                    let ex = FeatureExtractor::with_layout(layout, level).unwrap();
                    let got = ex.extract_with(&frame, &mut scratch).unwrap();
                    prop_assert_eq!(&got, &expected, "{}x{} frac {} at {}", width, height, fraction, level);
                    prop_assert_eq!(&scratch.sig_oa, &expected_oa, "FOA signature {}x{} frac {} at {}", width, height, fraction, level);
                }
            }
        }
    }
}
