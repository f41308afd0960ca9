//! RGB pixel type used throughout the pipeline.
//!
//! The paper works in 8-bit RGB space ("in our RGB space red, green and blue
//! colors range from 0 to 255", §3.1). A *sign* — the single pixel a frame
//! region reduces to — is also an [`Rgb`] value, so this type carries both
//! raw image data and the reduced features.

/// An 8-bit RGB pixel.
///
/// This is the unit of every stage of the pipeline: raw frames, transformed
/// background areas, signatures (rows of pixels), and signs (single pixels)
/// are all built from `Rgb` values.
///
/// `#[repr(transparent)]` guarantees the layout is exactly `[u8; 3]`
/// (size 3, align 1), which is what lets [`rgb_as_bytes`] /
/// [`rgb_as_bytes_mut`] reinterpret pixel slices as byte slices for the
/// SIMD extraction kernels without copying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(transparent)]
pub struct Rgb(pub [u8; 3]);

// The byte-view helpers below rely on this layout; `repr(transparent)`
// already guarantees it, the assertions just make a violation unmissable.
const _: () = assert!(std::mem::size_of::<Rgb>() == 3);
const _: () = assert!(std::mem::align_of::<Rgb>() == 1);

/// View a pixel slice as its raw channel bytes (`r g b r g b …`), without
/// copying. The inverse view of `FrameBuf::from_rgb24`'s input format.
#[inline]
pub fn rgb_as_bytes(pixels: &[Rgb]) -> &[u8] {
    // SAFETY: `Rgb` is `repr(transparent)` over `[u8; 3]` (size 3,
    // align 1, asserted above), so `len` pixels are exactly `3 * len`
    // initialized bytes at the same address; `u8` has no validity
    // requirements and the lifetime is inherited from the input borrow.
    unsafe { std::slice::from_raw_parts(pixels.as_ptr().cast::<u8>(), pixels.len() * 3) }
}

/// Mutable variant of [`rgb_as_bytes`]: view a pixel slice as its raw
/// channel bytes for in-place writes.
#[inline]
pub fn rgb_as_bytes_mut(pixels: &mut [Rgb]) -> &mut [u8] {
    // SAFETY: as in `rgb_as_bytes`; the `&mut` borrow is unique, so the
    // byte view is the only live alias for its lifetime, and any byte
    // pattern is a valid `[u8; 3]`.
    unsafe { std::slice::from_raw_parts_mut(pixels.as_mut_ptr().cast::<u8>(), pixels.len() * 3) }
}

impl Rgb {
    /// Black (all channels zero).
    pub const BLACK: Rgb = Rgb([0, 0, 0]);

    /// Construct from individual channels.
    #[inline]
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb([r, g, b])
    }

    /// Construct a gray pixel with all three channels equal.
    #[inline]
    pub const fn gray(v: u8) -> Self {
        Rgb([v, v, v])
    }

    /// Red channel.
    #[inline]
    pub const fn r(self) -> u8 {
        self.0[0]
    }

    /// Green channel.
    #[inline]
    pub const fn g(self) -> u8 {
        self.0[1]
    }

    /// Blue channel.
    #[inline]
    pub const fn b(self) -> u8 {
        self.0[2]
    }

    /// Maximum absolute per-channel difference between two pixels.
    ///
    /// This is the "max. difference in `Sign^BA`s" of Eq. 2: the paper
    /// normalizes it by 256 to obtain the percentage difference `D_s`.
    #[inline]
    pub fn max_channel_diff(self, other: Rgb) -> u8 {
        let d0 = self.0[0].abs_diff(other.0[0]);
        let d1 = self.0[1].abs_diff(other.0[1]);
        let d2 = self.0[2].abs_diff(other.0[2]);
        d0.max(d1).max(d2)
    }

    /// Sum of absolute per-channel differences (L1 distance), as `u16`.
    #[inline]
    pub fn l1_dist(self, other: Rgb) -> u16 {
        self.0[0].abs_diff(other.0[0]) as u16
            + self.0[1].abs_diff(other.0[1]) as u16
            + self.0[2].abs_diff(other.0[2]) as u16
    }

    /// Mean of the absolute per-channel differences as a float.
    #[inline]
    pub fn mean_abs_diff(self, other: Rgb) -> f64 {
        f64::from(self.l1_dist(other)) / 3.0
    }

    /// `D_s` of Eq. 2: percentage difference between two signs.
    ///
    /// ```
    /// use vdb_core::pixel::Rgb;
    /// let a = Rgb::new(219, 152, 142);
    /// let b = Rgb::new(226, 164, 172);
    /// // max channel diff is 30 -> 30/256*100 = 11.71875%
    /// assert!((a.percent_diff(b) - 11.71875).abs() < 1e-9);
    /// ```
    #[inline]
    pub fn percent_diff(self, other: Rgb) -> f64 {
        f64::from(self.max_channel_diff(other)) / 256.0 * 100.0
    }

    /// ITU-R BT.601 luma approximation, useful for edge detection baselines.
    #[inline]
    pub fn luma(self) -> u8 {
        // Integer approximation: (77 R + 150 G + 29 B) / 256.
        let y = 77u32 * u32::from(self.0[0])
            + 150u32 * u32::from(self.0[1])
            + 29u32 * u32::from(self.0[2]);
        (y >> 8) as u8
    }

    /// The three channels as `f64`s, for statistics (Eqs. 3–6).
    #[inline]
    pub fn channels_f64(self) -> [f64; 3] {
        [
            f64::from(self.0[0]),
            f64::from(self.0[1]),
            f64::from(self.0[2]),
        ]
    }

    /// Per-channel saturating addition.
    #[inline]
    pub fn saturating_add(self, other: Rgb) -> Rgb {
        Rgb([
            self.0[0].saturating_add(other.0[0]),
            self.0[1].saturating_add(other.0[1]),
            self.0[2].saturating_add(other.0[2]),
        ])
    }

    /// Blend `self` toward `other` by `t` in `\[0, 1\]` (used by the synthetic
    /// substrate for dissolves and anti-aliased drawing).
    #[inline]
    pub fn lerp(self, other: Rgb, t: f64) -> Rgb {
        let t = t.clamp(0.0, 1.0);
        let mix = |a: u8, b: u8| -> u8 {
            let v = f64::from(a) + (f64::from(b) - f64::from(a)) * t;
            v.round().clamp(0.0, 255.0) as u8
        };
        Rgb([
            mix(self.0[0], other.0[0]),
            mix(self.0[1], other.0[1]),
            mix(self.0[2], other.0[2]),
        ])
    }

    /// Whether every channel differs from `other` by at most `tol`.
    ///
    /// This is the pixel-match predicate of the stage-3 signature tracking
    /// (two signature pixels "match" if they are near-identical).
    #[inline]
    pub fn matches_within(self, other: Rgb, tol: u8) -> bool {
        self.max_channel_diff(other) <= tol
    }
}

impl From<[u8; 3]> for Rgb {
    #[inline]
    fn from(v: [u8; 3]) -> Self {
        Rgb(v)
    }
}

impl From<Rgb> for [u8; 3] {
    #[inline]
    fn from(p: Rgb) -> Self {
        p.0
    }
}

/// Accumulator for averaging many pixels without overflow.
///
/// Used by the Gaussian pyramid and by representative-frame statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RgbAccumulator {
    sums: [u64; 3],
    count: u64,
}

impl RgbAccumulator {
    /// Fresh empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one pixel.
    #[inline]
    pub fn push(&mut self, p: Rgb) {
        self.sums[0] += u64::from(p.0[0]);
        self.sums[1] += u64::from(p.0[1]);
        self.sums[2] += u64::from(p.0[2]);
        self.count += 1;
    }

    /// Number of pixels accumulated.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Rounded mean pixel; black if empty.
    pub fn mean(&self) -> Rgb {
        if self.count == 0 {
            return Rgb::BLACK;
        }
        let avg = |s: u64| -> u8 { ((s + self.count / 2) / self.count).min(255) as u8 };
        Rgb([avg(self.sums[0]), avg(self.sums[1]), avg(self.sums[2])])
    }
}

#[cfg(test)]
impl Rgb {
    /// White (all channels 255).
    pub const WHITE: Rgb = Rgb([255, 255, 255]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn byte_views_round_trip() {
        let mut px = vec![Rgb::new(1, 2, 3), Rgb::new(4, 5, 6), Rgb::new(7, 8, 9)];
        assert_eq!(rgb_as_bytes(&px), &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        rgb_as_bytes_mut(&mut px)[4] = 99;
        assert_eq!(px[1], Rgb::new(4, 99, 6));
        assert_eq!(rgb_as_bytes(&[]), &[] as &[u8]);
    }

    #[test]
    fn max_channel_diff_picks_largest() {
        let a = Rgb::new(10, 200, 30);
        let b = Rgb::new(15, 100, 40);
        assert_eq!(a.max_channel_diff(b), 100);
        assert_eq!(b.max_channel_diff(a), 100);
    }

    #[test]
    fn percent_diff_matches_eq2_worked_example() {
        // Table 2 signs: (219,152,142) vs (226,164,172): max diff 30.
        let a = Rgb::new(219, 152, 142);
        let b = Rgb::new(226, 164, 172);
        let d_s = a.percent_diff(b);
        assert!((d_s - (30.0 / 256.0 * 100.0)).abs() < 1e-12);
        // 11.7% > 10% -> RELATIONSHIP would call these frames unrelated.
        assert!(d_s > 10.0);
    }

    #[test]
    fn identical_pixels_have_zero_diff() {
        let a = Rgb::new(1, 2, 3);
        assert_eq!(a.max_channel_diff(a), 0);
        assert_eq!(a.l1_dist(a), 0);
        assert_eq!(a.percent_diff(a), 0.0);
    }

    #[test]
    fn luma_extremes() {
        assert_eq!(Rgb::BLACK.luma(), 0);
        // 77+150+29 = 256 -> white maps to 255.
        assert_eq!(Rgb::WHITE.luma(), 255);
    }

    #[test]
    fn luma_orders_brightness() {
        assert!(Rgb::gray(200).luma() > Rgb::gray(50).luma());
    }

    #[test]
    fn lerp_endpoints() {
        let a = Rgb::new(0, 100, 200);
        let b = Rgb::new(255, 0, 50);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
    }

    #[test]
    fn lerp_midpoint_rounds() {
        let a = Rgb::new(0, 0, 0);
        let b = Rgb::new(255, 101, 1);
        let m = a.lerp(b, 0.5);
        assert_eq!(m, Rgb::new(128, 51, 1)); // 127.5 -> 128, 50.5 -> 51, 0.5 -> 1
    }

    #[test]
    fn accumulator_mean_rounds_to_nearest() {
        let mut acc = RgbAccumulator::new();
        acc.push(Rgb::new(0, 0, 10));
        acc.push(Rgb::new(1, 3, 11));
        // sums (1,3,21), count 2 -> (0.5, 1.5, 10.5) -> rounds (1, 2, 11)
        assert_eq!(acc.mean(), Rgb::new(1, 2, 11));
        assert_eq!(acc.count(), 2);
    }

    #[test]
    fn empty_accumulator_is_black() {
        assert_eq!(RgbAccumulator::new().mean(), Rgb::BLACK);
    }

    #[test]
    fn matches_within_tolerance_boundary() {
        let a = Rgb::new(100, 100, 100);
        let b = Rgb::new(110, 95, 100);
        assert!(a.matches_within(b, 10));
        assert!(!a.matches_within(b, 9));
    }

    proptest! {
        #[test]
        fn prop_diff_symmetric(a in any::<[u8;3]>(), b in any::<[u8;3]>()) {
            let (a, b) = (Rgb(a), Rgb(b));
            prop_assert_eq!(a.max_channel_diff(b), b.max_channel_diff(a));
            prop_assert_eq!(a.l1_dist(b), b.l1_dist(a));
        }

        #[test]
        fn prop_diff_triangle_like(a in any::<[u8;3]>(), b in any::<[u8;3]>(), c in any::<[u8;3]>()) {
            let (a, b, c) = (Rgb(a), Rgb(b), Rgb(c));
            // Max-channel distance is a metric (Chebyshev on channels).
            prop_assert!(
                u16::from(a.max_channel_diff(c))
                    <= u16::from(a.max_channel_diff(b)) + u16::from(b.max_channel_diff(c))
            );
        }

        #[test]
        fn prop_percent_diff_in_range(a in any::<[u8;3]>(), b in any::<[u8;3]>()) {
            let d = Rgb(a).percent_diff(Rgb(b));
            prop_assert!((0.0..=100.0).contains(&d));
        }

        #[test]
        fn prop_lerp_stays_in_channel_hull(a in any::<[u8;3]>(), b in any::<[u8;3]>(), t in 0.0f64..=1.0) {
            let (pa, pb) = (Rgb(a), Rgb(b));
            let m = pa.lerp(pb, t);
            for ch in 0..3 {
                let lo = a[ch].min(b[ch]);
                let hi = a[ch].max(b[ch]);
                prop_assert!(m.0[ch] >= lo && m.0[ch] <= hi);
            }
        }

        #[test]
        fn prop_accumulator_mean_in_hull(pixels in prop::collection::vec(any::<[u8;3]>(), 1..64)) {
            let mut acc = RgbAccumulator::new();
            for p in &pixels {
                acc.push(Rgb(*p));
            }
            let m = acc.mean();
            for ch in 0..3 {
                let lo = pixels.iter().map(|p| p[ch]).min().unwrap();
                let hi = pixels.iter().map(|p| p[ch]).max().unwrap();
                prop_assert!(m.0[ch] >= lo && m.0[ch] <= hi);
            }
        }
    }
}
