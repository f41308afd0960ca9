//! Owned RGB frame buffers.
//!
//! The paper's pipeline consumes decoded RGB frames (their clips were
//! 160×120 AVI at 3 frames/second). [`FrameBuf`] is the decoded-frame type
//! shared between the analysis pipeline and the synthetic video substrate.

use crate::error::{CoreError, Result};
use crate::pixel::{rgb_as_bytes, rgb_as_bytes_mut, Rgb};

/// An owned, row-major RGB frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameBuf {
    width: u32,
    height: u32,
    data: Vec<Rgb>,
}

impl FrameBuf {
    /// Create a frame filled with a single color.
    pub fn filled(width: u32, height: u32, color: Rgb) -> Self {
        FrameBuf {
            width,
            height,
            data: vec![color; (width as usize) * (height as usize)],
        }
    }

    /// Create a black frame.
    pub fn black(width: u32, height: u32) -> Self {
        Self::filled(width, height, Rgb::BLACK)
    }

    /// Create a frame from raw pixel data (row-major, `width * height` long).
    pub fn from_pixels(width: u32, height: u32, data: Vec<Rgb>) -> Result<Self> {
        let expected = (width as usize) * (height as usize);
        if data.len() != expected {
            return Err(CoreError::FrameDataMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(FrameBuf {
            width,
            height,
            data,
        })
    }

    /// Pack the frame as raw RGB24 bytes: row-major, three bytes per
    /// pixel. This is the payload format streaming-ingest clients push
    /// over the wire.
    pub fn to_rgb24(&self) -> Vec<u8> {
        rgb_as_bytes(&self.data).to_vec()
    }

    /// Rebuild a frame from raw RGB24 bytes (the inverse of
    /// [`FrameBuf::to_rgb24`]); `data.len()` must be exactly
    /// `width * height * 3`.
    pub fn from_rgb24(width: u32, height: u32, data: &[u8]) -> Result<Self> {
        let expected = (width as usize) * (height as usize) * 3;
        if data.len() != expected {
            return Err(CoreError::FrameDataMismatch {
                expected,
                actual: data.len(),
            });
        }
        let mut pixels = vec![Rgb::BLACK; expected / 3];
        rgb_as_bytes_mut(&mut pixels).copy_from_slice(data);
        Ok(FrameBuf {
            width,
            height,
            data: pixels,
        })
    }

    /// Create a frame by evaluating `f(x, y)` at every pixel.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> Rgb) -> Self {
        let mut data = Vec::with_capacity((width as usize) * (height as usize));
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        FrameBuf {
            width,
            height,
            data,
        }
    }

    /// Frame width in pixels (`c` in the paper's notation).
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels (`r` in the paper's notation).
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// `(width, height)` pair.
    #[inline]
    pub fn dims(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// Total number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the frame has zero pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable access to the raw row-major pixel data.
    #[inline]
    pub fn pixels(&self) -> &[Rgb] {
        &self.data
    }

    /// Mutable access to the raw row-major pixel data.
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [Rgb] {
        &mut self.data
    }

    /// Pixel at `(x, y)`. Panics if out of bounds (debug-friendly: callers in
    /// the pipeline always iterate within computed geometry).
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Rgb {
        debug_assert!(x < self.width && y < self.height);
        self.data[(y as usize) * (self.width as usize) + (x as usize)]
    }

    /// Pixel at `(x, y)` clamped to the frame borders. Used by samplers that
    /// may compute coordinates slightly past the edge.
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> Rgb {
        let cx = x.clamp(0, i64::from(self.width) - 1) as u32;
        let cy = y.clamp(0, i64::from(self.height) - 1) as u32;
        self.get(cx, cy)
    }

    /// Set the pixel at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, p: Rgb) {
        debug_assert!(x < self.width && y < self.height);
        self.data[(y as usize) * (self.width as usize) + (x as usize)] = p;
    }

    /// One row of pixels.
    #[inline]
    pub fn row(&self, y: u32) -> &[Rgb] {
        let w = self.width as usize;
        let start = (y as usize) * w;
        &self.data[start..start + w]
    }

    /// Iterate over `(x, y, pixel)` in row-major order.
    pub fn enumerate_pixels(&self) -> impl Iterator<Item = (u32, u32, Rgb)> + '_ {
        let w = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &p)| ((i as u32) % w, (i as u32) / w, p))
    }

    /// Write the frame as binary PPM (P6) — the zero-dependency image
    /// format every viewer opens. Used to export representative frames and
    /// storyboards for visual inspection.
    pub fn write_ppm(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "P6\n{} {}\n255", self.width, self.height)?;
        let mut bytes = Vec::with_capacity(self.data.len() * 3);
        for p in &self.data {
            bytes.extend_from_slice(&p.0);
        }
        out.write_all(&bytes)
    }

    /// Parse a binary PPM (P6) previously produced by [`FrameBuf::write_ppm`].
    /// Supports exactly that writer's layout (single-whitespace-separated
    /// header, maxval 255); returns `None` on anything else.
    pub fn read_ppm(input: &[u8]) -> Option<FrameBuf> {
        let mut parts = input.splitn(4, |&b| b == b'\n');
        if parts.next()? != b"P6" {
            return None;
        }
        let dims = std::str::from_utf8(parts.next()?).ok()?;
        let (w, h) = dims.split_once(' ')?;
        let (w, h): (u32, u32) = (w.parse().ok()?, h.parse().ok()?);
        if parts.next()? != b"255" {
            return None;
        }
        let raw = parts.next()?;
        let expected = (w as usize) * (h as usize) * 3;
        if raw.len() != expected {
            return None;
        }
        let data = raw
            .chunks_exact(3)
            .map(|c| Rgb([c[0], c[1], c[2]]))
            .collect();
        FrameBuf::from_pixels(w, h, data).ok()
    }

    /// Mean absolute per-channel difference against another frame of the same
    /// dimensions, averaged over all pixels. Used by the pixelwise baseline
    /// detector and by tests.
    pub fn mean_abs_diff(&self, other: &FrameBuf) -> f64 {
        assert_eq!(self.dims(), other.dims(), "frames must share dimensions");
        if self.data.is_empty() {
            return 0.0;
        }
        let total: u64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| u64::from(a.l1_dist(*b)))
            .sum();
        total as f64 / (self.data.len() as f64 * 3.0)
    }
}

/// A video held fully in memory: a sequence of equally-sized frames.
///
/// The analysis pipeline streams over frames, but the in-memory form is the
/// convenient unit of data entry ("video clips are convenient units for data
/// entry", §1).
#[derive(Debug, Clone, PartialEq)]
pub struct Video {
    frames: Vec<FrameBuf>,
    fps: f64,
}

impl Video {
    /// Paper's analysis frame rate: clips were subsampled to 3 frames/second.
    pub const PAPER_FPS: f64 = 3.0;

    /// Build a video from frames, validating dimension consistency.
    pub fn new(frames: Vec<FrameBuf>, fps: f64) -> Result<Self> {
        if frames.is_empty() {
            return Err(CoreError::EmptyVideo);
        }
        let first = frames[0].dims();
        for (i, f) in frames.iter().enumerate().skip(1) {
            if f.dims() != first {
                return Err(CoreError::InconsistentDimensions {
                    first,
                    other: f.dims(),
                    frame: i,
                });
            }
        }
        Ok(Video { frames, fps })
    }

    /// The frames.
    #[inline]
    pub fn frames(&self) -> &[FrameBuf] {
        &self.frames
    }

    /// Number of frames (`f` in the paper's complexity analysis).
    #[inline]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the video has zero frames (never true for a constructed video).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Frames per second.
    #[inline]
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Duration in seconds.
    #[inline]
    pub fn duration_secs(&self) -> f64 {
        self.frames.len() as f64 / self.fps
    }

    /// Frame dimensions `(width, height)`.
    #[inline]
    pub fn dims(&self) -> (u32, u32) {
        self.frames[0].dims()
    }

    /// Consume into the frame vector.
    pub fn into_frames(self) -> Vec<FrameBuf> {
        self.frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_frame_has_uniform_pixels() {
        let f = FrameBuf::filled(8, 4, Rgb::new(1, 2, 3));
        assert_eq!(f.len(), 32);
        assert!(f.pixels().iter().all(|&p| p == Rgb::new(1, 2, 3)));
    }

    #[test]
    fn from_pixels_validates_length() {
        let err = FrameBuf::from_pixels(4, 4, vec![Rgb::BLACK; 15]).unwrap_err();
        assert_eq!(
            err,
            CoreError::FrameDataMismatch {
                expected: 16,
                actual: 15
            }
        );
        assert!(FrameBuf::from_pixels(4, 4, vec![Rgb::BLACK; 16]).is_ok());
    }

    #[test]
    fn from_fn_row_major_addressing() {
        let f = FrameBuf::from_fn(3, 2, |x, y| Rgb::new(x as u8, y as u8, 0));
        assert_eq!(f.get(0, 0), Rgb::new(0, 0, 0));
        assert_eq!(f.get(2, 0), Rgb::new(2, 0, 0));
        assert_eq!(f.get(1, 1), Rgb::new(1, 1, 0));
        assert_eq!(
            f.row(1),
            &[Rgb::new(0, 1, 0), Rgb::new(1, 1, 0), Rgb::new(2, 1, 0)]
        );
    }

    #[test]
    fn get_clamped_clamps_to_border() {
        let f = FrameBuf::from_fn(2, 2, |x, y| Rgb::new(x as u8, y as u8, 9));
        assert_eq!(f.get_clamped(-5, -5), f.get(0, 0));
        assert_eq!(f.get_clamped(10, 10), f.get(1, 1));
        assert_eq!(f.get_clamped(1, -1), f.get(1, 0));
    }

    #[test]
    fn set_then_get_roundtrip() {
        let mut f = FrameBuf::black(4, 4);
        f.set(3, 2, Rgb::WHITE);
        assert_eq!(f.get(3, 2), Rgb::WHITE);
        assert_eq!(f.get(2, 3), Rgb::BLACK);
    }

    #[test]
    fn enumerate_pixels_visits_all_in_order() {
        let f = FrameBuf::from_fn(3, 2, |x, y| Rgb::new(x as u8, y as u8, 0));
        let coords: Vec<(u32, u32)> = f.enumerate_pixels().map(|(x, y, _)| (x, y)).collect();
        assert_eq!(coords, vec![(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]);
        for (x, y, p) in f.enumerate_pixels() {
            assert_eq!(p, f.get(x, y));
        }
    }

    #[test]
    fn mean_abs_diff_of_identical_frames_is_zero() {
        let f = FrameBuf::from_fn(8, 8, |x, y| Rgb::new((x * y) as u8, x as u8, y as u8));
        assert_eq!(f.mean_abs_diff(&f), 0.0);
    }

    #[test]
    fn mean_abs_diff_uniform_shift() {
        let a = FrameBuf::filled(4, 4, Rgb::gray(100));
        let b = FrameBuf::filled(4, 4, Rgb::gray(110));
        assert!((a.mean_abs_diff(&b) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn ppm_roundtrip() {
        let f = FrameBuf::from_fn(7, 5, |x, y| Rgb::new(x as u8 * 30, y as u8 * 40, 200));
        let mut bytes = Vec::new();
        f.write_ppm(&mut bytes).unwrap();
        assert!(bytes.starts_with(b"P6\n7 5\n255\n"));
        assert_eq!(bytes.len(), 11 + 7 * 5 * 3);
        let back = FrameBuf::read_ppm(&bytes).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn ppm_rejects_garbage() {
        assert!(FrameBuf::read_ppm(b"").is_none());
        assert!(FrameBuf::read_ppm(b"P5\n2 2\n255\nxxxx").is_none());
        assert!(FrameBuf::read_ppm(b"P6\n2 2\n255\nshort").is_none());
        assert!(FrameBuf::read_ppm(b"P6\nnope\n255\n").is_none());
    }

    #[test]
    fn video_rejects_empty() {
        assert_eq!(Video::new(vec![], 3.0).unwrap_err(), CoreError::EmptyVideo);
    }

    #[test]
    fn video_rejects_mixed_dimensions() {
        let frames = vec![FrameBuf::black(8, 8), FrameBuf::black(8, 9)];
        let err = Video::new(frames, 3.0).unwrap_err();
        assert!(matches!(
            err,
            CoreError::InconsistentDimensions { frame: 1, .. }
        ));
    }

    #[test]
    fn rgb24_roundtrip_is_exact() {
        let frame = FrameBuf::from_fn(5, 4, |x, y| Rgb([x as u8 * 7, y as u8 * 11, 250]));
        let bytes = frame.to_rgb24();
        assert_eq!(bytes.len(), 5 * 4 * 3);
        assert_eq!(FrameBuf::from_rgb24(5, 4, &bytes).unwrap(), frame);
        assert!(matches!(
            FrameBuf::from_rgb24(5, 4, &bytes[..bytes.len() - 1]),
            Err(CoreError::FrameDataMismatch { .. })
        ));
    }

    proptest::proptest! {
        /// `from_rgb24` is the exact inverse of `to_rgb24` at any (odd)
        /// size, and rejects every other byte length.
        #[test]
        fn prop_rgb24_roundtrip(
            half_w in 0u32..40,
            half_h in 0u32..40,
            seed in proptest::prelude::any::<u8>(),
            off_by in 1usize..7,
        ) {
            let (w, h) = (2 * half_w + 1, 2 * half_h + 1);
            let frame = FrameBuf::from_fn(w, h, |x, y| {
                Rgb::new(
                    ((x * 7 + y * 3) as u8).wrapping_add(seed),
                    ((x + y * 13) as u8).wrapping_mul(31),
                    ((x * 5 + y * 11) as u8) ^ seed,
                )
            });
            let bytes = frame.to_rgb24();
            proptest::prop_assert_eq!(bytes.len(), (w * h * 3) as usize);
            proptest::prop_assert_eq!(&FrameBuf::from_rgb24(w, h, &bytes).unwrap(), &frame);
            let mut long = bytes.clone();
            long.resize(bytes.len() + off_by, 0);
            for wrong in [&bytes[..bytes.len() - off_by.min(bytes.len())], &long[..]] {
                proptest::prop_assert_eq!(
                    FrameBuf::from_rgb24(w, h, wrong).unwrap_err(),
                    CoreError::FrameDataMismatch {
                        expected: bytes.len(),
                        actual: wrong.len(),
                    }
                );
            }
        }
    }

    #[test]
    fn video_duration() {
        let frames = vec![FrameBuf::black(8, 8); 9];
        let v = Video::new(frames, 3.0).unwrap();
        assert_eq!(v.len(), 9);
        assert!((v.duration_secs() - 3.0).abs() < 1e-12);
        assert_eq!(v.dims(), (8, 8));
    }
}
