//! Procedural *worlds*: infinite, smooth, random-access background
//! textures.
//!
//! A [`World`] maps any `(x, y)` coordinate to a color, so a camera can pan
//! and zoom over it indefinitely. Worlds are built from octaved value noise
//! blended through a three-color palette, plus a vertical shading gradient
//! (floors are darker than skies). Smoothness matters: the SBD tracker
//! matches *resampled* signatures, and real-video backgrounds are smooth at
//! the signature's sampling scale — the `scale` parameter controls this.

use crate::rng::{hash2_unit, Srng};
use vdb_core::pixel::Rgb;

/// Three-color palette a world interpolates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Palette {
    /// Dominant color.
    pub base: Rgb,
    /// Primary accent.
    pub accent: Rgb,
    /// Secondary accent (weak blend).
    pub detail: Rgb,
}

impl Palette {
    /// A palette derived deterministically from a seed: well-separated base
    /// and accent, random detail.
    pub fn from_seed(seed: u64) -> Self {
        let mut r = Srng::new(seed ^ 0x5a5a_1234);
        let base = Rgb::new(
            r.range_usize(40, 215) as u8,
            r.range_usize(40, 215) as u8,
            r.range_usize(40, 215) as u8,
        );
        // Accent: push each channel away from the base to guarantee visual
        // contrast inside the world.
        let push = |v: u8, r: &mut Srng| -> u8 {
            let delta = r.range_usize(50, 90) as i16;
            if v > 127 {
                (i16::from(v) - delta).clamp(0, 255) as u8
            } else {
                (i16::from(v) + delta).clamp(0, 255) as u8
            }
        };
        let accent = Rgb::new(
            push(base.r(), &mut r),
            push(base.g(), &mut r),
            push(base.b(), &mut r),
        );
        let detail = Rgb::new(
            r.range_usize(0, 255) as u8,
            r.range_usize(0, 255) as u8,
            r.range_usize(0, 255) as u8,
        );
        Palette {
            base,
            accent,
            detail,
        }
    }

    /// A family of visually distinct palettes: `location` rotates the seed
    /// so different scene locations within one video get different looks.
    pub fn for_location(video_seed: u64, location: u32) -> Self {
        Self::from_seed(
            video_seed
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(u64::from(location) * 0x1_0000_0001),
        )
    }
}

#[inline]
fn smoothstep(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

/// One octave of value noise: bilinear-smoothstep interpolation of lattice
/// hashes. Output in `[0, 1)`.
fn value_noise(seed: u64, x: f64, y: f64) -> f64 {
    let xf = x.floor();
    let yf = y.floor();
    let (xi, yi) = (xf as i64, yf as i64);
    let tx = smoothstep(x - xf);
    let ty = smoothstep(y - yf);
    let v00 = hash2_unit(seed, xi, yi);
    let v10 = hash2_unit(seed, xi + 1, yi);
    let v01 = hash2_unit(seed, xi, yi + 1);
    let v11 = hash2_unit(seed, xi + 1, yi + 1);
    let a = v00 + (v10 - v00) * tx;
    let b = v01 + (v11 - v01) * tx;
    a + (b - a) * ty
}

/// Fractional-Brownian-motion stack of value noise octaves, in `[0, 1)`.
fn fbm(seed: u64, mut x: f64, mut y: f64, octaves: u8) -> f64 {
    let mut sum = 0.0;
    let mut amp = 1.0;
    let mut total = 0.0;
    for o in 0..octaves {
        sum += amp * value_noise(seed.wrapping_add(u64::from(o) * 0x77), x, y);
        total += amp;
        amp *= 0.5;
        x *= 2.0;
        y *= 2.0;
    }
    sum / total
}

/// An infinite procedural background texture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct World {
    /// Lattice seed (determines the noise field).
    pub seed: u64,
    /// Colors.
    pub palette: Palette,
    /// Feature size in pixels: larger is smoother. Default 48.
    pub scale: f64,
    /// Noise octaves (1 = very smooth blobs; 3 = mild detail). Default 2.
    pub octaves: u8,
    /// Strength of the vertical shading gradient in `\[0, 1\]`. Default 0.25.
    pub vertical_shading: f64,
}

impl World {
    /// World with default smoothness for a seed and location.
    pub fn new(video_seed: u64, location: u32) -> Self {
        World {
            seed: video_seed
                .wrapping_mul(0xd134_2543_de82_ef95)
                .wrapping_add(u64::from(location)),
            palette: Palette::for_location(video_seed, location),
            scale: 40.0,
            octaves: 3,
            vertical_shading: 0.25,
        }
    }

    /// Color of the world at real-valued coordinates.
    pub fn color_at(&self, x: f64, y: f64) -> Rgb {
        let n = fbm(self.seed, x / self.scale, y / self.scale, self.octaves);
        let d = fbm(
            self.seed ^ 0xabcd_ef01,
            x / (self.scale * 2.3),
            y / (self.scale * 2.3),
            self.octaves,
        );
        let mut c = self.palette.base.lerp(self.palette.accent, n);
        c = c.lerp(self.palette.detail, d * 0.45);
        // Mid-frequency per-channel drift (period ~ 140 px): different
        // regions of one world have genuinely different mean colors, the way
        // different walls of a room do. This is what makes a cut between two
        // camera positions in the same location visible to a mean-color
        // (sign) test while staying within RELATIONSHIP's 10 % band.
        {
            let drift_scale = 140.0;
            let mut ch = c.0;
            for (k, chv) in ch.iter_mut().enumerate() {
                let dr = fbm(
                    self.seed ^ (0x1111_2222 + k as u64),
                    x / drift_scale,
                    y / drift_scale,
                    1,
                );
                let delta = (dr * 2.0 - 1.0) * 14.0;
                *chv = (f64::from(*chv) + delta).clamp(0.0, 255.0) as u8;
            }
            c = Rgb(ch);
        }
        if self.vertical_shading > 0.0 {
            // Darken toward larger y ("floor"), on a 600 px vertical period.
            let shade = ((y / 600.0).rem_euclid(1.0) - 0.5).abs() * 2.0; // 1 at wrap, 0 mid
            let k = 1.0 - self.vertical_shading * (1.0 - shade) * 0.5;
            c = Rgb::new(
                (f64::from(c.r()) * k) as u8,
                (f64::from(c.g()) * k) as u8,
                (f64::from(c.b()) * k) as u8,
            );
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean color of the `w`×`h` rectangle at the world's origin.
    fn mean_color(world: &World, w: u32, h: u32) -> Rgb {
        let mut acc = vdb_core::pixel::RgbAccumulator::new();
        for y in 0..h {
            for x in 0..w {
                acc.push(world.color_at(f64::from(x), f64::from(y)));
            }
        }
        acc.mean()
    }

    #[test]
    fn world_is_deterministic() {
        let w = World::new(77, 3);
        assert_eq!(w.color_at(123.0, 45.0), w.color_at(123.0, 45.0));
        let w2 = World::new(77, 3);
        assert_eq!(w.color_at(-9.5, 2.25), w2.color_at(-9.5, 2.25));
    }

    #[test]
    fn world_is_smooth_at_pixel_scale() {
        // Adjacent pixels must differ by only a few gray levels; this is
        // what makes synthetic backgrounds trackable like real ones.
        let w = World::new(5, 0);
        let mut max_step = 0u8;
        for y in 0..80i64 {
            for x in 0..200i64 {
                let a = w.color_at(x as f64, y as f64);
                let b = w.color_at((x + 1) as f64, y as f64);
                max_step = max_step.max(a.max_channel_diff(b));
            }
        }
        assert!(max_step <= 12, "max adjacent step {max_step}");
    }

    #[test]
    fn world_has_contrast() {
        // Not a constant field: somewhere in a 300x300 window the color must
        // vary substantially.
        let w = World::new(5, 0);
        let mut lo = [255u8; 3];
        let mut hi = [0u8; 3];
        for y in (0..300i64).step_by(7) {
            for x in (0..300i64).step_by(7) {
                let c = w.color_at(x as f64, y as f64);
                for ch in 0..3 {
                    lo[ch] = lo[ch].min(c.0[ch]);
                    hi[ch] = hi[ch].max(c.0[ch]);
                }
            }
        }
        let spread: u8 = (0..3).map(|ch| hi[ch] - lo[ch]).max().unwrap();
        assert!(spread >= 30, "spread {spread}");
    }

    #[test]
    fn different_locations_look_different() {
        // Mean colors of different locations must be distinguishable often
        // enough for the SBD stage-1 test to see real cuts. Check pairwise
        // means over a sample of locations.
        let mut distinct = 0;
        let mut total = 0;
        for a in 0..6u32 {
            for b in (a + 1)..6u32 {
                let wa = World::new(99, a);
                let wb = World::new(99, b);
                let ma = mean_color(&wa, 64, 48);
                let mb = mean_color(&wb, 64, 48);
                total += 1;
                if ma.max_channel_diff(mb) > 20 {
                    distinct += 1;
                }
            }
        }
        assert!(
            distinct * 10 >= total * 7,
            "only {distinct}/{total} location pairs distinct"
        );
    }

    #[test]
    fn palette_base_accent_contrast() {
        for seed in 0..32u64 {
            let p = Palette::from_seed(seed);
            assert!(
                p.base.max_channel_diff(p.accent) >= 50,
                "seed {seed}: base {:?} accent {:?}",
                p.base,
                p.accent
            );
        }
    }

    #[test]
    fn scale_controls_smoothness() {
        let fine = World {
            scale: 8.0,
            ..World::new(1, 0)
        };
        let coarse = World {
            scale: 96.0,
            ..World::new(1, 0)
        };
        let step = |w: &World| -> u32 {
            (0..400i64)
                .map(|x| {
                    let a = w.color_at(x as f64, 10.0);
                    let b = w.color_at((x + 1) as f64, 10.0);
                    u32::from(a.max_channel_diff(b))
                })
                .sum()
        };
        assert!(step(&fine) > step(&coarse) * 2);
    }
}
