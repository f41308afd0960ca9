//! The per-shot variance feature vector (§4.1, Eqs. 3–6) and `D^v`.
//!
//! For shot `i` spanning frames `k..=l`:
//!
//! ```text
//! mean_i = ( Σ_{j=k..l} Sign_j ) / (l − k + 1)            (Eqs. 4, 6)
//! Var_i  = ( Σ_{j=k..l} (Sign_j − mean_i)² ) / (l − k)    (Eqs. 3, 5)
//! ```
//!
//! Note the paper's asymmetric denominators: the mean divides by the frame
//! count but the variance divides by `l − k` (the sample-variance `n − 1`).
//! We reproduce this exactly and define the variance of a single-frame shot
//! as 0 (the paper's formula would divide by zero).
//!
//! A sign is an RGB pixel; the variance is computed per channel and the
//! three channel variances averaged to one scalar, which makes `√Var`
//! commensurate with the magnitudes the paper reports (e.g. `Var^BA` =
//! 17.37 for a close-up shot of 'Wag the Dog').
//!
//! `Var^BA` (background) and `Var^OA` (object area) together "capture the
//! spatio-temporal semantics of the video shot": a talking head has tiny
//! `Var^BA` and small `Var^OA`; a running subject with a panning camera has
//! both large.

use crate::pixel::Rgb;

/// Variance of a sequence of signs per the paper's Eqs. 3–4: per-channel
/// population sum of squared deviations from the mean, divided by
/// `len − 1`, averaged over the three channels. Returns 0.0 for sequences
/// of length ≤ 1.
pub fn sign_variance(signs: &[Rgb]) -> f64 {
    let n = signs.len();
    if n <= 1 {
        return 0.0;
    }
    let mut sums = [0.0f64; 3];
    for s in signs {
        let c = s.channels_f64();
        for ch in 0..3 {
            sums[ch] += c[ch];
        }
    }
    let means = [sums[0] / n as f64, sums[1] / n as f64, sums[2] / n as f64];
    let mut sq = [0.0f64; 3];
    for s in signs {
        let c = s.channels_f64();
        for ch in 0..3 {
            let d = c[ch] - means[ch];
            sq[ch] += d * d;
        }
    }
    // Eq. 3: denominator l − k = n − 1.
    let denom = (n - 1) as f64;
    (sq[0] + sq[1] + sq[2]) / (3.0 * denom)
}

/// Per-channel variant of [`sign_variance`]: Eqs. 3–4 evaluated separately
/// on the red, green and blue sign channels. The basis of the *extended*
/// similarity model (§6: "we are currently investigating extensions to our
/// variance-based similarity model to make the comparison more
/// discriminating") — two shots whose per-channel variances differ can
/// still collide after channel averaging.
pub fn sign_variance_per_channel(signs: &[Rgb]) -> [f64; 3] {
    let n = signs.len();
    if n <= 1 {
        return [0.0; 3];
    }
    let means = sign_mean(signs);
    let mut sq = [0.0f64; 3];
    for s in signs {
        let c = s.channels_f64();
        for ch in 0..3 {
            let d = c[ch] - means[ch];
            sq[ch] += d * d;
        }
    }
    let denom = (n - 1) as f64;
    [sq[0] / denom, sq[1] / denom, sq[2] / denom]
}

/// Mean sign (Eqs. 4/6) as floating-point channels.
pub fn sign_mean(signs: &[Rgb]) -> [f64; 3] {
    if signs.is_empty() {
        return [0.0; 3];
    }
    let mut sums = [0.0f64; 3];
    for s in signs {
        let c = s.channels_f64();
        for ch in 0..3 {
            sums[ch] += c[ch];
        }
    }
    let n = signs.len() as f64;
    [sums[0] / n, sums[1] / n, sums[2] / n]
}

/// The two-value feature vector of one shot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShotFeature {
    /// `Var^BA`: variance of the background signs within the shot.
    pub var_ba: f64,
    /// `Var^OA`: variance of the object-area signs within the shot.
    pub var_oa: f64,
}

impl ShotFeature {
    /// Compute from the per-frame sign sequences of one shot.
    pub fn from_signs(signs_ba: &[Rgb], signs_oa: &[Rgb]) -> Self {
        ShotFeature {
            var_ba: sign_variance(signs_ba),
            var_oa: sign_variance(signs_oa),
        }
    }

    /// `√Var^BA`, the quantity thresholded by Eq. 8.
    #[inline]
    pub fn sqrt_ba(&self) -> f64 {
        self.var_ba.sqrt()
    }

    /// `√Var^OA`.
    #[inline]
    pub fn sqrt_oa(&self) -> f64 {
        self.var_oa.sqrt()
    }

    /// `D^v = √Var^BA − √Var^OA` (§4.2), the primary index key.
    #[inline]
    pub fn d_v(&self) -> f64 {
        self.sqrt_ba() - self.sqrt_oa()
    }
}

/// The extended (per-channel) feature vector of one shot: six values
/// instead of two. Collapses back to the paper's [`ShotFeature`] by
/// averaging the channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtendedShotFeature {
    /// Per-channel `Var^BA`.
    pub var_ba: [f64; 3],
    /// Per-channel `Var^OA`.
    pub var_oa: [f64; 3],
}

impl ExtendedShotFeature {
    /// Compute from the per-frame sign sequences of one shot.
    pub fn from_signs(signs_ba: &[Rgb], signs_oa: &[Rgb]) -> Self {
        ExtendedShotFeature {
            var_ba: sign_variance_per_channel(signs_ba),
            var_oa: sign_variance_per_channel(signs_oa),
        }
    }

    /// Per-channel `D^v`.
    pub fn d_v(&self) -> [f64; 3] {
        core::array::from_fn(|ch| self.var_ba[ch].sqrt() - self.var_oa[ch].sqrt())
    }

    /// The paper's two-value model: channel-averaged variances.
    pub fn collapse(&self) -> ShotFeature {
        ShotFeature {
            var_ba: (self.var_ba[0] + self.var_ba[1] + self.var_ba[2]) / 3.0,
            var_oa: (self.var_oa[0] + self.var_oa[1] + self.var_oa[2]) / 3.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constant_signs_have_zero_variance() {
        let signs = vec![Rgb::new(10, 20, 30); 50];
        assert_eq!(sign_variance(&signs), 0.0);
    }

    #[test]
    fn empty_and_singleton_are_zero() {
        assert_eq!(sign_variance(&[]), 0.0);
        assert_eq!(sign_variance(&[Rgb::gray(99)]), 0.0);
    }

    #[test]
    fn hand_computed_two_frame_variance() {
        // Signs gray(10) and gray(20): per channel mean 15, squared devs
        // 25 + 25 = 50, divided by (n-1)=1 -> 50 per channel -> average 50.
        let signs = [Rgb::gray(10), Rgb::gray(20)];
        assert!((sign_variance(&signs) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn channel_averaging() {
        // Only the red channel varies: r = 0, 20 -> var_r = 200; g, b constant.
        let signs = [Rgb::new(0, 7, 9), Rgb::new(20, 7, 9)];
        assert!((sign_variance(&signs) - 200.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn more_change_more_variance() {
        let calm: Vec<Rgb> = (0..20).map(|i| Rgb::gray(100 + (i % 2) as u8)).collect();
        let wild: Vec<Rgb> = (0..20).map(|i| Rgb::gray((i * 13 % 256) as u8)).collect();
        assert!(sign_variance(&wild) > sign_variance(&calm) * 10.0);
    }

    #[test]
    fn mean_matches_eq4() {
        let signs = [Rgb::new(0, 10, 100), Rgb::new(10, 20, 200)];
        let m = sign_mean(&signs);
        assert_eq!(m, [5.0, 15.0, 150.0]);
    }

    #[test]
    fn dv_definition() {
        let f = ShotFeature {
            var_ba: 16.0,
            var_oa: 9.0,
        };
        assert!((f.d_v() - 1.0).abs() < 1e-12); // 4 - 3
        assert_eq!(f.sqrt_ba(), 4.0);
        assert_eq!(f.sqrt_oa(), 3.0);
    }

    #[test]
    fn talking_head_vs_action_signature() {
        // Paper's qualitative claim: a static-background talking head has
        // Var^BA near 0; a moving camera + moving subject has both large.
        let static_bg: Vec<Rgb> = vec![Rgb::new(200, 150, 140); 30];
        let moving_bg: Vec<Rgb> = (0..30).map(|i| Rgb::gray((i * 8) as u8)).collect();
        let still_obj: Vec<Rgb> = (0..30).map(|i| Rgb::gray(90 + (i % 3) as u8)).collect();
        let talking = ShotFeature::from_signs(&static_bg, &still_obj);
        let action = ShotFeature::from_signs(&moving_bg, &moving_bg);
        assert_eq!(talking.var_ba, 0.0);
        assert!(action.var_ba > 100.0);
        assert!(talking.d_v() < action.d_v() + 100.0); // smoke: both finite
    }

    #[test]
    fn per_channel_variance_isolates_channels() {
        // Only red varies.
        let signs = [Rgb::new(0, 7, 9), Rgb::new(20, 7, 9)];
        let v = sign_variance_per_channel(&signs);
        assert_eq!(v, [200.0, 0.0, 0.0]);
    }

    #[test]
    fn extended_collapse_matches_basic() {
        let signs_ba: Vec<Rgb> = (0..20)
            .map(|i| Rgb::new((i * 9) as u8, 10, (i * 3) as u8))
            .collect();
        let signs_oa: Vec<Rgb> = (0..20).map(|i| Rgb::gray((i * 5) as u8)).collect();
        let basic = ShotFeature::from_signs(&signs_ba, &signs_oa);
        let ext = ExtendedShotFeature::from_signs(&signs_ba, &signs_oa);
        let collapsed = ext.collapse();
        assert!((collapsed.var_ba - basic.var_ba).abs() < 1e-9);
        assert!((collapsed.var_oa - basic.var_oa).abs() < 1e-9);
    }

    #[test]
    fn extended_discriminates_where_basic_collides() {
        // Shot A: all change in red; shot B: the same total change spread
        // evenly. Identical channel-averaged variance, very different
        // per-channel vectors — the §6 motivation.
        let a: Vec<Rgb> = (0..16)
            .map(|i| Rgb::new((i * 15) as u8, 100, 100))
            .collect();
        // spread: each channel gets variance var_r/3 -> scale amplitude by sqrt(1/3)...
        // construct numerically instead: use per-channel ramps with 1/sqrt(3) slope.
        let slope = 15.0f64 / 3.0f64.sqrt();
        let b: Vec<Rgb> = (0..16)
            .map(|i| {
                let v = (f64::from(i as u8) * slope) as u8;
                Rgb::new(v, v, v)
            })
            .collect();
        let fa = ExtendedShotFeature::from_signs(&a, &a);
        let fb = ExtendedShotFeature::from_signs(&b, &b);
        // Channel-averaged variances land close...
        let (ca, cb) = (fa.collapse(), fb.collapse());
        assert!(
            (ca.var_ba - cb.var_ba).abs() / ca.var_ba.max(cb.var_ba) < 0.25,
            "basic model nearly collides: {} vs {}",
            ca.var_ba,
            cb.var_ba
        );
        // ...but the per-channel vectors are far apart in red vs green.
        assert!(fa.var_ba[0] > 4.0 * fa.var_ba[1].max(1.0));
        assert!(fb.var_ba[0] < 2.0 * fb.var_ba[1].max(1.0));
    }

    proptest! {
        #[test]
        fn prop_per_channel_mean_is_basic(values in prop::collection::vec(any::<[u8;3]>(), 0..48)) {
            let signs: Vec<Rgb> = values.into_iter().map(Rgb).collect();
            let per = sign_variance_per_channel(&signs);
            let mean = (per[0] + per[1] + per[2]) / 3.0;
            prop_assert!((mean - sign_variance(&signs)).abs() < 1e-9);
        }

        #[test]
        fn prop_variance_nonnegative(values in prop::collection::vec(any::<[u8;3]>(), 0..64)) {
            let signs: Vec<Rgb> = values.into_iter().map(Rgb).collect();
            prop_assert!(sign_variance(&signs) >= 0.0);
        }

        #[test]
        fn prop_variance_zero_iff_constant(values in prop::collection::vec(any::<[u8;3]>(), 2..64)) {
            let signs: Vec<Rgb> = values.into_iter().map(Rgb).collect();
            let v = sign_variance(&signs);
            let constant = signs.windows(2).all(|w| w[0] == w[1]);
            if constant {
                prop_assert_eq!(v, 0.0);
            } else {
                prop_assert!(v > 0.0);
            }
        }

        #[test]
        fn prop_variance_translation_invariant(
            values in prop::collection::vec(0u8..200, 2..32),
            offset in 0u8..50,
        ) {
            let a: Vec<Rgb> = values.iter().map(|&v| Rgb::gray(v)).collect();
            let b: Vec<Rgb> = values.iter().map(|&v| Rgb::gray(v + offset)).collect();
            prop_assert!((sign_variance(&a) - sign_variance(&b)).abs() < 1e-9);
        }

        #[test]
        fn prop_mean_in_hull(values in prop::collection::vec(any::<[u8;3]>(), 1..64)) {
            let signs: Vec<Rgb> = values.iter().map(|&v| Rgb(v)).collect();
            let m = sign_mean(&signs);
            for ch in 0..3 {
                let lo = values.iter().map(|v| v[ch]).min().unwrap() as f64;
                let hi = values.iter().map(|v| v[ch]).max().unwrap() as f64;
                prop_assert!(m[ch] >= lo - 1e-9 && m[ch] <= hi + 1e-9);
            }
        }
    }
}
