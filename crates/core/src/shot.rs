//! Shots and representative-frame selection (§2, §3.1, Table 2).
//!
//! A *shot* is "a collection of frames recorded from a single camera
//! operation". Each shot's representative frame is the "most repetitive"
//! frame: the frame starting the longest run of identical `Sign^BA` values,
//! with ties broken by the temporally earliest occurrence (Table 2's worked
//! example: two runs of length 6, frames 1–6 and 15–20 — frame 1 wins).

use crate::pixel::Rgb;

/// A detected shot: a half-open range of frame indices is deliberately *not*
/// used — the paper numbers shots by inclusive start/end frames (Table 3),
/// so we do too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shot {
    /// Zero-based shot id (`shot#1` of the paper is id 0).
    pub id: usize,
    /// First frame index (inclusive).
    pub start: usize,
    /// Last frame index (inclusive).
    pub end: usize,
}

impl Shot {
    /// Number of frames in the shot (`|A|` in §3.1).
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start + 1
    }

    /// Shots always contain at least one frame.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate over the frame indices of this shot.
    pub fn frames(&self) -> impl Iterator<Item = usize> {
        self.start..=self.end
    }

    /// Whether a frame index belongs to this shot.
    #[inline]
    pub fn contains(&self, frame: usize) -> bool {
        (self.start..=self.end).contains(&frame)
    }
}

/// The longest run of identical consecutive values in `signs`, returned as
/// `(start_offset, run_length)`. Ties are broken toward the earliest run.
/// Returns `(0, 0)` for an empty slice.
pub fn longest_sign_run(signs: &[Rgb]) -> (usize, usize) {
    if signs.is_empty() {
        return (0, 0);
    }
    let mut best_start = 0usize;
    let mut best_len = 1usize;
    let mut cur_start = 0usize;
    let mut cur_len = 1usize;
    for i in 1..signs.len() {
        if signs[i] == signs[i - 1] {
            cur_len += 1;
        } else {
            cur_start = i;
            cur_len = 1;
        }
        if cur_len > best_len {
            best_len = cur_len;
            best_start = cur_start;
        }
    }
    (best_start, best_len)
}

/// Representative frame for a shot, given the shot's per-frame `Sign^BA`
/// values: the first frame of the longest run (earliest on ties), as an
/// offset *within the shot*.
pub fn representative_frame_offset(signs: &[Rgb]) -> usize {
    longest_sign_run(signs).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference: all maximal runs of identical consecutive signs, as
    /// `(start_offset, run_length)` in temporal order.
    fn sign_runs(signs: &[Rgb]) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        let mut i = 0usize;
        while i < signs.len() {
            let mut j = i + 1;
            while j < signs.len() && signs[j] == signs[i] {
                j += 1;
            }
            runs.push((i, j - i));
            i = j;
        }
        runs
    }

    /// The exact Table 2 worked example: 20 frames, runs of 6 / 2 / 4 / 2 / 6;
    /// frame 1 (offset 0) must be chosen over the equally long run at
    /// frames 15–20 (offset 14).
    #[test]
    fn table2_representative_frame() {
        let mut signs = Vec::new();
        signs.extend(std::iter::repeat(Rgb::new(219, 152, 142)).take(6)); // frames 1-6
        signs.extend(std::iter::repeat(Rgb::new(226, 164, 172)).take(2)); // 7-8
        signs.extend(std::iter::repeat(Rgb::new(213, 149, 134)).take(4)); // 9-12
        signs.extend(std::iter::repeat(Rgb::new(200, 137, 123)).take(2)); // 13-14
        signs.extend(std::iter::repeat(Rgb::new(228, 160, 149)).take(6)); // 15-20
        assert_eq!(signs.len(), 20);
        let (start, len) = longest_sign_run(&signs);
        assert_eq!(len, 6);
        assert_eq!(start, 0, "ties must break toward the earliest frame");
        assert_eq!(representative_frame_offset(&signs), 0);
    }

    #[test]
    fn shot_len_inclusive() {
        // Table 3's shot #1: frames 1..=75 -> 75 frames.
        let s = Shot {
            id: 0,
            start: 0,
            end: 74,
        };
        assert_eq!(s.len(), 75);
        assert!(s.contains(0));
        assert!(s.contains(74));
        assert!(!s.contains(75));
        assert_eq!(s.frames().count(), 75);
    }

    #[test]
    fn longest_run_simple_cases() {
        assert_eq!(longest_sign_run(&[]), (0, 0));
        assert_eq!(longest_sign_run(&[Rgb::gray(1)]), (0, 1));
        let signs = [
            Rgb::gray(1),
            Rgb::gray(2),
            Rgb::gray(2),
            Rgb::gray(2),
            Rgb::gray(3),
        ];
        assert_eq!(longest_sign_run(&signs), (1, 3));
    }

    #[test]
    fn later_longer_run_wins() {
        let signs = [
            Rgb::gray(1),
            Rgb::gray(1),
            Rgb::gray(9),
            Rgb::gray(4),
            Rgb::gray(4),
            Rgb::gray(4),
        ];
        assert_eq!(longest_sign_run(&signs), (3, 3));
    }

    #[test]
    fn sign_runs_partition_the_slice() {
        let signs = [
            Rgb::gray(1),
            Rgb::gray(1),
            Rgb::gray(2),
            Rgb::gray(3),
            Rgb::gray(3),
        ];
        assert_eq!(sign_runs(&signs), vec![(0, 2), (2, 1), (3, 2)]);
    }

    proptest! {
        #[test]
        fn prop_longest_run_is_maximal(values in prop::collection::vec(0u8..4, 1..64)) {
            let signs: Vec<Rgb> = values.iter().map(|&v| Rgb::gray(v)).collect();
            let (start, len) = longest_sign_run(&signs);
            // The claimed run is really a run...
            prop_assert!(signs[start..start + len].windows(2).all(|w| w[0] == w[1]));
            // ...and no run from sign_runs is longer, nor equal-and-earlier.
            for (s, l) in sign_runs(&signs) {
                prop_assert!(l < len || (l == len && s >= start));
            }
        }

        #[test]
        fn prop_runs_cover_everything(values in prop::collection::vec(0u8..3, 0..64)) {
            let signs: Vec<Rgb> = values.iter().map(|&v| Rgb::gray(v)).collect();
            let runs = sign_runs(&signs);
            let total: usize = runs.iter().map(|&(_, l)| l).sum();
            prop_assert_eq!(total, signs.len());
            // Runs are contiguous and ordered.
            let mut expected_start = 0;
            for (s, l) in runs {
                prop_assert_eq!(s, expected_start);
                expected_start += l;
            }
        }
    }
}
