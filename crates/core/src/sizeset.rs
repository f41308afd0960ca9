//! The Gaussian-pyramid *size set* (Eq. 1 of the paper) and the
//! nearest-value approximation of Table 1.
//!
//! The modified Gaussian pyramid reduces 5 pixels to 1, 13 to 5, 29 to 13,
//! and so on, which means every reducible length must belong to the set
//!
//! ```text
//! s_j = 1 + sum_{i=2..j} 2^i  =  {1, 5, 13, 29, 61, 125, 253, ...}
//! ```
//!
//! (equivalently `s_{j+1} = 2·s_j + 3`). The raw background/object-area
//! dimensions `h', b', w', L'` computed from the frame dimensions are snapped
//! to the nearest member with `j = 2 + ⌊log2((x + 3) / 6)⌋` before the
//! pyramid is applied (§2.2, Table 1).

/// The `j`-th element of the size set (1-indexed, as in Eq. 1).
///
/// `size_set(1) = 1`, `size_set(2) = 5`, `size_set(3) = 13`, ...
///
/// # Panics
/// Panics if `j == 0` (the paper indexes from 1) or if the value would
/// overflow `usize` (far beyond any realistic frame dimension).
pub fn size_set(j: u32) -> usize {
    assert!(j >= 1, "size set is 1-indexed (Eq. 1: j = 1, 2, 3, ...)");
    // s_j = 1 + (2^2 + 2^3 + ... + 2^j) = 2^(j+1) - 3 for j >= 2; s_1 = 1.
    if j == 1 {
        1
    } else {
        (1usize << (j + 1)) - 3
    }
}

/// Whether `len` is a member of the size set.
pub fn in_size_set(len: usize) -> bool {
    let mut s = 1usize;
    loop {
        if s == len {
            return true;
        }
        if s > len {
            return false;
        }
        s = 2 * s + 3;
    }
}

/// Snap a raw dimension to the nearest size-set member using the paper's
/// closed form `j = 2 + ⌊log2((x + 3) / 6)⌋`, then Eq. 1.
///
/// Reproduces Table 1 exactly:
///
/// ```
/// use vdb_core::sizeset::snap;
/// assert_eq!(snap(1), 1);
/// assert_eq!(snap(2), 1);
/// assert_eq!(snap(3), 5);
/// assert_eq!(snap(8), 5);
/// assert_eq!(snap(9), 13);
/// assert_eq!(snap(16), 13); // the paper's worked example: w' = 160/10 = 16
/// assert_eq!(snap(20), 13);
/// assert_eq!(snap(21), 29);
/// assert_eq!(snap(44), 29);
/// assert_eq!(snap(45), 61);
/// assert_eq!(snap(92), 61);
/// ```
///
/// # Panics
/// Panics if `raw == 0`; a zero dimension means the frame was too small and
/// should have been rejected earlier (see `geometry`).
pub fn snap(raw: usize) -> usize {
    assert!(raw > 0, "cannot snap a zero dimension to the size set");
    let ratio = (raw + 3) as f64 / 6.0;
    if ratio < 1.0 {
        // log2 would be negative; these are the raw values 1 and 2 -> j = 1.
        return size_set(1);
    }
    let j = 2 + ratio.log2().floor() as u32;
    size_set(j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn size_set_matches_eq1() {
        // Eq. 1 evaluated directly: s_j = 1 + sum_{i=2}^{j} 2^i.
        for j in 1..=10u32 {
            let direct: usize = 1 + (2..=j).map(|i| 1usize << i).sum::<usize>();
            assert_eq!(size_set(j), direct, "j = {j}");
        }
        assert_eq!(
            (1..=7).map(size_set).collect::<Vec<_>>(),
            vec![1, 5, 13, 29, 61, 125, 253]
        );
    }

    #[test]
    fn recurrence_holds() {
        for j in 1..=12u32 {
            assert_eq!(size_set(j + 1), 2 * size_set(j) + 3);
        }
    }

    #[test]
    fn membership() {
        for j in 1..=10u32 {
            assert!(in_size_set(size_set(j)));
        }
        for bad in [0usize, 2, 3, 4, 6, 12, 14, 28, 30, 60, 62, 124, 126] {
            assert!(!in_size_set(bad), "{bad} wrongly in size set");
        }
    }

    /// Golden test: the full Table 1 of the paper.
    #[test]
    fn table1_nearest_value_approximation() {
        let table: &[(std::ops::RangeInclusive<usize>, usize)] = &[
            (1..=2, 1),
            (3..=8, 5),
            (9..=20, 13),
            (21..=44, 29),
            (45..=92, 61),
        ];
        for (range, expected) in table {
            for raw in range.clone() {
                assert_eq!(snap(raw), *expected, "raw = {raw}");
            }
        }
        // The row the paper elides ("..."): 93..=188 -> 125.
        assert_eq!(snap(93), 125);
        assert_eq!(snap(188), 125);
        assert_eq!(snap(189), 253);
    }

    #[test]
    fn paper_worked_example_c160() {
        // §2.2: c = 160 -> w' = 16 -> j = 3 -> w = 13.
        let w_prime = 160 / 10;
        assert_eq!(snap(w_prime), 13);
    }

    proptest! {
        #[test]
        fn prop_snap_lands_in_size_set(raw in 1usize..100_000) {
            prop_assert!(in_size_set(snap(raw)));
        }

        #[test]
        fn prop_snap_idempotent_on_members(j in 1u32..=14) {
            let s = size_set(j);
            prop_assert_eq!(snap(s), s);
        }

        #[test]
        fn prop_snap_monotonic(a in 1usize..50_000, b in 1usize..50_000) {
            if a <= b {
                prop_assert!(snap(a) <= snap(b));
            }
        }

        #[test]
        fn prop_snap_follows_paper_formula(raw in 1usize..100_000) {
            // The closed form and the "nearest member" description agree on
            // the boundaries Table 1 lists; verify snap() always returns the
            // member chosen by the paper's j formula.
            let ratio = (raw + 3) as f64 / 6.0;
            let j = if ratio < 1.0 { 1 } else { 2 + ratio.log2().floor() as u32 };
            prop_assert_eq!(snap(raw), size_set(j));
        }
    }
}
