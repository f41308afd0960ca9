//! The Table 5 corpus: 22 synthetic clips mirroring the paper's test set.
//!
//! The paper's clips (six categories, 278:44 total, 3,629 shot changes)
//! cannot be redistributed; each [`ClipSpec`] here records the published
//! name, category, duration, and shot-change count, and deterministically
//! expands — at a chosen [`Scale`] — into a genre-styled synthetic clip
//! whose cutting rate matches the original's.

use crate::genre::{build_script, Genre};
use crate::script::VideoScript;

/// One row of Table 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClipSpec {
    /// The clip's name as published.
    pub name: &'static str,
    /// Table 5 category ("TV Programs", "News", ...).
    pub category: &'static str,
    /// Duration in seconds (from Table 5's min:sec column).
    pub duration_secs: u32,
    /// Number of true shot changes (Table 5's "Shot Changes" column).
    pub shot_changes: u32,
    /// The genre profile used to synthesize it.
    pub genre: Genre,
    /// Recall the paper reported for this clip (for EXPERIMENTS.md
    /// comparison; not used in generation).
    pub paper_recall: f64,
    /// Precision the paper reported for this clip.
    pub paper_precision: f64,
}

impl ClipSpec {
    /// Mean shot length in frames at the paper's 3 fps analysis rate.
    pub fn mean_shot_frames(&self) -> f64 {
        (self.duration_secs as f64 * 3.0) / (self.shot_changes as f64 + 1.0)
    }

    /// Expand into a synthetic script at the given scale.
    ///
    /// The number of shots is `shot_changes × scale + 1`; shot lengths are
    /// drawn around the clip's true mean shot length, so the cutting *rate*
    /// matches the published clip at any scale.
    pub fn script(&self, scale: Scale, dims: (u32, u32), seed: u64) -> VideoScript {
        let n_changes = ((self.shot_changes as f64) * scale.factor())
            .round()
            .max(1.0) as usize;
        build_script(
            self.genre,
            n_changes + 1,
            Some(self.mean_shot_frames().max(3.0)),
            dims,
            seed ^ fxhash(self.name),
        )
    }
}

/// Deterministic name hash so each clip gets an independent seed stream.
fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// How much of each clip to synthesize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    /// Full Table 5 scale: every clip gets its published shot-change count
    /// (~3,629 boundaries over ~50k frames). Use from release binaries.
    Full,
    /// A fixed fraction of each clip's shot changes (e.g. 0.1).
    Fraction(f64),
    /// Tiny smoke scale for unit/integration tests (~5% with a floor).
    Smoke,
}

impl Scale {
    fn factor(self) -> f64 {
        match self {
            Scale::Full => 1.0,
            Scale::Fraction(f) => f.max(0.001),
            Scale::Smoke => 0.05,
        }
    }
}

/// Table 5, verbatim: name, category, duration, shot changes, and the
/// published recall/precision.
pub fn table5_clips() -> Vec<ClipSpec> {
    fn secs(min: u32, sec: u32) -> u32 {
        min * 60 + sec
    }
    vec![
        ClipSpec {
            name: "Silk Stalkings (Drama)",
            category: "TV Programs",
            duration_secs: secs(10, 24),
            shot_changes: 95,
            genre: Genre::Drama,
            paper_recall: 0.97,
            paper_precision: 0.87,
        },
        ClipSpec {
            name: "Scooby Doo Show (Cartoon)",
            category: "TV Programs",
            duration_secs: secs(11, 38),
            shot_changes: 106,
            genre: Genre::Cartoon,
            paper_recall: 0.87,
            paper_precision: 0.75,
        },
        ClipSpec {
            name: "Friends (Sitcom)",
            category: "TV Programs",
            duration_secs: secs(10, 22),
            shot_changes: 116,
            genre: Genre::Sitcom,
            paper_recall: 0.88,
            paper_precision: 0.75,
        },
        ClipSpec {
            name: "Chicago Hope (Drama)",
            category: "TV Programs",
            duration_secs: secs(9, 47),
            shot_changes: 156,
            genre: Genre::Drama,
            paper_recall: 0.96,
            paper_precision: 0.84,
        },
        ClipSpec {
            name: "Star Trek (Deep Space Nine)",
            category: "TV Programs",
            duration_secs: secs(12, 27),
            shot_changes: 111,
            genre: Genre::Drama,
            paper_recall: 0.78,
            paper_precision: 0.81,
        },
        ClipSpec {
            name: "All My Children (Soap Opera)",
            category: "TV Programs",
            duration_secs: secs(5, 44),
            shot_changes: 50,
            genre: Genre::SoapOpera,
            paper_recall: 0.89,
            paper_precision: 0.81,
        },
        ClipSpec {
            name: "Flintstone (Cartoon)",
            category: "TV Programs",
            duration_secs: secs(6, 9),
            shot_changes: 48,
            genre: Genre::Cartoon,
            paper_recall: 0.89,
            paper_precision: 0.84,
        },
        ClipSpec {
            name: "Jerry Springer (Talk Show)",
            category: "TV Programs",
            duration_secs: secs(4, 58),
            shot_changes: 107,
            genre: Genre::TalkShow,
            paper_recall: 0.77,
            paper_precision: 0.82,
        },
        ClipSpec {
            name: "TV Commercials",
            category: "TV Programs",
            duration_secs: secs(31, 25),
            shot_changes: 967,
            genre: Genre::Commercials,
            paper_recall: 0.95,
            paper_precision: 0.93,
        },
        ClipSpec {
            name: "National (NBC)",
            category: "News",
            duration_secs: secs(14, 45),
            shot_changes: 202,
            genre: Genre::News,
            paper_recall: 0.95,
            paper_precision: 0.93,
        },
        ClipSpec {
            name: "Local (ABC)",
            category: "News",
            duration_secs: secs(30, 27),
            shot_changes: 176,
            genre: Genre::News,
            paper_recall: 0.94,
            paper_precision: 0.91,
        },
        ClipSpec {
            name: "Brave Heart",
            category: "Movies",
            duration_secs: secs(10, 3),
            shot_changes: 246,
            genre: Genre::Movie,
            paper_recall: 0.90,
            paper_precision: 0.81,
        },
        ClipSpec {
            name: "ATF",
            category: "Movies",
            duration_secs: secs(11, 52),
            shot_changes: 224,
            genre: Genre::Movie,
            paper_recall: 0.94,
            paper_precision: 0.90,
        },
        ClipSpec {
            name: "Simon Birch",
            category: "Movies",
            duration_secs: secs(11, 8),
            shot_changes: 164,
            genre: Genre::Movie,
            paper_recall: 0.95,
            paper_precision: 0.83,
        },
        ClipSpec {
            name: "Wag the Dog",
            category: "Movies",
            duration_secs: secs(11, 1),
            shot_changes: 103,
            genre: Genre::Movie,
            paper_recall: 0.98,
            paper_precision: 0.81,
        },
        ClipSpec {
            name: "Tennis (1999 U.S. Open)",
            category: "Sports Events",
            duration_secs: secs(14, 20),
            shot_changes: 114,
            genre: Genre::Sports,
            paper_recall: 0.91,
            paper_precision: 0.90,
        },
        ClipSpec {
            name: "Mountain Bike Race",
            category: "Sports Events",
            duration_secs: secs(15, 12),
            shot_changes: 143,
            genre: Genre::Sports,
            paper_recall: 0.96,
            paper_precision: 0.95,
        },
        ClipSpec {
            name: "Football",
            category: "Sports Events",
            duration_secs: secs(21, 26),
            shot_changes: 163,
            genre: Genre::Sports,
            paper_recall: 0.94,
            paper_precision: 0.88,
        },
        ClipSpec {
            name: "Today's Vietnam",
            category: "Documentaries",
            duration_secs: secs(10, 29),
            shot_changes: 93,
            genre: Genre::Documentary,
            paper_recall: 0.89,
            paper_precision: 0.84,
        },
        ClipSpec {
            name: "For All Mankind",
            category: "Documentaries",
            duration_secs: secs(16, 50),
            shot_changes: 127,
            genre: Genre::Documentary,
            paper_recall: 0.90,
            paper_precision: 0.81,
        },
        ClipSpec {
            name: "Kobe Bryant",
            category: "Music Videos",
            duration_secs: secs(3, 53),
            shot_changes: 53,
            genre: Genre::MusicVideo,
            paper_recall: 0.86,
            paper_precision: 0.78,
        },
        ClipSpec {
            name: "Alabama Song",
            category: "Music Videos",
            duration_secs: secs(4, 24),
            shot_changes: 65,
            genre: Genre::MusicVideo,
            paper_recall: 0.89,
            paper_precision: 0.84,
        },
    ]
}

/// Paper's overall recall (Table 5's totals row).
pub const PAPER_TOTAL_RECALL: f64 = 0.90;
/// Paper's overall precision.
pub const PAPER_TOTAL_PRECISION: f64 = 0.85;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::generate;

    #[test]
    fn twenty_two_clips_in_six_categories() {
        let clips = table5_clips();
        assert_eq!(clips.len(), 22);
        let cats: std::collections::HashSet<&str> = clips.iter().map(|c| c.category).collect();
        assert_eq!(cats.len(), 6);
    }

    /// Table 5's totals row: 278:44 and 3,629 shot changes.
    const PAPER_TOTAL_SECS: u32 = 278 * 60 + 44;
    const PAPER_TOTAL_CHANGES: u32 = 3629;

    #[test]
    fn totals_match_paper() {
        let clips = table5_clips();
        let total_secs: u32 = clips.iter().map(|c| c.duration_secs).sum();
        let total_changes: u32 = clips.iter().map(|c| c.shot_changes).sum();
        assert_eq!(total_secs, PAPER_TOTAL_SECS, "Table 5 total duration");
        assert_eq!(total_changes, PAPER_TOTAL_CHANGES, "Table 5 total changes");
    }

    #[test]
    fn mean_shot_length_sane() {
        for c in table5_clips() {
            let m = c.mean_shot_frames();
            assert!((2.0..=70.0).contains(&m), "{}: mean {m} frames", c.name);
        }
        // Commercials cut fastest of the TV programs.
        let clips = table5_clips();
        let commercials = clips.iter().find(|c| c.name == "TV Commercials").unwrap();
        let sports = clips.iter().find(|c| c.name == "Football").unwrap();
        assert!(commercials.mean_shot_frames() < sports.mean_shot_frames());
    }

    #[test]
    fn smoke_scale_generates() {
        let clips = table5_clips();
        let c = &clips[5]; // All My Children: 50 changes -> ~3 at smoke scale
        let script = c.script(Scale::Smoke, (80, 60), 42);
        assert!(script.shots.len() >= 2);
        let g = generate(&script);
        assert_eq!(g.truth.boundaries.len(), script.shots.len() - 1);
    }

    #[test]
    fn scripts_are_deterministic_per_clip_and_seed() {
        let clips = table5_clips();
        let a = clips[0].script(Scale::Smoke, (80, 60), 1);
        let b = clips[0].script(Scale::Smoke, (80, 60), 1);
        assert_eq!(a, b);
        // Different clips with the same seed diverge (name-hash mixing).
        let c = clips[1].script(Scale::Smoke, (80, 60), 1);
        assert_ne!(a, c);
    }

    #[test]
    fn full_scale_counts() {
        let clips = table5_clips();
        let c = clips.iter().find(|c| c.name == "TV Commercials").unwrap();
        let script = c.script(Scale::Full, (80, 60), 7);
        assert_eq!(script.shots.len(), 968);
    }

    #[test]
    fn fraction_scale_rounds() {
        let clips = table5_clips();
        let c = &clips[0]; // 95 changes
        let script = c.script(Scale::Fraction(0.2), (80, 60), 7);
        assert_eq!(script.shots.len(), 20); // round(95*0.2)=19 changes + 1
    }
}
