//! The video catalog and the genre/form taxonomy (§4.1).
//!
//! The paper argues its two-value feature vector suffices because retrieval
//! happens *within* a genre/form class: the Library of Congress moving-image
//! guide \[26\] lists **133 genres** and **35 forms**, so there are at least
//! 133 × 35 = 4,655 classes. The catalog reproduces that taxonomy (the
//! genre/form names the paper quotes verbatim, the remainder from the
//! published MIGFG vocabulary) and supports classifying each video under
//! several genres and forms, exactly like the paper's examples ('Brave
//! Heart' = adventure + biographical feature; 'Dr. Zhivago' = adaptation +
//! historical + romance feature).

use crate::query::{parse_bits, parse_field};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};

/// Number of genres in the taxonomy \[26\].
pub const GENRE_COUNT: usize = 133;
/// Number of forms in the taxonomy \[26\].
pub const FORM_COUNT: usize = 35;

/// Named genres from the MIGFG vocabulary; the paper quotes the starred
/// ones. Padding entries keep the count exactly at 133 where the published
/// list is not reproduced in the paper.
const GENRE_NAMES: &[&str] = &[
    "adaptation",
    "adventure",
    "biographical",
    "comedy",
    "historical",
    "medical",
    "musical",
    "romance",
    "western",
    "ability",
    "adoption",
    "allegory",
    "ancient world",
    "anthology",
    "art",
    "aviation",
    "buddy",
    "caper",
    "chase",
    "children's",
    "christmas",
    "college",
    "crime",
    "dance",
    "detective",
    "disability",
    "disaster",
    "docudrama",
    "domestic",
    "erotic",
    "espionage",
    "ethnic",
    "experimental",
    "exploitation",
    "fallen woman",
    "family",
    "fantasy",
    "film noir",
    "gangster",
    "ghost",
    "horror",
    "humor",
    "journalism",
    "jungle",
    "juvenile delinquency",
    "labor",
    "legal",
    "martial arts",
    "maternal",
    "melodrama",
    "military",
    "mystery",
    "nature",
    "newspaper",
    "opera",
    "operetta",
    "parody",
    "police",
    "political",
    "prehistoric",
    "prison",
    "psychological",
    "religious",
    "road",
    "romantic comedy",
    "science fiction",
    "screwball comedy",
    "show business",
    "singing cowboy",
    "slapstick",
    "slasher",
    "social problem",
    "sophisticated comedy",
    "speculation",
    "sports",
    "spy",
    "survival",
    "swashbuckler",
    "thriller",
    "trick",
    "urban",
    "war",
    "women",
    "youth",
    "yukon",
];

/// Named forms from the MIGFG vocabulary; the paper quotes the starred ones.
const FORM_NAMES: &[&str] = &[
    "animation",
    "feature",
    "television mini-series",
    "television series",
    "short",
    "serial",
    "television special",
    "television pilot",
    "television movie",
    "trailer",
    "newsreel",
    "documentary",
    "educational",
    "industrial",
    "advertising",
    "amateur",
    "anthology",
    "compilation",
    "excerpt",
    "home movie",
    "instructional",
    "music video",
    "outtake",
    "propaganda",
    "public service announcement",
    "screen test",
    "sponsored",
    "stock footage",
    "television commercial",
    "training",
    "travelogue",
    "unedited footage",
];

/// Identifier of a genre (0..133).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GenreId(pub u16);

/// Identifier of a form (0..35).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FormId(pub u16);

/// The fixed genre/form taxonomy.
#[derive(Debug, Clone)]
pub struct Taxonomy {
    genre_lookup: HashMap<String, GenreId>,
    form_lookup: HashMap<String, FormId>,
}

impl Default for Taxonomy {
    fn default() -> Self {
        Self::new()
    }
}

impl Taxonomy {
    /// Build the 133 × 35 taxonomy.
    pub fn new() -> Self {
        let mut genres: Vec<String> = GENRE_NAMES.iter().map(|s| s.to_string()).collect();
        let mut n = genres.len();
        while n < GENRE_COUNT {
            genres.push(format!("genre-{n:03}"));
            n += 1;
        }
        let mut forms: Vec<String> = FORM_NAMES.iter().map(|s| s.to_string()).collect();
        let mut n = forms.len();
        while n < FORM_COUNT {
            forms.push(format!("form-{n:02}"));
            n += 1;
        }
        let genre_lookup = genres
            .into_iter()
            .enumerate()
            .map(|(i, g)| (g, GenreId(i as u16)))
            .collect();
        let form_lookup = forms
            .into_iter()
            .enumerate()
            .map(|(i, f)| (f, FormId(i as u16)))
            .collect();
        Taxonomy {
            genre_lookup,
            form_lookup,
        }
    }

    /// Look up a genre by name.
    pub fn genre(&self, name: &str) -> Option<GenreId> {
        self.genre_lookup.get(name).copied()
    }

    /// Look up a form by name.
    pub fn form(&self, name: &str) -> Option<FormId> {
        self.form_lookup.get(name).copied()
    }
}

/// Catalog metadata of one video.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoMeta {
    /// Catalog-assigned id.
    pub id: u64,
    /// Display name.
    pub name: String,
    /// Genres (one or more, like the paper's examples).
    pub genres: Vec<GenreId>,
    /// Forms.
    pub forms: Vec<FormId>,
    /// Frames in the analyzed video.
    pub frame_count: usize,
    /// Analysis frame rate.
    pub fps: f64,
    /// Frame dimensions.
    pub dims: (u32, u32),
}

impl VideoMeta {
    /// Duration in seconds at the analysis rate.
    pub fn duration_secs(&self) -> f64 {
        self.frame_count as f64 / self.fps
    }
}

/// One `list` row: what the shell prints for a video, and what a shard
/// ships the router for it as an `xlist` line.
#[derive(Debug, Clone, PartialEq)]
pub struct ListRow {
    /// The video id (shard-local until the router maps it).
    pub id: u64,
    /// Display name.
    pub name: String,
    /// Frames in the analyzed video.
    pub frames: usize,
    /// Duration in seconds at the analysis rate.
    pub duration_secs: f64,
}

impl ListRow {
    /// The row of one catalogued video.
    pub fn of(meta: &VideoMeta) -> ListRow {
        ListRow {
            id: meta.id,
            name: meta.name.clone(),
            frames: meta.frame_count,
            duration_secs: meta.duration_secs(),
        }
    }

    /// Append the row as the shell's `list` prints it.
    pub fn render(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "  {:>3}  {:<24} {:>6} frames  {:>5.1}s",
            self.id, self.name, self.frames, self.duration_secs
        );
    }

    /// Append the row as an `xlist` line: fixed-key tokens first, the
    /// name last (names may contain spaces), the duration as its bit
    /// pattern so a merged `list` prints exactly what one node prints.
    pub fn encode(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "video id={} frames={} dur={:016x} name={}",
            self.id,
            self.frames,
            self.duration_secs.to_bits(),
            self.name
        );
    }

    /// Every row of an `xlist` reply.
    pub fn decode_all(text: &str) -> Result<Vec<ListRow>, String> {
        let rows = text.lines().filter_map(|line| line.strip_prefix("video "));
        rows.map(|row| {
            let (fixed, name) = row.split_once("name=").ok_or("missing name=")?;
            Ok(ListRow {
                id: parse_field(fixed, "id")?,
                name: name.to_string(),
                frames: parse_field(fixed, "frames")?,
                duration_secs: parse_bits(fixed, "dur")?,
            })
        })
        .collect()
    }
}

/// Keyless hasher for video ids: the splitmix64 finaliser of the id.
///
/// A query looks a video up twice per matching shot (its catalog row and
/// its stored analysis), thousands of times per request, and SipHash's
/// per-lookup cost showed up in that walk. SipHash's key only defends a
/// map against keys an adversary picks to collide; video ids are never
/// picked by a client. They are assigned by [`Catalog::register`] or
/// replayed from this store's own journal and segment files, and an
/// import takes the destination's next id, not the exporter's. The
/// finaliser spreads sequential ids over every bit, so both the bucket
/// index (low bits) and the control bytes (high bits) of `HashMap` vary.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut z = self.0 ^ n;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by video id, hashed with [`IdHasher`].
pub(crate) type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// The video catalog: id assignment and metadata lookup.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    next_id: u64,
    videos: IdMap<VideoMeta>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a video; returns its assigned id.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        genres: Vec<GenreId>,
        forms: Vec<FormId>,
        frame_count: usize,
        fps: f64,
        dims: (u32, u32),
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.videos.insert(
            id,
            VideoMeta {
                id,
                name: name.into(),
                genres,
                forms,
                frame_count,
                fps,
                dims,
            },
        );
        id
    }

    /// Re-insert a previously persisted record (keeps its id).
    pub fn restore(&mut self, meta: VideoMeta) {
        self.next_id = self.next_id.max(meta.id.saturating_add(1));
        self.videos.insert(meta.id, meta);
    }

    /// Remove a video. Returns its metadata if it existed.
    pub fn remove(&mut self, id: u64) -> Option<VideoMeta> {
        self.videos.remove(&id)
    }

    /// Metadata of a video.
    pub fn get(&self, id: u64) -> Option<&VideoMeta> {
        self.videos.get(&id)
    }

    /// All videos, sorted by id.
    pub fn all(&self) -> Vec<&VideoMeta> {
        let mut v: Vec<&VideoMeta> = self.videos.values().collect();
        v.sort_by_key(|m| m.id);
        v
    }

    /// Number of registered videos.
    pub fn len(&self) -> usize {
        self.videos.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.videos.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether a `genre=… form=…` query keeps `m`: the one class predicate,
    /// [`crate::query::QuerySpec::keeps`].
    fn in_class(m: &VideoMeta, genre: GenreId, form: FormId) -> bool {
        crate::query::QuerySpec {
            variance: vdb_core::index::VarianceQuery::new(0.0, 0.0),
            genre: Some(genre),
            form: Some(form),
            limit: None,
            k: None,
        }
        .keeps(m)
    }

    #[test]
    fn id_map_answers_like_std_hash_map() {
        let sequential = 0..2_000u64;
        let sparse = (0..500u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let edges = [0, 1, u64::MAX, u64::MAX - 1, 1 << 63, u32::MAX as u64];
        let ids: Vec<u64> = sequential.chain(sparse).chain(edges).collect();
        let mut ours: IdMap<u64> = IdMap::default();
        let mut std: HashMap<u64, u64> = HashMap::new();
        let agree = |ours: &IdMap<u64>, std: &HashMap<u64, u64>| {
            assert_eq!(ours.len(), std.len());
            for id in &ids {
                assert_eq!(ours.get(id), std.get(id), "id {id}");
            }
            for (id, v) in std {
                assert_eq!(ours.get(id), Some(v), "id {id}");
            }
        };
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(ours.insert(id, i as u64), std.insert(id, i as u64));
        }
        agree(&ours, &std);
        for &id in ids.iter().step_by(3) {
            assert_eq!(ours.remove(&id), std.remove(&id), "remove {id}");
        }
        agree(&ours, &std);
        for &id in ids.iter().step_by(2) {
            assert_eq!(ours.insert(id, !id), std.insert(id, !id), "reinsert {id}");
        }
        agree(&ours, &std);
    }

    #[test]
    fn taxonomy_has_paper_counts() {
        let t = Taxonomy::new();
        assert_eq!(
            t.genre_lookup.len() * t.form_lookup.len(),
            4655,
            "133 x 35 classes (§4.1)"
        );
    }

    #[test]
    fn paper_quoted_names_present() {
        let t = Taxonomy::new();
        for g in [
            "adaptation",
            "adventure",
            "biographical",
            "comedy",
            "historical",
            "medical",
            "musical",
            "romance",
            "western",
        ] {
            assert!(t.genre(g).is_some(), "missing genre {g}");
        }
        for f in [
            "animation",
            "feature",
            "television mini-series",
            "television series",
        ] {
            assert!(t.form(f).is_some(), "missing form {f}");
        }
    }

    #[test]
    fn names_roundtrip_ids() {
        let t = Taxonomy::new();
        let g = t.genre("western").unwrap();
        assert_eq!(GENRE_NAMES[g.0 as usize], "western");
        let f = t.form("feature").unwrap();
        assert_eq!(FORM_NAMES[f.0 as usize], "feature");
        assert_eq!(t.genre("no-such-genre"), None);
    }

    #[test]
    fn brave_heart_classification() {
        // The paper: 'Brave Heart' is an 'adventure and biographical feature'.
        let t = Taxonomy::new();
        let mut c = Catalog::new();
        let id = c.register(
            "Brave Heart",
            vec![
                t.genre("adventure").unwrap(),
                t.genre("biographical").unwrap(),
            ],
            vec![t.form("feature").unwrap()],
            1809,
            3.0,
            (160, 120),
        );
        let m = c.get(id).unwrap();
        assert!(in_class(
            m,
            t.genre("adventure").unwrap(),
            t.form("feature").unwrap()
        ));
        assert!(in_class(
            m,
            t.genre("biographical").unwrap(),
            t.form("feature").unwrap()
        ));
        assert!(!in_class(
            m,
            t.genre("western").unwrap(),
            t.form("feature").unwrap()
        ));
    }

    #[test]
    fn ids_are_unique_and_sequential() {
        let mut c = Catalog::new();
        let a = c.register("a", vec![], vec![], 10, 3.0, (80, 60));
        let b = c.register("b", vec![], vec![], 10, 3.0, (80, 60));
        assert_ne!(a, b);
        assert_eq!(c.len(), 2);
        assert_eq!(c.all().iter().map(|m| m.id).collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn class_scoping() {
        let t = Taxonomy::new();
        let g1 = t.genre("comedy").unwrap();
        let g2 = t.genre("horror").unwrap();
        let f = t.form("feature").unwrap();
        let mut c = Catalog::new();
        let a = c.register("funny", vec![g1], vec![f], 10, 3.0, (80, 60));
        let b = c.register("scary", vec![g2], vec![f], 10, 3.0, (80, 60));
        let members = |genre, form| {
            let mut ids: Vec<u64> = c
                .all()
                .iter()
                .filter(|m| in_class(m, genre, form))
                .map(|m| m.id)
                .collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(members(g1, f), vec![a]);
        assert_eq!(members(g2, f), vec![b]);
        assert_eq!(members(g1, t.form("short").unwrap()), Vec::<u64>::new());
    }

    #[test]
    fn restore_preserves_id_allocation() {
        let mut c = Catalog::new();
        c.restore(VideoMeta {
            id: 7,
            name: "old".into(),
            genres: vec![],
            forms: vec![],
            frame_count: 5,
            fps: 3.0,
            dims: (80, 60),
        });
        let next = c.register("new", vec![], vec![], 5, 3.0, (80, 60));
        assert!(next > 7, "restored ids must not be reused");
        assert_eq!(c.get(7).unwrap().name, "old");
    }

    #[test]
    fn remove_works() {
        let mut c = Catalog::new();
        let id = c.register("gone", vec![], vec![], 5, 3.0, (80, 60));
        assert!(c.remove(id).is_some());
        assert!(c.get(id).is_none());
        assert!(c.remove(id).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn duration() {
        let m = VideoMeta {
            id: 0,
            name: "x".into(),
            genres: vec![],
            forms: vec![],
            frame_count: 90,
            fps: 3.0,
            dims: (160, 120),
        };
        assert!((m.duration_secs() - 30.0).abs() < 1e-12);
    }
}
