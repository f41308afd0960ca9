//! Seeded inputs: the streamed corpus, the preloaded database, the
//! request pool.
//!
//! The pixel content is a fixed data set, regenerated from the constants
//! below on every run: synthetic clips differ in cost per frame by several
//! percent from one content seed to the next, which would drown a 5 %
//! bound in sampling noise over four clips. `--seed` drives everything
//! else — the order clips are sent in, the feature jitter of the
//! preloaded videos, which stored shots are queried by example, which
//! videos are browsed — so two seeds send different requests over the
//! same amount of work.

use vdb_core::analyzer::{VideoAnalysis, VideoAnalyzer};
use vdb_core::frame::Video;
use vdb_core::index::VarianceQuery;
use vdb_store::backend::DbBackend;
use vdb_synth::{build_script, generate, Genre};

/// splitmix64: small, seedable, and good enough to shuffle and jitter.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The paper's frame size.
pub const STREAM_DIMS: (u32, u32) = (160, 120);
const STREAM_GENRES: [Genre; 4] = [Genre::Sitcom, Genre::TalkShow, Genre::Drama, Genre::Cartoon];
const STREAM_SHOTS: usize = 12;
const STREAM_SHOT_FRAMES: f64 = 25.0;
const STREAM_CONTENT_SEED: u64 = 1000;

const BASE_CLIPS: usize = 16;
const BASE_DIMS: (u32, u32) = (64, 48);
const BASE_SHOTS: usize = 24;
const BASE_SHOT_FRAMES: f64 = 6.0;
const BASE_CONTENT_SEED: u64 = 500;
/// Each base clip is registered this many times: 16 × 128 = 2 048 videos.
pub const BASE_COPIES: usize = 128;

/// One clip of the streamed corpus with its setup-time reference.
pub struct Clip {
    pub video: Video,
    /// Shots `VideoAnalyzer::analyze` finds; every ingest must agree.
    pub ref_shots: usize,
}

/// Four clips at 160×120, ≈1 200 frames and ≈69 MiB of pixels: larger
/// than the 4 MiB L2, so frames arrive from memory as a decoder's would.
pub struct Corpus {
    pub clips: Vec<Clip>,
    pub frames: usize,
    pub shots: usize,
}

pub fn corpus() -> Corpus {
    let analyzer = VideoAnalyzer::new();
    let clips: Vec<Clip> = STREAM_GENRES
        .iter()
        .enumerate()
        .map(|(i, &genre)| {
            let script = build_script(
                genre,
                STREAM_SHOTS,
                Some(STREAM_SHOT_FRAMES),
                STREAM_DIMS,
                STREAM_CONTENT_SEED + i as u64,
            );
            let video = generate(&script).video;
            let ref_shots = analyzer
                .analyze(&video)
                .expect("reference analysis of a generated clip")
                .shots()
                .len();
            Clip { video, ref_shots }
        })
        .collect();
    Corpus {
        frames: clips.iter().map(|c| c.video.len()).sum(),
        shots: clips.iter().map(|c| c.ref_shots).sum(),
        clips,
    }
}

/// A small analysed clip the preloaded database is multiplied from.
pub struct BaseClip {
    pub dims: (u32, u32),
    pub fps: f64,
    pub analysis: VideoAnalysis,
}

pub fn base_clips() -> Vec<BaseClip> {
    let analyzer = VideoAnalyzer::new();
    (0..BASE_CLIPS)
        .map(|i| {
            let script = build_script(
                STREAM_GENRES[i % STREAM_GENRES.len()],
                BASE_SHOTS,
                Some(BASE_SHOT_FRAMES),
                BASE_DIMS,
                BASE_CONTENT_SEED + i as u64,
            );
            let video = generate(&script).video;
            BaseClip {
                dims: video.dims(),
                fps: video.fps(),
                analysis: analyzer
                    .analyze(&video)
                    .expect("reference analysis of a base clip"),
            }
        })
        .collect()
}

/// The generated content, built once per process and only as far as a
/// workload needs it.
#[derive(Default)]
pub struct Inputs {
    corpus: Option<Corpus>,
    bases: Option<Vec<BaseClip>>,
}

impl Inputs {
    pub fn need_corpus(&mut self) {
        self.corpus.get_or_insert_with(corpus);
    }

    pub fn need_bases(&mut self) {
        self.bases.get_or_insert_with(base_clips);
    }

    pub fn corpus(&self) -> &Corpus {
        self.corpus.as_ref().expect("need_corpus was called")
    }

    pub fn bases(&self) -> &[BaseClip] {
        self.bases.as_deref().expect("need_bases was called")
    }
}

/// What the preload put into a backend.
pub struct Preloaded {
    /// Ids of the registered videos, grouped by the base clip they copy.
    pub videos: Vec<u64>,
    pub frames: u64,
    pub shots: u64,
    /// `(Var^BA, Var^OA)` of every stored shot, in index-key (`D^v`) order:
    /// the query-by-example pool.
    pub examples: Vec<(f64, f64)>,
}

/// Register every base clip `copies` times through
/// `DbBackend::commit_stream`, with multiplicative jitter in `[0.5, 2]`
/// on each shot's variances so index keys spread instead of piling up on
/// `BASE_CLIPS × BASE_SHOTS` points.
pub fn preload(
    backend: &mut dyn DbBackend,
    bases: &[BaseClip],
    copies: usize,
    rng: &mut Rng,
) -> Preloaded {
    let mut out = Preloaded {
        videos: Vec::with_capacity(bases.len() * copies),
        frames: 0,
        shots: 0,
        examples: Vec::new(),
    };
    for copy in 0..copies {
        for (i, base) in bases.iter().enumerate() {
            let mut analysis = base.analysis.clone();
            for feature in &mut analysis.features {
                feature.var_ba *= 0.5 + 1.5 * rng.unit();
                feature.var_oa *= 0.5 + 1.5 * rng.unit();
                out.examples.push((feature.var_ba, feature.var_oa));
            }
            out.frames += analysis.frame_count() as u64;
            out.shots += analysis.shots().len() as u64;
            let (id, ticket) = backend
                .commit_stream(
                    format!("pre-{copy:03}-{i:02}"),
                    base.dims,
                    base.fps,
                    analysis,
                    vec![],
                    vec![],
                )
                .expect("preload commit");
            ticket.wait().expect("preload durability");
            out.videos.push(id);
        }
    }
    // Registration went copy by copy; group the ids base by base.
    let registered = std::mem::take(&mut out.videos);
    out.videos = (0..bases.len())
        .flat_map(|i| registered.iter().skip(i).step_by(bases.len()).copied())
        .collect();
    let key = |e: &(f64, f64)| e.0.sqrt() - e.1.sqrt();
    out.examples
        .sort_by(|a, b| key(a).total_cmp(&key(b)).then(a.0.total_cmp(&b.0)));
    out
}

/// `count` positions spread evenly over `0..n` from a seeded start, in
/// seeded order. A request's cost depends on where its example sits in the
/// key space (how many shots lie around it) and on which base clip a video
/// copies; independent draws of a thousand examples land a seed's median on
/// one side or the other of a dense region (measured: ±8 % between seeds).
/// Evenly spread picks give every seed the same coverage.
fn spread(n: usize, count: usize, rng: &mut Rng) -> Vec<usize> {
    let start = rng.unit();
    let mut picks: Vec<usize> = (0..count)
        .map(|k| (((k as f64 + start) * n as f64 / count as f64) as usize).min(n - 1))
        .collect();
    rng.shuffle(&mut picks);
    picks
}

/// The request kinds; `kind as usize` indexes per-kind tables.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Range,
    TopK,
    Tree,
    Board,
}

/// The fixed request cycle: 4 range, 2 top-k, 2 tree, 2 board.
pub const CYCLE: [Kind; 10] = [
    Kind::Range,
    Kind::TopK,
    Kind::Range,
    Kind::Tree,
    Kind::Range,
    Kind::Board,
    Kind::Range,
    Kind::TopK,
    Kind::Tree,
    Kind::Board,
];

pub const TOPK_K: usize = 10;
/// α and β of a range query. At 0.5 a query by example matches ≈3 400 of
/// the ≈44k stored shots and a request takes over a millisecond, most of it
/// mapping every match to its scene node before `limit=8` drops all but
/// eight. A request that long is deliberate: a loopback wake-up on the
/// shared box costs 5 µs or 60 µs depending on the host's mood, and at
/// α = β = 0.1 (≈400 matches, ≈250 µs) the whole workload moved by half
/// between the two.
pub const RANGE_TOLERANCE: f64 = 0.5;

pub struct Request {
    pub kind: Kind,
    pub line: String,
    /// The index query the line parses to (range and top-k only).
    pub query: Option<VarianceQuery>,
    /// The reply `execute_readonly` gave when the line was first sent.
    pub expected: Option<String>,
}

/// Distinct request lines, drawn once from the seed; the loop walks each
/// kind's lines round-robin, so a run sends the same lines in the same
/// order whatever its speed.
pub struct RequestPool {
    pub requests: Vec<Request>,
    by_kind: [Vec<usize>; 4],
    cursor: [usize; 4],
}

impl RequestPool {
    pub fn new(pre: &Preloaded, rng: &mut Rng) -> Self {
        let mut requests = Vec::new();
        let mut by_kind: [Vec<usize>; 4] = Default::default();
        for (kind, count) in [
            (Kind::Range, 512),
            (Kind::TopK, 256),
            (Kind::Tree, 256),
            (Kind::Board, 256),
        ] {
            let from = match kind {
                Kind::Range | Kind::TopK => pre.examples.len(),
                Kind::Tree | Kind::Board => pre.videos.len(),
            };
            for pick in spread(from, count, rng) {
                let (line, query) = match kind {
                    Kind::Range | Kind::TopK => {
                        let (ba, oa) = pre.examples[pick];
                        let line = if kind == Kind::Range {
                            format!("query ba={ba} oa={oa} alpha={RANGE_TOLERANCE} beta={RANGE_TOLERANCE} limit=8")
                        } else {
                            format!("query ba={ba} oa={oa} k={TOPK_K}")
                        };
                        let query = VarianceQuery::new(ba, oa)
                            .with_tolerances(RANGE_TOLERANCE, RANGE_TOLERANCE);
                        (line, Some(query))
                    }
                    Kind::Tree => (format!("tree {}", pre.videos[pick]), None),
                    Kind::Board => (format!("board {} 6", pre.videos[pick]), None),
                };
                by_kind[kind as usize].push(requests.len());
                requests.push(Request {
                    kind,
                    line,
                    query,
                    expected: None,
                });
            }
        }
        RequestPool {
            requests,
            by_kind,
            cursor: [0; 4],
        }
    }

    /// Index of the next request of `kind`.
    pub fn next(&mut self, kind: Kind) -> usize {
        let list = &self.by_kind[kind as usize];
        let index = list[self.cursor[kind as usize] % list.len()];
        self.cursor[kind as usize] += 1;
        index
    }
}

/// A seeded order over the corpus clips.
pub fn clip_order(corpus: &Corpus, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..corpus.clips.len()).collect();
    rng.shuffle(&mut order);
    order
}
