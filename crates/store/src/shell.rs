//! The command interpreter behind the `vdbsh` binary — and, since the
//! serving layer landed, the shared command surface of `vdbd`: commands
//! are parsed into [`Command`] values and executed against any
//! [`DbBackend`], so the REPL and the network server stay in parity by
//! construction.
//!
//! ```text
//! demo [n]            ingest n synthetic demo movies (default 2)
//! list                list videos
//! stats               database statistics
//! query <text>        e.g. query ba=0.5 oa=15 limit=5 (or k=10 for top-k)
//! explain <text>      run a query and report its exact work
//! trace <command>     run a command and append its span tree
//! debug dump          drain the flight recorder as chrome://tracing JSON
//! board <video> [n]   storyboard of a video (n cards, default 6)
//! tree <video> [node] full scene tree, or one node (e.g. SN_4^1): its
//!                     breadcrumbs and children
//! remove <video>      remove a video (journals a tombstone when durable)
//! save <path>         persist
//! load <path>         replace the database from a file (load! to discard
//!                     unsaved changes)
//! help                this text
//! quit
//! ```

use crate::backend::DbBackend;
use crate::catalog::ListRow;
use crate::db::{push_answers, VideoDatabase, SHOWN_ANSWERS};
use crate::journal::JournaledDatabase;
use crate::session::{find_node, render_node, storyboard, NodeName};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use vdb_core::analyzer::AnalyzerConfig;
use vdb_obs::global_tracer;
use vdb_obs::trace::{render_tree, to_chrome_json};

/// Outcome of interpreting one command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShellOutcome {
    /// Keep reading commands; the string is the command's output.
    Continue(String),
    /// The user asked to quit.
    Quit,
}

const HELP: &str = "commands:\n  demo [n]          ingest n synthetic demo movies\n  list              list videos\n  stats             database statistics\n  query <text>      e.g. query ba=0.5 oa=15 limit=5 (k=10 for top-k)\n  explain <text>    run a query and report its exact work\n  trace <command>   run a command and append its span tree\n  debug dump        drain the flight recorder as chrome://tracing JSON\n  board <video> [n] storyboard of a video\n  tree <video> [node] scene tree, or one node (e.g. SN_4^1)\n  remove <video>    remove a video\n  save <path>       persist the database\n  load <path>       replace the database from a file (load! forces)\n  help              this text\n  quit\n";

/// One parsed command line.
///
/// Parsing never fails: malformed lines become [`Command::Usage`] or
/// [`Command::Unknown`], which execute to the matching diagnostic text.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// A blank line.
    Empty,
    /// `help`.
    Help,
    /// `quit` / `exit`.
    Quit,
    /// `demo [n]` — ingest synthetic demo movies.
    Demo(usize),
    /// `list`.
    List,
    /// `stats`.
    Stats,
    /// `query <text>` — the raw query text (see [`crate::query`]).
    Query(String),
    /// `explain <text>` — run a query and report its exact work
    /// (chosen plan, estimated vs. actual candidates, probe window).
    Explain(String),
    /// `trace <command>` — run the wrapped command under a forced trace
    /// root and append its recorded span tree to the output.
    Trace(Box<Command>),
    /// `debug dump` — drain the flight recorder as chrome://tracing JSON.
    DebugDump,
    /// `board <video> [cards]`.
    Board(u64, usize),
    /// `tree <video> [node]`: the whole tree, or one node by name.
    Tree(u64, Option<NodeName>),
    /// `remove <video>`.
    Remove(u64),
    /// `save <path>`.
    Save(String),
    /// `load <path>`; `force` is true for `load!`.
    Load {
        /// The snapshot file to load.
        path: String,
        /// Discard unsaved changes without complaint (`load!`).
        force: bool,
    },
    /// A recognized command with missing/invalid operands; the payload is
    /// the usage line to print.
    Usage(&'static str),
    /// An unrecognized command word.
    Unknown(String),
}

impl Command {
    /// Parse one command line. Never fails; see [`Command::Usage`] and
    /// [`Command::Unknown`].
    pub fn parse(line: &str) -> Command {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return Command::Empty;
        };
        match cmd {
            "quit" | "exit" => Command::Quit,
            "help" => Command::Help,
            "demo" => match parts.next().map(str::parse) {
                None => Command::Demo(2),
                Some(Ok(n)) => Command::Demo(n),
                Some(Err(_)) => Command::Usage("  usage: demo [n]\n"),
            },
            "list" => Command::List,
            "stats" => Command::Stats,
            "query" => Command::Query(parts.collect::<Vec<_>>().join(" ")),
            "explain" => {
                let mut rest: Vec<&str> = parts.collect();
                // Tolerate `explain query <text>`: explain always explains
                // a query, so the extra word is redundant.
                if rest.first() == Some(&"query") {
                    rest.remove(0);
                }
                if rest.is_empty() {
                    Command::Usage("  usage: explain <query text>\n")
                } else {
                    Command::Explain(rest.join(" "))
                }
            }
            "trace" => {
                let rest = parts.collect::<Vec<_>>().join(" ");
                match Command::parse(&rest) {
                    Command::Empty => Command::Usage("  usage: trace <command>\n"),
                    Command::Quit | Command::Save(_) | Command::Load { .. } | Command::Trace(_) => {
                        Command::Usage("  trace wraps read-only and mutation commands only\n")
                    }
                    inner => Command::Trace(Box::new(inner)),
                }
            }
            "debug" => match parts.next() {
                Some("dump") => Command::DebugDump,
                _ => Command::Usage("  usage: debug dump\n"),
            },
            "board" => match parts.next().and_then(|v| v.parse().ok()) {
                None => Command::Usage("  usage: board <video> [cards]\n"),
                Some(id) => {
                    Command::Board(id, parts.next().and_then(|v| v.parse().ok()).unwrap_or(6))
                }
            },
            "tree" => {
                const USAGE: &str = "  usage: tree <video> [node]\n";
                match (parts.next().map(str::parse), parts.next().map(str::parse)) {
                    (Some(Ok(id)), None) => Command::Tree(id, None),
                    (Some(Ok(id)), Some(Ok(node))) => Command::Tree(id, Some(node)),
                    _ => Command::Usage(USAGE),
                }
            }
            "remove" => match parts.next().and_then(|v| v.parse().ok()) {
                None => Command::Usage("  usage: remove <video>\n"),
                Some(id) => Command::Remove(id),
            },
            "save" => match parts.next() {
                Some(path) => Command::Save(path.to_string()),
                None => Command::Usage("  usage: save <path>\n"),
            },
            "load" | "load!" => match parts.next() {
                Some(path) => Command::Load {
                    path: path.to_string(),
                    force: cmd == "load!",
                },
                None => Command::Usage("  usage: load <path>\n"),
            },
            other => Command::Unknown(other.to_string()),
        }
    }

    /// Whether executing this command only reads the database (safe under
    /// a shared read lock). A `trace` wrapper takes the classification of
    /// the command it wraps.
    pub fn is_readonly(&self) -> bool {
        match self {
            Command::Trace(inner) => inner.is_readonly(),
            Command::Empty
            | Command::Help
            | Command::List
            | Command::Stats
            | Command::Query(_)
            | Command::Explain(_)
            | Command::DebugDump
            | Command::Board(..)
            | Command::Tree(..)
            | Command::Usage(_)
            | Command::Unknown(_) => true,
            _ => false,
        }
    }

    /// Whether this command mutates the database through a
    /// [`DbBackend`] (see [`execute_mutation`]). A `trace` wrapper takes
    /// the classification of the command it wraps.
    pub fn is_mutation(&self) -> bool {
        match self {
            Command::Trace(inner) => inner.is_mutation(),
            Command::Demo(_) | Command::Remove(_) => true,
            _ => false,
        }
    }
}

/// Render the span tree recorded for trace `trace_id` (0: unsampled),
/// indented for shell output. Used by the `trace` command and by the
/// server's slow-query log.
pub fn render_trace(trace_id: u64) -> String {
    let mut out = String::new();
    if trace_id == 0 {
        out.push_str("  tracing is disabled on this process\n");
        return out;
    }
    let events = global_tracer().recorder().events_for(trace_id);
    let _ = writeln!(out, "  trace {trace_id} ({} spans):", events.len());
    for line in render_tree(&events).lines() {
        let _ = writeln!(out, "    {line}");
    }
    out
}

/// Execute a read-only command against the database. Returns `None` if the
/// command is not read-only (callers dispatch those to
/// [`execute_mutation`] or handle them at their own layer, like
/// `save`/`load`/`quit`). Spans land in the current trace.
pub fn execute_readonly(db: &VideoDatabase, cmd: &Command) -> Option<String> {
    let mut out = String::new();
    match cmd {
        Command::Empty => {}
        Command::Help => out.push_str(HELP),
        Command::Usage(usage) => out.push_str(usage),
        Command::Unknown(word) => {
            let _ = writeln!(out, "  unknown command '{word}' (try 'help')");
        }
        Command::List => {
            for meta in db.catalog().all() {
                ListRow::of(meta).render(&mut out);
            }
        }
        Command::Stats => {
            let _ = writeln!(out, "  {}", db.stats());
        }
        Command::Query(text) => match db.query_text(text, SHOWN_ANSWERS) {
            Ok((answers, count, _)) => push_answers(&mut out, count, &answers),
            Err(e) => {
                let _ = writeln!(out, "  {e}");
            }
        },
        Command::Explain(text) => match db.query_text(text, SHOWN_ANSWERS) {
            Ok((answers, count, explain)) => {
                let _ = writeln!(out, "  {}", explain.summary());
                push_answers(&mut out, count, &answers);
            }
            Err(e) => {
                let _ = writeln!(out, "  {e}");
            }
        },
        Command::DebugDump => {
            // Newest-wins ring semantics extend to the dump itself: if the
            // full ring renders larger than a wire response frame can
            // carry, drop the oldest events until it fits.
            const MAX_DUMP_BYTES: usize = 768 * 1024;
            let mut events = global_tracer().recorder().snapshot();
            let mut json = to_chrome_json(&events);
            while json.len() > MAX_DUMP_BYTES && !events.is_empty() {
                let keep = events.len() / 2;
                events.drain(..events.len() - keep);
                json = to_chrome_json(&events);
            }
            out.push_str(&json);
            out.push('\n');
        }
        Command::Trace(inner) if inner.is_readonly() => {
            let root = global_tracer().trace_root_forced();
            let entered = root.enter();
            out.push_str(&execute_readonly(db, inner).unwrap_or_default());
            drop(entered);
            out.push_str(&render_trace(root.trace_id));
        }
        Command::Board(id, cards) => match db.analysis(*id) {
            Ok(a) => {
                for card in storyboard(a, *cards) {
                    let _ = writeln!(
                        out,
                        "  [{:>3}..{:<3}] {:<8} rep frame {:>3}  ({} shots)",
                        card.frame_range.0,
                        card.frame_range.1,
                        card.name,
                        card.rep_frame,
                        card.shot_count
                    );
                }
            }
            Err(e) => {
                let _ = writeln!(out, "  {e}");
            }
        },
        Command::Tree(id, None) => match db.analysis(*id) {
            Ok(a) => out.push_str(&a.scene_tree.render_ascii()),
            Err(e) => {
                let _ = writeln!(out, "  {e}");
            }
        },
        Command::Tree(id, Some(name)) => match db.analysis(*id) {
            Ok(a) => match find_node(&a.scene_tree, *name) {
                Some(node) => out.push_str(&render_node(a, node)),
                None => {
                    let _ = writeln!(out, "  no scene node {name}");
                }
            },
            Err(e) => {
                let _ = writeln!(out, "  {e}");
            }
        },
        _ => return None,
    }
    Some(out)
}

/// Execute a mutating command against any backend (in-memory or
/// journaled). Returns `None` if the command is not a mutation. Spans
/// land in the current trace.
pub fn execute_mutation(backend: &mut dyn DbBackend, cmd: &Command) -> Option<String> {
    let mut out = String::new();
    match cmd {
        Command::Demo(n) => {
            use vdb_synth::script::generate;
            let start = backend.db().len() as u64;
            for i in 0..*n {
                let seed = 9000 + start + i as u64;
                let clip = generate(&vdb_synth::build_script(
                    vdb_synth::Genre::Movie,
                    12,
                    Some(9.0),
                    (80, 60),
                    seed,
                ));
                match backend.ingest_clip(format!("demo-movie-{seed}"), &clip.video, vec![], vec![])
                {
                    Ok(id) => {
                        let shots = backend
                            .db()
                            .analysis(id)
                            .map(|a| a.shots.len())
                            .unwrap_or(0);
                        let _ = writeln!(out, "ingested video {id} ({shots} shots)");
                    }
                    Err(e) => {
                        let _ = writeln!(out, "ingest failed: {e}");
                    }
                }
            }
        }
        Command::Remove(id) => match backend.remove_video(*id) {
            Ok(()) => {
                let _ = writeln!(out, "  removed video {id}");
            }
            Err(e) => {
                let _ = writeln!(out, "  {e}");
            }
        },
        Command::Trace(inner) if inner.is_mutation() => {
            let root = global_tracer().trace_root_forced();
            let entered = root.enter();
            out.push_str(&execute_mutation(backend, inner).unwrap_or_default());
            drop(entered);
            out.push_str(&render_trace(root.trace_id));
        }
        _ => return None,
    }
    Some(out)
}

/// The REPL state: a database backend plus unsaved-changes tracking.
///
/// In memory mode, mutations mark the shell dirty and `load` refuses to
/// discard them without `load!`. In journal mode every mutation is durable
/// on return, so the shell is never dirty (and `load`, which would detach
/// the database from its journal, is rejected).
pub struct Shell {
    backend: Box<dyn DbBackend>,
    dirty: bool,
}

impl Default for Shell {
    fn default() -> Self {
        Self::new()
    }
}

impl Shell {
    /// An empty in-memory shell.
    pub fn new() -> Self {
        Shell::with_db(VideoDatabase::new())
    }

    /// A shell over an existing in-memory database.
    pub fn with_db(db: VideoDatabase) -> Self {
        Shell {
            backend: Box::new(db),
            dirty: false,
        }
    }

    /// A shell over a journal file (created if absent): every `demo` /
    /// `remove` is durable the moment the prompt returns.
    pub fn open_journal(
        path: impl Into<PathBuf>,
        config: AnalyzerConfig,
    ) -> Result<Self, crate::db::DbError> {
        Ok(Shell {
            backend: Box::new(JournaledDatabase::open(path, config)?),
            dirty: false,
        })
    }

    /// Read access to the database.
    pub fn db(&self) -> &VideoDatabase {
        self.backend.db()
    }

    /// Whether there are in-memory changes not yet saved to disk.
    pub fn dirty(&self) -> bool {
        self.dirty
    }

    /// Whether every mutation is durable on return (journal mode).
    pub fn is_durable(&self) -> bool {
        self.backend.is_durable()
    }

    /// Interpret one command line.
    pub fn run(&mut self, line: &str) -> ShellOutcome {
        let cmd = Command::parse(line);
        if cmd == Command::Quit {
            return ShellOutcome::Quit;
        }
        if let Some(out) = execute_readonly(self.db(), &cmd) {
            return ShellOutcome::Continue(out);
        }
        if cmd.is_mutation() {
            let before = self.db().len();
            let out = execute_mutation(&mut *self.backend, &cmd).expect("mutation command");
            if !self.is_durable() && self.db().len() != before {
                self.dirty = true;
            }
            return ShellOutcome::Continue(out);
        }
        let mut out = String::new();
        match cmd {
            Command::Save(path) => match self.db().save(Path::new(&path)) {
                Ok(()) => {
                    self.dirty = false;
                    let _ = writeln!(out, "  saved to {path}");
                }
                Err(e) => {
                    let _ = writeln!(out, "  save failed for '{path}': {e}");
                }
            },
            Command::Load { path, force } => {
                if self.is_durable() {
                    let _ = writeln!(
                        out,
                        "  load is not available in journal mode (the journal is the database)"
                    );
                } else if self.dirty && !force {
                    let _ = writeln!(
                        out,
                        "  refusing to load over unsaved changes (use 'save <path>' first, or 'load! {path}' to discard them)"
                    );
                } else {
                    match VideoDatabase::load(Path::new(&path), AnalyzerConfig::default()) {
                        Ok(loaded) => {
                            self.backend = Box::new(loaded);
                            self.dirty = false;
                            let _ = writeln!(out, "  loaded {} videos", self.db().len());
                        }
                        Err(e) => {
                            let _ = writeln!(out, "  load failed for '{path}': {e}");
                        }
                    }
                }
            }
            _ => unreachable!("readonly and mutation commands handled above"),
        }
        ShellOutcome::Continue(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(sh: &mut Shell, line: &str) -> String {
        match sh.run(line) {
            ShellOutcome::Continue(s) => s,
            ShellOutcome::Quit => panic!("unexpected quit"),
        }
    }

    #[test]
    fn demo_list_stats_flow() {
        let mut sh = Shell::new();
        let out = exec(&mut sh, "demo 2");
        assert!(out.contains("ingested video 0"));
        assert!(out.contains("ingested video 1"));
        let out = exec(&mut sh, "list");
        assert!(out.contains("demo-movie-9000"));
        let out = exec(&mut sh, "stats");
        assert!(out.contains("videos 2"));
    }

    #[test]
    fn query_and_errors() {
        let mut sh = Shell::new();
        exec(&mut sh, "demo 1");
        let out = exec(&mut sh, "query ba=0.2 oa=12 alpha=3 beta=3");
        assert!(out.contains("answers"));
        let out = exec(&mut sh, "query nonsense");
        assert!(out.contains("expected key=value"));
    }

    #[test]
    fn board_and_tree() {
        let mut sh = Shell::new();
        exec(&mut sh, "demo 1");
        let out = exec(&mut sh, "board 0 4");
        assert!(out.contains("rep frame"));
        let out = exec(&mut sh, "tree 0");
        assert!(out.contains("SN_"));
        let out = exec(&mut sh, "board 99");
        assert!(out.contains("unknown video"));
        assert!(exec(&mut sh, "board").contains("usage"));
        assert!(exec(&mut sh, "tree").contains("usage"));
        assert!(exec(&mut sh, "tree 0 SN_1^0").starts_with("  node  SN_1^0  level 0"));
        let out = exec(&mut sh, "tree 0 SN_999^0");
        assert_eq!(out, "  no scene node SN_999^0\n");
        assert!(exec(&mut sh, "tree 0 SN_x").contains("usage: tree <video> [node]"));
        assert!(exec(&mut sh, "tree 99 SN_1^0").contains("unknown video"));
    }

    #[test]
    fn remove_command() {
        let mut sh = Shell::new();
        exec(&mut sh, "demo 2");
        let out = exec(&mut sh, "remove 0");
        assert!(out.contains("removed video 0"));
        assert_eq!(sh.db().len(), 1);
        let out = exec(&mut sh, "remove 0");
        assert!(out.contains("unknown video"));
        assert!(exec(&mut sh, "remove").contains("usage"));
    }

    #[test]
    fn save_load_flow() {
        let dir = std::env::temp_dir().join(format!("vdb-shell-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shell.vdbs");
        let mut sh = Shell::new();
        exec(&mut sh, "demo 1");
        assert!(sh.dirty());
        let out = exec(&mut sh, &format!("save {}", path.display()));
        assert!(out.contains("saved"));
        assert!(!sh.dirty());
        let mut fresh = Shell::new();
        let out = exec(&mut fresh, &format!("load {}", path.display()));
        assert!(out.contains("loaded 1 videos"));
        assert_eq!(fresh.db().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_refuses_to_discard_unsaved_changes() {
        let dir = std::env::temp_dir().join(format!("vdb-shell-dirty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one.vdbs");
        let mut donor = Shell::new();
        exec(&mut donor, "demo 1");
        exec(&mut donor, &format!("save {}", path.display()));

        let mut sh = Shell::new();
        exec(&mut sh, "demo 2");
        let out = exec(&mut sh, &format!("load {}", path.display()));
        assert!(out.contains("refusing to load over unsaved changes"));
        assert_eq!(sh.db().len(), 2, "dirty database untouched");
        let out = exec(&mut sh, &format!("load! {}", path.display()));
        assert!(out.contains("loaded 1 videos"));
        assert!(!sh.dirty());
        // Clean shells load without force.
        let out = exec(&mut sh, &format!("load {}", path.display()));
        assert!(out.contains("loaded 1 videos"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_error_names_the_path() {
        let mut sh = Shell::new();
        let out = exec(&mut sh, "load /no/such/dir/missing.vdbs");
        assert!(
            out.contains("load failed for '/no/such/dir/missing.vdbs'"),
            "error must name the offending path: {out}"
        );
    }

    #[test]
    fn journal_mode_persists_demo_and_remove() {
        let dir = std::env::temp_dir().join(format!("vdb-shell-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shell.vdbj");
        {
            let mut sh = Shell::open_journal(&path, AnalyzerConfig::default()).unwrap();
            assert!(sh.is_durable());
            exec(&mut sh, "demo 2");
            assert!(!sh.dirty(), "journal mode is never dirty");
            let out = exec(&mut sh, "remove 0");
            assert!(out.contains("removed video 0"));
            let out = exec(&mut sh, "load anything.vdbs");
            assert!(out.contains("not available in journal mode"));
        }
        // The tombstone went through TAG_REMOVE: video 0 stays gone.
        let sh = Shell::open_journal(&path, AnalyzerConfig::default()).unwrap();
        assert_eq!(sh.db().len(), 1);
        assert!(sh.db().catalog().get(0).is_none());
        assert!(sh.db().catalog().get(1).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quit_help_unknown_empty() {
        let mut sh = Shell::new();
        assert_eq!(sh.run("quit"), ShellOutcome::Quit);
        assert_eq!(sh.run("exit"), ShellOutcome::Quit);
        assert!(exec(&mut sh, "help").contains("commands:"));
        assert!(exec(&mut sh, "frobnicate").contains("unknown command"));
        assert_eq!(exec(&mut sh, "   "), "");
    }

    #[test]
    fn explain_reports_plan_and_answers() {
        let mut sh = Shell::new();
        exec(&mut sh, "demo 1");
        let out = exec(&mut sh, "explain ba=0.2 oa=12 alpha=3 beta=3");
        for key in ["window=[", "candidates=", "visited=", "matches="] {
            assert!(out.contains(key), "explain reports its work ({key}): {out}");
        }
        assert!(out.contains("answers"), "{out}");
        // `explain query <text>` is tolerated.
        let redundant = exec(&mut sh, "explain query ba=0.2 oa=12 alpha=3 beta=3");
        assert_eq!(out, redundant);
        assert!(exec(&mut sh, "explain").contains("usage"));
        assert!(exec(&mut sh, "explain nonsense").contains("expected key=value"));
    }

    #[test]
    fn trace_appends_a_span_tree() {
        let mut sh = Shell::new();
        let out = exec(&mut sh, "trace demo 1");
        assert!(out.contains("ingested video 0"), "{out}");
        assert!(out.contains("trace "), "{out}");
        assert!(out.contains("store.ingest"), "{out}");
        assert!(out.contains("core.pipeline.analyze"), "{out}");
        assert!(sh.dirty(), "trace demo is still a mutation");
        let out = exec(&mut sh, "trace query ba=0.2 oa=12 alpha=3 beta=3");
        assert!(out.contains("answers"), "{out}");
        assert!(out.contains("store.query"), "{out}");
        assert!(out.contains("core.index.probe"), "{out}");
    }

    #[test]
    fn trace_remove_on_a_journal_records_its_append_and_fsync() {
        let dir = std::env::temp_dir().join(format!("vdb-shell-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.vdbj");
        let _ = std::fs::remove_file(&path);
        let mut sh = Shell::open_journal(&path, AnalyzerConfig::default()).unwrap();
        exec(&mut sh, "demo 1");
        let out = exec(&mut sh, "trace remove 0");
        assert!(out.contains("removed video 0"), "{out}");
        // The tombstone's append and the fsync it leads are the trace's
        // top-level spans: `render_trace` indents roots by four spaces.
        for span in ["store.journal.append", "store.journal.fsync"] {
            assert!(
                out.lines().any(|l| l.starts_with(&format!("    {span} "))),
                "{span} missing under the trace root:\n{out}"
            );
        }
        drop(sh);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_explain_records_query_spans() {
        let mut sh = Shell::new();
        exec(&mut sh, "demo 2");
        let text = "ba=0.4 oa=14 alpha=4 beta=4";
        let explain = exec(&mut sh, &format!("explain {text}"));
        let traced = exec(&mut sh, &format!("trace explain {text}"));
        let spans = traced
            .strip_prefix(explain.as_str())
            .unwrap_or_else(|| panic!("trace changed the explain output:\n{traced}"));
        assert!(spans.starts_with("  trace "), "{spans}");
        assert!(!spans.contains("(0 spans)"), "{spans}");
        assert!(spans.contains("store.query"), "{spans}");
        assert!(spans.contains("core.index.probe"), "{spans}");
    }

    #[test]
    fn debug_dump_is_chrome_trace_json() {
        let mut sh = Shell::new();
        exec(&mut sh, "trace demo 1");
        let out = exec(&mut sh, "debug dump");
        assert!(out.starts_with("{\"traceEvents\":["), "{out}");
        assert!(out.trim_end().ends_with("]}"), "{out}");
        assert!(out.contains("\"ph\":\"X\""), "{out}");
        assert!(exec(&mut sh, "debug").contains("usage: debug dump"));
        assert!(exec(&mut sh, "debug everything").contains("usage: debug dump"));
    }

    #[test]
    fn trace_rejects_unwrappable_commands() {
        assert!(matches!(Command::parse("trace"), Command::Usage(_)));
        assert!(matches!(Command::parse("trace quit"), Command::Usage(_)));
        assert!(matches!(Command::parse("trace save x"), Command::Usage(_)));
        assert!(matches!(Command::parse("trace load x"), Command::Usage(_)));
        assert!(matches!(
            Command::parse("trace trace list"),
            Command::Usage(_)
        ));
        let mut sh = Shell::new();
        assert!(exec(&mut sh, "trace save x.vdbs").contains("trace wraps"));
    }

    #[test]
    fn demo_with_a_bad_count_is_usage_not_a_mutation() {
        for line in ["demo 1O", "demo two", "demo -1", "trace demo x"] {
            let cmd = Command::parse(line);
            assert!(!cmd.is_mutation(), "{line:?} parsed as {cmd:?}");
        }
        assert!(matches!(Command::parse("demo 1O"), Command::Usage(_)));
        let mut sh = Shell::new();
        let out = exec(&mut sh, "demo 1O");
        assert!(out.contains("usage: demo"), "{out}");
        assert_eq!(sh.db().len(), 0, "a typo must ingest nothing");
    }

    #[test]
    fn command_classification() {
        assert!(Command::parse("list").is_readonly());
        assert!(Command::parse("query ba=1 oa=1").is_readonly());
        assert!(Command::parse("demo 3").is_mutation());
        assert!(Command::parse("remove 1").is_mutation());
        assert!(Command::parse("explain ba=1 oa=1").is_readonly());
        assert!(Command::parse("debug dump").is_readonly());
        assert!(Command::parse("trace list").is_readonly());
        assert!(Command::parse("trace demo 1").is_mutation());
        assert!(!Command::parse("trace demo 1").is_readonly());
        let save = Command::parse("save x.vdbs");
        assert!(!save.is_readonly() && !save.is_mutation());
        assert_eq!(Command::parse("demo"), Command::Demo(2));
        assert_eq!(Command::parse("demo 3"), Command::Demo(3));
        assert_eq!(
            Command::parse("load! x.vdbs"),
            Command::Load {
                path: "x.vdbs".into(),
                force: true
            }
        );
    }
}
