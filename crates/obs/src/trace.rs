//! Request-scoped tracing: a per-thread current [`TraceContext`],
//! hierarchical [`SpanGuard`] timers, head-based sampling, and a
//! lock-free fixed-capacity [`FlightRecorder`] that always retains the
//! last N span events process-wide.
//!
//! Design constraints, mirroring the metrics side of this crate:
//!
//! 1. **One current span per thread.** A trace starts where a request
//!    does: [`TraceContext::enter`] makes its root current on the
//!    calling thread. [`Tracer::span`] opens a child of the current
//!    context and stays current until it drops, so the code in between
//!    takes no context argument. Guards are `!Send` and close innermost
//!    first (a debug assertion checks the order); dropping one restores
//!    the context it replaced. A spawned thread starts with nothing
//!    entered, so work fanned out to other threads (parallel extraction
//!    shards, router scatter attempts) is untraced. To carry a trace
//!    across a thread or the wire, send [`TraceContext::current`] and
//!    enter it on the other side.
//! 2. **Unsampled means inert.** [`Tracer::span`] under an unsampled
//!    context is one thread-local read and one branch: no id allocation,
//!    no `Instant::now`, no ring-buffer write (pinned by the workspace
//!    overhead test).
//! 3. **The record path is lock-free.** Finished spans go into a
//!    fixed-capacity ring of atomic slots via one `fetch_add` ticket
//!    plus plain atomic stores; readers validate a per-slot sequence
//!    number and discard torn slots. No mutex anywhere near the hot
//!    path, and every slot access is an atomic, so concurrent dumps
//!    race benignly (and ThreadSanitizer-cleanly) with writers.
//!
//! ```
//! use vdb_obs::trace::Tracer;
//!
//! let tracer = Tracer::new(64);
//! let root = tracer.trace_root();
//! {
//!     let _entered = root.enter();
//!     let mut span = tracer.span("demo.work");
//!     span.attr("rows", 3);
//!     let _child = tracer.span("demo.work.inner"); // child of demo.work
//! }
//! let events = tracer.recorder().events_for(root.trace_id);
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[0].parent_id, events[1].span_id);
//! ```

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Maximum span-name bytes retained per flight-recorder slot (longer
/// names are truncated).
pub const MAX_NAME_BYTES: usize = 32;

/// Maximum attribute bytes retained per flight-recorder slot (longer
/// attribute strings are truncated). Sized so a full explain payload
/// survives intact.
pub const MAX_ATTR_BYTES: usize = 256;

/// Default flight-recorder capacity (slots) of [`global_tracer`].
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

const NAME_WORDS: usize = MAX_NAME_BYTES / 8;
const ATTR_WORDS: usize = MAX_ATTR_BYTES / 8;

thread_local! {
    /// The context [`Tracer::span`] opens under on this thread.
    static CURRENT: Cell<TraceContext> = const { Cell::new(TraceContext::disabled()) };
}

/// The identity of the span a thread is in: which trace it belongs to
/// and which span is the current parent.
///
/// `trace_id == 0` means "not sampled": every span opened under such a
/// context is inert. Each thread has one current context (see the
/// module docs); contexts are tiny and `Copy`, so one can be sent to
/// another thread or over the wire and entered there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace this request belongs to (0 = unsampled).
    pub trace_id: u64,
    /// Span id of the current parent (0 = root of the trace).
    pub span_id: u64,
}

impl TraceContext {
    /// The unsampled context: spans opened under it cost one branch.
    #[inline]
    pub const fn disabled() -> Self {
        TraceContext {
            trace_id: 0,
            span_id: 0,
        }
    }

    /// Whether spans under this context record anything.
    #[inline]
    pub fn is_sampled(&self) -> bool {
        self.trace_id != 0
    }

    /// This thread's current context: the innermost open span of the
    /// entered trace, or [`TraceContext::disabled`] if none is entered.
    #[inline]
    pub fn current() -> Self {
        CURRENT.get()
    }

    /// Make this context current on this thread until the returned guard
    /// drops, which restores the context it replaced. Called where a
    /// trace starts (a request root, a forced `trace <command>` root);
    /// everything below opens its spans with [`Tracer::span`].
    #[must_use = "the context is current only while the guard lives"]
    pub fn enter(self) -> ContextGuard {
        ContextGuard {
            prev: CURRENT.replace(self),
            this: self,
            _not_send: PhantomData,
        }
    }
}

/// Keeps an entered [`TraceContext`] current (see
/// [`TraceContext::enter`]). `!Send`: it must drop on the thread that
/// entered it, after every span opened beneath it.
pub struct ContextGuard {
    prev: TraceContext,
    this: TraceContext,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        restore(self.this, self.prev);
    }
}

/// Put `prev` back as the current context, asserting (in debug builds)
/// that `this`, the context being closed, is the innermost one.
fn restore(this: TraceContext, prev: TraceContext) {
    let current = CURRENT.replace(prev);
    debug_assert!(
        current == this || std::thread::panicking(),
        "trace guards must drop innermost first: closing {this:?} while {current:?} is current"
    );
}

impl Default for TraceContext {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A finished span decoded out of the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Trace the span belongs to.
    pub trace_id: u64,
    /// This span's id (unique process-wide).
    pub span_id: u64,
    /// Parent span id (0 = trace root).
    pub parent_id: u64,
    /// Start, µs since the process trace epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Span name (dotted, `layer.component.stage`).
    pub name: String,
    /// `key=value` attribute pairs, space-separated (may be empty).
    pub attrs: String,
}

/// A finished span on its way *into* the flight recorder: the borrowed
/// counterpart of [`SpanEvent`], so the hot record path never allocates
/// for the (static) span name.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord<'a> {
    /// Trace the span belongs to.
    pub trace_id: u64,
    /// This span's id (unique process-wide).
    pub span_id: u64,
    /// Parent span id (0 = trace root).
    pub parent_id: u64,
    /// Start, µs since the process trace epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Span name (dotted, `layer.component.stage`).
    pub name: &'a str,
    /// `key=value` attribute pairs, space-separated (may be empty).
    pub attrs: &'a str,
}

/// One ring slot. Everything is an atomic so a dump racing a writer is
/// defined behaviour; `seq` (odd = write in progress, even = complete,
/// strictly increasing per slot) lets the reader detect and discard
/// torn slots.
struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_id: AtomicU64,
    start_us: AtomicU64,
    dur_us: AtomicU64,
    /// Low 32 bits: name length; high 32 bits: attrs length.
    lens: AtomicU64,
    name: [AtomicU64; NAME_WORDS],
    attrs: [AtomicU64; ATTR_WORDS],
}

impl Slot {
    fn empty() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent_id: AtomicU64::new(0),
            start_us: AtomicU64::new(0),
            dur_us: AtomicU64::new(0),
            lens: AtomicU64::new(0),
            name: std::array::from_fn(|_| AtomicU64::new(0)),
            attrs: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Copy up to `words.len() * 8` bytes of `src` into the slot's packed
/// word array. Returns the number of bytes stored.
fn store_bytes(words: &[AtomicU64], src: &[u8]) -> usize {
    let len = src.len().min(words.len() * 8);
    for (i, word) in words.iter().enumerate() {
        let lo = i * 8;
        if lo >= len {
            word.store(0, Ordering::Relaxed);
            continue;
        }
        let mut buf = [0u8; 8];
        let hi = (lo + 8).min(len);
        buf[..hi - lo].copy_from_slice(&src[lo..hi]);
        word.store(u64::from_le_bytes(buf), Ordering::Relaxed);
    }
    len
}

/// Decode `len` bytes back out of a packed word array (lossy UTF-8: a
/// torn wraparound race can interleave two strings' bytes).
fn load_bytes(words: &[AtomicU64], len: usize) -> String {
    let len = len.min(words.len() * 8);
    let mut bytes = Vec::with_capacity(len);
    for (i, word) in words.iter().enumerate() {
        let lo = i * 8;
        if lo >= len {
            break;
        }
        let chunk = word.load(Ordering::Relaxed).to_le_bytes();
        let hi = (lo + 8).min(len);
        bytes.extend_from_slice(&chunk[..hi - lo]);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A lock-free fixed-capacity ring retaining the last N finished spans
/// process-wide (the "flight recorder"): always on, dumpable on demand,
/// never blocks a writer.
///
/// Writers claim a ticket with one `fetch_add` and publish through a
/// per-slot sequence number (odd while writing, even when complete);
/// [`snapshot`](FlightRecorder::snapshot) re-reads the sequence after
/// copying and discards slots that changed underneath it. A writer that
/// laps the ring mid-dump can at worst make a slot decode to garbage
/// *values* — never undefined behaviour — and the sequence check drops
/// it.
pub struct FlightRecorder {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` spans (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
        }
    }

    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans ever recorded (≥ what a snapshot can return).
    pub fn total_recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Record one finished span (lock-free; overwrites the oldest slot
    /// once the ring is full).
    pub fn record(&self, span: &SpanRecord<'_>) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // Odd marks the slot as mid-write; the ticket makes the value
        // unique so a reader can never confuse two generations.
        slot.seq.store(2 * ticket + 1, Ordering::Release);
        slot.trace_id.store(span.trace_id, Ordering::Relaxed);
        slot.span_id.store(span.span_id, Ordering::Relaxed);
        slot.parent_id.store(span.parent_id, Ordering::Relaxed);
        slot.start_us.store(span.start_us, Ordering::Relaxed);
        slot.dur_us.store(span.dur_us, Ordering::Relaxed);
        let name_len = store_bytes(&slot.name, span.name.as_bytes());
        let attr_len = store_bytes(&slot.attrs, span.attrs.as_bytes());
        slot.lens
            .store((attr_len as u64) << 32 | name_len as u64, Ordering::Relaxed);
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Non-destructive dump: every completed slot, oldest first. Slots
    /// that a concurrent writer touched mid-copy are discarded.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let mut out: Vec<(u64, SpanEvent)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or write in progress
            }
            let lens = slot.lens.load(Ordering::Relaxed);
            let ev = SpanEvent {
                trace_id: slot.trace_id.load(Ordering::Relaxed),
                span_id: slot.span_id.load(Ordering::Relaxed),
                parent_id: slot.parent_id.load(Ordering::Relaxed),
                start_us: slot.start_us.load(Ordering::Relaxed),
                dur_us: slot.dur_us.load(Ordering::Relaxed),
                name: load_bytes(&slot.name, (lens & 0xffff_ffff) as usize),
                attrs: load_bytes(&slot.attrs, (lens >> 32) as usize),
            };
            // Order the payload loads before the re-check.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // torn: a writer lapped us mid-copy
            }
            out.push((s1, ev));
        }
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, ev)| ev).collect()
    }

    /// The completed spans of one trace, oldest first.
    pub fn events_for(&self, trace_id: u64) -> Vec<SpanEvent> {
        let mut events = self.snapshot();
        events.retain(|e| e.trace_id == trace_id);
        events
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("total_recorded", &self.total_recorded())
            .finish()
    }
}

/// The tracing front-end: samples roots, allocates ids, opens spans,
/// owns the flight recorder.
///
/// One tracer serves the whole process (see [`global_tracer`]); private
/// tracers exist for tests. All configuration is atomic and can be
/// flipped at runtime.
pub struct Tracer {
    enabled: AtomicBool,
    /// Head sampling: keep 1 in N roots (0 = keep none, 1 = keep all).
    sample_every: AtomicU64,
    sample_seq: AtomicU64,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    recorder: FlightRecorder,
}

impl Tracer {
    /// A tracer with a flight recorder of `capacity` slots, enabled,
    /// sampling every root.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(true),
            sample_every: AtomicU64::new(1),
            sample_seq: AtomicU64::new(0),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            recorder: FlightRecorder::new(capacity),
        }
    }

    /// Turn tracing off (every context comes back unsampled) or on.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether tracing is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Set head sampling to 1-in-`n` roots (0 keeps none, 1 keeps all).
    pub fn set_sample_every(&self, n: u64) {
        self.sample_every.store(n, Ordering::Relaxed);
    }

    /// Current 1-in-N sampling rate.
    pub fn sample_every(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// The flight recorder backing this tracer.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Start a new trace, subject to head sampling: returns a sampled
    /// root context for 1 in [`sample_every`](Tracer::sample_every)
    /// calls and [`TraceContext::disabled`] otherwise;
    /// [`enter`](TraceContext::enter) it to trace the code below. The
    /// sampled-out path is two relaxed atomics — no clock, no ring write.
    #[inline]
    pub fn trace_root(&self) -> TraceContext {
        if !self.is_enabled() {
            return TraceContext::disabled();
        }
        let every = self.sample_every.load(Ordering::Relaxed);
        if every == 0 {
            return TraceContext::disabled();
        }
        if every > 1 && self.sample_seq.fetch_add(1, Ordering::Relaxed) % every != 0 {
            return TraceContext::disabled();
        }
        self.fresh_root()
    }

    /// Start a new trace unconditionally (bypasses sampling, still
    /// respects [`set_enabled`](Tracer::set_enabled)) — for explicit
    /// requests like the shell's `trace <command>`.
    pub fn trace_root_forced(&self) -> TraceContext {
        if !self.is_enabled() {
            return TraceContext::disabled();
        }
        self.fresh_root()
    }

    fn fresh_root(&self) -> TraceContext {
        TraceContext {
            trace_id: self.next_trace.fetch_add(1, Ordering::Relaxed),
            span_id: 0,
        }
    }

    /// Open a span named `name` under this thread's current context and
    /// make it current until the guard drops. Under an unsampled context
    /// the guard is inert: no id allocation, no `Instant::now`, and
    /// nothing is recorded on drop. Otherwise the span records itself
    /// into the flight recorder when dropped.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = TraceContext::current();
        let started = parent.is_sampled().then(Instant::now);
        let mut span = SpanGuard {
            tracer: self,
            trace_id: parent.trace_id,
            span_id: 0,
            parent_id: parent.span_id,
            name,
            start_us: 0,
            started,
            attrs: String::new(),
            _not_send: PhantomData,
        };
        if let Some(now) = started {
            span.span_id = self.next_span.fetch_add(1, Ordering::Relaxed);
            span.start_us = now.duration_since(trace_epoch()).as_micros() as u64;
            CURRENT.set(TraceContext {
                trace_id: span.trace_id,
                span_id: span.span_id,
            });
        }
        span
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("sample_every", &self.sample_every())
            .field("recorder", &self.recorder)
            .finish()
    }
}

/// RAII span from [`Tracer::span`]: current while it lives, recorded
/// into the flight recorder on drop (inert if opened under an unsampled
/// context). `!Send`, and must drop before the span that was current
/// when it opened.
#[must_use = "a span records when dropped; binding it to _ drops it immediately"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    name: &'static str,
    start_us: u64,
    started: Option<Instant>,
    attrs: String,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard<'_> {
    /// Whether this span will record on drop.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.started.is_some()
    }

    /// Attach a `key=value` attribute (no-op when not recording).
    pub fn attr(&mut self, key: &str, value: impl std::fmt::Display) {
        if self.started.is_some() {
            use std::fmt::Write as _;
            if !self.attrs.is_empty() {
                self.attrs.push(' ');
            }
            let _ = write!(self.attrs, "{key}={value}");
        }
    }

    /// Finish the span now and record it (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(started) = self.started.take() {
            restore(
                TraceContext {
                    trace_id: self.trace_id,
                    span_id: self.span_id,
                },
                TraceContext {
                    trace_id: self.trace_id,
                    span_id: self.parent_id,
                },
            );
            let dur_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            self.tracer.recorder.record(&SpanRecord {
                trace_id: self.trace_id,
                span_id: self.span_id,
                parent_id: self.parent_id,
                start_us: self.start_us,
                dur_us,
                name: self.name,
                attrs: &self.attrs,
            });
        }
    }
}

/// The process trace epoch: all span timestamps are µs since the first
/// span was opened, so dumps from one process share one timeline.
fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The process-wide tracer (capacity [`DEFAULT_FLIGHT_CAPACITY`]),
/// enabled and sampling every root from the start. Core, store, and
/// server all open their spans here so one `debug dump` shows the whole
/// stack.
pub fn global_tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer::new(DEFAULT_FLIGHT_CAPACITY))
}

/// Render span events in Chrome's trace-event JSON format (complete
/// `"ph":"X"` events, one per span), so a `debug dump` opens directly
/// in `chrome://tracing` / Perfetto. Traces map to `tid`s, the span
/// name's first dotted segment to `cat`, and ids/attributes ride in
/// `args`.
pub fn to_chrome_json(events: &[SpanEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cat = ev.name.split('.').next().unwrap_or("span");
        out.push_str("{\"name\":");
        crate::snapshot::push_json_string(&mut out, &ev.name);
        out.push_str(",\"cat\":");
        crate::snapshot::push_json_string(&mut out, cat);
        out.push_str(&format!(
            ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{}",
            ev.start_us, ev.dur_us, ev.trace_id, ev.span_id, ev.parent_id
        ));
        if !ev.attrs.is_empty() {
            out.push_str(",\"attrs\":");
            crate::snapshot::push_json_string(&mut out, &ev.attrs);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Render span events as an indented tree (children under parents,
/// siblings in start order) — the shape the shell's `trace <command>`
/// and the server's slow-query log print.
pub fn render_tree(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (events[i].start_us, events[i].span_id));
    let have: std::collections::HashSet<u64> = events.iter().map(|e| e.span_id).collect();
    fn emit(
        out: &mut String,
        events: &[SpanEvent],
        order: &[usize],
        parent: u64,
        depth: usize,
        have: &std::collections::HashSet<u64>,
    ) {
        for &i in order {
            let ev = &events[i];
            // Roots are spans whose parent is 0 or was evicted from the ring.
            let is_child = ev.parent_id == parent;
            let is_root_here = parent == 0 && !have.contains(&ev.parent_id);
            if !(is_child || (depth == 0 && is_root_here)) {
                continue;
            }
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&ev.name);
            out.push_str(&format!(" {}us", ev.dur_us));
            if !ev.attrs.is_empty() {
                out.push_str(" [");
                out.push_str(&ev.attrs);
                out.push(']');
            }
            out.push('\n');
            emit(out, events, order, ev.span_id, depth + 1, have);
        }
    }
    emit(&mut out, events, &order, 0, 0, &have);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_hierarchy_records_parent_links() {
        let t = Tracer::new(16);
        let root = t.trace_root();
        assert!(root.is_sampled());
        let (root_id, child_id);
        {
            let _entered = root.enter();
            let _parent = t.span("a.outer");
            root_id = TraceContext::current().span_id;
            let _child = t.span("a.inner");
            child_id = TraceContext::current().span_id;
        }
        let events = t.recorder().snapshot();
        assert_eq!(events.len(), 2);
        // Inner drops first.
        assert_eq!(events[0].name, "a.inner");
        assert_eq!(events[0].parent_id, root_id);
        assert_eq!(events[0].span_id, child_id);
        assert_eq!(events[1].name, "a.outer");
        assert_eq!(events[1].parent_id, 0);
        assert_eq!(events[0].trace_id, events[1].trace_id);
        assert!(events[0].start_us >= events[1].start_us);
    }

    #[test]
    fn unsampled_context_is_fully_inert() {
        let t = Tracer::new(16);
        {
            let _entered = TraceContext::disabled().enter();
            let mut span = t.span("never");
            assert!(!span.is_recording());
            assert!(span.started.is_none(), "inert span must not read the clock");
            span.attr("k", 1);
            assert!(span.attrs.is_empty(), "inert span must not format attrs");
            assert!(
                !TraceContext::current().is_sampled(),
                "inertness propagates"
            );
        }
        assert_eq!(t.recorder().total_recorded(), 0, "no ring write");
        assert!(t.recorder().snapshot().is_empty());
    }

    #[test]
    fn head_sampling_keeps_one_in_n() {
        let t = Tracer::new(16);
        t.set_sample_every(4);
        let sampled = (0..100).filter(|_| t.trace_root().is_sampled()).count();
        assert_eq!(sampled, 25);
        t.set_sample_every(0);
        assert!(!t.trace_root().is_sampled());
        // Forced roots bypass sampling but respect the enable switch.
        assert!(t.trace_root_forced().is_sampled());
        t.set_enabled(false);
        assert!(!t.trace_root_forced().is_sampled());
        assert!(!t.trace_root().is_sampled());
    }

    #[test]
    fn ring_retains_only_the_newest() {
        let t = Tracer::new(8);
        for i in 0..20 {
            let _entered = t.trace_root().enter();
            let mut s = t.span("wrap.span");
            s.attr("i", i);
        }
        assert_eq!(t.recorder().total_recorded(), 20);
        let events = t.recorder().snapshot();
        assert_eq!(events.len(), 8);
        // Oldest-first, and only the last 8 survive.
        let is: Vec<String> = events.iter().map(|e| e.attrs.clone()).collect();
        let want: Vec<String> = (12..20).map(|i| format!("i={i}")).collect();
        assert_eq!(is, want);
    }

    #[test]
    fn names_and_attrs_are_truncated_not_lost() {
        let rec = FlightRecorder::new(4);
        let long_name = "n".repeat(100);
        let long_attrs = "a".repeat(500);
        rec.record(&SpanRecord {
            trace_id: 1,
            span_id: 2,
            parent_id: 0,
            start_us: 10,
            dur_us: 5,
            name: &long_name,
            attrs: &long_attrs,
        });
        let events = rec.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name.len(), MAX_NAME_BYTES);
        assert_eq!(events[0].attrs.len(), MAX_ATTR_BYTES);
        assert!(events[0].name.bytes().all(|b| b == b'n'));
    }

    #[test]
    fn events_for_filters_by_trace() {
        let t = Tracer::new(16);
        let a = t.trace_root();
        let b = t.trace_root();
        for (ctx, name) in [(a, "t.a"), (b, "t.b"), (a, "t.a2")] {
            let _entered = ctx.enter();
            t.span(name).finish();
        }
        let mine = t.recorder().events_for(a.trace_id);
        assert_eq!(mine.len(), 2);
        assert!(mine.iter().all(|e| e.trace_id == a.trace_id));
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let t = Tracer::new(16);
        {
            let _entered = t.trace_root().enter();
            let mut s = t.span("core.pipeline.extract");
            s.attr("frames", 18);
        }
        let json = to_chrome_json(&t.recorder().snapshot());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"core.pipeline.extract\""));
        assert!(json.contains("\"cat\":\"core\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"attrs\":\"frames=18\""));
        // Empty dump is still a valid document.
        assert_eq!(to_chrome_json(&[]), "{\"traceEvents\":[]}");
    }

    #[test]
    fn tree_renders_children_indented() {
        let t = Tracer::new(16);
        {
            let _entered = t.trace_root().enter();
            let _outer = t.span("server.request");
            let _mid = t.span("store.query");
            let _leaf = t.span("core.index.probe");
        }
        let tree = render_tree(&t.recorder().snapshot());
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("server.request "));
        assert!(lines[1].starts_with("  store.query "));
        assert!(lines[2].starts_with("    core.index.probe "));
    }

    #[test]
    fn concurrent_spans_and_dumps_stay_consistent() {
        let t = std::sync::Arc::new(Tracer::new(64));
        std::thread::scope(|s| {
            for w in 0..4 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..500 {
                        let _entered = t.trace_root().enter();
                        let mut sp = t.span("race.worker");
                        sp.attr("w", w);
                        sp.attr("i", i);
                    }
                });
            }
            for _ in 0..2 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for _ in 0..50 {
                        for ev in t.recorder().snapshot() {
                            // Whatever survives validation must decode sanely.
                            assert_eq!(ev.name, "race.worker");
                            assert!(ev.trace_id > 0);
                        }
                    }
                });
            }
        });
        assert_eq!(t.recorder().total_recorded(), 2000);
        assert_eq!(t.recorder().snapshot().len(), 64);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let rec = FlightRecorder::new(0);
        assert_eq!(rec.capacity(), 1);
        rec.record(&SpanRecord {
            trace_id: 1,
            span_id: 1,
            parent_id: 0,
            start_us: 0,
            dur_us: 1,
            name: "x",
            attrs: "",
        });
        assert_eq!(rec.snapshot().len(), 1);
    }

    #[test]
    fn nested_spans_parent_on_the_innermost_and_restore_the_outer() {
        let t = Tracer::new(16);
        let root = t.trace_root();
        let _entered = root.enter();
        assert_eq!(TraceContext::current(), root);
        let outer = t.span("n.outer");
        let outer_ctx = TraceContext::current();
        assert_eq!(outer_ctx.trace_id, root.trace_id);
        assert_ne!(outer_ctx, root, "an open span is current");
        {
            let _inner = t.span("n.inner");
            let _leaf = t.span("n.leaf");
        }
        assert_eq!(
            TraceContext::current(),
            outer_ctx,
            "inner spans restore the outer"
        );
        let _sibling = t.span("n.sibling");
        drop(_sibling);
        drop(outer);
        assert_eq!(
            TraceContext::current(),
            root,
            "the outer span restores the root"
        );

        let events = t.recorder().events_for(root.trace_id);
        let by_name = |name: &str| events.iter().find(|e| e.name == name).unwrap();
        let outer = by_name("n.outer");
        assert_eq!(outer.parent_id, 0);
        assert_eq!(outer.span_id, outer_ctx.span_id);
        assert_eq!(by_name("n.inner").parent_id, outer.span_id);
        assert_eq!(by_name("n.leaf").parent_id, by_name("n.inner").span_id);
        assert_eq!(by_name("n.sibling").parent_id, outer.span_id);
    }

    #[test]
    fn nested_enter_restores_the_outer_root() {
        let t = Tracer::new(16);
        let request = t.trace_root();
        let forced = t.trace_root_forced();
        {
            let _request = request.enter();
            let _rspan = t.span("server.request");
            let in_request = TraceContext::current();
            {
                let _forced = forced.enter();
                assert_eq!(TraceContext::current(), forced);
                let _query = t.span("store.query");
            }
            assert_eq!(TraceContext::current(), in_request);
            let _after = t.span("server.after");
        }
        assert_eq!(TraceContext::current(), TraceContext::disabled());

        let inner = t.recorder().events_for(forced.trace_id);
        assert_eq!(inner.len(), 1);
        assert_eq!(
            (inner[0].name.as_str(), inner[0].parent_id),
            ("store.query", 0)
        );
        let outer = t.recorder().events_for(request.trace_id);
        let names: Vec<&str> = outer.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["server.after", "server.request"]);
        assert_eq!(outer[0].parent_id, outer[1].span_id);
    }

    #[test]
    fn nothing_entered_records_nothing() {
        let t = Tracer::new(16);
        assert_eq!(TraceContext::current(), TraceContext::disabled());
        {
            let mut span = t.span("idle.outer");
            span.attr("k", 1);
            let _inner = t.span("idle.inner");
            assert!(!TraceContext::current().is_sampled());
        }
        assert_eq!(t.recorder().total_recorded(), 0);
    }

    #[test]
    fn a_spawned_thread_does_not_inherit_the_current_span() {
        let t = Tracer::new(16);
        let root = t.trace_root();
        let _entered = root.enter();
        let _span = t.span("parent.work");
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(TraceContext::current(), TraceContext::disabled());
                let child = t.span("shard.work");
                assert!(!child.is_recording());
            });
        });
        drop(_span);
        let names: Vec<String> = t
            .recorder()
            .snapshot()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, ["parent.work"]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "innermost first")]
    fn closing_an_outer_span_first_is_caught() {
        let t = Tracer::new(16);
        let _entered = t.trace_root().enter();
        let outer = t.span("order.outer");
        let _inner = t.span("order.inner");
        drop(outer);
    }
}
