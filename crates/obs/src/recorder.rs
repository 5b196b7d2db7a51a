//! Hierarchical spans and the fixed-capacity flight recorder.
//!
//! A [`Span`] is an RAII guard: entering pushes one level onto a
//! thread-local depth stack and samples the monotonic clock; dropping pops
//! the level and records one complete [`TraceEvent`] into whichever
//! recorder is active. Two sinks exist:
//!
//! * a process-global recorder installed once with
//!   [`install_global_recorder`] (what the daemon and CLI tools use), and
//! * an optional thread-local recorder bound with [`bind_thread_recorder`]
//!   (what tests use so parallel test threads do not see each other's
//!   events). The thread-local binding wins when both are set.
//!
//! When neither sink is active, [`Span::enter`] returns an inert guard:
//! no clock read, no allocation, no depth bookkeeping — one relaxed atomic
//! load plus one thread-local flag check. That is the "negligible overhead
//! when disabled" contract the runtime's byte-identity tests rely on.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One completed span, timestamped in nanoseconds since the process-local
/// recorder epoch (a monotonic clock, not wall time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name, e.g. `mpc.solve` or `cell.price_spike`.
    pub name: Cow<'static, str>,
    /// Coarse category for trace-viewer filtering, e.g. `solver`, `runtime`.
    pub cat: &'static str,
    /// Start of the span, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Small sequential id of the recording thread.
    pub tid: u64,
    /// Nesting depth at entry (0 = top level on its thread).
    pub depth: u32,
}

/// Nanoseconds since the process-local monotonic epoch (first call wins).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: Cell<u64> = const { Cell::new(0) };
    }
    TID.with(|tid| {
        if tid.get() == 0 {
            tid.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        tid.get()
    })
}

struct Ring {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// Fixed-capacity ring buffer of completed spans. When full, the oldest
/// event is evicted and counted in [`dropped`](Self::dropped) — the
/// recorder always holds the most recent window, which is what you want
/// when dumping a trace after something went wrong.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<Ring>,
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("events", &self.events.len())
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(Ring {
                events: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    /// Appends `event`, evicting the oldest when at capacity.
    pub fn record(&self, event: TraceEvent) {
        let mut ring = self.inner.lock().expect("recorder mutex");
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// A copy of the buffered events sorted by start time (stable across
    /// threads, so exported `ts` values are monotonically non-decreasing).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let ring = self.inner.lock().expect("recorder mutex");
        let mut events: Vec<TraceEvent> = ring.events.iter().cloned().collect();
        events.sort_by_key(|e| (e.start_ns, e.tid, e.depth));
        events
    }

    /// Discards all buffered events (the dropped counter is kept).
    pub fn clear(&self) {
        self.inner.lock().expect("recorder mutex").events.clear();
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder mutex").events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Buffer capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted so far because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("recorder mutex").dropped
    }
}

static GLOBAL: OnceLock<Arc<FlightRecorder>> = OnceLock::new();
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static LOCAL_SINK: RefCell<Option<Arc<FlightRecorder>>> = const { RefCell::new(None) };
    static LOCAL_BOUND: Cell<bool> = const { Cell::new(false) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Installs (or returns the already-installed) process-global flight
/// recorder and enables global span recording. The capacity of the first
/// call wins; later calls return the existing recorder.
pub fn install_global_recorder(capacity: usize) -> Arc<FlightRecorder> {
    let rec = GLOBAL.get_or_init(|| Arc::new(FlightRecorder::new(capacity)));
    GLOBAL_ENABLED.store(true, Ordering::SeqCst);
    Arc::clone(rec)
}

/// The global recorder, if one was installed.
pub fn global_recorder() -> Option<Arc<FlightRecorder>> {
    if GLOBAL_ENABLED.load(Ordering::Relaxed) {
        GLOBAL.get().cloned()
    } else {
        None
    }
}

/// Whether any global recorder is installed (thread-local bindings are not
/// reflected here).
pub fn tracing_enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed)
}

/// Whether a span opened on this thread now would be recorded: a
/// thread-local recorder is bound, or a global one is installed. Cheap (no
/// clock read, no reference count), so hot code can gate its own timing on
/// it and stay clock-free when nothing listens.
pub fn recording() -> bool {
    LOCAL_BOUND.with(|b| b.get()) || GLOBAL_ENABLED.load(Ordering::Relaxed)
}

/// Binds (or with `None` unbinds) a recorder for the current thread only.
/// A bound thread-local recorder takes precedence over the global one;
/// tests use this to observe spans without cross-test interference.
pub fn bind_thread_recorder(recorder: Option<Arc<FlightRecorder>>) {
    LOCAL_BOUND.with(|b| b.set(recorder.is_some()));
    LOCAL_SINK.with(|sink| *sink.borrow_mut() = recorder);
}

fn current_sink() -> Option<Arc<FlightRecorder>> {
    if LOCAL_BOUND.with(|b| b.get()) {
        LOCAL_SINK.with(|sink| sink.borrow().clone())
    } else {
        global_recorder()
    }
}

/// Current span nesting depth on this thread (0 outside any live span).
pub fn span_depth() -> u32 {
    DEPTH.with(|d| d.get())
}

struct ActiveSpan {
    recorder: Arc<FlightRecorder>,
    name: Cow<'static, str>,
    cat: &'static str,
    start_ns: u64,
    depth: u32,
}

/// RAII span guard. Construct with [`Span::enter`]; the span closes and is
/// recorded when the guard drops. Inert (zero bookkeeping) when no
/// recorder is active.
#[must_use = "a span records on drop; binding it to _ closes it immediately"]
pub struct Span(Option<ActiveSpan>);

impl Span {
    /// Opens a span in the default `app` category.
    pub fn enter(name: impl Into<Cow<'static, str>>) -> Span {
        Span::enter_cat(name, "app")
    }

    /// Opens a span with an explicit category.
    pub fn enter_cat(name: impl Into<Cow<'static, str>>, cat: &'static str) -> Span {
        Span::open(cat, || name.into())
    }

    /// Opens a span named by a borrowed string, which is copied only when a
    /// recorder is listening: with none installed, opening and closing the
    /// span allocates nothing.
    pub fn enter_copied(name: &str, cat: &'static str) -> Span {
        Span::open(cat, || Cow::Owned(name.to_owned()))
    }

    fn open(cat: &'static str, name: impl FnOnce() -> Cow<'static, str>) -> Span {
        match current_sink() {
            None => Span(None),
            Some(recorder) => {
                let depth = DEPTH.with(|d| {
                    let depth = d.get();
                    d.set(depth + 1);
                    depth
                });
                Span(Some(ActiveSpan {
                    recorder,
                    name: name(),
                    cat,
                    start_ns: now_ns(),
                    depth,
                }))
            }
        }
    }

    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            let end_ns = now_ns();
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            active.recorder.record(TraceEvent {
                name: active.name,
                cat: active.cat,
                start_ns: active.start_ns,
                dur_ns: end_ns.saturating_sub(active.start_ns),
                tid: thread_id(),
                depth: active.depth,
            });
        }
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("Span(inert)"),
            Some(a) => f
                .debug_struct("Span")
                .field("name", &a.name)
                .field("depth", &a.depth)
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_span_without_any_recorder() {
        bind_thread_recorder(None);
        // LOCAL_BOUND is false here, but the global may have been installed
        // by a sibling test; bind an explicit throwaway local to isolate.
        let rec = Arc::new(FlightRecorder::new(4));
        bind_thread_recorder(Some(Arc::clone(&rec)));
        bind_thread_recorder(None);
        // With LOCAL_BOUND unset this thread falls back to the global; we
        // cannot assert global state here, so only check depth neutrality.
        let before = span_depth();
        {
            let _s = Span::enter("noop");
        }
        assert_eq!(span_depth(), before);
        let _ = rec;
    }

    #[test]
    fn spans_nest_and_record_on_drop() {
        let rec = Arc::new(FlightRecorder::new(16));
        bind_thread_recorder(Some(Arc::clone(&rec)));
        {
            let _outer = Span::enter_cat("outer", "test");
            assert_eq!(span_depth(), 1);
            {
                let _inner = Span::enter_cat("inner", "test");
                assert_eq!(span_depth(), 2);
            }
            assert_eq!(span_depth(), 1);
        }
        bind_thread_recorder(None);
        assert_eq!(span_depth(), 0);
        let events = rec.snapshot();
        assert_eq!(events.len(), 2);
        // Inner closed first but outer started first.
        assert_eq!(events[0].name, "outer");
        assert_eq!(events[0].depth, 0);
        assert_eq!(events[1].name, "inner");
        assert_eq!(events[1].depth, 1);
        assert!(events[1].start_ns >= events[0].start_ns);
        assert!(events[0].dur_ns >= events[1].dur_ns);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let rec = FlightRecorder::new(2);
        for i in 0..5u64 {
            rec.record(TraceEvent {
                name: Cow::Owned(format!("e{i}")),
                cat: "test",
                start_ns: i,
                dur_ns: 1,
                tid: 1,
                depth: 0,
            });
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        let names: Vec<_> = rec.snapshot().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["e3", "e4"]);
    }
}
