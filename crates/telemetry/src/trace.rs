//! Request-scoped tracing and the in-process flight recorder.
//!
//! A **trace** is one unit of externally visible work — a service
//! request, or one mutation batch — identified by a process-unique
//! [`TraceId`] minted with [`mint_trace_id`] (or carried in from a
//! client via the frame codec's optional trace header). Within a
//! trace, RAII span guards ([`root_span`], [`span`]) time stages of
//! the pipeline and record one **event** each into the flight
//! recorder when dropped. The current trace context is kept in a
//! thread-local stack, so deep callees (the controller, the WAL) can
//! attach child spans without any signature changes — and code that
//! runs with no active trace (replay, the crash harness, benches)
//! records nothing at all.
//!
//! The **flight recorder** is a fixed set of sharded ring buffers of
//! atomic words: recording takes a handful of relaxed atomic stores,
//! never allocates, never blocks, and overwrites the oldest events
//! when full. Threads are spread round-robin across shards, so the
//! server's shard threads do not serialize on one head pointer. [`dump`] snapshots the rings into owned [`TraceEvent`]s
//! (newest last) for the `TraceDump` RPC and `iris trace dump`.
//!
//! Readers and writers synchronize per slot with a sequence word
//! (write 0, write fields, publish sequence). A reader that observes
//! a slot mid-write skips it; with pathological timing a torn read
//! could slip through, which is acceptable for a diagnostic ring —
//! no correctness decision is ever made from trace data.
//!
//! Two event flavours exist: **measured** spans carry wall-clock
//! start offsets (µs since the recorder epoch) and durations, while
//! **modeled** spans ([`emit_modeled`]) carry the controller's
//! modeled timeline (offsets relative to the parent span's start).
//! Wall-clock data never reaches the seeded deterministic artifacts;
//! the recorder is export-only via [`dump`].

use crate::{read_lock, write_lock};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// Ring shards; threads are assigned round-robin.
const SHARDS: usize = 8;
/// Slots per shard (events kept before overwrite, per shard).
const SLOTS: usize = 2048;
/// Atomic words per slot: seq, trace, span|parent, stage|flags,
/// start, duration.
const WORDS: usize = 6;
/// Retained slow-request log entries (oldest evicted).
const SLOW_LOG_CAP: usize = 64;
/// Flag bit: the event is a modeled timeline step, not a measurement.
const FLAG_MODELED: u64 = 1;

/// A process-unique trace identifier. The upper 32 bits carry a
/// per-process nonce (the PID) so ids minted by a client and a server
/// on the same machine do not collide in one dump.
pub type TraceId = u64;

struct Shard {
    /// Total events ever written to this shard; slot = head % SLOTS.
    head: AtomicU64,
    /// `SLOTS * WORDS` atomic words, see the slot layout above.
    words: Vec<AtomicU64>,
}

#[derive(Default)]
struct StageTable {
    names: Vec<String>,
    index: BTreeMap<String, u32>,
}

struct SlowRecord {
    trace_id: TraceId,
    op: String,
    total_ms: f64,
    at_us: u64,
}

struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    next_trace: AtomicU64,
    next_span: AtomicU32,
    next_seq: AtomicU64,
    next_shard: AtomicUsize,
    shards: Vec<Shard>,
    stages: RwLock<StageTable>,
    slow: Mutex<VecDeque<SlowRecord>>,
    slow_threshold_us: AtomicU64,
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        enabled: AtomicBool::new(true),
        next_trace: AtomicU64::new(1),
        next_span: AtomicU32::new(1),
        next_seq: AtomicU64::new(1),
        next_shard: AtomicUsize::new(0),
        shards: (0..SHARDS)
            .map(|_| Shard {
                head: AtomicU64::new(0),
                words: (0..SLOTS * WORDS).map(|_| AtomicU64::new(0)).collect(),
            })
            .collect(),
        stages: RwLock::new(StageTable::default()),
        slow: Mutex::new(VecDeque::new()),
        slow_threshold_us: AtomicU64::new(250_000),
    })
}

thread_local! {
    /// This thread's ring shard (usize::MAX = not yet assigned).
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    /// The active span stack: (trace id, span id), innermost last.
    static STACK: RefCell<Vec<(TraceId, u32)>> = const { RefCell::new(Vec::new()) };
}

fn thread_shard() -> usize {
    SHARD.with(|cell| {
        let mut s = cell.get();
        if s == usize::MAX {
            s = recorder().next_shard.fetch_add(1, Ordering::Relaxed) % SHARDS;
            cell.set(s);
        }
        s
    })
}

/// Turn the flight recorder on or off process-wide. Recording is on
/// by default; when off, span guards are inert (one atomic load).
pub fn set_enabled(on: bool) {
    recorder().enabled.store(on, Ordering::Relaxed);
}

/// Whether the flight recorder is currently recording.
#[must_use]
pub fn enabled() -> bool {
    recorder().enabled.load(Ordering::Relaxed)
}

/// Apply the `IRIS_TRACE` environment variable: `0`, `false`, or
/// `off` disables the recorder; anything else (including unset)
/// leaves it enabled. Returns the resulting state.
pub fn init_from_env() -> bool {
    let on = !matches!(
        std::env::var("IRIS_TRACE").as_deref(),
        Ok("0") | Ok("false") | Ok("off")
    );
    set_enabled(on);
    on
}

/// Mint a fresh trace id: PID nonce in the upper bits, a process
/// counter in the lower.
#[must_use]
pub fn mint_trace_id() -> TraceId {
    let n = recorder().next_trace.fetch_add(1, Ordering::Relaxed);
    (u64::from(std::process::id()) << 32) ^ n
}

/// The trace id of the innermost active span on this thread, if any.
#[must_use]
pub fn current_trace() -> Option<TraceId> {
    STACK.with(|s| s.borrow().last().map(|&(t, _)| t))
}

fn intern(stage: &str) -> u32 {
    let rec = recorder();
    if let Some(&idx) = read_lock(&rec.stages).index.get(stage) {
        return idx;
    }
    let mut table = write_lock(&rec.stages);
    if let Some(&idx) = table.index.get(stage) {
        return idx;
    }
    let idx = table.names.len() as u32;
    table.names.push(stage.to_owned());
    table.index.insert(stage.to_owned(), idx);
    idx
}

fn stage_name(idx: u32) -> String {
    read_lock(&recorder().stages)
        .names
        .get(idx as usize)
        .cloned()
        .unwrap_or_else(|| format!("stage-{idx}"))
}

fn now_us() -> u64 {
    recorder().epoch.elapsed().as_micros() as u64
}

/// Write one event into this thread's ring shard.
fn record_event(
    trace_id: TraceId,
    span_id: u32,
    parent_id: u32,
    stage: u32,
    flags: u64,
    start_us: u64,
    dur_us: u64,
) {
    let rec = recorder();
    let seq = rec.next_seq.fetch_add(1, Ordering::Relaxed);
    let shard = &rec.shards[thread_shard()];
    let slot = (shard.head.fetch_add(1, Ordering::Relaxed) as usize) % SLOTS;
    let w = &shard.words[slot * WORDS..(slot + 1) * WORDS];
    w[0].store(0, Ordering::Release); // invalidate while writing
    w[1].store(trace_id, Ordering::Release);
    w[2].store(
        (u64::from(span_id) << 32) | u64::from(parent_id),
        Ordering::Release,
    );
    w[3].store((u64::from(stage) << 32) | flags, Ordering::Release);
    w[4].store(start_us, Ordering::Release);
    w[5].store(dur_us, Ordering::Release);
    w[0].store(seq, Ordering::Release); // publish
}

/// RAII guard for one traced stage; records an event on drop.
/// Obtained from [`root_span`] or [`span`]; inert guards (recorder
/// off, or no active trace for [`span`]) record nothing.
#[derive(Debug)]
pub struct SpanGuard {
    active: bool,
    trace_id: TraceId,
    span_id: u32,
    parent_id: u32,
    stage: u32,
    start: Instant,
    start_us: u64,
    cancelled: bool,
}

impl SpanGuard {
    /// The span id of this guard (0 for inert guards).
    #[must_use]
    pub fn span_id(&self) -> u32 {
        self.span_id
    }

    /// Abandon the span without recording an event.
    pub fn cancel(mut self) {
        self.cancelled = true;
    }
}

fn inert() -> SpanGuard {
    SpanGuard {
        active: false,
        trace_id: 0,
        span_id: 0,
        parent_id: 0,
        stage: 0,
        start: Instant::now(),
        start_us: 0,
        cancelled: false,
    }
}

/// Open a root span for `trace_id`, making it the current trace on
/// this thread until the guard drops. Inert when the recorder is off.
#[must_use]
pub fn root_span(trace_id: TraceId, stage: &str) -> SpanGuard {
    open_span(Some(trace_id), stage)
}

/// Open a child span of the current trace. Inert when there is no
/// current trace on this thread or the recorder is off.
#[must_use]
pub fn span(stage: &str) -> SpanGuard {
    open_span(None, stage)
}

fn open_span(root: Option<TraceId>, stage: &str) -> SpanGuard {
    if !enabled() {
        return inert();
    }
    let (trace_id, parent_id) = match root {
        Some(t) => (t, 0),
        None => match STACK.with(|s| s.borrow().last().copied()) {
            Some((t, parent)) => (t, parent),
            None => return inert(),
        },
    };
    let rec = recorder();
    let span_id = rec.next_span.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push((trace_id, span_id)));
    // One clock reading serves both the duration base and the epoch
    // offset — clock reads are not free on every host.
    let start = Instant::now();
    SpanGuard {
        active: true,
        trace_id,
        span_id,
        parent_id,
        stage: intern(stage),
        start,
        start_us: start.duration_since(rec.epoch).as_micros() as u64,
        cancelled: false,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&(_, id)| id == self.span_id) {
                stack.truncate(pos);
            }
        });
        if !self.cancelled {
            record_event(
                self.trace_id,
                self.span_id,
                self.parent_id,
                self.stage,
                0,
                self.start_us,
                self.start.elapsed().as_micros() as u64,
            );
        }
    }
}

/// Record a **modeled** child event under the current span:
/// `start_ms`/`dur_ms` come from a model (the controller's
/// reconfiguration timeline), with the start offset relative to the
/// parent span, not the recorder epoch. No-op without a current trace.
pub fn emit_modeled(stage: &str, start_ms: f64, dur_ms: f64) {
    if !enabled() {
        return;
    }
    let Some((trace_id, parent_id)) = STACK.with(|s| s.borrow().last().copied()) else {
        return;
    };
    let rec = recorder();
    let span_id = rec.next_span.fetch_add(1, Ordering::Relaxed);
    record_event(
        trace_id,
        span_id,
        parent_id,
        intern(stage),
        FLAG_MODELED,
        (start_ms.max(0.0) * 1e3) as u64,
        (dur_ms.max(0.0) * 1e3) as u64,
    );
}

/// Record a measured child event under the current span from an
/// explicit `[start, end]` window (e.g. queue wait measured from an
/// op's enqueue timestamp). No-op without a current trace.
pub fn emit_window(stage: &str, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let Some((trace_id, parent_id)) = STACK.with(|s| s.borrow().last().copied()) else {
        return;
    };
    let rec = recorder();
    let span_id = rec.next_span.fetch_add(1, Ordering::Relaxed);
    let now = Instant::now();
    let start_us = now_us().saturating_sub(now.duration_since(start).as_micros() as u64);
    record_event(
        trace_id,
        span_id,
        parent_id,
        intern(stage),
        0,
        start_us,
        end.duration_since(start).as_micros() as u64,
    );
}

/// Set the slow-request threshold in milliseconds. Requests and
/// batches at or above it are kept in the slow-request log
/// (0 logs everything; the default is 250 ms).
pub fn set_slow_threshold_ms(ms: f64) {
    recorder()
        .slow_threshold_us
        .store((ms.max(0.0) * 1e3) as u64, Ordering::Relaxed);
}

/// Log `op` into the slow-request log if `total_ms` meets the
/// threshold. Returns whether it was logged.
pub fn note_if_slow(op: &str, total_ms: f64, trace_id: TraceId) -> bool {
    let rec = recorder();
    if !rec.enabled.load(Ordering::Relaxed) {
        return false;
    }
    let threshold = rec.slow_threshold_us.load(Ordering::Relaxed);
    if ((total_ms * 1e3) as u64) < threshold {
        return false;
    }
    let mut slow = rec.slow.lock().unwrap_or_else(PoisonError::into_inner);
    if slow.len() >= SLOW_LOG_CAP {
        slow.pop_front();
    }
    slow.push_back(SlowRecord {
        trace_id,
        op: op.to_owned(),
        total_ms,
        at_us: now_us(),
    });
    true
}

/// One recorded event, as exported by [`dump`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The trace this event belongs to.
    pub trace_id: TraceId,
    /// This span's id (unique within the process).
    pub span_id: u32,
    /// The parent span's id (0 = root of its trace).
    pub parent_id: u32,
    /// Pipeline stage name, e.g. `wal_fsync`.
    pub stage: String,
    /// Start offset: µs since the recorder epoch for measured events,
    /// µs relative to the parent span for modeled events.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Whether this is a modeled timeline step rather than a
    /// wall-clock measurement.
    pub modeled: bool,
    /// Global recording order (ascending).
    pub seq: u64,
}

/// One slow-request log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowEntry {
    /// The offending request's trace id.
    pub trace_id: TraceId,
    /// The request op (or `write_batch`).
    pub op: String,
    /// Total handling time in ms.
    pub total_ms: f64,
    /// When it was logged, µs since the recorder epoch.
    pub at_us: u64,
}

/// A snapshot of the flight recorder: ring events plus the slow log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecorderDump {
    /// Whether the recorder was enabled at dump time.
    pub enabled: bool,
    /// Events overwritten before they could be dumped (lower bound).
    pub dropped: u64,
    /// Recorded events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Slow-request log, oldest first.
    pub slow: Vec<SlowEntry>,
}

/// Snapshot the flight recorder: up to `max_events` newest events
/// (0 = everything retained) plus the slow-request log.
#[must_use]
pub fn dump(max_events: usize) -> RecorderDump {
    let rec = recorder();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for shard in &rec.shards {
        dropped += shard
            .head
            .load(Ordering::Relaxed)
            .saturating_sub(SLOTS as u64);
        for slot in 0..SLOTS {
            let w = &shard.words[slot * WORDS..(slot + 1) * WORDS];
            let seq = w[0].load(Ordering::Acquire);
            if seq == 0 {
                continue;
            }
            let trace_id = w[1].load(Ordering::Relaxed);
            let ids = w[2].load(Ordering::Relaxed);
            let meta = w[3].load(Ordering::Relaxed);
            let start_us = w[4].load(Ordering::Relaxed);
            let dur_us = w[5].load(Ordering::Relaxed);
            if w[0].load(Ordering::Acquire) != seq {
                continue; // overwritten mid-read
            }
            events.push(TraceEvent {
                trace_id,
                span_id: (ids >> 32) as u32,
                parent_id: ids as u32,
                stage: stage_name((meta >> 32) as u32),
                start_us,
                dur_us,
                modeled: meta & FLAG_MODELED != 0,
                seq,
            });
        }
    }
    events.sort_by_key(|e| e.seq);
    if max_events > 0 && events.len() > max_events {
        events.drain(..events.len() - max_events);
    }
    let slow = rec
        .slow
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|s| SlowEntry {
            trace_id: s.trace_id,
            op: s.op.clone(),
            total_ms: s.total_ms,
            at_us: s.at_us,
        })
        .collect();
    RecorderDump {
        enabled: enabled(),
        dropped,
        events,
        slow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All recording assertions live in one test so the
    /// enable/disable toggling cannot race with parallel tests in
    /// this binary.
    #[test]
    fn spans_record_trees_modeled_events_and_respect_the_switch() {
        // A root span with a nested child and a modeled step.
        let trace = mint_trace_id();
        let (root_id, child_id);
        {
            let root = root_span(trace, "write_batch");
            root_id = root.span_id();
            assert_eq!(current_trace(), Some(trace));
            {
                let child = span("wal_append");
                child_id = child.span_id();
                emit_modeled("drain", 0.0, 15.0);
            }
        }
        assert_eq!(current_trace(), None);

        let d = dump(0);
        let mine: Vec<_> = d.events.iter().filter(|e| e.trace_id == trace).collect();
        assert_eq!(mine.len(), 3, "root + child + modeled: {mine:?}");
        let root_ev = mine.iter().find(|e| e.stage == "write_batch").unwrap();
        let child_ev = mine.iter().find(|e| e.stage == "wal_append").unwrap();
        let modeled = mine.iter().find(|e| e.stage == "drain").unwrap();
        assert_eq!(root_ev.parent_id, 0);
        assert_eq!(root_ev.span_id, root_id);
        assert_eq!(child_ev.parent_id, root_id);
        assert_eq!(child_ev.span_id, child_id);
        assert_eq!(modeled.parent_id, child_id, "modeled under innermost span");
        assert!(modeled.modeled);
        assert_eq!(modeled.dur_us, 15_000);
        assert!(!child_ev.modeled);
        assert!(root_ev.dur_us >= child_ev.dur_us);

        // A span with no active trace is inert.
        {
            let orphan = span("orphan_stage");
            assert_eq!(orphan.span_id(), 0);
        }
        assert!(!dump(0).events.iter().any(|e| e.stage == "orphan_stage"));

        // Cancel records nothing.
        let cancelled_trace = mint_trace_id();
        root_span(cancelled_trace, "cancelled").cancel();
        assert!(!dump(0).events.iter().any(|e| e.trace_id == cancelled_trace));

        // Disabled recorder records nothing, then recovers.
        set_enabled(false);
        assert!(!enabled());
        let silent = mint_trace_id();
        {
            let _g = root_span(silent, "silent");
            emit_modeled("silent_child", 0.0, 1.0);
        }
        set_enabled(true);
        assert!(!dump(0).events.iter().any(|e| e.trace_id == silent));

        // Slow log: gate at 0 logs everything; high gate logs nothing.
        set_slow_threshold_ms(0.0);
        assert!(note_if_slow("unit_test_op", 0.01, trace));
        set_slow_threshold_ms(1e9);
        assert!(!note_if_slow("unit_test_op_fast", 0.01, trace));
        set_slow_threshold_ms(250.0);
        let d = dump(0);
        assert!(d.slow.iter().any(|s| s.op == "unit_test_op"));
        assert!(!d.slow.iter().any(|s| s.op == "unit_test_op_fast"));

        // Ring overwrite: flood one thread's shard past capacity.
        let flood = mint_trace_id();
        for _ in 0..SLOTS + 64 {
            let _g = root_span(flood, "flood");
        }
        let d = dump(0);
        assert!(d.dropped > 0, "flood must overwrite: {}", d.dropped);
        // Bounded dump size.
        let capped = dump(10);
        assert!(capped.events.len() <= 10);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
