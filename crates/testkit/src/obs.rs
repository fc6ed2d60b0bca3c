//! Hermetic tracing & metrics core.
//!
//! Everything the engine, solver, and wire driver need to explain where
//! time and SMT checks go, with zero crates.io dependencies:
//!
//! * **Spans & events** — per-thread buffers (plain `RefCell` pushes, no
//!   locks on the hot path) holding closed spans and point events with
//!   monotonic nanosecond timestamps. A thread's buffer is parked into a
//!   global list when the thread exits, so scoped worker threads hand
//!   their records to whoever calls [`drain`]/[`flush_trace`] after the
//!   join.
//! * **Metrics** — typed [`Counter`]s, [`Gauge`]s, and log2-bucket
//!   [`Histogram`]s in a global registry, rendered as Prometheus text
//!   exposition by [`metrics_text`]. The nearest-rank percentile index
//!   ([`percentile_index`]) is shared with `driver::report`'s latency
//!   p50/p99.
//! * **Config** — `MEISSA_TRACE=<path>` enables JSONL export (one JSON
//!   object per line, written with [`crate::json`]), `MEISSA_LOG=off|
//!   info|debug` enables stderr lines. Tests and benches use the
//!   programmatic [`trace_to`]/[`trace_off`]/[`set_log`] instead.
//! * **Disabled path** — every instrumentation site is gated on a single
//!   relaxed atomic load ([`active`]/[`trace_on`]); with all features
//!   off no allocation, locking, or clock read happens.
//!
//! Instrumentation must never perturb what it observes: recording is
//! strictly write-only side channel state, and the engine's own
//! `RunStats`/`ExecStats` counters are maintained independently of this
//! module (the suite asserts byte-identical output with tracing on and
//! off).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::Instant;

use crate::json::Json;

// ---------------------------------------------------------------------------
// Global enable flags — one relaxed load decides the whole disabled path.
// ---------------------------------------------------------------------------

const F_TRACE: u8 = 1 << 0;
const F_LOG_INFO: u8 = 1 << 1;
const F_LOG_DEBUG: u8 = 1 << 2;

static FLAGS: AtomicU8 = AtomicU8::new(0);

/// True when any observability feature (trace or logging) is on. Hot
/// call sites check this once before touching counters or clocks.
#[inline(always)]
pub fn active() -> bool {
    FLAGS.load(Ordering::Relaxed) != 0
}

/// True when span/event recording (JSONL trace) is enabled.
#[inline(always)]
pub fn trace_on() -> bool {
    FLAGS.load(Ordering::Relaxed) & F_TRACE != 0
}

/// Stderr log verbosity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    Off,
    Info,
    Debug,
}

/// True when `level` messages should reach stderr.
#[inline(always)]
pub fn log_on(level: LogLevel) -> bool {
    let f = FLAGS.load(Ordering::Relaxed);
    match level {
        LogLevel::Off => false,
        LogLevel::Info => f & (F_LOG_INFO | F_LOG_DEBUG) != 0,
        LogLevel::Debug => f & F_LOG_DEBUG != 0,
    }
}

fn set_flag(bit: u8, on: bool) {
    if on {
        FLAGS.fetch_or(bit, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// Sets the stderr log level (programmatic equivalent of `MEISSA_LOG`).
pub fn set_log(level: LogLevel) {
    set_flag(F_LOG_INFO | F_LOG_DEBUG, false);
    match level {
        LogLevel::Off => {}
        LogLevel::Info => set_flag(F_LOG_INFO, true),
        LogLevel::Debug => set_flag(F_LOG_DEBUG, true),
    }
}

/// Writes one stderr log line. Callers gate on [`log_on`] first so the
/// formatting cost is only paid when the level is enabled.
pub fn log(level: LogLevel, target: &str, msg: &str) {
    if log_on(level) {
        let tag = if level >= LogLevel::Debug { "debug" } else { "info" };
        eprintln!("[meissa {tag} {:>10}ns {target}] {msg}", now_ns());
    }
}

// ---------------------------------------------------------------------------
// Monotonic clock
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first observability call in this
/// process. All span/event timestamps share this epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Records & per-thread buffers
// ---------------------------------------------------------------------------

/// One finished trace record. Spans are recorded when they close; events
/// are instantaneous points attributed to the enclosing span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    Span {
        /// Process-unique span id (> 0).
        id: u64,
        /// Enclosing span id on the same thread, 0 for a root span.
        parent: u64,
        /// Process-unique observability thread id.
        tid: u64,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        fields: Vec<(&'static str, u64)>,
    },
    Event {
        tid: u64,
        /// Enclosing span id, 0 when emitted outside any span.
        span: u64,
        name: &'static str,
        at_ns: u64,
        fields: Vec<(&'static str, u64)>,
    },
    /// A structured payload that span/event fields cannot carry: `data` is
    /// pre-rendered JSON text (span/event field names must be `'static`,
    /// but e.g. a per-table coverage map is keyed by runtime strings).
    Note {
        tid: u64,
        name: &'static str,
        at_ns: u64,
        data: String,
    },
}

impl Record {
    fn sort_key(&self) -> (u64, u64) {
        match self {
            Record::Span { start_ns, id, .. } => (*start_ns, *id),
            Record::Event { at_ns, .. } => (*at_ns, u64::MAX),
            Record::Note { at_ns, .. } => (*at_ns, u64::MAX),
        }
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Records parked by exited threads, plus anything [`park_current_thread`]
/// handed over early.
static PARKED: Mutex<Vec<Record>> = Mutex::new(Vec::new());

struct ThreadState {
    tid: u64,
    /// Open-span stack (ids); top is the current parent.
    stack: Vec<u64>,
    buf: Vec<Record>,
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            if let Ok(mut parked) = PARKED.lock() {
                parked.append(&mut self.buf);
            }
        }
    }
}

thread_local! {
    static TLS: RefCell<ThreadState> = RefCell::new(ThreadState {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        buf: Vec::new(),
    });
}

fn with_tls<R>(f: impl FnOnce(&mut ThreadState) -> R) -> Option<R> {
    // `try_with` so a record emitted during TLS teardown is dropped
    // instead of panicking.
    TLS.try_with(|s| f(&mut s.borrow_mut())).ok()
}

/// Moves the calling thread's pending records into the global parked
/// list so another thread's [`drain`] can see them. Long-lived threads
/// (e.g. agent connection loops) call this at natural boundaries;
/// short-lived worker threads park automatically on exit, from their TLS
/// destructor. Only an explicit `JoinHandle::join` waits for that
/// destructor: the implicit join at the end of `std::thread::scope` may
/// return before it runs, so a caller that drains after a scope must join
/// its workers' handles (as the engine's explorer does).
pub fn park_current_thread() {
    with_tls(|s| {
        if !s.buf.is_empty() {
            if let Ok(mut parked) = PARKED.lock() {
                parked.append(&mut s.buf);
            }
        }
    });
}

/// Takes every record parked by exited threads plus the calling thread's
/// own buffer, sorted by start time. Live *other* threads keep their
/// buffers until they exit or park — callers drain after joining workers.
pub fn drain() -> Vec<Record> {
    let mut out = PARKED.lock().map(|mut p| std::mem::take(&mut *p)).unwrap_or_default();
    with_tls(|s| out.append(&mut s.buf));
    out.sort_by_key(Record::sort_key);
    out
}

// ---------------------------------------------------------------------------
// Spans & events
// ---------------------------------------------------------------------------

/// RAII guard for an open span; records the span into the thread buffer
/// on drop. Obtained from [`span`]. When tracing is disabled the guard is
/// inert and costs nothing beyond the flag load that produced it.
pub struct SpanGuard {
    live: bool,
    id: u64,
    name: &'static str,
    start_ns: u64,
    fields: Vec<(&'static str, u64)>,
}

impl SpanGuard {
    /// Attaches a numeric field, recorded when the span closes. No-op on
    /// an inert guard.
    pub fn field(&mut self, name: &'static str, value: u64) {
        if self.live {
            self.fields.push((name, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end = now_ns();
        let fields = std::mem::take(&mut self.fields);
        with_tls(|s| {
            // Pop up to and including our own id; tolerates skipped pops
            // if an inner guard leaked across a panic.
            while let Some(top) = s.stack.pop() {
                if top == self.id {
                    break;
                }
            }
            let parent = s.stack.last().copied().unwrap_or(0);
            s.buf.push(Record::Span {
                id: self.id,
                parent,
                tid: s.tid,
                name: self.name,
                start_ns: self.start_ns,
                dur_ns: end.saturating_sub(self.start_ns),
                fields,
            });
        });
    }
}

/// Opens a span. Returns an inert guard when tracing is off.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !trace_on() {
        return SpanGuard { live: false, id: 0, name, start_ns: 0, fields: Vec::new() };
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    with_tls(|s| s.stack.push(id));
    SpanGuard { live: true, id, name, start_ns, fields: Vec::new() }
}

/// Records an instantaneous event attributed to the current span.
#[inline]
pub fn event(name: &'static str, fields: &[(&'static str, u64)]) {
    if !trace_on() {
        return;
    }
    let at_ns = now_ns();
    with_tls(|s| {
        let span = s.stack.last().copied().unwrap_or(0);
        let tid = s.tid;
        s.buf.push(Record::Event { tid, span, name, at_ns, fields: fields.to_vec() });
    });
}

/// Records a structured note: `data` must be rendered JSON text (it is
/// embedded verbatim in the trace line). Use for payloads with runtime
/// keys — per-table coverage maps — that `event` fields cannot express.
pub fn note(name: &'static str, data: String) {
    if !trace_on() {
        return;
    }
    let at_ns = now_ns();
    with_tls(|s| {
        let tid = s.tid;
        s.buf.push(Record::Note { tid, name, at_ns, data });
    });
}

/// Records a span retroactively from explicit timestamps. Used where a
/// span's lifetime doesn't nest on the stack — e.g. a wire test case
/// whose send and verdict are separated by other cases in the window.
/// The span is parented under the caller's current open span.
pub fn span_closed(name: &'static str, start_ns: u64, dur_ns: u64, fields: &[(&'static str, u64)]) {
    if !trace_on() {
        return;
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    with_tls(|s| {
        let parent = s.stack.last().copied().unwrap_or(0);
        let tid = s.tid;
        s.buf.push(Record::Span {
            id,
            parent,
            tid,
            name,
            start_ns,
            dur_ns,
            fields: fields.to_vec(),
        });
    });
}

// ---------------------------------------------------------------------------
// Metrics: counters, gauges, histograms
// ---------------------------------------------------------------------------

/// Monotonically increasing counter.
#[derive(Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge.
#[derive(Default)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    pub fn set(&self, n: u64) {
        self.v.store(n, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

const HIST_BUCKETS: usize = 65;

/// Log2-bucket histogram: value `v` lands in bucket `bit_length(v)`
/// (bucket 0 holds zeros), so quantiles are exact to within one power of
/// two. Cheap enough for per-probe recording; exact percentiles stay in
/// `driver::report`, which keeps raw samples.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn record(&self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
    /// Nearest-rank quantile, reported as the lower bound of the bucket
    /// holding the ranked sample (0 for an empty histogram).
    pub fn quantile(&self, p: u32) -> u64 {
        let n = self.count() as usize;
        if n == 0 {
            return 0;
        }
        let rank = percentile_index(n, p);
        let mut seen = 0usize;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed) as usize;
            if seen > rank {
                return if idx == 0 { 0 } else { 1u64 << (idx - 1) };
            }
        }
        1u64 << (HIST_BUCKETS - 2)
    }
}

/// Index of the p-th percentile sample in a sorted slice of `len`
/// items — the same interpolation `driver::report` uses for latency
/// p50/p99, hoisted here so histogram quantiles and report percentiles
/// agree on rank selection. `len` must be > 0.
pub fn percentile_index(len: usize, p: u32) -> usize {
    ((p as usize) * (len - 1) + 50) / 100
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Hist(Arc<Histogram>),
}

static METRICS: Mutex<BTreeMap<&'static str, Metric>> = Mutex::new(BTreeMap::new());

/// Returns (registering on first use) the named counter. Call sites keep
/// the `Arc` in a `OnceLock` so the registry lock is paid once.
pub fn counter(name: &'static str) -> Arc<Counter> {
    let mut m = METRICS.lock().unwrap();
    match m.entry(name).or_insert_with(|| Metric::Counter(Arc::new(Counter::default()))) {
        Metric::Counter(c) => c.clone(),
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

/// Returns (registering on first use) the named gauge.
pub fn gauge(name: &'static str) -> Arc<Gauge> {
    let mut m = METRICS.lock().unwrap();
    match m.entry(name).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default()))) {
        Metric::Gauge(g) => g.clone(),
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

/// Returns (registering on first use) the named histogram.
pub fn histogram(name: &'static str) -> Arc<Histogram> {
    let mut m = METRICS.lock().unwrap();
    match m.entry(name).or_insert_with(|| Metric::Hist(Arc::new(Histogram::default()))) {
        Metric::Hist(h) => h.clone(),
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

/// Dotted metric name → Prometheus metric name (`smt.checks` →
/// `meissa_smt_checks`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("meissa_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Renders every registered metric in Prometheus text exposition format
/// (`# TYPE` line plus samples; histograms as summaries with p50/p99
/// quantile labels, `_count`, and `_sum`).
pub fn metrics_text() -> String {
    let m = METRICS.lock().unwrap();
    let mut out = String::new();
    for (name, metric) in m.iter() {
        let p = prom_name(name);
        match metric {
            Metric::Counter(c) => {
                out.push_str(&format!("# TYPE {p} counter\n{p} {}\n", c.get()));
            }
            Metric::Gauge(g) => {
                out.push_str(&format!("# TYPE {p} gauge\n{p} {}\n", g.get()));
            }
            Metric::Hist(h) => {
                out.push_str(&format!(
                    "# TYPE {p} summary\n\
                     {p}{{quantile=\"0.5\"}} {}\n\
                     {p}{{quantile=\"0.99\"}} {}\n\
                     {p}_sum {}\n\
                     {p}_count {}\n",
                    h.quantile(50),
                    h.quantile(99),
                    h.sum(),
                    h.count()
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Trace export (JSONL)
// ---------------------------------------------------------------------------

struct TraceSink {
    path: PathBuf,
    /// First flush truncates; later flushes append (one file can hold
    /// several engine runs).
    truncated: bool,
}

static SINK: Mutex<Option<TraceSink>> = Mutex::new(None);

/// Enables span/event recording and routes [`flush_trace`] output to
/// `path`. Discards any records buffered before the call so the file
/// starts clean. Programmatic equivalent of `MEISSA_TRACE=<path>`.
pub fn trace_to(path: impl Into<PathBuf>) {
    let _ = drain();
    *SINK.lock().unwrap() = Some(TraceSink { path: path.into(), truncated: false });
    set_flag(F_TRACE, true);
}

/// Stops span/event recording (the sink path is kept; a later
/// [`trace_to`] replaces it). Pending records stay buffered until the
/// next [`flush_trace`] or [`drain`].
pub fn trace_off() {
    set_flag(F_TRACE, false);
}

fn field_obj(fields: &[(&'static str, u64)]) -> Json {
    Json::Obj(fields.iter().map(|&(k, v)| (k.to_string(), Json::UInt(v as u128))).collect())
}

/// JSON form of one record — the schema `meissa-trace` consumes.
pub fn record_json(r: &Record) -> Json {
    match r {
        Record::Span { id, parent, tid, name, start_ns, dur_ns, fields } => Json::Obj(vec![
            ("t".into(), Json::Str("span".into())),
            ("name".into(), Json::Str((*name).into())),
            ("id".into(), Json::UInt(*id as u128)),
            ("parent".into(), Json::UInt(*parent as u128)),
            ("tid".into(), Json::UInt(*tid as u128)),
            ("start_ns".into(), Json::UInt(*start_ns as u128)),
            ("dur_ns".into(), Json::UInt(*dur_ns as u128)),
            ("fields".into(), field_obj(fields)),
        ]),
        Record::Event { tid, span, name, at_ns, fields } => Json::Obj(vec![
            ("t".into(), Json::Str("event".into())),
            ("name".into(), Json::Str((*name).into())),
            ("tid".into(), Json::UInt(*tid as u128)),
            ("span".into(), Json::UInt(*span as u128)),
            ("at_ns".into(), Json::UInt(*at_ns as u128)),
            ("fields".into(), field_obj(fields)),
        ]),
        Record::Note { tid, name, at_ns, data } => Json::Obj(vec![
            ("t".into(), Json::Str("note".into())),
            ("name".into(), Json::Str((*name).into())),
            ("tid".into(), Json::UInt(*tid as u128)),
            ("at_ns".into(), Json::UInt(*at_ns as u128)),
            (
                "data".into(),
                // Invalid payloads survive as a plain string rather than
                // corrupting the trace line.
                Json::parse(data).unwrap_or_else(|_| Json::Str(data.clone())),
            ),
        ]),
    }
}

/// Drains buffered records and appends them to the configured trace file
/// as JSONL, preceded (on the first flush) by a `meta` line and followed
/// by a snapshot of every registered metric. No-op without a sink.
pub fn flush_trace() -> std::io::Result<()> {
    let mut guard = SINK.lock().unwrap();
    let Some(sink) = guard.as_mut() else {
        return Ok(());
    };
    let records = {
        let mut out = PARKED.lock().map(|mut p| std::mem::take(&mut *p)).unwrap_or_default();
        with_tls(|s| out.append(&mut s.buf));
        out.sort_by_key(Record::sort_key);
        out
    };
    let first = !std::mem::replace(&mut sink.truncated, true);
    if let Some(dir) = sink.path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = if first {
        OpenOptions::new().create(true).write(true).truncate(true).open(&sink.path)?
    } else {
        OpenOptions::new().create(true).append(true).open(&sink.path)?
    };
    let mut text = String::new();
    if first {
        let meta = Json::Obj(vec![
            ("t".into(), Json::Str("meta".into())),
            ("version".into(), Json::UInt(1)),
        ]);
        text.push_str(&meta.to_text());
        text.push('\n');
    }
    for r in &records {
        text.push_str(&record_json(r).to_text());
        text.push('\n');
    }
    // Metric snapshot: cumulative values as of this flush.
    let m = METRICS.lock().unwrap();
    for (name, metric) in m.iter() {
        let row = match metric {
            Metric::Counter(c) => Json::Obj(vec![
                ("t".into(), Json::Str("counter".into())),
                ("name".into(), Json::Str((*name).into())),
                ("value".into(), Json::UInt(c.get() as u128)),
            ]),
            Metric::Gauge(g) => Json::Obj(vec![
                ("t".into(), Json::Str("gauge".into())),
                ("name".into(), Json::Str((*name).into())),
                ("value".into(), Json::UInt(g.get() as u128)),
            ]),
            Metric::Hist(h) => Json::Obj(vec![
                ("t".into(), Json::Str("hist".into())),
                ("name".into(), Json::Str((*name).into())),
                ("count".into(), Json::UInt(h.count() as u128)),
                ("sum".into(), Json::UInt(h.sum() as u128)),
                ("p50".into(), Json::UInt(h.quantile(50) as u128)),
                ("p99".into(), Json::UInt(h.quantile(99) as u128)),
            ]),
        };
        text.push_str(&row.to_text());
        text.push('\n');
    }
    f.write_all(text.as_bytes())
}

// ---------------------------------------------------------------------------
// Env-driven init
// ---------------------------------------------------------------------------

/// Reads `MEISSA_TRACE`, `MEISSA_LOG`, and `MEISSA_LEDGER` once per
/// process and configures the module accordingly. Cheap to call from
/// every engine entry point.
pub fn init_from_env() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        if let Ok(path) = std::env::var("MEISSA_TRACE") {
            if !path.is_empty() {
                trace_to(path);
            }
        }
        match std::env::var("MEISSA_LOG").as_deref() {
            Ok("info") => set_log(LogLevel::Info),
            Ok("debug") => set_log(LogLevel::Debug),
            _ => {}
        }
        if let Ok(path) = std::env::var("MEISSA_LEDGER") {
            if !path.is_empty() {
                ledger::ledger_to(path);
            }
        }
    });
}

/// Test helper: disables tracing/logging and discards buffered records
/// and the sink. Metric values persist (they are cumulative per
/// process).
pub fn reset_for_test() {
    FLAGS.store(0, Ordering::Relaxed);
    *SINK.lock().unwrap() = None;
    let _ = drain();
    ledger::ledger_off();
}

// ---------------------------------------------------------------------------
// Run ledger (append-only JSONL of RunRecords)
// ---------------------------------------------------------------------------

/// The persistent run ledger: an append-only JSONL file of self-contained
/// `RunRecord` objects (program hash, rule-set hash, config fingerprint,
/// run counters, coverage map, latency snapshot). Each line gets a
/// content-hashed `id` over its body, so identical runs produce identical
/// ids and any later mutation is detectable. Enabled by
/// `MEISSA_LEDGER=<path>` (via [`super::init_from_env`]) or
/// programmatically with [`ledger_to`].
///
/// Like the rest of this module, the ledger is a strictly write-only side
/// channel: whether it is enabled must never change an engine's templates,
/// stats, or goldens (`suite/tests/ledger_determinism.rs` asserts it).
pub mod ledger {
    use super::*;
    use std::sync::atomic::AtomicBool;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static LEDGER: Mutex<Option<PathBuf>> = Mutex::new(None);

    /// Routes [`append`] to `path` (created on first append, parent dirs
    /// included). Programmatic equivalent of `MEISSA_LEDGER=<path>`.
    pub fn ledger_to(path: impl Into<PathBuf>) {
        *LEDGER.lock().unwrap() = Some(path.into());
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// Disables the ledger and forgets the path.
    pub fn ledger_off() {
        ENABLED.store(false, Ordering::Relaxed);
        *LEDGER.lock().unwrap() = None;
    }

    /// Whether a ledger sink is configured. Gate record *construction* on
    /// this — hashing a program is not free.
    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// FNV-1a 64-bit over raw bytes: the ledger's content hash. Stable,
    /// dependency-free, and plenty for content addressing of run records
    /// (collisions only confuse a diff into comparing unlike runs, which
    /// the embedded counters then expose).
    pub fn content_hash(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Hex form of [`content_hash`] — the `id`/`program_hash` rendering.
    pub fn content_hash_hex(bytes: &[u8]) -> String {
        format!("{:016x}", content_hash(bytes))
    }

    /// Appends one record: `body` (a JSON object) is prefixed with an `id`
    /// content-hashed over the body's rendered text, then written as one
    /// JSONL line. Returns the id. No-op (returns an empty id) when the
    /// ledger is disabled, so call sites need no gating of their own —
    /// though they should gate record *construction* on [`enabled`].
    pub fn append(body: Json) -> std::io::Result<String> {
        let guard = LEDGER.lock().unwrap();
        let Some(path) = guard.as_ref() else {
            return Ok(String::new());
        };
        let body_fields = match body {
            Json::Obj(fields) => fields,
            other => vec![("body".to_string(), other)],
        };
        let body_text = Json::Obj(body_fields.clone()).to_text();
        let id = content_hash_hex(body_text.as_bytes());
        let mut fields = vec![("id".to_string(), Json::Str(id.clone()))];
        fields.extend(body_fields);
        let line = Json::Obj(fields).to_text();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(line.as_bytes())?;
        f.write_all(b"\n")?;
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Obs state is process-global; tests serialize on this.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_path_records_nothing() {
        let _g = lock();
        reset_for_test();
        {
            let mut s = span("quiet");
            s.field("x", 1);
            event("nope", &[("k", 2)]);
        }
        assert!(drain().is_empty());
        assert!(!active());
    }

    #[test]
    fn span_nesting_sets_parents() {
        let _g = lock();
        reset_for_test();
        set_flag(F_TRACE, true);
        {
            let mut outer = span("outer");
            outer.field("n", 7);
            {
                let _inner = span("inner");
                event("tick", &[("v", 3)]);
            }
        }
        set_flag(F_TRACE, false);
        let records = drain();
        assert_eq!(records.len(), 3);
        let (mut outer_id, mut inner_parent, mut event_span) = (0, 0, 0);
        let mut inner_id = 0;
        for r in &records {
            match r {
                Record::Span { name: "outer", id, parent, fields, .. } => {
                    outer_id = *id;
                    assert_eq!(*parent, 0);
                    assert_eq!(fields.as_slice(), &[("n", 7)]);
                }
                Record::Span { name: "inner", id, parent, .. } => {
                    inner_id = *id;
                    inner_parent = *parent;
                }
                Record::Event { name: "tick", span, fields, .. } => {
                    event_span = *span;
                    assert_eq!(fields.as_slice(), &[("v", 3)]);
                }
                other => panic!("unexpected record {other:?}"),
            }
        }
        assert_eq!(inner_parent, outer_id);
        assert_eq!(event_span, inner_id);
    }

    #[test]
    fn span_timestamps_are_monotonic_and_nested() {
        let _g = lock();
        reset_for_test();
        set_flag(F_TRACE, true);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        set_flag(F_TRACE, false);
        let recs = drain();
        let find = |n: &str| {
            recs.iter()
                .find_map(|r| match r {
                    Record::Span { name, start_ns, dur_ns, .. } if *name == n => {
                        Some((*start_ns, *dur_ns))
                    }
                    _ => None,
                })
                .unwrap()
        };
        let (os, od) = find("outer");
        let (is_, id) = find("inner");
        assert!(os <= is_, "inner starts after outer");
        assert!(is_ + id <= os + od, "inner ends before outer");
    }

    #[test]
    fn trace_file_is_valid_jsonl() {
        let _g = lock();
        reset_for_test();
        let path = std::env::temp_dir().join(format!("obs_test_{}.jsonl", std::process::id()));
        trace_to(&path);
        {
            let _s = span("root");
            event("e", &[("a", 1)]);
        }
        flush_trace().unwrap();
        trace_off();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut kinds = Vec::new();
        for line in text.lines() {
            let v = Json::parse(line).expect("line parses");
            kinds.push(v.get("t").and_then(|t| t.as_str().ok()).unwrap().to_string());
        }
        assert_eq!(kinds[0], "meta");
        assert!(kinds.iter().any(|k| k == "span"));
        assert!(kinds.iter().any(|k| k == "event"));
        let _ = std::fs::remove_file(&path);
        reset_for_test();
    }

    #[test]
    fn counters_and_gauges_register_once() {
        let _g = lock();
        let c = counter("test.counter_once");
        c.add(3);
        counter("test.counter_once").add(4);
        assert_eq!(counter("test.counter_once").get(), 7);
        let g = gauge("test.gauge_once");
        g.set(9);
        assert_eq!(gauge("test.gauge_once").get(), 9);
    }

    #[test]
    fn histogram_quantiles_are_log2_lower_bounds() {
        let _g = lock();
        let h = histogram("test.hist_q");
        for v in [1u64, 2, 3, 100, 100, 100, 100, 100, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 1606);
        // p50 of ten samples ranks into the 100s bucket: [64, 128).
        assert_eq!(h.quantile(50), 64);
        // p99 ranks into the 1000 bucket: [512, 1024).
        assert_eq!(h.quantile(99), 512);
    }

    #[test]
    fn percentile_index_matches_report_formula() {
        // Same formula driver::report used inline before the hoist.
        for (len, p) in [(1usize, 50u32), (10, 50), (10, 99), (100, 99), (7, 95)] {
            let expected = (p as usize * (len - 1) + 50) / 100;
            assert_eq!(percentile_index(len, p), expected);
        }
    }

    #[test]
    fn prometheus_text_has_type_lines() {
        let _g = lock();
        counter("test.prom_counter").add(5);
        gauge("test.prom_gauge").set(2);
        histogram("test.prom_hist").record(10);
        let text = metrics_text();
        assert!(text.contains("# TYPE meissa_test_prom_counter counter"));
        assert!(text.contains("meissa_test_prom_counter 5"));
        assert!(text.contains("# TYPE meissa_test_prom_gauge gauge"));
        assert!(text.contains("# TYPE meissa_test_prom_hist summary"));
        assert!(text.contains("meissa_test_prom_hist_count 1"));
        assert!(text.contains("quantile=\"0.5\""));
    }

    #[test]
    fn parked_records_survive_thread_exit() {
        let _g = lock();
        reset_for_test();
        set_flag(F_TRACE, true);
        std::thread::scope(|s| {
            // Joined explicitly: the scope's implicit join returns before
            // the worker's TLS destructor has parked its records.
            s.spawn(|| {
                let _sp = span("worker");
                event("inside", &[]);
            })
            .join()
            .expect("worker panicked");
        });
        set_flag(F_TRACE, false);
        let recs = drain();
        assert_eq!(recs.len(), 2, "worker records parked at thread exit: {recs:?}");
    }

    #[test]
    fn span_closed_records_retroactively() {
        let _g = lock();
        reset_for_test();
        set_flag(F_TRACE, true);
        span_closed("case", 100, 50, &[("id", 4)]);
        set_flag(F_TRACE, false);
        match drain().as_slice() {
            [Record::Span { name: "case", start_ns: 100, dur_ns: 50, fields, .. }] => {
                assert_eq!(fields.as_slice(), &[("id", 4)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Asserts `metrics_text` output is well-formed Prometheus text
    /// exposition: every line is a comment or `name[{labels}] value` with a
    /// numeric value.
    fn assert_prometheus_parseable(text: &str) {
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name_part, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("no value separator in {line:?}"));
            assert!(
                value.parse::<f64>().is_ok(),
                "non-numeric value in {line:?}"
            );
            let bare = name_part.split('{').next().unwrap();
            assert!(
                !bare.is_empty()
                    && bare
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line:?}"
            );
            if let Some(rest) = name_part.split_once('{').map(|(_, r)| r) {
                assert!(rest.ends_with('}'), "unclosed label set in {line:?}");
            }
        }
    }

    #[test]
    fn empty_histogram_quantiles_are_zero_and_exposition_parses() {
        let _g = lock();
        let h = histogram("test.hist_empty");
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        for p in [0, 50, 99, 100] {
            assert_eq!(h.quantile(p), 0, "p{p} of an empty histogram");
        }
        let text = metrics_text();
        assert!(text.contains("meissa_test_hist_empty_count 0"));
        assert_prometheus_parseable(&text);
    }

    #[test]
    fn single_sample_histogram_pins_every_quantile() {
        let _g = lock();
        let h = histogram("test.hist_single");
        h.record(100);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 100);
        // One sample: every rank lands in its bucket's lower bound [64,128).
        for p in [0, 50, 99, 100] {
            assert_eq!(h.quantile(p), 64, "p{p} of a single-sample histogram");
        }
        assert_prometheus_parseable(&metrics_text());
    }

    #[test]
    fn values_beyond_top_bucket_saturate_without_overflow() {
        let _g = lock();
        let h = histogram("test.hist_top");
        h.record(u64::MAX);
        h.record(1u64 << 63);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u64::MAX.wrapping_add(1u64 << 63), "sum wraps, count rules");
        // Both land in the top bucket; the reported quantile is the top
        // bucket's lower bound, not a wrapped/overflowed value.
        assert_eq!(h.quantile(50), 1u64 << 63);
        assert_eq!(h.quantile(99), 1u64 << 63);
        assert_prometheus_parseable(&metrics_text());
    }

    #[test]
    fn note_records_carry_embedded_json_payloads() {
        let _g = lock();
        reset_for_test();
        set_flag(F_TRACE, true);
        note("coverage", "[{\"table\":\"t\",\"rules\":[[0,1]]}]".to_string());
        set_flag(F_TRACE, false);
        let recs = drain();
        match recs.as_slice() {
            [Record::Note { name: "coverage", data, .. }] => {
                let v = record_json(&recs[0]);
                assert_eq!(v.get("t").unwrap().as_str().unwrap(), "note");
                // Payload embeds as structured JSON, not a quoted string.
                let emb = v.get("data").unwrap();
                assert!(matches!(emb, Json::Arr(_)), "{emb:?} from {data:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
        reset_for_test();
    }

    #[test]
    fn ledger_appends_content_hashed_lines() {
        let _g = lock();
        reset_for_test();
        let path = std::env::temp_dir().join(format!("obs_ledger_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert!(!ledger::enabled());
        // Disabled: append is a no-op returning an empty id.
        assert_eq!(ledger::append(Json::Obj(vec![])).unwrap(), "");

        ledger::ledger_to(&path);
        assert!(ledger::enabled());
        let body = || {
            Json::Obj(vec![
                ("kind".to_string(), Json::Str("engine.run".into())),
                ("smt_checks".to_string(), Json::UInt(42)),
            ])
        };
        let id1 = ledger::append(body()).unwrap();
        let id2 = ledger::append(body()).unwrap();
        let id3 = ledger::append(Json::Obj(vec![(
            "kind".to_string(),
            Json::Str("wire.soak".into()),
        )]))
        .unwrap();
        ledger::ledger_off();
        assert!(!ledger::enabled());

        assert_eq!(id1, id2, "identical bodies hash to identical ids");
        assert_ne!(id1, id3);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "append-only, one line per record");
        for (line, want_id) in lines.iter().zip([&id1, &id2, &id3]) {
            let v = Json::parse(line).expect("ledger line parses");
            assert_eq!(v.get("id").unwrap().as_str().unwrap(), want_id.as_str());
            // The id is reproducible from the body: strip it and re-hash.
            let Json::Obj(fields) = v else { panic!() };
            let body: Vec<_> = fields.into_iter().filter(|(k, _)| k != "id").collect();
            let rehash = ledger::content_hash_hex(Json::Obj(body).to_text().as_bytes());
            assert_eq!(&rehash, want_id);
        }
        let _ = std::fs::remove_file(&path);
    }
}
