//! In-memory spans recorded around calls into each layer, their self
//! times, the trace export, and the timing [`WalFs`] wrapper.
//!
//! Spans are recorded by the benchmark's own code only: around the public
//! functions it calls, and inside [`TimingFs`], which the service calls for
//! every WAL append and sync. A span carries its layer name, start and end
//! (nanoseconds since the tracer's epoch), the span that caused it, and the
//! request it belongs to.

use sag_service::{DirFs, WalError, WalFs};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the trace (never 0).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Layer boundary the span times, e.g. `service.handle`.
    pub name: &'static str,
    /// Request the span belongs to; 0 when not tied to one.
    pub request: u64,
    /// Start, nanoseconds since the tracer epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans from any thread; written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Parent and request that nested spans (the [`TimingFs`] ones) attach
    /// to; set by the ladder rungs around each call they time. Both are
    /// statistics-only values, so relaxed ordering suffices.
    parent: AtomicU64,
    request: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            parent: AtomicU64::new(0),
            request: AtomicU64::new(0),
        }
    }
}

impl Tracer {
    /// Nanoseconds from the epoch to `t`.
    #[must_use]
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span that ran from `start` to `end`.
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            request,
            start: self.ns(start),
            end: self.ns(end),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Add spans recorded in a thread-local buffer.
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .extend(spans);
    }

    /// Make `parent`/`request` the context of spans recorded by nested
    /// layers until the next call.
    pub fn enter(&self, parent: u64, request: u64) {
        self.parent.store(parent, Ordering::Relaxed);
        self.request.store(request, Ordering::Relaxed);
    }

    fn context(&self) -> (u64, u64) {
        (
            self.parent.load(Ordering::Relaxed),
            self.request.load(Ordering::Relaxed),
        )
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once; parts of a
/// child outside the parent are ignored).
#[must_use]
pub fn self_time(parent: &Span, children: &[Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = parent.start;
    for (s, e) in intervals {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    parent.dur() - covered
}

/// Per-layer totals over a trace: span count, summed duration and summed
/// self time (nanoseconds), keyed by span name.
#[must_use]
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(*s);
    }
    let mut layers: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for s in spans {
        let own = self_time(s, children.get(&s.id).map_or(&[], Vec::as_slice));
        let entry = layers.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += s.dur();
        entry.2 += own;
    }
    layers
}

/// Write `spans` as JSON lines, one span per line.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn export(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.request, s.start, s.end
        )?;
    }
    out.flush()
}

/// Counts kept by [`TimingFs`].
#[derive(Debug, Default)]
pub struct WalCounts {
    /// Bytes appended.
    pub bytes: AtomicU64,
    /// Sync (fsync) calls.
    pub syncs: AtomicU64,
}

/// A [`WalFs`] over a [`DirFs`] that counts bytes and syncs and records a
/// `wal.append` / `wal.sync` span for each call, nested under the tracer's
/// current context.
#[derive(Debug)]
pub struct TimingFs {
    inner: DirFs,
    counts: Arc<WalCounts>,
    tracer: Arc<Tracer>,
}

impl TimingFs {
    /// Wrap `inner`, counting into `counts` and recording into `tracer`.
    #[must_use]
    pub fn new(inner: DirFs, counts: Arc<WalCounts>, tracer: Arc<Tracer>) -> Self {
        TimingFs {
            inner,
            counts,
            tracer,
        }
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut DirFs) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let (parent, request) = self.tracer.context();
        let id = self.tracer.id();
        self.tracer
            .record(id, parent, name, request, start, Instant::now());
        out
    }
}

impl WalFs for TimingFs {
    fn append(&mut self, file: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.counts
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.timed("wal.append", |fs| fs.append(file, bytes))
    }

    fn sync(&mut self, file: &str) -> Result<(), WalError> {
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        self.timed("wal.sync", |fs| fs.sync(file))
    }

    fn replace(&mut self, file: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.inner.replace(file, bytes)
    }

    fn read(&self, file: &str) -> Result<Option<Vec<u8>>, WalError> {
        self.inner.read(file)
    }

    fn list(&self) -> Result<Vec<String>, WalError> {
        self.inner.list()
    }

    fn remove(&mut self, file: &str) -> Result<(), WalError> {
        self.inner.remove(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent == 0 { "parent" } else { "child" },
            request: 7,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(1, 0, 0, 100);
        assert_eq!(self_time(&parent, &[]), 100);
        // [10,30] and [20,40] overlap: 30 covered, not 40.
        let overlapping = [span(2, 1, 10, 30), span(3, 1, 20, 40)];
        assert_eq!(self_time(&parent, &overlapping), 70);
        // A child sticking out past the parent's end is clipped to it.
        let clipped = [span(2, 1, 10, 30), span(3, 1, 20, 40), span(4, 1, 90, 120)];
        assert_eq!(self_time(&parent, &clipped), 60);
        // Children covering everything leave no self time.
        assert_eq!(self_time(&parent, &[span(2, 1, 0, 100)]), 0);
    }

    #[test]
    fn layer_totals_nest_children_under_their_parents() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 50, 60),
            span(4, 0, 200, 250),
        ];
        let layers = layer_self_times(&spans);
        assert_eq!(layers["parent"], (2, 150, 120));
        assert_eq!(layers["child"], (2, 30, 30));
    }
}
