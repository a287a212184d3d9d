//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer (an exploration, a BFS level, a `System::run`, a request) and
//! kept in memory until the run ends, when they are written out as JSON
//! lines. Timed (untraced) passes never touch the recorder. A thread
//! records into its own [`Tracer::lane`], which shares the epoch and is
//! merged back with [`Tracer::adopt`], so recording takes no lock.

use std::io::Write as _;
use std::path::Path;

use slx_core::engine::Stopwatch;

/// One finished span: `[start_us, end_us]` microseconds since the
/// recorder was created, its parent span (if any), and the request or
/// pass it belongs to (all spans of one request share it).
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Request (serve) or pass (explore, simulate) identifier.
    pub request: u64,
    /// Layer boundary name, e.g. `engine.level`.
    pub name: &'static str,
    /// Start, microseconds since the recorder's epoch.
    pub start_us: f64,
    /// End, microseconds since the recorder's epoch.
    pub end_us: f64,
    /// Counters measured at this boundary.
    pub attrs: Vec<(&'static str, f64)>,
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start_us: f64,
}

impl OpenSpan {
    /// This span's id, for children to name as their parent.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Stopwatch,
    /// High bits of every id this recorder hands out, so lanes recorded
    /// on different threads never collide.
    lane: u64,
    next_id: u64,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Stopwatch::start(),
            lane: 0,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// An empty recorder for another thread: same epoch, ids in lane
    /// `lane + 1`. Hand its spans back with [`Tracer::adopt`].
    #[must_use]
    pub fn lane(&self, lane: u64) -> Self {
        Tracer {
            epoch: self.epoch,
            lane: (lane + 1) << 40,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Takes over the spans a lane recorded.
    pub fn adopt(&mut self, lane: Tracer) {
        self.spans.extend(lane.spans);
    }

    /// Microseconds since the recorder's epoch.
    #[must_use]
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.lane | self.next_id;
        self.next_id += 1;
        id
    }

    /// Starts a span now.
    #[must_use]
    pub fn open(&mut self, name: &'static str, parent: Option<u64>, request: u64) -> OpenSpan {
        OpenSpan {
            id: self.fresh_id(),
            parent,
            request,
            name,
            start_us: self.now_us(),
        }
    }

    /// Ends `span` now, with the counters measured inside it.
    pub fn close(&mut self, span: OpenSpan, attrs: Vec<(&'static str, f64)>) {
        let end_us = self.now_us();
        self.spans.push(Span {
            id: span.id,
            parent: span.parent,
            request: span.request,
            name: span.name,
            start_us: span.start_us,
            end_us,
            attrs,
        });
    }

    /// Records a span whose boundaries were observed elsewhere (a BFS
    /// level runs between two calls of the level hook).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        (start_us, end_us): (f64, f64),
        attrs: Vec<(&'static str, f64)>,
    ) {
        let id = self.fresh_id();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_us,
            end_us,
            attrs,
        });
    }

    /// Every span recorded so far, in id order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes every span as one JSON object per line; returns the count.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\
                 \"start_us\":{:.1},\"end_us\":{:.1}",
                s.id, s.request, s.name, s.start_us, s.end_us
            )?;
            for (key, value) in &s.attrs {
                write!(out, ",\"{key}\":{}", crate::report::json_number(*value))?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_parents_requests_and_order() {
        let mut tracer = Tracer::new();
        let outer = tracer.open("outer", None, 7);
        let outer_id = outer.id();
        let inner = tracer.open("inner", Some(outer_id), 7);
        tracer.close(inner, vec![("n", 3.0)]);
        tracer.close(outer, Vec::new());
        tracer.record("level", Some(outer_id), 7, (1.0, 2.0), Vec::new());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(outer_id));
        assert!(spans[1].start_us >= spans[0].start_us);
        assert!(spans[0].end_us >= spans[1].end_us);
        assert!(spans.iter().all(|s| s.request == 7));
    }

    #[test]
    fn lanes_share_the_epoch_and_never_reuse_ids() {
        let mut tracer = Tracer::new();
        let main = tracer.open("main", None, 0);
        let mut lane = tracer.lane(0);
        let other = lane.open("lane", None, 1);
        assert_ne!(main.id(), other.id());
        lane.close(other, Vec::new());
        tracer.close(main, Vec::new());
        tracer.adopt(lane);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[1].start_us >= spans[0].start_us);
    }
}
