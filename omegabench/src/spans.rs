//! The traced run's span recorder.
//!
//! A span is `(name, start, end, parent, request id)`, recorded around a
//! public call from the benchmark's own code. Spans live in memory and
//! are written out once, at exit. Recording is off unless [`enable`] was
//! called; an inert span costs one branch.

use omega_bench::Json;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// One finished span. Times are nanoseconds since tracing was enabled;
/// `parent` and `req` are 0 when absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (never 0).
    pub id: u64,
    /// Enclosing span, or 0 for a root.
    pub parent: u64,
    /// Request id shared by the spans of one served request, or 0.
    pub req: u64,
    /// Layer-qualified name, e.g. `ligra.trace`.
    pub name: String,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// Turns recording on. Spans opened before this call stay inert.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ON.store(true, Ordering::SeqCst);
}

fn ns(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(epoch).as_nanos() as u64
}

fn push(record: SpanRecord) {
    SPANS
        .lock()
        .expect("no thread panics while holding the span list")
        .push(record);
}

/// An open span; records itself when dropped.
#[derive(Debug)]
pub struct Span {
    id: u64,
    parent: u64,
    req: u64,
    name: Cow<'static, str>,
    start: Instant,
}

impl Span {
    fn open(name: Cow<'static, str>, parent: u64, req: u64) -> Span {
        let id = if ON.load(Ordering::Relaxed) {
            NEXT_ID.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Span {
            id,
            parent,
            req,
            name,
            start: Instant::now(),
        }
    }

    /// A span with no parent.
    pub fn root(name: &'static str) -> Span {
        Span::open(Cow::Borrowed(name), 0, 0)
    }

    /// A span nested in `self`.
    pub fn child(&self, name: impl Into<Cow<'static, str>>) -> Span {
        self.request(name, self.req)
    }

    /// A span nested in `self` that belongs to request `req`.
    pub fn request(&self, name: impl Into<Cow<'static, str>>, req: u64) -> Span {
        if self.id == 0 {
            // Children of an inert span stay inert.
            return Span {
                id: 0,
                parent: 0,
                req,
                name: Cow::Borrowed(""),
                start: self.start,
            };
        }
        Span::open(name.into(), self.id, req)
    }

    /// Records a finished child whose interval the caller measured, e.g.
    /// one pipelined request from send to receive.
    pub fn record_child(&self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.id == 0 {
            return;
        }
        push(SpanRecord {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent: self.id,
            req,
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        push(SpanRecord {
            id: self.id,
            parent: self.parent,
            req: self.req,
            name: self.name.to_string(),
            start_ns: ns(self.start),
            end_ns: ns(Instant::now()),
        });
    }
}

/// Takes every recorded span, sorted by id.
pub fn take() -> Vec<SpanRecord> {
    let mut spans = std::mem::take(
        &mut *SPANS
            .lock()
            .expect("no thread panics while holding the span list"),
    );
    spans.sort_by_key(|s| s.id);
    spans
}

/// Spans whose parent is missing or does not contain them.
pub fn nesting_errors(spans: &[SpanRecord]) -> usize {
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    spans
        .iter()
        .filter(|s| s.parent != 0)
        .filter(|s| match by_id.get(&s.parent) {
            Some(p) => s.start_ns < p.start_ns || s.end_ns > p.end_ns,
            None => true,
        })
        .count()
}

/// Per span name: `(count, total ns, self ns)`. Self time is a span's
/// duration minus the union of its children's intervals.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - covered;
    }
    out
}

/// The spans and their self-time summary as one JSON document.
pub fn to_json(spans: &[SpanRecord]) -> Json {
    let num = |v: u64| Json::Num(v as f64);
    let mut summary = Json::obj();
    for (name, (count, total, own)) in self_times(spans) {
        let mut row = Json::obj();
        row.set("count", num(count));
        row.set("total_ns", num(total));
        row.set("self_ns", num(own));
        summary.set(&name, row);
    }
    let list = spans
        .iter()
        .map(|s| {
            let mut o = Json::obj();
            o.set("id", num(s.id));
            o.set("parent", num(s.parent));
            o.set("req", num(s.req));
            o.set("name", Json::Str(s.name.clone()));
            o.set("start_ns", num(s.start_ns));
            o.set("end_ns", num(s.end_ns));
            o
        })
        .collect();
    let mut doc = Json::obj();
    doc.set("self_time", summary);
    doc.set("spans", Json::Arr(list));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            req: 0,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children cover [10, 40) of a [0, 100) parent.
        let spans = [rec(1, 0, 0, 100), rec(2, 1, 10, 30), rec(3, 1, 20, 40)];
        let t = self_times(&spans);
        assert_eq!(t["s1"], (1, 100, 70));
        assert_eq!(t["s2"], (1, 20, 20));
        assert_eq!(nesting_errors(&spans), 0);
    }

    #[test]
    fn escaping_children_are_nesting_errors() {
        let spans = [rec(1, 0, 10, 20), rec(2, 1, 5, 15), rec(3, 9, 0, 1)];
        assert_eq!(nesting_errors(&spans), 2);
    }
}
