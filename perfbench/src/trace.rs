//! In-memory spans for the traced run.
//!
//! A span is a named host-time interval with the span that caused it.
//! Spans are recorded by the benchmark's own code around calls into the
//! library — never inside it — kept in memory while the run lasts, and
//! written out once at the end.

use crate::Host;
use beff_json::{Json, ToJson};

/// Index of a span in its [`Spans`] list.
pub type SpanId = usize;

/// One host-time interval, in seconds since the benchmark's clock
/// epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    /// Work done inside the span, in the unit its layer counts
    /// (simulated messages, bytes, jobs); 0 where nothing is counted.
    pub work: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

impl ToJson for Span {
    fn to_json(&self) -> Json {
        Json::object()
            .field("name", &self.name)
            .field("start", &self.start)
            .field("end", &self.end)
            .field("parent", &self.parent)
            .field("work", &self.work)
            .build()
    }
}

/// An append-only span list. A span is opened with its start time and
/// closed with its end time; children may be opened in between.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a span at `start`; its end is set by [`Spans::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>, start: f64) -> SpanId {
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start,
            parent,
            work: 0,
        });
        self.spans.len() - 1
    }

    /// Close span `id` at `end`, crediting it with `work`.
    pub fn close(&mut self, id: SpanId, end: f64, work: u64) {
        if let Some(s) = self.spans.get_mut(id) {
            s.end = end;
            s.work = work;
        }
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Spans whose name starts with `prefix`.
    pub fn named<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name.starts_with(prefix))
    }

    /// Total seconds of the spans whose name starts with `prefix`.
    pub fn secs(&self, prefix: &str) -> f64 {
        self.named(prefix).map(Span::secs).sum()
    }

    /// Total work of the spans whose name starts with `prefix`.
    pub fn work(&self, prefix: &str) -> u64 {
        self.named(prefix).map(|s| s.work).sum()
    }

    /// The part of span `id` that none of its direct children covers
    /// (children of one parent never overlap: they are sequential
    /// steps on one rank).
    pub fn self_secs(&self, id: SpanId) -> f64 {
        let Some(span) = self.spans.get(id) else {
            return 0.0;
        };
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        span.secs() - children
    }

    /// Append `other`; its span ids shift past the existing ones.
    pub fn adopt(&mut self, other: Spans) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }
}

impl ToJson for Spans {
    fn to_json(&self) -> Json {
        Json::array(&self.spans)
    }
}

/// Records spans on one rank of a simulated world (rank 0 in the
/// mirrors): a disabled recorder reads no clock and keeps nothing.
pub struct Recorder<'a> {
    host: &'a Host,
    spans: Spans,
    on: bool,
}

impl<'a> Recorder<'a> {
    pub fn new(host: &'a Host, on: bool) -> Self {
        Self {
            host,
            spans: Spans::new(),
            on,
        }
    }

    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        if self.on {
            self.spans.open(name, parent, self.host.now())
        } else {
            0
        }
    }

    pub fn close(&mut self, id: SpanId, work: u64) {
        if self.on {
            self.spans.close(id, self.host.now(), work);
        }
    }

    pub fn into_spans(self) -> Spans {
        self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Spans::new();
        let root = t.open("run", None, 0.0);
        let a = t.open("step.a", Some(root), 1.0);
        t.close(a, 3.0, 10);
        let b = t.open("step.b", Some(root), 3.0);
        t.close(b, 4.0, 5);
        t.close(root, 5.0, 0);
        assert_eq!(t.self_secs(root), 2.0);
        assert_eq!(t.secs("step."), 3.0);
        assert_eq!(t.work("step."), 15);
    }

    #[test]
    fn adopt_shifts_parent_ids() {
        let mut inner = Spans::new();
        let r = inner.open("inner", None, 0.0);
        let c = inner.open("inner.child", Some(r), 0.0);
        inner.close(c, 1.0, 0);
        inner.close(r, 1.0, 0);
        let mut outer = Spans::new();
        outer.open("outer", None, 0.0);
        outer.adopt(inner);
        assert_eq!(outer.all()[1].parent, None);
        assert_eq!(outer.all()[2].parent, Some(1));
    }
}
