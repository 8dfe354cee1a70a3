//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls *into* the simulator's public API from
//! the benchmark's own code (nothing is instrumented inside the program
//! under test). They are kept in memory and written once, at exit.

use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Times every span; records them only when tracing is on, so untraced
/// runs pay two clock reads per bracket and nothing else.
pub struct Tracer {
    record: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(record: bool) -> Tracer {
        Tracer {
            record,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn recording(&self) -> bool {
        self.record
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`; returns its result and wall
    /// time in seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start = self.now();
        let id = if self.record {
            self.spans.push(Span {
                name: name.to_string(),
                start,
                end: start,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            Some(self.spans.len() - 1)
        } else {
            None
        };
        let out = f(self);
        let end = self.now();
        if let Some(id) = id {
            self.spans[id].end = end;
            self.open.pop();
        }
        (out, end - start)
    }

    /// Adopt spans recorded by a child process: its roots become
    /// children of the currently open span, and its clock is shifted to
    /// start where that span did.
    pub fn adopt(&mut self, child: &[Span]) {
        let Some(&parent) = self.open.last() else {
            return;
        };
        let base = self.spans.len();
        let at = self.spans[parent].start;
        for s in child {
            self.spans.push(Span {
                name: s.name.clone(),
                start: s.start + at,
                end: s.end + at,
                parent: Some(s.parent.map_or(parent, |p| p + base)),
            });
        }
    }

    /// Index of the most recently opened span named `name`.
    pub fn find_last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Re-parent span `i` (a standalone re-measurement of work that
    /// happens inside `parent`).
    pub fn set_parent(&mut self, i: usize, parent: usize) {
        self.spans[i].parent = Some(parent);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time inside `spans[i]` not covered by its direct children.
    pub fn self_time(spans: &[Span], i: usize) -> f64 {
        let children: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.end - s.start)
            .sum();
        (spans[i].end - spans[i].start - children).max(0.0)
    }
}

pub fn spans_to_json(spans: &[Span], workload: &str) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut o = Json::obj();
                o.set("id", i)
                    .set("name", s.name.as_str())
                    .set("start_s", s.start)
                    .set("end_s", s.end)
                    .set(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    )
                    .set("self_s", Tracer::self_time(spans, i))
                    .set("workload", workload);
                o
            })
            .collect(),
    )
}

pub fn spans_from_json(j: &Json) -> Result<Vec<Span>, String> {
    j.as_arr()
        .ok_or("spans: not an array")?
        .iter()
        .map(|s| {
            Ok(Span {
                name: s.str("name")?.to_string(),
                start: s.num("start_s")?,
                end: s.num("end_s")?,
                parent: s.get("parent").and_then(Json::as_f64).map(|p| p as usize),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let outer = spans[0].end - spans[0].start;
        let inner = spans[1].end - spans[1].start;
        assert!((Tracer::self_time(spans, 0) - (outer - inner)).abs() < 1e-9);
        let back = spans_from_json(&spans_to_json(spans, "w")).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].parent, Some(0));
    }

    #[test]
    fn untraced_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let ((), secs) = t.span("x", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert!(t.spans().is_empty());
    }
}
