//! Spans recorded by the benchmark around the calls it makes into the
//! program. Kept in memory and written once, when the run ends. A
//! disabled recorder reads no clock, so the end-to-end run carries none of
//! this; the traced run's extra wall is reported as `obs.trace_overhead_pct`.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn enabled() -> Self {
        Spans {
            origin: Some(Instant::now()),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Self {
        Spans {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let Some(origin) = self.origin else {
            return f(self);
        };
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn json(&self, workload: &str) -> Json {
        let selfs = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ns)| {
                    Json::obj([
                        ("id", Json::Num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("name", Json::str(&s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(self_ns as f64)),
                        ("workload", Json::str(workload)),
                    ])
                })
                .collect(),
        )
    }
}

/// Each span's duration minus the part of it its child spans cover. The
/// benchmark is single-threaded, so siblings never overlap and the covered
/// part is the sum of the children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            selfs[p] = selfs[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 70),
            span(3, Some(1), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn scopes_nest_and_close() {
        let mut spans = Spans::enabled();
        let v = spans.scope("outer", |s| s.scope("inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(spans.spans.len(), 2);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert!(spans.spans[0].end_ns >= spans.spans[1].end_ns);
        assert!(spans.open.is_empty());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::disabled();
        assert_eq!(spans.scope("x", |_| 1), 1);
        assert!(spans.spans.is_empty());
    }
}
