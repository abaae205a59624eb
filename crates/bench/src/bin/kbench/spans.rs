//! Bench-side spans: every public call the driver makes goes through
//! [`Tracer::timed`], which always returns the call's wall and, in the
//! traced run only, also records `{id, parent, name, start_ns, end_ns,
//! rep}`. Spans stay in memory until the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 = no parent.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rep: u32,
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    /// Ids of the spans currently open on the driver thread.
    open: Vec<u64>,
    rep: u32,
}

/// A cheap handle; clones share one recorder, so the counting transport's
/// connections record under the tick that called them.
#[derive(Clone)]
pub struct Tracer {
    epoch: Instant,
    recorder: Option<Arc<Mutex<Recorder>>>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            recorder: None,
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            recorder: Some(Arc::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Nanoseconds since this tracer was made — the spans' clock.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_rep(&self, rep: u32) {
        if let Some(recorder) = &self.recorder {
            recorder.lock().expect("span recorder lock").rep = rep;
        }
    }

    /// Run `f`, return its result and wall seconds; record a span around
    /// it when tracing is on.
    pub fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let Some(recorder) = &self.recorder else {
            let t0 = Instant::now();
            let result = f();
            return (result, t0.elapsed().as_secs_f64());
        };
        let (id, start) = {
            let mut r = recorder.lock().expect("span recorder lock");
            let id = r.spans.len() as u64 + 1;
            let parent = r.open.last().copied().unwrap_or(0);
            let rep = r.rep;
            r.open.push(id);
            r.spans.push(Span {
                id,
                parent,
                name,
                start_ns: 0,
                end_ns: 0,
                rep,
            });
            (id, Instant::now())
        };
        let result = f();
        let end = Instant::now();
        let mut r = recorder.lock().expect("span recorder lock");
        r.open.pop();
        let span = &mut r.spans[id as usize - 1];
        span.start_ns = (start - self.epoch).as_nanos() as u64;
        span.end_ns = (end - self.epoch).as_nanos() as u64;
        (result, (end - start).as_secs_f64())
    }

    pub fn spans(&self) -> Vec<Span> {
        self.recorder
            .as_ref()
            .map(|r| r.lock().expect("span recorder lock").spans.clone())
            .unwrap_or_default()
    }
}

/// Per span name: calls, total time and self time (the span minus the
/// part of its interval its children cover).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn cover(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, lo);
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .remove(&s.id)
            .map_or(0, |kids| cover(kids, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += total;
        t.self_ns += total - covered;
    }
    out
}

/// Share of `[lo, hi]` the top-level spans cover: how much of a
/// repetition's wall the spans explain.
pub fn top_level_cover(spans: &[Span], lo: u64, hi: u64) -> f64 {
    let roots = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    if hi <= lo {
        0.0
    } else {
        cover(roots, lo, hi) as f64 / (hi - lo) as f64
    }
}

pub fn spans_json(workload: &str, spans: &[Span]) -> Json {
    let summary = totals_by_name(spans)
        .into_iter()
        .map(|(name, t)| {
            Json::obj()
                .with("name", name)
                .with("calls", t.calls)
                .with("total_ns", t.total_ns)
                .with("self_ns", t.self_ns)
        })
        .collect::<Vec<_>>();
    let spans = spans
        .iter()
        .map(|s| {
            Json::obj()
                .with("id", s.id)
                .with("parent", s.parent)
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with("rep", u64::from(s.rep))
        })
        .collect::<Vec<_>>();
    Json::obj()
        .with("workload", workload)
        .with("by_name", summary)
        .with("spans", spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..100; children 10..40 and 30..60 overlap (cover 50),
        // a third sticks out past the parent's end (90..120 -> 10).
        let spans = vec![
            span(1, 0, "tick", 0, 100),
            span(2, 1, "call", 10, 40),
            span(3, 1, "call", 30, 60),
            span(4, 1, "call", 90, 120),
            span(5, 2, "inner", 15, 20),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals["tick"].total_ns, 100);
        assert_eq!(totals["tick"].self_ns, 40);
        assert_eq!(totals["call"].calls, 3);
        assert_eq!(totals["call"].total_ns, 90);
        assert_eq!(totals["call"].self_ns, 85, "only span 2 has a child");
        assert_eq!(totals["inner"].self_ns, 5);
        assert!((top_level_cover(&spans, 0, 200) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn timed_nests_and_reports_wall_either_way() {
        let off = Tracer::off();
        let (v, secs) = off.timed("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());

        let on = Tracer::on();
        on.set_rep(2);
        let shared = on.clone();
        on.timed("outer", || {
            shared.timed("inner", || ());
            shared.timed("inner", || ());
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, 0);
        assert!(spans[1..]
            .iter()
            .all(|s| s.parent == spans[0].id && s.rep == 2));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let text = spans_json("w", &spans).render();
        assert_eq!(
            Json::parse(&text)
                .unwrap()
                .get("spans")
                .unwrap()
                .items()
                .len(),
            3
        );
    }
}
