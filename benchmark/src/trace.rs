//! In-memory spans around the calls into each layer.
//!
//! Spans are recorded from the benchmark's own side of every boundary
//! (the engine sink's callbacks, the HTTP client calls, the probes' direct
//! calls), kept in memory, and written to `spans.jsonl` when the run ends.
//! A span's self time is its duration minus the part of it that its child
//! spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one campaign share this identifier.
    pub campaign: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, String)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds between the tracer's creation and `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        parent: Option<u32>,
        campaign: Option<u32>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        attrs: Vec<(&'static str, String)>,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            campaign,
            name,
            start_ns,
            end_ns,
            attrs,
        });
        id
    }

    /// Time one call as a root span; returns its result and duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start = self.now();
        let out = std::hint::black_box(f());
        let end = self.now();
        self.push(None, None, name, start, end, Vec::new());
        (out, end - start)
    }

    /// Self time per span name, in nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans {
            let covered = children
                .get_mut(&s.id)
                .map(|iv| covered_ns(iv, s.start_ns, s.end_ns))
                .unwrap_or(0);
            *out.entry(s.name).or_default() += s.dur_ns().saturating_sub(covered);
        }
        out
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let mut items = vec![
                ("id".to_string(), Json::Num(s.id as f64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                (
                    "campaign".to_string(),
                    s.campaign.map_or(Json::Null, |c| Json::Num(c as f64)),
                ),
                ("name".to_string(), Json::str(s.name)),
                ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
            ];
            if !s.attrs.is_empty() {
                items.push((
                    "attrs".to_string(),
                    Json::obj(s.attrs.iter().map(|(k, v)| (*k, Json::str(v.as_str())))),
                ));
            }
            out.push_str(&Json::Obj(items).to_line());
            out.push('\n');
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = t.push(None, Some(0), "root", 0, 100, vec![]);
        t.push(Some(root), Some(0), "child", 10, 40, vec![]);
        // Overlaps the first child and sticks out past the parent.
        t.push(Some(root), Some(0), "child", 30, 120, vec![]);
        let st = t.self_time_by_name();
        assert_eq!(st["root"], 10);
        assert_eq!(st["child"], 30 + 90);
    }

    #[test]
    fn spans_serialize_one_per_line() {
        let mut t = Tracer::new();
        let ((), ns) = t.time("probe", || ());
        assert_eq!(t.spans[0].dur_ns(), ns);
        t.push(
            Some(0),
            Some(3),
            "engine.trial",
            5,
            9,
            vec![("class", "stack".into())],
        );
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let v = crate::json::parse(text.lines().nth(1).unwrap()).unwrap();
        assert_eq!(v.get("campaign").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            v.get("attrs")
                .and_then(|a| a.get("class"))
                .and_then(Json::as_str),
            Some("stack")
        );
    }
}
