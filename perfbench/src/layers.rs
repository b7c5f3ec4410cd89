//! Reading a `pace-trace` JSONL file back into spans and totals.

use std::collections::BTreeMap;
use std::path::Path;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// Span name.
    pub name: String,
    /// Thread ordinal.
    pub tid: u64,
    /// Nesting depth on that thread at entry.
    pub depth: u64,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Duration minus the time its direct children cover.
    pub self_ns: u64,
}

/// All spans of one trace file.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    spans: Vec<SpanRec>,
}

impl Spans {
    /// Parses `ev: "span"` lines; other lines and unparsable lines are
    /// skipped. Self times are computed from the per-thread nesting.
    pub fn parse(text: &str) -> Self {
        let mut spans: Vec<SpanRec> = text
            .lines()
            .filter_map(pace_trace::read::parse_line)
            .filter(|m| m.get("ev").and_then(|v| v.as_str()) == Some("span"))
            .filter_map(|m| {
                let num = |k: &str| m.get(k).and_then(|v| v.as_u64());
                Some(SpanRec {
                    name: m.get("name")?.as_str()?.to_string(),
                    tid: num("tid")?,
                    depth: num("depth")?,
                    start_ns: num("start_ns")?,
                    dur_ns: num("dur_ns")?,
                    self_ns: 0,
                })
            })
            .collect();
        spans.sort_by_key(|s| (s.tid, s.start_ns, s.depth));
        let mut child_ns = vec![0u64; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..spans.len() {
            while let Some(&top) = stack.last() {
                let t = &spans[top];
                let same_thread = t.tid == spans[i].tid;
                let encloses = spans[i].start_ns < t.start_ns + t.dur_ns.max(1);
                if same_thread && encloses && t.depth < spans[i].depth {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                if spans[parent].depth + 1 == spans[i].depth {
                    child_ns[parent] += spans[i].dur_ns;
                }
            }
            stack.push(i);
        }
        for (s, c) in spans.iter_mut().zip(child_ns) {
            s.self_ns = s.dur_ns.saturating_sub(c);
        }
        Self { spans }
    }

    /// Reads and parses a trace file (empty when unreadable).
    pub fn read(path: &Path) -> Self {
        Self::parse(&std::fs::read_to_string(path).unwrap_or_default())
    }

    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s SpanRec> + 's {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    /// Total seconds of spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ns).sum::<u64>() as f64 * 1e-9
    }

    /// Total self seconds of spans called `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.self_ns).sum::<u64>() as f64 * 1e-9
    }

    /// Every duration of spans called `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns as f64 * 1e-6).collect()
    }

    /// Span totals in seconds by name.
    pub fn totals(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name.clone()).or_insert(0.0) += s.dur_ns as f64 * 1e-9;
        }
        out
    }
}
