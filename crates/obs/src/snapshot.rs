//! Point-in-time copies of a registry, their quantile math, and the two
//! export formats (JSON for machines, an indented table for humans).

use crate::BUCKETS;

/// Approximate quantile from power-of-two buckets: the upper bound of the
/// bucket containing the target rank (0 when empty).
pub fn quantile(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = ((total as f64 * q).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= target {
            return 1u64 << i;
        }
    }
    1u64 << (BUCKETS - 1)
}

/// A histogram's state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, µs.
    pub sum_us: u64,
    /// Power-of-two buckets: bucket `i` counts samples in
    /// `[2^(i-1), 2^i)` µs (bucket 0 is `< 1µs`).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An all-zero snapshot (what an untouched histogram reports).
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum_us: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Mean sample, µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile, µs (bucket upper bound; 0 when empty).
    pub fn quantile_us(&self, q: f64) -> u64 {
        quantile(&self.buckets, q)
    }

    /// Median, µs (bucket upper bound).
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 99th percentile, µs (bucket upper bound).
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }

    /// Fold another histogram into this one bucket-by-bucket (used to
    /// aggregate latency across commands).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum_us += other.sum_us;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (m, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *m += b;
        }
    }
}

/// One metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's value.
    Counter(u64),
    /// A histogram's state.
    Histogram(HistogramSnapshot),
}

/// A named metric at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// The registered name (dot-separated by convention:
    /// `<layer>.<component>.<metric>`).
    pub name: String,
    /// The value.
    pub value: MetricValue,
}

/// A point-in-time copy of a whole registry, sorted by metric name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Every metric, sorted by name.
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// The counter `name`'s value, if registered (and a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| match &e.value {
                MetricValue::Counter(v) => Some(*v),
                MetricValue::Histogram(_) => None,
            })
    }

    /// The histogram `name`'s state, if registered (and a histogram).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| match &e.value {
                MetricValue::Histogram(h) => Some(h),
                MetricValue::Counter(_) => None,
            })
    }

    /// One JSON object keyed by metric name. Counters are numbers;
    /// histograms are objects:
    ///
    /// ```json
    /// {"core.pipeline.frames":147,
    ///  "store.journal.fsync_us":{"count":12,"sum_us":940,
    ///    "mean_us":78,"p50_us":64,"p99_us":256,"buckets":[0,1,...]}}
    /// ```
    ///
    /// Hand-rolled (names are workspace-controlled identifiers, values are
    /// integers) so the crate stays dependency-free; the workspace's
    /// serde_json shim parses it back verbatim, which the round-trip test
    /// pins.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, entry) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, &entry.name);
            out.push(':');
            match &entry.value {
                MetricValue::Counter(v) => out.push_str(&v.to_string()),
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"count\":{},\"sum_us\":{},\"mean_us\":{},\"p50_us\":{},\"p99_us\":{},\"buckets\":[",
                        h.count,
                        h.sum_us,
                        h.mean_us(),
                        h.p50_us(),
                        h.p99_us()
                    ));
                    for (j, b) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&b.to_string());
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push('}');
        out
    }

    /// Render the metrics under `prefix.` as an indented table (the shape
    /// the server's `metrics` command emits for the core and store
    /// layers). `None` if no metric matches.
    pub fn render_section(&self, prefix: &str) -> Option<String> {
        use std::fmt::Write as _;
        let dotted = format!("{prefix}.");
        let mut rows = self
            .entries
            .iter()
            .filter(|e| e.name.starts_with(&dotted))
            .peekable();
        rows.peek()?;
        let mut out = format!("{prefix}:\n");
        for entry in rows {
            match &entry.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "  {:<36} {v}", entry.name);
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "  {:<36} count {}  mean {}us  p50 {}us  p99 {}us",
                        entry.name,
                        h.count,
                        h.mean_us(),
                        h.p50_us(),
                        h.p99_us()
                    );
                }
            }
        }
        Some(out)
    }

    /// Render the metrics under `prefix.` as flat `name value` lines in
    /// the whole-stack stats grammar (`  <dotted.key> <integer>`, one
    /// metric per line). Counters emit one line; histograms emit
    /// `.count`, `.mean_us`, `.p50_us`, and `.p99_us` lines so every
    /// value stays a bare integer scripts can cut on whitespace.
    /// Returns an empty string when no metric matches.
    pub fn render_kv(&self, prefix: &str) -> String {
        use std::fmt::Write as _;
        let dotted = format!("{prefix}.");
        let mut out = String::new();
        for entry in self.entries.iter().filter(|e| e.name.starts_with(&dotted)) {
            match &entry.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "  {} {v}", entry.name);
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "  {}.count {}", entry.name, h.count);
                    let _ = writeln!(out, "  {}.mean_us {}", entry.name, h.mean_us());
                    let _ = writeln!(out, "  {}.p50_us {}", entry.name, h.p50_us());
                    let _ = writeln!(out, "  {}.p99_us {}", entry.name, h.p99_us());
                }
            }
        }
        out
    }
}

pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_edges() {
        assert_eq!(quantile(&[0; BUCKETS], 0.5), 0);
        let mut b = [0u64; BUCKETS];
        b[3] = 10;
        assert_eq!(quantile(&b, 0.5), 8);
        assert_eq!(quantile(&b, 0.99), 8);
        let full = [1u64; BUCKETS];
        assert_eq!(quantile(&full, 1.0), 1 << (BUCKETS - 1));
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = HistogramSnapshot::empty();
        let mut b = HistogramSnapshot::empty();
        a.count = 1;
        a.sum_us = 10;
        a.buckets[4] = 1;
        b.count = 2;
        b.sum_us = 100;
        b.buckets[4] = 1;
        b.buckets[7] = 1;
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum_us, 110);
        assert_eq!(a.buckets[4], 2);
        assert_eq!(a.buckets[7], 1);
    }

    #[test]
    fn json_escapes_names() {
        let snap = Snapshot {
            entries: vec![SnapshotEntry {
                name: "weird\"name\n".to_string(),
                value: MetricValue::Counter(1),
            }],
        };
        assert_eq!(snap.to_json(), "{\"weird\\\"name\\n\":1}");
    }

    #[test]
    fn render_kv_emits_stats_grammar() {
        let mut h = HistogramSnapshot::empty();
        h.count = 2;
        h.sum_us = 20;
        h.buckets[4] = 2;
        let snap = Snapshot {
            entries: vec![
                SnapshotEntry {
                    name: "router.partials".to_string(),
                    value: MetricValue::Counter(3),
                },
                SnapshotEntry {
                    name: "router.shard.0.rtt_us".to_string(),
                    value: MetricValue::Histogram(h),
                },
            ],
        };
        let text = snap.render_kv("router");
        assert_eq!(
            text,
            "  router.partials 3\n  router.shard.0.rtt_us.count 2\n  router.shard.0.rtt_us.mean_us 10\n  router.shard.0.rtt_us.p50_us 16\n  router.shard.0.rtt_us.p99_us 16\n"
        );
        // Every line obeys the `  <dotted.key> <integer>` grammar.
        for line in text.lines() {
            let rest = line.strip_prefix("  ").expect("two-space indent");
            let (key, value) = rest.split_once(' ').expect("key value");
            assert!(key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_'));
            value.parse::<u64>().expect("integer value");
        }
        assert_eq!(snap.render_kv("core"), "");
    }

    #[test]
    fn render_section_filters_by_prefix() {
        let snap = Snapshot {
            entries: vec![
                SnapshotEntry {
                    name: "core.pipeline.frames".to_string(),
                    value: MetricValue::Counter(9),
                },
                SnapshotEntry {
                    name: "corex.other".to_string(),
                    value: MetricValue::Counter(1),
                },
            ],
        };
        let text = snap.render_section("core").unwrap();
        assert!(text.starts_with("core:\n"));
        assert!(text.contains("core.pipeline.frames"));
        assert!(
            !text.contains("corex"),
            "prefix must match on a dot boundary"
        );
        assert!(snap.render_section("store").is_none());
    }
}
