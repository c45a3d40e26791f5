//! Exporters: the JSON metrics document and the human text table.
//!
//! The JSON writer is hand-rolled (this crate has no serde) but emits a
//! strict, deterministic subset: object keys in catalog/insertion order,
//! `\u`-escaped control characters, and non-finite floats clamped to `0`
//! so the document always parses.

use crate::event::HistogramId;
use crate::registry::MetricsSnapshot;

/// A complete metrics document: free-form metadata, the counter/histogram
/// snapshot, and named stage wall-times.
///
/// Top-level JSON keys are fixed — `meta`, `counters`, `histograms`,
/// `stages` — and validated by `scripts/ci.sh`. Counters and histograms
/// are deterministic across `--jobs`; `meta` and `stages` carry the
/// machine-dependent context (compare with them stripped, as
/// `RunStats::strip_timing` does).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDoc {
    meta: Vec<(String, String)>,
    snapshot: MetricsSnapshot,
    stages: Vec<(String, f64)>,
}

impl MetricsDoc {
    /// Wrap a snapshot with no metadata or stages yet.
    pub fn new(snapshot: MetricsSnapshot) -> MetricsDoc {
        MetricsDoc {
            meta: Vec::new(),
            snapshot,
            stages: Vec::new(),
        }
    }

    /// Append a metadata entry (insertion order is preserved).
    pub fn push_meta(&mut self, key: &str, value: impl Into<String>) {
        self.meta.push((key.to_string(), value.into()));
    }

    /// Append a stage wall-time in milliseconds.
    pub fn push_stage(&mut self, name: &str, ms: f64) {
        self.stages.push((name.to_string(), ms));
    }

    /// The wrapped snapshot.
    pub fn snapshot(&self) -> &MetricsSnapshot {
        &self.snapshot
    }

    /// Serialize as a pretty-printed JSON object with the four fixed
    /// top-level keys.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"meta\": {");
        for (i, (key, value)) in self.meta.iter().enumerate() {
            push_sep(&mut out, i, "    ");
            push_json_string(&mut out, key);
            out.push_str(": ");
            push_json_string(&mut out, value);
        }
        close_object(&mut out, self.meta.is_empty(), "  ");

        out.push_str(",\n  \"counters\": {");
        for (i, (name, value)) in self.snapshot.iter_counters().enumerate() {
            push_sep(&mut out, i, "    ");
            push_json_string(&mut out, name);
            out.push_str(": ");
            out.push_str(&value.to_string());
        }
        close_object(&mut out, false, "  ");

        out.push_str(",\n  \"histograms\": {");
        for (i, &h) in HistogramId::ALL.iter().enumerate() {
            push_sep(&mut out, i, "    ");
            push_json_string(&mut out, h.name());
            out.push_str(": {\"bounds\": ");
            push_u64_array(&mut out, h.bounds());
            out.push_str(", \"counts\": ");
            push_u64_array(&mut out, self.snapshot.histogram(h));
            out.push('}');
        }
        close_object(&mut out, false, "  ");

        out.push_str(",\n  \"stages\": {");
        for (i, (name, ms)) in self.stages.iter().enumerate() {
            push_sep(&mut out, i, "    ");
            push_json_string(&mut out, name);
            out.push_str(": ");
            push_json_f64(&mut out, *ms);
        }
        close_object(&mut out, self.stages.is_empty(), "  ");

        out.push_str("\n}\n");
        out
    }

    /// Serialize as a compact single-line JSON object — same fixed keys
    /// and ordering as [`MetricsDoc::to_json`], no whitespace. This is
    /// the wire form used by the `mkss-serve` line protocol, where a
    /// document must fit one response line.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"meta\":{");
        for (i, (key, value)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, key);
            out.push(':');
            push_json_string(&mut out, value);
        }
        out.push_str("},\"counters\":{");
        for (i, (name, value)) in self.snapshot.iter_counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            out.push_str(&value.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, &h) in HistogramId::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, h.name());
            out.push_str(":{\"bounds\":");
            push_compact_u64_array(&mut out, h.bounds());
            out.push_str(",\"counts\":");
            push_compact_u64_array(&mut out, self.snapshot.histogram(h));
            out.push('}');
        }
        out.push_str("},\"stages\":{");
        for (i, (name, ms)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            push_json_f64(&mut out, *ms);
        }
        out.push_str("}}");
        out
    }

    /// Render as an aligned human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.meta.is_empty() {
            for (key, value) in &self.meta {
                out.push_str(&format!("# {key}: {value}\n"));
            }
        }
        let name_width = self
            .snapshot
            .iter_counters()
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(0);
        for (name, value) in self.snapshot.iter_counters() {
            out.push_str(&format!("{name:<name_width$}  {value}\n"));
        }
        for &h in HistogramId::ALL.iter() {
            let counts = self.snapshot.histogram(h);
            let total: u64 = counts.iter().sum();
            out.push_str(&format!("{} (n={total}):", h.name()));
            for (i, &count) in counts.iter().enumerate() {
                match h.bounds().get(i) {
                    Some(bound) => out.push_str(&format!(" <={bound}:{count}")),
                    None => out.push_str(&format!(" over:{count}")),
                }
            }
            out.push('\n');
        }
        if !self.stages.is_empty() {
            for (name, ms) in &self.stages {
                out.push_str(&format!("stage {name}: {ms:.1} ms\n"));
            }
        }
        out
    }
}

/// Build the standard metrics document every `mkss` binary emits, in one
/// place: the `binary` identity first, then caller metadata in order,
/// then the snapshot and stage timings.
///
/// Before this entry point existed each binary hand-assembled its
/// `MetricsDoc` (same keys, different code); unifying the assembly keeps
/// `scripts/ci.sh`'s schema validation honest — there is exactly one
/// producer shape to validate.
pub fn metrics_doc(
    binary: &str,
    snapshot: MetricsSnapshot,
    meta: &[(&str, String)],
    stages: &[(&str, f64)],
) -> MetricsDoc {
    let mut doc = MetricsDoc::new(snapshot);
    doc.push_meta("binary", binary);
    for (key, value) in meta {
        doc.push_meta(key, value.clone());
    }
    for (name, ms) in stages {
        doc.push_stage(name, *ms);
    }
    doc
}

fn push_compact_u64_array(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

fn push_sep(out: &mut String, index: usize, indent: &str) {
    if index > 0 {
        out.push(',');
    }
    out.push('\n');
    out.push_str(indent);
}

fn close_object(out: &mut String, empty: bool, indent: &str) {
    if !empty {
        out.push('\n');
        out.push_str(indent);
    }
    out.push('}');
}

fn push_u64_array(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

/// Escape and quote `s` per RFC 8259, appending to `out` — the one JSON
/// string escaper shared by the metrics document, the Chrome trace
/// export and the `mkss-serve` protocol writer.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Write a float that always parses as a JSON number (NaN/inf clamp to 0).
fn push_json_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        out.push_str(&format!("{value:.3}"));
    } else {
        out.push('0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CounterId;
    use crate::registry::Registry;
    use std::sync::Arc;

    fn sample_doc() -> MetricsDoc {
        let registry = Arc::new(Registry::new(2));
        let h = registry.handle_at(0);
        h.incr(CounterId::JobsReleased, 10);
        h.incr(CounterId::BackupsCanceled, 3);
        h.observe(HistogramId::MkDistance, 1);
        h.observe(HistogramId::BackupDelayMs, 99);
        let mut doc = MetricsDoc::new(registry.snapshot());
        doc.push_meta("binary", "test");
        doc.push_stage("simulate_ms", 12.5);
        doc
    }

    #[test]
    fn json_has_fixed_top_level_keys_and_values() {
        let json = sample_doc().to_json();
        for key in ["\"meta\"", "\"counters\"", "\"histograms\"", "\"stages\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"jobs_released\": 10"), "{json}");
        assert!(json.contains("\"backups_canceled\": 3"), "{json}");
        assert!(json.contains("\"simulate_ms\": 12.500"), "{json}");
        // Overflow bucket of backup_delay_ms caught the 99.
        assert!(json.contains("\"backup_delay_ms\""), "{json}");
    }

    #[test]
    fn json_escapes_strings_and_clamps_non_finite() {
        let mut doc = MetricsDoc::new(MetricsSnapshot::empty());
        doc.push_meta("quote\"back\\slash", "line\nbreak\ttab\u{1}");
        doc.push_stage("bad", f64::NAN);
        doc.push_stage("inf", f64::INFINITY);
        let json = doc.to_json();
        assert!(json.contains("quote\\\"back\\\\slash"), "{json}");
        assert!(json.contains("line\\nbreak\\ttab\\u0001"), "{json}");
        assert!(json.contains("\"bad\": 0"), "{json}");
        assert!(json.contains("\"inf\": 0"), "{json}");
    }

    #[test]
    fn empty_doc_still_emits_all_sections() {
        let json = MetricsDoc::new(MetricsSnapshot::empty()).to_json();
        assert!(json.contains("\"meta\": {}"), "{json}");
        assert!(json.contains("\"stages\": {}"), "{json}");
        assert!(json.contains("\"jobs_released\": 0"), "{json}");
    }

    #[test]
    fn json_line_is_single_line_and_compact() {
        let line = sample_doc().to_json_line();
        assert!(!line.contains('\n'), "{line}");
        assert!(line.starts_with("{\"meta\":{"), "{line}");
        assert!(line.contains("\"jobs_released\":10"), "{line}");
        assert!(line.contains("\"simulate_ms\":12.500"), "{line}");
        assert!(line.ends_with("}}"), "{line}");
    }

    #[test]
    fn json_line_matches_pretty_json_modulo_whitespace() {
        let doc = sample_doc();
        let pretty: String = doc.to_json().split_whitespace().collect();
        // The pretty writer puts ", " inside arrays and ": " after keys;
        // stripping all whitespace makes the two renderings identical.
        assert_eq!(pretty, doc.to_json_line());
    }

    #[test]
    fn metrics_doc_entry_point_orders_meta_and_stages() {
        let doc = metrics_doc(
            "bench_fig6",
            MetricsSnapshot::empty(),
            &[("seed", "42".to_string()), ("policy", "all".to_string())],
            &[("simulate_ms", 1.5), ("total_ms", 2.0)],
        );
        let json = doc.to_json();
        let binary_at = json.find("\"binary\": \"bench_fig6\"").expect("binary key");
        let seed_at = json.find("\"seed\": \"42\"").expect("seed key");
        let policy_at = json.find("\"policy\": \"all\"").expect("policy key");
        assert!(binary_at < seed_at && seed_at < policy_at, "{json}");
        assert!(json.contains("\"simulate_ms\": 1.500"), "{json}");
        assert!(json.contains("\"total_ms\": 2.000"), "{json}");
    }

    #[test]
    fn table_lists_counters_histograms_and_stages() {
        let table = sample_doc().render_table();
        assert!(table.contains("# binary: test"), "{table}");
        assert!(table.contains("jobs_released"), "{table}");
        assert!(table.contains("mk_distance (n=1):"), "{table}");
        assert!(table.contains("over:1"), "{table}");
        assert!(table.contains("stage simulate_ms: 12.5 ms"), "{table}");
    }
}
