//! Exposition: Prometheus text format 0.0.4 and JSONL series files, plus
//! the one JSONL file type every JSONL writer in the workspace uses.

use std::fmt::Display;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

use niid_json::Json;

use crate::registry::{FamilySnapshot, Sample, SampleValue};
use crate::shutdown::{register_flusher, Flush};

/// Escape a label value per the Prometheus text format: backslash,
/// double-quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render a snapshot in the Prometheus text exposition format (0.0.4):
/// `# HELP` / `# TYPE` headers followed by one sample line per series,
/// histograms expanded into cumulative `_bucket{le=...}`, `_sum`, and
/// `_count` lines.
pub fn render_prometheus(families: &[FamilySnapshot]) -> String {
    let mut out = String::new();
    for f in families {
        if !f.help.is_empty() {
            out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
        }
        out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind.as_str()));
        for s in &f.samples {
            match &s.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!("{}{} {v}\n", f.name, label_block(&s.labels, None)));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        f.name,
                        label_block(&s.labels, None),
                        fmt_f64(*v)
                    ));
                }
                SampleValue::Histogram {
                    bounds,
                    buckets,
                    sum,
                    count,
                } => {
                    let mut cum = 0u64;
                    for (i, b) in buckets.iter().enumerate() {
                        cum += b;
                        let le = bounds
                            .get(i)
                            .map(|b| fmt_f64(*b))
                            .unwrap_or_else(|| "+Inf".to_string());
                        out.push_str(&format!(
                            "{}_bucket{} {cum}\n",
                            f.name,
                            label_block(&s.labels, Some(("le", &le)))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        f.name,
                        label_block(&s.labels, None),
                        fmt_f64(*sum)
                    ));
                    out.push_str(&format!(
                        "{}_count{} {count}\n",
                        f.name,
                        label_block(&s.labels, None)
                    ));
                }
            }
        }
    }
    out
}

/// One JSONL output file: a buffered writer behind one lock, shared by
/// the trace sink and [`JsonlExporter`].
///
/// Opening one registers it with the exit-flush registry, so the `exp`
/// binary's Ctrl-C watcher ([`crate::shutdown`]) flushes and fsyncs
/// every file still open. The registry holds it weakly; dropping it
/// flushes the buffer (`BufWriter`'s own `Drop`).
#[derive(Debug)]
pub struct JsonlFile {
    out: Mutex<BufWriter<File>>,
}

impl JsonlFile {
    /// Truncate-and-create `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Arc<Self>> {
        Ok(Self::open(File::create(path)?))
    }

    /// Open `path` for appending, creating it if missing.
    pub fn append(path: impl AsRef<Path>) -> io::Result<Arc<Self>> {
        Ok(Self::open(
            OpenOptions::new().create(true).append(true).open(path)?,
        ))
    }

    fn open(file: File) -> Arc<Self> {
        let file = Arc::new(JsonlFile {
            out: Mutex::new(BufWriter::new(file)),
        });
        register_flusher(Arc::downgrade(&file) as Weak<dyn Flush>);
        file
    }

    /// The writer; a lock poisoned by a panicking writer is an I/O error,
    /// so neither a run nor the exit guard panics on it.
    fn lock(&self) -> io::Result<MutexGuard<'_, BufWriter<File>>> {
        self.out
            .lock()
            .map_err(|_| io::Error::other("JSONL writer poisoned by a panic"))
    }

    /// Buffer one line; it reaches the OS at the next flush.
    pub fn write_line(&self, line: impl Display) -> io::Result<()> {
        writeln!(self.lock()?, "{line}")
    }

    /// Write `lines` under one lock, then flush once.
    pub fn write_batch<T: Display>(&self, lines: impl IntoIterator<Item = T>) -> io::Result<()> {
        let mut out = self.lock()?;
        for line in lines {
            writeln!(out, "{line}")?;
        }
        out.flush()
    }

    /// Flush buffered lines to the OS.
    pub fn flush(&self) -> io::Result<()> {
        self.lock()?.flush()
    }

    /// Flush and fsync.
    pub fn sync(&self) -> io::Result<()> {
        let mut out = self.lock()?;
        out.flush()?;
        out.get_ref().sync_all()
    }
}

impl Flush for JsonlFile {
    fn flush_now(&self) {
        let _ = self.sync();
    }
}

/// One series sample as a JSONL line, or `None` for a non-finite value.
fn sample_line(round: Option<u64>, name: &str, sample: &Sample) -> Option<Json> {
    let mut fields: Vec<(&str, Json)> = Vec::with_capacity(5);
    if let Some(r) = round {
        fields.push(("round", Json::Num(r as f64)));
    }
    fields.push(("name", Json::Str(name.to_string())));
    let labels = Json::Obj(
        sample
            .labels
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect(),
    );
    fields.push(("labels", labels));
    match &sample.value {
        SampleValue::Counter(v) => fields.push(("value", Json::Num(*v as f64))),
        SampleValue::Gauge(v) => {
            if !v.is_finite() {
                return None;
            }
            fields.push(("value", Json::Num(*v)));
        }
        SampleValue::Histogram {
            bounds,
            buckets,
            sum,
            count,
        } => {
            if !sum.is_finite() {
                return None;
            }
            fields.push(("value", Json::Num(*sum)));
            fields.push(("count", Json::Num(*count as f64)));
            let mut cum = 0u64;
            let pairs: Vec<Json> = buckets
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    cum += b;
                    let le = bounds.get(i).copied().unwrap_or(f64::MAX);
                    Json::Arr(vec![Json::Num(le), Json::Num(cum as f64)])
                })
                .collect();
            fields.push(("buckets", Json::Arr(pairs)));
        }
    }
    Some(Json::obj(fields))
}

/// Append-mode JSONL writer for per-round metric snapshots.
///
/// Each line is one series sample:
/// `{"round":R,"name":N,"labels":{...},"value":V}` — histograms carry
/// `"value"` = sum plus `"count"` and `"buckets":[[le,cumulative],...]`.
/// Non-finite gauge values (e.g. a NaN cosine on a zero vector) are
/// skipped so the file stays strict-JSON parseable.
pub struct JsonlExporter {
    path: PathBuf,
    file: Arc<JsonlFile>,
}

impl JsonlExporter {
    /// Truncate-and-create `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlExporter {
            path: path.as_ref().to_path_buf(),
            file: JsonlFile::create(path)?,
        })
    }

    /// Open `path` for appending (multi-trial runs share one file).
    pub fn append(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlExporter {
            path: path.as_ref().to_path_buf(),
            file: JsonlFile::append(path)?,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Write one line per series in `families`, stamped with `round`.
    pub fn write_snapshot(&self, round: Option<u64>, families: &[FamilySnapshot]) {
        let lines = families.iter().flat_map(|f| {
            f.samples
                .iter()
                .filter_map(move |s| sample_line(round, &f.name, s))
        });
        // Disk-full etc. must never poison a run.
        let _ = self.file.write_batch(lines);
    }

    /// Flush buffered lines to the OS.
    pub fn flush(&self) {
        let _ = self.file.flush();
    }

    /// Flush and fsync.
    pub fn sync(&self) {
        let _ = self.file.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn prometheus_text_renders_all_kinds() {
        let r = Registry::new();
        r.counter("req_total", "requests", &[("code", "200")])
            .add(7);
        r.gauge("temp", "", &[]).set(1.5);
        let h = r.histogram("lat_ms", "latency", &[1.0, 10.0], &[]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("# HELP req_total requests\n"));
        assert!(text.contains("# TYPE req_total counter\n"));
        assert!(text.contains("req_total{code=\"200\"} 7\n"));
        assert!(text.contains("temp 1.5\n"));
        assert!(text.contains("lat_ms_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("lat_ms_bucket{le=\"10\"} 2\n"));
        assert!(text.contains("lat_ms_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_ms_sum 55.5\n"));
        assert!(text.contains("lat_ms_count 3\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.gauge("g", "", &[("path", "a\"b\\c\nd")]).set(1.0);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("g{path=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn jsonl_round_trips_and_skips_non_finite() {
        let dir = std::env::temp_dir().join(format!("niid-metrics-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("expo.jsonl");
        let r = Registry::new();
        r.gauge("div", "", &[("party", "0")]).set(0.25);
        r.gauge("bad", "", &[]).set(f64::NAN);
        r.counter("bytes_total", "", &[]).add(42);
        {
            let ex = JsonlExporter::create(&path).unwrap();
            ex.write_snapshot(Some(3), &r.snapshot());
            ex.sync();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines = niid_json::parse_jsonl(&text).unwrap();
        assert_eq!(lines.len(), 2, "NaN gauge must be skipped");
        let div = lines
            .iter()
            .find(|l| l.get("name").and_then(Json::as_str) == Some("div"))
            .unwrap();
        assert_eq!(div.get("round").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            div.get("labels")
                .and_then(|l| l.get("party"))
                .and_then(Json::as_str),
            Some("0")
        );
        assert_eq!(div.get("value").and_then(Json::as_f64), Some(0.25));
        std::fs::remove_dir_all(&dir).ok();
    }
}
