//! Exposition: Prometheus text format 0.0.4 and JSONL series files, plus
//! the one JSONL file type every JSONL writer in the workspace uses.

use std::fmt::{Display, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

use niid_json::{write_number, write_string};

use crate::registry::{Cell, FamilySnapshot, Registry, SampleValue};
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
/// Every write renders its text into one reused `String` first and hands
/// it to the buffered file in a single `write_all`, so formatting never
/// runs through the writer piece by piece.
///
/// Opening one registers it with the exit-flush registry, so the `exp`
/// binary's Ctrl-C watcher ([`crate::shutdown`]) flushes and fsyncs
/// every file still open. The registry holds it weakly; dropping it
/// flushes the buffer (`BufWriter`'s own `Drop`).
#[derive(Debug)]
pub struct JsonlFile {
    out: Mutex<Out>,
}

/// The file and the text buffer its writes are rendered into.
#[derive(Debug)]
struct Out {
    file: BufWriter<File>,
    text: String,
}

impl Out {
    /// Render into the cleared text buffer, then write it in one go.
    fn write_rendered(&mut self, render: impl FnOnce(&mut String)) -> io::Result<()> {
        self.text.clear();
        render(&mut self.text);
        self.file.write_all(self.text.as_bytes())
    }
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
            out: Mutex::new(Out {
                file: BufWriter::new(file),
                text: String::new(),
            }),
        });
        register_flusher(Arc::downgrade(&file) as Weak<dyn Flush>);
        file
    }

    /// The writer; a lock poisoned by a panicking writer is an I/O error,
    /// so neither a run nor the exit guard panics on it.
    fn lock(&self) -> io::Result<MutexGuard<'_, Out>> {
        self.out
            .lock()
            .map_err(|_| io::Error::other("JSONL writer poisoned by a panic"))
    }

    /// Buffer one line; it reaches the OS at the next flush.
    pub fn write_line(&self, line: impl Display) -> io::Result<()> {
        self.lock()?.write_rendered(|text| {
            let _ = writeln!(text, "{line}");
        })
    }

    /// Write the newline-terminated lines `render` appends to its (empty)
    /// buffer under one lock, in one `write_all`, then flush once.
    pub fn write_batch(&self, render: impl FnOnce(&mut String)) -> io::Result<()> {
        let mut out = self.lock()?;
        out.write_rendered(render)?;
        out.file.flush()
    }

    /// Flush buffered lines to the OS.
    pub fn flush(&self) -> io::Result<()> {
        self.lock()?.file.flush()
    }

    /// Flush and fsync.
    pub fn sync(&self) -> io::Result<()> {
        let mut out = self.lock()?;
        out.file.flush()?;
        out.file.get_ref().sync_all()
    }
}

impl Flush for JsonlFile {
    fn flush_now(&self) {
        let _ = self.sync();
    }
}

/// The part of a series' JSONL line that only the series decides:
/// `"name":N,"labels":{...},"value":`.
fn line_prefix<'a>(out: &mut String, name: &str, labels: impl Iterator<Item = (&'a str, &'a str)>) {
    out.push_str("\"name\":");
    let _ = write_string(out, name);
    out.push_str(",\"labels\":{");
    for (i, (k, v)) in labels.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write_string(out, k);
        out.push(':');
        let _ = write_string(out, v);
    }
    out.push_str("},\"value\":");
}

/// Append one series sample's JSONL line — `prefix` from [`line_prefix`],
/// stamped with `round` — or nothing for a non-finite gauge or histogram
/// sum, which has no JSON number.
fn put_line(out: &mut String, round: Option<u64>, prefix: &str, value: &SampleValue) {
    let finite = match value {
        SampleValue::Counter(_) => true,
        SampleValue::Gauge(v) | SampleValue::Histogram { sum: v, .. } => v.is_finite(),
    };
    if !finite {
        return;
    }
    out.push('{');
    if let Some(r) = round {
        out.push_str("\"round\":");
        let _ = write_number(out, r as f64);
        out.push(',');
    }
    out.push_str(prefix);
    match value {
        SampleValue::Counter(v) => {
            let _ = write_number(out, *v as f64);
        }
        SampleValue::Gauge(v) => {
            let _ = write_number(out, *v);
        }
        SampleValue::Histogram {
            bounds,
            buckets,
            sum,
            count,
        } => {
            let _ = write_number(out, *sum);
            out.push_str(",\"count\":");
            let _ = write_number(out, *count as f64);
            out.push_str(",\"buckets\":[");
            let mut cum = 0u64;
            for (i, b) in buckets.iter().enumerate() {
                cum += b;
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                let _ = write_number(out, bounds.get(i).copied().unwrap_or(f64::MAX));
                out.push(',');
                let _ = write_number(out, cum as f64);
                out.push(']');
            }
            out.push(']');
        }
    }
    out.push_str("}\n");
}

/// Which snapshots write a cached series: decided once per series, when
/// the [`SeriesCache`] is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesScope {
    /// Every snapshot.
    Always,
    /// Only snapshots whose filter accepts this key (a party id, say).
    Keyed(usize),
    /// No snapshot.
    Never,
}

/// One cached series: its line prefix, its cell and its scope.
struct CachedSeries {
    prefix: String,
    cell: Cell,
    scope: SeriesScope,
}

/// A registry's series ready to render as JSONL lines, so a per-round
/// snapshot walks no family list, clones no label and looks up no name.
///
/// The cache keeps, per series in snapshot order, the rendered line
/// prefix, the cell and the [`SeriesScope`] its `scope` function gave the
/// series' name and labels. It is rebuilt only when the registry's
/// generation moved, i.e. when the registry gained a family or a series
/// (a collector's first run, a party's first round); otherwise a render
/// reads each cell and prints its numbers. The lines are byte for byte
/// those of [`JsonlExporter::write_snapshot`] over `registry.gather()`
/// with the out-of-scope samples removed.
pub struct SeriesCache {
    scope: fn(&str, &[(&str, &str)]) -> SeriesScope,
    generation: Option<u64>,
    series: Vec<CachedSeries>,
}

impl SeriesCache {
    /// An empty cache; `scope(name, labels)` places each series.
    pub fn new(scope: fn(&str, &[(&str, &str)]) -> SeriesScope) -> Self {
        SeriesCache {
            scope,
            generation: None,
            series: Vec::new(),
        }
    }

    /// Run `registry`'s collectors, rebuild the cache if the registry
    /// gained a series, then append a line stamped with `round` for every
    /// series that is in scope (`keep` decides [`SeriesScope::Keyed`]).
    pub fn render(
        &mut self,
        registry: &Registry,
        round: Option<u64>,
        keep: impl Fn(usize) -> bool,
        out: &mut String,
    ) {
        registry.run_collectors();
        let generation = registry.generation();
        if self.generation != Some(generation) {
            self.rebuild(registry);
            self.generation = Some(generation);
        }
        for s in &self.series {
            let written = match s.scope {
                SeriesScope::Always => true,
                SeriesScope::Keyed(key) => keep(key),
                SeriesScope::Never => false,
            };
            if written {
                put_line(out, round, &s.prefix, &s.cell.value());
            }
        }
    }

    fn rebuild(&mut self, registry: &Registry) {
        self.series.clear();
        registry.for_each_series(|name, keys, values, cell| {
            let labels: Vec<(&str, &str)> = keys
                .iter()
                .map(String::as_str)
                .zip(values.iter().map(String::as_str))
                .collect();
            let mut prefix = String::new();
            line_prefix(&mut prefix, name, labels.iter().copied());
            self.series.push(CachedSeries {
                prefix,
                cell: cell.clone(),
                scope: (self.scope)(name, &labels),
            });
        });
    }
}

/// Append-mode JSONL writer for per-round metric snapshots.
///
/// Each line is one series sample:
/// `{"round":R,"name":N,"labels":{...},"value":V}` — histograms carry
/// `"value"` = sum plus `"count"` and `"buckets":[[le,cumulative],...]`
/// (the `+Inf` bucket's `le` is `f64::MAX`). Non-finite gauge values
/// (e.g. a NaN cosine on a zero vector) are skipped so the file stays
/// strict-JSON parseable.
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
        // Disk-full etc. must never poison a run.
        let _ = self.file.write_batch(|text| {
            let mut prefix = String::new();
            for f in families {
                for s in &f.samples {
                    prefix.clear();
                    let labels = s.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                    line_prefix(&mut prefix, &f.name, labels);
                    put_line(text, round, &prefix, &s.value);
                }
            }
        });
    }

    /// [`write_snapshot`](Self::write_snapshot) of `registry.gather()`
    /// through `cache` (see [`SeriesCache::render`]): the same lines,
    /// without walking the registry.
    pub fn write_series(
        &self,
        round: Option<u64>,
        registry: &Registry,
        cache: &mut SeriesCache,
        keep: impl Fn(usize) -> bool,
    ) {
        // Disk-full etc. must never poison a run.
        let _ = self
            .file
            .write_batch(|text| cache.render(registry, round, keep, text));
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
    use niid_json::Json;

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
        let h = r.histogram("lat_ms", "", &[1.0, 10.0], &[("phase", "eval")]);
        for v in [0.5, 5.0, 7.0, 50.0] {
            h.observe(v);
        }
        {
            let ex = JsonlExporter::create(&path).unwrap();
            ex.write_snapshot(Some(3), &r.snapshot());
            ex.sync();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines = niid_json::parse_jsonl(&text).unwrap();
        assert_eq!(lines.len(), 3, "NaN gauge must be skipped");
        for l in &lines {
            assert!(!l.get("name").and_then(Json::as_str).unwrap().is_empty());
            assert!(l.get("value").and_then(Json::as_f64).unwrap().is_finite());
            let round = l.get("round").and_then(Json::as_f64).unwrap();
            assert!(round >= 0.0 && round.fract() == 0.0, "{l:?}");
            let labels = l.get("labels").and_then(Json::as_obj).unwrap();
            assert!(labels.iter().all(|(_, v)| v.as_str().is_some()), "{l:?}");
        }
        let hist = lines
            .iter()
            .find(|l| l.get("name").and_then(Json::as_str) == Some("lat_ms"))
            .unwrap();
        assert_eq!(hist.get("value").and_then(Json::as_f64), Some(62.5));
        assert_eq!(hist.get("count").and_then(Json::as_f64), Some(4.0));
        // Cumulative `[le, count]` pairs; the last bucket is +Inf.
        let le = |le: f64, n: f64| Json::Arr(vec![Json::Num(le), Json::Num(n)]);
        let buckets = [le(1.0, 1.0), le(10.0, 3.0), le(f64::MAX, 4.0)];
        assert_eq!(
            hist.get("buckets").and_then(Json::as_arr),
            Some(&buckets[..])
        );
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
