//! Validate `BENCH_*.json` files emitted by the bench harness's `--json`
//! flag: used by the CI bench-smoke step so a broken emitter (or a bench
//! that silently stops producing entries) fails the workflow.
//!
//! Usage: `bench_json_check [--require-op OP]... <file.json>...` — exits
//! non-zero with a description of the first malformed file. Each
//! `--require-op OP` demands that at least one entry across the checked
//! files carries that `op` with a finite, positive `gflops` — the guard
//! that keeps tracked kernels (e.g. `conv2d/implicit`, `matmul/a_bt_nt`)
//! from silently dropping out of the committed baselines.
//!
//! Regression-gate mode:
//! `bench_json_check --compare BASELINE.json NEW.json [--tol-pct N]` —
//! matches rows by `(op, shape, threads, simd)` — falling back to the
//! row `name` as a tiebreaker when several rows share that tuple —
//! prints a delta table and exits non-zero when any matched row's
//! `median_ns` regressed by more than `N` percent (default 25). Rows present on only one side are
//! reported but never fail the gate (kernels come and go across PRs; the
//! schema check above is what keeps required ops alive). Matching zero
//! rows *is* an error — a baseline recorded under a different SIMD
//! dispatch would otherwise make the gate silently vacuous.

use niid_json::Json;

fn check_entry(e: &Json, idx: usize) -> Result<(), String> {
    for key in ["group", "name", "op", "shape"] {
        if e.get(key).and_then(Json::as_str).is_none() {
            return Err(format!("entry {idx}: missing string field {key:?}"));
        }
    }
    match e.get("simd").and_then(Json::as_str) {
        Some(s) if !s.is_empty() => {}
        Some(_) => return Err(format!("entry {idx}: simd must be a non-empty kernel tag")),
        None => return Err(format!("entry {idx}: missing string field \"simd\"")),
    }
    for key in ["threads", "median_ns", "min_ns", "iters"] {
        let v = e
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("entry {idx}: missing numeric field {key:?}"))?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!(
                "entry {idx}: {key} = {v} is not a sane measurement"
            ));
        }
    }
    let median = e.get("median_ns").and_then(Json::as_f64).unwrap_or(0.0);
    if median <= 0.0 {
        return Err(format!("entry {idx}: median_ns must be positive"));
    }
    match e.get("gflops") {
        Some(g) if g.is_null() || g.as_f64().is_some_and(f64::is_finite) => {}
        Some(_) => return Err(format!("entry {idx}: gflops must be null or finite")),
        None => return Err(format!("entry {idx}: missing field \"gflops\"")),
    }
    match e.get("op").and_then(Json::as_str) {
        Some("fl_scale") => check_fl_scale_entry(e, idx)?,
        Some("fl_comm") => check_fl_comm_entry(e, idx)?,
        _ => {}
    }
    Ok(())
}

/// Extra fields `exp scale` records per population cell
/// (`BENCH_fl_scale.json`): all must be present, finite and positive, and
/// the cohort can never exceed the population.
fn check_fl_scale_entry(e: &Json, idx: usize) -> Result<(), String> {
    for key in [
        "n_parties",
        "cohort",
        "rounds_per_sec",
        "bytes_per_round",
        "down_bytes_per_round",
        "up_bytes_per_round",
        "resident_party_bytes_peak",
    ] {
        let v = e
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("entry {idx}: fl_scale missing numeric field {key:?}"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!(
                "entry {idx}: fl_scale {key} = {v} must be positive"
            ));
        }
    }
    match e.get("encoding").and_then(Json::as_str) {
        Some(enc) if !enc.is_empty() => {}
        _ => {
            return Err(format!(
                "entry {idx}: fl_scale missing non-empty string field \"encoding\""
            ))
        }
    }
    let n = e.get("n_parties").and_then(Json::as_f64).unwrap_or(0.0);
    let m = e.get("cohort").and_then(Json::as_f64).unwrap_or(0.0);
    if m > n {
        return Err(format!("entry {idx}: cohort {m} exceeds population {n}"));
    }
    Ok(())
}

/// Extra fields `exp comm` records per (skew, codec) cell: the codec
/// label, the final accuracy in [0, 1], and measured traffic totals that
/// must be positive. `bytes_ratio_vs_dense` must be finite and positive —
/// 1.0 for the dense reference row, > 1 when a codec actually shrinks the
/// upload.
fn check_fl_comm_entry(e: &Json, idx: usize) -> Result<(), String> {
    match e.get("encoding").and_then(Json::as_str) {
        Some(enc) if !enc.is_empty() => {}
        _ => {
            return Err(format!(
                "entry {idx}: fl_comm missing non-empty string field \"encoding\""
            ))
        }
    }
    for key in ["up_bytes_total", "down_bytes_total", "bytes_ratio_vs_dense"] {
        let v = e
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("entry {idx}: fl_comm missing numeric field {key:?}"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("entry {idx}: fl_comm {key} = {v} must be positive"));
        }
    }
    let acc = e
        .get("final_accuracy")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("entry {idx}: fl_comm missing numeric field \"final_accuracy\""))?;
    if !(0.0..=1.0).contains(&acc) {
        return Err(format!(
            "entry {idx}: fl_comm final_accuracy = {acc} outside [0, 1]"
        ));
    }
    Ok(())
}

/// Whether an entry satisfies a `--require-op` demand: matching `op` tag
/// and a finite, strictly positive `gflops` measurement.
fn satisfies_required_op(e: &Json, op: &str) -> bool {
    e.get("op").and_then(Json::as_str) == Some(op)
        && e.get("gflops")
            .and_then(Json::as_f64)
            .is_some_and(|g| g.is_finite() && g > 0.0)
}

fn check_file(path: &str, seen_ops: &mut [(String, bool)]) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let json = niid_json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let entries = json
        .as_arr()
        .ok_or_else(|| format!("top level must be an array, got {}", json.kind()))?;
    if entries.is_empty() {
        return Err("no measurements recorded".into());
    }
    for (idx, e) in entries.iter().enumerate() {
        check_entry(e, idx)?;
        for (op, seen) in seen_ops.iter_mut() {
            if !*seen && satisfies_required_op(e, op) {
                *seen = true;
            }
        }
    }
    Ok(entries.len())
}

/// `(op, shape, threads, simd)` → `median_ns` rows from one bench file.
/// Keys duplicated within the file (e.g. the four algorithms sharing
/// `fl_round | adult 10 parties | t1`) are disambiguated by appending
/// the row's `name`, so such rows still compare one-to-one.
fn load_rows(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let json = niid_json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let entries = json
        .as_arr()
        .ok_or_else(|| format!("{path}: top level must be an array"))?;
    let mut rows = Vec::with_capacity(entries.len());
    for (idx, e) in entries.iter().enumerate() {
        check_entry(e, idx).map_err(|err| format!("{path}: {err}"))?;
        let s = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let threads = e.get("threads").and_then(Json::as_f64).unwrap_or(0.0);
        let key = format!(
            "{} | {} | t{} | {}",
            s("op"),
            s("shape"),
            threads,
            s("simd")
        );
        let median = e.get("median_ns").and_then(Json::as_f64).unwrap_or(0.0);
        rows.push((key, s("name"), median));
    }
    let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for (key, _, _) in &rows {
        *counts.entry(key.as_str()).or_default() += 1;
    }
    let dup: std::collections::HashSet<String> = counts
        .iter()
        .filter(|(_, &n)| n > 1)
        .map(|(k, _)| k.to_string())
        .collect();
    Ok(rows
        .into_iter()
        .map(|(key, name, median)| {
            if dup.contains(&key) {
                (format!("{key} | {name}"), median)
            } else {
                (key, median)
            }
        })
        .collect())
}

/// Compare two bench files row-by-row; returns `Err` with the printed
/// verdict when any matched median regressed past `tol_pct`.
fn compare_files(baseline: &str, fresh: &str, tol_pct: f64) -> Result<(), String> {
    let base_rows = load_rows(baseline)?;
    let new_rows = load_rows(fresh)?;
    let base: std::collections::HashMap<&str, f64> =
        base_rows.iter().map(|(k, m)| (k.as_str(), *m)).collect();
    let mut matched = 0usize;
    let mut regressions: Vec<String> = Vec::new();
    println!(
        "{:<72} {:>12} {:>12} {:>9}",
        "row", "base ns", "new ns", "delta"
    );
    for (key, new_median) in &new_rows {
        let Some(&base_median) = base.get(key.as_str()) else {
            println!("{key:<72} {:>12} {new_median:>12.0} {:>9}", "-", "new");
            continue;
        };
        matched += 1;
        let delta_pct = (new_median - base_median) / base_median * 100.0;
        let flag = if delta_pct > tol_pct {
            "  << REGRESSION"
        } else {
            ""
        };
        println!("{key:<72} {base_median:>12.0} {new_median:>12.0} {delta_pct:>+8.1}%{flag}");
        if delta_pct > tol_pct {
            regressions.push(format!("{key}: {delta_pct:+.1}% (tolerance {tol_pct}%)"));
        }
    }
    let new_keys: std::collections::HashSet<&str> =
        new_rows.iter().map(|(k, _)| k.as_str()).collect();
    for (key, base_median) in &base_rows {
        if !new_keys.contains(key.as_str()) {
            println!("{key:<72} {base_median:>12.0} {:>12} {:>9}", "-", "gone");
        }
    }
    if matched == 0 {
        return Err(format!(
            "no rows matched between {baseline} and {fresh} — \
             SIMD dispatch or bench set changed; re-baseline (see EXPERIMENTS.md)"
        ));
    }
    println!(
        "compared {matched} rows, tolerance {tol_pct}%: {}",
        if regressions.is_empty() {
            "ok".to_string()
        } else {
            format!("{} regression(s)", regressions.len())
        }
    );
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(regressions.join("\n"))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        let mut tol_pct = 25.0;
        let mut files: Vec<&str> = Vec::new();
        let mut it = argv.iter().skip(1);
        while let Some(a) = it.next() {
            if a == "--tol-pct" {
                tol_pct = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--tol-pct needs a number");
                    std::process::exit(2);
                });
            } else {
                files.push(a);
            }
        }
        let [baseline, fresh] = files[..] else {
            eprintln!("usage: bench_json_check --compare BASELINE.json NEW.json [--tol-pct N]");
            std::process::exit(2);
        };
        if let Err(e) = compare_files(baseline, fresh, tol_pct) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }

    let mut required: Vec<(String, bool)> = Vec::new();
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--require-op" {
            match args.next() {
                Some(op) => required.push((op, false)),
                None => {
                    eprintln!("--require-op needs an op name");
                    std::process::exit(2);
                }
            }
        } else {
            paths.push(a);
        }
    }
    if paths.is_empty() {
        eprintln!("usage: bench_json_check [--require-op OP]... <file.json>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        match check_file(path, &mut required) {
            Ok(n) => println!("{path}: ok ({n} measurements)"),
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
            }
        }
    }
    // Required ops are a union across every checked file: the tracked
    // kernel must show up *somewhere* with a real throughput number.
    for (op, seen) in &required {
        if !seen {
            eprintln!(
                "required op {op:?}: no entry with finite positive gflops in any checked file"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_entry_passes() {
        let e = Json::obj(vec![
            ("group", Json::Str("g".into())),
            ("name", Json::Str("n".into())),
            ("op", Json::Str("matmul".into())),
            ("shape", Json::Str("8x8x8".into())),
            ("simd", Json::Str("avx2/avx2+fma".into())),
            ("threads", Json::Num(2.0)),
            ("median_ns", Json::Num(10.0)),
            ("min_ns", Json::Num(9.0)),
            ("iters", Json::Num(100.0)),
            ("gflops", Json::Null),
        ]);
        assert!(check_entry(&e, 0).is_ok());
    }

    fn fl_scale_entry(cohort: f64) -> Json {
        Json::obj(vec![
            ("group", Json::Str("fl_scale".into())),
            ("name", Json::Str("N=10k".into())),
            ("op", Json::Str("fl_scale".into())),
            ("shape", Json::Str("N=10000 cohort=10 rounds=5".into())),
            ("simd", Json::Str("avx2/avx2+fma".into())),
            ("threads", Json::Num(8.0)),
            ("median_ns", Json::Num(1e8)),
            ("min_ns", Json::Num(9e7)),
            ("iters", Json::Num(5.0)),
            ("gflops", Json::Null),
            ("n_parties", Json::Num(10_000.0)),
            ("cohort", Json::Num(cohort)),
            ("rounds_per_sec", Json::Num(12.5)),
            ("bytes_per_round", Json::Num(65536.0)),
            ("down_bytes_per_round", Json::Num(32768.0)),
            ("up_bytes_per_round", Json::Num(32768.0)),
            ("encoding", Json::Str("dense".into())),
            ("resident_party_bytes_peak", Json::Num(4096.0)),
        ])
    }

    fn fl_comm_entry() -> Json {
        Json::obj(vec![
            ("group", Json::Str("fl_comm".into())),
            ("name", Json::Str("cifar10-dirichlet/topk8".into())),
            ("op", Json::Str("fl_comm".into())),
            ("shape", Json::Str("cifar10 dirichlet rounds=3".into())),
            ("simd", Json::Str("avx2/avx2+fma".into())),
            ("threads", Json::Num(8.0)),
            ("median_ns", Json::Num(1e8)),
            ("min_ns", Json::Num(9e7)),
            ("iters", Json::Num(3.0)),
            ("gflops", Json::Null),
            ("encoding", Json::Str("topk8".into())),
            ("final_accuracy", Json::Num(0.42)),
            ("up_bytes_total", Json::Num(1.0e6)),
            ("down_bytes_total", Json::Num(8.0e6)),
            ("bytes_ratio_vs_dense", Json::Num(9.3)),
        ])
    }

    #[test]
    fn fl_comm_entry_passes() {
        assert!(check_entry(&fl_comm_entry(), 0).is_ok());
    }

    #[test]
    fn fl_comm_entry_requires_traffic_fields() {
        let mut bad = fl_comm_entry();
        if let Json::Obj(pairs) = &mut bad {
            pairs.retain(|(k, _)| k != "up_bytes_total");
        }
        let err = check_entry(&bad, 0).unwrap_err();
        assert!(err.contains("up_bytes_total"), "{err}");
    }

    #[test]
    fn fl_comm_accuracy_must_be_a_fraction() {
        let mut bad = fl_comm_entry();
        if let Json::Obj(pairs) = &mut bad {
            for (k, v) in pairs.iter_mut() {
                if k == "final_accuracy" {
                    *v = Json::Num(42.0);
                }
            }
        }
        let err = check_entry(&bad, 0).unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn fl_scale_entry_passes_with_extras() {
        assert!(check_entry(&fl_scale_entry(10.0), 0).is_ok());
    }

    #[test]
    fn fl_scale_entry_requires_scale_fields() {
        let mut bad = fl_scale_entry(10.0);
        if let Json::Obj(pairs) = &mut bad {
            pairs.retain(|(k, _)| k != "rounds_per_sec");
        }
        let err = check_entry(&bad, 0).unwrap_err();
        assert!(err.contains("rounds_per_sec"), "{err}");
    }

    #[test]
    fn fl_scale_entry_requires_measured_split_and_encoding() {
        let mut bad = fl_scale_entry(10.0);
        if let Json::Obj(pairs) = &mut bad {
            pairs.retain(|(k, _)| k != "up_bytes_per_round");
        }
        let err = check_entry(&bad, 0).unwrap_err();
        assert!(err.contains("up_bytes_per_round"), "{err}");
        let mut bad = fl_scale_entry(10.0);
        if let Json::Obj(pairs) = &mut bad {
            pairs.retain(|(k, _)| k != "encoding");
        }
        let err = check_entry(&bad, 0).unwrap_err();
        assert!(err.contains("encoding"), "{err}");
    }

    #[test]
    fn fl_scale_cohort_cannot_exceed_population() {
        let err = check_entry(&fl_scale_entry(20_000.0), 0).unwrap_err();
        assert!(err.contains("exceeds population"), "{err}");
    }

    #[test]
    fn required_op_matches_on_op_and_positive_gflops() {
        let mut e = Json::obj(vec![
            ("op", Json::Str("conv2d/implicit".into())),
            ("gflops", Json::Num(14.2)),
        ]);
        assert!(satisfies_required_op(&e, "conv2d/implicit"));
        assert!(!satisfies_required_op(&e, "matmul/a_bt_nt"));
        if let Json::Obj(pairs) = &mut e {
            for (k, v) in pairs.iter_mut() {
                if k == "gflops" {
                    *v = Json::Null;
                }
            }
        }
        assert!(
            !satisfies_required_op(&e, "conv2d/implicit"),
            "null gflops must not satisfy a required op"
        );
    }

    #[test]
    fn required_op_rejects_zero_gflops() {
        let e = Json::obj(vec![
            ("op", Json::Str("matmul/a_bt_nt".into())),
            ("gflops", Json::Num(0.0)),
        ]);
        assert!(!satisfies_required_op(&e, "matmul/a_bt_nt"));
    }

    fn bench_file(name: &str, median_ns: f64, shape: &str) -> String {
        let entry = Json::obj(vec![
            ("group", Json::Str("g".into())),
            ("name", Json::Str("n".into())),
            ("op", Json::Str("matmul".into())),
            ("shape", Json::Str(shape.into())),
            ("simd", Json::Str("avx2/avx2+fma".into())),
            ("threads", Json::Num(2.0)),
            ("median_ns", Json::Num(median_ns)),
            ("min_ns", Json::Num(median_ns)),
            ("iters", Json::Num(100.0)),
            ("gflops", Json::Null),
        ]);
        let path = std::env::temp_dir().join(format!("bench_json_check_test_{name}.json"));
        std::fs::write(&path, Json::arr(vec![entry]).pretty()).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn compare_passes_within_tolerance() {
        let base = bench_file("tol_base", 1000.0, "8x8x8");
        let fresh = bench_file("tol_new", 1100.0, "8x8x8");
        assert!(compare_files(&base, &fresh, 25.0).is_ok());
    }

    #[test]
    fn compare_flags_median_regression() {
        let base = bench_file("reg_base", 1000.0, "8x8x8");
        let fresh = bench_file("reg_new", 1500.0, "8x8x8");
        let err = compare_files(&base, &fresh, 25.0).unwrap_err();
        assert!(err.contains("+50.0%"), "{err}");
    }

    #[test]
    fn compare_ignores_improvements() {
        let base = bench_file("imp_base", 1000.0, "8x8x8");
        let fresh = bench_file("imp_new", 400.0, "8x8x8");
        assert!(compare_files(&base, &fresh, 25.0).is_ok());
    }

    #[test]
    fn compare_disambiguates_duplicate_keys_by_name() {
        // Two rows sharing (op, shape, threads, simd): a regression in the
        // second must be caught against its own namesake, not the first.
        let write = |tag: &str, medians: [(f64, &str); 2]| -> String {
            let entries = medians
                .iter()
                .map(|&(m, name)| {
                    Json::obj(vec![
                        ("group", Json::Str("g".into())),
                        ("name", Json::Str(name.into())),
                        ("op", Json::Str("fl_round".into())),
                        ("shape", Json::Str("adult".into())),
                        ("simd", Json::Str("avx2/avx2+fma".into())),
                        ("threads", Json::Num(1.0)),
                        ("median_ns", Json::Num(m)),
                        ("min_ns", Json::Num(m)),
                        ("iters", Json::Num(100.0)),
                        ("gflops", Json::Null),
                    ])
                })
                .collect();
            let path = std::env::temp_dir().join(format!("bench_json_check_dup_{tag}.json"));
            std::fs::write(&path, Json::arr(entries).pretty()).unwrap();
            path.to_string_lossy().into_owned()
        };
        let base = write("base", [(1000.0, "FedAvg"), (2000.0, "SCAFFOLD")]);
        let fresh = write("new", [(1000.0, "FedAvg"), (4000.0, "SCAFFOLD")]);
        let err = compare_files(&base, &fresh, 25.0).unwrap_err();
        assert!(err.contains("SCAFFOLD") && err.contains("+100.0%"), "{err}");
    }

    #[test]
    fn compare_with_no_matching_rows_is_an_error() {
        let base = bench_file("mis_base", 1000.0, "8x8x8");
        let fresh = bench_file("mis_new", 1000.0, "16x16x16");
        let err = compare_files(&base, &fresh, 25.0).unwrap_err();
        assert!(err.contains("no rows matched"), "{err}");
    }

    #[test]
    fn missing_field_fails() {
        let e = Json::obj(vec![("group", Json::Str("g".into()))]);
        assert!(check_entry(&e, 0).is_err());
    }

    #[test]
    fn empty_simd_tag_fails() {
        let e = Json::obj(vec![
            ("group", Json::Str("g".into())),
            ("name", Json::Str("n".into())),
            ("op", Json::Str("matmul".into())),
            ("shape", Json::Str("8x8x8".into())),
            ("simd", Json::Str(String::new())),
            ("threads", Json::Num(2.0)),
            ("median_ns", Json::Num(10.0)),
            ("min_ns", Json::Num(9.0)),
            ("iters", Json::Num(100.0)),
            ("gflops", Json::Null),
        ]);
        let err = check_entry(&e, 0).unwrap_err();
        assert!(err.contains("simd"), "{err}");
    }
}
