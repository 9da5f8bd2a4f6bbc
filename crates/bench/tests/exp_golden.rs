//! Behaviour lock for the experiment registry: the stdout of each of the
//! 14 deterministic experiments (Tables 1–3, Figures 3–12, the ablations)
//! at `exp <id> --quick --seed 42` is pinned byte-for-byte in
//! `tests/golden/<id>.txt`.
//!
//! The child runs under `NIID_SIMD=off` so the fixtures are machine-
//! independent (the scalar arm reproduces history on every CPU), and with
//! the `NIID_*` output env defaults cleared so a developer's shell cannot
//! leak a trace or checkpoint path into the run. The fixtures were
//! generated from the per-figure `main`s the registry replaced and must
//! never be edited by a refactor of how experiments are declared or driven.

mod common;

fn check(id: &str) {
    let out = common::exp_command()
        .args([id, "--quick", "--seed", "42"])
        .env("NIID_SIMD", "off")
        .output()
        .unwrap_or_else(|e| panic!("spawn exp: {e}"));
    assert!(
        out.status.success(),
        "{id} exited {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let path = format!("{}/tests/golden/{id}.txt", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    if out.stdout != want {
        panic!(
            "{id}: stdout differs from {path}\n{}",
            line_diff(
                &String::from_utf8_lossy(&want),
                &String::from_utf8_lossy(&out.stdout)
            )
        );
    }
}

/// Only the lines that differ, numbered from 1, so a re-pin reads as a
/// short diff in a CI log instead of two full dumps. A line missing on
/// one side prints as `<none>`.
fn line_diff(want: &str, got: &str) -> String {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let show = |l: Option<&&str>| l.map_or("<none>".to_string(), |l| format!("{l:?}"));
    let mut out = String::new();
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i), got.get(i));
        if w != g {
            out += &format!(
                "line {}:\n  expected {}\n  got      {}\n",
                i + 1,
                show(w),
                show(g)
            );
        }
    }
    if out.is_empty() {
        // Same lines, different bytes: line endings or a trailing newline.
        out += "lines match; the difference is in line endings or the final newline\n";
    }
    out
}

macro_rules! golden {
    ($($id:ident)*) => {$(
        #[test]
        fn $id() {
            check(stringify!($id));
        }
    )*};
}

golden!(table1 table2 table3 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 ablation);
