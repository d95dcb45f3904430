//! `schemacast batch` names its documents three ways — a positional file
//! list, `--manifest`, or `--dir` — and all three run the same corpus
//! pipeline: the same per-item verdict lines, the same summary counts,
//! and the same exit code, including for a malformed and a missing file.

use std::path::{Path, PathBuf};
use std::process::Command;

const SOURCE: &str = "tests/fixtures/po_source.xsd";
const TARGET: &str = "tests/fixtures/po_target.xsd";

/// Runs `batch` over the fixture pair; returns (exit code, the per-item
/// lines, the summary line with its timing fields cut out).
fn batch(corpus_args: &[&str]) -> (i32, Vec<String>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_schemacast"))
        .args([
            "batch",
            "--source",
            SOURCE,
            "--target",
            TARGET,
            "--threads",
            "2",
        ])
        .args(corpus_args)
        .output()
        .expect("run schemacast");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let items = stdout
        .lines()
        .filter(|l| l.contains(".xml: "))
        .map(str::to_string)
        .collect();
    let summary = stdout
        .lines()
        .find(|l| l.starts_with("batch: "))
        .expect("summary line");
    // "batch: N doc(s) on W worker(s) in <elapsed>  (<rate> docs/sec)  <counts>"
    let (head, _) = summary.split_once(" in ").expect("elapsed field");
    let (_, counts) = summary.split_once("docs/sec)").expect("rate field");
    (
        out.status.code().expect("no signal"),
        items,
        format!("{head} |{counts}"),
    )
}

#[cfg(unix)]
#[test]
fn positional_manifest_and_dir_batches_report_identically() {
    let dir = std::env::temp_dir().join(format!("schemacast-batch-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    let fixture = |name: &str| Path::new("tests/fixtures").join(name);
    std::fs::copy(fixture("po_doc_v1.xml"), dir.join("a_valid.xml")).expect("copy");
    std::fs::copy(fixture("po_doc_nobill.xml"), dir.join("b_invalid.xml")).expect("copy");
    std::fs::write(dir.join("c_malformed.xml"), "<purchaseOrder><shipTo>").expect("write");
    // A dangling link: walked by `--dir` like any `.xml` entry, but
    // opening it fails, as for a missing positional or manifest path.
    std::os::unix::fs::symlink(dir.join("gone.xml"), dir.join("d_missing.xml")).expect("link");
    let names = [
        "a_valid.xml",
        "b_invalid.xml",
        "c_malformed.xml",
        "d_missing.xml",
    ];
    let paths: Vec<PathBuf> = names.iter().map(|n| dir.join(n)).collect();
    std::fs::write(dir.join("files.txt"), names.join("\n")).expect("write manifest");

    let positional: Vec<&str> = paths
        .iter()
        .map(|p| p.to_str().expect("utf8 path"))
        .collect();
    let manifest = dir.join("files.txt");
    let runs = [
        batch(&positional),
        batch(&["--manifest", manifest.to_str().expect("utf8 path")]),
        batch(&["--dir", dir.to_str().expect("utf8 path")]),
    ];

    let (code, items, summary) = &runs[0];
    assert_eq!(*code, 2, "a malformed or unreadable file exits 2");
    let verdicts: Vec<&str> = items
        .iter()
        .map(|l| l.split_once(".xml: ").expect("item line").1)
        .collect();
    assert_eq!(verdicts.len(), 4, "{items:?}");
    assert_eq!(verdicts[0], "valid");
    assert_eq!(verdicts[1], "INVALID");
    assert!(verdicts[2].starts_with("MALFORMED ("), "{}", verdicts[2]);
    assert!(verdicts[3].starts_with("READ FAILED ("), "{}", verdicts[3]);
    assert!(
        summary.ends_with("valid 1 / invalid 1 / malformed 1 / read-failed 1"),
        "{summary}"
    );
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(run, &runs[0], "run {i} differs from the positional run");
    }
    std::fs::remove_dir_all(&dir).ok();
}
