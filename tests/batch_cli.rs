//! `schemacast validate`, `cast` and `batch` are one corpus pipeline, and
//! `batch` names its documents three ways — a positional file list,
//! `--manifest`, or `--dir`. Every combination gives the same per-item
//! verdict lines, the same summary counts, and the same exit code,
//! including for a malformed and a missing file; and no document, however
//! deep, aborts the process.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SOURCE: &str = "tests/fixtures/po_source.xsd";
const TARGET: &str = "tests/fixtures/po_target.xsd";
const BATCH: [&str; 5] = ["batch", "--source", SOURCE, "--target", TARGET];
const CAST: [&str; 5] = ["cast", "--source", SOURCE, "--target", TARGET];
const VALIDATE: [&str; 3] = ["validate", "--schema", TARGET];

fn schemacast(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_schemacast"))
        .args(args)
        .output()
        .expect("run schemacast")
}

/// Runs a corpus command on two workers; returns (exit code, the per-item
/// lines, the summary line with the command name and timing fields cut
/// out).
fn run(command: &[&str], corpus_args: &[&str]) -> (i32, Vec<String>, String) {
    let out = schemacast(&[command, &["--threads", "2"], corpus_args].concat());
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let items = stdout
        .lines()
        .filter(|l| l.contains(".xml: "))
        .map(str::to_string)
        .collect();
    // "<command>: N doc(s) on W worker(s) in <elapsed>  (<rate> docs/sec)  <counts>"
    let summary = stdout
        .lines()
        .find_map(|l| l.strip_prefix(command[0])?.strip_prefix(": "))
        .expect("summary line");
    let (head, _) = summary.split_once(" in ").expect("elapsed field");
    let (_, counts) = summary.split_once("docs/sec)").expect("rate field");
    (
        out.status.code().expect("no signal"),
        items,
        format!("{head} |{counts}"),
    )
}

/// An empty per-process temporary directory for one test.
fn fresh_temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("schemacast-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn utf8(path: &Path) -> &str {
    path.to_str().expect("utf8 path")
}

#[cfg(unix)]
#[test]
fn positional_manifest_and_dir_batches_report_identically() {
    let dir = fresh_temp_dir("batch-cli");
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

    let positional: Vec<&str> = paths.iter().map(|p| utf8(p)).collect();
    let manifest = dir.join("files.txt");
    // `validate` against the target agrees with the cast here: the valid
    // document is target-valid, and the invalid one lacks `billTo`, which
    // the target requires.
    let runs = [
        run(&BATCH, &positional),
        run(&BATCH, &["--manifest", utf8(&manifest)]),
        run(&BATCH, &["--dir", utf8(&dir)]),
        run(&CAST, &positional),
        run(&VALIDATE, &positional),
        run(&VALIDATE, &["--dir", utf8(&dir)]),
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

/// Writes the deep-nesting fixture into `dir`: `A = (a: A?, b: integer?)`
/// as the source, the same with `b` narrowed to nonNegativeInteger as the
/// target (so no type pair is subsumed and a cast walks every level), and
/// a document nested `depth` deep. Returns (source, target, document).
fn write_deep_fixture(dir: &Path, depth: usize) -> (PathBuf, PathBuf, PathBuf) {
    let schema = |b_type: &str| {
        format!(
            "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\
             <xs:element name=\"a\" type=\"A\"/>\
             <xs:complexType name=\"A\"><xs:sequence>\
             <xs:element name=\"a\" type=\"A\" minOccurs=\"0\"/>\
             <xs:element name=\"b\" type=\"xs:{b_type}\" minOccurs=\"0\"/>\
             </xs:sequence></xs:complexType></xs:schema>"
        )
    };
    let (source, target, doc) = (dir.join("s.xsd"), dir.join("t.xsd"), dir.join("deep.xml"));
    std::fs::write(&source, schema("integer")).expect("write source");
    std::fs::write(&target, schema("nonNegativeInteger")).expect("write target");
    std::fs::write(
        &doc,
        ["<a>".repeat(depth), "<b>7</b>".into(), "</a>".repeat(depth)].concat(),
    )
    .expect("write document");
    (source, target, doc)
}

/// Every command streams, so a million-deep document costs O(depth)
/// frames on the heap, not a million stack frames.
#[test]
fn million_deep_document_gets_a_verdict_from_every_command() {
    let dir = fresh_temp_dir("deep-cli");
    let (source, target, doc) = write_deep_fixture(&dir, 1_000_000);

    let (src, tgt) = (utf8(&source), utf8(&target));
    for command in [
        vec!["batch", "--source", src, "--target", tgt],
        vec!["cast", "--source", src, "--target", tgt],
        vec!["validate", "--schema", tgt],
    ] {
        let (code, items, summary) = run(&command, &[utf8(&doc)]);
        let verdict = format!("{}: valid", doc.display());
        assert_eq!((code, items), (0, vec![verdict]), "{}", command[0]);
        assert!(
            summary.ends_with("valid 1 / invalid 0 / malformed 0 / read-failed 0"),
            "{summary}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `analyze --script` addresses nodes of a parsed tree, so it builds one:
/// the XML import, its export and the DOM's drop walk explicit stacks, and
/// the source-validity precondition runs the iterative tree walk, so a
/// million-deep document gets a script verdict rather than an abort.
#[test]
fn million_deep_document_gets_a_script_verdict() {
    let dir = fresh_temp_dir("deep-script");
    let (source, target, doc) = write_deep_fixture(&dir, 1_000_000);
    for (script, code, verdict) in [
        ("", 0, "verdict accepted"),
        ("insert . 1 b\n", 1, "verdict rejected"),
    ] {
        let script_path = dir.join("script.txt");
        std::fs::write(&script_path, script).expect("write script");
        let out = schemacast(&[
            "analyze",
            utf8(&source),
            utf8(&target),
            utf8(&doc),
            "--script",
            utf8(&script_path),
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{script:?}: {stderr}");
        assert!(stdout.contains(verdict), "{script:?}: {stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_flag_is_rejected() {
    for command in [&BATCH[..], &CAST[..]] {
        let out = schemacast(&[command, &["--stream", "tests/fixtures/po_doc_v1.xml"]].concat());
        assert_eq!(out.status.code(), Some(2), "{} --stream", command[0]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag --stream"), "{stderr}");
    }
}

/// A cast's precondition is a source-valid document, so it never reads
/// inside a subtree it skips: `cast` answers like `batch`. `validate`
/// skips nothing and finds the mismatched end tag.
#[test]
fn cast_skips_a_subsumed_subtree_that_validate_reads() {
    let dir = fresh_temp_dir("skip-cli");
    let doc = dir.join("mismatch.xml");
    let text = std::fs::read_to_string("tests/fixtures/po_doc_v1.xml").expect("read fixture");
    let broken = text.replacen("</city>", "</ctiy>", 1);
    assert!(broken.contains("<city>Mill Valley</ctiy>"), "inside shipTo");
    std::fs::write(&doc, broken).expect("write document");

    let batch = run(&BATCH, &[utf8(&doc)]);
    assert_eq!(batch.0, 0, "{batch:?}");
    assert_eq!(batch.1, [format!("{}: valid", doc.display())]);
    assert_eq!(run(&CAST, &[utf8(&doc)]), batch);

    let (code, items, _) = run(&VALIDATE, &[utf8(&doc)]);
    assert_eq!(code, 2);
    assert_eq!(items.len(), 1, "{items:?}");
    assert!(items[0].contains(".xml: MALFORMED ("), "{}", items[0]);
    std::fs::remove_dir_all(&dir).ok();
}

/// `repair` loads one document at a time: an unreadable or malformed file
/// gets its own error line, the rest are still repaired, and the run exits
/// 2 at the end.
#[test]
fn repair_reports_bad_files_and_repairs_the_rest() {
    let dir = fresh_temp_dir("repair-cli");
    let malformed = dir.join("malformed.xml");
    std::fs::write(&malformed, "<purchaseOrder><shipTo>").expect("write");
    let missing = dir.join("missing.xml");
    let out = schemacast(&[
        "repair",
        "--source",
        SOURCE,
        "--target",
        TARGET,
        utf8(&malformed),
        utf8(&missing),
        "tests/fixtures/po_doc_nobill.xml",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("malformed.xml: "), "{stderr}");
    assert!(stderr.contains("cannot read "), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("po_doc_nobill.xml: 1 change(s)"),
        "{stdout}"
    );
    assert!(stdout.contains("<billTo>"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
