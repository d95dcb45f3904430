//! `schemacast` — command-line schema-cast revalidation.
//!
//! ```text
//! schemacast validate --schema S.xsd DOCS [CORPUS FLAGS]
//! schemacast cast --source S.xsd --target T.xsd DOCS [CORPUS FLAGS]
//! schemacast batch --source S.xsd --target T.xsd DOCS [CORPUS FLAGS]
//!     DOCS:         doc.xml ... | --dir CORPUS/ | --manifest files.txt
//!     CORPUS FLAGS: [--threads N] [--cache verdicts.scvc] [--warm-up] [--certify] [--stats]
//! schemacast repair --source S.xsd --target T.xsd --out fixed.xml doc.xml
//! schemacast inspect --source S.xsd --target T.xsd
//! schemacast analyze S.xsd Sprime.xsd [--json]
//! schemacast lint S.xsd [Sprime.xsd] [--json | --sarif] [--fail-on warn|error]
//! schemacast certify S.xsd Sprime.xsd [--json]
//! schemacast chain v1.xsd v2.xsd [v3.xsd ...] [--json | --sarif] [--certify]
//! ```
//!
//! `validate`, `cast` and `batch` are one command over the bounded-memory
//! corpus pipeline, and take the same flags. Paths stream through a
//! bounded queue to the workers, documents are memory-mapped and
//! validated off the tape without ever building a tree, and per-file read
//! or parse failures become per-item verdicts (`READ FAILED` /
//! `MALFORMED`, exit 2) instead of aborting the run.
//! `cast` and `batch` cast each document from `--source` to `--target`.
//! `validate --schema S` is a cast from the empty schema to `S`: no source
//! type subsumes anything, so every element is checked against `S` alone.
//! A cast's precondition is a source-valid document, so the bytes of a
//! subsumed subtree are skipped unread; `validate` skips nothing and so
//! reports every malformed byte.
//! `--cache PATH` adds the persistent content-hash verdict cache: hits
//! replay recorded verdicts, and the cache goes cold automatically when
//! the schema pair, cast options, or computed relations change. With
//! `--certify`, only entries recorded under the same certified
//! fingerprint are trusted.
//!
//! Schemas ending in `.dtd` are parsed as DTDs. `--root NAME` names the
//! document element; without it every declared element may be the root.
//!
//! Every verdict-bearing subcommand shares one exit contract:
//! **0** = clean (all documents valid / no findings at the gate severity /
//! every certificate checked / evolution fully stable), **1** = a negative
//! verdict (some document invalid, a finding at or above `--fail-on`, a
//! rejected certificate, an unstable `analyze` diff, a broken chain),
//! **2** = usage, I/O, or parse error — the input never got a verdict.
//!
//! `certify` emits proof certificates for every static claim of the pair's
//! preprocessing and validates them with the independent checker (exit 1 if
//! any fails). `--certify` on `validate` / `cast` / `batch` / `repair` /
//! `analyze` / `chain` runs the same pass before any document is touched
//! and fails closed (exit 2) unless every claim is certified; on `chain` it
//! adds the composition certificates (the per-hop tuples behind every
//! composed end-to-end fact).

use schemacast::analysis;
use schemacast::core::certification_digest;
use schemacast::core::certify::{certify_context, certify_context_with_scripts, CertificationRun};
use schemacast::core::{certify_chain, CastContext, Repairer, SchemaChain, Severity};
use schemacast::engine::{BatchEngine, CorpusOptions, CorpusSource, ItemOutcome, VerdictCache};
use schemacast::schema::{AbstractSchema, SchemaBuilder, SchemaSpans, Session};
use schemacast::tree::{Doc, WhitespaceMode};
use schemacast::xml::parse_document;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    command: String,
    schema: Option<String>,
    source: Option<String>,
    target: Option<String>,
    root: Option<String>,
    out: Option<String>,
    threads: Option<usize>,
    dir: Option<String>,
    manifest: Option<String>,
    cache: Option<String>,
    stats: bool,
    warm_up: bool,
    certify: bool,
    json: bool,
    sarif: bool,
    fail_on: Option<String>,
    script: Option<String>,
    docs: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  schemacast validate --schema S.xsd DOCS [CORPUS FLAGS]\n  \
         schemacast cast --source S.xsd --target T.xsd DOCS [CORPUS FLAGS]\n  \
         schemacast batch --source S.xsd --target T.xsd DOCS [CORPUS FLAGS]\n    \
         DOCS: doc.xml... | --dir DIR | --manifest FILE\n    \
         CORPUS FLAGS: [--threads N] [--cache PATH] [--warm-up] [--certify] [--stats]\n  \
         schemacast repair --source S.xsd --target T.xsd [--out fixed.xml] [--certify] \
         doc.xml...\n  \
         schemacast inspect --source S.xsd --target T.xsd\n  \
         schemacast analyze S.xsd Sprime.xsd [--json] [--certify]\n  \
         schemacast analyze S.xsd Sprime.xsd doc.xml --script edits.txt \
         [--json | --sarif] [--certify]\n  \
         schemacast lint S.xsd [Sprime.xsd] [--json | --sarif] [--fail-on warn|error]\n  \
         schemacast certify S.xsd Sprime.xsd [--json]\n  \
         schemacast chain v1.xsd v2.xsd [v3.xsd ...] [--json | --sarif] [--certify] \
         [--fail-on warn|error]\n  \
         (use .dtd schema files with optional --root NAME; without it every declared \
         element may be the root)"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut opts = Options {
        command,
        schema: None,
        source: None,
        target: None,
        root: None,
        out: None,
        threads: None,
        dir: None,
        manifest: None,
        cache: None,
        stats: false,
        warm_up: false,
        certify: false,
        json: false,
        sarif: false,
        fail_on: None,
        script: None,
        docs: Vec::new(),
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--schema" => opts.schema = args.next(),
            "--source" => opts.source = args.next(),
            "--target" => opts.target = args.next(),
            "--root" => opts.root = args.next(),
            "--out" => opts.out = args.next(),
            "--threads" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--threads requires a number");
                    return Err(usage());
                };
                opts.threads = Some(n);
            }
            "--dir" => opts.dir = args.next(),
            "--manifest" => opts.manifest = args.next(),
            "--cache" => opts.cache = args.next(),
            "--stats" => opts.stats = true,
            "--warm-up" => opts.warm_up = true,
            "--certify" => opts.certify = true,
            "--json" => opts.json = true,
            "--sarif" => opts.sarif = true,
            "--fail-on" => opts.fail_on = args.next(),
            "--script" => opts.script = args.next(),
            "--help" | "-h" => return Err(usage()),
            _ if a.starts_with("--") => {
                eprintln!("unknown flag {a}");
                return Err(usage());
            }
            _ => opts.docs.push(a),
        }
    }
    // `analyze` and `certify` take their two schemas as positional
    // arguments.
    if opts.command == "analyze" || opts.command == "certify" {
        // `analyze --script` adds a document positional after the schemas.
        let want = if opts.command == "analyze" && opts.script.is_some() {
            3
        } else {
            2
        };
        if opts.docs.len() != want {
            if want == 3 {
                eprintln!("analyze --script requires two schema files and one document");
            } else {
                eprintln!("{} requires exactly two schema files", opts.command);
            }
            return Err(usage());
        }
        if opts.json && opts.sarif {
            eprintln!("--json and --sarif are mutually exclusive");
            return Err(usage());
        }
        return Ok(opts);
    }
    // `lint` takes one schema (hygiene) or two (evolution compatibility);
    // `chain` takes the whole version sequence.
    if opts.command == "lint" || opts.command == "chain" {
        if opts.command == "lint" && (opts.docs.is_empty() || opts.docs.len() > 2) {
            eprintln!("lint requires one or two schema files");
            return Err(usage());
        }
        if opts.command == "chain" && opts.docs.len() < 2 {
            eprintln!("chain requires at least two schema files (v1 v2 [v3 ...])");
            return Err(usage());
        }
        if opts.json && opts.sarif {
            eprintln!("--json and --sarif are mutually exclusive");
            return Err(usage());
        }
        match opts.fail_on.as_deref() {
            None | Some("warn" | "error") => {}
            Some(other) => {
                eprintln!("--fail-on must be `warn` or `error`, got {other:?}");
                return Err(usage());
            }
        }
        return Ok(opts);
    }
    // The corpus commands name their documents via `--dir`, `--manifest`,
    // or a positional file list; the three are mutually exclusive.
    if matches!(opts.command.as_str(), "validate" | "cast" | "batch") {
        let sources = usize::from(opts.dir.is_some())
            + usize::from(opts.manifest.is_some())
            + usize::from(!opts.docs.is_empty());
        if sources > 1 {
            eprintln!("--dir, --manifest, and a positional file list are mutually exclusive");
            return Err(usage());
        }
        if sources == 1 {
            return Ok(opts);
        }
    }
    if opts.docs.is_empty() && opts.command != "inspect" {
        eprintln!("no documents given");
        return Err(usage());
    }
    Ok(opts)
}

fn load_schema(
    path: &str,
    root: Option<&str>,
    session: &mut Session,
) -> Result<AbstractSchema, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if path.ends_with(".dtd") {
        session
            .parse_dtd(&text, root)
            .map_err(|e| format!("{path}: {e}"))
    } else {
        session.parse_xsd(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// Loads the (source, target) schema pair a command works on: the first
/// two positionals for `analyze` and `certify`, the empty schema and
/// `--schema` for `validate`, and `--source` and `--target` otherwise. A
/// missing flag is a usage error; a schema that cannot be read or parsed
/// is reported and exits 2.
fn load_pair(
    opts: &Options,
    session: &mut Session,
) -> Result<(AbstractSchema, AbstractSchema), ExitCode> {
    let (source, target) = match opts.command.as_str() {
        "analyze" | "certify" => (Some(opts.docs[0].as_str()), opts.docs[1].as_str()),
        "validate" => {
            let Some(schema) = opts.schema.as_deref() else {
                eprintln!("validate requires --schema");
                return Err(usage());
            };
            (None, schema)
        }
        _ => {
            let (Some(source), Some(target)) = (opts.source.as_deref(), opts.target.as_deref())
            else {
                eprintln!("{} requires --source and --target", opts.command);
                return Err(usage());
            };
            (Some(source), target)
        }
    };
    let failed = |e: String| {
        eprintln!("{e}");
        ExitCode::from(2)
    };
    let root = opts.root.as_deref();
    let source = match source {
        Some(path) => load_schema(path, root, session),
        None => SchemaBuilder::new(&mut session.alphabet)
            .finish()
            .map_err(|e| e.to_string()),
    }
    .map_err(failed)?;
    let target = load_schema(target, root, session).map_err(failed)?;
    Ok((source, target))
}

/// Parses one document into a tree, for the commands that edit or address
/// its nodes (`repair`, `analyze --script`).
fn load_doc(path: &str, session: &mut Session) -> Result<Doc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let xml = parse_document(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(Doc::from_xml(
        &xml.root,
        &mut session.alphabet,
        WhitespaceMode::Trim,
    ))
}

/// The `--certify` gate: certifies the pair's preprocessing and fails
/// closed unless every static claim passes the independent checker. On
/// success returns the run so callers can surface the counters.
fn certify_gate(ctx: &CastContext<'_>) -> Result<CertificationRun, ExitCode> {
    let run = certify_context(ctx);
    if run.all_certified() {
        Ok(run)
    } else {
        for d in &run.diagnostics {
            eprintln!("{d}");
        }
        eprintln!(
            "certification failed: {} finding(s); refusing to proceed",
            run.diagnostics.len()
        );
        Err(ExitCode::from(2))
    }
}

/// The document commands' exit code: 2 when some input got no verdict,
/// otherwise 1 when some document is invalid, otherwise 0.
fn exit_code(any_invalid: bool, any_failed: bool) -> ExitCode {
    if any_failed {
        ExitCode::from(2)
    } else if any_invalid {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    let mut session = Session::new();

    match opts.command.as_str() {
        "inspect" => {
            let (source, target) = match load_pair(&opts, &mut session) {
                Ok(pair) => pair,
                Err(code) => return code,
            };
            let ctx = CastContext::new(&source, &target, &session.alphabet);
            let rel = ctx.relations();
            println!(
                "source: {} types   target: {} types   (DTD-style: {}/{})",
                source.type_count(),
                target.type_count(),
                source.is_dtd_style(),
                target.is_dtd_style()
            );
            println!(
                "subsumed pairs: {}   disjoint pairs: {}\n",
                rel.subsumed_pair_count(),
                rel.disjoint_pair_count()
            );
            // Per same-named type pair, the relation the validator will use.
            println!("{:<28} {:<28} relation", "source type", "target type");
            for s_id in source.type_ids() {
                let name = source.type_name(s_id);
                let Some(t_id) = target.type_by_name(name) else {
                    continue;
                };
                let relation = if rel.subsumed(s_id, t_id) {
                    "subsumed (skip)"
                } else if rel.disjoint(s_id, t_id) {
                    "disjoint (reject)"
                } else {
                    "check"
                };
                println!("{:<28} {:<28} {}", name, target.type_name(t_id), relation);
            }
            ExitCode::SUCCESS
        }
        // Every document verdict comes from the streaming corpus pipeline,
        // so memory depends on the schemas rather than the documents, and
        // every file gets its own verdict line.
        "validate" | "cast" | "batch" => {
            let (source, target) = match load_pair(&opts, &mut session) {
                Ok(pair) => pair,
                Err(code) => return code,
            };
            let corpus = if let Some(dir) = &opts.dir {
                CorpusSource::Dir(PathBuf::from(dir))
            } else if let Some(man) = &opts.manifest {
                CorpusSource::Manifest(PathBuf::from(man))
            } else {
                CorpusSource::Paths(opts.docs.iter().map(PathBuf::from).collect())
            };
            let ctx = CastContext::new(&source, &target, &session.alphabet);
            let engine = BatchEngine::with_workers(&ctx, opts.threads.unwrap_or(0));
            let cert_run = if opts.certify {
                match certify_gate(&ctx) {
                    Ok(run) => Some(run),
                    Err(code) => return code,
                }
            } else {
                None
            };
            if opts.warm_up {
                let built = engine.warm_up();
                println!("warm-up: {built} product IDA(s) precomputed");
            }

            // The cache trusts an existing file only under the same
            // context fingerprint — and, when certifying, the same
            // certification digest.
            let fp = ctx.fingerprint(&session.alphabet);
            let cert_digest = cert_run
                .as_ref()
                .map_or(0, |run| certification_digest(fp, run));
            let mut cache = opts
                .cache
                .as_deref()
                .map(|p| VerdictCache::load(Path::new(p), fp, cert_digest));
            let mut report = match engine.validate_corpus(
                &corpus,
                &session.alphabet,
                cache.as_mut(),
                &CorpusOptions::default(),
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{}: {e}", opts.command);
                    return ExitCode::from(2);
                }
            };
            if let (Some(cache), Some(path)) = (&cache, opts.cache.as_deref()) {
                if let Err(e) = cache.save(Path::new(path)) {
                    eprintln!("warning: cannot save cache {path}: {e}");
                }
            }
            if let Some(run) = &cert_run {
                report.totals += run.stats();
            }
            for item in &report.items {
                let path = item.path.display();
                match &item.outcome {
                    ItemOutcome::Valid => println!("{path}: valid"),
                    ItemOutcome::Invalid | ItemOutcome::ChainBroken { .. } => {
                        println!("{path}: INVALID");
                    }
                    ItemOutcome::MalformedXml(e) => println!("{path}: MALFORMED ({e})"),
                    ItemOutcome::ReadFailed(e) | ItemOutcome::EditFailed(e) => {
                        println!("{path}: READ FAILED ({e})");
                    }
                }
            }
            println!(
                "{}: {} doc(s) on {} worker(s) in {:.1?}  ({:.0} docs/sec)  \
                 valid {} / invalid {} / malformed {} / read-failed {}",
                opts.command,
                report.items.len(),
                report.workers,
                report.elapsed,
                report.docs_per_sec(),
                report.valid,
                report.invalid,
                report.malformed,
                report.read_failed
            );
            if opts.stats {
                println!(
                    "  nodes visited: {}   subsumed skips: {}   value checks: {}",
                    report.totals.nodes_visited,
                    report.totals.subsumed_skips,
                    report.totals.value_checks
                );
                println!(
                    "  bytes skipped lexically: {}   tag events avoided: {}",
                    report.totals.bytes_skipped, report.totals.events_avoided
                );
                if report.totals.tape_events > 0 {
                    println!(
                        "  tape events: {}   tape skip hops: {}   index build: {} us",
                        report.totals.tape_events,
                        report.totals.tape_skip_hops,
                        report.totals.index_build_micros
                    );
                }
                println!(
                    "  cache hits: {}   cache misses: {}",
                    report.cache_hits, report.cache_misses
                );
                println!(
                    "  bytes mmapped: {}   bytes read: {}",
                    report.bytes_mmapped, report.bytes_read
                );
                if cert_run.is_some() {
                    println!(
                        "  certificates: {} emitted, {} checked in {} us",
                        report.totals.certs_emitted,
                        report.totals.certs_checked,
                        report.totals.cert_check_micros
                    );
                }
            }
            // Every item that is neither valid nor invalid never got a verdict.
            exit_code(
                report.invalid > 0,
                report.valid + report.invalid < report.items.len(),
            )
        }
        "repair" => {
            let (source, target) = match load_pair(&opts, &mut session) {
                Ok(pair) => pair,
                Err(code) => return code,
            };
            let ctx = CastContext::new(&source, &target, &session.alphabet);
            if opts.certify {
                match certify_gate(&ctx) {
                    Ok(run) if opts.stats => println!(
                        "certificates: {} emitted, {} checked in {} us",
                        run.certs_emitted, run.certs_checked, run.check_micros
                    ),
                    Ok(_) => {}
                    Err(code) => return code,
                }
            }
            // One document at a time: a file that cannot be read or parsed
            // gets its own error line, and the rest are still repaired. The
            // repairer borrows the alphabet each load extends, so it is
            // built per document.
            let (mut any_invalid, mut any_failed) = (false, false);
            for path in &opts.docs {
                let doc = match load_doc(path, &mut session) {
                    Ok(doc) => doc,
                    Err(e) => {
                        eprintln!("{e}");
                        any_failed = true;
                        continue;
                    }
                };
                match Repairer::new(&ctx, &session.alphabet).repair(&doc) {
                    Ok((fixed, actions)) => {
                        println!("{path}: {} change(s)", actions.len());
                        for a in &actions {
                            println!("  {a}");
                        }
                        let xml_out =
                            schemacast::xml::to_pretty_string(&fixed.to_xml(&session.alphabet));
                        match opts.out.as_deref() {
                            Some(out_path) => {
                                if let Err(e) = std::fs::write(out_path, xml_out) {
                                    eprintln!("cannot write {out_path}: {e}");
                                    return ExitCode::from(2);
                                }
                                println!("  wrote {out_path}");
                            }
                            None => print!("{xml_out}"),
                        }
                    }
                    Err(e) => {
                        eprintln!("{path}: unrepairable: {e}");
                        any_invalid = true;
                    }
                }
            }
            exit_code(any_invalid, any_failed)
        }
        "lint" => {
            // Parse every schema and keep the raw text: the span scanner
            // anchors diagnostics to file positions the parser discards.
            let mut parsed: Vec<(String, AbstractSchema, Option<SchemaSpans>)> = Vec::new();
            for path in &opts.docs {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                let (schema, spans) = if path.ends_with(".dtd") {
                    match session.parse_dtd(&text, opts.root.as_deref()) {
                        Ok(s) => (s, None),
                        Err(e) => {
                            eprintln!("{path}: {e}");
                            return ExitCode::from(2);
                        }
                    }
                } else {
                    match session.parse_xsd(&text) {
                        Ok(s) => (s, Some(SchemaSpans::scan(&text))),
                        Err(e) => {
                            eprintln!("{path}: {e}");
                            return ExitCode::from(2);
                        }
                    }
                };
                parsed.push((path.clone(), schema, spans));
            }
            let mut report = analysis::LintReport::default();
            for (path, schema, spans) in &parsed {
                report.extend(analysis::lint_schema(
                    schema,
                    &session.alphabet,
                    Some(path),
                    spans.as_ref(),
                ));
            }
            if let [_, (tgt_path, target, tgt_spans)] = parsed.as_slice() {
                let source = &parsed[0].1;
                let ctx = CastContext::new(source, target, &session.alphabet);
                let target_info = tgt_spans.as_ref().map(|s| (tgt_path.as_str(), s));
                report.extend(analysis::lint_pair(&ctx, &session.alphabet, target_info));
            }
            if opts.sarif {
                println!("{}", analysis::render_sarif(&report));
            } else if opts.json {
                println!("{}", analysis::render_lint_json(&report));
            } else {
                print!("{}", analysis::render_lint_text(&report));
            }
            let threshold = match opts.fail_on.as_deref() {
                Some("warn") => Severity::Warning,
                _ => Severity::Error,
            };
            if report.fails(threshold) {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        "analyze" => {
            let (source, target) = match load_pair(&opts, &mut session) {
                Ok(pair) => pair,
                Err(code) => return code,
            };
            if let Some(script_path) = &opts.script {
                // Whole-script mode: judge one (document, edit script) pair.
                let doc = match load_doc(&opts.docs[2], &mut session) {
                    Ok(d) => d,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::from(2);
                    }
                };
                let script_text = match std::fs::read_to_string(script_path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read {script_path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                // Script labels are interned before the context borrows the
                // alphabet; late symbols land in each DFA's sink state.
                let edits = match analysis::parse_script(&doc, &mut session.alphabet, &script_text)
                {
                    Ok(e) => e,
                    Err(e) => {
                        eprintln!("{script_path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                let ctx = CastContext::new(&source, &target, &session.alphabet);
                if !source.accepts_document(&doc) {
                    eprintln!(
                        "{}: document is not valid against {}",
                        opts.docs[2], opts.docs[0]
                    );
                    return ExitCode::from(2);
                }
                if opts.certify {
                    let run = certify_context_with_scripts(&ctx, &[(&doc, &edits)]);
                    if !run.all_certified() {
                        for d in &run.diagnostics {
                            eprintln!("{d}");
                        }
                        eprintln!(
                            "certification failed: {} finding(s); refusing to proceed",
                            run.diagnostics.len()
                        );
                        return ExitCode::from(2);
                    }
                }
                let report = analysis::analyze_script(&ctx, &doc, &edits);
                if opts.sarif {
                    println!("{}", analysis::render_sarif(&report.lint));
                } else if opts.json {
                    println!("{}", analysis::render_script_json(&report));
                } else {
                    print!("{}", analysis::render_script_text(&report));
                }
                // Exit contract: statically rejected scripts fail the gate;
                // accepted and fallback scripts are not errors.
                return if report.outcome == analysis::ScriptOutcome::Rejected {
                    ExitCode::from(1)
                } else {
                    ExitCode::SUCCESS
                };
            }
            let ctx = CastContext::new(&source, &target, &session.alphabet);
            if opts.certify {
                if let Err(code) = certify_gate(&ctx) {
                    return code;
                }
            }
            let report = analysis::analyze(&ctx, &session.alphabet);
            if opts.json {
                println!("{}", analysis::render_json(&report));
            } else {
                print!("{}", analysis::render_text(&report));
            }
            // Exit contract: 0 only when the evolution is fully
            // subsumption-stable (nothing changed, went disjoint, or was
            // removed) — the same gate shape as `lint --fail-on error`.
            if report.is_stable() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        "certify" => {
            let (source, target) = match load_pair(&opts, &mut session) {
                Ok(pair) => pair,
                Err(code) => return code,
            };
            let ctx = CastContext::new(&source, &target, &session.alphabet);
            let run = certify_context(&ctx);
            if opts.json {
                println!("{}", analysis::render_certify_json(&run));
            } else {
                print!("{}", analysis::render_certify_text(&run));
            }
            if run.all_certified() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        "chain" => {
            let mut schemas = Vec::with_capacity(opts.docs.len());
            for path in &opts.docs {
                match load_schema(path, opts.root.as_deref(), &mut session) {
                    Ok(s) => schemas.push(s),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::from(2);
                    }
                }
            }
            let chain = match SchemaChain::new(&schemas, &session.alphabet) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            if opts.certify {
                let run = certify_chain(&chain);
                if !run.all_certified() {
                    for d in &run.diagnostics {
                        eprintln!("{d}");
                    }
                    eprintln!(
                        "chain certification failed: {} finding(s); refusing to proceed",
                        run.diagnostics.len()
                    );
                    return ExitCode::from(2);
                }
                if opts.stats && !opts.json && !opts.sarif {
                    println!("{}", run.stats());
                }
            }
            let report = analysis::analyze_chain(&chain, &session.alphabet);
            if opts.sarif {
                println!("{}", analysis::render_sarif(&report.lint));
            } else if opts.json {
                println!("{}", analysis::render_chain_json(&report));
            } else {
                print!("{}", analysis::render_chain_text(&report));
            }
            let threshold = match opts.fail_on.as_deref() {
                Some("warn") => Severity::Warning,
                _ => Severity::Error,
            };
            if report.lint.fails(threshold) {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        other => {
            eprintln!("unknown command {other:?}");
            usage()
        }
    }
}
