//! The traced per-layer pass: single-thread, with a span around each call
//! into a layer's public function.
//!
//! Set-up spans: `schema.compile` (both XSDs), `core.relations`
//! (`CastContext::new`), `core.fingerprint`, `core.ida_warm`
//! (`BatchEngine::warm_up` at one worker). Each document then gets a `doc`
//! span holding what a corpus run does to it (`engine.read`,
//! `engine.hash`, `engine.cache_lookup`, `xml.tape_build`,
//! `core.validate`), or what `validate_edited` does to an edited item
//! (`core.edit_static`, `core.edit_script`, `tree.doc_clone`,
//! `tree.delta_apply`, `core.mods`). The `xml.lex` span drains every
//! event of a validated document off the same tape; it is diagnostic
//! (the cost validation would pay with no skipping) and sits outside the
//! `doc` span. Last, `engine.batch_1w` / `engine.batch_nw` run the whole
//! batch in process at one and at `nproc` workers.
//!
//! The document pass runs twice, first with the tracer off: the wall-time
//! difference is the tracing overhead.

use crate::inputs::{Corpus, Docs, EditItems, Inputs, WarmCache};
use crate::trace::Tracer;
use crate::{Counters, Metric, Tally};
use schemacast_core::{CastContext, ModsValidator, StreamScratch, StreamingCast, ValidationStats};
use schemacast_engine::{
    content_hash, BatchEngine, CacheEntry, CorpusOptions, CorpusSource, ItemOutcome, VerdictCache,
};
use schemacast_regex::Alphabet;
use schemacast_schema::Session;
use schemacast_tree::DeltaDoc;
use schemacast_xml::{PullParser, StructuralIndex};
use std::io::Read;
use std::path::Path;
use std::time::Instant;

/// Counts gathered alongside the spans.
#[derive(Default)]
struct Counts {
    bytes: u64,
    tape_entries: u64,
    events: u64,
    cache_hits: u64,
    cache_misses: u64,
    static_decided: u64,
    script_decided: u64,
    mods_items: u64,
    stats: ValidationStats,
}

/// Runs the traced pass; returns every per-layer metric and writes the
/// spans to `trace_out`.
#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    inputs: &Inputs,
    warm: Option<&WarmCache>,
    workers: usize,
    scratch_dir: &Path,
    trace_out: &Path,
    label: (&str, u64),
    tally: &mut Tally,
    counters: &mut Counters,
) -> Result<Vec<Metric>, String> {
    let mut tr = Tracer::new(true);
    let mut session = Session::new();
    let (source, target) = tr.time("schema.compile", None, None, || {
        let source = session.parse_xsd(&inputs.pair.source);
        let target = session.parse_xsd(&inputs.pair.target);
        (
            source.expect("generated source XSD compiles"),
            target.expect("generated target XSD compiles"),
        )
    });
    let alphabet = &session.alphabet;
    let ctx = tr.time("core.relations", None, None, || {
        CastContext::new(&source, &target, alphabet)
    });
    let fp = tr.time("core.fingerprint", None, None, || ctx.fingerprint(alphabet));
    let idas = tr.time("core.ida_warm", None, None, || {
        BatchEngine::with_workers(&ctx, 1).warm_up()
    });

    let mut counts = Counts::default();
    let (untraced_s, traced_s) = match &inputs.docs {
        Docs::Corpus(corpus) => {
            let cache_path = warm.map(|w| w.pristine.as_path());
            let saved = scratch_dir.join("traced.scvc");
            let pass = |tr: &mut Tracer, counts: &mut Counts, tally: &mut Tally| {
                let started = Instant::now();
                corpus_pass(
                    tr,
                    &ctx,
                    alphabet,
                    corpus,
                    cache_path.map(|p| (p, fp)),
                    &saved,
                    counts,
                    tally,
                )?;
                Ok::<f64, String>(started.elapsed().as_secs_f64())
            };
            let untraced = pass(&mut Tracer::new(false), &mut Counts::default(), tally)?;
            let traced = pass(&mut tr, &mut counts, tally)?;
            let batch = |tr: &mut Tracer, name: &'static str, workers: usize, tally: &mut Tally| {
                let engine = BatchEngine::with_workers(&ctx, workers);
                let mut cache = cache_path.map(|p| VerdictCache::load(p, fp, 0));
                let source = CorpusSource::Dir(corpus.dir.clone());
                let report = tr
                    .time(name, None, None, || {
                        engine.validate_corpus(
                            &source,
                            alphabet,
                            cache.as_mut(),
                            &CorpusOptions::default(),
                        )
                    })
                    .map_err(|e| format!("validate_corpus: {e}"))?;
                tally.attempted += corpus.files.len() as u64;
                let wrong = report.items.iter().zip(&corpus.files).zip(&corpus.expected);
                tally.failed += wrong
                    .filter(|((item, path), &valid)| {
                        item.path != **path || item.outcome.is_valid() != valid
                    })
                    .count() as u64;
                tally.failed += corpus.files.len().abs_diff(report.items.len()) as u64;
                Ok::<(), String>(())
            };
            batch(&mut tr, "engine.batch_1w", 1, tally)?;
            batch(&mut tr, "engine.batch_nw", workers, tally)?;
            (untraced, traced)
        }
        Docs::Edits(edits) => {
            let ctx = CastContext::new(&edits.source, &edits.target, &edits.session.alphabet);
            let pass = |tr: &mut Tracer, counts: &mut Counts, tally: &mut Tally| {
                let started = Instant::now();
                edit_pass(tr, &ctx, edits, counts, tally);
                started.elapsed().as_secs_f64()
            };
            let untraced = pass(&mut Tracer::new(false), &mut Counts::default(), tally);
            let traced = pass(&mut tr, &mut counts, tally);
            for (name, workers) in [("engine.batch_1w", 1), ("engine.batch_nw", workers)] {
                let engine = BatchEngine::with_workers(&ctx, workers);
                let report = tr.time(name, None, None, || engine.validate_edited(&edits.items));
                tally.attempted += edits.items.len() as u64;
                tally.failed += report
                    .items
                    .iter()
                    .zip(&edits.expected)
                    .filter(|(item, &valid)| item.outcome.is_valid() != valid)
                    .count() as u64;
            }
            (untraced, traced)
        }
    };

    std::fs::write(trace_out, tr.to_json(label.0, label.1))
        .map_err(|e| format!("writing {}: {e}", trace_out.display()))?;

    let relations = ctx.relations();
    let (batch_1w_s, batch_nw_s) = (
        tr.total_ms("engine.batch_1w") / 1e3,
        tr.total_ms("engine.batch_nw") / 1e3,
    );
    let cache_file_bytes = warm
        .and_then(|w| std::fs::metadata(&w.pristine).ok())
        .map_or(0, |m| m.len());
    let s = &counts.stats;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ms = |name: &'static str, span: &str| Metric::new(name, "ms", tr.total_ms(span), 1);
    let count = |name: &'static str, value: u64| Metric::new(name, "count", value as f64, 1);
    let metrics = vec![
        ms("schema.compile_ms", "schema.compile"),
        ms("core.relations_ms", "core.relations"),
        ms("core.fingerprint_ms", "core.fingerprint"),
        ms("core.ida_warm_ms", "core.ida_warm"),
        count("core.idas_built", idas as u64),
        count(
            "core.subsumed_pairs",
            relations.subsumed_pair_count() as u64,
        ),
        count(
            "core.disjoint_pairs",
            relations.disjoint_pair_count() as u64,
        ),
        ms("engine.read_ms", "engine.read"),
        Metric::new("engine.bytes", "bytes", counts.bytes as f64, 1),
        ms("engine.hash_ms", "engine.hash"),
        ms("engine.cache_load_ms", "engine.cache_load"),
        ms("engine.cache_lookup_ms", "engine.cache_lookup"),
        ms("engine.cache_save_ms", "engine.cache_save"),
        count("engine.cache_hits", counts.cache_hits),
        count("engine.cache_misses", counts.cache_misses),
        Metric::new(
            "engine.cache_file_bytes",
            "bytes",
            cache_file_bytes as f64,
            1,
        ),
        ms("xml.tape_build_ms", "xml.tape_build"),
        count("xml.tape_entries", counts.tape_entries),
        ms("xml.lex_ms", "xml.lex"),
        count("xml.events", counts.events),
        ms("core.validate_ms", "core.validate"),
        count("core.nodes_visited", s.nodes_visited as u64),
        count("core.value_checks", s.value_checks as u64),
        count("core.subsumed_skips", s.subsumed_skips as u64),
        count("core.ida_early_rejects", s.ida_early_rejects as u64),
        count("core.disjoint_rejects", s.disjoint_rejects as u64),
        count("core.tape_skip_hops", s.tape_skip_hops as u64),
        Metric::new("core.bytes_skipped", "bytes", s.bytes_skipped as f64, 1),
        Metric::new(
            "core.skip_frac",
            "ratio",
            ratio(s.bytes_skipped as f64, counts.bytes as f64),
            1,
        ),
        ms("core.edit_static_ms", "core.edit_static"),
        count("core.edit_static_decided", counts.static_decided),
        ms("core.edit_script_ms", "core.edit_script"),
        count("core.edit_script_decided", counts.script_decided),
        ms("tree.doc_clone_ms", "tree.doc_clone"),
        ms("tree.delta_apply_ms", "tree.delta_apply"),
        ms("core.mods_ms", "core.mods"),
        count("core.mods_items", counts.mods_items),
        Metric::new("engine.batch_1w_s", "s", batch_1w_s, 1),
        Metric::new("engine.batch_nw_s", "s", batch_nw_s, 1),
        Metric::new(
            "engine.worker_scaling",
            "ratio",
            ratio(batch_1w_s, batch_nw_s),
            1,
        ),
        ms("trace.doc_ms", "doc"),
        Metric::new(
            "trace.overhead_frac",
            "ratio",
            ratio(traced_s - untraced_s, untraced_s),
            1,
        ),
    ];
    for m in &metrics {
        if matches!(m.unit, "count" | "bytes") || m.name == "core.skip_frac" {
            counters.insert(m.name, m.value);
        }
    }
    Ok(metrics)
}

/// What a corpus run does to each file, one file at a time. With a cache
/// (the warm workload), the pristine cache is loaded first, misses are
/// recorded into it, and it is saved at the end, as the CLI does.
#[allow(clippy::too_many_arguments)]
fn corpus_pass(
    tr: &mut Tracer,
    ctx: &CastContext<'_>,
    alphabet: &Alphabet,
    corpus: &Corpus,
    cache_file: Option<(&Path, u64)>,
    saved: &Path,
    counts: &mut Counts,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut cache = cache_file.map(|(path, fp)| {
        tr.time("engine.cache_load", None, None, || {
            VerdictCache::load(path, fp, 0)
        })
    });
    let stream = StreamingCast::new(ctx);
    let mut scratch = StreamScratch::default();
    let mut tape = StructuralIndex::new();
    let mut buf = Vec::new();
    for (i, path) in corpus.files.iter().enumerate() {
        let doc = Some(i as u32);
        let d = tr.open("doc", None, doc);
        tr.time("engine.read", Some(d), doc, || {
            buf.clear();
            std::fs::File::open(path).and_then(|mut f| f.read_to_end(&mut buf))
        })
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let hash = tr.time("engine.hash", Some(d), doc, || content_hash(&buf));
        let hit = cache.as_ref().map(|c| {
            tr.time("engine.cache_lookup", Some(d), doc, || {
                c.get(hash).map(|e| e.replay().0.is_valid())
            })
        });
        counts.bytes += buf.len() as u64;
        let valid = match hit.flatten() {
            Some(valid) => {
                counts.cache_hits += 1;
                tr.close(d);
                valid
            }
            None => {
                let text =
                    std::str::from_utf8(&buf).map_err(|e| format!("{}: {e}", path.display()))?;
                tr.time("xml.tape_build", Some(d), doc, || tape.rebuild(text));
                let (outcome, stats) = tr
                    .time("core.validate", Some(d), doc, || {
                        stream.validate_pull(
                            &mut PullParser::with_index(text, &tape),
                            alphabet,
                            &mut scratch,
                        )
                    })
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                tr.close(d);
                let events = tr.time("xml.lex", None, doc, || {
                    let mut events = 0u64;
                    for event in PullParser::with_index(text, &tape) {
                        event.map(|_| events += 1)?;
                    }
                    Ok::<u64, schemacast_xml::XmlError>(events)
                });
                counts.events += events.map_err(|e| format!("{}: {e}", path.display()))?;
                counts.tape_entries += tape.len() as u64;
                counts.stats += stats;
                if cache.is_some() {
                    counts.cache_misses += 1;
                }
                let verdict = if outcome.is_valid() {
                    ItemOutcome::Valid
                } else {
                    ItemOutcome::Invalid
                };
                if let (Some(cache), Some(entry)) =
                    (cache.as_mut(), CacheEntry::from_outcome(&verdict, stats))
                {
                    cache.insert(hash, entry);
                }
                outcome.is_valid()
            }
        };
        tally.attempted += 1;
        tally.failed += u64::from(valid != corpus.expected[i]);
    }
    if let Some(cache) = &cache {
        tr.time("engine.cache_save", None, None, || cache.save(saved))
            .map_err(|e| format!("saving {}: {e}", saved.display()))?;
    }
    Ok(())
}

/// What `validate_edited` does to each item, one item at a time: the
/// per-edit static tier, then the whole-script tier, then Δ revalidation
/// of a cloned, edited document.
fn edit_pass(
    tr: &mut Tracer,
    ctx: &CastContext<'_>,
    edits: &EditItems,
    counts: &mut Counts,
    tally: &mut Tally,
) {
    let mods = ModsValidator::new(ctx);
    for (i, ((doc, script), &want)) in edits.items.iter().zip(&edits.expected).enumerate() {
        let id = Some(i as u32);
        let d = tr.open("doc", None, id);
        let valid = if let Some((out, stats)) = tr.time("core.edit_static", Some(d), id, || {
            ctx.validate_edited_static(doc, script)
        }) {
            counts.static_decided += 1;
            counts.stats += stats;
            Some(out.is_valid())
        } else if let Some((out, stats)) = tr.time("core.edit_script", Some(d), id, || {
            ctx.validate_edited_script(doc, script)
        }) {
            counts.script_decided += 1;
            counts.stats += stats;
            Some(out.is_valid())
        } else {
            let copy = tr.time("tree.doc_clone", Some(d), id, || doc.clone());
            let edited = tr.time("tree.delta_apply", Some(d), id, || {
                let mut dd = DeltaDoc::new(copy);
                dd.apply_all(script).map(|()| dd)
            });
            edited.ok().map(|dd| {
                let (out, stats) =
                    tr.time("core.mods", Some(d), id, || mods.validate_with_stats(&dd));
                counts.mods_items += 1;
                counts.stats += stats;
                out.is_valid()
            })
        };
        tr.close(d);
        tally.attempted += 1;
        tally.failed += u64::from(valid != Some(want));
    }
}
