//! Seeded inputs for every workload, each document with its known verdict.
//!
//! The same seed always gives the same bytes. Document sizes are
//! stratified (each seed draws one size from every equal-width slice of
//! the size range) and the invalid share is an exact count, so different
//! seeds give inputs of the same total size and verdict mix: a run-to-run
//! difference is the program's, not the generator's.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use schemacast_core::FullValidator;
use schemacast_regex::Alphabet;
use schemacast_schema::{AbstractSchema, Session};
use schemacast_tree::{DeltaDoc, Doc, Edit, NodeId};
use schemacast_workload::purchase_order as po;
use schemacast_workload::synth::{random_schema, sample_document, SynthConfig, SynthSchema};
use std::io;
use std::path::{Path, PathBuf};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CorpusSkip,
    CorpusValues,
    CorpusWarm,
    SchemaEvolution,
    EditScripts,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CorpusSkip,
        Workload::CorpusValues,
        Workload::CorpusWarm,
        Workload::SchemaEvolution,
        Workload::EditScripts,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusSkip => "corpus_skip",
            Workload::CorpusValues => "corpus_values",
            Workload::CorpusWarm => "corpus_warm",
            Workload::SchemaEvolution => "schema_evolution",
            Workload::EditScripts => "edit_scripts",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Share of documents generated invalid in the purchase-order corpora.
const INVALID_SHARE: f64 = 0.05;
/// Share of `corpus_warm` files rewritten between the cold and warm runs:
/// 2% rather than 1%, so the p99 latency falls inside the rewritten
/// (cache-missing) documents instead of on the boundary between hits and
/// misses, where it would flip between the two.
const REWRITE_SHARE: f64 = 0.02;
/// Largest `corpus_skip` / `corpus_values` document, in items (about
/// 90 KB).
const CORPUS_MAX_ITEMS: usize = 600;
/// Largest `corpus_warm` document, in items: small files, so the per-file
/// costs a warm run pays (open, read, hash, lookup) dominate.
const WARM_MAX_ITEMS: usize = 60;
/// Files per corpus subdirectory, so directory walks stay cheap.
const SHARD: usize = 1000;

/// The fixed `schema_evolution` pair: the synthetic schema drawn from
/// this seed has documents of 0.27–0.83 KB (10th to 90th percentile),
/// smoothly spread, and after this many evolution steps about one in
/// eight of them is target-invalid. The pair does not vary with `--seed`
/// (only the documents do), because set-up cost depends on the pair's
/// shape and differs by tens of percent between random pairs.
const EVOLUTION_SCHEMA_SEED: u64 = 18;
const EVOLUTION_TYPES: usize = 100;
const EVOLUTION_STEPS: usize = 8;

/// A schema pair as XSD text, also written to files for the CLI.
pub struct Pair {
    pub source: String,
    pub target: String,
    pub source_path: PathBuf,
    pub target_path: PathBuf,
}

impl Pair {
    fn write(dir: &Path, source: String, target: String) -> io::Result<Pair> {
        let source_path = dir.join("source.xsd");
        let target_path = dir.join("target.xsd");
        std::fs::write(&source_path, &source)?;
        std::fs::write(&target_path, &target)?;
        Ok(Pair {
            source,
            target,
            source_path,
            target_path,
        })
    }
}

/// Documents on disk, in the CLI's walk order, with their verdicts.
pub struct Corpus {
    pub dir: PathBuf,
    pub files: Vec<PathBuf>,
    /// Whether each file is valid against the target schema.
    pub expected: Vec<bool>,
    pub bytes: u64,
}

/// `corpus_warm`'s verdict cache: the file the CLI reads and rewrites,
/// and the copy made after the cold run, restored before each warm run.
pub struct WarmCache {
    pub path: PathBuf,
    pub pristine: PathBuf,
}

/// In-memory documents with edit scripts, and each edited result's verdict.
pub struct EditItems {
    pub session: Session,
    pub source: AbstractSchema,
    pub target: AbstractSchema,
    pub items: Vec<(Doc, Vec<Edit>)>,
    pub expected: Vec<bool>,
}

pub enum Docs {
    Corpus(Corpus),
    Edits(Box<EditItems>),
}

pub struct Inputs {
    pub pair: Pair,
    pub docs: Docs,
}

/// `n` scaled, with a floor so a tiny scale still has every verdict.
fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(20)
}

/// Generates `workload`'s inputs under `dir`.
pub fn generate(workload: Workload, seed: u64, scale: f64, dir: &Path) -> io::Result<Inputs> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let po_pair = |source: String| Pair::write(dir, source, po::target_xsd());
    let corpus_dir = dir.join("corpus");
    Ok(match workload {
        Workload::CorpusSkip => Inputs {
            pair: po_pair(po::source_xsd())?,
            docs: Docs::Corpus(po_corpus(
                &mut rng,
                &corpus_dir,
                scaled(1500, scale),
                CORPUS_MAX_ITEMS,
                Defect::NoBillTo,
            )?),
        },
        Workload::CorpusValues => Inputs {
            pair: po_pair(po::source_maxex200_xsd())?,
            docs: Docs::Corpus(po_corpus(
                &mut rng,
                &corpus_dir,
                scaled(1500, scale),
                CORPUS_MAX_ITEMS,
                Defect::QuantityOver100,
            )?),
        },
        Workload::CorpusWarm => Inputs {
            pair: po_pair(po::source_maxex200_xsd())?,
            docs: Docs::Corpus(po_corpus(
                &mut rng,
                &corpus_dir,
                scaled(10_000, scale),
                WARM_MAX_ITEMS,
                Defect::QuantityOver100,
            )?),
        },
        Workload::SchemaEvolution => {
            let (source, target) = evolution_pair();
            let pair = Pair::write(
                dir,
                crate::xsd::synth_to_xsd(&source),
                crate::xsd::synth_to_xsd(&target),
            )?;
            Inputs {
                pair,
                docs: Docs::Corpus(evolution_corpus(
                    &mut rng,
                    &corpus_dir,
                    scaled(5000, scale),
                    &source,
                    &target,
                )?),
            }
        }
        Workload::EditScripts => Inputs {
            pair: po_pair(po::source_maxex200_xsd())?,
            docs: Docs::Edits(Box::new(edit_items(&mut rng, scaled(2000, scale)))),
        },
    })
}

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// One size per equal-width slice of `lo..=hi`, in seeded order.
fn stratified(rng: &mut SmallRng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let mut slices: Vec<usize> = (0..n).collect();
    shuffle(&mut slices, rng);
    let width = (hi - lo + 1) as f64 / n as f64;
    slices
        .into_iter()
        .map(|k| lo + (((k as f64 + rng.gen::<f64>()) * width) as usize).min(hi - lo))
        .collect()
}

/// Exactly `ceil(share · n)` seeded indices are flagged.
fn exact_share(rng: &mut SmallRng, n: usize, share: f64) -> Vec<bool> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, rng);
    let mut flagged = vec![false; n];
    for &i in &order[..((n as f64 * share).ceil() as usize).min(n)] {
        flagged[i] = true;
    }
    flagged
}

fn doc_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("d{:03}", i / SHARD))
        .join(format!("doc{i:06}.xml"))
}

fn write_corpus(
    dir: &Path,
    texts: impl Iterator<Item = String>,
) -> io::Result<(Vec<PathBuf>, u64)> {
    let mut files = Vec::new();
    let mut bytes = 0;
    for (i, text) in texts.enumerate() {
        let path = doc_path(dir, i);
        if i % SHARD == 0 {
            std::fs::create_dir_all(path.parent().expect("sharded path has a parent"))?;
        }
        std::fs::write(&path, &text)?;
        bytes += text.len() as u64;
        files.push(path);
    }
    Ok((files, bytes))
}

/// What makes a generated purchase order target-invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Defect {
    /// Experiment 1: the source's optional `billTo` is left out.
    NoBillTo,
    /// Experiment 2: one `quantity` lies in the source's 100–199 but not
    /// below the target's 100.
    QuantityOver100,
}

/// A purchase order as XML text; quantities below 100 unless the defect
/// puts one at a seeded item. The trailing comment makes every file's
/// content (and content hash) distinct.
fn po_text(
    alphabet: &mut Alphabet,
    rng: &mut SmallRng,
    items: usize,
    defect: Option<Defect>,
    tag: &str,
) -> String {
    let mut quantities: Vec<u32> = (0..items).map(|_| rng.gen_range(1..100)).collect();
    if defect == Some(Defect::QuantityOver100) {
        let at = rng.gen_range(0..items);
        quantities[at] = rng.gen_range(100..200);
    }
    let with_billto = defect != Some(Defect::NoBillTo);
    let doc = po::generate_document_with(alphabet, items, with_billto, |i| quantities[i]);
    let xml = schemacast_xml::to_pretty_string(&doc.to_xml(alphabet));
    format!("{xml}<!-- {tag} -->\n")
}

fn po_corpus(
    rng: &mut SmallRng,
    dir: &Path,
    n: usize,
    max_items: usize,
    defect: Defect,
) -> io::Result<Corpus> {
    let sizes = stratified(rng, n, 1, max_items);
    let invalid = exact_share(rng, n, INVALID_SHARE);
    let mut alphabet = Alphabet::new();
    let texts = (0..n).map(|i| {
        let defect = invalid[i].then_some(defect);
        po_text(&mut alphabet, rng, sizes[i], defect, &format!("doc {i}"))
    });
    let (files, bytes) = write_corpus(dir, texts)?;
    Ok(Corpus {
        dir: dir.to_path_buf(),
        files,
        expected: invalid.iter().map(|&bad| !bad).collect(),
        bytes,
    })
}

/// Rewrites a seeded [`REWRITE_SHARE`] of the `corpus_warm` files with
/// fresh bytes of the same verdict (new stratified sizes, quantities and
/// tag), so a warm run misses the cache on exactly those files.
pub fn rewrite_share(corpus: &mut Corpus, seed: u64) -> io::Result<()> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0ed1_7ed0_ca5e);
    let rewrite = exact_share(&mut rng, corpus.files.len(), REWRITE_SHARE);
    let chosen: Vec<usize> = (0..rewrite.len()).filter(|&i| rewrite[i]).collect();
    let sizes = stratified(&mut rng, chosen.len(), 1, WARM_MAX_ITEMS);
    let mut alphabet = Alphabet::new();
    for (&i, items) in chosen.iter().zip(sizes) {
        let defect = (!corpus.expected[i]).then_some(Defect::QuantityOver100);
        let text = po_text(
            &mut alphabet,
            &mut rng,
            items,
            defect,
            &format!("doc {i} rewritten"),
        );
        let old = std::fs::metadata(&corpus.files[i])?.len();
        std::fs::write(&corpus.files[i], &text)?;
        corpus.bytes = corpus.bytes - old + text.len() as u64;
    }
    Ok(())
}

/// The fixed synthetic (source, target) pair of `schema_evolution`.
fn evolution_pair() -> (SynthSchema, SynthSchema) {
    let mut rng = SmallRng::seed_from_u64(EVOLUTION_SCHEMA_SEED);
    let cfg = SynthConfig {
        n_complex: EVOLUTION_TYPES,
        max_parts: 6,
        ..SynthConfig::default()
    };
    let source = random_schema(&cfg, &mut rng);
    let mut target = source.clone();
    for _ in 0..EVOLUTION_STEPS {
        target.evolve(&mut rng);
    }
    (source, target)
}

fn evolution_corpus(
    rng: &mut SmallRng,
    dir: &Path,
    n: usize,
    source: &SynthSchema,
    target: &SynthSchema,
) -> io::Result<Corpus> {
    let mut alphabet = Alphabet::new();
    let built_source = source.build(&mut alphabet);
    let built_target = target.build(&mut alphabet);
    let full = FullValidator::new(&built_target);
    let mut expected = Vec::with_capacity(n);
    let mut texts = Vec::with_capacity(n);
    while texts.len() < n {
        let Some(doc) = sample_document(&built_source, &mut alphabet, rng, 2) else {
            continue;
        };
        expected.push(full.validate(&doc).is_valid());
        texts.push(schemacast_xml::to_string(&doc.to_xml(&alphabet)));
    }
    let (files, bytes) = write_corpus(dir, texts.into_iter())?;
    Ok(Corpus {
        dir: dir.to_path_buf(),
        files,
        expected,
        bytes,
    })
}

/// The three script classes of `edit_scripts`, one per edit-verdict tier.
#[derive(Debug, Clone, Copy)]
enum ScriptClass {
    /// Stray elements inserted or relabelled into items: each edit alone
    /// is statically unsafe, so the per-edit tier rejects.
    Stray,
    /// Insert-then-delete pairs: only the whole-script tier sees that
    /// they cancel.
    Cancel,
    /// New text for quantities, names and prices: value-dependent, so
    /// both static tiers defer to Δ revalidation.
    Values,
}

fn edit_items(rng: &mut SmallRng, n: usize) -> EditItems {
    let mut session = Session::new();
    let source = session
        .parse_xsd(&po::source_maxex200_xsd())
        .expect("bundled source XSD compiles");
    let target = session
        .parse_xsd(&po::target_xsd())
        .expect("bundled target XSD compiles");
    let ab = &mut session.alphabet;
    let ghost = ab.intern("ghost");
    let inserted_labels = [ghost, ab.intern("item"), ab.intern("quantity")];
    let sizes = stratified(rng, n, 20, 200);
    let mut classes: Vec<ScriptClass> = (0..n)
        .map(|i| [ScriptClass::Stray, ScriptClass::Cancel, ScriptClass::Values][i % 3])
        .collect();
    shuffle(&mut classes, rng);

    let full = FullValidator::new(&target);
    let mut items = Vec::with_capacity(n);
    let mut expected = Vec::with_capacity(n);
    for (&count, &class) in sizes.iter().zip(&classes) {
        let quantities: Vec<u32> = (0..count).map(|_| rng.gen_range(1..100)).collect();
        let doc = po::generate_document_with(ab, count, true, |i| quantities[i]);
        // purchaseOrder → (shipTo, billTo, items); items → item*.
        let mut picked: Vec<NodeId> = doc.children(doc.children(doc.root())[2]).to_vec();
        shuffle(&mut picked, rng);
        let edits: Vec<Edit> = match class {
            ScriptClass::Stray => picked[..rng.gen_range(1..=6)]
                .iter()
                .map(|&item| {
                    if rng.gen_bool(0.5) {
                        Edit::InsertElement {
                            parent: item,
                            position: 0,
                            label: ghost,
                        }
                    } else {
                        Edit::Relabel {
                            node: doc.children(item)[0],
                            label: ghost,
                        }
                    }
                })
                .collect(),
            ScriptClass::Cancel => {
                // Each insert takes the next arena slot, which the
                // following delete names.
                let mut edits = Vec::new();
                let slots = doc.node_count() as u32..;
                for (slot, &item) in slots.zip(&picked[..rng.gen_range(1..=3)]) {
                    edits.push(Edit::InsertElement {
                        parent: item,
                        position: rng.gen_range(0..=doc.children(item).len()),
                        label: inserted_labels[rng.gen_range(0..inserted_labels.len())],
                    });
                    edits.push(Edit::DeleteLeaf { node: NodeId(slot) });
                }
                edits
            }
            ScriptClass::Values => picked[..rng.gen_range(1..=6)]
                .iter()
                .map(|&item| {
                    // item → (productName, quantity, USPrice, shipDate?).
                    let (field, text) = match rng.gen_range(0..10) {
                        0 => (0, format!("Part {}", rng.gen_range(0..1000))),
                        1 => (
                            2,
                            format!("{}.{:02}", rng.gen_range(1..500), rng.gen_range(0..100)),
                        ),
                        _ => (1, rng.gen_range(1..=120).to_string()),
                    };
                    Edit::SetText {
                        node: doc.children(doc.children(item)[field])[0],
                        text,
                    }
                })
                .collect(),
        };
        let mut edited = DeltaDoc::new(doc.clone());
        edited.apply_all(&edits).expect("generated scripts apply");
        expected.push(full.validate(&edited.committed()).is_valid());
        items.push((doc, edits));
    }
    EditItems {
        session,
        source,
        target,
        items,
        expected,
    }
}
