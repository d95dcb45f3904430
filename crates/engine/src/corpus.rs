//! Corpus-scale streaming revalidation: the one document-batch pipeline,
//! bounded-memory, over a directory tree, a manifest, or a path list, with
//! optional verdict caching.
//!
//! The input is walked *lazily* — paths flow from one producer thread
//! through a bounded queue to the worker pool, so at any instant the
//! process holds at most `QUEUE_SLOTS_PER_WORKER × workers` pending
//! paths plus one document per worker. Memory is O(workers), never
//! O(corpus), regardless of how many files the tree holds.
//!
//! Large documents are memory-mapped ([`mmapio::Mmap`]) and streamed
//! through the zero-copy streaming validator straight off the mapping; small
//! ones (below `MMAP_THRESHOLD`) go through a reused per-worker read
//! buffer instead, which beats the map/unmap syscall pair at that size.
//! Either way a corpus run never materializes a list of document bodies.
//! With a [`VerdictCache`], each document's content hash is looked up
//! before parsing: hits replay the recorded verdict and stats without
//! touching the validator, so a warm re-run after editing k of n files
//! validates exactly k documents. Without one, nothing is hashed.
//!
//! Reports are deterministic: items come back in *input order* — sorted
//! walk order for [`CorpusSource::Dir`], line order for
//! [`CorpusSource::Manifest`], given order for [`CorpusSource::Paths`] —
//! whatever the worker count or scheduling.

use crate::cache::{content_hash, CacheEntry, VerdictCache};
use crate::report::{BatchReport, ItemOutcome, ItemReport};
use crate::BatchEngine;
use loomlite::sync::mpsc::SyncSender;
use loomlite::sync::Mutex;
use loomlite::thread;
use mmapio::Mmap;
use schemacast_core::{StreamScratch, StreamingCast, ValidationStats};
use schemacast_regex::Alphabet;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Producer→worker queue slots per worker. This bounds how far the walker
/// can run ahead of the validators — the corpus-scale memory ceiling.
/// Slots hold only a path, so a deep queue is still small; depth matters
/// because every producer/worker handoff on a saturated queue is a context
/// switch, and a few hundred paths of slack amortizes that to noise.
const QUEUE_SLOTS_PER_WORKER: usize = 64;

/// Files smaller than this many bytes are read into a reused per-worker
/// buffer instead of mapped: for small documents the map/unmap syscall
/// pair and page-table churn cost more than one buffered read, and the
/// warm-cache path is dominated by exactly that fixed per-file cost.
/// Larger files map zero-copy; a failed mapping falls back to a read.
const MMAP_THRESHOLD: u64 = 256 * 1024;

/// Where a corpus comes from.
#[derive(Debug, Clone)]
pub enum CorpusSource {
    /// Every `*.xml` file under a directory tree, in sorted depth-first
    /// order (directories and files interleaved lexicographically, so the
    /// order is stable across filesystems).
    Dir(PathBuf),
    /// One path per line of a manifest file, in line order. Blank lines
    /// and `#` comments are skipped; relative paths resolve against the
    /// manifest's own directory.
    Manifest(PathBuf),
    /// An explicit path list, in the given order.
    Paths(Vec<PathBuf>),
}

/// Options for [`BatchEngine::validate_corpus`]. There are none: the
/// queue depth and the mmap-or-read cutoff are fixed constants. The type
/// stays, field-less, only so that existing callers of the
/// `validate_corpus(.., &CorpusOptions::default())` signature — the
/// benchmark harness in `perfbench/` among them — keep compiling.
#[derive(Debug, Clone, Default)]
pub struct CorpusOptions {}

/// One unit of work in the path queue: just an index and a path — never
/// document bytes, so the queue's memory footprint is bounded by
/// `QUEUE_SLOTS_PER_WORKER × workers` paths no matter how large the
/// corpus is. A walk error travels as a pre-made failure so it still
/// lands at the right position in the report.
struct Work {
    idx: usize,
    path: PathBuf,
    walk_error: Option<String>,
}

/// A cache insert discovered on a miss: content hash plus the entry to
/// record, carried out of the worker scope and applied afterwards.
type PendingInsert = Option<((u64, u64), CacheEntry)>;

/// Best-effort extraction of a panic payload's message.
fn panic_message(p: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = p.downcast_ref::<&str>() {
        s
    } else if let Some(s) = p.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

impl<'c, 's> BatchEngine<'c, 's> {
    /// Revalidates a corpus with bounded memory, streaming paths from
    /// `source` through a bounded queue to the worker pool. Every item of
    /// the report carries its path, byte count, and whether its verdict
    /// came from the cache.
    ///
    /// With a [`VerdictCache`], verdicts for unchanged documents are
    /// replayed without parsing, and freshly computed content-derived
    /// verdicts are recorded back into the cache when the run finishes
    /// (the caller persists with [`VerdictCache::save`]).
    ///
    /// # Errors
    /// Fails only if the source itself is unusable — the root directory
    /// or manifest cannot be opened. Per-file failures never abort the
    /// run; they become [`ItemOutcome::ReadFailed`] items.
    pub fn validate_corpus(
        &self,
        source: &CorpusSource,
        alphabet: &Alphabet,
        mut cache: Option<&mut VerdictCache>,
        _options: &CorpusOptions,
    ) -> io::Result<BatchReport> {
        let started = Instant::now();
        let workers = self.workers();

        // Open the source *before* spawning anything, so a missing root
        // is a clean error rather than an empty report.
        let mut producer = Producer::open(source)?;

        let cache_snapshot: Option<&VerdictCache> = cache.as_deref();
        let (tx, rx) = loomlite::sync::mpsc::sync_channel::<Work>(workers * QUEUE_SLOTS_PER_WORKER);
        let rx = Mutex::new(rx);

        // Workers return their private result piles; inserts discovered
        // on misses ride along and are applied to the cache after the
        // scope ends (the snapshot borrow is read-only inside).
        type Pile = Vec<(usize, ItemReport, PendingInsert)>;
        let piles: Vec<Pile> = thread::scope(|scope| {
            scope.spawn(move || producer.feed(tx));
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let rx = &rx;
                    scope.spawn(move || {
                        let mut scratch = StreamScratch::default();
                        // Reused for sub-threshold files; holds at most
                        // one document, so memory stays O(workers).
                        let mut buffer: Vec<u8> = Vec::new();
                        let mut pile: Pile = Vec::new();
                        loop {
                            // The receiver lock is released before any
                            // document is touched, and process_one below
                            // never unwinds past its catch, so a poisoned
                            // lock cannot happen on this path; the branch
                            // stays as defense in depth.
                            let work = match rx.lock() {
                                Ok(guard) => guard.recv(),
                                Err(_) => break,
                            };
                            let Ok(work) = work else { break };
                            let (idx, path) = (work.idx, work.path.clone());
                            // One bad document must cost one item, not
                            // the corpus: a panicking validator yields a
                            // per-item failure and the worker keeps
                            // draining. Unwind safety: the only shared
                            // structures process_one touches are the
                            // publish-once caches, whose locks never
                            // guard user code mid-panic; the per-worker
                            // scratch and buffer are replaced wholesale
                            // below.
                            let caught =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    self.process_one(
                                        work,
                                        alphabet,
                                        cache_snapshot,
                                        &mut buffer,
                                        &mut scratch,
                                    )
                                }));
                            match caught {
                                Ok(done) => pile.push(done),
                                Err(payload) => {
                                    scratch = StreamScratch::default();
                                    buffer = Vec::new();
                                    let msg = panic_message(payload.as_ref());
                                    let item =
                                        read_failed(path, format!("validator panicked: {msg}"));
                                    pile.push((idx, item, None));
                                }
                            }
                        }
                        pile
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(pile) => pile,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });

        let mut indexed: Vec<(usize, ItemReport)> = Vec::new();
        for pile in piles {
            for (idx, item, insert) in pile {
                if let (Some(cache), Some((hash, entry))) = (cache.as_deref_mut(), insert) {
                    cache.insert(hash, entry);
                }
                indexed.push((idx, item));
            }
        }
        indexed.sort_unstable_by_key(|(idx, _)| *idx);
        let items = indexed.into_iter().map(|(_, item)| item).collect();
        Ok(BatchReport::from_items(items, workers, started.elapsed()))
    }

    /// Validates one corpus file: map (or read), hash, cache lookup,
    /// validate on a miss. Runs on a worker thread; the document's bytes
    /// live only for the duration of this call.
    fn process_one(
        &self,
        work: Work,
        alphabet: &Alphabet,
        cache: Option<&VerdictCache>,
        buffer: &mut Vec<u8>,
        scratch: &mut StreamScratch,
    ) -> (usize, ItemReport, PendingInsert) {
        let Work {
            idx,
            path,
            walk_error,
        } = work;
        let fail = |message: String| (idx, read_failed(path.clone(), message), None);
        if let Some(message) = walk_error {
            return fail(message);
        }
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) => return fail(e.to_string()),
        };
        // Hold either a mapping or the reused buffer; `bytes` borrows
        // whichever. Small files skip the mapping: one buffered read is
        // cheaper than the map/unmap pair, which is what the warm-cache
        // path spends nearly all of its time on.
        let file_len = match file.metadata() {
            Ok(m) => m.len(),
            Err(e) => return fail(e.to_string()),
        };
        let mapping;
        let (bytes, mapped): (&[u8], bool) = if file_len >= MMAP_THRESHOLD {
            mapping = match Mmap::map(&file) {
                Ok(m) => m,
                Err(e) => return fail(e.to_string()),
            };
            (mapping.as_bytes(), mapping.is_mapped())
        } else {
            buffer.clear();
            let mut reader = &file;
            if let Err(e) = reader.read_to_end(buffer) {
                return fail(e.to_string());
            }
            (&buffer[..], false)
        };

        // Debug-only fault injection for the panic-drain regression test:
        // a document opening with this marker panics the validator before
        // anything is hashed or cached.
        #[cfg(debug_assertions)]
        assert!(
            !bytes.starts_with(b"<!--corpus-panic-inject-->"),
            "injected corpus fault"
        );

        // The content hash only keys the verdict cache: a run without one
        // neither hashes documents nor builds entries.
        let keyed = cache.map(|c| (c, content_hash(bytes)));
        let (outcome, stats, cached, insert) = match keyed.and_then(|(c, hash)| c.get(hash)) {
            Some(entry) => {
                let (outcome, stats) = entry.replay();
                (outcome, stats, true, None)
            }
            None => {
                let (outcome, stats) = match std::str::from_utf8(bytes) {
                    // Content-derived, so cached like any other malformed
                    // input.
                    Err(e) => (
                        ItemOutcome::MalformedXml(format!("invalid UTF-8: {e}")),
                        ValidationStats::default(),
                    ),
                    Ok(text) => match StreamingCast::new(self.context())
                        .validate_str_with(text, alphabet, scratch)
                    {
                        Ok((outcome, stats)) => (ItemOutcome::from_cast(outcome), stats),
                        Err(e) => (
                            ItemOutcome::MalformedXml(e.to_string()),
                            ValidationStats::default(),
                        ),
                    },
                };
                let insert = keyed.and_then(|(_, hash)| {
                    CacheEntry::from_outcome(&outcome, stats).map(|e| (hash, e))
                });
                (outcome, stats, false, insert)
            }
        };
        let item = ItemReport {
            path,
            outcome,
            stats,
            cached,
            bytes: bytes.len() as u64,
            mapped,
        };
        (idx, item, insert)
    }
}

/// The report for a file that yielded no content: nothing read, nothing
/// cached.
fn read_failed(path: PathBuf, message: String) -> ItemReport {
    ItemReport {
        path,
        ..ItemReport::new(ItemOutcome::ReadFailed(message), ValidationStats::default())
    }
}

/// The producer half of the pipeline: opened on the caller's thread (so
/// open errors surface as `io::Error`), then driven to completion on a
/// dedicated thread, blocking on the bounded queue whenever the workers
/// fall behind.
enum Producer {
    Dir(PathBuf),
    Manifest {
        dir: PathBuf,
        reader: BufReader<File>,
    },
    Paths(std::vec::IntoIter<PathBuf>),
}

impl Producer {
    fn open(source: &CorpusSource) -> io::Result<Producer> {
        match source {
            CorpusSource::Dir(root) => {
                // Probe now: a missing root is the caller's error.
                std::fs::read_dir(root)?;
                Ok(Producer::Dir(root.clone()))
            }
            CorpusSource::Manifest(path) => {
                let file = File::open(path)?;
                let dir = path.parent().unwrap_or(Path::new(".")).to_path_buf();
                Ok(Producer::Manifest {
                    dir,
                    reader: BufReader::new(file),
                })
            }
            CorpusSource::Paths(paths) => Ok(Producer::Paths(paths.clone().into_iter())),
        }
    }

    /// Streams every work unit into the queue. A send failing means every
    /// worker is gone (all panicked); the scope join will surface that,
    /// so sends here just stop.
    fn feed(&mut self, tx: SyncSender<Work>) {
        let mut idx = 0usize;
        let mut send = |path: PathBuf, walk_error: Option<String>| {
            let work = Work {
                idx,
                path,
                walk_error,
            };
            idx += 1;
            tx.send(work).is_ok()
        };
        match self {
            Producer::Dir(root) => {
                walk_sorted(root.clone(), &mut send);
            }
            Producer::Manifest { dir, reader } => {
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) => break,
                        Ok(_) => {
                            let entry = line.trim();
                            if entry.is_empty() || entry.starts_with('#') {
                                continue;
                            }
                            let path = dir.join(entry);
                            if !send(path, None) {
                                break;
                            }
                        }
                        Err(e) => {
                            // Position the failure where the line would
                            // have been, then stop: the reader's state
                            // after a mid-stream error is unknown.
                            send(PathBuf::from("<manifest>"), Some(e.to_string()));
                            break;
                        }
                    }
                }
            }
            Producer::Paths(paths) => {
                for path in paths {
                    if !send(path, None) {
                        break;
                    }
                }
            }
        }
    }
}

/// Depth-first sorted walk emitting every `*.xml` file. Directories that
/// fail to list become in-order [`ItemOutcome::ReadFailed`] items rather
/// than aborting the walk. Returns `false` once the queue is closed.
fn walk_sorted(dir: PathBuf, send: &mut impl FnMut(PathBuf, Option<String>) -> bool) -> bool {
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        Err(e) => return send(dir, Some(e.to_string())),
    };
    let mut names: Vec<PathBuf> = Vec::new();
    for entry in entries {
        match entry {
            Ok(entry) => names.push(entry.path()),
            Err(e) => {
                if !send(dir.clone(), Some(e.to_string())) {
                    return false;
                }
            }
        }
    }
    names.sort_unstable();
    for path in names {
        let alive = if path.is_dir() {
            walk_sorted(path, send)
        } else if path.extension().is_some_and(|e| e == "xml") {
            send(path, None)
        } else {
            true
        };
        if !alive {
            return false;
        }
    }
    true
}
