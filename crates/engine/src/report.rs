//! Batch results: per-item verdicts in input order plus folded totals.

use schemacast_core::{CastOutcome, ValidationStats};
use std::path::PathBuf;
use std::time::Duration;

/// The verdict for one batch item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemOutcome {
    /// Valid with respect to the target schema.
    Valid,
    /// Not valid with respect to the target schema.
    Invalid,
    /// The document was not well-formed XML or not UTF-8 (corpus items
    /// only).
    MalformedXml(String),
    /// The edit script could not be applied to the document (edited
    /// batches only).
    EditFailed(String),
    /// A migration script broke at this hop of a schema chain (chain
    /// batches only; counted with the invalid items).
    ChainBroken {
        /// 0-based index of the first hop whose verdict failed.
        hop: usize,
    },
    /// The input file could not be read at all (corpus items only):
    /// missing, permission denied, or an I/O error mid-read. Unlike
    /// [`ItemOutcome::MalformedXml`] this says nothing about the content,
    /// so it is transient — the verdict cache never records it.
    ReadFailed(String),
}

impl ItemOutcome {
    pub(crate) fn from_cast(outcome: CastOutcome) -> ItemOutcome {
        if outcome.is_valid() {
            ItemOutcome::Valid
        } else {
            ItemOutcome::Invalid
        }
    }

    /// Whether the item validated.
    pub fn is_valid(&self) -> bool {
        matches!(self, ItemOutcome::Valid)
    }
}

/// Verdict and cost counters for one batch item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemReport {
    /// The file's path as walked, with manifest-relative paths resolved.
    /// Empty for edited and migration items, which live in memory.
    pub path: PathBuf,
    /// The verdict.
    pub outcome: ItemOutcome,
    /// The validator's cost counters for this item alone (replayed from
    /// the cache on a hit).
    pub stats: ValidationStats,
    /// Whether the verdict came from the verdict cache.
    pub cached: bool,
    /// Document size in bytes (0 for in-memory items and unreadable
    /// files).
    pub bytes: u64,
    /// Whether the document bytes came from an actual memory mapping.
    pub mapped: bool,
}

impl ItemReport {
    /// An item with no file behind it: empty path, nothing read, nothing
    /// cached.
    pub(crate) fn new(outcome: ItemOutcome, stats: ValidationStats) -> ItemReport {
        ItemReport {
            path: PathBuf::new(),
            outcome,
            stats,
            cached: false,
            bytes: 0,
            mapped: false,
        }
    }
}

/// The result of one batch run — corpus, edited, or chain-migration.
///
/// `items` is in input order regardless of how work was scheduled, and
/// `totals` is folded from `items` in input order — so two runs of the same
/// batch agree on everything [`BatchReport::deterministic_view`] keeps,
/// whatever the worker counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Per-item reports, in input order.
    pub items: Vec<ItemReport>,
    /// Sum of all per-item stats.
    pub totals: ValidationStats,
    /// Number of [`ItemOutcome::Valid`] items.
    pub valid: usize,
    /// Number of [`ItemOutcome::Invalid`] and [`ItemOutcome::ChainBroken`]
    /// items.
    pub invalid: usize,
    /// Number of [`ItemOutcome::MalformedXml`] items.
    pub malformed: usize,
    /// Number of [`ItemOutcome::EditFailed`] items.
    pub edit_failed: usize,
    /// Number of [`ItemOutcome::ReadFailed`] items.
    pub read_failed: usize,
    /// Verdicts replayed from the verdict cache.
    pub cache_hits: usize,
    /// Items that went through the validator instead of the cache (read
    /// and edit failures count in neither bucket).
    pub cache_misses: usize,
    /// Total bytes served via actual memory mappings.
    pub bytes_mmapped: u64,
    /// Total bytes served via buffered reads.
    pub bytes_read: u64,
    /// Worker count the batch ran with.
    pub workers: usize,
    /// Wall-clock time of the batch.
    pub elapsed: Duration,
}

impl BatchReport {
    pub(crate) fn from_items(
        items: Vec<ItemReport>,
        workers: usize,
        elapsed: Duration,
    ) -> BatchReport {
        let mut report = BatchReport {
            items: Vec::new(),
            totals: ValidationStats::default(),
            valid: 0,
            invalid: 0,
            malformed: 0,
            edit_failed: 0,
            read_failed: 0,
            cache_hits: 0,
            cache_misses: 0,
            bytes_mmapped: 0,
            bytes_read: 0,
            workers,
            elapsed,
        };
        for item in &items {
            report.totals += item.stats;
            match item.outcome {
                ItemOutcome::Valid => report.valid += 1,
                ItemOutcome::Invalid | ItemOutcome::ChainBroken { .. } => report.invalid += 1,
                ItemOutcome::MalformedXml(_) => report.malformed += 1,
                ItemOutcome::EditFailed(_) => report.edit_failed += 1,
                ItemOutcome::ReadFailed(_) => report.read_failed += 1,
            }
            if matches!(
                item.outcome,
                ItemOutcome::ReadFailed(_) | ItemOutcome::EditFailed(_)
            ) {
                // Not a hit, not a miss: nothing was validated.
            } else if item.cached {
                report.cache_hits += 1;
            } else {
                report.cache_misses += 1;
            }
            if item.mapped {
                report.bytes_mmapped += item.bytes;
            } else {
                report.bytes_read += item.bytes;
            }
        }
        report.items = items;
        report
    }

    /// Whether every item validated.
    pub fn all_valid(&self) -> bool {
        self.valid == self.items.len()
    }

    /// Documents per second of wall-clock time.
    pub fn docs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        self.items.len() as f64 / secs
    }

    /// The deterministic portion of the report — what batch-identity tests
    /// compare. It zeroes what varies run to run by construction: `elapsed`,
    /// `workers`, the wall-clock counters inside the stats
    /// ([`ValidationStats::without_clocks`]), and the mmap-vs-read split
    /// (`bytes_mmapped`, `bytes_read`, per-item `mapped`), which depends on
    /// whether the OS granted a mapping, not on the input.
    pub fn deterministic_view(&self) -> BatchReport {
        let mut view = self.clone();
        for item in &mut view.items {
            item.stats = item.stats.without_clocks();
            item.mapped = false;
        }
        view.totals = view.totals.without_clocks();
        view.bytes_mmapped = 0;
        view.bytes_read = 0;
        view.workers = 0;
        view.elapsed = Duration::ZERO;
        view
    }
}
