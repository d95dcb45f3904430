#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Parallel batch revalidation engine.
//!
//! The paper's economics are "preprocess a schema pair once, revalidate many
//! documents cheaply" — the shape of a high-throughput revalidation service.
//! This crate supplies the service half: [`BatchEngine`] runs a batch over
//! one shared [`CastContext`] on a worker pool, and every batch returns the
//! one [`BatchReport`] type.
//!
//! There is one pipeline per kind of input:
//!
//! * **Documents** — [`BatchEngine::validate_corpus`] streams an on-disk
//!   tree, a manifest, or a path list ([`CorpusSource`]) through a bounded
//!   path queue with memory O(workers), mmap-or-read adaptive I/O, the
//!   zero-copy streaming validator, and an optional persistent content-hash
//!   [`VerdictCache`], so a re-run after editing k of n files revalidates
//!   exactly k documents (see [`corpus`] and [`cache`]).
//! * **Edited documents** — [`BatchEngine::validate_edited`] stays in
//!   memory, because an edit script addresses nodes of a parsed tree. It
//!   borrows each document: a script the static tiers leave undecided is
//!   applied as a [`DeltaDoc`] overlay on it, never to a copy.
//! * **Chain migrations** — [`ChainEngine::validate_migrations`] verifies
//!   one migration script per item over a preprocessed schema-evolution
//!   chain, with chain-level static skips/rejects folded into the totals.
//!
//! Design points:
//!
//! * **No external dependencies** — plain scoped threads, an atomic work
//!   counter for in-memory batches and a bounded channel for corpora.
//! * **Deterministic output** — [`BatchReport::items`] is in input order
//!   and per-item [`schemacast_core::ValidationStats`] are exact, whatever
//!   the scheduling; batch totals are folded in input order. Identical
//!   batches give identical [`BatchReport::deterministic_view`]s at any
//!   worker count (asserted by tests).
//! * **Contention-free validation** — [`BatchEngine::warm_up`] precomputes
//!   the reachable product IDAs in parallel at preprocessing time into the
//!   context's pair table, whose publish-once slots are built with no lock
//!   held. Workers then borrow every per-pair artifact from that table:
//!   no element costs a lock, a hash or a shared reference-count write.

pub mod cache;
mod chain;
pub mod corpus;
mod pool;
mod report;

pub use cache::{content_hash, CacheEntry, CacheLoad, ColdReason, VerdictCache};
pub use chain::ChainEngine;
pub use corpus::{CorpusOptions, CorpusSource};
pub use report::{BatchReport, ItemOutcome, ItemReport};

use schemacast_core::certify::{certify_context, CertificationRun};
use schemacast_core::{CastContext, ModsValidator};
use schemacast_tree::{DeltaDoc, Doc, Edit};
use std::borrow::Borrow;
use std::num::NonZeroUsize;
use std::time::Instant;

/// A batch revalidation engine over one preprocessed schema pair.
///
/// The engine itself is cheap: it borrows the [`CastContext`] and holds only
/// the worker count, so constructing one per batch is fine.
pub struct BatchEngine<'c, 's> {
    ctx: &'c CastContext<'s>,
    workers: NonZeroUsize,
}

impl<'c, 's> BatchEngine<'c, 's> {
    /// An engine using all available parallelism.
    pub fn new(ctx: &'c CastContext<'s>) -> BatchEngine<'c, 's> {
        Self::with_workers(ctx, default_workers().get())
    }

    /// An engine with an explicit worker count (`0` means the default).
    pub fn with_workers(ctx: &'c CastContext<'s>, workers: usize) -> BatchEngine<'c, 's> {
        BatchEngine {
            ctx,
            workers: NonZeroUsize::new(workers).unwrap_or_else(default_workers),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers.get()
    }

    /// The underlying context.
    pub fn context(&self) -> &'c CastContext<'s> {
        self.ctx
    }

    /// Eagerly builds every reachable product IDA in parallel, so the batch
    /// proper starts with a fully warm cache. Returns the number of IDAs
    /// materialized. Safe to call repeatedly (later calls are cheap hits).
    pub fn warm_up(&self) -> usize {
        if !self.ctx.options().use_ida {
            return 0;
        }
        let pairs = self.ctx.reachable_pairs();
        pool::run_indexed(self.workers.get(), pairs.len(), |i| {
            let (s, t) = pairs[i];
            let _ = self.ctx.product_ida(s, t);
        });
        pairs.len()
    }

    /// Certifies every static claim the engine's fast paths rely on —
    /// relation memberships, IDA decision sets, safety-matrix verdicts —
    /// and validates the certificates with the independent checker. A
    /// batch driver that calls this first (and checks
    /// [`CertificationRun::all_certified`]) runs with proof-carrying
    /// preprocessing: no `static_skips` / `static_rejects` decision rests
    /// on an unchecked fixpoint. Certification is warm-up-shaped work
    /// (per-pair, read-only), so it shares the context's pair table with
    /// [`BatchEngine::warm_up`].
    pub fn certify(&self) -> CertificationRun {
        certify_context(self.ctx)
    }

    /// Revalidates a batch of *edited* documents: each item is an original
    /// document (valid for the source schema) plus an edit script, and the
    /// verdict is for the edited result against the target schema.
    ///
    /// Each script is first run through the update-safety analyzer
    /// ([`CastContext::validate_edited_static`]): scripts whose edits are
    /// all statically decided never apply the edits at all — the document
    /// is accepted via an edit-site-exempt cast (`static_skips`) or
    /// rejected outright (`static_rejects`). Scripts the per-edit analyzer
    /// cannot decide then go through the *script-level* analyzer
    /// ([`CastContext::validate_edited_script`]): the edits on each touched
    /// site are composed into one net effect, normalized, and judged over
    /// the site's concrete child word (`script_skips`/`script_rejects`).
    /// Everything else falls back to Δ-encoding the edits as an overlay on
    /// the borrowed document and running the schema-cast-with-modifications
    /// validator; scripts that fail to apply become
    /// [`ItemOutcome::EditFailed`] items.
    pub fn validate_edited<D>(&self, items: &[(D, Vec<Edit>)]) -> BatchReport
    where
        D: Borrow<Doc> + Sync,
    {
        let mods = ModsValidator::new(self.ctx);
        run_batch(self.workers.get(), items.len(), |i| {
            let (doc, edits) = &items[i];
            let doc = doc.borrow();
            let decided = self
                .ctx
                .validate_edited_static(doc, edits)
                .or_else(|| self.ctx.validate_edited_script(doc, edits));
            if let Some((outcome, stats)) = decided {
                return ItemReport::new(ItemOutcome::from_cast(outcome), stats);
            }
            let mut dd = DeltaDoc::new(doc);
            if let Err(e) = dd.apply_all(edits) {
                return ItemReport::new(ItemOutcome::EditFailed(e.to_string()), Default::default());
            }
            let (outcome, stats) = mods.validate_with_stats(&dd);
            ItemReport::new(ItemOutcome::from_cast(outcome), stats)
        })
    }
}

/// Runs an in-memory batch: fans `produce` out over the pool and folds the
/// deterministic report.
fn run_batch(
    workers: usize,
    n: usize,
    produce: impl Fn(usize) -> ItemReport + Sync,
) -> BatchReport {
    let started = Instant::now();
    let items = pool::collect_indexed(workers, n, produce);
    BatchReport::from_items(items, workers, started.elapsed())
}

/// `available_parallelism`, defaulting to 1 where it is unobservable.
pub fn default_workers() -> NonZeroUsize {
    loomlite::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}
