//! Batch revalidation against a schema-evolution chain.
//!
//! [`ChainEngine`] is the chain-level sibling of
//! [`BatchEngine`](crate::BatchEngine): it borrows a preprocessed
//! [`SchemaChain`] and fans whole migration scripts across the same scoped
//! worker pool. [`ChainEngine::validate_migrations`] verifies one
//! migration script (an edit batch per hop) per item, preferring the
//! per-hop static fast path; a script that fails mid-chain comes back as
//! [`ItemOutcome::ChainBroken`] naming the breaking hop. One-pass
//! `(v_1, v_N)` document verdicts need no chain engine: run
//! [`BatchEngine::validate_corpus`](crate::BatchEngine::validate_corpus)
//! over the chain's [`endpoint`](SchemaChain::endpoint) context.

use crate::{default_workers, run_batch, BatchEngine, BatchReport, ItemOutcome, ItemReport};
use schemacast_core::chain::{certify_chain, ChainCertificationRun, HopVerdict, SchemaChain};
use schemacast_core::ValidationStats;
use schemacast_tree::{Doc, Edit};
use std::borrow::Borrow;
use std::num::NonZeroUsize;

/// A batch engine over one preprocessed schema-evolution chain.
pub struct ChainEngine<'c, 's> {
    chain: &'c SchemaChain<'s>,
    workers: NonZeroUsize,
}

impl<'c, 's> ChainEngine<'c, 's> {
    /// An engine using all available parallelism.
    pub fn new(chain: &'c SchemaChain<'s>) -> ChainEngine<'c, 's> {
        Self::with_workers(chain, default_workers().get())
    }

    /// An engine with an explicit worker count (`0` means the default).
    pub fn with_workers(chain: &'c SchemaChain<'s>, workers: usize) -> ChainEngine<'c, 's> {
        ChainEngine {
            chain,
            workers: NonZeroUsize::new(workers).unwrap_or_else(default_workers),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers.get()
    }

    /// The underlying chain.
    pub fn chain(&self) -> &'c SchemaChain<'s> {
        self.chain
    }

    /// Warms the endpoint pair's product-IDA cache in parallel (the cache
    /// a one-pass endpoint run hits). Returns the number of IDAs
    /// materialized.
    pub fn warm_up(&self) -> usize {
        BatchEngine::with_workers(self.chain.endpoint(), self.workers.get()).warm_up()
    }

    /// Certifies the whole chain — per-hop bundles, the endpoint bundle,
    /// and the composition certificates — via the independent checker.
    pub fn certify(&self) -> ChainCertificationRun {
        certify_chain(self.chain)
    }

    /// Verifies a batch of migration scripts: each item is a `v_1`-valid
    /// document plus one edit batch per hop, and the verdict is whether
    /// the migration stays valid hop by hop (static fast path preferred —
    /// see [`SchemaChain::verify_script`]). Per-item stats are the fold of
    /// the hop stats, so chain-level `static_skips` / `static_rejects`
    /// surface in the batch totals.
    ///
    /// # Panics
    ///
    /// Panics if any item's script length differs from
    /// [`SchemaChain::hop_count`].
    pub fn validate_migrations<D>(&self, items: &[(D, Vec<Vec<Edit>>)]) -> BatchReport
    where
        D: Borrow<Doc> + Sync,
    {
        run_batch(self.workers.get(), items.len(), |i| {
            let (doc, scripts) = &items[i];
            let report = self.chain.verify_script(doc.borrow(), scripts);
            let mut stats = ValidationStats::default();
            for hop in &report.hops {
                stats += hop.stats;
            }
            let outcome = match report.breaking_hop {
                None => ItemOutcome::Valid,
                Some(hop) => match &report.hops[report.hops.len() - 1].verdict {
                    HopVerdict::EditFailed(e) => ItemOutcome::EditFailed(e.clone()),
                    _ => ItemOutcome::ChainBroken { hop },
                },
            };
            ItemReport::new(outcome, stats)
        })
    }
}
