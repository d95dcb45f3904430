//! The per-pair artifact table of a [`CastContext`].
//!
//! A context builds three artifacts per (source, target) type pair, each
//! the first time a caller asks for it: the product IDA of §4, the string
//! cast with reverse automata that revalidates edited child lists (§4.3),
//! and the static edit-safety analysis. [`PairTable`] keeps them in one
//! dense table indexed by `s·|T| + t`, allocated with the context, so every
//! validator borrows an artifact for the context's lifetime. A lookup is an
//! index computation and two acquire loads (the pair's entry, then the
//! artifact's slot): no lock, no hash, and no reference count written, so
//! workers validating different documents never write a shared line.
//!
//! Every slot is publish-once ([`publish`]):
//!
//! * **Build with no lock held** — a miss builds the value outside the
//!   cell, so builds of different pairs proceed in parallel and a
//!   panicking builder leaves the slot empty, not poisoned.
//! * **First publication wins** — racing builders may all construct, but
//!   only the first `set` publishes; a losing builder's value is dropped.
//!   Once any caller has seen a value for a slot, every caller borrows
//!   that same allocation, for the context's lifetime.
//!
//! A pair's entry is itself a publish-once slot, 16 bytes while empty and
//! allocated the first time any artifact of the pair is asked for. The
//! table is dense over all pairs rather than numbered over the pairs the
//! validator can meet: the static edit tiers, [`CastContext::pair_safety`],
//! certification and the ablation options also ask for pairs the relation
//! fixpoints decide, and a live-only numbering would need a second map
//! for them.
//!
//! [`CastContext`]: crate::CastContext
//! [`CastContext::pair_safety`]: crate::CastContext::pair_safety

use crate::safety::PairSafety;
use loomlite::sync::{Arc, OnceLock};
use schemacast_automata::{ProductIda, StringCast};
use schemacast_schema::TypeId;

/// The artifacts of one type pair, each built on first use.
#[derive(Default)]
pub(crate) struct PairArtifacts {
    /// The product IDA over the pair's content models (§4).
    pub(crate) ida: OnceLock<ProductIda>,
    /// The string cast with reverse automata (§4.3).
    pub(crate) string_cast: OnceLock<StringCast>,
    /// The edit-safety analysis, shared because a
    /// [`MatrixEntry`](crate::MatrixEntry) owns it.
    pub(crate) safety: OnceLock<Arc<PairSafety>>,
}

/// One publish-once entry per (source, target) type pair.
pub(crate) struct PairTable {
    entries: Box<[OnceLock<Box<PairArtifacts>>]>,
    tgt_types: usize,
}

impl PairTable {
    /// An empty table over `src_types × tgt_types` pairs.
    pub(crate) fn new(src_types: usize, tgt_types: usize) -> PairTable {
        PairTable {
            entries: (0..src_types * tgt_types)
                .map(|_| OnceLock::new())
                .collect(),
            tgt_types,
        }
    }

    /// The artifacts of `(s, t)`, allocating the entry on first use.
    #[inline]
    pub(crate) fn entry(&self, s: TypeId, t: TypeId) -> &PairArtifacts {
        let slot = &self.entries[s.index() * self.tgt_types + t.index()];
        publish::<Box<PairArtifacts>>(slot, Box::default)
    }

    /// Number of pairs whose product IDA is built.
    pub(crate) fn ida_count(&self) -> usize {
        self.entries
            .iter()
            .filter_map(OnceLock::get)
            .filter(|entry| entry.ida.get().is_some())
            .count()
    }
}

/// The value published in `slot`, built by `build` if there is none yet.
///
/// The loop runs at most twice: whether `set` publishes this caller's
/// value or hands it back because another builder published first (the
/// value is then dropped here), the cell is full afterwards.
#[inline]
pub(crate) fn publish<T>(slot: &OnceLock<T>, build: impl FnOnce() -> T) -> &T {
    let mut build = Some(build);
    loop {
        if let Some(published) = slot.get() {
            return published;
        }
        if let Some(build) = build.take() {
            let _ = slot.set(build());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CastContext;
    use schemacast_regex::Alphabet;
    use schemacast_schema::{AbstractSchema, SchemaBuilder, SimpleType};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// `Root = (a, b?)` over `Node = (c*)` on the source side and
    /// `Root = (a, b)` on the target side, plus `types` record types, so
    /// a context has several complex pairs with distinct content models.
    fn schema(ab: &mut Alphabet, optional_b: bool, types: usize) -> AbstractSchema {
        let mut b = SchemaBuilder::new(ab);
        let text = b.simple("Text", SimpleType::string()).unwrap();
        let node = b.declare("Node").unwrap();
        b.complex(node, "c*", &[("c", text)]).unwrap();
        let root = b.declare("Root").unwrap();
        let model = if optional_b { "(a, b?)" } else { "(a, b)" };
        b.complex(root, model, &[("a", node), ("b", node)]).unwrap();
        b.root("r", root);
        for i in 0..types {
            let rec = b.declare(&format!("Rec{i}")).unwrap();
            let model = if optional_b { "(k, x?)" } else { "(k, x)" };
            b.complex(rec, model, &[("k", text), ("x", text)]).unwrap();
            b.root(&format!("rec{i}"), rec);
        }
        b.finish().unwrap()
    }

    struct Pair {
        source: AbstractSchema,
        target: AbstractSchema,
        alphabet: Alphabet,
    }

    fn pair(types: usize) -> Pair {
        let mut alphabet = Alphabet::new();
        let source = schema(&mut alphabet, true, types);
        let target = schema(&mut alphabet, false, types);
        Pair {
            source,
            target,
            alphabet,
        }
    }

    /// The (source, target) ids of the type named `name` on both sides.
    fn ids(p: &Pair, name: &str) -> (TypeId, TypeId) {
        (
            p.source.type_by_name(name).unwrap(),
            p.target.type_by_name(name).unwrap(),
        )
    }

    /// Builds the product IDA of `(s, t)` the way the context does.
    fn build_ida(ctx: &CastContext<'_>, s: TypeId, t: TypeId) -> ProductIda {
        let a = &ctx.source().type_def(s).as_complex().unwrap().dfa;
        let b = &ctx.target().type_def(t).as_complex().unwrap().dfa;
        ProductIda::new(a, b)
    }

    #[test]
    fn get_or_insert_publishes_once() {
        let p = pair(0);
        let ctx = CastContext::new(&p.source, &p.target, &p.alphabet);
        let (s, t) = ids(&p, "Root");
        let builds = AtomicUsize::new(0);
        let slot = &ctx.pairs.entry(s, t).ida;
        let first = publish(slot, || {
            builds.fetch_add(1, Ordering::Relaxed);
            build_ida(&ctx, s, t)
        });
        let second = publish(slot, || {
            builds.fetch_add(1, Ordering::Relaxed);
            build_ida(&ctx, s, t)
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "hit must not rebuild");
        assert!(std::ptr::eq(first, second));
        assert!(std::ptr::eq(first, ctx.product_ida(s, t)));
        assert_eq!(ctx.cached_ida_count(), 1);
    }

    #[test]
    fn racing_builders_converge_on_one_ida() {
        let p = pair(0);
        let ctx = CastContext::new(&p.source, &p.target, &p.alphabet);
        let (s, t) = ids(&p, "Root");
        let published: Vec<&ProductIda> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let ctx = &ctx;
                    scope.spawn(move || ctx.product_ida(s, t))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ida in &published {
            assert!(
                std::ptr::eq(*ida, published[0]),
                "two different IDAs published for one pair"
            );
        }
        assert_eq!(ctx.cached_ida_count(), 1);
    }

    /// Deterministic-interleaving stress: 16 builders are held at a barrier
    /// *inside* the build, guaranteeing all of them miss the first lookup
    /// and every one of them constructs an IDA concurrently. The
    /// publish-once invariant must still collapse all 16 candidates into a
    /// single observable IDA, the one the context then hands out, and
    /// exactly one IDA slot of the context's table must be filled.
    #[test]
    fn sixteen_racing_builders_publish_once() {
        const BUILDERS: usize = 16;
        let p = pair(8);
        for round in 0..8 {
            let ctx = CastContext::new(&p.source, &p.target, &p.alphabet);
            let (s, t) = ids(&p, &format!("Rec{round}"));
            let gate = Barrier::new(BUILDERS);
            let builds = AtomicUsize::new(0);

            let published: Vec<&ProductIda> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..BUILDERS)
                    .map(|_| {
                        let (ctx, gate, builds) = (&ctx, &gate, &builds);
                        scope.spawn(move || {
                            publish(&ctx.pairs.entry(s, t).ida, || {
                                // Every builder reaches this point before any
                                // is allowed to publish: the interleaving is
                                // forced, not left to scheduler luck.
                                gate.wait();
                                builds.fetch_add(1, Ordering::SeqCst);
                                build_ida(ctx, s, t)
                            })
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

            assert_eq!(
                builds.load(Ordering::SeqCst),
                BUILDERS,
                "the barrier must force every builder to construct"
            );
            for ida in &published {
                assert!(
                    std::ptr::eq(*ida, published[0]),
                    "round {round}: a second IDA became observable"
                );
            }
            assert!(std::ptr::eq(published[0], ctx.product_ida(s, t)));
            assert_eq!(ctx.cached_ida_count(), 1);
        }
    }

    /// Model-checked publish-once: under `--cfg loomlite` every bounded
    /// interleaving of two racing lookups of one pair is explored (the
    /// entry's and the IDA slot's `get`/`set` are scheduling points), and
    /// each must collapse to a single observable IDA; in a normal build
    /// this is one smoke execution over std primitives. Unlike the barrier
    /// test above, no interleaving is *forced* — the scheduler itself
    /// enumerates them, including the one where both lookups miss, both
    /// build, and one publication must lose.
    #[test]
    fn model_publish_once_under_every_interleaving() {
        loomlite::model(|| {
            let p = pair(0);
            let ctx = CastContext::new(&p.source, &p.target, &p.alphabet);
            let (s, t) = ids(&p, "Root");
            let published: Vec<&ProductIda> = loomlite::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let ctx = &ctx;
                        scope.spawn(move || ctx.product_ida(s, t))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(
                std::ptr::eq(published[0], published[1]),
                "two IDAs observable for one pair"
            );
            assert_eq!(ctx.cached_ida_count(), 1);
        });
    }

    #[test]
    fn distinct_pairs_do_not_collide_logically() {
        let p = pair(8);
        let ctx = CastContext::new(&p.source, &p.target, &p.alphabet);
        let names: Vec<String> = (0..8)
            .map(|i| format!("Rec{i}"))
            .chain(["Root".to_string(), "Node".to_string()])
            .collect();
        let idas: Vec<&ProductIda> = names
            .iter()
            .map(|name| {
                let (s, t) = ids(&p, name);
                ctx.product_ida(s, t)
            })
            .collect();
        assert_eq!(ctx.cached_ida_count(), names.len());
        for (i, a) in idas.iter().enumerate() {
            for b in &idas[i + 1..] {
                assert!(!std::ptr::eq(*a, *b), "two pairs share one slot");
            }
        }
        // A cross pair has its own slot too, and asking for it leaves the
        // other pairs' slots as they were.
        let (root_s, _) = ids(&p, "Root");
        let (_, node_t) = ids(&p, "Node");
        assert!(ctx.pairs.entry(root_s, node_t).ida.get().is_none());
        assert_eq!(ctx.cached_ida_count(), names.len());
    }
}
