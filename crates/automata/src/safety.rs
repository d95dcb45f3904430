//! Word-level static safety of single-symbol edits.
//!
//! Given a source content model `a` and a target content model `b`, the
//! product IDA of §4 already stores, for every pair `(q_a, q_b)`, whether
//! *every* continuation guaranteed by `a` is accepted by `b` (`IA`) or *no*
//! continuation is (`IR`). Those two sets answer a purely static question
//! about edit scripts: does inserting, deleting, or relabelling one symbol
//! of a word `w ∈ L(a)` always, never, or sometimes produce a word of
//! `L(b)`?
//!
//! The construction quantifies over every way the edit can apply. An
//! application of "insert `ℓ`" is a split `w = u·v` with the edited word
//! `u·ℓ·v`; running the product over `u` lands in a reachable pair
//! `p = (q_a, q_b)`, and after consuming the inserted symbol on the target
//! side only, the remaining run sits at `p' = (q_a, δ_b(q_b, ℓ))` with the
//! guarantee `v ∈ L_a(q_a)`. Hence:
//!
//! * `p' ∈ IA` — this application always yields a `b`-word;
//! * `p' ∈ IR` — this application never does;
//! * otherwise — the outcome depends on `v` (data-dependent).
//!
//! Deleting `ℓ` shifts the *source* side (`p' = (δ_a(q_a, ℓ), q_b)`, with
//! the guarantee restricted to splits where `δ_a(q_a, ℓ)` is co-accessible,
//! i.e. `ℓ` can actually occur at this position of some accepted word), and
//! relabelling `ℓ → m` shifts both (`p' = (δ_a(q_a, ℓ), δ_b(q_b, m))`).
//! Aggregating `p'` over all reachable applications yields the verdict
//! lattice of [`SafetyVerdict`]: all `IA` → `Safe`, all `IR` → `Unsafe`,
//! no application at all → `Inapplicable`, otherwise `Dynamic`.

use crate::bitset::BitSet;
use crate::dfa::Dfa;
use crate::ida::ProductIda;
use schemacast_regex::Sym;

/// Static classification of an edit shape against a schema pair.
///
/// `Safe` and `Unsafe` are universally quantified over every source-valid
/// word and every position the edit can apply to; `Dynamic` means the
/// outcome genuinely depends on the document and must be revalidated;
/// `Inapplicable` means no source-valid word admits the edit at all (the
/// engine treats it like `Dynamic` and lets the runtime path surface the
/// error).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SafetyVerdict {
    /// Every application of the edit to every word of `L(a)` stays in
    /// `L(b)`.
    Safe,
    /// No application of the edit to any word of `L(a)` lands in `L(b)`.
    Unsafe,
    /// Some applications stay valid and some do not: revalidate at runtime.
    Dynamic,
    /// The edit cannot apply to any word of `L(a)` (e.g. deleting a label
    /// that never occurs).
    Inapplicable,
}

impl SafetyVerdict {
    /// Lower-case name for rendering (`safe`, `unsafe`, `dynamic`,
    /// `inapplicable`).
    pub fn as_str(self) -> &'static str {
        match self {
            SafetyVerdict::Safe => "safe",
            SafetyVerdict::Unsafe => "unsafe",
            SafetyVerdict::Dynamic => "dynamic",
            SafetyVerdict::Inapplicable => "inapplicable",
        }
    }

    /// Whether the verdict decides the edit statically (Safe or Unsafe).
    pub fn is_decided(self) -> bool {
        matches!(self, SafetyVerdict::Safe | SafetyVerdict::Unsafe)
    }
}

/// Aggregates per-application classifications into a [`SafetyVerdict`].
#[derive(Debug, Clone, Copy)]
struct Tally {
    applicable: bool,
    all_ia: bool,
    all_ir: bool,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            applicable: false,
            all_ia: true,
            all_ir: true,
        }
    }

    fn observe(&mut self, ia: bool, ir: bool) {
        self.applicable = true;
        self.all_ia &= ia;
        self.all_ir &= ir;
        // IA and IR are disjoint, so at most one of the flags survives.
    }

    fn verdict(self) -> SafetyVerdict {
        if !self.applicable {
            SafetyVerdict::Inapplicable
        } else if self.all_ia {
            SafetyVerdict::Safe
        } else if self.all_ir {
            SafetyVerdict::Unsafe
        } else {
            SafetyVerdict::Dynamic
        }
    }

    /// Once both universal claims have failed the verdict is pinned at
    /// `Dynamic`; callers can stop scanning.
    fn settled(self) -> bool {
        self.applicable && !self.all_ia && !self.all_ir
    }
}

/// Word-level edit analysis for one `(source, target)` content-model pair.
///
/// Borrows the product IDA (typically the one the revalidator already
/// built for this pair) plus the source DFA, and
/// precomputes the reachable product pairs and the co-accessible states of
/// the source, so each per-label query is a single sweep over the reachable
/// pairs.
#[derive(Debug)]
pub struct EditWordAnalysis<'a> {
    ida: &'a ProductIda,
    a: &'a Dfa,
    b: &'a Dfa,
    /// Reachable pairs of the product, as `(q_a, q_b)` components.
    reach: Vec<(u32, u32)>,
    /// Co-accessible states of the source DFA.
    a_live: BitSet,
}

impl<'a> EditWordAnalysis<'a> {
    /// Prepares the analysis for the pair `(a, b)` whose product IDA is
    /// `ida` (it must have been built from exactly these two DFAs).
    pub fn new(a: &'a Dfa, b: &'a Dfa, ida: &'a ProductIda) -> EditWordAnalysis<'a> {
        debug_assert_eq!(ida.product().a_states(), a.state_count());
        debug_assert_eq!(ida.product().b_states(), b.state_count());
        let reach = ida
            .ida()
            .dfa()
            .reachable()
            .iter()
            // The synthetic sink `from_parts` may append past the pair grid
            // has no `(q_a, q_b)` reading and is never entered by a prefix
            // run, so it carries no application.
            .filter_map(|q| ida.product().unpair(q as u32))
            .collect();
        EditWordAnalysis {
            ida,
            a,
            b,
            reach,
            a_live: a.coaccessible(),
        }
    }

    #[inline]
    fn classify(&self, qa: u32, qb: u32, tally: &mut Tally) {
        let p = self.ida.product().pair(qa, qb);
        tally.observe(self.ida.ida().is_ia(p), self.ida.ida().is_ir(p));
    }

    /// Verdict for inserting one occurrence of `label` at an arbitrary
    /// position of an arbitrary word of `L(a)`.
    pub fn insert(&self, label: Sym) -> SafetyVerdict {
        let mut tally = Tally::new();
        for &(qa, qb) in &self.reach {
            // The split u·v applies iff some v completes the word, i.e. qa
            // is co-accessible.
            if !self.a_live.contains(qa as usize) {
                continue;
            }
            self.classify(qa, self.b.step(qb, label), &mut tally);
            if tally.settled() {
                break;
            }
        }
        tally.verdict()
    }

    /// Verdict for deleting one occurrence of `label` from an arbitrary word
    /// of `L(a)` that contains it.
    pub fn delete(&self, label: Sym) -> SafetyVerdict {
        let mut tally = Tally::new();
        for &(qa, qb) in &self.reach {
            let qa2 = self.a.step(qa, label);
            // The split u·label·v applies iff label can occur here, i.e.
            // δ_a(q_a, label) still reaches a final state.
            if !self.a_live.contains(qa2 as usize) {
                continue;
            }
            self.classify(qa2, qb, &mut tally);
            if tally.settled() {
                break;
            }
        }
        tally.verdict()
    }

    /// Verdict for relabelling one occurrence of `from` to `to` in an
    /// arbitrary word of `L(a)` that contains `from`.
    pub fn relabel(&self, from: Sym, to: Sym) -> SafetyVerdict {
        let mut tally = Tally::new();
        for &(qa, qb) in &self.reach {
            let qa2 = self.a.step(qa, from);
            if !self.a_live.contains(qa2 as usize) {
                continue;
            }
            self.classify(qa2, self.b.step(qb, to), &mut tally);
            if tally.settled() {
                break;
            }
        }
        tally.verdict()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_regex::{parse_regex, Alphabet};

    fn compile(text: &str, ab: &mut Alphabet) -> Dfa {
        let r = parse_regex(text, ab).expect("parse");
        Dfa::from_regex(&r, ab.len()).expect("compile")
    }

    /// All words of `L(a)` up to `max_len`, over the first `ab_len` symbols.
    fn words_up_to(a: &Dfa, ab_len: usize, max_len: usize) -> Vec<Vec<Sym>> {
        let mut all: Vec<Vec<Sym>> = vec![vec![]];
        let mut frontier: Vec<Vec<Sym>> = vec![vec![]];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for base in &frontier {
                for s in 0..ab_len {
                    let mut w = base.clone();
                    w.push(Sym(s as u32));
                    next.push(w);
                }
            }
            all.extend(next.iter().cloned());
            frontier = next;
        }
        all.retain(|w| a.accepts(w));
        all
    }

    #[derive(Clone, Copy)]
    enum Kind {
        Insert(Sym),
        Delete(Sym),
        Relabel(Sym, Sym),
    }

    /// Brute-force verdict: enumerate every application of the edit over all
    /// words of `L(a)` up to a length bound and check membership in `L(b)`.
    fn brute(a: &Dfa, b: &Dfa, ab_len: usize, kind: Kind, max_len: usize) -> SafetyVerdict {
        let mut tally = Tally::new();
        for w in words_up_to(a, ab_len, max_len) {
            match kind {
                Kind::Insert(l) => {
                    for i in 0..=w.len() {
                        let mut e = w.clone();
                        e.insert(i, l);
                        let ok = b.accepts(&e);
                        tally.observe(ok, !ok);
                    }
                }
                Kind::Delete(l) => {
                    for i in 0..w.len() {
                        if w[i] != l {
                            continue;
                        }
                        let mut e = w.clone();
                        e.remove(i);
                        let ok = b.accepts(&e);
                        tally.observe(ok, !ok);
                    }
                }
                Kind::Relabel(from, to) => {
                    for i in 0..w.len() {
                        if w[i] != from {
                            continue;
                        }
                        let mut e = w.clone();
                        e[i] = to;
                        let ok = b.accepts(&e);
                        tally.observe(ok, !ok);
                    }
                }
            }
        }
        tally.verdict()
    }

    #[test]
    fn insert_into_star_is_safe() {
        let mut ab = Alphabet::new();
        let a = compile("x*", &mut ab);
        let b = compile("x*", &mut ab);
        let ida = ProductIda::new(&a, &b);
        let an = EditWordAnalysis::new(&a, &b, &ida);
        let x = ab.lookup("x").unwrap();
        assert_eq!(an.insert(x), SafetyVerdict::Safe);
        assert_eq!(an.delete(x), SafetyVerdict::Safe);
    }

    #[test]
    fn insert_unknown_label_is_unsafe() {
        let mut ab = Alphabet::new();
        ab.intern("x");
        let y = ab.intern("y");
        // Both symbols are interned up front so y has a (sink) column.
        let a = compile("x*", &mut ab);
        let b = compile("x*", &mut ab);
        let ida = ProductIda::new(&a, &b);
        let an = EditWordAnalysis::new(&a, &b, &ida);
        assert_eq!(an.insert(y), SafetyVerdict::Unsafe);
        assert_eq!(an.delete(y), SafetyVerdict::Inapplicable);
    }

    #[test]
    fn delete_required_symbol_is_unsafe() {
        let mut ab = Alphabet::new();
        let a = compile("(a, b?, c)", &mut ab);
        let b = compile("(a, b?, c)", &mut ab);
        let ida = ProductIda::new(&a, &b);
        let an = EditWordAnalysis::new(&a, &b, &ida);
        let la = ab.lookup("a").unwrap();
        let lb = ab.lookup("b").unwrap();
        assert_eq!(an.delete(la), SafetyVerdict::Unsafe);
        assert_eq!(an.delete(lb), SafetyVerdict::Safe);
        assert_eq!(an.insert(lb), SafetyVerdict::Dynamic); // position-dependent
    }

    #[test]
    fn insert_into_evolved_target_dynamic() {
        // Source billTo optional, target billTo required: inserting billTo
        // fixes some positions and breaks others.
        let mut ab = Alphabet::new();
        let a = compile("(shipTo, billTo?, items)", &mut ab);
        let b = compile("(shipTo, billTo, items)", &mut ab);
        let ida = ProductIda::new(&a, &b);
        let an = EditWordAnalysis::new(&a, &b, &ida);
        let bi = ab.lookup("billTo").unwrap();
        assert_eq!(an.insert(bi), SafetyVerdict::Dynamic);
        // Deleting billTo always leaves (shipTo, items) ∉ L(b).
        assert_eq!(an.delete(bi), SafetyVerdict::Unsafe);
    }

    #[test]
    fn relabel_tracks_both_sides() {
        let mut ab = Alphabet::new();
        let a = compile("(old, body)", &mut ab);
        let b = compile("(new, body)", &mut ab);
        let ida = ProductIda::new(&a, &b);
        let an = EditWordAnalysis::new(&a, &b, &ida);
        let old = ab.lookup("old").unwrap();
        let new = ab.lookup("new").unwrap();
        let body = ab.lookup("body").unwrap();
        assert_eq!(an.relabel(old, new), SafetyVerdict::Safe);
        assert_eq!(an.relabel(old, body), SafetyVerdict::Unsafe);
        assert_eq!(an.relabel(body, new), SafetyVerdict::Unsafe);
    }

    #[test]
    fn agrees_with_brute_force_over_word_pairs() {
        let models = [
            "x*",
            "(x, y?)",
            "(x | y)*",
            "(x, y, z)",
            "(x?, (y | z)+)",
            "((x, y) | z)*",
            "(x, z*) | y",
        ];
        let mut ab = Alphabet::new();
        for s in ["x", "y", "z"] {
            ab.intern(s);
        }
        let syms: Vec<Sym> = (0..3).map(|i| Sym(i as u32)).collect();
        for sa in &models {
            for sb in &models {
                let a = compile(sa, &mut ab);
                let b = compile(sb, &mut ab);
                let ida = ProductIda::new(&a, &b);
                let an = EditWordAnalysis::new(&a, &b, &ida);
                for &l in &syms {
                    assert_eq!(
                        an.insert(l),
                        brute(&a, &b, 3, Kind::Insert(l), 6),
                        "insert {l:?} for {sa} -> {sb}"
                    );
                    assert_eq!(
                        an.delete(l),
                        brute(&a, &b, 3, Kind::Delete(l), 6),
                        "delete {l:?} for {sa} -> {sb}"
                    );
                    for &m in &syms {
                        assert_eq!(
                            an.relabel(l, m),
                            brute(&a, &b, 3, Kind::Relabel(l, m), 6),
                            "relabel {l:?}->{m:?} for {sa} -> {sb}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn useful_symbols_of_source() {
        let mut ab = Alphabet::new();
        ab.intern("x");
        ab.intern("y");
        ab.intern("z");
        let a = compile("(x, y?)", &mut ab);
        let useful = a.useful_symbols();
        assert!(useful.contains(ab.lookup("x").unwrap().index()));
        assert!(useful.contains(ab.lookup("y").unwrap().index()));
        assert!(!useful.contains(ab.lookup("z").unwrap().index()));
    }
}
