//! Language-level decision procedures on DFAs.
//!
//! These are the static tests that seed the paper's fixpoint computations:
//! `L(regexp_τ) ⊆ L(regexp_τ')` for `R_sub` (Definition 4, condition ii) and
//! `L(regexp_τ) ∩ L(regexp_τ') ∩ P* ≠ ∅` for `R_nondis` (Definition 5). Both
//! walk the pair graph lazily, so a one-off check never materializes a full
//! product table. The walk follows only the `a` side's live edges
//! ([`Dfa::live_edges`]), never a whole table row: once `a` is in its sink —
//! absorbing and non-final — no goal pair of either test is reachable, so
//! the symbols that lead there need not be tried. Visited pairs live in a
//! dense bitset indexed `qa · |Q_b| + qb`.

use crate::bitset::BitSet;
use crate::dfa::{Dfa, StateId};
use schemacast_regex::Sym;

/// Depth-first search of the pair graph of `(a, b)` from the start pair,
/// expanding only `a`'s live edges whose symbol `follow` admits and whose
/// `b` target `keep_b` admits. Returns whether a pair satisfying `goal` is
/// reachable.
fn pair_walk(
    a: &Dfa,
    b: &Dfa,
    follow: impl Fn(usize) -> bool,
    keep_b: impl Fn(StateId) -> bool,
    goal: impl Fn(StateId, StateId) -> bool,
) -> bool {
    let nb = b.state_count();
    let mut seen = BitSet::new(a.state_count() * nb);
    let start = (a.start(), b.start());
    seen.insert(start.0 as usize * nb + start.1 as usize);
    let mut stack = vec![start];
    while let Some((qa, qb)) = stack.pop() {
        if goal(qa, qb) {
            return true;
        }
        for &(sym, ta) in a.live_edges(qa) {
            if !follow(sym.index()) {
                continue;
            }
            let tb = b.step(qb, sym);
            if keep_b(tb) && seen.insert(ta as usize * nb + tb as usize) {
                stack.push((ta, tb));
            }
        }
    }
    false
}

/// Whether `L(a) ⊆ L(b)`.
///
/// A counterexample is a reachable pair with an `a`-final, non-`b`-final
/// state. `b` is stepped with [`Dfa::step`], so a symbol beyond `b`'s table
/// sends it to its sink like any other symbol `b` rejects.
pub fn language_subset(a: &Dfa, b: &Dfa) -> bool {
    !pair_walk(
        a,
        b,
        |_| true,
        |_| true,
        |qa, qb| a.is_final(qa) && !b.is_final(qb),
    )
}

/// Whether `L(a) ∩ L(b) = ∅`.
pub fn languages_disjoint(a: &Dfa, b: &Dfa) -> bool {
    !intersection_nonempty_restricted(a, b, None)
}

/// Whether `L(a) = L(b)`.
pub fn equivalent(a: &Dfa, b: &Dfa) -> bool {
    language_subset(a, b) && language_subset(b, a)
}

/// Whether `L(a) ∩ L(b) ∩ P* ≠ ∅`, where `P` is a set of permitted symbols
/// (`None` = all of Σ).
///
/// This is exactly the test in step 3 of the `R_nondis` algorithm: a witness
/// must be accepted by both automata *and* use only labels whose child-type
/// pair is already known non-disjoint.
pub fn intersection_nonempty_restricted(a: &Dfa, b: &Dfa, allowed: Option<&BitSet>) -> bool {
    // A goal needs both sides final, so pairs with `b` in its sink are
    // dropped as well.
    pair_walk(
        a,
        b,
        |s| allowed.is_none_or(|p| s < p.capacity() && p.contains(s)),
        |tb| tb != b.sink(),
        |qa, qb| a.is_final(qa) && b.is_final(qb),
    )
}

/// Whether `L(a) ∩ P* ≠ ∅` — the productivity test of §3: a complex type is
/// productive iff its content model accepts some string over its productive
/// child labels.
pub fn nonempty_restricted(a: &Dfa, allowed: &BitSet) -> bool {
    let mut seen = BitSet::new(a.state_count());
    let mut stack = vec![a.start()];
    seen.insert(a.start() as usize);
    while let Some(q) = stack.pop() {
        if a.is_final(q) {
            return true;
        }
        for s in allowed.iter() {
            let t = a.step(q, Sym(s as u32));
            if seen.insert(t as usize) {
                stack.push(t);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_regex::{parse_regex, Alphabet};

    fn compile(text: &str, ab: &mut Alphabet) -> Dfa {
        let r = parse_regex(text, ab).expect("parse");
        Dfa::from_regex(&r, ab.len()).expect("compile")
    }

    #[test]
    fn figure1_subset_direction() {
        // Figure 1: target (billTo required) ⊆ source (billTo optional),
        // but not vice versa.
        let mut ab = Alphabet::new();
        let source = compile("(shipTo, billTo?, items)", &mut ab);
        let target = compile("(shipTo, billTo, items)", &mut ab);
        assert!(language_subset(&target, &source));
        assert!(!language_subset(&source, &target));
        assert!(!languages_disjoint(&source, &target));
    }

    #[test]
    fn subset_reflexive_and_with_star() {
        let mut ab = Alphabet::new();
        let d1 = compile("(a, b)", &mut ab);
        let d2 = compile("(a | b)*", &mut ab);
        assert!(language_subset(&d1, &d1));
        assert!(language_subset(&d1, &d2));
        assert!(!language_subset(&d2, &d1));
        assert!(equivalent(&d2, &d2));
        assert!(!equivalent(&d1, &d2));
    }

    #[test]
    fn disjointness() {
        let mut ab = Alphabet::new();
        let d1 = compile("(a, a)", &mut ab);
        let d2 = compile("(b, b)", &mut ab);
        let d3 = compile("a, a?", &mut ab);
        assert!(languages_disjoint(&d1, &d2));
        assert!(!languages_disjoint(&d1, &d3));
    }

    #[test]
    fn restricted_intersection() {
        let mut ab = Alphabet::new();
        let d1 = compile("(a | b)+", &mut ab);
        let d2 = compile("(a | b)+", &mut ab);
        let a_idx = ab.lookup("a").unwrap().index();
        let b_idx = ab.lookup("b").unwrap().index();

        // Allowed = {a}: witness "a…" exists.
        let mut only_a = BitSet::new(ab.len());
        only_a.insert(a_idx);
        assert!(intersection_nonempty_restricted(&d1, &d2, Some(&only_a)));

        // Allowed = ∅: no witness (ε not accepted by either).
        let none = BitSet::new(ab.len());
        assert!(!intersection_nonempty_restricted(&d1, &d2, Some(&none)));

        // ε case: nullable languages intersect even with P = ∅.
        let d3 = compile("a*", &mut ab);
        let d4 = compile("b*", &mut ab);
        let none2 = BitSet::new(ab.len());
        assert!(intersection_nonempty_restricted(&d3, &d4, Some(&none2)));
        let _ = b_idx;
    }

    #[test]
    fn productivity_restriction() {
        let mut ab = Alphabet::new();
        let d = compile("(a, b) | c", &mut ab);
        let a_idx = ab.lookup("a").unwrap().index();
        let c_idx = ab.lookup("c").unwrap().index();

        // Only c productive: "c" is a witness.
        let mut only_c = BitSet::new(ab.len());
        only_c.insert(c_idx);
        assert!(nonempty_restricted(&d, &only_c));

        // Only a productive: neither "(a,b)" nor "c" fits.
        let mut only_a = BitSet::new(ab.len());
        only_a.insert(a_idx);
        assert!(!nonempty_restricted(&d, &only_a));
    }
}
