//! `TypeRelations::compute` against a reference implementation of the
//! paper's fixpoints.
//!
//! The reference is the plain round-based formulation of Definitions 4–5:
//! seed `R_sub` with language inclusion and refine until stable; seed
//! `R_nondis` with the simple-type pairs and sweep every undecided complex
//! pair until no sweep adds one. Its pair kernels are the shortest-word
//! searches of `schemacast_automata::witness`, which share no code with the
//! library's inclusion and restricted-intersection walks. Both relations
//! must agree pair for pair. Certificates prove every *claimed* pair
//! sound, but they would not notice a pair missing from `R_sub`; this suite
//! does.
//!
//! It also checks the well-foundedness of `nondis_order`: every complex
//! non-disjoint pair has a common word over labels whose child pairs
//! entered the relation strictly earlier.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use schemacast_automata::{shortest_in_a_not_b, shortest_in_both, BitSet};
use schemacast_core::TypeRelations;
use schemacast_regex::Alphabet;
use schemacast_schema::{AbstractSchema, ComplexType, TypeDef, TypeId};
use schemacast_workload::synth::{random_schema, ChildRef, SynthConfig, SynthSchema};

/// `rel[s][t]` for every source type `s` and target type `t`.
type Matrix = Vec<Vec<bool>>;

/// The round-based `R_sub` and `R_nondis` of the pair.
fn reference(source: &AbstractSchema, target: &AbstractSchema, labels: usize) -> (Matrix, Matrix) {
    let (n_src, n_tgt) = (source.type_count(), target.type_count());
    let complex_pairs = || {
        source.type_ids().flat_map(move |s| {
            target
                .type_ids()
                .filter_map(move |t| match (source.type_def(s), target.type_def(t)) {
                    (TypeDef::Complex(a), TypeDef::Complex(b)) => {
                        Some((s.index(), t.index(), a, b))
                    }
                    _ => None,
                })
        })
    };

    let mut sub = vec![vec![false; n_tgt]; n_src];
    for s in source.type_ids() {
        for t in target.type_ids() {
            sub[s.index()][t.index()] = match (source.type_def(s), target.type_def(t)) {
                (TypeDef::Simple(a), TypeDef::Simple(b)) => a.subsumed_by(b),
                (TypeDef::Complex(a), TypeDef::Complex(b)) => {
                    // Words of `L(a)` use only `a`'s own labels; saying so
                    // keeps the search from trying every symbol of Σ.
                    let own = permitted(a, a, labels, |_, _| true);
                    shortest_in_a_not_b(&a.dfa, &b.dfa, Some(&own)).is_none()
                }
                _ => false,
            };
        }
    }
    loop {
        let mut changed = false;
        for (s, t, a, b) in complex_pairs() {
            let broken = sub[s][t]
                && a.child_types.iter().any(|(&label, &cs)| {
                    b.child_type(label)
                        .is_none_or(|ct| !sub[cs.index()][ct.index()])
                });
            if broken {
                sub[s][t] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut nondis = vec![vec![false; n_tgt]; n_src];
    for s in source.type_ids() {
        for t in target.type_ids() {
            nondis[s.index()][t.index()] = match (source.type_def(s), target.type_def(t)) {
                (TypeDef::Simple(a), TypeDef::Simple(b)) => !a.disjoint_from(b),
                (TypeDef::Simple(a), TypeDef::Complex(b)) => a.validate("") && b.regex.nullable(),
                (TypeDef::Complex(a), TypeDef::Simple(b)) => a.regex.nullable() && b.validate(""),
                (TypeDef::Complex(_), TypeDef::Complex(_)) => false,
            };
        }
    }
    loop {
        let mut changed = false;
        for (s, t, a, b) in complex_pairs() {
            if nondis[s][t] {
                continue;
            }
            let p = permitted(a, b, labels, |cs, ct| nondis[cs.index()][ct.index()]);
            if shortest_in_both(&a.dfa, &b.dfa, Some(&p)).is_some() {
                nondis[s][t] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (sub, nondis)
}

/// The labels `ℓ` with `child_pair(a.child(ℓ), b.child(ℓ))`.
fn permitted(
    a: &ComplexType,
    b: &ComplexType,
    labels: usize,
    child_pair: impl Fn(TypeId, TypeId) -> bool,
) -> BitSet {
    let mut p = BitSet::new(labels);
    for (&label, &cs) in &a.child_types {
        if let Some(ct) = b.child_type(label) {
            if child_pair(cs, ct) {
                p.insert(label.index());
            }
        }
    }
    p
}

/// How many complex pairs the suite compared, by verdict.
#[derive(Default)]
struct Tally {
    subsumed: usize,
    disjoint: usize,
    overlapping: usize,
}

/// Checks one ordered pair, counting its complex pairs into `tally`.
fn check_pair(
    case: &str,
    source: &AbstractSchema,
    target: &AbstractSchema,
    ab: &Alphabet,
    tally: &mut Tally,
) {
    let rel = TypeRelations::compute(source, target, ab);
    let (sub, nondis) = reference(source, target, ab.len());
    for s in source.type_ids() {
        for t in target.type_ids() {
            let (si, ti) = (s.index(), t.index());
            assert_eq!(
                rel.subsumed(s, t),
                sub[si][ti],
                "{case}: R_sub differs at ({si}, {ti})"
            );
            assert_eq!(
                rel.disjoint(s, t),
                !nondis[si][ti],
                "{case}: R_dis differs at ({si}, {ti})"
            );
            assert_eq!(rel.nondis_order(s, t).is_some(), nondis[si][ti]);
        }
    }

    for s in source.type_ids() {
        for t in target.type_ids() {
            let (TypeDef::Complex(a), TypeDef::Complex(b)) =
                (source.type_def(s), target.type_def(t))
            else {
                continue;
            };
            if rel.subsumed(s, t) {
                tally.subsumed += 1;
            }
            let Some(order) = rel.nondis_order(s, t) else {
                tally.disjoint += 1;
                continue;
            };
            tally.overlapping += 1;
            let earlier = permitted(a, b, ab.len(), |cs, ct| {
                rel.nondis_order(cs, ct).is_some_and(|o| o < order)
            });
            assert!(
                shortest_in_both(&a.dfa, &b.dfa, Some(&earlier)).is_some(),
                "{case}: ({}, {}) has no witness over strictly earlier pairs",
                s.index(),
                t.index()
            );
        }
    }
}

/// Points a few alternatives back at their own type or an earlier one, so
/// the type graph gets the cycles the generator never makes. The first is
/// a self-loop, so there is always at least one.
fn add_back_edges(synth: &mut SynthSchema, rng: &mut SmallRng) {
    let n = synth.complexes.len();
    for k in 0..rng.gen_range(1..=3) {
        let ci = rng.gen_range(0..n);
        let parts = &mut synth.complexes[ci].parts;
        let pi = rng.gen_range(0..parts.len());
        let alts = &mut parts[pi].alternatives;
        let ai = rng.gen_range(0..alts.len());
        let to = if k == 0 { ci } else { rng.gen_range(0..=ci) };
        alts[ai].1 = ChildRef::Complex(to);
    }
}

/// One source description and its evolved target.
fn evolved(seed: u64, n_complex: usize, cyclic: bool) -> (SynthSchema, SynthSchema, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cfg = SynthConfig {
        n_complex,
        max_parts: rng.gen_range(2..=6),
        ..SynthConfig::default()
    };
    let mut source = random_schema(&cfg, &mut rng);
    if cyclic {
        add_back_edges(&mut source, &mut rng);
    }
    let mut target = source.clone();
    let steps = rng.gen_range(0..=8);
    for _ in 0..steps {
        target.evolve(&mut rng);
    }
    (source, target, steps)
}

#[test]
fn relations_match_the_round_based_reference() {
    // (n_complex, evolved pairs): each pair runs in both cast directions,
    // plus one unrelated pair per entry against the next seed's source.
    // Every third source gets back edges.
    let plan: &[(usize, u64)] = &[(4, 40), (16, 24), (64, 6)];
    let mut ordered_pairs = 0;
    let mut tally = Tally::default();
    for &(n_complex, count) in plan {
        for i in 0..count {
            let seed = n_complex as u64 * 1000 + i;
            let cyclic = i % 3 == 0;
            let (source, target, steps) = evolved(seed, n_complex, cyclic);
            let mut ab = Alphabet::new();
            let s = source.build(&mut ab);
            let t = target.build(&mut ab);
            let case = format!("n={n_complex} seed={seed} steps={steps} cyclic={cyclic}");
            check_pair(&format!("{case} forward"), &s, &t, &ab, &mut tally);
            check_pair(&format!("{case} backward"), &t, &s, &ab, &mut tally);

            let (other, _, _) = evolved(seed + 1, n_complex, false);
            let o = other.build(&mut ab);
            check_pair(&format!("{case} unrelated"), &s, &o, &ab, &mut tally);
            ordered_pairs += 3;
        }
    }
    assert!(ordered_pairs >= 100, "only {ordered_pairs} pairs compared");
    // Every verdict occurs often enough for a missing or extra pair to show.
    let Tally {
        subsumed,
        disjoint,
        overlapping,
    } = tally;
    assert!(
        subsumed > 100 && disjoint > 1000 && overlapping > 1000,
        "too few of some verdict: {subsumed} subsumed, {disjoint} disjoint, {overlapping} overlapping"
    );
}
