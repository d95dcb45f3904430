//! Algebraic laws of the automata substrate, property-tested over random
//! content-model regexes: these are the invariants the revalidation
//! algorithms silently rely on.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use schemacast_automata::{
    equivalent, intersection_nonempty_restricted, language_subset, minimize, shortest_in_a_not_b,
    shortest_in_both, BitSet, Dfa, Product,
};
use schemacast_regex::Sym;
use schemacast_workload::strings::random_regex;

const SIGMA: usize = 3;

fn dfa(seed: u64, depth: usize) -> Dfa {
    dfa_over(seed, depth, SIGMA)
}

/// A random DFA whose regex and table both span `sigma` symbols. Pairing a
/// `SIGMA` machine with a `SIGMA + 2` one puts live transitions on symbols
/// beyond the narrower table.
fn dfa_over(seed: u64, depth: usize, sigma: usize) -> Dfa {
    let mut rng = SmallRng::seed_from_u64(seed);
    Dfa::from_regex(&random_regex(&mut rng, sigma as u32, depth), sigma).expect("compiles")
}

/// `b` for a kernel law: as wide as `a` or, when `wide`, two symbols wider.
fn partner(seed: u64, wide: bool) -> Dfa {
    dfa_over(seed, 2, if wide { SIGMA + 2 } else { SIGMA })
}

fn probes() -> Vec<Vec<Sym>> {
    let mut out: Vec<Vec<Sym>> = vec![vec![]];
    let mut frontier = out.clone();
    for _ in 0..5 {
        let mut next = Vec::new();
        for base in &frontier {
            for s in 0..SIGMA as u32 {
                let mut v = base.clone();
                v.push(Sym(s));
                next.push(v);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// minimize is idempotent up to language equivalence and reaches a
    /// fixed point in size.
    #[test]
    fn minimize_is_idempotent(seed in 0u64..10_000) {
        let d = dfa(seed, 3);
        let m1 = minimize(&d);
        let m2 = minimize(&m1);
        prop_assert!(equivalent(&d, &m1));
        prop_assert_eq!(m1.state_count(), m2.state_count());
    }

    /// Double complement is the identity on languages.
    #[test]
    fn double_complement_is_identity(seed in 0u64..10_000) {
        let d = dfa(seed, 3);
        let cc = d.complement().complement();
        prop_assert!(equivalent(&d, &cc));
    }

    /// Product membership is conjunction of memberships.
    #[test]
    fn product_is_intersection(seed_a in 0u64..5_000, seed_b in 0u64..5_000) {
        let a = dfa(seed_a, 2);
        let b = dfa(seed_b, 2);
        let p = Product::new(&a, &b);
        for s in probes() {
            prop_assert_eq!(
                p.dfa().accepts(&s),
                a.accepts(&s) && b.accepts(&s),
                "string {:?}", s
            );
        }
    }

    /// Inclusion via complement: L(a) ⊆ L(b)  ⇔  L(a) ∩ ¬L(b) = ∅.
    #[test]
    fn inclusion_via_complement(seed_a in 0u64..5_000, seed_b in 0u64..5_000) {
        let a = dfa(seed_a, 2);
        let b = dfa(seed_b, 2);
        let direct = language_subset(&a, &b);
        let via_complement = Product::new(&a, &b.complement()).dfa().is_empty_language();
        prop_assert_eq!(direct, via_complement);
    }

    /// The inclusion kernel agrees with an independent BFS for a shortest
    /// word of `L(a) ∖ L(b)`, in both directions and across table widths.
    #[test]
    fn subset_iff_no_difference_witness(
        seed_a in 0u64..5_000,
        seed_b in 0u64..5_000,
        wide in any::<bool>(),
    ) {
        let a = dfa(seed_a, 2);
        let b = partner(seed_b, wide);
        for (x, y) in [(&a, &b), (&b, &a)] {
            prop_assert_eq!(
                language_subset(x, y),
                shortest_in_a_not_b(x, y, None).is_none()
            );
        }
        // The same language over a wider table: included both ways.
        let a_wide = Dfa::from_regex(
            &random_regex(&mut SmallRng::seed_from_u64(seed_a), SIGMA as u32, 2),
            SIGMA + 2,
        )
        .expect("compiles");
        prop_assert!(language_subset(&a, &a_wide) && language_subset(&a_wide, &a));
    }

    /// The `P*`-restricted intersection kernel agrees with an independent
    /// BFS for a shortest common word over `P`, for random `P ⊆ Σ`. `P`'s
    /// capacity varies too: symbols beyond it are not permitted.
    #[test]
    fn restricted_intersection_iff_common_witness(
        seed_a in 0u64..5_000,
        seed_b in 0u64..5_000,
        wide in any::<bool>(),
        p_width in 1..=SIGMA + 2,
        mask in 0u32..(1 << (SIGMA + 2)),
    ) {
        let a = dfa(seed_a, 2);
        let b = partner(seed_b, wide);
        let mut p = BitSet::new(p_width);
        for s in (0..p_width).filter(|s| mask & (1 << s) != 0) {
            p.insert(s);
        }
        for (x, y) in [(&a, &b), (&b, &a)] {
            prop_assert_eq!(
                intersection_nonempty_restricted(x, y, Some(&p)),
                shortest_in_both(x, y, Some(&p)).is_some()
            );
        }
    }

    /// Reversal is an involution on languages.
    #[test]
    fn double_reversal_is_identity(seed in 0u64..10_000) {
        let d = dfa(seed, 2);
        let rr = d.reversed().reversed();
        prop_assert!(equivalent(&d, &rr));
    }

    /// Universality ⇔ complement is empty.
    #[test]
    fn universal_iff_complement_empty(seed in 0u64..10_000) {
        let d = dfa(seed, 2);
        prop_assert_eq!(d.is_universal(), d.complement().is_empty_language());
    }

    /// Subset is a partial order on languages (antisymmetry ⇒ equivalence).
    #[test]
    fn subset_antisymmetry(seed_a in 0u64..3_000, seed_b in 0u64..3_000) {
        let a = dfa(seed_a, 2);
        let b = dfa(seed_b, 2);
        if language_subset(&a, &b) && language_subset(&b, &a) {
            prop_assert!(equivalent(&a, &b));
            // Minimal DFAs of equivalent languages have equal size.
            prop_assert_eq!(minimize(&a).state_count(), minimize(&b).state_count());
        }
    }
}
