//! Dense, complete deterministic finite automata.
//!
//! Content models are small, so the transition function is a dense
//! `states × |Σ|` table: stepping is one multiply and one load. Every DFA is
//! *complete* — it has a (possibly unreachable) sink state, and symbols
//! interned after the DFA was built (`sym.index() ≥ alphabet_len`) also step
//! to the sink, so a document using labels unknown to a schema is simply
//! rejected by its content models.
//!
//! Beside the table, a DFA derives its *live edges* in compressed-row
//! form: per state, the transitions that do not enter the sink. A content
//! model over a few hundred labels has one or two of those per state, so
//! pair-graph walks ([`crate::checks`]) iterate these lists instead of
//! stepping every table column. They are built on first use: products and
//! reversals that are only stepped, such as the string-cast machinery the
//! edit path builds per document, never pay for them.

use crate::bitset::BitSet;
use crate::nfa::Nfa;
use schemacast_regex::ast::RepeatOverflow;
use schemacast_regex::{GlushkovNfa, Regex, Sym};
use std::sync::OnceLock;

/// A DFA state index.
pub type StateId = u32;

/// A complete DFA over a dense alphabet `0..alphabet_len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    alphabet_len: usize,
    start: StateId,
    /// Row-major transition table: `trans[q * alphabet_len + s]`.
    trans: Vec<StateId>,
    finals: Vec<bool>,
    sink: StateId,
    /// Built by [`Dfa::live_edges`] on first use.
    live: LiveEdges,
}

/// The live-edge lists of a [`Dfa`], derived from its table on first use.
#[derive(Debug, Clone, Default)]
struct LiveEdges(OnceLock<LiveRows>);

/// Compressed rows: `edges[start[q]..start[q + 1]]` are the
/// `(symbol, target)` transitions of `q` whose target is not the sink, by
/// symbol.
#[derive(Debug, Clone)]
struct LiveRows {
    start: Vec<u32>,
    edges: Vec<(Sym, StateId)>,
}

/// Derived data carries no identity of its own: two DFAs are equal when
/// their tables are, whether or not either has built its lists yet.
impl PartialEq for LiveEdges {
    fn eq(&self, _: &LiveEdges) -> bool {
        true
    }
}

impl Eq for LiveEdges {}

impl Dfa {
    /// Assembles a DFA from raw parts, materializing a sink if the given
    /// machine has no all-looping non-final state.
    ///
    /// # Panics
    /// Panics if `trans.len() != finals.len() * alphabet_len` or a target is
    /// out of range.
    pub fn from_parts(
        alphabet_len: usize,
        start: StateId,
        mut trans: Vec<StateId>,
        mut finals: Vec<bool>,
    ) -> Dfa {
        assert_eq!(trans.len(), finals.len() * alphabet_len);
        let n = finals.len() as StateId;
        assert!(
            trans.iter().all(|&t| t < n),
            "transition target out of range"
        );
        assert!(start < n, "start state out of range");

        let sink = (0..finals.len())
            .find(|&q| {
                !finals[q]
                    && trans[q * alphabet_len..(q + 1) * alphabet_len]
                        .iter()
                        .all(|&t| t == q as StateId)
            })
            .map(|q| q as StateId)
            .unwrap_or_else(|| {
                let q = finals.len() as StateId;
                finals.push(false);
                trans.extend(std::iter::repeat_n(q, alphabet_len));
                q
            });

        Dfa {
            alphabet_len,
            start,
            trans,
            finals,
            sink,
            live: LiveEdges::default(),
        }
    }

    /// Compiles a regular expression into a DFA over `alphabet_len` symbols.
    ///
    /// One-unambiguous expressions (every well-formed XML content model)
    /// yield their Glushkov automaton directly; others are determinized via
    /// the subset construction.
    ///
    /// # Errors
    /// Fails only if a bounded repetition is too large to expand.
    pub fn from_regex(r: &Regex, alphabet_len: usize) -> Result<Dfa, RepeatOverflow> {
        let g = GlushkovNfa::new(r)?;
        if g.is_deterministic() {
            Ok(Self::from_deterministic_glushkov(&g, alphabet_len))
        } else {
            Ok(Nfa::from_glushkov(&g, alphabet_len).determinize())
        }
    }

    fn from_deterministic_glushkov(g: &GlushkovNfa, alphabet_len: usize) -> Dfa {
        let n = g.state_count();
        // Reserve one extra state up front as the sink.
        let sink = n as StateId;
        let mut trans = vec![sink; (n + 1) * alphabet_len];
        let mut finals = vec![false; n + 1];
        for q in 0..n {
            finals[q] = g.is_final(q);
            for (sym, t) in g.transitions(q) {
                trans[q * alphabet_len + sym.index()] = t as StateId;
            }
        }
        for s in 0..alphabet_len {
            trans[n * alphabet_len + s] = sink;
        }
        Dfa {
            alphabet_len,
            start: g.start() as StateId,
            trans,
            finals,
            sink,
            live: LiveEdges::default(),
        }
    }

    /// The alphabet size this DFA's table covers.
    pub fn alphabet_len(&self) -> usize {
        self.alphabet_len
    }

    /// Number of states (including the sink).
    pub fn state_count(&self) -> usize {
        self.finals.len()
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// The sink (dead) state.
    pub fn sink(&self) -> StateId {
        self.sink
    }

    /// Whether `q` is accepting.
    #[inline]
    pub fn is_final(&self, q: StateId) -> bool {
        self.finals[q as usize]
    }

    /// The accepting-state set as a bitset.
    pub fn finals(&self) -> BitSet {
        let mut b = BitSet::new(self.state_count());
        for (q, &f) in self.finals.iter().enumerate() {
            if f {
                b.insert(q);
            }
        }
        b
    }

    /// One transition step. Symbols outside the table's alphabet go to the
    /// sink.
    #[inline]
    pub fn step(&self, q: StateId, s: Sym) -> StateId {
        if s.index() < self.alphabet_len {
            self.trans[q as usize * self.alphabet_len + s.index()]
        } else {
            self.sink
        }
    }

    /// The transitions of `q` that do not enter the sink, as
    /// `(symbol, target)` pairs in symbol order. Every other symbol —
    /// including any beyond the table's alphabet — steps `q` to the sink.
    #[inline]
    pub fn live_edges(&self, q: StateId) -> &[(Sym, StateId)] {
        let rows = self.live.0.get_or_init(|| self.live_rows());
        let q = q as usize;
        &rows.edges[rows.start[q] as usize..rows.start[q + 1] as usize]
    }

    /// Builds the compressed rows behind [`Dfa::live_edges`].
    fn live_rows(&self) -> LiveRows {
        // Live edges are a subset of table entries, so this bounds every
        // offset.
        assert!(
            u32::try_from(self.trans.len()).is_ok(),
            "transition table too large for u32 live-edge offsets"
        );
        let mut start = Vec::with_capacity(self.state_count() + 1);
        let mut edges = Vec::new();
        start.push(0);
        for q in 0..self.state_count() as StateId {
            for (s, &t) in self.row(q).iter().enumerate() {
                if t != self.sink {
                    edges.push((Sym(s as u32), t));
                }
            }
            start.push(edges.len() as u32);
        }
        LiveRows { start, edges }
    }

    /// Runs the DFA over `input` starting at `q`.
    pub fn run_from(&self, mut q: StateId, input: &[Sym]) -> StateId {
        for &s in input {
            q = self.step(q, s);
        }
        q
    }

    /// Whether `input ∈ L(self)`.
    pub fn accepts(&self, input: &[Sym]) -> bool {
        self.is_final(self.run_from(self.start, input))
    }

    /// States reachable from the start state.
    pub fn reachable(&self) -> BitSet {
        let mut seen = BitSet::new(self.state_count());
        let mut stack = vec![self.start];
        seen.insert(self.start as usize);
        while let Some(q) = stack.pop() {
            for s in 0..self.alphabet_len {
                let t = self.trans[q as usize * self.alphabet_len + s];
                if seen.insert(t as usize) {
                    stack.push(t);
                }
            }
        }
        seen
    }

    /// States from which some accepting state is reachable (co-accessible
    /// states). The complement is the set of states whose right language is
    /// empty — the "no final state is reachable" half of the paper's dead
    /// states, and exactly the `IR` set of Definition 6.
    pub fn coaccessible(&self) -> BitSet {
        // Reverse adjacency, then BFS from finals.
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); self.state_count()];
        for q in 0..self.state_count() {
            for s in 0..self.alphabet_len {
                let t = self.trans[q * self.alphabet_len + s];
                rev[t as usize].push(q as StateId);
            }
        }
        let mut live = BitSet::new(self.state_count());
        let mut stack: Vec<StateId> = Vec::new();
        for (q, &f) in self.finals.iter().enumerate() {
            if f && live.insert(q) {
                stack.push(q as StateId);
            }
        }
        while let Some(q) = stack.pop() {
            for &p in &rev[q as usize] {
                if live.insert(p as usize) {
                    stack.push(p);
                }
            }
        }
        live
    }

    /// Dead states per the paper's §4.1: unreachable from the start state,
    /// or unable to reach any accepting state.
    pub fn dead_states(&self) -> BitSet {
        let reach = self.reachable();
        let live = self.coaccessible();
        let mut dead = BitSet::new(self.state_count());
        for q in 0..self.state_count() {
            if !reach.contains(q) || !live.contains(q) {
                dead.insert(q);
            }
        }
        dead
    }

    /// Whether `L(self) = ∅`.
    pub fn is_empty_language(&self) -> bool {
        !self.coaccessible().contains(self.start as usize)
    }

    /// Symbols that occur in at least one accepted string: `s` is useful iff
    /// some reachable state has an `s`-transition into a co-accessible state.
    /// The result is a bitset over symbol indices `0..alphabet_len`.
    pub fn useful_symbols(&self) -> BitSet {
        let reach = self.reachable();
        let live = self.coaccessible();
        let mut useful = BitSet::new(self.alphabet_len);
        for q in reach.iter() {
            for s in 0..self.alphabet_len {
                let t = self.trans[q * self.alphabet_len + s];
                if live.contains(t as usize) {
                    useful.insert(s);
                }
            }
        }
        useful
    }

    /// Whether `L(self) = Σ*` (every reachable state accepting).
    pub fn is_universal(&self) -> bool {
        self.reachable().iter().all(|q| self.finals[q])
    }

    /// The reverse NFA: transitions flipped, starts = old finals,
    /// final = old start.
    pub fn reverse_nfa(&self) -> Nfa {
        let mut nfa = Nfa::new(self.state_count(), self.alphabet_len);
        for q in 0..self.state_count() {
            for s in 0..self.alphabet_len {
                let t = self.trans[q * self.alphabet_len + s];
                nfa.add_transition(t, Sym(s as u32), q as StateId);
            }
        }
        for (q, &f) in self.finals.iter().enumerate() {
            if f {
                nfa.add_start(q as StateId);
            }
        }
        nfa.set_final(self.start);
        nfa
    }

    /// A DFA for the reversed language (reverse NFA + subset construction).
    pub fn reversed(&self) -> Dfa {
        self.reverse_nfa().determinize()
    }

    /// The complement DFA (finals flipped; completeness makes this sound).
    pub fn complement(&self) -> Dfa {
        let finals = self.finals.iter().map(|&f| !f).collect();
        Dfa::from_parts(self.alphabet_len, self.start, self.trans.clone(), finals)
    }

    /// A copy of this DFA with a different start state — the per-state
    /// language `L(q)` of §4.1 as a machine. Used by tests to cross-check
    /// the immediate decision sets against Definition 7 directly.
    pub fn with_start(&self, q: StateId) -> Dfa {
        assert!((q as usize) < self.state_count(), "start out of range");
        let mut d = self.clone();
        d.start = q;
        d
    }

    /// Raw transition row for state `q` (one target per symbol).
    pub(crate) fn row(&self, q: StateId) -> &[StateId] {
        &self.trans[q as usize * self.alphabet_len..(q as usize + 1) * self.alphabet_len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_regex::{parse_regex, Alphabet};

    fn compile(text: &str) -> (Dfa, Alphabet) {
        let mut ab = Alphabet::new();
        let r = parse_regex(text, &mut ab).expect("parse");
        let d = Dfa::from_regex(&r, ab.len()).expect("compile");
        (d, ab)
    }

    #[test]
    fn purchase_order_content_model() {
        let (d, ab) = compile("(shipTo, billTo?, items)");
        let sh = ab.lookup("shipTo").unwrap();
        let bi = ab.lookup("billTo").unwrap();
        let it = ab.lookup("items").unwrap();
        assert!(d.accepts(&[sh, it]));
        assert!(d.accepts(&[sh, bi, it]));
        assert!(!d.accepts(&[sh, bi]));
        assert!(!d.accepts(&[it]));
        assert!(!d.accepts(&[]));
    }

    #[test]
    fn out_of_alphabet_symbols_reject() {
        let (d, ab) = compile("(a, b)");
        let a = ab.lookup("a").unwrap();
        let b = ab.lookup("b").unwrap();
        // A symbol interned later than DFA construction:
        let unknown = Sym(ab.len() as u32 + 5);
        assert!(d.accepts(&[a, b]));
        assert!(!d.accepts(&[a, unknown]));
        assert_eq!(d.step(d.start(), unknown), d.sink());
    }

    #[test]
    fn dfa_agrees_with_derivative_matcher() {
        let mut ab = Alphabet::new();
        let r = parse_regex("(a|b)*, c, (a, c)?", &mut ab).expect("parse");
        let d = Dfa::from_regex(&r, ab.len()).expect("compile");
        let a = ab.lookup("a").unwrap();
        let b = ab.lookup("b").unwrap();
        let c = ab.lookup("c").unwrap();
        let syms = [a, b, c];
        // Exhaustive strings up to length 4.
        let mut inputs: Vec<Vec<Sym>> = vec![vec![]];
        for len in 1..=4 {
            let mut next = Vec::new();
            for base in inputs.iter().filter(|v| v.len() == len - 1) {
                for &s in &syms {
                    let mut v = base.clone();
                    v.push(s);
                    next.push(v);
                }
            }
            inputs.extend(next);
        }
        for input in &inputs {
            assert_eq!(d.accepts(input), r.matches(input), "input {input:?}");
        }
    }

    #[test]
    fn dead_states_and_emptiness() {
        let (d, _) = compile("(a, b)");
        let dead = d.dead_states();
        assert!(dead.contains(d.sink() as usize));
        assert!(!d.is_empty_language());

        let empty = Dfa::from_regex(&Regex::Empty, 2).expect("compile");
        assert!(empty.is_empty_language());
    }

    #[test]
    fn universality() {
        let mut ab = Alphabet::new();
        let r = parse_regex("(a | b)*", &mut ab).expect("parse");
        let d = Dfa::from_regex(&r, ab.len()).expect("compile");
        assert!(d.is_universal());
        let (d2, _) = compile("(a, b)");
        assert!(!d2.is_universal());
    }

    #[test]
    fn reversed_language() {
        let (d, ab) = compile("(a, b, c)");
        let rev = d.reversed();
        let a = ab.lookup("a").unwrap();
        let b = ab.lookup("b").unwrap();
        let c = ab.lookup("c").unwrap();
        assert!(rev.accepts(&[c, b, a]));
        assert!(!rev.accepts(&[a, b, c]));
    }

    #[test]
    fn complement_flips_membership() {
        let (d, ab) = compile("(a, b?)");
        let comp = d.complement();
        let a = ab.lookup("a").unwrap();
        let b = ab.lookup("b").unwrap();
        for input in [vec![], vec![a], vec![a, b], vec![b], vec![a, b, b]] {
            assert_eq!(d.accepts(&input), !comp.accepts(&input), "input {input:?}");
        }
    }

    #[test]
    fn live_edges_are_the_non_sink_row_entries() {
        let mut ab = Alphabet::new();
        let glushkov = Dfa::from_regex(&parse_regex("(a, b?, c*)", &mut ab).unwrap(), 5).unwrap();
        // Two `a` positions from the start: not one-unambiguous, so this
        // one goes through the subset construction.
        let ambiguous = parse_regex("(a, b) | (a, c)", &mut ab).unwrap();
        assert!(!GlushkovNfa::new(&ambiguous).unwrap().is_deterministic());
        let determinized = Dfa::from_regex(&ambiguous, ab.len()).unwrap();
        let product = crate::product::Product::new(&glushkov, &determinized);
        for d in [&glushkov, &determinized, product.dfa()] {
            for q in 0..d.state_count() as StateId {
                let expected: Vec<(Sym, StateId)> = d
                    .row(q)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &t)| t != d.sink())
                    .map(|(s, &t)| (Sym(s as u32), t))
                    .collect();
                assert_eq!(d.live_edges(q), expected.as_slice(), "state {q}");
            }
            assert!(d.live_edges(d.sink()).is_empty());
        }
        // Building the lists leaves equality alone.
        let fresh = Dfa::from_regex(&parse_regex("(a, b?, c*)", &mut ab).unwrap(), 5).unwrap();
        assert_eq!(glushkov, fresh);
    }

    #[test]
    fn epsilon_only_language() {
        let d = Dfa::from_regex(&Regex::Epsilon, 1).expect("compile");
        assert!(d.accepts(&[]));
        assert!(!d.accepts(&[Sym(0)]));
    }
}
