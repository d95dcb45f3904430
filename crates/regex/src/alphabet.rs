//! Interned element-label alphabets.
//!
//! Every schema, automaton, and document participating in one revalidation
//! session shares a single [`Alphabet`], so that a label comparison anywhere
//! in the system is a `u32` comparison and DFA transition tables can be dense
//! `states × |Σ|` arrays.
//!
//! The alphabet grows: schema compilation and tree import intern into it.
//! The streaming validator does not hash document labels here per start
//! tag; the cast context takes a read-only snapshot of the labels when it
//! is built and falls back to [`Alphabet::lookup`] only for a name the
//! snapshot lacks.

use std::collections::HashMap;
use std::fmt;

/// An interned element label (a member of the alphabet Σ).
///
/// `Sym` is a dense index into the [`Alphabet`] that produced it. Symbols
/// from different alphabets must not be mixed; all public entry points in the
/// workspace take the alphabet alongside the symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// The dense index of this symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A string interner for element labels.
///
/// The paper assumes a common alphabet Σ for the source and target schemas
/// ("Without loss of generality, we assume that Σ_a = Σ_b = Σ"); in practice
/// we achieve this by interning both schemas' labels — and the labels of
/// every document — into one `Alphabet`.
#[derive(Debug, Default, Clone)]
pub struct Alphabet {
    names: Vec<String>,
    index: HashMap<String, Sym>,
}

impl Alphabet {
    /// Creates an empty alphabet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol. Idempotent.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&s) = self.index.get(name) {
            return s;
        }
        let s = Sym(u32::try_from(self.names.len()).expect("alphabet overflow"));
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), s);
        s
    }

    /// Looks up a previously interned label without inserting.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.index.get(name).copied()
    }

    /// The label for `sym`.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this alphabet.
    pub fn name(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of interned labels (|Σ|).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no labels have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all symbols in index order.
    pub fn symbols(&self) -> impl Iterator<Item = Sym> + '_ {
        (0..self.names.len() as u32).map(Sym)
    }

    /// Iterates over `(Sym, &str)` pairs in index order.
    pub fn entries(&self) -> impl Iterator<Item = (Sym, &str)> + '_ {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Sym(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut a = Alphabet::new();
        let x = a.intern("shipTo");
        let y = a.intern("billTo");
        assert_ne!(x, y);
        assert_eq!(a.intern("shipTo"), x);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn lookup_and_name_round_trip() {
        let mut a = Alphabet::new();
        let s = a.intern("items");
        assert_eq!(a.lookup("items"), Some(s));
        assert_eq!(a.lookup("absent"), None);
        assert_eq!(a.name(s), "items");
    }

    #[test]
    fn symbols_are_dense() {
        let mut a = Alphabet::new();
        for n in ["a", "b", "c"] {
            a.intern(n);
        }
        let syms: Vec<_> = a.symbols().collect();
        assert_eq!(syms, vec![Sym(0), Sym(1), Sym(2)]);
        let entries: Vec<_> = a.entries().map(|(s, n)| (s.0, n.to_owned())).collect();
        assert_eq!(entries[1], (1, "b".to_owned()));
    }

    #[test]
    fn empty_alphabet() {
        let a = Alphabet::new();
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
        assert_eq!(a.symbols().count(), 0);
    }
}
