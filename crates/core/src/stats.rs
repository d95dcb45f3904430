//! Validation statistics — the instrumentation behind Table 3 and the
//! cost accounting of every benchmark.

use std::ops::AddAssign;

/// Counters collected during one validation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationStats {
    /// Tree nodes the validator descended into (the paper's "nodes visited",
    /// Table 3). Skipped subtrees contribute only their root.
    pub nodes_visited: usize,
    /// Symbols consumed by content-model automata.
    pub content_symbols_scanned: usize,
    /// Subtrees skipped because their type pair is in `R_sub`.
    pub subsumed_skips: usize,
    /// Validations cut short because a type pair is disjoint.
    pub disjoint_rejects: usize,
    /// Content-model checks decided early by an immediate-accept state.
    pub ida_early_accepts: usize,
    /// Content-model checks decided early by an immediate-reject state.
    pub ida_early_rejects: usize,
    /// Subtrees validated from scratch (inserted content, or no source
    /// type available).
    pub full_validations: usize,
    /// Simple values checked against facets.
    pub value_checks: usize,
    /// Edited documents accepted by the static fast path (all edits
    /// statically `Safe`; the edited subtrees were never inspected).
    pub static_skips: usize,
    /// Edited documents rejected by the static fast path (some edit
    /// statically `Unsafe`; the document was never inspected).
    pub static_rejects: usize,
    /// Edited documents accepted by the *script-level* analyzer: the
    /// whole script's net effect per touched site was statically decided
    /// valid, after normalization, without applying the edits.
    pub script_skips: usize,
    /// Edited documents rejected by the script-level analyzer: some
    /// site's net child word can never be target-valid.
    pub script_rejects: usize,
    /// Raw bytes the streaming validator scanned past without tokenization
    /// (lexical subtree skipping). Tree validators and the depth-counting
    /// event path leave this 0 — the bytes of a skipped subtree are still
    /// *read* by the skip's depth-counting scan, but never lexed into
    /// names, attributes, or entity-resolved text.
    pub bytes_skipped: usize,
    /// Start/end tag events that were never tokenized because the subtree
    /// containing them was skipped lexically. A self-closing tag counts as
    /// two (the `Start`/`End` pair it would have produced); the skipped
    /// element's own end tag is included.
    pub events_avoided: usize,
    /// Always 0: no validation path builds a structural index any more.
    /// It timed the tape build the streaming validator once ran first; the
    /// field stays only so the `SCVC0001` verdict-cache layout is unchanged.
    pub index_build_micros: usize,
    /// Always 0: no validation path builds a structural index any more.
    /// It counted that tape's entries; the field stays only so the
    /// `SCVC0001` verdict-cache layout is unchanged.
    pub tape_events: usize,
    /// One per skipped element that is not self-closing (a self-closing
    /// element's skip only consumes its already-lexed end event). The
    /// scalar reference lexer and the depth-counting event path leave this
    /// 0.
    pub tape_skip_hops: usize,
    /// Certificates emitted by the certification pass (`--certify`): every
    /// static claim packaged for the independent checker.
    pub certs_emitted: usize,
    /// Objects the independent checker examined (DFA tables plus
    /// certificates of every kind).
    pub certs_checked: usize,
    /// Wall-clock microseconds the independent checker spent validating.
    pub cert_check_micros: usize,
}

impl ValidationStats {
    /// A copy with the wall-clock counters ([`Self::index_build_micros`],
    /// [`Self::cert_check_micros`]) zeroed. What remains is a function of
    /// the input alone, so it is what determinism checks compare and what
    /// the verdict cache records.
    pub fn without_clocks(self) -> ValidationStats {
        ValidationStats {
            index_build_micros: 0,
            cert_check_micros: 0,
            ..self
        }
    }
}

impl AddAssign for ValidationStats {
    fn add_assign(&mut self, rhs: ValidationStats) {
        self.nodes_visited += rhs.nodes_visited;
        self.content_symbols_scanned += rhs.content_symbols_scanned;
        self.subsumed_skips += rhs.subsumed_skips;
        self.disjoint_rejects += rhs.disjoint_rejects;
        self.ida_early_accepts += rhs.ida_early_accepts;
        self.ida_early_rejects += rhs.ida_early_rejects;
        self.full_validations += rhs.full_validations;
        self.value_checks += rhs.value_checks;
        self.static_skips += rhs.static_skips;
        self.static_rejects += rhs.static_rejects;
        self.script_skips += rhs.script_skips;
        self.script_rejects += rhs.script_rejects;
        self.bytes_skipped += rhs.bytes_skipped;
        self.events_avoided += rhs.events_avoided;
        self.index_build_micros += rhs.index_build_micros;
        self.tape_events += rhs.tape_events;
        self.tape_skip_hops += rhs.tape_skip_hops;
        self.certs_emitted += rhs.certs_emitted;
        self.certs_checked += rhs.certs_checked;
        self.cert_check_micros += rhs.cert_check_micros;
    }
}

/// The result of a validation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastOutcome {
    /// The document is valid with respect to the target schema.
    Valid,
    /// The document is not valid with respect to the target schema.
    Invalid,
}

impl CastOutcome {
    /// Whether the outcome is [`CastOutcome::Valid`].
    pub fn is_valid(self) -> bool {
        matches!(self, CastOutcome::Valid)
    }

    /// Builds an outcome from a boolean.
    pub fn from_bool(b: bool) -> CastOutcome {
        if b {
            CastOutcome::Valid
        } else {
            CastOutcome::Invalid
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate() {
        let mut a = ValidationStats {
            nodes_visited: 3,
            content_symbols_scanned: 5,
            ..Default::default()
        };
        let b = ValidationStats {
            nodes_visited: 2,
            subsumed_skips: 1,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.nodes_visited, 5);
        assert_eq!(a.content_symbols_scanned, 5);
        assert_eq!(a.subsumed_skips, 1);
    }

    #[test]
    fn outcome_helpers() {
        assert!(CastOutcome::Valid.is_valid());
        assert!(!CastOutcome::Invalid.is_valid());
        assert_eq!(CastOutcome::from_bool(true), CastOutcome::Valid);
        assert_eq!(CastOutcome::from_bool(false), CastOutcome::Invalid);
    }
}
