//! Streaming schema-cast validation.
//!
//! The paper's closing claim: "the memory requirement of our algorithm does
//! not vary with the size of the document, but depends solely on the sizes
//! of the schemas". This module makes that literal: [`StreamingCast`]
//! consumes a [`PullEvent`] stream and validates
//! against both schemas in parallel **without building the document tree**
//! — state is one frame per open element (O(depth)) plus the preprocessed
//! schema-pair structures.
//!
//! Two execution paths share the frame machinery:
//!
//! * [`StreamingCast::validate_pull`] (and [`validate_str`] on top of it) —
//!   the production fast path. It drives the zero-copy pull parser
//!   directly: element labels arrive pre-interned as dense [`NameId`]s and
//!   are resolved to schema symbols through a reusable
//!   [`SymCache`] (one alphabet hash per *distinct* name per document), and
//!   a subsumed subtree (`(source, target) ∈ R_sub`) is skipped
//!   **lexically** with [`PullParser::skip_subtree`] — one depth-counting
//!   byte scan to the matching end tag, no tokenization. The parser lexes
//!   each event on demand and builds nothing ahead of its cursor, so this
//!   path holds O(depth) state. The bytes and tag events so avoided are
//!   recorded in [`ValidationStats::bytes_skipped`] /
//!   [`ValidationStats::events_avoided`].
//! * [`StreamingCast::validate_events`] — the generic path over any event
//!   iterator (sockets, replay logs, tests). Subsumed subtrees are skipped
//!   by depth counting: events are consumed but no work is done. This is
//!   also the oracle the property tests compare the lexical path against.
//!
//! Disjoint pairs and immediate-reject automaton states abort the scan at
//! the earliest event the decision procedure permits on both paths.
//!
//! [`validate_str`]: StreamingCast::validate_str
//! [`NameId`]: schemacast_xml::NameId

use crate::cast::CastContext;
use crate::stats::{CastOutcome, ValidationStats};
use loomlite::sync::Arc;
use schemacast_automata::hot::state_flags;
use schemacast_automata::{HotDfa, ProductIda, StateId};
use schemacast_regex::{Alphabet, Sym, SymCache};
use schemacast_schema::{ComplexType, SimpleType, TypeDef, TypeId};
use schemacast_xml::{PullEvent, PullParser, XmlError};
use std::borrow::Cow;

/// A streaming validator over a preprocessed [`CastContext`].
pub struct StreamingCast<'a, 'b> {
    ctx: &'a CastContext<'b>,
}

/// Reusable per-worker scratch state for the streaming fast path.
///
/// Holds the lifetime-free [`SymCache`] and the per-document product-IDA
/// memo, so batch workers resolve labels and fetch pair automata with zero
/// steady-state allocation across documents. Both are sized by the
/// schemas, never by a document. Create one per worker (or per call site)
/// and pass it to [`StreamingCast::validate_str_with`] /
/// [`StreamingCast::validate_pull`].
#[derive(Debug, Default)]
pub struct StreamScratch {
    syms: SymCache,
    pairs: PairMemo,
}

/// Per-document memo of product IDAs by type pair. The context's sharded
/// cache already dedups construction globally; this layer removes the
/// mutex + hash lookup from the per-element path for pairs the current
/// document has already used. [`TypeId`]s are small dense indices, so the
/// memo is a `#source_types × #target_types` matrix — one indexed load
/// per element, no hashing at all. Re-dimensioned at the start of every
/// document, and emptied by clearing only the slots the previous document
/// filled, so a scratch can safely move between contexts (type ids are
/// per-schema) at a cost that does not grow with the schemas.
#[derive(Debug, Default)]
struct PairMemo {
    slots: Vec<Option<Arc<ProductIda>>>,
    /// Indices of the filled slots.
    filled: Vec<usize>,
    tgt_width: usize,
}

impl PairMemo {
    /// Empties the memo and re-dimensions it for a schema pair.
    fn begin(&mut self, src_types: usize, tgt_types: usize) {
        for i in self.filled.drain(..) {
            self.slots[i] = None;
        }
        self.slots.resize(src_types * tgt_types, None);
        self.tgt_width = tgt_types;
    }

    /// The memoized product IDA for `(s, t)`, building it on first use.
    #[inline]
    fn get_or_insert(
        &mut self,
        s: TypeId,
        t: TypeId,
        build: impl FnOnce() -> Arc<ProductIda>,
    ) -> &Arc<ProductIda> {
        let i = s.index() * self.tgt_width + t.index();
        let slot = &mut self.slots[i];
        if slot.is_none() {
            self.filled.push(i);
        }
        slot.get_or_insert_with(build)
    }
}

/// One open element's validation state. Borrows simple-typed character data
/// from the document (`'t`) until a second run forces an owned buffer, and
/// caches the schema-side definitions (`'a`) so the per-event hot loop
/// never repeats a `type_def` lookup.
enum Frame<'a, 't> {
    /// Target type is simple: accumulate character data.
    Simple {
        simple: &'a SimpleType,
        text: Option<Cow<'t, str>>,
    },
    /// Target type is complex: run the content model as children arrive.
    Complex {
        /// This element's *source* complex definition, if any — types the
        /// children on the source side.
        src_cx: Option<&'a ComplexType>,
        /// This element's target complex definition.
        tgt_cx: &'a ComplexType,
        content: Content<'a>,
    },
}

enum Content<'a> {
    /// Product IDA over (source, target) content models (§4 integration).
    Ida {
        ida: Arc<ProductIda>,
        q: StateId,
        /// Early decision, if the IDA reached IA (`Some(true)`).
        /// Immediate rejects abort the whole scan instead.
        accepted_early: bool,
    },
    /// Plain target-DFA scan (no source content model, or IDA disabled),
    /// stepped through the cached branchless hot table.
    Dfa { hot: &'a HotDfa, q: StateId },
}

/// What a `Start` event did to the frame stack.
enum StartAction {
    /// A frame was pushed (or the content model absorbed it); keep going.
    Entered,
    /// The child's type pair is subsumed: skip its whole subtree.
    Skip,
    /// The document is invalid; stop.
    Invalid,
}

impl<'a, 'b> StreamingCast<'a, 'b> {
    /// Wraps a cast context.
    pub fn new(ctx: &'a CastContext<'b>) -> Self {
        StreamingCast { ctx }
    }

    /// Validates XML text end to end (parse + cast in one streaming pass)
    /// using the zero-copy fast path with lexical subtree skipping.
    ///
    /// # Errors
    /// Returns `Err` only for malformed XML; validity verdicts are in the
    /// `Ok` payload.
    pub fn validate_str(
        &self,
        text: &str,
        alphabet: &Alphabet,
    ) -> Result<(CastOutcome, ValidationStats), XmlError> {
        let mut scratch = StreamScratch::default();
        self.validate_str_with(text, alphabet, &mut scratch)
    }

    /// [`validate_str`](StreamingCast::validate_str) with caller-provided
    /// scratch state — the batch engine passes one [`StreamScratch`] per
    /// worker so repeated documents share allocations.
    ///
    /// # Errors
    /// Returns `Err` only for malformed XML.
    pub fn validate_str_with(
        &self,
        text: &str,
        alphabet: &Alphabet,
        scratch: &mut StreamScratch,
    ) -> Result<(CastOutcome, ValidationStats), XmlError> {
        self.validate_pull(&mut PullParser::new(text), alphabet, scratch)
    }

    /// Validates by driving a pull parser directly — the production fast
    /// path.
    ///
    /// Compared to [`validate_events`](StreamingCast::validate_events),
    /// this path (a) resolves labels through the parser's lexer-level
    /// interner plus a dense [`SymCache`] instead of hashing every start
    /// tag, and (b) skips subsumed subtrees *lexically* via
    /// [`PullParser::skip_subtree`], so the skipped bytes are never
    /// tokenized at all. Outcomes and decision counters are identical to
    /// the generic path (property-tested); only
    /// [`ValidationStats::bytes_skipped`] and
    /// [`ValidationStats::events_avoided`] differ (the generic path leaves
    /// them 0).
    ///
    /// # Errors
    /// Returns `Err` only for malformed XML.
    pub fn validate_pull<'t>(
        &self,
        parser: &mut PullParser<'t>,
        alphabet: &Alphabet,
        scratch: &mut StreamScratch,
    ) -> Result<(CastOutcome, ValidationStats), XmlError> {
        let StreamScratch { syms, pairs } = scratch;
        syms.begin();
        pairs.begin(
            self.ctx.source().type_count(),
            self.ctx.target().type_count(),
        );
        let mut stats = ValidationStats::default();
        let mut stack: Vec<Frame<'a, 't>> = Vec::new();
        let mut seen_root = false;

        while let Some(event) = parser.next() {
            match event? {
                PullEvent::Doctype { .. } => {}
                PullEvent::Start { name, id, .. } => {
                    let sym = syms.resolve(alphabet, id.index(), name);
                    match self.on_start(sym, &mut stack, &mut seen_root, pairs, &mut stats) {
                        StartAction::Entered => {}
                        StartAction::Skip => {
                            let skipped = parser.skip_subtree()?;
                            stats.bytes_skipped += skipped.bytes;
                            stats.events_avoided += skipped.events;
                            stats.tape_skip_hops += skipped.hops;
                        }
                        StartAction::Invalid => return Ok((CastOutcome::Invalid, stats)),
                    }
                }
                PullEvent::Text(t) => {
                    if !on_text(&mut stack, t) {
                        return Ok((CastOutcome::Invalid, stats));
                    }
                }
                PullEvent::End { .. } => {
                    let frame = stack.pop().expect("balanced events");
                    if !self.on_end(frame, &mut stats) {
                        return Ok((CastOutcome::Invalid, stats));
                    }
                }
            }
        }
        if !seen_root || !stack.is_empty() {
            return Ok((CastOutcome::Invalid, stats));
        }
        Ok((CastOutcome::Valid, stats))
    }

    /// Validates a pull-event stream from any iterator — the generic path,
    /// and the depth-counting oracle for the lexical fast path.
    ///
    /// The stream is consumed until a verdict is reached; on early rejection
    /// the remaining events are not pulled (useful over sockets). Subsumed
    /// subtrees are skipped by depth counting: their events are still
    /// tokenized and consumed, so [`ValidationStats::bytes_skipped`] /
    /// [`ValidationStats::events_avoided`] stay 0 on this path.
    pub fn validate_events<'t, I>(
        &self,
        events: I,
        alphabet: &Alphabet,
    ) -> Result<(CastOutcome, ValidationStats), XmlError>
    where
        I: IntoIterator<Item = Result<PullEvent<'t>, XmlError>>,
    {
        let mut stats = ValidationStats::default();
        let mut stack: Vec<Frame<'a, 't>> = Vec::new();
        let mut skip_depth: usize = 0;
        let mut seen_root = false;
        let mut pairs = PairMemo::default();
        pairs.begin(
            self.ctx.source().type_count(),
            self.ctx.target().type_count(),
        );

        for event in events {
            match event? {
                PullEvent::Doctype { .. } => {}
                PullEvent::Start { name, .. } => {
                    if skip_depth > 0 {
                        skip_depth += 1;
                        continue;
                    }
                    let sym = alphabet.lookup(name);
                    match self.on_start(sym, &mut stack, &mut seen_root, &mut pairs, &mut stats) {
                        StartAction::Entered => {}
                        StartAction::Skip => skip_depth = 1,
                        StartAction::Invalid => return Ok((CastOutcome::Invalid, stats)),
                    }
                }
                PullEvent::Text(t) => {
                    if skip_depth > 0 {
                        continue;
                    }
                    if !on_text(&mut stack, t) {
                        return Ok((CastOutcome::Invalid, stats));
                    }
                }
                PullEvent::End { .. } => {
                    if skip_depth > 0 {
                        skip_depth -= 1;
                        continue;
                    }
                    let frame = stack.pop().expect("balanced events");
                    if !self.on_end(frame, &mut stats) {
                        return Ok((CastOutcome::Invalid, stats));
                    }
                }
            }
        }
        if !seen_root || !stack.is_empty() || skip_depth != 0 {
            return Ok((CastOutcome::Invalid, stats));
        }
        Ok((CastOutcome::Valid, stats))
    }

    /// Handles a start tag: types the element, steps the enclosing content
    /// model, and decides whether to descend, skip, or reject.
    ///
    /// This is the per-element hot loop. Content models are stepped through
    /// [`HotDfa`] tables — one multiply, one clamped (branchless) load, one
    /// flag-byte test — and child types resolve through the dense
    /// [`ComplexType::child_index`] instead of a hash map.
    fn on_start<'t>(
        &self,
        sym: Option<Sym>,
        stack: &mut Vec<Frame<'a, 't>>,
        seen_root: &mut bool,
        pairs: &mut PairMemo,
        stats: &mut ValidationStats,
    ) -> StartAction {
        let Some(sym) = sym else {
            // A label neither schema has ever seen cannot be admitted by
            // the target.
            return StartAction::Invalid;
        };
        if stack.is_empty() {
            if *seen_root {
                return StartAction::Invalid;
            }
            *seen_root = true;
            let Some(tgt) = self.ctx.target().root_type(sym) else {
                return StartAction::Invalid;
            };
            let src = self.ctx.source().root_type(sym);
            match self.enter(src, tgt, pairs, stats) {
                Entered::Frame(f) => {
                    stack.push(f);
                    StartAction::Entered
                }
                Entered::Skip => StartAction::Skip,
                Entered::Reject => StartAction::Invalid,
            }
        } else {
            let top = stack.last_mut().expect("non-empty");
            match top {
                Frame::Simple { .. } => {
                    // Element content inside a simple type.
                    StartAction::Invalid
                }
                Frame::Complex {
                    src_cx,
                    tgt_cx,
                    content,
                } => {
                    // Step the content model.
                    match content {
                        Content::Ida {
                            ida,
                            q,
                            accepted_early,
                        } => {
                            if !*accepted_early {
                                stats.content_symbols_scanned += 1;
                                let hot = ida.ida().hot();
                                *q = hot.step(*q, sym.index());
                                let flags = hot.flags(*q);
                                if flags & state_flags::IR != 0 {
                                    stats.ida_early_rejects += 1;
                                    return StartAction::Invalid;
                                }
                                if flags & state_flags::IA != 0 {
                                    stats.ida_early_accepts += 1;
                                    *accepted_early = true;
                                }
                            }
                        }
                        Content::Dfa { hot, q } => {
                            stats.content_symbols_scanned += 1;
                            *q = hot.step(*q, sym.index());
                            if *q == hot.sink() {
                                return StartAction::Invalid;
                            }
                        }
                    }
                    // Type the child (dense index: no hashing).
                    let Some(child_tgt) = tgt_cx.child_type_dense(sym) else {
                        return StartAction::Invalid;
                    };
                    let child_src = src_cx.and_then(|c| c.child_type_dense(sym));
                    match self.enter(child_src, child_tgt, pairs, stats) {
                        Entered::Frame(f) => {
                            stack.push(f);
                            StartAction::Entered
                        }
                        Entered::Skip => StartAction::Skip,
                        Entered::Reject => StartAction::Invalid,
                    }
                }
            }
        }
    }

    /// Closes a frame: final simple-value / content-model acceptance check.
    /// Returns whether the element was valid.
    fn on_end(&self, frame: Frame<'a, '_>, stats: &mut ValidationStats) -> bool {
        match frame {
            Frame::Simple { simple, text } => {
                stats.value_checks += 1;
                let text = text.as_deref().unwrap_or("");
                // Whitespace-only content is treated as the empty value,
                // matching the tree validators (Doc::validation_children
                // drops ignorable whitespace before simple-value checks).
                if all_xml_whitespace(text) {
                    simple.validate("")
                } else {
                    simple.validate(text)
                }
            }
            Frame::Complex { content, .. } => match content {
                Content::Ida {
                    ida,
                    q,
                    accepted_early,
                } => accepted_early || ida.ida().hot().is_final(q),
                Content::Dfa { hot, q } => hot.is_final(q),
            },
        }
    }

    /// Decides how to process an element with type pair `(src?, tgt)`.
    fn enter<'t>(
        &self,
        src: Option<TypeId>,
        tgt: TypeId,
        pairs: &mut PairMemo,
        stats: &mut ValidationStats,
    ) -> Entered<'a, 't> {
        stats.nodes_visited += 1;
        let opts = self.ctx.options();
        if let Some(s) = src {
            if opts.use_subsumption && self.ctx.relations().subsumed(s, tgt) {
                stats.subsumed_skips += 1;
                return Entered::Skip;
            }
            if opts.use_disjointness && self.ctx.relations().disjoint(s, tgt) {
                stats.disjoint_rejects += 1;
                return Entered::Reject;
            }
        } else {
            stats.full_validations += 1;
        }
        match self.ctx.target().type_def(tgt) {
            TypeDef::Simple(simple) => Entered::Frame(Frame::Simple { simple, text: None }),
            TypeDef::Complex(c) => {
                let src_cx = src.and_then(|s| self.ctx.source().type_def(s).as_complex());
                let content = match (opts.use_ida, src, src_cx) {
                    (true, Some(s), Some(_)) => {
                        let ida = pairs
                            .get_or_insert(s, tgt, || self.ctx.product_ida(s, tgt))
                            .clone();
                        let hot = ida.ida().hot();
                        let q = hot.start();
                        // The start state may already be decisive.
                        let flags = hot.flags(q);
                        if flags & state_flags::IR != 0 {
                            stats.ida_early_rejects += 1;
                            return Entered::Reject;
                        }
                        let accepted_early = flags & state_flags::IA != 0;
                        if accepted_early {
                            stats.ida_early_accepts += 1;
                        }
                        Content::Ida {
                            ida,
                            q,
                            accepted_early,
                        }
                    }
                    _ => Content::Dfa {
                        hot: &c.hot,
                        q: c.hot.start(),
                    },
                };
                Entered::Frame(Frame::Complex {
                    src_cx,
                    tgt_cx: c,
                    content,
                })
            }
        }
    }
}

/// Handles character data against the innermost frame. Returns whether the
/// text is admissible. The first run of a simple value stays borrowed; only
/// a second run (CDATA boundary, comment split) forces an owned buffer.
fn on_text<'t>(stack: &mut [Frame<'_, 't>], t: Cow<'t, str>) -> bool {
    match stack.last_mut() {
        Some(Frame::Simple { text, .. }) => {
            match text {
                None => *text = Some(t),
                Some(prev) => prev.to_mut().push_str(&t),
            }
            true
        }
        Some(Frame::Complex { .. }) | None => all_xml_whitespace(&t),
    }
}

/// Whether `s` is all whitespace, with a byte-wise fast path for the four
/// ASCII whitespace characters (the overwhelmingly common case between
/// element tags). The first clause decides every ASCII string — it fails
/// on any non-whitespace ASCII byte — and only strings containing
/// non-ASCII bytes fall through to the full Unicode check, preserving the
/// `char::is_whitespace` semantics the tree validators use.
#[inline]
fn all_xml_whitespace(s: &str) -> bool {
    s.bytes().all(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        || (!s.is_ascii() && s.chars().all(char::is_whitespace))
}

enum Entered<'a, 't> {
    Frame(Frame<'a, 't>),
    Skip,
    Reject,
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_schema::{SchemaBuilder, SimpleType};
    use schemacast_tree::{Doc, WhitespaceMode};

    fn schemas() -> (
        schemacast_schema::AbstractSchema,
        schemacast_schema::AbstractSchema,
        Alphabet,
    ) {
        let mut ab = Alphabet::new();
        let mk = |ab: &mut Alphabet, optional: bool| {
            let mut b = SchemaBuilder::new(ab);
            let text = b.simple("Text", SimpleType::string()).unwrap();
            let addr = b.declare("Addr").unwrap();
            b.complex(addr, "(name, city)", &[("name", text), ("city", text)])
                .unwrap();
            let items = b.declare("Items").unwrap();
            b.complex(items, "item*", &[("item", text)]).unwrap();
            let po = b.declare("PO").unwrap();
            let model = if optional {
                "(ship, bill?, items)"
            } else {
                "(ship, bill, items)"
            };
            b.complex(
                po,
                model,
                &[("ship", addr), ("bill", addr), ("items", items)],
            )
            .unwrap();
            b.root("po", po);
            b.finish().unwrap()
        };
        let source = mk(&mut ab, true);
        let target = mk(&mut ab, false);
        (source, target, ab)
    }

    const VALID: &str = "<po>\n  <ship><name>A</name><city>C</city></ship>\n  \
                         <bill><name>B</name><city>C</city></bill>\n  \
                         <items><item>x</item><item>y</item></items>\n</po>";
    const NO_BILL: &str =
        "<po><ship><name>A</name><city>C</city></ship><items><item>x</item></items></po>";

    #[test]
    fn streaming_accepts_valid_documents() {
        let (source, target, ab) = schemas();
        let ctx = CastContext::new(&source, &target, &ab);
        let sc = StreamingCast::new(&ctx);
        let (out, stats) = sc.validate_str(VALID, &ab).expect("well-formed");
        assert!(out.is_valid());
        // ship/bill/items pairs are subsumed: their subtrees were skipped.
        assert!(stats.subsumed_skips >= 3);
        assert!(stats.nodes_visited <= 4);
        // And skipped *lexically*: bytes inside them were never tokenized.
        assert!(stats.bytes_skipped > 0);
        assert!(stats.events_avoided > 0);
        // One hop per skipped element that is not self-closing.
        assert!(stats.tape_skip_hops >= 3);
        // The skips scanned exactly the bytes after each skipped start tag
        // up to and including its end tag.
        let content = |open: &str, close: &str| {
            let from = VALID.find(open).expect("start tag") + open.len();
            VALID.find(close).expect("end tag") + close.len() - from
        };
        assert_eq!(
            stats.bytes_skipped,
            content("<ship>", "</ship>")
                + content("<bill>", "</bill>")
                + content("<items>", "</items>")
        );
    }

    #[test]
    fn streaming_rejects_early_without_draining() {
        let (source, target, ab) = schemas();
        let ctx = CastContext::new(&source, &target, &ab);
        let sc = StreamingCast::new(&ctx);
        let (out, stats) = sc.validate_str(NO_BILL, &ab).expect("well-formed");
        assert!(!out.is_valid());
        // Decided within the root content model (ship, then items ⇒ IR).
        assert!(stats.ida_early_rejects >= 1 || stats.disjoint_rejects >= 1);
    }

    #[test]
    fn streaming_agrees_with_tree_validator() {
        let (source, target, mut ab) = schemas();
        let ctx = CastContext::new(&source, &target, &ab);
        let sc = StreamingCast::new(&ctx);
        for text in [
            VALID,
            NO_BILL,
            "<po><ship><name>A</name><city>C</city></ship>\
             <bill><name>B</name><city>C</city></bill><items/></po>",
            "<po><items/></po>",
            "<other/>",
        ] {
            let (stream_out, _) = sc.validate_str(text, &ab).expect("well-formed");
            let xml = schemacast_xml::parse_document(text).expect("dom");
            let doc = Doc::from_xml(&xml.root, &mut ab, WhitespaceMode::Trim);
            let tree_out = ctx.validate(&doc);
            let truth = target.accepts_document(&doc);
            // Cast verdicts are guaranteed only under the precondition;
            // every input here except "<other/>" is source-valid, and
            // "<other/>" has no source root type so both validators fall
            // back to full checking.
            assert_eq!(stream_out.is_valid(), truth, "stream vs truth on {text}");
            assert_eq!(tree_out.is_valid(), truth, "tree vs truth on {text}");
        }
    }

    #[test]
    fn lexical_path_agrees_with_depth_counting_oracle() {
        let (source, target, ab) = schemas();
        let ctx = CastContext::new(&source, &target, &ab);
        let sc = StreamingCast::new(&ctx);
        for text in [
            VALID,
            NO_BILL,
            "<po><items/></po>",
            "<other/>",
            "<po>stray<ship/></po>",
        ] {
            let (fast_out, fast_stats) = sc.validate_str(text, &ab).expect("well-formed");
            let (oracle_out, oracle_stats) = sc
                .validate_events(PullParser::new(text), &ab)
                .expect("well-formed");
            assert_eq!(fast_out, oracle_out, "outcome on {text}");
            // Decision counters are identical; only the lexical counters
            // differ (the oracle tokenizes everything).
            let mut fast_cmp = fast_stats.without_clocks();
            fast_cmp.bytes_skipped = 0;
            fast_cmp.events_avoided = 0;
            fast_cmp.tape_events = 0;
            fast_cmp.tape_skip_hops = 0;
            assert_eq!(fast_cmp, oracle_stats, "stats on {text}");
            assert_eq!(oracle_stats.bytes_skipped, 0);
            assert_eq!(oracle_stats.events_avoided, 0);
            assert_eq!(oracle_stats.tape_events, 0);
            assert_eq!(oracle_stats.tape_skip_hops, 0);
            assert_eq!(
                fast_stats.tape_skip_hops > 0,
                fast_stats.bytes_skipped > 0,
                "a skip of a non-self-closing element is one hop on {text}"
            );
        }
    }

    #[test]
    fn streaming_checks_simple_values() {
        let mut ab = Alphabet::new();
        let mk = |ab: &mut Alphabet, max: i64| {
            let mut b = SchemaBuilder::new(ab);
            let mut qty = SimpleType::of(schemacast_schema::AtomicKind::PositiveInteger);
            qty.facets.max_exclusive = Some(schemacast_schema::BoundValue::Num(
                schemacast_schema::Decimal::from_i64(max),
            ));
            let q = b.simple("Qty", qty).unwrap();
            let root = b.declare("Root").unwrap();
            b.complex(root, "qty+", &[("qty", q)]).unwrap();
            b.root("r", root);
            b.finish().unwrap()
        };
        let source = mk(&mut ab, 200);
        let target = mk(&mut ab, 100);
        let ctx = CastContext::new(&source, &target, &ab);
        let sc = StreamingCast::new(&ctx);
        let (out, stats) = sc
            .validate_str("<r><qty>50</qty><qty>99</qty></r>", &ab)
            .expect("ok");
        assert!(out.is_valid());
        assert_eq!(stats.value_checks, 2);
        let (out, _) = sc
            .validate_str("<r><qty>50</qty><qty>150</qty></r>", &ab)
            .expect("ok");
        assert!(!out.is_valid());
    }

    #[test]
    fn streaming_rejects_malformed_xml_as_error() {
        let (source, target, ab) = schemas();
        let ctx = CastContext::new(&source, &target, &ab);
        let sc = StreamingCast::new(&ctx);
        assert!(sc.validate_str("<po><ship></po>", &ab).is_err());
        assert!(sc
            .validate_events(PullParser::new("<po><ship></po>"), &ab)
            .is_err());
    }

    #[test]
    fn streaming_text_in_element_content_is_invalid() {
        let (source, target, ab) = schemas();
        let ctx = CastContext::new(&source, &target, &ab);
        let sc = StreamingCast::new(&ctx);
        let (out, _) = sc
            .validate_str("<po>stray text<ship/><bill/><items/></po>", &ab)
            .expect("well-formed");
        assert!(!out.is_valid());
    }

    #[test]
    fn scratch_moves_between_contexts_with_equal_type_counts() {
        // Same type ids on both sides, different target content models: a
        // memo slot left over from one context would answer for the other.
        let mut ab = Alphabet::new();
        let mk = |ab: &mut Alphabet, model: &str| {
            let mut b = SchemaBuilder::new(ab);
            let text = b.simple("Text", SimpleType::string()).unwrap();
            let root = b.declare("Root").unwrap();
            b.complex(root, model, &[("a", text), ("b", text)]).unwrap();
            b.root("r", root);
            b.finish().unwrap()
        };
        let source = mk(&mut ab, "(a?, b)");
        let ab_first = mk(&mut ab, "(a, b)");
        let b_first = mk(&mut ab, "(b, a?)");
        assert_eq!(ab_first.type_count(), b_first.type_count());
        let ctx_ab = CastContext::new(&source, &ab_first, &ab);
        let ctx_b = CastContext::new(&source, &b_first, &ab);
        let mut scratch = StreamScratch::default();
        for _ in 0..2 {
            for (text, valid_ab, valid_b) in [
                ("<r><a/><b/></r>", true, false),
                ("<r><b/></r>", false, true),
            ] {
                for (ctx, want) in [(&ctx_ab, valid_ab), (&ctx_b, valid_b)] {
                    let (out, _) = StreamingCast::new(ctx)
                        .validate_str_with(text, &ab, &mut scratch)
                        .expect("well-formed");
                    assert_eq!(out.is_valid(), want, "{text}");
                }
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_documents() {
        let (source, target, ab) = schemas();
        let ctx = CastContext::new(&source, &target, &ab);
        let sc = StreamingCast::new(&ctx);
        let mut scratch = StreamScratch::default();
        for _ in 0..3 {
            let (out, _) = sc
                .validate_str_with(VALID, &ab, &mut scratch)
                .expect("well-formed");
            assert!(out.is_valid());
            let (out, _) = sc
                .validate_str_with("<other/>", &ab, &mut scratch)
                .expect("well-formed");
            assert!(!out.is_valid());
        }
    }
}
