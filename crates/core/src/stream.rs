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
//!   the production fast path. It drives the zero-copy pull parser's
//!   cursor directly where an event would be waste:
//!   - inside element content it passes the whitespace between tags with
//!     [`PullParser::skip_whitespace`], so that whitespace costs no event;
//!   - on entering a simple-typed element it takes the value and the end
//!     tag in one [`PullParser::plain_content`] step and checks the value
//!     on the borrowed span;
//!   - it resolves each start tag's name through the context's read-only
//!     label table, built once per context, with no per-document interning;
//!   - it skips a subsumed subtree (`(source, target) ∈ R_sub`)
//!     **lexically** with [`PullParser::skip_subtree`] — one depth-counting
//!     byte scan to the matching end tag, no tokenization.
//!
//!   Anything else (entity references, CDATA, comments, mixed runs) arrives
//!   as events and is judged as the generic path judges it. The parser
//!   lexes on demand and builds nothing ahead of its cursor, so this path
//!   holds O(depth) state. The bytes and tag events a skip avoids are
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

use crate::cast::CastContext;
use crate::stats::{CastOutcome, ValidationStats};
use schemacast_automata::hot::state_flags;
use schemacast_automata::{HotDfa, ProductIda, StateId};
use schemacast_regex::{Alphabet, Sym};
use schemacast_schema::{ComplexType, SimpleType, TypeDef, TypeId};
use schemacast_xml::{is_ignorable_whitespace, PullEvent, PullParser, XmlError};
use std::borrow::Cow;

/// A streaming validator over a preprocessed [`CastContext`].
pub struct StreamingCast<'a, 'b> {
    ctx: &'a CastContext<'b>,
}

/// An empty stand-in for per-worker validation state, which the streaming
/// fast path does not need.
///
/// Labels resolve through the context's read-only label table and product
/// IDAs through its pair table, so a validation keeps no state between
/// documents. The type and the scratch parameters of
/// [`StreamingCast::validate_str_with`] and [`StreamingCast::validate_pull`]
/// remain only because the benchmark harness (`perfbench`) calls them;
/// they go with the next change to the benchmark.
#[derive(Debug, Default)]
pub struct StreamScratch;

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
    /// Product IDA over (source, target) content models (§4 integration),
    /// borrowed from the context's pair table.
    Ida {
        ida: &'a ProductIda,
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
        self.validate_pull(&mut PullParser::new(text), alphabet, &mut StreamScratch)
    }

    /// [`validate_str`](StreamingCast::validate_str); the field-less
    /// [`StreamScratch`] is ignored and remains only for the benchmark
    /// harness.
    ///
    /// # Errors
    /// Returns `Err` only for malformed XML.
    pub fn validate_str_with(
        &self,
        text: &str,
        alphabet: &Alphabet,
        _scratch: &mut StreamScratch,
    ) -> Result<(CastOutcome, ValidationStats), XmlError> {
        self.validate_str(text, alphabet)
    }

    /// Validates by driving a pull parser directly — the production fast
    /// path. The field-less [`StreamScratch`] is ignored and remains only
    /// for the benchmark harness.
    ///
    /// Compared to [`validate_events`](StreamingCast::validate_events),
    /// this path (a) passes whitespace between tags and takes a plain
    /// simple value with its end tag without producing events, (b)
    /// resolves labels through the context's label table (falling back to
    /// `alphabet` for labels interned after the context was built), and (c)
    /// skips subsumed subtrees *lexically* via
    /// [`PullParser::skip_subtree`], so the skipped bytes are never
    /// tokenized at all. Outcomes and decision counters are identical to
    /// the generic path (property-tested); only
    /// [`ValidationStats::bytes_skipped`],
    /// [`ValidationStats::events_avoided`] and
    /// [`ValidationStats::tape_skip_hops`] differ (the generic path leaves
    /// them 0).
    ///
    /// # Errors
    /// Returns `Err` only for malformed XML.
    pub fn validate_pull<'t>(
        &self,
        parser: &mut PullParser<'t>,
        alphabet: &Alphabet,
        _scratch: &mut StreamScratch,
    ) -> Result<(CastOutcome, ValidationStats), XmlError> {
        let labels = &self.ctx.labels;
        let mut stats = ValidationStats::default();
        let mut stack: Vec<Frame<'a, 't>> = Vec::new();
        let mut seen_root = false;

        loop {
            if let Some(Frame::Complex { .. }) = stack.last() {
                parser.skip_whitespace();
            }
            let Some(event) = parser.next() else { break };
            match event? {
                PullEvent::Doctype { .. } => {}
                PullEvent::Start { name, .. } => {
                    let sym = labels.get(name).or_else(|| alphabet.lookup(name));
                    match self.on_start(sym, &mut stack, &mut seen_root, &mut stats) {
                        StartAction::Entered => {
                            if let Some(&Frame::Simple { simple, .. }) = stack.last() {
                                if let Some(value) = parser.plain_content() {
                                    stack.pop();
                                    if !check_value(simple, value, &mut stats) {
                                        return Ok((CastOutcome::Invalid, stats));
                                    }
                                }
                            }
                        }
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

        for event in events {
            match event? {
                PullEvent::Doctype { .. } => {}
                PullEvent::Start { name, .. } => {
                    if skip_depth > 0 {
                        skip_depth += 1;
                        continue;
                    }
                    let sym = alphabet.lookup(name);
                    match self.on_start(sym, &mut stack, &mut seen_root, &mut stats) {
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
            match self.enter(src, tgt, stats) {
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
                    match self.enter(child_src, child_tgt, stats) {
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
                check_value(simple, text.as_deref().unwrap_or(""), stats)
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
                        let ida = self.ctx.product_ida(s, tgt);
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

/// Checks a simple-typed element's whole character data. Whitespace-only
/// content is treated as the empty value, matching the tree validators
/// (`Doc::validation_children` drops ignorable whitespace before
/// simple-value checks).
fn check_value(simple: &SimpleType, text: &str, stats: &mut ValidationStats) -> bool {
    stats.value_checks += 1;
    if is_ignorable_whitespace(text) {
        simple.validate("")
    } else {
        simple.validate(text)
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
        Some(Frame::Complex { .. }) | None => is_ignorable_whitespace(&t),
    }
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
        // product IDA or label resolution kept anywhere but in the context
        // would answer for the other.
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
        let mut scratch = StreamScratch;
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
        let mut scratch = StreamScratch;
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
