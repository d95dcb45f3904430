//! A zero-copy pull (streaming) XML parser that lexes each event on
//! demand.
//!
//! Yields borrowed [`PullEvent`]s one at a time with O(depth) memory — the
//! substrate for streaming schema-cast validation, which realizes the
//! paper's claim that "the memory requirement of our algorithm does not vary
//! with the size of the document, but depends solely on the sizes of the
//! schemas".
//!
//! Four properties make this the hot-path tokenizer:
//!
//! * **On-demand lexing from one byte cursor.** `next()` lexes the event
//!   at the cursor and nothing beyond it. A text run ends at the next `<`,
//!   found by a SWAR scan ([`crate::scan`]) that notes `&` on the way. At
//!   each `<` the markup is classified by its first bytes under the same
//!   rules the structural index applies ([`crate::index`]); comments and
//!   PIs produce no event and a run of them is passed in a loop. A start
//!   tag is read once, by the loop that validates and counts its
//!   attributes, and an end tag is one slice compare against the open
//!   element's name, which the open-element stack holds as a slice of the
//!   input. No tape or other buffer grows with the document.
//! * **Borrowed events.** Element and attribute names are `&str` slices of
//!   the input; text runs and attribute values are [`Cow`]s that stay
//!   borrowed unless entity resolution forces an owned buffer. On the
//!   no-entity path the parser performs **zero** per-event string
//!   allocations (asserted by `tests/zero_copy.rs`).
//! * **Two steps that produce no event.** A validator that knows what it
//!   expects next drives the cursor past the two most common runs itself:
//!   [`PullParser::skip_whitespace`] passes the ASCII whitespace between
//!   tags, and [`PullParser::plain_content`] takes an element's whole
//!   content when it is one entity-free run followed directly by the
//!   element's own end tag. Anything else is left to `next()`, so both
//!   steps are exactly the event stream with events dropped
//!   (`tests/zero_copy.rs` forks the parser to check it).
//! * **Subtree skipping by one depth-counting scan.**
//!   [`PullParser::skip_subtree`] scans from the cursor to the matching end
//!   tag under the structural index's rules, counting depth; it stores and
//!   tokenizes nothing. This is what makes the paper's `R_sub` skip
//!   *lexical* rather than merely semantic, and it lands exactly where
//!   [`StructuralIndex`] pairs the element.
//!
//! The scalar reference lexer lives on as
//! [`crate::scalar::ScalarParser`]; property suites (`tests/tape_props.rs`,
//! `tests/fuzz_smoke.rs`) hold the two to event-for-event, error-for-error
//! equivalence, and `tests/fuzz_smoke.rs` holds every skip to the index's
//! pairing. The DOM parser in [`crate::parser`] is a thin loop over these
//! events; there is exactly one production tokenizer in the workspace.

use crate::error::XmlError;
use crate::index::{skip_element, Markup, StructuralIndex};
use crate::scan;
use std::borrow::Cow;

/// One parsing event, borrowing from the input document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PullEvent<'a> {
    /// The `<!DOCTYPE name [internal]>` declaration, if present (at most
    /// once, before the root element).
    Doctype {
        /// The document-type name.
        name: &'a str,
        /// The raw internal subset, if any.
        internal: Option<&'a str>,
    },
    /// A start tag (or the opening half of a self-closing tag).
    Start {
        /// Tag name — a slice of the input.
        name: &'a str,
        /// Lazy view of the attributes in document order. The tag was
        /// validated when the event was produced, but nothing is
        /// materialized up front — iterating re-lexes the (already
        /// validated) span, and values stay borrowed unless entity
        /// resolution forces an owned buffer.
        attributes: Attrs<'a>,
    },
    /// An end tag (self-closing tags produce `Start` then `End`).
    End {
        /// Tag name — a slice of the input.
        name: &'a str,
    },
    /// Character data. Borrowed unless entity resolution forced an owned
    /// buffer; adjacent runs may be split at CDATA boundaries.
    Text(Cow<'a, str>),
}

/// A lazy, allocation-free view of a start tag's attributes.
///
/// The producing lexer has already validated the span (syntax, duplicate
/// names, entity references), so iteration cannot fail and nothing is
/// heap-allocated until a value containing an entity reference is actually
/// read. Compares and prints by content, so parity suites that hold two
/// parsers to event-for-event equality keep working unchanged.
#[derive(Clone, Copy)]
pub struct Attrs<'a> {
    text: &'a str,
    /// Byte offset of the attribute region (just after the tag name).
    start: usize,
    /// Attribute count, recorded by the validating lexer.
    count: usize,
}

impl<'a> Attrs<'a> {
    /// A view over a *validated* attribute region starting at `start` and
    /// holding `count` attributes.
    pub(crate) fn from_span(text: &'a str, start: usize, count: usize) -> Attrs<'a> {
        Attrs { text, start, count }
    }

    /// Number of attributes on the tag.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the tag has no attributes.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates `(name, value)` pairs in document order, lexing on demand.
    pub fn iter(&self) -> AttrIter<'a> {
        AttrIter {
            text: self.text,
            pos: self.start,
            remaining: self.count,
        }
    }

    /// The value of the attribute named `name`, if present.
    pub fn get(&self, name: &str) -> Option<Cow<'a, str>> {
        self.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// The lexers' duplicate check, run once the tag's attributes are
    /// lexed: the error names the first attribute, in document order, whose
    /// name an earlier one already has, at the offset just past its value.
    /// Sorting the names keeps a hostile tag with n attributes at
    /// O(n log n); a tag with fewer than two attributes costs nothing.
    /// Scans names only; never expands values.
    pub(crate) fn check_duplicates(&self) -> Result<(), XmlError> {
        if self.count < 2 {
            return Ok(());
        }
        let mut names = Vec::with_capacity(self.count);
        let mut pos = self.start;
        for _ in 0..self.count {
            let raw = scan_attr(self.text, pos);
            names.push((raw.name, raw.next));
            pos = raw.next;
        }
        // Sorted by name, then by offset: within a run of equal names every
        // entry after the first is a repeat.
        names.sort_unstable();
        let first_repeat = names
            .windows(2)
            .filter(|pair| pair[0].0 == pair[1].0)
            .map(|pair| pair[1])
            .min_by_key(|&(_, at)| at);
        match first_repeat {
            Some((name, at)) => Err(err_at(
                self.text.as_bytes(),
                at,
                &format!("duplicate attribute {name:?}"),
            )),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for Attrs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Attrs<'_> {
    fn eq(&self, other: &Attrs<'_>) -> bool {
        self.count == other.count && self.iter().eq(other.iter())
    }
}

impl Eq for Attrs<'_> {}

impl<'a> IntoIterator for Attrs<'a> {
    type Item = (&'a str, Cow<'a, str>);
    type IntoIter = AttrIter<'a>;
    fn into_iter(self) -> AttrIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Attrs<'a> {
    type Item = (&'a str, Cow<'a, str>);
    type IntoIter = AttrIter<'a>;
    fn into_iter(self) -> AttrIter<'a> {
        self.iter()
    }
}

/// Iterator over a validated attribute region (see [`Attrs`]).
#[derive(Clone)]
pub struct AttrIter<'a> {
    text: &'a str,
    pos: usize,
    remaining: usize,
}

impl<'a> Iterator for AttrIter<'a> {
    type Item = (&'a str, Cow<'a, str>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let raw = scan_attr(self.text, self.pos);
        self.pos = raw.next;
        let value = if raw.has_entity {
            match expand_entities_span(self.text, raw.value_start, raw.value_end) {
                Ok(s) => Cow::Owned(s),
                // Unreachable: the producing lexer validated every entity
                // reference in the span. Fall back to the raw slice rather
                // than panic.
                Err(_) => Cow::Borrowed(&self.text[raw.value_start..raw.value_end]),
            }
        } else {
            Cow::Borrowed(&self.text[raw.value_start..raw.value_end])
        };
        Some((raw.name, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for AttrIter<'_> {}

/// One lexed attribute from a validated region.
struct RawAttr<'a> {
    name: &'a str,
    value_start: usize,
    value_end: usize,
    has_entity: bool,
    /// Byte offset just past the closing quote.
    next: usize,
}

/// Lexes the attribute at `pos` in a region the producing parser already
/// validated (so every delimiter it expects is present).
fn scan_attr(text: &str, mut pos: usize) -> RawAttr<'_> {
    let bytes = text.as_bytes();
    let ws = |b: u8| matches!(b, b' ' | b'\t' | b'\r' | b'\n');
    while ws(bytes[pos]) {
        pos += 1;
    }
    let name_start = pos;
    while is_name_char(bytes[pos]) {
        pos += 1;
    }
    let name = &text[name_start..pos];
    while ws(bytes[pos]) {
        pos += 1;
    }
    debug_assert_eq!(bytes[pos], b'=');
    pos += 1;
    while ws(bytes[pos]) {
        pos += 1;
    }
    let quote = bytes[pos];
    debug_assert!(matches!(quote, b'"' | b'\''));
    pos += 1;
    let value_start = pos;
    let mut has_entity = false;
    loop {
        let b = bytes[pos];
        if b == quote {
            break;
        }
        has_entity |= b == b'&';
        pos += 1;
    }
    RawAttr {
        name,
        value_start,
        value_end: pos,
        has_entity,
        next: pos + 1,
    }
}

/// Expands the entity references in `text[start..end]`. Errors carry the
/// byte offset and message the streaming lexers report (both delegate
/// here, which is what keeps their error behavior identical).
pub(crate) fn expand_entities_span(
    text: &str,
    start: usize,
    end: usize,
) -> Result<String, (usize, String)> {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(end - start);
    let mut pos = start;
    while pos < end {
        match scan::find_byte(bytes, pos, b'&') {
            Some(amp) if amp < end => {
                out.push_str(&text[pos..amp]);
                pos = amp + 1;
                let semi = scan::find_byte(bytes, pos, b';')
                    .ok_or_else(|| (pos, "unterminated entity reference".to_owned()))?;
                let name = &text[pos..semi];
                match name {
                    "amp" => out.push('&'),
                    "lt" => out.push('<'),
                    "gt" => out.push('>'),
                    "apos" => out.push('\''),
                    "quot" => out.push('"'),
                    _ if name.starts_with("#x") || name.starts_with("#X") => {
                        let code = u32::from_str_radix(&name[2..], 16)
                            .map_err(|_| (pos, "bad hexadecimal character reference".to_owned()))?;
                        out.push(
                            char::from_u32(code).ok_or_else(|| {
                                (pos, "character reference out of range".to_owned())
                            })?,
                        );
                    }
                    _ if name.starts_with('#') => {
                        let code: u32 = name[1..]
                            .parse()
                            .map_err(|_| (pos, "bad decimal character reference".to_owned()))?;
                        out.push(
                            char::from_u32(code).ok_or_else(|| {
                                (pos, "character reference out of range".to_owned())
                            })?,
                        );
                    }
                    _ => return Err((pos, format!("unknown entity &{name};"))),
                }
                pos = semi + 1;
            }
            _ => {
                out.push_str(&text[pos..end]);
                pos = end;
            }
        }
    }
    Ok(out)
}

/// What [`PullParser::skip_subtree`] skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubtreeSkip {
    /// Raw bytes scanned past without tokenization.
    pub bytes: usize,
    /// Start/end tag events that were never tokenized (self-closing tags
    /// count as two, matching the event stream they replace; the skipped
    /// element's own end tag is included).
    pub events: usize,
    /// One per skipped element that is not self-closing; 0 when the
    /// element was self-closing (its end event was already lexed). The
    /// scalar reference parser always reports 0.
    pub hops: usize,
}

/// A streaming parser over an in-memory UTF-8 document.
///
/// Cloning a parser forks the stream: both copies independently continue
/// from the same position (used by the skip-oracle property tests).
///
/// # Examples
/// ```
/// use schemacast_xml::pull::{PullParser, PullEvent};
/// let mut p = PullParser::new("<a x='1'><b/>hi</a>");
/// let events: Result<Vec<_>, _> = p.collect();
/// let events = events.unwrap();
/// assert_eq!(events.len(), 5); // <a>, <b>, </b>, "hi", </a>
/// assert!(matches!(&events[0], PullEvent::Start { name, .. } if *name == "a"));
/// ```
#[derive(Clone)]
pub struct PullParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    /// The byte cursor every event is lexed from.
    pos: usize,
    /// Byte offset of the markup (or text run) of the last event returned.
    event_start: usize,
    /// The names of the open elements, as slices of the input.
    stack: Vec<&'a str>,
    state: State,
    /// Queued event (self-closing tags emit two events).
    queued: Option<PullEvent<'a>>,
    /// Whether the document element has already been seen.
    seen_root: bool,
    /// Whether only whitespace, comments and PIs have been seen so far:
    /// the only region where `<!DOCTYPE` is recognised.
    in_prolog: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Active,
    Done,
    Failed,
}

impl<'a> PullParser<'a> {
    /// Creates a parser over `input`.
    pub fn new(input: &'a str) -> PullParser<'a> {
        PullParser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            event_start: 0,
            stack: Vec::new(),
            state: State::Active,
            queued: None,
            seen_root: false,
            in_prolog: true,
        }
    }

    /// Identical to [`new`](Self::new): the parser lexes on demand and
    /// never reads `index`. Kept so that callers that build a
    /// [`StructuralIndex`] for the same input, as perfbench's traced pass
    /// does, keep compiling.
    pub fn with_index(input: &'a str, _index: &'a StructuralIndex) -> PullParser<'a> {
        PullParser::new(input)
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Current byte offset into the input.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Byte offset where the most recently returned event's markup (or text
    /// run) began.
    pub fn last_event_offset(&self) -> usize {
        self.event_start
    }

    fn err(&self, message: &str) -> XmlError {
        self.err_at(self.pos, message)
    }

    fn err_at(&self, offset: usize, message: &str) -> XmlError {
        err_at(self.bytes, offset, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    /// Lexes a name as a borrowed slice (boundaries are ASCII delimiters,
    /// so slicing the `str` is always at char boundaries).
    fn name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        if !self.peek().is_some_and(is_name_start) {
            return Err(self.err("expected a name"));
        }
        while self.peek().is_some_and(is_name_char) {
            self.pos += 1;
        }
        Ok(&self.text[start..self.pos])
    }

    /// Builds the owned expansion of `text[start..end]`, which is known to
    /// contain at least one `&` (shared kernel; errors carry the exact
    /// offsets the old inline lexer reported).
    fn expand_entities(&mut self, start: usize, end: usize) -> Result<String, XmlError> {
        expand_entities_span(self.text, start, end).map_err(|(o, m)| self.err_at(o, &m))
    }

    fn attribute_value(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        // First pass: find the closing quote, rejecting '<' and noting '&'.
        let mut has_entity = false;
        loop {
            match self.peek() {
                Some(q) if q == quote => break,
                Some(b'<') => return Err(self.err("'<' in attribute value")),
                Some(b'&') => {
                    has_entity = true;
                    self.pos += 1;
                }
                Some(_) => self.pos += 1,
                None => return Err(self.err("unterminated attribute value")),
            }
        }
        let end = self.pos;
        let value = if has_entity {
            let expanded = self.expand_entities(start, end)?;
            Cow::Owned(expanded)
        } else {
            Cow::Borrowed(&self.text[start..end])
        };
        self.pos = end + 1; // past the closing quote
        Ok(value)
    }

    /// The character-data run at the cursor, up to the next `<` or the end
    /// of input. One forward scan finds its end and notes `&` on the way,
    /// so the entity-free path never rescans the run.
    fn text_event(&mut self) -> Result<PullEvent<'a>, XmlError> {
        let start = self.pos;
        self.event_start = start;
        let (end, has_amp) = match scan::find_byte2(self.bytes, start, b'<', b'&') {
            Some(i) if self.bytes[i] == b'<' => (i, false),
            Some(amp) => (
                scan::find_byte(self.bytes, amp + 1, b'<').unwrap_or(self.bytes.len()),
                true,
            ),
            None => (self.bytes.len(), false),
        };
        let text = if has_amp {
            Cow::Owned(self.expand_entities(start, end)?)
        } else {
            Cow::Borrowed(&self.text[start..end])
        };
        self.pos = end;
        Ok(PullEvent::Text(text))
    }

    /// The CDATA section at `lt`, delivered as a borrowed text run.
    fn cdata_event(&mut self, lt: usize) -> Result<PullEvent<'a>, XmlError> {
        if self.stack.is_empty() {
            return Err(self.err("character data outside the root element"));
        }
        self.event_start = lt;
        self.pos = Markup::Cdata
            .close(self.bytes, lt)
            .map_err(|e| self.err_at(e.offset, e.message))?;
        let content = &self.text[lt + "<![CDATA[".len()..self.pos - "]]>".len()];
        Ok(PullEvent::Text(Cow::Borrowed(content)))
    }

    /// The start tag at `lt`, read once: the loop that validates and counts
    /// its attributes stops at the tag's own `>`.
    fn start_event(&mut self, lt: usize) -> Result<PullEvent<'a>, XmlError> {
        if self.stack.is_empty() {
            if self.seen_root {
                return Err(self.err("content after document element"));
            }
            self.seen_root = true;
            self.in_prolog = false;
        }
        self.event_start = lt;
        self.pos = lt + 1;
        let name = self.name()?;
        // Validate-and-count pass: each attribute is fully checked (syntax,
        // quoting, entities, duplicates) but nothing is materialized — the
        // returned `Attrs` view re-lexes the already-validated span on
        // demand, so documents whose attributes are never read pay nothing.
        let attr_start = self.pos;
        let mut count = 0usize;
        let closed = self.attributes(&mut count);
        let attributes = Attrs::from_span(self.text, attr_start, count);
        attributes.check_duplicates()?;
        if closed? {
            self.queued = Some(PullEvent::End { name });
        } else {
            self.stack.push(name);
        }
        Ok(PullEvent::Start { name, attributes })
    }

    /// Lexes the attributes at the cursor through the tag's `/>` or `>`,
    /// counting each one whose value was read. Returns whether the tag
    /// closed itself.
    fn attributes(&mut self, count: &mut usize) -> Result<bool, XmlError> {
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    if !self.starts_with("/>") {
                        return Err(self.err("malformed empty-element tag"));
                    }
                    self.pos += 2;
                    return Ok(true);
                }
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(false);
                }
                Some(b) if is_name_start(b) => {
                    self.name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' after attribute name"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    self.attribute_value()?;
                    *count += 1;
                }
                _ => return Err(self.err("malformed start tag")),
            }
        }
    }

    /// The end tag at `lt`. The bytes after `</` are compared with the open
    /// element's name, then `>` is expected. Anything else (whitespace
    /// before `>`, another name, a malformed tag) falls through to the
    /// scalar-identical slow path, so errors keep exact parity.
    fn end_event(&mut self, lt: usize) -> Result<PullEvent<'a>, XmlError> {
        let Some(&open) = self.stack.last() else {
            return Err(self.err("expected an element name, found an end tag"));
        };
        self.event_start = lt;
        if let Some(after) = self.own_end_tag(lt, open) {
            self.stack.pop();
            self.pos = after;
            return Ok(PullEvent::End { name: open });
        }
        self.pos = lt + 2;
        let close = self.name()?;
        self.skip_ws();
        if self.peek() != Some(b'>') {
            return Err(self.err("malformed end tag"));
        }
        self.pos += 1;
        self.stack.pop();
        if open != close {
            return Err(self.err(&format!(
                "mismatched end tag: expected </{open}>, found </{close}>"
            )));
        }
        Ok(PullEvent::End { name: close })
    }

    /// The offset just past `</open>` when exactly that end tag starts at
    /// `lt`.
    fn own_end_tag(&self, lt: usize, open: &str) -> Option<usize> {
        let gt = lt + 2 + open.len();
        (self.bytes.get(lt..lt + 2) == Some(b"</")
            && self.bytes.get(lt + 2..gt) == Some(open.as_bytes())
            && self.bytes.get(gt) == Some(&b'>'))
        .then_some(gt + 1)
    }

    /// The `<!DOCTYPE …>` declaration at `lt`.
    fn doctype_event(&mut self, lt: usize) -> Result<PullEvent<'a>, XmlError> {
        self.in_prolog = false;
        self.event_start = lt;
        self.pos = lt + "<!DOCTYPE".len();
        self.skip_ws();
        let name = self.name()?;
        let mut internal = None;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'[') => {
                    self.pos += 1;
                    let start = self.pos;
                    let end = scan::find_byte(self.bytes, self.pos, b']')
                        .ok_or_else(|| self.err("unterminated internal DTD subset"))?;
                    internal = Some(&self.text[start..end]);
                    self.pos = end + 1;
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => self.pos += 1,
                None => return Err(self.err("unterminated DOCTYPE")),
            }
        }
        Ok(PullEvent::Doctype { name, internal })
    }

    /// Lexes the next event at the cursor.
    fn advance(&mut self) -> Result<Option<PullEvent<'a>>, XmlError> {
        if let Some(e) = self.queued.take() {
            return Ok(Some(e));
        }
        if self.state != State::Active {
            return Ok(None);
        }
        // Comments and PIs produce no event; a run of them is passed here,
        // one iteration each.
        loop {
            if self.stack.is_empty() {
                // Outside the root only whitespace and markup may appear.
                self.skip_ws();
                if self.pos == self.bytes.len() {
                    if !self.seen_root {
                        return Err(self.err("expected a document element"));
                    }
                    self.state = State::Done;
                    return Ok(None);
                }
            }
            let lt = self.pos;
            match self.peek() {
                Some(b'<') => {}
                Some(_) if self.stack.is_empty() => {
                    return Err(
                        self.err("expected markup, found character data outside the root element")
                    )
                }
                Some(_) => return self.text_event().map(Some),
                None => return Err(self.err("unexpected end of input inside element")),
            }
            let markup = Markup::at(self.bytes, lt, self.in_prolog);
            match markup {
                Markup::Comment | Markup::Pi => {
                    self.pos = markup
                        .close(self.bytes, lt)
                        .map_err(|e| self.err_at(e.offset, e.message))?;
                }
                Markup::Cdata => return self.cdata_event(lt).map(Some),
                Markup::Doctype => return self.doctype_event(lt).map(Some),
                Markup::EndTag => return self.end_event(lt).map(Some),
                Markup::StartTag => return self.start_event(lt).map(Some),
            }
        }
    }

    /// Passes the run of ASCII whitespace (`#x20 #x9 #xD #xA`) at the
    /// cursor when the run ends at `<` or at the end of input, so the next
    /// event is what follows it; otherwise leaves the parser unchanged.
    ///
    /// This is `next()` with a whitespace-only [`PullEvent::Text`] dropped:
    /// a run that holds anything else, an entity reference or non-ASCII
    /// whitespace such as U+00A0 included, still arrives whole as a `Text`
    /// event. It acts only while an element is open and no event is queued.
    pub fn skip_whitespace(&mut self) {
        if self.queued.is_some() || self.stack.is_empty() || self.state != State::Active {
            return;
        }
        let mut end = self.pos;
        while self
            .bytes
            .get(end)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            end += 1;
        }
        if self.bytes.get(end).is_none_or(|&b| b == b'<') {
            self.pos = end;
        }
    }

    /// The innermost open element's whole content, when it is one run with
    /// no `&` and no `<` followed directly by the element's own end tag
    /// `</name>`: both are consumed, the element is closed, and the run is
    /// returned as a slice of the input (empty for `<a></a>`).
    ///
    /// This is `next()` returning `Text(run)` (no text when the run is
    /// empty) and then the element's [`PullEvent::End`]. Otherwise —
    /// entity references, CDATA, comments, PIs, child elements, a queued
    /// `End` of a self-closing tag, `</name >`, the end of input — it
    /// returns `None` and leaves the parser unchanged.
    pub fn plain_content(&mut self) -> Option<&'a str> {
        if self.queued.is_some() || self.state != State::Active {
            return None;
        }
        let open = *self.stack.last()?;
        let lt = scan::find_byte2(self.bytes, self.pos, b'<', b'&')?;
        let after = self.own_end_tag(lt, open)?;
        let content = &self.text[self.pos..lt];
        self.stack.pop();
        self.event_start = lt;
        self.pos = after;
        Some(content)
    }

    /// Skips the content and end tag of the innermost open element with one
    /// depth-counting scan from the cursor: markup is classified under the
    /// structural index's rules (quote-aware start tags, end tags to their
    /// first `>`, comments, CDATA and PIs jumped over), nothing is stored
    /// and nothing is tokenized.
    ///
    /// Must be called *just after* the element's [`PullEvent::Start`] was
    /// returned. The element's own end tag is consumed; the next event is
    /// whatever follows it. Returns how many bytes and tag events were
    /// skipped without lexing.
    ///
    /// It intentionally does **not** check that end-tag names match
    /// start-tag names inside the skipped region — skipped subtrees trade
    /// well-formedness *checking* for speed, which is exactly the paper's
    /// cost model (work proportional to the decided part of the document).
    /// On well-formed input it lands byte-for-byte where depth-counted
    /// event consumption would, and on any input exactly where
    /// [`StructuralIndex`] pairs the element (both property-tested).
    ///
    /// # Errors
    /// Returns `Err` if no element is open, with the unterminated-construct
    /// error of a comment, CDATA section or PI that opens inside the
    /// element, and otherwise with "unexpected end of input inside element"
    /// at the end of input when the element never closes.
    pub fn skip_subtree(&mut self) -> Result<SubtreeSkip, XmlError> {
        if let Some(queued) = self.queued.take() {
            // A self-closing element: its End event is already lexed and
            // queued; consuming it is the whole skip.
            debug_assert!(matches!(queued, PullEvent::End { .. }));
            return Ok(SubtreeSkip::default());
        }
        if self.stack.is_empty() || self.state != State::Active {
            return Err(self.err("skip_subtree called with no open element"));
        }
        let start = self.pos;
        let (end, events) =
            skip_element(self.bytes, start).map_err(|e| self.err_at(e.offset, e.message))?;
        self.pos = end;
        self.stack.pop();
        Ok(SubtreeSkip {
            bytes: end - start,
            events,
            hops: 1,
        })
    }
}

impl<'a> Iterator for PullParser<'a> {
    type Item = Result<PullEvent<'a>, XmlError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.advance() {
            Ok(Some(e)) => Some(Ok(e)),
            Ok(None) => None,
            Err(e) => {
                self.state = State::Failed;
                Some(Err(e))
            }
        }
    }
}

/// Builds an [`XmlError`] at `offset`, computing line/column on demand.
pub(crate) fn err_at(bytes: &[u8], offset: usize, message: &str) -> XmlError {
    let mut line = 1;
    let mut col = 1;
    for &b in &bytes[..offset.min(bytes.len())] {
        if b == b'\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    XmlError {
        offset,
        line,
        column: col,
        message: message.to_owned(),
    }
}

#[inline]
pub(crate) fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

/// 256-entry classification table for name characters: the name scan runs
/// once per tag, so each byte costs one indexed load instead of a chain of
/// range compares.
static NAME_CHAR: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0usize;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric() || c >= 0x80 || matches!(c, b'_' | b':' | b'.' | b'-');
        b += 1;
    }
    table
};

#[inline]
pub(crate) fn is_name_char(b: u8) -> bool {
    NAME_CHAR[b as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_document, XmlElement, XmlNode};

    fn events(input: &str) -> Vec<PullEvent<'_>> {
        PullParser::new(input)
            .collect::<Result<Vec<_>, _>>()
            .expect("parses")
    }

    #[test]
    fn basic_event_stream() {
        let ev = events("<a x=\"1\"><b/>hi &amp; bye</a>");
        assert_eq!(ev.len(), 5);
        match &ev[0] {
            PullEvent::Start {
                name, attributes, ..
            } => {
                assert_eq!(*name, "a");
                assert_eq!(attributes.len(), 1);
                let pairs: Vec<_> = attributes.iter().collect();
                assert_eq!(pairs[0].0, "x");
                assert_eq!(pairs[0].1, "1");
            }
            other => panic!("expected Start, got {other:?}"),
        }
        assert!(matches!(&ev[1], PullEvent::Start { name, .. } if *name == "b"));
        assert!(matches!(&ev[2], PullEvent::End { name, .. } if *name == "b"));
        assert!(matches!(&ev[3], PullEvent::Text(t) if t == "hi & bye"));
        assert!(matches!(&ev[4], PullEvent::End { name, .. } if *name == "a"));
    }

    #[test]
    fn doctype_event() {
        let ev = events("<!DOCTYPE po [<!ELEMENT po EMPTY>]><po/>");
        assert!(matches!(&ev[0], PullEvent::Doctype { name, internal }
            if *name == "po" && *internal == Some("<!ELEMENT po EMPTY>")));
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["<a>", "<a></b>", "<a/><b/>", "text", "<a>&bogus;</a>"] {
            let r: Result<Vec<_>, _> = PullParser::new(bad).collect();
            assert!(r.is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn borrowed_on_fast_path_owned_only_for_entities() {
        let input = "<a k=\"plain\" e=\"x&amp;y\">text<![CDATA[raw]]>with &lt; entity</a>";
        for ev in events(input) {
            match ev {
                PullEvent::Start { attributes, .. } => {
                    for (n, v) in &attributes {
                        match n {
                            "k" => assert!(matches!(v, Cow::Borrowed(_))),
                            "e" => {
                                assert!(matches!(v, Cow::Owned(_)));
                                assert_eq!(v, "x&y");
                            }
                            _ => unreachable!(),
                        }
                    }
                }
                PullEvent::Text(t) => match &*t {
                    "text" | "raw" => assert!(matches!(t, Cow::Borrowed(_))),
                    "with < entity" => assert!(matches!(t, Cow::Owned(_))),
                    other => panic!("unexpected text {other:?}"),
                },
                _ => {}
            }
        }
    }

    #[test]
    fn offsets_track_event_markup() {
        let input = "<a><b>hi</b></a>";
        let mut p = PullParser::new(input);
        let mut offsets = Vec::new();
        while let Some(ev) = p.next() {
            ev.expect("ok");
            offsets.push(p.last_event_offset());
        }
        // <a> at 0, <b> at 3, "hi" at 6, </b> at 8, </a> at 12.
        assert_eq!(offsets, vec![0, 3, 6, 8, 12]);
        assert_eq!(p.offset(), input.len());
    }

    #[test]
    fn skip_subtree_lands_after_matching_end_tag() {
        let input = "<r><skip a=\">\"><inner>]]&gt;</inner><!-- <fake> --><x/></skip><next/></r>";
        let mut p = PullParser::new(input);
        // <r>
        assert!(matches!(p.next().unwrap().unwrap(), PullEvent::Start { name, .. } if name == "r"));
        // <skip ...>
        assert!(
            matches!(p.next().unwrap().unwrap(), PullEvent::Start { name, .. } if name == "skip")
        );
        let skipped = p.skip_subtree().expect("skips");
        assert!(skipped.bytes > 0);
        assert_eq!(skipped.events, 5); // <inner>, </inner>, <x/> (×2), </skip>
        assert_eq!(skipped.hops, 1); // one hop: the element is not self-closing
        assert!(
            matches!(p.next().unwrap().unwrap(), PullEvent::Start { name, .. } if name == "next")
        );
    }

    #[test]
    fn skip_subtree_on_self_closing_consumes_queued_end() {
        let mut p = PullParser::new("<r><leaf/><next/></r>");
        p.next().unwrap().unwrap(); // <r>
        assert!(
            matches!(p.next().unwrap().unwrap(), PullEvent::Start { name, .. } if name == "leaf")
        );
        let skipped = p.skip_subtree().expect("skips");
        assert_eq!(skipped, SubtreeSkip::default());
        assert!(
            matches!(p.next().unwrap().unwrap(), PullEvent::Start { name, .. } if name == "next")
        );
    }

    #[test]
    fn skip_subtree_handles_tricky_payloads() {
        // ']]>' inside text, '>' inside attribute values, comments and CDATA
        // containing tags.
        let input =
            "<r><s q='a>b'>x ]]> y<![CDATA[</s>]]><!-- </s> --><t u=\"/>\">z</t></s><after/></r>";
        let mut p = PullParser::new(input);
        p.next().unwrap().unwrap(); // <r>
        p.next().unwrap().unwrap(); // <s>
        p.skip_subtree().expect("skips");
        assert!(
            matches!(p.next().unwrap().unwrap(), PullEvent::Start { name, .. } if name == "after")
        );
    }

    #[test]
    fn skip_subtree_err_cases() {
        let mut p = PullParser::new("<a><b>unclosed");
        p.next().unwrap().unwrap(); // <a>
        p.next().unwrap().unwrap(); // <b>
        assert!(p.skip_subtree().is_err());

        let mut p = PullParser::new("<a/>");
        assert!(matches!(
            p.next().unwrap().unwrap(),
            PullEvent::Start { .. }
        ));
        // Queued end: fine.
        assert!(p.skip_subtree().is_ok());
        // Nothing open anymore.
        assert!(p.skip_subtree().is_err());
    }

    /// `with_index` ignores the index: it is `new` under another name.
    #[test]
    fn with_index_runs_off_a_reused_tape() {
        let mut tape = StructuralIndex::new();
        for doc in ["<a><b>hi</b></a>", "<x y='1'/>", "<r>&amp;</r>"] {
            tape.rebuild(doc);
            let borrowed: Vec<_> = PullParser::with_index(doc, &tape)
                .collect::<Result<Vec<_>, _>>()
                .expect("parses");
            let owned: Vec<_> = PullParser::new(doc)
                .collect::<Result<Vec<_>, _>>()
                .expect("parses");
            assert_eq!(borrowed, owned);
        }
    }

    /// Build a DOM from pull events and compare against the DOM parser on a
    /// battery of documents.
    #[test]
    fn agrees_with_dom_parser() {
        fn build(input: &str) -> Result<XmlElement, crate::error::XmlError> {
            let mut stack: Vec<XmlElement> = Vec::new();
            let mut root: Option<XmlElement> = None;
            for ev in PullParser::new(input) {
                match ev? {
                    PullEvent::Doctype { .. } => {}
                    PullEvent::Start {
                        name, attributes, ..
                    } => {
                        let mut e = XmlElement::new(name);
                        e.attributes = attributes
                            .into_iter()
                            .map(|(n, v)| (n.to_owned(), v.into_owned()))
                            .collect();
                        stack.push(e);
                    }
                    PullEvent::End { .. } => {
                        let e = stack.pop().expect("balanced");
                        match stack.last_mut() {
                            Some(parent) => parent.children.push(XmlNode::Element(e)),
                            None => root = Some(e),
                        }
                    }
                    PullEvent::Text(t) => {
                        if let Some(parent) = stack.last_mut() {
                            // Coalesce adjacent text like the DOM parser.
                            if let Some(XmlNode::Text(prev)) = parent.children.last_mut() {
                                prev.push_str(&t);
                            } else if !t.is_empty() {
                                parent.children.push(XmlNode::Text(t.into_owned()));
                            }
                        }
                    }
                }
            }
            Ok(root.expect("root"))
        }

        for doc in [
            "<a><b><c/></b><b/></a>",
            "<t>&lt;x&gt; &#65;</t>",
            "<a>\n  <b>text</b>\n  <c/>\n</a>",
            "<r><![CDATA[<raw>]]>tail</r>",
            r#"<x a="1" b='two'/>"#,
            "<?xml version=\"1.0\"?><!-- c --><r><k>v</k></r>",
        ] {
            let via_pull = build(doc).expect("pull parses");
            let via_dom = parse_document(doc).expect("dom parses").root;
            assert_eq!(via_pull, via_dom, "document {doc:?}");
        }
    }

    #[test]
    fn depth_is_bounded_by_nesting() {
        let mut p = PullParser::new("<a><b><c>x</c></b></a>");
        let mut max_depth = 0;
        while let Some(ev) = p.next() {
            ev.expect("ok");
            max_depth = max_depth.max(p.depth());
        }
        assert_eq!(max_depth, 3);
    }
}
