//! The scalar reference lexer: a per-byte pull parser the production
//! [`crate::PullParser`] is held to.
//!
//! Kept as an executable specification. [`ScalarParser`] lexes directly off
//! the byte stream with `starts_with` dispatch and per-byte scans, and the
//! differential property suite (`tests/tape_props.rs`,
//! `tests/fuzz_smoke.rs`) holds the production parser to event-for-event
//! and error-for-error equivalence with it on both well-formed and
//! adversarially malformed input. Its per-byte scans do go through the
//! shared chunked [`crate::scan`] kernels, so the two implementations also
//! share one "find the next interesting byte" implementation.
//!
//! Its open-element stack holds name slices, as the production parser's
//! does, and it shares the production parser's duplicate-attribute check
//! (one sort of a tag's names), so the two report the same first repeat
//! at the same offset. The production parser's two validator steps
//! (`skip_whitespace`, `plain_content`) have no counterpart here: they are
//! held to the production parser's own event stream instead
//! (`tests/zero_copy.rs`).
//!
//! It is *not* used by the validation paths; new consumers want
//! [`crate::PullParser`].

use crate::error::XmlError;
use crate::pull::{err_at, is_name_char, is_name_start, Attrs, PullEvent, SubtreeSkip};
use crate::scan;
use std::borrow::Cow;

/// A streaming parser over an in-memory UTF-8 document, lexing scalar-wise.
/// Same event stream and error behavior as [`crate::PullParser`] —
/// property-enforced.
#[derive(Clone)]
pub struct ScalarParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
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
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Prolog,
    InDocument,
    Done,
    Failed,
}

impl<'a> ScalarParser<'a> {
    /// Creates a parser over `input`.
    pub fn new(input: &'a str) -> ScalarParser<'a> {
        ScalarParser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            event_start: 0,
            stack: Vec::new(),
            state: State::Prolog,
            queued: None,
            seen_root: false,
        }
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

    fn find_from(&self, from: usize, needle: &[u8]) -> Option<usize> {
        scan::find_seq(self.bytes, from, needle)
    }

    /// Position of the next `byte` at or after `from`.
    fn find_byte(&self, from: usize, byte: u8) -> Option<usize> {
        scan::find_byte(self.bytes, from, byte)
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
        crate::pull::expand_entities_span(self.text, start, end)
            .map_err(|(o, m)| self.err_at(o, &m))
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

    /// Lexes the character-data run starting at `pos` (ends at `<` or EOF).
    fn text_run(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let start = self.pos;
        let mut has_entity = false;
        while let Some(b) = self.peek() {
            if b == b'<' {
                break;
            }
            if b == b'&' {
                has_entity = true;
            }
            self.pos += 1;
        }
        let end = self.pos;
        if !has_entity {
            return Ok(Cow::Borrowed(&self.text[start..end]));
        }
        let expanded = self.expand_entities(start, end)?;
        self.pos = end;
        Ok(Cow::Owned(expanded))
    }

    fn prolog_event(&mut self) -> Result<Option<PullEvent<'a>>, XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                let end = self
                    .find_from(self.pos + 2, b"?>")
                    .ok_or_else(|| self.err("unterminated processing instruction"))?;
                self.pos = end + 2;
            } else if self.starts_with("<!--") {
                let end = self
                    .find_from(self.pos + 4, b"-->")
                    .ok_or_else(|| self.err("unterminated comment"))?;
                self.pos = end + 3;
            } else if self.starts_with("<!DOCTYPE") {
                self.event_start = self.pos;
                self.pos += "<!DOCTYPE".len();
                self.skip_ws();
                let name = self.name()?;
                let mut internal = None;
                loop {
                    self.skip_ws();
                    match self.peek() {
                        Some(b'[') => {
                            self.pos += 1;
                            let start = self.pos;
                            let end = self
                                .find_byte(self.pos, b']')
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
                return Ok(Some(PullEvent::Doctype { name, internal }));
            } else {
                self.state = State::InDocument;
                return Ok(None);
            }
        }
    }

    fn document_event(&mut self) -> Result<Option<PullEvent<'a>>, XmlError> {
        // Comments and PIs produce no event: a run of them is passed here,
        // one iteration each.
        loop {
            // Between events inside the document.
            if self.stack.is_empty() {
                // Only misc allowed outside the root; find the root start
                // tag or the end of input.
                self.skip_ws();
                if self.pos == self.bytes.len() {
                    if !self.seen_root {
                        return Err(self.err("expected a document element"));
                    }
                    self.state = State::Done;
                    return Ok(None);
                }
            }
            if self.starts_with("<!--") {
                let end = self
                    .find_from(self.pos + 4, b"-->")
                    .ok_or_else(|| self.err("unterminated comment"))?;
                self.pos = end + 3;
            } else if self.starts_with("<?") {
                let end = self
                    .find_from(self.pos + 2, b"?>")
                    .ok_or_else(|| self.err("unterminated processing instruction"))?;
                self.pos = end + 2;
            } else {
                return self.event();
            }
        }
    }

    /// The event at the cursor, which is not at a comment or PI.
    fn event(&mut self) -> Result<Option<PullEvent<'a>>, XmlError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input inside element")),
            Some(b'<') => {
                if self.starts_with("</") {
                    if self.stack.is_empty() {
                        return Err(self.err("expected an element name, found an end tag"));
                    }
                    self.event_start = self.pos;
                    self.pos += 2;
                    let close_name = self.name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'>') {
                        return Err(self.err("malformed end tag"));
                    }
                    self.pos += 1;
                    match self.stack.pop() {
                        Some(open) if open == close_name => {}
                        Some(open) => {
                            return Err(self.err(&format!(
                                "mismatched end tag: expected </{open}>, found </{close_name}>"
                            )))
                        }
                        None => return Err(self.err("end tag with no open element")),
                    }
                    Ok(Some(PullEvent::End { name: close_name }))
                } else if self.starts_with("<![CDATA[") {
                    if self.stack.is_empty() {
                        return Err(self.err("character data outside the root element"));
                    }
                    self.event_start = self.pos;
                    let start = self.pos + 9;
                    let end = self
                        .find_from(start, b"]]>")
                        .ok_or_else(|| self.err("unterminated CDATA section"))?;
                    let text = &self.text[start..end];
                    self.pos = end + 3;
                    Ok(Some(PullEvent::Text(Cow::Borrowed(text))))
                } else {
                    // Start tag.
                    if self.stack.is_empty() {
                        if self.seen_root {
                            return Err(self.err("content after document element"));
                        }
                        self.seen_root = true;
                    }
                    self.event_start = self.pos;
                    self.pos += 1;
                    let name = self.name()?;
                    // Validate-and-count pass mirroring the production lexer:
                    // attributes are checked in place and handed out as a
                    // lazy `Attrs` view over the validated span, and the
                    // duplicate check runs once all of them are lexed.
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
                    Ok(Some(PullEvent::Start { name, attributes }))
                }
            }
            Some(_) => {
                if self.stack.is_empty() {
                    return Err(
                        self.err("expected markup, found character data outside the root element")
                    );
                }
                self.event_start = self.pos;
                let text = self.text_run()?;
                Ok(Some(PullEvent::Text(text)))
            }
        }
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

    fn advance(&mut self) -> Result<Option<PullEvent<'a>>, XmlError> {
        if let Some(e) = self.queued.take() {
            return Ok(Some(e));
        }
        if self.state == State::Prolog {
            if let Some(e) = self.prolog_event()? {
                self.state = State::InDocument;
                return Ok(Some(e));
            }
        }
        match self.state {
            State::Done | State::Failed => Ok(None),
            _ => {
                let e = self.document_event()?;
                if e.is_none() && self.state == State::Done && !self.stack.is_empty() {
                    return Err(self.err("unclosed elements at end of input"));
                }
                Ok(e)
            }
        }
    }

    /// Skips the content and end tag of the innermost open element by
    /// scanning raw bytes — a quote/comment/CDATA-aware per-byte rescan.
    /// Always reports `hops: 0`.
    ///
    /// # Errors
    /// Returns `Err` if the input ends before the subtree closes, if an
    /// unterminated comment/CDATA/PI is encountered, or if no element is
    /// open.
    pub fn skip_subtree(&mut self) -> Result<SubtreeSkip, XmlError> {
        if let Some(queued) = self.queued.take() {
            // A self-closing element: its End event is already lexed and
            // queued; consuming it is the whole skip.
            debug_assert!(matches!(queued, PullEvent::End { .. }));
            return Ok(SubtreeSkip::default());
        }
        if self.stack.is_empty() || self.state != State::InDocument {
            return Err(self.err("skip_subtree called with no open element"));
        }
        let start = self.pos;
        let mut depth = 1usize;
        let mut events = 0usize;
        while depth > 0 {
            let lt = self.find_byte(self.pos, b'<').ok_or_else(|| {
                self.err_at(self.bytes.len(), "unexpected end of input inside element")
            })?;
            self.pos = lt;
            if self.starts_with("<!--") {
                let end = self
                    .find_from(self.pos + 4, b"-->")
                    .ok_or_else(|| self.err("unterminated comment"))?;
                self.pos = end + 3;
            } else if self.starts_with("<![CDATA[") {
                let end = self
                    .find_from(self.pos + 9, b"]]>")
                    .ok_or_else(|| self.err("unterminated CDATA section"))?;
                self.pos = end + 3;
            } else if self.starts_with("<?") {
                let end = self
                    .find_from(self.pos + 2, b"?>")
                    .ok_or_else(|| self.err("unterminated processing instruction"))?;
                self.pos = end + 2;
            } else if self.starts_with("</") {
                let gt = self
                    .find_byte(self.pos + 2, b'>')
                    .ok_or_else(|| self.err("malformed end tag"))?;
                self.pos = gt + 1;
                depth -= 1;
                events += 1;
            } else {
                // Start tag: scan to the closing '>' outside quotes,
                // detecting self-closing tags.
                self.pos += 1;
                let mut quote: Option<u8> = None;
                loop {
                    let Some(&b) = self.bytes.get(self.pos) else {
                        return Err(self.err("unexpected end of input inside element"));
                    };
                    self.pos += 1;
                    match quote {
                        Some(q) => {
                            if b == q {
                                quote = None;
                            }
                        }
                        None => match b {
                            b'"' | b'\'' => quote = Some(b),
                            b'>' => break,
                            _ => {}
                        },
                    }
                }
                let self_closing = self.pos >= 2 && self.bytes[self.pos - 2] == b'/';
                if self_closing {
                    events += 2;
                } else {
                    depth += 1;
                    events += 1;
                }
            }
        }
        self.stack.pop();
        Ok(SubtreeSkip {
            bytes: self.pos - start,
            events,
            hops: 0,
        })
    }
}

impl<'a> Iterator for ScalarParser<'a> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_reference_still_parses() {
        let ev: Vec<_> = ScalarParser::new("<a x=\"1\"><b/>hi &amp; bye</a>")
            .collect::<Result<Vec<_>, _>>()
            .expect("parses");
        assert_eq!(ev.len(), 5);
        assert!(matches!(&ev[3], PullEvent::Text(t) if t == "hi & bye"));
    }

    #[test]
    fn scalar_skip_reports_zero_hops() {
        let mut p = ScalarParser::new("<r><s><i/></s><t/></r>");
        p.next().unwrap().unwrap(); // <r>
        p.next().unwrap().unwrap(); // <s>
        let skipped = p.skip_subtree().expect("skips");
        assert_eq!(skipped.hops, 0);
        assert_eq!(skipped.events, 3);
    }
}
