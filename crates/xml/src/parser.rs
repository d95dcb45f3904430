//! The DOM front-end of the from-scratch, dependency-free XML 1.0 parser.
//!
//! Covers the subset needed by the revalidation system and its experiments:
//! elements, attributes, character data, CDATA sections, comments,
//! processing instructions, the XML declaration, `DOCTYPE` with internal
//! subset capture (handed to the DTD front-end in `schemacast-schema`), the
//! five predefined entities and numeric character references. Namespaces are
//! carried through as prefixed names (the paper's model is structural and
//! prefix-agnostic).
//!
//! There is exactly one tokenizer in the workspace: [`parse_document`] is a
//! thin tree-building loop over the zero-copy [`PullParser`]
//! events, so the streaming validator and the DOM builder share one set of
//! conformance behaviors.

use crate::error::XmlError;
use crate::pull::{PullEvent, PullParser};

/// A parsed XML node: an element or a run of character data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// An element with attributes and ordered children.
    Element(XmlElement),
    /// Character data (entity references already resolved; CDATA merged).
    Text(String),
}

/// An element: tag name, attributes in document order, ordered children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlElement {
    /// Tag name, possibly prefixed (`xsd:element`).
    pub name: String,
    /// `(name, value)` attribute pairs in document order.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<XmlNode>,
}

impl XmlElement {
    /// Creates an element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        XmlElement {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// The value of the first attribute called `name`, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Child elements (skipping text nodes).
    pub fn child_elements(&self) -> impl Iterator<Item = &XmlElement> {
        self.children.iter().filter_map(|c| match c {
            XmlNode::Element(e) => Some(e),
            XmlNode::Text(_) => None,
        })
    }

    /// Concatenated text content of direct text children.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for c in &self.children {
            if let XmlNode::Text(t) = c {
                out.push_str(t);
            }
        }
        out
    }
}

impl Drop for XmlElement {
    /// Drops the descendants through an explicit stack: the derived drop
    /// would use one call-stack frame per nesting level, and a parsed
    /// document is as deep as its input.
    fn drop(&mut self) {
        let mut stack = Vec::new();
        let mut children = std::mem::take(&mut self.children);
        loop {
            stack.extend(children.into_iter().filter_map(|c| match c {
                XmlNode::Element(e) => Some(e),
                XmlNode::Text(_) => None,
            }));
            let Some(mut next) = stack.pop() else {
                return;
            };
            children = std::mem::take(&mut next.children);
        }
    }
}

/// A parsed document: the root element plus any captured internal DTD
/// subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlDocument {
    /// The document element.
    pub root: XmlElement,
    /// The raw internal subset of a `<!DOCTYPE … [ … ]>` declaration, if
    /// present — the DTD front-end parses it further.
    pub internal_dtd: Option<String>,
    /// Name declared in `<!DOCTYPE name …>`, if present.
    pub doctype_name: Option<String>,
}

/// Parses a complete XML document.
///
/// # Errors
/// Returns a positioned [`XmlError`] on malformed input (unbalanced tags,
/// bad entity references, attribute syntax errors, trailing content, …).
///
/// # Examples
/// ```
/// use schemacast_xml::parse_document;
/// let doc = parse_document("<po><item qty='3'>widget</item></po>").unwrap();
/// assert_eq!(doc.root.name, "po");
/// let item = doc.root.child_elements().next().unwrap();
/// assert_eq!(item.attr("qty"), Some("3"));
/// assert_eq!(item.text(), "widget");
/// ```
pub fn parse_document(input: &str) -> Result<XmlDocument, XmlError> {
    let parser = PullParser::new(input);
    let mut doctype_name: Option<String> = None;
    let mut internal_dtd: Option<String> = None;
    let mut stack: Vec<XmlElement> = Vec::new();
    let mut root: Option<XmlElement> = None;
    for event in parser {
        match event? {
            PullEvent::Doctype { name, internal } => {
                doctype_name = Some(name.to_owned());
                internal_dtd = internal.map(str::to_owned);
            }
            PullEvent::Start {
                name, attributes, ..
            } => {
                let mut element = XmlElement::new(name);
                element.attributes = attributes
                    .into_iter()
                    .map(|(n, v)| (n.to_owned(), v.into_owned()))
                    .collect();
                stack.push(element);
            }
            PullEvent::End { .. } => {
                let element = stack.pop().expect("pull parser balances tags");
                match stack.last_mut() {
                    Some(parent) => parent.children.push(XmlNode::Element(element)),
                    None => root = Some(element),
                }
            }
            PullEvent::Text(text) => {
                // The pull parser only emits text inside an element.
                let parent = stack.last_mut().expect("text is inside an element");
                // Coalesce adjacent runs (CDATA boundaries split events).
                if let Some(XmlNode::Text(prev)) = parent.children.last_mut() {
                    prev.push_str(&text);
                } else if !text.is_empty() {
                    parent.children.push(XmlNode::Text(text.into_owned()));
                }
            }
        }
    }
    // The pull parser errors on missing/duplicate roots before returning
    // `None`, so `root` is always set on the success path.
    let root = root.ok_or_else(|| XmlError {
        offset: 0,
        line: 1,
        column: 1,
        message: "expected a document element".to_owned(),
    })?;
    Ok(XmlDocument {
        root,
        internal_dtd,
        doctype_name,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_elements() {
        let doc = parse_document("<a><b><c/></b><b/></a>").expect("parse");
        assert_eq!(doc.root.name, "a");
        assert_eq!(doc.root.children.len(), 2);
        let b0 = doc.root.child_elements().next().unwrap();
        assert_eq!(b0.child_elements().next().unwrap().name, "c");
    }

    #[test]
    fn parses_attributes_both_quotes() {
        let doc = parse_document(r#"<x a="1" b='two' c="a&amp;b"/>"#).expect("parse");
        assert_eq!(doc.root.attr("a"), Some("1"));
        assert_eq!(doc.root.attr("b"), Some("two"));
        assert_eq!(doc.root.attr("c"), Some("a&b"));
        assert_eq!(doc.root.attr("missing"), None);
    }

    #[test]
    fn resolves_entities_and_char_refs() {
        let doc =
            parse_document("<t>&lt;tag&gt; &amp; &quot;q&quot; &#65;&#x42; &apos;</t>").unwrap();
        assert_eq!(doc.root.text(), "<tag> & \"q\" AB '");
    }

    #[test]
    fn cdata_and_comments_and_pis() {
        let doc =
            parse_document("<t><!-- note --><![CDATA[<raw> & stuff]]><?pi data?>tail</t>").unwrap();
        assert_eq!(doc.root.text(), "<raw> & stufftail");
        // Adjacent character data (CDATA + "tail") coalesces into one node.
        assert_eq!(doc.root.children.len(), 1);
    }

    #[test]
    fn doctype_with_internal_subset() {
        let input = r#"<?xml version="1.0"?>
<!DOCTYPE po [
  <!ELEMENT po (item*)>
  <!ELEMENT item (#PCDATA)>
]>
<po><item>x</item></po>"#;
        let doc = parse_document(input).expect("parse");
        assert_eq!(doc.doctype_name.as_deref(), Some("po"));
        let dtd = doc.internal_dtd.expect("internal subset");
        assert!(dtd.contains("<!ELEMENT po (item*)>"));
        assert_eq!(doc.root.name, "po");
    }

    #[test]
    fn whitespace_text_nodes_are_preserved() {
        let doc = parse_document("<a>\n  <b/>\n</a>").expect("parse");
        assert_eq!(doc.root.children.len(), 3);
        assert!(matches!(&doc.root.children[0], XmlNode::Text(t) if t == "\n  "));
    }

    #[test]
    fn empty_cdata_produces_no_text_node() {
        let doc = parse_document("<a><![CDATA[]]></a>").expect("parse");
        assert!(doc.root.children.is_empty());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "<a>",
            "<a></b>",
            "<a attr></a>",
            "<a 'v'/>",
            "<a/><b/>",
            "text only",
            "<a>&unknown;</a>",
            "<a b='1' b='2'/>",
            "<a><![CDATA[x</a>",
            "",
        ] {
            assert!(parse_document(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn error_positions_are_sensible() {
        let err = parse_document("<a>\n<b></c>\n</a>").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("mismatched end tag"));
    }

    #[test]
    fn unicode_content() {
        let doc = parse_document("<t>héllo — 世界</t>").expect("parse");
        assert_eq!(doc.root.text(), "héllo — 世界");
    }

    #[test]
    fn xml_decl_and_leading_misc() {
        let doc =
            parse_document("<?xml version=\"1.0\" encoding=\"UTF-8\"?><!-- c --><r/>").unwrap();
        assert_eq!(doc.root.name, "r");
    }
}
