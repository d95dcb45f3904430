//! One definition of ignorable whitespace on every validation path.
//!
//! Each row puts one character between element tags and as a simple value.
//! The streaming validator, the tree cast over the imported `Doc` (in both
//! whitespace modes) and `FullValidator` on that `Doc` must all give the
//! row's verdict. XML's `S` production has four characters, which are
//! ignorable. U+000B and U+000C are not: between tags they are character
//! data in element content, and as a value they are one character long.
//! Non-ASCII Unicode whitespace is still ignorable on every path.

use schemacast::core::{CastContext, FullValidator, StreamingCast};
use schemacast::schema::{SchemaBuilder, Session};
use schemacast::tree::{Doc, WhitespaceMode};
use schemacast::xml::parse_document;

/// `a = (b)`, where `b` is a string of length 0: a whitespace-only value
/// is valid exactly when the validator reads it as the empty string.
const TARGET: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a" type="A"/>
  <xs:complexType name="A">
    <xs:sequence>
      <xs:element name="b">
        <xs:simpleType>
          <xs:restriction base="xs:string">
            <xs:maxLength value="0"/>
          </xs:restriction>
        </xs:simpleType>
      </xs:element>
    </xs:sequence>
  </xs:complexType>
</xs:schema>"#;

/// (character, whether validation ignores it).
const ROWS: [(char, bool); 9] = [
    ('\u{09}', true),
    ('\u{0A}', true),
    ('\u{0D}', true),
    ('\u{20}', true),
    ('\u{0B}', false),
    ('\u{0C}', false),
    ('\u{85}', true),
    ('\u{A0}', true),
    ('\u{3000}', true),
];

#[test]
fn every_path_agrees_on_each_whitespace_character() {
    let mut session = Session::new();
    let target = session.parse_xsd(TARGET).expect("target XSD");
    let empty = SchemaBuilder::new(&mut session.alphabet)
        .finish()
        .expect("empty schema");
    let ctx = CastContext::new(&empty, &target, &session.alphabet);
    let full = FullValidator::new(&target);
    for (c, ignorable) in ROWS {
        for xml in [format!("<a>{c}<b/></a>"), format!("<a><b>{c}</b></a>")] {
            let row = format!("U+{:04X} in {xml:?}", u32::from(c));
            let (streamed, _) = StreamingCast::new(&ctx)
                .validate_str(&xml, &session.alphabet)
                .expect("well-formed");
            assert_eq!(streamed.is_valid(), ignorable, "stream, {row}");
            let dom = parse_document(&xml).expect("well-formed");
            for ws in [WhitespaceMode::Trim, WhitespaceMode::Preserve] {
                let doc = Doc::from_xml(&dom.root, &mut session.alphabet, ws);
                assert_eq!(
                    ctx.validate(&doc).is_valid(),
                    ignorable,
                    "tree cast ({ws:?}), {row}"
                );
                assert_eq!(
                    full.validate(&doc).is_valid(),
                    ignorable,
                    "FullValidator ({ws:?}), {row}"
                );
            }
        }
    }
}
