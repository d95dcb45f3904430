//! Table-driven conformance tests for the XML parser: accepted documents
//! with their expected shapes, and rejected documents with the reason the
//! error message must mention. Both the DOM and the pull parser are run on
//! every case and must agree.

use schemacast_xml::{parse_document, PullEvent, PullParser, ScalarParser};
use std::time::{Duration, Instant};

struct Accept {
    input: &'static str,
    root: &'static str,
    children: usize,
    text: &'static str,
}

const ACCEPTED: &[Accept] = &[
    Accept {
        input: "<a/>",
        root: "a",
        children: 0,
        text: "",
    },
    Accept {
        input: "<a></a>",
        root: "a",
        children: 0,
        text: "",
    },
    Accept {
        input: "<a>x</a>",
        root: "a",
        children: 1,
        text: "x",
    },
    Accept {
        input: "<a><b/><c/></a>",
        root: "a",
        children: 2,
        text: "",
    },
    Accept {
        input: "<a>x<b/>y</a>",
        root: "a",
        children: 3,
        text: "xy",
    },
    Accept {
        input: "<a>&#x41;&#66;</a>",
        root: "a",
        children: 1,
        text: "AB",
    },
    Accept {
        input: "<a>&amp;&lt;&gt;&quot;&apos;</a>",
        root: "a",
        children: 1,
        text: "&<>\"'",
    },
    Accept {
        input: "<a><![CDATA[<not-a-tag/>]]></a>",
        root: "a",
        children: 1,
        text: "<not-a-tag/>",
    },
    Accept {
        input: "<a><!-- <ignored/> --></a>",
        root: "a",
        children: 0,
        text: "",
    },
    Accept {
        input: "<a><?pi with data?></a>",
        root: "a",
        children: 0,
        text: "",
    },
    Accept {
        input: "<?xml version=\"1.0\"?>\n<a/>",
        root: "a",
        children: 0,
        text: "",
    },
    Accept {
        input: "<ns:a xmlns:ns=\"urn:x\"><ns:b/></ns:a>",
        root: "ns:a",
        children: 1,
        text: "",
    },
    Accept {
        input: "<a x=\"1\" y='2'/>",
        root: "a",
        children: 0,
        text: "",
    },
    Accept {
        input: "<a>\u{1F980} crab</a>",
        root: "a",
        children: 1,
        text: "\u{1F980} crab",
    },
    Accept {
        input: "<_under.score-dash/>",
        root: "_under.score-dash",
        children: 0,
        text: "",
    },
    Accept {
        input: "<!DOCTYPE a><a/>",
        root: "a",
        children: 0,
        text: "",
    },
    Accept {
        input: "<!DOCTYPE a SYSTEM \"a.dtd\"><a/>",
        root: "a",
        children: 0,
        text: "",
    },
    Accept {
        input: "<a>one &amp; two<![CDATA[ & three]]></a>",
        root: "a",
        children: 1,
        text: "one & two & three",
    },
];

const REJECTED: &[(&str, &str)] = &[
    ("", "expected"),
    ("<", "name"),
    ("<a", "tag"),
    ("<a>", "end of input"),
    ("</a>", "name"),
    ("<a></b>", "mismatched"),
    ("<a><b></a></b>", "mismatched"),
    ("<a/><b/>", "after document element"),
    ("text", "expected"),
    ("<a>&nosuch;</a>", "entity"),
    ("<a>&#xZZ;</a>", "hexadecimal"),
    ("<a>&#99999999;</a>", "out of range"),
    ("<a x=1/>", "quoted"),
    ("<a x=\"1\" x=\"2\"/>", "duplicate"),
    ("<a x=\"<\"/>", "'<'"),
    ("<a><![CDATA[open</a>", "CDATA"),
    ("<a><!-- open</a>", "comment"),
    ("<a ,bad/>", "tag"),
    ("<a>&unterminated", "entity"),
];

#[test]
fn accepted_documents_parse_with_expected_shape() {
    for case in ACCEPTED {
        let doc = parse_document(case.input)
            .unwrap_or_else(|e| panic!("{:?} should parse: {e}", case.input));
        assert_eq!(doc.root.name, case.root, "root of {:?}", case.input);
        assert_eq!(
            doc.root.children.len(),
            case.children,
            "children of {:?}",
            case.input
        );
        assert_eq!(doc.root.text(), case.text, "text of {:?}", case.input);
    }
}

#[test]
fn rejected_documents_fail_with_informative_errors() {
    for (input, needle) in REJECTED {
        let err = parse_document(input)
            .err()
            .unwrap_or_else(|| panic!("{input:?} should be rejected"));
        assert!(
            err.message.to_lowercase().contains(&needle.to_lowercase()),
            "error for {input:?} should mention {needle:?}, got: {}",
            err.message
        );
    }
}

#[test]
fn pull_parser_agrees_on_every_case() {
    for case in ACCEPTED {
        let events: Result<Vec<_>, _> = PullParser::new(case.input).collect();
        let events = events.unwrap_or_else(|e| panic!("pull rejects {:?}: {e}", case.input));
        let starts = events
            .iter()
            .filter(|e| matches!(e, PullEvent::Start { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e, PullEvent::End { .. }))
            .count();
        assert_eq!(starts, ends, "balanced events for {:?}", case.input);
        assert!(starts >= 1);
    }
    for (input, _) in REJECTED {
        let result: Result<Vec<_>, _> = PullParser::new(input).collect();
        assert!(result.is_err(), "pull should reject {input:?}");
    }
}

#[test]
fn round_trip_is_stable() {
    for case in ACCEPTED {
        let doc = parse_document(case.input).expect("parses");
        let text = schemacast_xml::to_string(&doc.root);
        let doc2 = parse_document(&text).expect("round-trip parses");
        // Serialization may differ (e.g. CDATA becomes escaped text), but
        // a second round trip is a fixed point.
        let text2 = schemacast_xml::to_string(&doc2.root);
        assert_eq!(text, text2, "fixed point for {:?}", case.input);
        // Text content is preserved exactly.
        assert_eq!(doc.root.text(), doc2.root.text());
    }
}

#[test]
fn deeply_nested_documents_parse_iteratively() {
    // 50k nesting: both parsers are iterative.
    let mut input = String::new();
    for _ in 0..50_000 {
        input.push_str("<d>");
    }
    input.push('x');
    for _ in 0..50_000 {
        input.push_str("</d>");
    }
    let events: Result<Vec<_>, _> = PullParser::new(&input).collect();
    assert_eq!(events.expect("parses").len(), 100_001);
}

/// A start tag with 50,000 distinct attributes. The duplicate check sorts
/// the names once per tag instead of rescanning every earlier attribute
/// for each new one, which took seconds at a few thousand attributes and
/// minutes at this count; the bound below is generous for the sort. With
/// one repeat appended, both lexers report the same error.
#[test]
fn a_tag_with_50_000_attributes_lexes_without_quadratic_rescans() {
    const N: usize = 50_000;
    let mut tag = String::from("<a");
    for i in 0..N {
        tag.push_str(&format!(" k{i}=\"v\""));
    }
    let distinct = format!("{tag}/>");
    let started = Instant::now();
    let pull: Vec<_> = PullParser::new(&distinct).collect();
    let scalar: Vec<_> = ScalarParser::new(&distinct).collect();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "lexing {N} distinct attributes twice took {elapsed:?}"
    );
    match &pull[..] {
        [Ok(PullEvent::Start { attributes, .. }), Ok(PullEvent::End { .. })] => {
            assert_eq!(attributes.len(), N);
        }
        other => panic!("expected one self-closing tag, got {} events", other.len()),
    }
    assert_eq!(pull, scalar);

    let repeated = format!("{tag} k{}=\"w\"/>", N / 2);
    let pull: Vec<_> = PullParser::new(&repeated).collect();
    let scalar: Vec<_> = ScalarParser::new(&repeated).collect();
    assert_eq!(pull, scalar);
    let [Err(e)] = &pull[..] else {
        panic!("expected one error, got {} items", pull.len());
    };
    assert_eq!(e.message, format!("duplicate attribute \"k{}\"", N / 2));
    // Reported just past the repeated attribute's closing quote.
    assert_eq!(e.offset, repeated.len() - "/>".len());
}

/// The duplicate check runs once a tag's attributes are lexed, yet reports
/// what a check after every attribute would: the first repeat in document
/// order wins over later repeats and over a syntax error after it.
#[test]
fn the_first_repeated_attribute_is_reported() {
    for (input, offset, message) in [
        (
            "<a x='1' y='2' x='3' y='4'/>",
            20,
            "duplicate attribute \"x\"",
        ),
        (
            "<a y='1' x='2' x='3' y='4'/>",
            20,
            "duplicate attribute \"x\"",
        ),
        ("<a x='1' x='2' y=3/>", 14, "duplicate attribute \"x\""),
        ("<a x='1' y='2' x='3'", 20, "duplicate attribute \"x\""),
        ("<a x='1' x=2/>", 11, "expected quoted attribute value"),
    ] {
        let pull: Vec<_> = PullParser::new(input).collect();
        let scalar: Vec<_> = ScalarParser::new(input).collect();
        assert_eq!(pull, scalar, "{input:?}");
        let Some(Err(e)) = pull.last() else {
            panic!("{input:?} should be rejected");
        };
        assert_eq!(
            (e.offset, e.message.as_str()),
            (offset, message),
            "{input:?}"
        );
    }
}
