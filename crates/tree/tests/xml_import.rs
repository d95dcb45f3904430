//! Import from and export to the XML DOM: `Doc::from_xml` numbers nodes in
//! document order in both whitespace modes, and the import, the export and
//! dropping the parsed DOM all answer a document nested 100,000 deep on a
//! default test thread.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use schemacast_regex::Alphabet;
use schemacast_tree::{Doc, NodeId, WhitespaceMode};
use schemacast_xml::{parse_document, XmlElement, XmlNode};

/// A random document of `n` steps: open an element, close one, or write
/// text, either indentation or a value (adjacent runs merge into mixed
/// text).
fn random_dom(seed: u64, n: usize) -> XmlElement {
    let mut rng = SmallRng::seed_from_u64(seed);
    let names = ["a", "b", "c"];
    let mut text = String::from("<r>");
    let mut open = vec!["r"];
    for _ in 0..n {
        match rng.gen_range(0..5) {
            0 => text.push_str("\n  "),
            1 => text.push('v'),
            2 if open.len() > 1 => {
                let name = open.pop().expect("an element is open");
                text.push_str(&format!("</{name}>"));
            }
            _ => {
                let name = names[rng.gen_range(0..names.len())];
                text.push_str(&format!("<{name}>"));
                open.push(name);
            }
        }
    }
    while let Some(name) = open.pop() {
        text.push_str(&format!("</{name}>"));
    }
    parse_document(&text).expect("well-formed").root
}

/// `<a>` nested `depth` deep around one text leaf.
fn deep_dom(depth: usize) -> XmlElement {
    let text = ["<a>".repeat(depth), "x".into(), "</a>".repeat(depth)].concat();
    parse_document(&text).expect("well-formed").root
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn import_numbers_nodes_in_document_order(seed in 0u64..10_000, n in 1usize..60) {
        let dom = random_dom(seed, n);
        for ws in [WhitespaceMode::Trim, WhitespaceMode::Preserve] {
            let doc = Doc::from_xml(&dom, &mut Alphabet::new(), ws);
            let in_order: Vec<NodeId> = (0..doc.node_count() as u32).map(NodeId).collect();
            prop_assert_eq!(doc.preorder(), in_order, "{:?}", ws);
        }
    }
}

#[test]
fn import_export_and_drop_answer_at_depth_100_000() {
    const DEPTH: usize = 100_000;
    let dom = deep_dom(DEPTH);
    let mut ab = Alphabet::new();
    let doc = Doc::from_xml(&dom, &mut ab, WhitespaceMode::Trim);
    drop(dom);
    assert_eq!(doc.node_count(), DEPTH + 1);
    assert_eq!(doc.subtree_size(doc.root()), DEPTH + 1);
    let exported = doc.to_xml(&ab);
    let mut depth = 0;
    let mut at = &exported;
    while let Some(XmlNode::Element(child)) = at.children.first() {
        depth += 1;
        at = child;
    }
    assert_eq!(depth, DEPTH - 1);
    assert_eq!(at.text(), "x");
    drop(exported);
}
