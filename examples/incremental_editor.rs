//! Schema cast *with modifications* (§3.3): an editor applies point edits
//! to a large purchase order and revalidates after each batch — against a
//! *different* schema than the one the document originally conformed to
//! (the XJ / XQuery `validate` scenario from the paper's introduction).
//!
//! Run with: `cargo run --release --example incremental_editor`

use schemacast::core::{CastContext, ModsValidator};
use schemacast::schema::Session;
use schemacast::tree::{DeltaDoc, Edit};
use schemacast::workload::purchase_order as po;

fn main() {
    let mut session = Session::new();
    let source = session.parse_xsd(&po::source_xsd()).expect("source");
    let target = session.parse_xsd(&po::target_xsd()).expect("target");
    let ctx = CastContext::new(&source, &target, &session.alphabet);
    let mods = ModsValidator::new(&ctx);

    // A large document (1000 items), valid for the source schema, with a
    // billTo so it is also target-valid before edits.
    let doc = po::generate_document(&mut session.alphabet, 1000, true);
    let total_nodes = doc.node_count();
    println!("document: {total_nodes} nodes\n");

    let mut dd = DeltaDoc::new(doc);
    let report = |step: &str, dd: &DeltaDoc, mods: &ModsValidator| {
        let (out, stats) = mods.validate_with_stats(dd);
        println!(
            "{step:<44} {:>8} {:>10} visits {:>8} syms",
            if out.is_valid() { "valid" } else { "INVALID" },
            stats.nodes_visited,
            stats.content_symbols_scanned,
        );
    };

    report("no edits (pure cast)", &dd, &mods);

    // Edit 1: bump a quantity value deep inside the document.
    let root = dd.root();
    let items = dd.children(root)[2];
    let item500 = dd.children(items)[500];
    let qty = dd.children(item500)[1];
    let qty_text = dd.children(qty)[0];
    dd.apply(&Edit::SetText {
        node: qty_text,
        text: "42".into(),
    })
    .expect("edit applies");
    report("after editing one quantity value", &dd, &mods);

    // Edit 2: append a fresh item subtree at the end of items.
    let item_l = session.alphabet.lookup("item").unwrap();
    let pn = session.alphabet.lookup("productName").unwrap();
    let q = session.alphabet.lookup("quantity").unwrap();
    let price = session.alphabet.lookup("USPrice").unwrap();
    let pos = dd.children(items).len();
    dd.apply(&Edit::InsertElement {
        parent: items,
        position: pos,
        label: item_l,
    })
    .unwrap();
    let new_item = dd.children(items)[pos];
    for (i, (l, v)) in [(pn, "Trampoline"), (q, "3"), (price, "119.99")]
        .into_iter()
        .enumerate()
    {
        dd.apply(&Edit::InsertElement {
            parent: new_item,
            position: i,
            label: l,
        })
        .unwrap();
        let e = dd.children(new_item)[i];
        dd.apply(&Edit::InsertText {
            parent: e,
            position: 0,
            text: v.into(),
        })
        .unwrap();
    }
    report("after appending a new item subtree", &dd, &mods);

    // Edit 3: break it — delete the billTo address (the target requires it).
    let bill = dd.children(root)[1];
    let bill_children: Vec<_> = dd.children(bill).to_vec();
    for c in bill_children {
        let texts: Vec<_> = dd.children(c).to_vec();
        for t in texts {
            dd.apply(&Edit::DeleteLeaf { node: t }).unwrap();
        }
        dd.apply(&Edit::DeleteLeaf { node: c }).unwrap();
    }
    dd.apply(&Edit::DeleteLeaf { node: bill }).unwrap();
    report("after deleting billTo (target requires it)", &dd, &mods);

    // Cross-check every step against ground truth on the committed tree.
    let committed = dd.committed();
    assert!(!target.accepts_document(&committed));
    println!("\nground truth on the materialized edited tree agrees.");
}
