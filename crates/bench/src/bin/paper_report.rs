//! Regenerates every table and figure of the paper's evaluation (§6) as
//! text, with the paper's reported numbers alongside for shape comparison.
//!
//! Run with: `cargo run --release -p schemacast-bench --bin paper_report`

use schemacast_bench::{Experiment1, Experiment2, Fixture, ITEM_COUNTS};
use schemacast_core::CastOptions;
use schemacast_regex::Alphabet;
use schemacast_workload::purchase_order as po;
use std::time::Instant;

/// Paper Table 2: input file sizes in bytes.
const PAPER_TABLE2: [usize; 6] = [990, 11_358, 22_158, 43_758, 108_558, 216_558];
/// Paper Table 3: nodes traversed (schema cast, Xerces 2.4).
const PAPER_TABLE3_CAST: [usize; 6] = [35, 611, 1_211, 2_411, 6_011, 12_011];
const PAPER_TABLE3_FULL: [usize; 6] = [74, 794, 1_544, 3_044, 7_544, 15_044];

fn median_time_us(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[runs / 2]
}

fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    (slope, intercept)
}

fn table2() {
    println!("== Table 2: input document file sizes ==");
    println!(
        "{:>8} {:>16} {:>16} {:>8}",
        "# items", "ours (bytes)", "paper (bytes)", "ratio"
    );
    let mut ab = Alphabet::new();
    for (i, &n) in ITEM_COUNTS.iter().enumerate() {
        let size = po::document_xml(&mut ab, n).len();
        println!(
            "{:>8} {:>16} {:>16} {:>8.2}",
            n,
            size,
            PAPER_TABLE2[i],
            size as f64 / PAPER_TABLE2[i] as f64
        );
    }
    println!();
}

fn figure3a(fixture: &Fixture) {
    println!("== Figure 3a: Experiment 1 validation times (µs, median of 15) ==");
    println!(
        "{:>8} {:>12} {:>14} {:>12}",
        "# items", "cast µs", "paper-cfg µs", "full µs"
    );
    let cast = fixture.context(CastOptions::default());
    let paper = fixture.context(CastOptions::paper_prototype());
    let full = fixture.full();
    let mut xs = Vec::new();
    let mut cast_ys = Vec::new();
    let mut full_ys = Vec::new();
    for (n, doc) in &fixture.docs {
        let c = median_time_us(15, || {
            assert!(cast.validate(doc).is_valid());
        });
        let p = median_time_us(15, || {
            assert!(paper.validate(doc).is_valid());
        });
        let f = median_time_us(15, || {
            assert!(full.validate(doc).is_valid());
        });
        println!("{n:>8} {c:>12.2} {p:>14.2} {f:>12.2}");
        xs.push(*n as f64);
        cast_ys.push(c);
        full_ys.push(f);
    }
    let (cast_slope, _) = linear_fit(&xs, &cast_ys);
    let (full_slope, _) = linear_fit(&xs, &full_ys);
    println!(
        "shape check: cast slope {cast_slope:.4} µs/item (≈0 expected), full slope {full_slope:.4} µs/item (>0 expected)"
    );
    println!("paper claim: cast constant in document size, Xerces linear.\n");
}

fn figure3b_and_table3(fixture: &Fixture) {
    println!("== Figure 3b: Experiment 2 validation times (µs, median of 15) ==");
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "# items", "cast µs", "full µs", "speedup"
    );
    let cast = fixture.context(CastOptions::default());
    let full = fixture.full();
    let mut speedups = Vec::new();
    for (n, doc) in &fixture.docs {
        let c = median_time_us(15, || {
            assert!(cast.validate(doc).is_valid());
        });
        let f = median_time_us(15, || {
            assert!(full.validate(doc).is_valid());
        });
        println!(
            "{:>8} {:>12.2} {:>12.2} {:>9.1}%",
            n,
            c,
            f,
            (1.0 - c / f) * 100.0
        );
        if *n >= 100 {
            speedups.push(1.0 - c / f);
        }
    }
    let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!(
        "shape check: mean improvement on large documents {:.0}% (paper: ≈30%)\n",
        mean * 100.0
    );

    println!("== Table 3: nodes traversed in Experiment 2 ==");
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>14} {:>12} {:>12}",
        "# items", "cast", "full", "paper cast", "paper full", "ratio ours", "ratio paper"
    );
    for (i, (n, doc)) in fixture.docs.iter().enumerate() {
        let (out, stats) = cast.validate_with_stats(doc);
        assert!(out.is_valid());
        let (_, full_stats) = full.validate_with_stats(doc);
        println!(
            "{:>8} {:>12} {:>12} {:>14} {:>14} {:>12.2} {:>12.2}",
            n,
            stats.nodes_visited,
            full_stats.nodes_visited,
            PAPER_TABLE3_CAST[i],
            PAPER_TABLE3_FULL[i],
            stats.nodes_visited as f64 / full_stats.nodes_visited as f64,
            PAPER_TABLE3_CAST[i] as f64 / PAPER_TABLE3_FULL[i] as f64
        );
    }
    println!(
        "note: absolute counts differ (Xerces counted DOM nodes incl. whitespace text); the\n\
         claim is the shape — cast visits a constant fraction, savings grow linearly.\n"
    );
}

fn experiment1_rejection(fixture: &Fixture) {
    println!("== Experiment 1, rejection path (no billTo) ==");
    let cast = fixture.context(CastOptions::default());
    let mut ab = fixture.alphabet.clone();
    println!("{:>8} {:>14} {:>12}", "# items", "doc nodes", "visits");
    for &n in &ITEM_COUNTS {
        let doc = po::generate_document(&mut ab, n, false);
        let (out, stats) = cast.validate_with_stats(&doc);
        assert!(!out.is_valid());
        println!(
            "{:>8} {:>14} {:>12}",
            n,
            doc.node_count(),
            stats.nodes_visited
        );
    }
    println!("shape check: constant visits — the IDA rejects inside the root content model.\n");
}

fn main() {
    println!("schemacast — paper evaluation report (EDBT 2004, §6)\n");
    table2();
    let f1 = Experiment1::fixture();
    f1.assert_precondition();
    figure3a(&f1);
    experiment1_rejection(&f1);
    let f2 = Experiment2::fixture();
    f2.assert_precondition();
    figure3b_and_table3(&f2);
}
