//! The benchmark's inputs are a pure function of the seed: the same seed
//! gives a byte-identical corpus and request stream, another seed does not.

use sdfr_perfbench::corpus::{self, Item};

/// Every byte the program receives for one seed: the files of every
/// workload, the request bytes, the first hot-set draws of each client and
/// the churn arrival schedule.
fn inputs(seed: u64) -> Vec<u8> {
    fn files(out: &mut Vec<u8>, items: &[Item]) {
        for item in items {
            out.extend_from_slice(item.name.as_bytes());
            out.push(0);
            out.extend_from_slice(item.content.as_bytes());
            out.push(0);
        }
    }
    let mut out = Vec::new();
    let cold = corpus::analyze_cold(seed).expect("the cold corpus builds");
    files(&mut out, &cold);
    files(&mut out, &corpus::pareto(seed));
    let hot = corpus::hot_set(seed).expect("the hot set builds");
    files(&mut out, &hot);
    for item in &hot {
        out.extend(corpus::request_bytes(item, false));
    }
    for client in 0..2 {
        for rank in corpus::hot_stream(seed, client).take(256) {
            out.extend_from_slice(&rank.to_le_bytes());
        }
    }
    let arrivals = corpus::arrivals(seed, 45.0, 20.0);
    for t in &arrivals {
        out.extend_from_slice(&t.to_le_bytes());
    }
    let churn = corpus::churn(seed, arrivals.len()).expect("the churn stream builds");
    for item in &churn {
        out.extend(corpus::request_bytes(item, true));
    }
    out
}

#[test]
fn the_same_seed_gives_byte_identical_inputs() {
    assert_eq!(inputs(11), inputs(11));
}

#[test]
fn another_seed_gives_other_inputs() {
    assert_ne!(inputs(11), inputs(12));
}

#[test]
fn corpus_composition_does_not_depend_on_the_seed() {
    let slices = |seed| {
        let mut s: Vec<&str> = corpus::analyze_cold(seed)
            .expect("the cold corpus builds")
            .iter()
            .map(|i| i.slice)
            .collect();
        s.sort_unstable();
        s
    };
    assert_eq!(slices(3), slices(4));
    assert_eq!(corpus::arrivals(3, 45.0, 20.0).len(), 900);
}

#[test]
fn churn_graphs_are_pairwise_distinct() {
    let items = corpus::churn(5, 200).expect("the churn stream builds");
    let mut fingerprints: Vec<u64> = items
        .iter()
        .map(|i| corpus::sdf_graph(i).fingerprint())
        .collect();
    fingerprints.sort_unstable();
    fingerprints.dedup();
    assert_eq!(fingerprints.len(), 200);
}
