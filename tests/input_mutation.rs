//! Seeded mutation harness for the graph readers: ChaCha8-driven byte
//! mutations (flip, insert, delete, truncate) of valid
//! `fsim_graph::io::from_text` and `from_json` inputs. The contract under
//! test: every mutated input returns an error or a graph — never a
//! panic — and an accepted graph is no larger than its input can
//! describe (each node or edge needs at least one input byte). Reading
//! also stays linear in the input: one long JSON string must not cost
//! time quadratic in its length.

use fsim_graph::generate::{gnm, GeneratorConfig};
use fsim_graph::io::{from_json, from_text, to_json, to_text};
use fsim_graph::{graph_from_parts, Graph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Mutated cases per seed input and format.
const CASES: usize = 2000;

/// Bytes the inserts draw from half of the time: the formats' own
/// structure, so mutations reach past the first syntax check.
const STRUCTURAL: &[u8] = b"{}[],:\"\\/ne# \n\t0123456789-+.u";

/// The valid graphs whose serializations get mutated.
fn seed_graphs() -> Vec<Graph> {
    let mut rng = ChaCha8Rng::seed_from_u64(2021);
    let mut graphs = vec![
        graph_from_parts(
            &["a\"b", "x\\y", "tab\there", "uni→", "a b"],
            &[(0, 1), (3, 4)],
        ),
        graph_from_parts(&["solo"], &[]),
    ];
    for (nodes, edges) in [(6, 9), (12, 30)] {
        graphs.push(gnm(&GeneratorConfig::new(nodes, edges, 3), &mut rng));
    }
    graphs
}

/// Applies one to four random flip / insert / delete / truncate
/// mutations to `bytes`.
fn mutate(rng: &mut ChaCha8Rng, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..rng.gen_range(1..=4usize) {
        let len = bytes.len();
        match rng.gen_range(0..4u32) {
            0 if len > 0 => {
                let at = rng.gen_range(0..len);
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
            }
            1 => {
                let byte = if rng.gen_range(0..2u32) == 0 {
                    STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())]
                } else {
                    rng.gen_range(0..=255u32) as u8
                };
                bytes.insert(rng.gen_range(0..=len), byte);
            }
            2 if len > 0 => {
                let at = rng.gen_range(0..len);
                let end = (at + rng.gen_range(1..=8usize)).min(len);
                bytes.drain(at..end);
            }
            _ => bytes.truncate(rng.gen_range(0..=len)),
        }
    }
    bytes
}

/// Runs `parse` on every mutation of every seed serialization and checks
/// the contract; returns how many mutated inputs parsed.
fn fuzz<E: std::fmt::Debug>(
    seed: u64,
    serialize: fn(&Graph) -> String,
    parse: fn(&str) -> Result<Graph, E>,
) -> usize {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut accepted = 0;
    for g in seed_graphs() {
        let valid = serialize(&g);
        assert!(parse(&valid).is_ok(), "seed input must parse: {valid:?}");
        for case in 0..CASES {
            let bytes = mutate(&mut rng, valid.clone().into_bytes());
            let input = String::from_utf8_lossy(&bytes);
            let outcome = std::panic::catch_unwind(|| parse(&input));
            let Ok(result) = outcome else {
                panic!("case {case} panicked on input {input:?}");
            };
            if let Ok(parsed) = result {
                accepted += 1;
                assert!(
                    parsed.node_count() <= input.len() && parsed.edge_count() <= input.len(),
                    "case {case}: {} nodes / {} edges from {} bytes",
                    parsed.node_count(),
                    parsed.edge_count(),
                    input.len()
                );
            }
        }
    }
    accepted
}

#[test]
fn mutated_text_graphs_never_panic() {
    let accepted = fuzz(1, to_text, from_text);
    // Truncations at line ends and comment edits keep some inputs valid:
    // the harness must exercise the accepting path too.
    assert!(accepted > 0);
}

#[test]
fn mutated_json_graphs_never_panic() {
    let accepted = fuzz(2, to_json, from_json);
    assert!(accepted > 0);
}

#[test]
fn long_json_strings_parse_in_linear_time() {
    // 256 KiB of two-byte characters: linear decoding takes milliseconds
    // even unoptimized, while re-validating the rest of the input per
    // character (the quadratic reader this pins out) takes seconds.
    let label = "é".repeat(1 << 17);
    let json = format!("{{\"labels\":[\"{label}\"],\"edges\":[]}}");
    let start = std::time::Instant::now();
    let g = from_json(&json).expect("a long label is valid JSON");
    assert!(*g.label_str(0) == *label);
    let secs = start.elapsed().as_secs_f64();
    assert!(secs < 2.0, "256 KiB label took {secs:.1} s");
}
