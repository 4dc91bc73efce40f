//! Never-panic fuzzing of every decoder of external bytes: the network
//! text format, the two-class and k-class weights text formats, and the
//! Phase-2 snapshot container.
//!
//! Each case takes a valid encoding, applies one to four random
//! mutations — byte replacements, span deletions, insertions,
//! truncations and duplicated spans — and feeds the result to the
//! decoder under `catch_unwind`. The decoder may answer `Ok` or a typed
//! `Err`; it must return. A panic found here is fixed in the decoder
//! with a typed error, never by filtering the input.
//!
//! Mutated snapshots get their payload-length field and FNV-1a trailer
//! recomputed, so they pass the container checks and reach the payload
//! decoder; the ones that still decode resume the search to its end.
//!
//! Deeper pass: `PROPTEST_SEED=0 PROPTEST_CASES=256 cargo test --release
//! --test decoder_fuzz`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use dtr::core::{phase1, phase2};
use dtr::prelude::*;
use dtr::routing::WeightSetting;
use dtr::traffic::gravity;
use proptest::prelude::*;
use rand::rngs::StdRng;

/// Replacement bytes for the text formats: their own structure (digits,
/// signs, separators, directive letters) plus arbitrary bytes.
const TEXT_BYTES: &[u8] = b"0123456789-+.eE \n\t#nodeliwkmaxcs";

/// Replacement bytes for the binary container: boundary values of the
/// little-endian length, tag and enum fields plus arbitrary bytes.
const BINARY_BYTES: &[u8] = &[0x00, 0x01, 0x02, 0x03, 0x7f, 0x80, 0xfe, 0xff];

fn random_byte(rng: &mut StdRng, alphabet: &[u8]) -> u8 {
    if rng.gen_bool(0.75) {
        alphabet[rng.gen_range(0..alphabet.len())]
    } else {
        rng.next_u32() as u8
    }
}

/// One to four random mutations of `bytes`.
fn mutate(mut bytes: Vec<u8>, rng: &mut StdRng, alphabet: &[u8]) -> Vec<u8> {
    for _ in 0..rng.gen_range(1..=4) {
        let len = bytes.len();
        match rng.gen_range(0..5) {
            // Replace one byte.
            0 if len > 0 => {
                let i = rng.gen_range(0..len);
                bytes[i] = random_byte(rng, alphabet);
            }
            // Delete a span.
            1 if len > 0 => {
                let i = rng.gen_range(0..len);
                let n = rng.gen_range(1..=(len - i).min(16));
                bytes.drain(i..i + n);
            }
            // Insert a few bytes.
            2 => {
                let i = rng.gen_range(0..=len);
                for _ in 0..rng.gen_range(1..=8) {
                    bytes.insert(i, random_byte(rng, alphabet));
                }
            }
            // Truncate.
            3 => bytes.truncate(rng.gen_range(0..=len)),
            // Duplicate a span somewhere else.
            4 if len > 0 => {
                let i = rng.gen_range(0..len);
                let n = rng.gen_range(1..=(len - i).min(64));
                let span = bytes[i..i + n].to_vec();
                let at = rng.gen_range(0..=len);
                bytes.splice(at..at, span);
            }
            _ => {}
        }
    }
    bytes
}

/// A mutated text encoding; invalid UTF-8 becomes U+FFFD, so every
/// mutation reaches the decoder as a string.
fn mutate_text(text: &str, rng: &mut StdRng) -> String {
    String::from_utf8_lossy(&mutate(text.as_bytes().to_vec(), rng, TEXT_BYTES)).into_owned()
}

/// A ring of `n >= 4` nodes with a chord every third node: small, strongly
/// connected, with duplex pairs and varied capacities and delays.
fn ring(n: usize, rng: &mut StdRng) -> Network {
    let mut b = NetworkBuilder::new();
    let nodes: Vec<_> = (0..n)
        .map(|i| b.add_node(Point::new(i as f64, rng.gen_range(0.0..1.0))))
        .collect();
    for i in 0..n {
        let cap = rng.gen_range(1e6..1e9);
        let delay = rng.gen_range(1e-4..1e-2);
        b.add_duplex_link(nodes[i], nodes[(i + 1) % n], cap, delay)
            .unwrap();
    }
    for i in (0..n.saturating_sub(2)).step_by(3) {
        b.add_duplex_link(nodes[i], nodes[i + 2], 1e8, 5e-3)
            .unwrap();
    }
    b.build().unwrap()
}

/// `true` when `decode` returns instead of panicking.
fn returns<T, E>(decode: impl FnOnce() -> Result<T, E>) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        let _ = decode();
    }))
    .is_ok()
}

/// The Phase-2 fixture: a small testbed and one durable snapshot taken
/// mid-run, built once for every snapshot case.
struct SnapshotFixture {
    net: Network,
    tm: ClassMatrices,
    params: Params,
    snapshot: Vec<u8>,
}

fn snapshot_fixture() -> &'static SnapshotFixture {
    static FIXTURE: OnceLock<SnapshotFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let net = ring(8, &mut StdRng::seed_from_u64(5));
        let tm = gravity::generate(&gravity::GravityConfig {
            total_volume: 3e8,
            ..gravity::GravityConfig::paper_default(8, 17)
        });
        let params = Params {
            checkpoint_every: 1,
            max_iterations: 8,
            ..Params::quick(41)
        };
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let p1 = phase1::run(&ev, &universe, &params);
        let all: Vec<usize> = (0..universe.len()).collect();
        let mut sink = MemorySink::new();
        let mut ctl = RunControl {
            sink: Some(&mut sink),
            kill_after: Some(2),
        };
        phase2::run_controlled(&ev, &universe, &all, &params, &p1, &mut ctl).unwrap();
        let snapshot = sink.latest().expect("checkpoint cadence 1").to_vec();
        // Control: the undamaged snapshot resumes.
        let resumed = phase2::resume(
            &ev,
            &universe,
            &all,
            &params,
            &snapshot,
            &mut RunControl::none(),
        );
        assert!(
            resumed.is_ok(),
            "fixture snapshot does not resume: {resumed:?}"
        );
        SnapshotFixture {
            net,
            tm,
            params,
            snapshot,
        }
    })
}

/// Re-seal a mutated snapshot body: patch the payload-length field to
/// the body's length and append the body's FNV-1a checksum.
fn reseal(mut body: Vec<u8>) -> Vec<u8> {
    // Magic (8), version (4), kind (4), payload length (8).
    const HEADER: usize = 24;
    if body.len() >= HEADER {
        let payload = (body.len() - HEADER) as u64;
        body[HEADER - 8..HEADER].copy_from_slice(&payload.to_le_bytes());
    }
    let sum = dtr::persist::fnv1a(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn network_text_decoder_never_panics(seed in any::<u64>(), n in 4usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = dtr::net::io::to_text(&ring(n, &mut rng));
        let bad = mutate_text(&text, &mut rng);
        prop_assert!(
            returns(|| dtr::net::io::from_text(&bad)),
            "network decoder panicked on {:?}", bad
        );
    }

    #[test]
    fn weights_text_decoder_never_panics(seed in any::<u64>(), links in 1usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = WeightSetting::random(links, 20, &mut rng);
        let text = dtr::routing::weights_io::to_text(&w);
        let bad = mutate_text(&text, &mut rng);
        prop_assert!(
            returns(|| dtr::routing::weights_io::from_text(&bad)),
            "two-class weights decoder panicked on {:?}", bad
        );
    }

    #[test]
    fn mtr_weights_text_decoder_never_panics(seed in any::<u64>(), links in 1usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = WeightSetting::random_k(3, links, 20, &mut rng);
        let text = dtr::mtr::weights_io::to_text(&w);
        let bad = mutate_text(&text, &mut rng);
        prop_assert!(
            returns(|| dtr::mtr::weights_io::from_text(&bad)),
            "k-class weights decoder panicked on {:?}", bad
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn phase2_snapshot_decoder_never_panics(seed in any::<u64>()) {
        let fx = snapshot_fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let body = fx.snapshot[..fx.snapshot.len() - 8].to_vec();
        let bad = reseal(mutate(body, &mut rng, BINARY_BYTES));
        let ev = Evaluator::new(&fx.net, &fx.tm, CostParams::default());
        let universe = FailureUniverse::of(&fx.net);
        let all: Vec<usize> = (0..universe.len()).collect();
        prop_assert!(
            returns(|| phase2::resume(
                &ev,
                &universe,
                &all,
                &fx.params,
                &bad,
                &mut RunControl::none()
            )),
            "snapshot decoder panicked on case seed {}", seed
        );
    }
}
