//! Snapshots are the sketch: encode → decode is identity, and size is
//! measured (DESIGN.md §10).
//!
//! Property-tested (fixed case count and seed, like every suite here), for
//! every snapshot-backed codec — `Subsample`, `SubsampleBuilder`,
//! `ReleaseDb`, `ReleaseAnswersIndicator`, `ReleaseAnswersEstimator`,
//! `CountMinSketch`, `CountSketch`:
//!
//! * **Round-trip** — `from_snapshot(snapshot_bytes())` compares `==` to
//!   the original and answers every query bit-identically, at thread
//!   counts 1, 2, and 4 where the sketch has a thread knob.
//! * **Measured size** — `size_bits()` equals the encoded length in bits.
//! * **Adversarial bytes never panic** — truncation at *every* prefix
//!   length, flipped magic, a future format version, a flipped body byte,
//!   trailing garbage, and cross-kind decoding each return the right
//!   `DecodeError` variant.
//! * **Resumable ingestion** — a `SubsampleBuilder` snapshotted mid-stream
//!   and decoded elsewhere keeps observing/merging/finishing
//!   bit-identically to the builder that never left memory (§9 meets §10).

use itemset_sketches::database::codec::DecodeError;
use itemset_sketches::prelude::*;
use itemset_sketches::streaming::{CountMinSketch, CountSketch, StreamCounter};
use proptest::prelude::*;

/// A random query log over `d` attributes with cardinalities 0..=4.
fn random_queries(d: usize, count: usize, rng: &mut Rng64) -> Vec<Itemset> {
    (0..count)
        .map(|_| {
            let k = rng.below(5).min(d);
            (0..k).map(|_| rng.below(d.max(1)) as u32).collect()
        })
        .collect()
}

/// The shared contract of every snapshot codec: round-trip `==` identity,
/// `size_bits == 8 · encoded length`, and a typed refusal (never a panic)
/// for each class of adversarial input.
fn assert_snapshot_contract<S>(original: &S)
where
    S: Snapshot + PartialEq + std::fmt::Debug,
{
    let bytes = original.snapshot_bytes();
    let decoded = S::from_snapshot(&bytes).expect("well-formed snapshot must decode");
    assert_eq!(&decoded, original, "decode(encode(sketch)) must be == the sketch");
    assert_eq!(
        original.snapshot_bits(),
        bytes.len() as u64 * 8,
        "snapshot_bits must be the encoded length"
    );

    // Truncation at every prefix length: always a typed error, never a
    // panic, and never a bogus success.
    for cut in 0..bytes.len() {
        assert!(S::from_snapshot(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
    }
    assert!(matches!(
        S::from_snapshot(&bytes[..2.min(bytes.len())]),
        Err(DecodeError::Truncated { .. })
    ));

    // Flipped magic.
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(S::from_snapshot(&bad_magic), Err(DecodeError::BadMagic(_))));

    // A future format version refuses with version skew, not a checksum
    // complaint (the body layout of the future is unknowable).
    let mut future = bytes.clone();
    future[6..8].copy_from_slice(&(S::VERSION + 1).to_le_bytes());
    match S::from_snapshot(&future) {
        Err(DecodeError::UnsupportedVersion { got, supported, .. }) => {
            assert_eq!(got, S::VERSION + 1);
            assert_eq!(supported, S::VERSION);
        }
        other => panic!("future version must refuse with UnsupportedVersion, got {other:?}"),
    }

    // A flipped bit in the last body byte (headers intact) fails the
    // checksum.
    let mut corrupt = bytes.clone();
    let last_body = bytes.len() - 9;
    corrupt[last_body] ^= 0x40;
    assert!(matches!(S::from_snapshot(&corrupt), Err(DecodeError::ChecksumMismatch { .. })));

    // Trailing garbage is refused with the exact surplus.
    let mut long = bytes.clone();
    long.extend_from_slice(b"??");
    assert!(matches!(S::from_snapshot(&long), Err(DecodeError::TrailingBytes { extra: 2 })));
    // ... but the stream-decoding entry point leaves the tail for the
    // caller.
    let (streamed, consumed) = S::decode_from(&long).expect("frame itself is intact");
    assert_eq!(&streamed, original);
    assert_eq!(consumed, bytes.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(24, 0x5A95))]

    /// Subsample: snapshot contract, measured size, and query identity at
    /// every thread count.
    #[test]
    fn subsample_snapshot_roundtrips_and_serves_identically(
        n in 1usize..400,
        d in 1usize..48,
        s in 1usize..50,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = itemset_sketches::database::generators::uniform(n, d, 0.3, &mut rng);
        let sketch = Subsample::with_sample_count_seeded(&db, s, 0.1, seed);
        assert_snapshot_contract(&sketch);
        prop_assert_eq!(sketch.size_bits(), sketch.snapshot_bytes().len() as u64 * 8);

        let decoded = Subsample::from_snapshot(&sketch.snapshot_bytes()).expect("roundtrip");
        let queries = random_queries(d, 30, &mut rng);
        let reference = sketch.estimate_batch(&queries);
        for threads in [1usize, 2, 4] {
            let served = decoded.clone().with_threads(threads);
            prop_assert_eq!(&served.estimate_batch(&queries), &reference, "threads={}", threads);
            prop_assert_eq!(
                served.is_frequent_batch(&queries),
                sketch.is_frequent_batch(&queries),
                "threads={}", threads
            );
        }
    }

    /// ReleaseDb: snapshot contract and exact answers after reload.
    #[test]
    fn release_db_snapshot_roundtrips_and_serves_identically(
        n in 0usize..300,
        d in 1usize..48,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = itemset_sketches::database::generators::uniform(n, d, 0.25, &mut rng);
        let sketch = ReleaseDb::build(&db, 0.2);
        assert_snapshot_contract(&sketch);
        prop_assert_eq!(sketch.size_bits(), sketch.snapshot_bytes().len() as u64 * 8);

        let decoded = ReleaseDb::from_snapshot(&sketch.snapshot_bytes()).expect("roundtrip");
        let queries = random_queries(d, 30, &mut rng);
        prop_assert_eq!(decoded.estimate_batch(&queries), sketch.estimate_batch(&queries));
        prop_assert_eq!(
            decoded.clone().with_threads(4).is_frequent_batch(&queries),
            sketch.is_frequent_batch(&queries)
        );
    }

    /// Both RELEASE-ANSWERS variants: snapshot contract and identical
    /// stored answers over the *entire* query space.
    #[test]
    fn release_answers_snapshots_roundtrip_and_serve_identically(
        n in 1usize..150,
        d in 2usize..10,
        seed in any::<u64>(),
    ) {
        let k = 2usize;
        let mut rng = Rng64::seeded(seed);
        let db = itemset_sketches::database::generators::uniform(n, d, 0.4, &mut rng);

        let ind = ReleaseAnswersIndicator::build(&db, k, 0.15);
        assert_snapshot_contract(&ind);
        prop_assert_eq!(ind.size_bits(), ind.snapshot_bytes().len() as u64 * 8);
        let ind2 = ReleaseAnswersIndicator::from_snapshot(&ind.snapshot_bytes()).expect("rt");

        let est = ReleaseAnswersEstimator::build(&db, k, 0.07);
        assert_snapshot_contract(&est);
        prop_assert_eq!(est.size_bits(), est.snapshot_bytes().len() as u64 * 8);
        let est2 = ReleaseAnswersEstimator::from_snapshot(&est.snapshot_bytes()).expect("rt");

        for combo in itemset_sketches::util::combin::Combinations::new(d as u32, k as u32) {
            let t = Itemset::new(combo);
            prop_assert_eq!(ind2.is_frequent(&t), ind.is_frequent(&t), "indicator at {}", &t);
            prop_assert_eq!(
                est2.estimate(&t).to_bits(),
                est.estimate(&t).to_bits(),
                "estimator at {}", &t
            );
        }
    }

    /// Count-Min (plain and conservative) and Count-Sketch: snapshot
    /// contract and identical estimates after reload.
    #[test]
    fn stream_counter_snapshots_roundtrip_and_serve_identically(
        len in 0usize..2000,
        width in 1usize..128,
        depth in 1usize..6,
        conservative in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let stream: Vec<u32> = (0..len).map(|_| rng.below(200) as u32).collect();

        let mut cm = CountMinSketch::new(width, depth, conservative, seed);
        let mut cs = CountSketch::new(width, depth, seed ^ 1);
        for &x in &stream {
            cm.update(x);
            cs.update(x);
        }
        assert_snapshot_contract(&cm);
        assert_snapshot_contract(&cs);
        prop_assert_eq!(StreamCounter::size_bits(&cm), cm.snapshot_bytes().len() as u64 * 8);
        prop_assert_eq!(StreamCounter::size_bits(&cs), cs.snapshot_bytes().len() as u64 * 8);

        let cm2 = CountMinSketch::<u32>::from_snapshot(&cm.snapshot_bytes()).expect("rt");
        let cs2 = CountSketch::<u32>::from_snapshot(&cs.snapshot_bytes()).expect("rt");
        prop_assert_eq!(cm2.stream_len(), stream.len() as u64);
        for x in 0..210u32 {
            prop_assert_eq!(cm2.estimate(&x), cm.estimate(&x), "Count-Min at {}", x);
            prop_assert_eq!(cs2.signed_estimate(&x), cs.signed_estimate(&x), "Count-Sketch at {}", x);
        }
    }

    /// A partial SubsampleBuilder snapshotted mid-stream resumes
    /// bit-identically: decode, observe the remaining rows, finish — the
    /// sample equals the never-serialized one-shot build, and the decoded
    /// builder still merges later partials per §9.
    #[test]
    fn subsample_builder_snapshot_resumes_and_merges_bit_identically(
        n in 2usize..500,
        d in 1usize..32,
        s in 1usize..40,
        split_raw in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = itemset_sketches::database::generators::uniform(n, d, 0.35, &mut rng);
        let split = 1 + (split_raw as usize) % (n - 1);
        let params = SubsampleParams { sample_rows: s, epsilon: 0.1 };
        let one_shot = Subsample::with_sample_count_seeded(&db, s, 0.1, seed);

        let mut head = SubsampleBuilder::begin(d, seed, &params);
        for r in 0..split {
            head.observe_row(&db.row_itemset(r));
        }
        assert_snapshot_contract(&head);

        // Resume-by-observing: the decoded builder sees the tail rows.
        let mut resumed =
            SubsampleBuilder::from_snapshot(&head.snapshot_bytes()).expect("roundtrip");
        prop_assert_eq!(&resumed, &head);
        for r in split..n {
            resumed.observe_row(&db.row_itemset(r));
        }
        prop_assert_eq!(resumed.finish().sample(), one_shot.sample(), "resumed build diverged");

        // Resume-by-merging: the decoded builder absorbs a tail partial
        // built elsewhere (also round-tripped through its own snapshot).
        let mut tail = SubsampleBuilder::begin_at(d, seed, &params, split as u64);
        for r in split..n {
            tail.observe_row(&db.row_itemset(r));
        }
        let tail = SubsampleBuilder::from_snapshot(&tail.snapshot_bytes()).expect("roundtrip");
        let mut merged =
            SubsampleBuilder::from_snapshot(&head.snapshot_bytes()).expect("roundtrip");
        merged.merge(tail).expect("contiguous partials merge");
        prop_assert_eq!(merged.finish().sample(), one_shot.sample(), "merged build diverged");
    }
}

/// Cross-kind decoding: bytes of one sketch type refuse to decode as
/// another, with both tags named — for every ordered pair in the registry
/// that can be confused (all seven kinds share one frame layout).
#[test]
fn snapshots_refuse_cross_kind_decoding() {
    let mut rng = Rng64::seeded(0xC1055);
    let db = itemset_sketches::database::generators::uniform(60, 8, 0.4, &mut rng);
    let sub = Subsample::with_sample_count_seeded(&db, 9, 0.1, 1).snapshot_bytes();
    let rdb = ReleaseDb::build(&db, 0.2).snapshot_bytes();
    let ind = ReleaseAnswersIndicator::build(&db, 2, 0.1).snapshot_bytes();
    let est = ReleaseAnswersEstimator::build(&db, 2, 0.1).snapshot_bytes();
    let cm = CountMinSketch::<u32>::new(16, 2, false, 3).snapshot_bytes();
    let cs = CountSketch::<u32>::new(16, 2, 3).snapshot_bytes();

    fn expect_wrong_kind<S: Snapshot + std::fmt::Debug>(bytes: &[u8]) {
        match S::from_snapshot(bytes) {
            Err(DecodeError::WrongKind { expected, got }) => {
                assert_eq!(expected, S::KIND);
                assert_ne!(got, S::KIND);
            }
            other => panic!("expected WrongKind decoding foreign bytes, got {other:?}"),
        }
    }

    expect_wrong_kind::<Subsample>(&rdb);
    expect_wrong_kind::<ReleaseDb>(&sub);
    expect_wrong_kind::<ReleaseAnswersIndicator>(&est);
    expect_wrong_kind::<ReleaseAnswersEstimator>(&ind);
    expect_wrong_kind::<CountMinSketch<u32>>(&cs);
    expect_wrong_kind::<CountSketch<u32>>(&cm);
    expect_wrong_kind::<SubsampleBuilder>(&sub);
}

/// Crafted headers that are well-framed (magic, kind, checksum all valid)
/// but declare impossible bodies: each must be a typed refusal — never a
/// panic, never a huge allocation attempt. Regressions for the decode
/// hardening pass.
#[test]
fn crafted_headers_refuse_without_panicking_or_allocating() {
    use itemset_sketches::database::codec::{append_frame, Writer};
    let frame_of = |kind: u16, version: u16, body: &[u8]| {
        let mut frame = Vec::new();
        append_frame(kind, version, body, &mut frame);
        frame
    };

    // C(100, 50) overflows u64: the answer-shape validation must refuse,
    // not hit the trusted-path binomial panic.
    let mut body = Writer::new();
    body.varint(50); // k
    body.varint(100); // d
    body.varint(7); // count (arbitrary)
    let frame = frame_of(ReleaseAnswersIndicator::KIND, 1, &body.into_bytes());
    assert!(matches!(ReleaseAnswersIndicator::from_snapshot(&frame), Err(DecodeError::Corrupt(_))));

    // A SubsampleBuilder offset in the last chunk of the u64 range has no
    // next chunk boundary: checked arithmetic must refuse instead of
    // wrapping into a bogus front capacity.
    let mut body = Writer::new();
    body.varint(4); // dims
    body.u64(1); // seed
    body.varint(2); // sample_rows
    body.f64_bits(0.1); // epsilon
    body.varint(u64::MAX); // offset
    body.varint(0); // rows_seen
    body.varint(0); // back_start
    body.varint(0); // front len
    body.varint(0); // back len
    body.u8(0); // slot 0 empty
    body.u8(0); // slot 1 empty
    let frame = frame_of(SubsampleBuilder::KIND, 1, &body.into_bytes());
    assert!(matches!(SubsampleBuilder::from_snapshot(&frame), Err(DecodeError::Corrupt(_))));

    // A tiny Count-Min frame declaring depth 2^40 must report truncation
    // (the body cannot back the shape) before any table is reserved.
    let mut body = Writer::new();
    body.varint(4); // width
    body.varint(1 << 40); // depth
    body.u8(0); // conservative
    body.varint(0); // stream length
    let frame = frame_of(CountMinSketch::<u32>::KIND, 1, &body.into_bytes());
    assert!(matches!(
        CountMinSketch::<u32>::from_snapshot(&frame),
        Err(DecodeError::Truncated { .. })
    ));

    // Same shape attack on Count-Sketch.
    let mut body = Writer::new();
    body.varint(1 << 40); // width
    body.varint(3); // depth
    body.varint(0); // stream length
    let frame = frame_of(CountSketch::<u32>::KIND, 1, &body.into_bytes());
    assert!(matches!(
        CountSketch::<u32>::from_snapshot(&frame),
        Err(DecodeError::Truncated { .. })
    ));

    // An itemset whose second delta overflows u64 must refuse as corrupt,
    // not wrap into a value that dodges the range and ordering checks.
    // (Framed as a SubsampleBuilder with one buffered back row.)
    let mut body = Writer::new();
    body.varint(4); // dims
    body.u64(1); // seed
    body.varint(1); // sample_rows
    body.f64_bits(0.1); // epsilon
    body.varint(0); // offset
    body.varint(1); // rows_seen
    body.varint(0); // back_start
    body.varint(0); // front len
    body.varint(1); // back len: one row...
    body.varint(2); // ...with two items
    body.varint(1); // item 0 = 1
    body.varint(u64::MAX); // delta overflowing past u64::MAX
    body.u8(0); // slot empty
    let frame = frame_of(SubsampleBuilder::KIND, 1, &body.into_bytes());
    assert!(matches!(SubsampleBuilder::from_snapshot(&frame), Err(DecodeError::Corrupt(_))));
}

/// A few-byte v2 `ReleaseDb` frame declaring one empty row over
/// `2^27 + 64` items: its row matrix is only 16 MiB, under the decode cap,
/// but the tid-set view its first query would build is one word per item,
/// just over 1 GiB. Decoding must refuse it — as a sketch and at server
/// admission — before any query can ask for that view. No query is run.
#[test]
fn release_db_frame_with_an_oversized_tid_view_is_refused() {
    use itemset_sketches::database::codec::{append_frame, Writer};
    use itemset_sketches::serve::{ServeConfig, ServeError, SketchServer};
    let mut body = Writer::new();
    body.f64_bits(0.1); // epsilon
    body.varint(1); // rows
    body.varint((1 << 27) + 64); // dims
    body.varint(1); // one row group of one row...
    body.u8(0); // ...in ITEMS mode...
    body.varint(0); // ...with no items
    let mut frame = Vec::new();
    append_frame(ReleaseDb::KIND, 2, body.as_slice(), &mut frame);
    assert!(frame.len() < 64, "the attack frame is tiny: {} bytes", frame.len());

    let refused = ReleaseDb::from_snapshot(&frame).expect_err("oversized tid view decoded");
    assert!(
        matches!(&refused, DecodeError::Corrupt(what) if what.contains("tid words")),
        "{refused}"
    );
    let server = SketchServer::new(ServeConfig::default());
    match server.load_frame(1, 1, &frame) {
        Err(ServeError::Decode(DecodeError::Corrupt(what))) => {
            assert!(what.contains("tid words"), "{what}")
        }
        other => panic!("admission must refuse the frame, got {other:?}"),
    }
}

/// The serving loop in one test: build sharded (§8/§9), snapshot, move the
/// bytes to another thread, decode, serve a query log — answers match the
/// builder process bit for bit. (`examples/snapshot_serving.rs` is the
/// narrated version of this.)
#[test]
fn snapshot_ships_across_threads_and_serves_identically() {
    let mut rng = Rng64::seeded(0x5E4F);
    let db = itemset_sketches::database::generators::uniform(5_000, 32, 0.2, &mut rng);
    let sketch = Subsample::with_sample_count_sharded(&db, 400, 0.05, 0xFACE, 4);
    let queries = random_queries(32, 200, &mut rng);
    let reference = sketch.estimate_batch(&queries);
    let bytes = sketch.snapshot_bytes();

    let served = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let served = Subsample::from_snapshot(&bytes).expect("serving tier decodes");
                served.estimate_batch(&queries)
            })
            .join()
            .expect("serving thread")
    });
    assert_eq!(served, reference, "served answers diverged from the build tier");
}
