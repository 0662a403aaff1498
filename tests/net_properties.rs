//! Property-based tests for the network layer: the wire protocol's
//! integrity envelope (a decoded frame re-encodes bit-identically; a
//! damaged or truncated byte stream never decodes), shard routing
//! stability (same design → same shard, journals never cross shard
//! directories), and shard-equivalence (a request answered by a shard
//! of an N-way router is bit-identical to a single-core answer).

use proptest::prelude::*;

use gcn_testability::net::frame;
use gcn_testability::net::{
    decode, route_key, Frame, FrameKind, ReadOutcome, ShardRouter, PROTOCOL_VERSION,
};
use gcn_testability::netlist::{format, generate, GeneratorConfig, Netlist};

fn arb_kind() -> impl Strategy<Value = FrameKind> {
    (0u8..9).prop_map(|k| FrameKind::from_u8(k).unwrap())
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (arb_kind(), proptest::collection::vec(any::<u8>(), 0..512))
        .prop_map(|(kind, payload)| Frame::new(kind, payload))
}

fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (2usize..12, 5usize..60, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        let cfg = GeneratorConfig {
            inputs,
            gates,
            seed,
            shadow_regions: 0,
            ..GeneratorConfig::default()
        };
        generate(&cfg)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Decode is the exact inverse of encode: any frame survives the
    /// wire, and re-encoding the decoded frame reproduces the original
    /// bytes bit for bit.
    #[test]
    fn frame_decode_then_encode_is_bit_identical(f in arb_frame()) {
        let bytes = f.encode();
        match decode(&bytes).unwrap() {
            ReadOutcome::Frame(back) => {
                prop_assert_eq!(back.kind, f.kind);
                prop_assert_eq!(&back.payload, &f.payload);
                prop_assert_eq!(back.encode(), bytes);
            }
            other => prop_assert!(false, "round trip failed: {:?}", other),
        }
    }

    /// Flipping any single bit of an encoded frame never yields a
    /// silently-wrong frame: the outcome is a refusal (`Corrupt`), a
    /// torn read, or — only for bits in the length field that *grow*
    /// the declared payload — a frame identical where it matters.
    #[test]
    fn single_bit_flips_never_decode_to_a_different_frame(
        f in arb_frame(),
        bit in any::<usize>(),
    ) {
        let mut bytes = f.encode();
        let nbits = bytes.len() * 8;
        let bit = bit % nbits;
        if let Some(b) = bytes.get_mut(bit / 8) {
            *b ^= 1 << (bit % 8);
        }
        match decode(&bytes) {
            Ok(ReadOutcome::Frame(back)) => {
                // The only acceptable decode is one that is still the
                // original frame (e.g. a flipped trailing-garbage bit
                // cannot exist: encode has no trailing bytes). So this
                // must never happen with a different kind or payload.
                prop_assert_eq!(back.kind, f.kind, "bit {} changed the kind", bit);
                prop_assert_eq!(&back.payload, &f.payload, "bit {} changed the payload", bit);
            }
            Ok(ReadOutcome::Corrupt { .. } | ReadOutcome::Torn | ReadOutcome::Eof
               | ReadOutcome::Stalled | ReadOutcome::IdleTimeout)
            | Err(_) => {}
        }
    }

    /// Any strict truncation of an encoded frame reads as torn (or a
    /// clean EOF at zero bytes) — never as a complete frame.
    #[test]
    fn truncated_frames_never_decode(f in arb_frame(), cut in any::<usize>()) {
        let bytes = f.encode();
        let cut = cut % bytes.len().max(1);
        if let Ok(ReadOutcome::Frame(_)) = decode(bytes.get(..cut).unwrap()) {
            prop_assert!(false, "decoded from {} of {} bytes", cut, bytes.len());
        }
    }

    /// The routing key is a pure function of the design text, and the
    /// shard index it maps to is stable for every shard count.
    #[test]
    fn routing_is_deterministic(net in arb_netlist(), shard_count in 1usize..9) {
        let text = format::write(&net);
        let k1 = route_key(&text);
        let k2 = route_key(&format::write(&net));
        prop_assert_eq!(k1, k2, "route key must be stable across serialisations");
        // A server routes on the text a request carries. For writer text
        // that is the key of the design it reads to, rewritten: the shards
        // of loadgen's and the benchmark's designs do not move.
        let reread = format::write(&format::read(&text).unwrap());
        prop_assert_eq!(k1, route_key(&reread));
        let shard = (k1 % shard_count as u64) as usize;
        prop_assert!(shard < shard_count);
    }

    /// Header constants hold for every frame: fixed header size, magic
    /// prefix, current protocol version, and the declared length always
    /// matching the actual payload.
    #[test]
    fn frame_header_invariants(f in arb_frame()) {
        let bytes = f.encode();
        prop_assert_eq!(bytes.len(), frame::HEADER_BYTES + f.payload.len());
        prop_assert_eq!(bytes.get(..3).unwrap(), &frame::MAGIC[..]);
        prop_assert_eq!(*bytes.get(3).unwrap(), PROTOCOL_VERSION);
        let mut len = [0u8; 4];
        len.copy_from_slice(bytes.get(5..9).unwrap());
        prop_assert_eq!(u32::from_le_bytes(len) as usize, f.payload.len());
    }
}

/// Shard journal paths are always confined to their own shard directory,
/// for arbitrary (hostile) job id strings.
#[test]
fn journal_paths_never_cross_shard_dirs() {
    use gcn_testability::gcn::{features::FeatureNormalizer, Gcn, GcnConfig, MultiStageGcn};
    use gcn_testability::nn::seeded_rng;
    use gcn_testability::serve::{ServeConfig, ServeCore};

    let net = generate(&GeneratorConfig::sized("np-journal", 3, 90));
    let base = std::env::temp_dir().join(format!("gcnt-net-props-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let raw = gcn_testability::gcn::features::raw_features_of(&net).unwrap();
    let cfg = GcnConfig {
        embed_dims: vec![4, 4],
        fc_dims: vec![4],
        ..GcnConfig::default()
    };
    let cores: Vec<ServeCore> = (0..3)
        .map(|_| {
            let stages = vec![Gcn::new(&cfg, &mut seeded_rng(41))];
            ServeCore::new(
                FeatureNormalizer::fit(&[&raw]),
                MultiStageGcn::from_stages(stages, 0.5),
                ServeConfig::default(),
            )
        })
        .collect();
    let router = ShardRouter::start(cores, &base).unwrap();
    let hostile = [
        "../../../etc/passwd",
        "..\\..\\x",
        "a/b/c",
        "",
        "UPPER CASE with spaces",
        "job\u{202e}gnik",
        &"x".repeat(500),
    ];
    for shard in 0..3 {
        let dir = base.join(format!("shard-{shard}"));
        for id in hostile {
            let path = router.journal_path(shard, id);
            assert!(
                path.starts_with(&dir),
                "job id {id:?} escaped shard {shard}: {}",
                path.display()
            );
            assert_eq!(
                path.parent().map(std::path::Path::to_path_buf),
                Some(dir.clone()),
                "job id {id:?} nested below the shard dir"
            );
        }
    }
    router.shutdown().unwrap();
    std::fs::remove_dir_all(&base).ok();
}

/// A sharded router answers exactly like a single core: the per-shard
/// admission/ladder stack changes capacity, never results.
#[test]
fn sharded_answers_equal_single_core() {
    use gcn_testability::gcn::{features::FeatureNormalizer, Gcn, GcnConfig, MultiStageGcn};
    use gcn_testability::nn::seeded_rng;
    use gcn_testability::serve::{ServeConfig, ServeCore};

    let net = generate(&GeneratorConfig::sized("np-equiv", 5, 120));
    let raw = gcn_testability::gcn::features::raw_features_of(&net).unwrap();
    let cfg = GcnConfig {
        embed_dims: vec![4, 4],
        fc_dims: vec![4],
        ..GcnConfig::default()
    };
    let make_core = || {
        let stages = vec![
            Gcn::new(&cfg, &mut seeded_rng(41)),
            Gcn::new(&cfg, &mut seeded_rng(42)),
        ];
        ServeCore::new(
            FeatureNormalizer::fit(&[&raw]),
            MultiStageGcn::from_stages(stages, 0.5),
            ServeConfig::default(),
        )
    };

    // Reference: one core, no router.
    let mut single = make_core();
    let reference = single.handle_infer(&net, None).unwrap();

    // Four shards behind the router; the same design must land on one
    // shard and produce the same probabilities bit for bit.
    let base = std::env::temp_dir().join(format!("gcnt-net-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let router = ShardRouter::start((0..4).map(|_| make_core()).collect(), &base).unwrap();
    let key = route_key(&format::write(&net));
    let (shard, sharded) = router.infer(key, net.clone(), None).unwrap();
    assert!(shard < 4);
    assert_eq!(
        sharded.probs, reference.probs,
        "bit-identical probabilities"
    );
    assert_eq!(sharded.positives, reference.positives);
    assert_eq!(sharded.rung, reference.rung);
    router.shutdown().unwrap();
    std::fs::remove_dir_all(&base).ok();
}
