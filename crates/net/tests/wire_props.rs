//! Property tests for the `smst-wire-v1` frame codec: every frame type
//! round-trips bit-for-bit (zero-length and large halo payloads
//! included), every torn-frame prefix decodes to a **typed** error (never
//! a panic, never a misparse), trailing bytes and unknown tags/schemas
//! are rejected, and a hostile length prefix is refused before
//! allocation. The per-round frames are additionally pinned to **golden
//! byte strings** (recorded at b00a375): whoever rewrites the codec — the
//! copy-free one of ROADMAP's ledger item, say — must emit exactly these
//! or bump `WIRE_VERSION`.

use proptest::prelude::*;
use smst_net::wire::{
    frame_bytes, read_frame, write_frame, Frame, InteriorsFrame, RoundFrame, SetupFrame, WireError,
    WireGraph, WireInjection, MAX_FRAME,
};

/// Round-trips one frame through the payload codec and through the
/// length-prefixed stream layer.
fn assert_round_trip(frame: &Frame) {
    let decoded = Frame::decode(&frame.encode()).expect("a frame encodes decodably");
    assert_eq!(&decoded, frame, "payload codec round-trip");
    let bytes = frame_bytes(frame);
    let mut stream: &[u8] = &bytes;
    let streamed = read_frame(&mut stream).expect("a written frame reads back");
    assert_eq!(&streamed, frame, "stream round-trip");
    assert!(stream.is_empty(), "read_frame consumed the exact frame");
    let mut written = Vec::new();
    write_frame(&mut written, frame).expect("writing to a buffer");
    assert_eq!(written, bytes, "write_frame puts frame_bytes on the wire");
}

/// Every `stride`-th truncation of the wire bytes is a typed error: the
/// empty prefix is a clean [`WireError::PeerClosed`], every other cut is a
/// torn frame.
fn assert_cuts_are_typed(bytes: &[u8], stride: usize) {
    for cut in (0..bytes.len()).step_by(stride) {
        let mut stream: &[u8] = &bytes[..cut];
        match read_frame(&mut stream) {
            Err(WireError::PeerClosed) => assert_eq!(cut, 0, "PeerClosed only between frames"),
            Err(WireError::Truncated) => assert!(cut > 0, "a torn frame needs at least one byte"),
            other => panic!("cut at {cut}/{} must be typed, got {other:?}", bytes.len()),
        }
    }
}

fn assert_truncations_are_typed(frame: &Frame) {
    assert_cuts_are_typed(&frame_bytes(frame), 1);
}

fn sample_frames() -> Vec<Frame> {
    vec![
        Frame::Hello {
            version: 1,
            part: 3,
        },
        Frame::HelloAck { version: 1 },
        Frame::Setup(SetupFrame {
            seed: 11,
            peers: 4,
            part: 2,
            layout: 1,
            program: "min-id-flood".to_string(),
            spec: vec![7, 0, 0, 0, 0, 0, 0, 0],
            graph: WireGraph {
                ids: vec![5, 1, 9],
                edges: vec![(0, 1, 10), (1, 2, 20)],
            },
            states: vec![1, 2, 3, 4],
        }),
        Frame::Round(RoundFrame {
            round: 42,
            dispatch: 99,
            patch_nodes: vec![0, 7],
            patch_states: vec![8; 16],
            halo_states: Vec::new(), // zero-length halo is a first-class frame
            inject: Some(WireInjection::Stall { millis: 250 }),
        }),
        Frame::Round(RoundFrame {
            round: 0,
            dispatch: 1,
            patch_nodes: Vec::new(),
            patch_states: Vec::new(),
            halo_states: vec![0xAB; 9],
            inject: Some(WireInjection::Panic),
        }),
        Frame::Interiors(InteriorsFrame {
            round: 42,
            dispatch: 99,
            compute_ns: 123_456,
            states: vec![0xCD; 24],
        }),
        Frame::Shutdown,
        Frame::Error {
            code: 3,
            message: "expected Round or Shutdown".to_string(),
        },
    ]
}

#[test]
fn every_frame_type_round_trips_and_truncates_typed() {
    for frame in sample_frames() {
        assert_round_trip(&frame);
        assert_truncations_are_typed(&frame);
    }
}

#[test]
fn large_halo_payloads_round_trip() {
    // a megabyte-scale halo (131072 u64 registers) exercises the
    // multi-read stream path without the pathological 1 GiB ceiling case
    let frame = Frame::Round(RoundFrame {
        round: 7,
        dispatch: 8,
        patch_nodes: Vec::new(),
        patch_states: Vec::new(),
        halo_states: (0..(1 << 20)).map(|i| (i % 251) as u8).collect(),
        inject: None,
    });
    assert_round_trip(&frame);
}

// ----- golden bytes ---------------------------------------------------------

/// `count` flood registers (`i · φ64`, little-endian) as a worker or the
/// coordinator encodes them.
fn registers(count: u64) -> Vec<u8> {
    (0..count)
        .flat_map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes())
        .collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What `write_frame` puts on the wire for one frame: the bytes in hex,
/// or — for the 512 KiB frames — their length and FNV-1a fold.
enum Golden {
    Hex(&'static str),
    Fold { len: usize, fnv1a: u64 },
}

/// The writer emits exactly the recorded bytes, they read back as the
/// frame, and cutting them anywhere is `PeerClosed` at 0 and `Truncated`
/// after (the large frames are cut on a stride).
fn assert_golden(frame: &Frame, golden: Golden) {
    assert_round_trip(frame);
    let bytes = frame_bytes(frame);
    match golden {
        Golden::Hex(expected) => {
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, expected);
            assert_cuts_are_typed(&bytes, 1);
        }
        Golden::Fold { len, fnv1a: fold } => {
            assert_eq!((bytes.len(), fnv1a(&bytes)), (len, fold));
            assert_cuts_are_typed(&bytes, 4099);
        }
    }
}

#[test]
fn round_frames_match_the_golden_bytes() {
    let empty = RoundFrame {
        round: 0,
        dispatch: 0,
        patch_nodes: Vec::new(),
        patch_states: Vec::new(),
        halo_states: Vec::new(),
        inject: None,
    };
    assert_golden(
        &Frame::Round(empty.clone()),
        Golden::Hex("1e000000040000000000000000000000000000000000000000000000000000000000"),
    );
    let busy = RoundFrame {
        round: 42,
        dispatch: 99,
        patch_nodes: vec![0, 7],
        patch_states: registers(2),
        halo_states: registers(3),
        inject: Some(WireInjection::Stall { millis: 250 }),
    };
    assert_golden(
        &Frame::Round(busy),
        Golden::Hex(
            "56000000042a0000000000000063000000000000000200000000000000070000001000000000000000\
             00000000157c4a7fb979379e180000000000000000000000157c4a7fb979379e2af894fe72f36e3c02\
             fa00000000000000",
        ),
    );
    let large = RoundFrame {
        round: 7,
        dispatch: 8,
        halo_states: registers(1 << 16),
        ..empty
    };
    assert_golden(
        &Frame::Round(large),
        Golden::Fold {
            len: 524_322,
            fnv1a: 0x0847_c422_ca87_a534,
        },
    );
}

#[test]
fn interiors_frames_match_the_golden_bytes() {
    let empty = InteriorsFrame {
        round: 0,
        dispatch: 0,
        compute_ns: 0,
        states: Vec::new(),
    };
    assert_golden(
        &Frame::Interiors(empty),
        Golden::Hex("1d0000000500000000000000000000000000000000000000000000000000000000"),
    );
    let small = InteriorsFrame {
        round: 42,
        dispatch: 99,
        compute_ns: 123_456,
        states: registers(3),
    };
    assert_golden(
        &Frame::Interiors(small),
        Golden::Hex(
            "35000000052a00000000000000630000000000000040e2010000000000180000000000000000000000\
             157c4a7fb979379e2af894fe72f36e3c",
        ),
    );
    let large = InteriorsFrame {
        round: 7,
        dispatch: 8,
        compute_ns: u64::MAX,
        states: registers(1 << 16),
    };
    assert_golden(
        &Frame::Interiors(large),
        Golden::Fold {
            len: 524_321,
            fnv1a: 0x2f7c_2592_1cd2_c0da,
        },
    );
}

#[test]
fn a_graph_rebuilt_from_the_wire_carries_the_same_maxima() {
    // a worker's register-width accounting reads `max_id` / `max_weight`
    // off the graph `to_graph` rebuilds, never off the wire
    use smst_graph::generators::random_graph_scrambled_ids;
    for seed in 0..8 {
        let graph = random_graph_scrambled_ids(20 + seed as usize, 60, seed);
        let rebuilt = WireGraph::from_graph(&graph).to_graph().expect("honorable");
        assert_eq!(rebuilt.max_id(), graph.nodes().map(|v| graph.id(v)).max());
        assert_eq!(
            rebuilt.max_weight(),
            graph.edges().iter().map(|e| e.weight).max()
        );
    }
    let empty = WireGraph::from_graph(&smst_graph::WeightedGraph::new());
    let rebuilt = empty.to_graph().expect("honorable");
    assert_eq!((rebuilt.max_id(), rebuilt.max_weight()), (None, None));
}

#[test]
fn hostile_length_prefixes_are_refused_before_allocation() {
    // a length prefix past MAX_FRAME must be rejected without trying to
    // allocate the announced payload
    let huge = (MAX_FRAME + 1).to_le_bytes();
    let mut stream: &[u8] = &huge;
    assert_eq!(
        read_frame(&mut stream),
        Err(WireError::FrameTooLarge {
            len: MAX_FRAME as u64 + 1
        })
    );
}

#[test]
fn trailing_bytes_unknown_tags_and_schemas_are_typed() {
    let mut payload = Frame::Shutdown.encode();
    payload.push(0);
    assert_eq!(
        Frame::decode(&payload),
        Err(WireError::Trailing { extra: 1 })
    );
    assert_eq!(Frame::decode(&[42]), Err(WireError::BadTag(42)));
    assert_eq!(Frame::decode(&[]), Err(WireError::Truncated));
    // a Hello carrying the wrong schema string is BadMagic, not a misparse
    let mut hello = Vec::new();
    hello.push(1u8); // TAG_HELLO
    hello.extend_from_slice(&8u32.to_le_bytes());
    hello.extend_from_slice(b"not-smst");
    hello.extend_from_slice(&1u16.to_le_bytes());
    hello.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(
        Frame::decode(&hello),
        Err(WireError::BadMagic("not-smst".to_string()))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hello_frames_round_trip(version in 0u16..u16::MAX, part in 0u32..1024) {
        assert_round_trip(&Frame::Hello { version, part });
        assert_round_trip(&Frame::HelloAck { version });
    }

    #[test]
    fn round_frames_round_trip(
        round in 0u64..u64::MAX,
        dispatch in 0u64..u64::MAX,
        patches in proptest::collection::vec(0u32..4096, 0..12),
        halo_len in 0usize..64,
        inject_kind in 0u8..3,
        millis in 0u64..10_000,
    ) {
        let frame = Frame::Round(RoundFrame {
            round,
            dispatch,
            patch_states: patches.iter().flat_map(|p| u64::from(*p).to_le_bytes()).collect(),
            patch_nodes: patches,
            halo_states: (0..halo_len * 8).map(|i| (i % 256) as u8).collect(),
            inject: match inject_kind {
                0 => None,
                1 => Some(WireInjection::Panic),
                _ => Some(WireInjection::Stall { millis }),
            },
        });
        assert_round_trip(&frame);
        assert_truncations_are_typed(&frame);
    }

    #[test]
    fn setup_frames_round_trip(
        seed in 0u64..u64::MAX,
        peers in 1u32..64,
        part in 0u32..64,
        layout in 0u8..2,
        ids in proptest::collection::vec(0u64..u64::MAX, 0..24),
        edges in proptest::collection::vec((0u32..24, 0u32..24, 0u64..1000), 0..32),
    ) {
        let frame = Frame::Setup(SetupFrame {
            seed,
            peers,
            part,
            layout,
            program: "alarmed-flood".to_string(),
            spec: seed.to_le_bytes().to_vec(),
            graph: WireGraph {
                ids: ids.clone(),
                edges,
            },
            states: ids.iter().flat_map(|i| i.to_le_bytes()).collect(),
        });
        assert_round_trip(&frame);
    }

    #[test]
    fn interiors_frames_round_trip(
        round in 0u64..u64::MAX,
        dispatch in 0u64..u64::MAX,
        compute_ns in 0u64..u64::MAX,
        states_len in 0usize..64,
    ) {
        let frame = Frame::Interiors(InteriorsFrame {
            round,
            dispatch,
            compute_ns,
            states: (0..states_len * 8).map(|i| (i % 256) as u8).collect(),
        });
        assert_round_trip(&frame);
        assert_truncations_are_typed(&frame);
    }

    #[test]
    fn error_frames_round_trip(code in 0u32..u32::MAX, len in 0usize..64) {
        let message: String = (0..len).map(|i| (b'a' + (i % 26) as u8) as char).collect();
        assert_round_trip(&Frame::Error { code, message });
    }
}
