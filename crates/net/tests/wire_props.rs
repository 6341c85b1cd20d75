//! Property tests for the `smst-wire-v1` frame codec: every frame type
//! round-trips bit-for-bit (empty, sparse and whole-region register
//! deltas included), every torn-frame prefix decodes to a **typed** error
//! (never a panic, never a misparse), trailing bytes and unknown
//! tags/schemas are rejected, a hostile length prefix reserves nothing,
//! a delta that does not fit the region it is for is refused before
//! anything is written, and a set-up frame whose region does not hold
//! together is refused before anything is built from it. The per-round
//! frames are additionally pinned to **golden byte strings** (recorded
//! once under `WIRE_VERSION = 2`, when the dense v1 payloads became
//! `RegisterDelta`s; v3, v4 and v5 changed only the set-up frame): whoever
//! rewrites their codec must emit exactly these or bump `WIRE_VERSION`.

use proptest::prelude::*;
use smst_engine::programs::MinIdFlood;
use smst_net::wire::{
    frame_bytes, read_frame, write_frame, DeltaIndex, Frame, InteriorsFrame, RegisterDelta,
    RoundFrame, SetupFrame, WireError, WireInjection, WireRegion, MAX_FRAME,
};
use smst_net::worker::stage_region;
use smst_net::{encode_delta, stage_delta, WIRE_SCHEMA, WIRE_VERSION};

/// Round-trips one frame through the payload codec and through the
/// length-prefixed stream layer.
fn assert_round_trip(frame: &Frame) {
    let decoded = Frame::decode(&frame.encode()).expect("a frame encodes decodably");
    assert_eq!(&decoded, frame, "payload codec round-trip");
    let bytes = frame_bytes(frame);
    let mut stream: &[u8] = &bytes;
    // a buffer that held another frame before, as a connection's does
    let mut buf = vec![0xEE; 7];
    let streamed = read_frame(&mut stream, &mut buf).expect("a written frame reads back");
    assert_eq!(&streamed, frame, "stream round-trip");
    assert!(stream.is_empty(), "read_frame consumed the exact frame");
    assert_eq!(buf, bytes[4..], "the buffer holds the payload");
    let mut written = Vec::new();
    write_frame(&mut written, frame, &mut buf).expect("writing to a buffer");
    assert_eq!(written, bytes, "write_frame puts frame_bytes on the wire");
}

/// Every `stride`-th truncation of the wire bytes is a typed error: the
/// empty prefix is a clean [`WireError::PeerClosed`], every other cut is a
/// torn frame.
fn assert_cuts_are_typed(bytes: &[u8], stride: usize) {
    for cut in (0..bytes.len()).step_by(stride) {
        let mut stream: &[u8] = &bytes[..cut];
        match read_frame(&mut stream, &mut Vec::new()) {
            Err(WireError::PeerClosed) => assert_eq!(cut, 0, "PeerClosed only between frames"),
            Err(WireError::Truncated) => assert!(cut > 0, "a torn frame needs at least one byte"),
            other => panic!("cut at {cut}/{} must be typed, got {other:?}", bytes.len()),
        }
    }
}

fn assert_truncations_are_typed(frame: &Frame) {
    assert_cuts_are_typed(&frame_bytes(frame), 1);
}

fn listed(indices: &[u32], states: Vec<u8>) -> RegisterDelta {
    RegisterDelta {
        index: DeltaIndex::Listed(indices.to_vec()),
        states,
    }
}

fn all(states: Vec<u8>) -> RegisterDelta {
    RegisterDelta {
        index: DeltaIndex::All,
        states,
    }
}

/// The middle of the path `a - b - c - d` as one region: interiors `b`
/// and `c` (original nodes 1 and 2), halo slots 2 (`a`) and 3 (`d`).
fn sample_setup() -> SetupFrame {
    SetupFrame {
        part: 2,
        program: "min-id-flood".to_string(),
        spec: vec![7, 0, 0, 0, 0, 0, 0, 0],
        region: WireRegion {
            halo_len: 2,
            offsets: vec![0, 2, 4],
            targets: vec![2, 1, 0, 3],
            nodes: vec![1, 2],
            ids: vec![5, 9],
        },
        registers: registers(4),
    }
}

fn sample_frames() -> Vec<Frame> {
    vec![
        Frame::Hello {
            version: 1,
            part: 3,
        },
        Frame::HelloAck { version: 1 },
        Frame::Setup(sample_setup()),
        Frame::Round(RoundFrame {
            round: 42,
            dispatch: 99,
            patch: listed(&[0, 7], vec![8; 16]),
            halo: RegisterDelta::empty(), // nothing changed: a first-class frame
            inject: Some(WireInjection::Stall { millis: 250 }),
        }),
        Frame::Round(RoundFrame {
            round: 0,
            dispatch: 1,
            patch: RegisterDelta::empty(),
            halo: all(vec![0xAB; 9]),
            inject: Some(WireInjection::Panic),
        }),
        Frame::Interiors(InteriorsFrame {
            round: 42,
            dispatch: 99,
            compute_ns: 123_456,
            interiors: listed(&[1, 2, 40], vec![0xCD; 24]),
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
fn encoded_lengths_are_computed_not_serialised() {
    // the coordinator counts a frame it never writes (the schedule's
    // frame on a resync): the length must come out of the sizes alone
    let quiet = RoundFrame {
        round: 1,
        dispatch: 2,
        patch: all(Vec::new()),
        halo: all(registers(3)),
        inject: None,
    };
    for frame in sample_frames().into_iter().chain([Frame::Round(quiet)]) {
        match &frame {
            Frame::Round(round) => assert_eq!(round.encoded_len(), frame.encode().len()),
            // tag, round, dispatch, compute_ns, then the delta
            Frame::Interiors(reply) => {
                assert_eq!(25 + reply.interiors.encoded_len(), frame.encode().len())
            }
            _ => {}
        }
    }
}

#[test]
fn large_halo_payloads_round_trip() {
    // a megabyte-scale halo (131072 u64 registers) exercises the
    // multi-read stream path without the pathological 1 GiB ceiling case
    let frame = Frame::Round(RoundFrame {
        round: 7,
        dispatch: 8,
        patch: RegisterDelta::empty(),
        halo: all((0..(1 << 20)).map(|i| (i % 251) as u8).collect()),
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
        patch: RegisterDelta::empty(),
        halo: RegisterDelta::empty(),
        inject: None,
    };
    // the quiescent dispatch: 36 payload bytes
    assert_golden(
        &Frame::Round(empty.clone()),
        Golden::Hex(
            "24000000040000000000000000000000000000000001000000000000000001000000000000000000",
        ),
    );
    let busy = RoundFrame {
        round: 42,
        dispatch: 99,
        patch: listed(&[0, 7], registers(2)),
        halo: listed(&[1, 4, 5], registers(3)),
        inject: Some(WireInjection::Stall { millis: 250 }),
    };
    assert_golden(
        &Frame::Round(busy),
        Golden::Hex(
            "68000000042a0000000000000063000000000000000102000000000000000700000010000000000000\
             0000000000157c4a7fb979379e01030000000100000004000000050000001800000000000000000000\
             00157c4a7fb979379e2af894fe72f36e3c02fa00000000000000",
        ),
    );
    let large = RoundFrame {
        round: 7,
        dispatch: 8,
        halo: all(registers(1 << 16)),
        ..empty
    };
    assert_golden(
        &Frame::Round(large),
        Golden::Fold {
            len: 524_324,
            fnv1a: 0x806f_5b79_24b6_8621,
        },
    );
}

#[test]
fn setup_frames_match_the_golden_bytes() {
    // recorded under `WIRE_VERSION = 5`: `sample_setup()` with the region
    // right behind the program and its spec, its `ids` followed directly by
    // the registers (v4 carried a `u64` weight per port in between, v3 an
    // 8-byte envelope seed between the tag and the part index)
    assert_golden(
        &Frame::Setup(sample_setup()),
        Golden::Hex(
            "8d00000003020000000c0000006d696e2d69642d666c6f6f640800000007000000000000000200\
             000003000000000000000200000004000000040000000200000001000000000000000300000002\
             000000010000000200000002000000050000000000000009000000000000002000000000000000\
             00000000157c4a7fb979379e2af894fe72f36e3c3f74df7d2c6da6da",
        ),
    );
}

#[test]
fn interiors_frames_match_the_golden_bytes() {
    let empty = InteriorsFrame {
        round: 0,
        dispatch: 0,
        compute_ns: 0,
        interiors: RegisterDelta::empty(),
    };
    // the quiescent reply: 34 payload bytes
    assert_golden(
        &Frame::Interiors(empty),
        Golden::Hex("2200000005000000000000000000000000000000000000000000000000010000000000000000"),
    );
    let small = InteriorsFrame {
        round: 42,
        dispatch: 99,
        compute_ns: 123_456,
        interiors: listed(&[2, 3, 9], registers(3)),
    };
    assert_golden(
        &Frame::Interiors(small),
        Golden::Hex(
            "46000000052a00000000000000630000000000000040e2010000000000010300000002000000030000\
             0009000000180000000000000000000000157c4a7fb979379e2af894fe72f36e3c",
        ),
    );
    let large = InteriorsFrame {
        round: 7,
        dispatch: 8,
        compute_ns: u64::MAX,
        interiors: all(registers(1 << 16)),
    };
    assert_golden(
        &Frame::Interiors(large),
        Golden::Fold {
            len: 524_322,
            fnv1a: 0x2858_64f2_96d5_2665,
        },
    );
}

#[test]
fn register_deltas_match_the_golden_bytes() {
    // the three index forms, each as the only payload of a reply
    let reply = |interiors| {
        Frame::Interiors(InteriorsFrame {
            round: 1,
            dispatch: 2,
            compute_ns: 3,
            interiors,
        })
    };
    assert_golden(
        &reply(all(registers(2))),
        Golden::Hex(
            "2e00000005010000000000000002000000000000000300000000000000001000000000000000000000\
             00157c4a7fb979379e",
        ),
    );
    assert_golden(
        &reply(listed(&[], Vec::new())),
        Golden::Hex("2200000005010000000000000002000000000000000300000000000000010000000000000000"),
    );
    assert_golden(
        &reply(listed(&[0, 5, u32::MAX], registers(3))),
        Golden::Hex(
            "4600000005010000000000000002000000000000000300000000000000010300000000000000050000\
             00ffffffff180000000000000000000000157c4a7fb979379e2af894fe72f36e3c",
        ),
    );
}

// ----- deltas against their region ------------------------------------------

#[test]
fn a_delta_lists_every_register_exactly_as_all() {
    let region = [3u64, 1, 4, 1, 5];
    let pick = |indices: &[u32]| {
        encode_delta::<MinIdFlood, _>(
            region.len(),
            indices.iter().map(|&i| (i, &region[i as usize])),
        )
    };
    assert_eq!(pick(&[]), RegisterDelta::empty());
    assert_eq!(pick(&[1, 4]).index, DeltaIndex::Listed(vec![1, 4]));
    let whole = pick(&[0, 1, 2, 3, 4]);
    assert_eq!(whole.index, DeltaIndex::All);
    let mut copy = [0u64; 5];
    stage_delta::<MinIdFlood>(whole, 5)
        .expect("the delta fits the region")
        .apply(&mut copy);
    assert_eq!(copy, region);
}

#[test]
fn a_delta_that_does_not_fit_its_region_is_typed_and_writes_nothing() {
    let stage = |delta| stage_delta::<MinIdFlood>(delta, 8).map(|staged| staged.count());
    assert_eq!(stage(listed(&[1, 7], registers(2))), Ok(2));
    assert_eq!(stage(all(registers(8))), Ok(8));
    // an index at or past the end of the region
    assert_eq!(
        stage(listed(&[1, 8], registers(2))),
        Err(WireError::BadValue("delta index out of range"))
    );
    assert_eq!(
        stage(listed(&[u32::MAX], registers(1))),
        Err(WireError::BadValue("delta index out of range"))
    );
    // a descending pair, a duplicate
    for indices in [[5, 2], [3, 3]] {
        assert_eq!(
            stage(listed(&indices, registers(2))),
            Err(WireError::BadValue(
                "delta indices must be strictly ascending"
            ))
        );
    }
    // a payload that is not exactly one register per listed index
    assert_eq!(
        stage(listed(&[1, 2], registers(1))),
        Err(WireError::Truncated)
    );
    assert_eq!(
        stage(listed(&[1], registers(2))),
        Err(WireError::Trailing { extra: 8 })
    );
    assert_eq!(stage(all(registers(7))), Err(WireError::Truncated));
    assert_eq!(
        stage(all(registers(9))),
        Err(WireError::Trailing { extra: 8 })
    );
    // an unknown index kind is refused by the frame decoder itself
    let mut payload = Frame::Interiors(InteriorsFrame {
        round: 0,
        dispatch: 0,
        compute_ns: 0,
        interiors: RegisterDelta::empty(),
    })
    .encode();
    payload[25] = 2;
    assert_eq!(
        Frame::decode(&payload),
        Err(WireError::BadValue("unknown delta index kind"))
    );
    // and an index count the frame cannot hold reserves nothing
    payload[25] = 1;
    payload[26..30].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(Frame::decode(&payload), Err(WireError::Truncated));
}

// ----- set-up frames against their region -----------------------------------

#[test]
fn a_region_that_does_not_hold_together_is_typed_before_anything_is_built() {
    let stage = |edit: &dyn Fn(&mut SetupFrame)| {
        let mut setup = sample_setup();
        edit(&mut setup);
        stage_region::<MinIdFlood>(setup).map(|staged| (staged.interior_len(), staged.region_len()))
    };
    assert_eq!(stage(&|_| {}), Ok((2, 4)));
    let bad = |what| Err(WireError::BadValue(what));
    // non-monotone offsets, a first offset off 0, a last offset that is
    // not the number of targets
    assert_eq!(
        stage(&|s| s.region.offsets = vec![0, 5, 4]),
        bad("offsets must be monotone")
    );
    assert_eq!(
        stage(&|s| s.region.offsets[0] = 1),
        bad("offsets must start at 0")
    );
    assert_eq!(
        stage(&|s| s.region.offsets[2] = 3),
        bad("offsets must cover the neighbour array")
    );
    // a target past the region's last halo slot
    assert_eq!(
        stage(&|s| s.region.targets[3] = 4),
        bad("neighbour index out of range")
    );
    assert_eq!(
        stage(&|s| s.region.targets[0] = u32::MAX),
        bad("neighbour index out of range")
    );
    // contexts that are not one per interior row
    let rows = bad("a region needs one context and one CSR row per interior");
    assert_eq!(stage(&|s| s.region.ids.push(1)), rows);
    assert_eq!(stage(&|s| s.region.offsets.push(4)), rows);
    assert_eq!(
        stage(&|s| {
            s.region.nodes.pop();
            s.region.halo_len = 3; // still four registers
        }),
        rows
    );
    // registers that are not one per region slot
    assert_eq!(
        stage(&|s| s.registers = registers(3)),
        Err(WireError::Truncated)
    );
    assert_eq!(
        stage(&|s| s.registers = registers(5)),
        Err(WireError::Trailing { extra: 8 })
    );
    assert_eq!(
        stage(&|s| s.region.halo_len = 1),
        Err(WireError::Trailing { extra: 8 })
    );
    // a halo the frame cannot hold: refused, with nothing reserved for it
    assert_eq!(
        stage(&|s| s.region.halo_len = u32::MAX),
        Err(WireError::Truncated)
    );
    // a spec the program does not read exactly
    assert_eq!(
        stage(&|s| s.spec.push(0)),
        Err(WireError::Trailing { extra: 1 })
    );
    assert_eq!(stage(&|s| s.spec.truncate(7)), Err(WireError::Truncated));
}

#[test]
fn hostile_length_prefixes_are_refused_before_allocation() {
    // a length prefix past MAX_FRAME must be rejected without trying to
    // allocate the announced payload
    let huge = (MAX_FRAME + 1).to_le_bytes();
    let mut stream: &[u8] = &huge;
    let mut buf = Vec::new();
    assert_eq!(
        read_frame(&mut stream, &mut buf),
        Err(WireError::FrameTooLarge {
            len: MAX_FRAME as u64 + 1
        })
    );
    assert_eq!(buf.capacity(), 0);

    // inside a frame the same holds for every array of a set-up region: a
    // count far beyond the bytes present is a typed torn frame, decoded
    // without reserving the count. Count fields of `sample_setup()`'s
    // payload, by offset: tag 1, part 4, program 4 + 12, spec 4 + 8,
    // halo_len 4 = 37
    let payload = Frame::Setup(sample_setup()).encode();
    let mut at = 37;
    // offsets, targets, nodes (u32s), ids (u64s), register bytes
    for (count, width) in [(3u32, 4), (4, 4), (2, 4), (2, 8), (32, 1)] {
        assert_eq!(payload[at..at + 4], count.to_le_bytes(), "offset {at}");
        for announced in [u32::MAX, 1 << 28, count + 1000] {
            let mut hostile = payload.clone();
            hostile[at..at + 4].copy_from_slice(&announced.to_le_bytes());
            assert_eq!(
                Frame::decode(&hostile),
                Err(WireError::Truncated),
                "count at {at} announced as {announced}"
            );
        }
        at += 4 + (count * width) as usize;
    }
    assert_eq!(at, payload.len());
}

#[test]
fn an_announced_length_reserves_nothing_until_the_bytes_arrive() {
    // a peer announces the largest legal frame, sends 16 bytes and closes:
    // a torn frame, and the buffer has grown by what arrived, not by the
    // gigabyte that was promised
    let mut bytes = MAX_FRAME.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0x5A; 16]);
    let mut stream: &[u8] = &bytes;
    let mut buf = Vec::new();
    assert_eq!(read_frame(&mut stream, &mut buf), Err(WireError::Truncated));
    assert_eq!(buf, [0x5A; 16]);
    assert!(
        buf.capacity() < 1 << 20,
        "{} bytes reserved for 16 received",
        buf.capacity()
    );
}

#[test]
fn the_schema_tag_does_not_move_with_the_protocol_version() {
    // `analyze::ingest::SCHEMA_WIRE` is pinned equal to this tag; it names
    // the frame grammar's family and stays put when a frame layout bumps
    // the handshake version
    assert_eq!((WIRE_SCHEMA, WIRE_VERSION), ("smst-wire-v1", 5));
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
            patch: RegisterDelta {
                states: patches.iter().flat_map(|p| u64::from(*p).to_le_bytes()).collect(),
                index: DeltaIndex::Listed(patches),
            },
            halo: all((0..halo_len * 8).map(|i| (i % 256) as u8).collect()),
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
        root in 0u64..u64::MAX,
        part in 0u32..64,
        degrees in proptest::collection::vec(0usize..6, 0..24),
        halo_len in 0u32..12,
        salt in 0u64..u64::MAX,
    ) {
        // a random small region: `degrees.len()` interiors, each port
        // pointing at some slot of the region
        let interiors = degrees.len();
        let region_len = interiors + halo_len as usize;
        let mut mix = salt;
        let mut next = move || {
            mix = mix.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            mix >> 17
        };
        let mut region = WireRegion {
            halo_len,
            offsets: vec![0],
            targets: Vec::new(),
            nodes: (0..interiors).map(|_| next() as u32).collect(),
            ids: (0..interiors).map(|_| next()).collect(),
        };
        for degree in degrees {
            for _ in 0..degree {
                region.targets.push((next() % region_len as u64) as u32);
            }
            region.offsets.push(region.targets.len() as u32);
        }
        let setup = SetupFrame {
            part,
            program: "min-id-flood".to_string(),
            spec: root.to_le_bytes().to_vec(),
            region,
            registers: registers(region_len as u64),
        };
        let frame = Frame::Setup(setup.clone());
        assert_round_trip(&frame);
        assert_truncations_are_typed(&frame);
        // what the codec carries is what the worker stages, and staging
        // then snapshotting it again is the identity
        let staged = stage_region::<MinIdFlood>(setup.clone()).expect("a consistent region");
        assert_eq!((staged.interior_len(), staged.region_len()), (interiors, region_len));
        let (csr, contexts) = setup.region.clone().into_parts().expect("a consistent region");
        assert_eq!(WireRegion::from_parts(&csr, &contexts, halo_len as usize), setup.region);
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
            interiors: all((0..states_len * 8).map(|i| (i % 256) as u8).collect()),
        });
        assert_round_trip(&frame);
        assert_truncations_are_typed(&frame);
    }

    #[test]
    fn ascending_index_sets_round_trip_and_apply(
        picks in proptest::collection::vec(0u32..200, 0..48),
        region_len in 200usize..260,
        salt in 0u64..u64::MAX,
    ) {
        // a random ascending index set over a region, through the frame
        // codec and back into a copy of the region
        let mut indices = picks;
        indices.sort_unstable();
        indices.dedup();
        let region: Vec<u64> = (0..region_len as u64).map(|i| i ^ salt).collect();
        let delta = encode_delta::<MinIdFlood, _>(
            region_len,
            indices.iter().map(|&i| (i, &region[i as usize])),
        );
        assert_eq!(delta.count(region_len), indices.len());
        let frame = Frame::Interiors(InteriorsFrame {
            round: salt,
            dispatch: 1,
            compute_ns: 2,
            interiors: delta,
        });
        assert_round_trip(&frame);
        assert_truncations_are_typed(&frame);
        let Ok(Frame::Interiors(reply)) = Frame::decode(&frame.encode()) else {
            panic!("an Interiors frame decodes as one");
        };
        let mut copy = vec![0u64; region_len];
        stage_delta::<MinIdFlood>(reply.interiors, region_len)
            .expect("a delta encoded for the region fits it")
            .apply(&mut copy);
        for (i, &value) in copy.iter().enumerate() {
            let listed = indices.binary_search(&(i as u32)).is_ok();
            assert_eq!(value, if listed { region[i] } else { 0 });
        }
    }

    #[test]
    fn error_frames_round_trip(code in 0u32..u32::MAX, len in 0usize..64) {
        let message: String = (0..len).map(|i| (b'a' + (i % 26) as u8) as char).collect();
        assert_round_trip(&Frame::Error { code, message });
    }
}
