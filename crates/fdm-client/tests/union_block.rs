//! The `MERGE` union block: a worker's retained elements travel to the
//! coordinator bit-exactly, and every malformed block — truncated,
//! corrupted, or a snapshot frame from an older worker — decodes to a
//! typed [`UnionError`], never a panic and never a wrong union.

use fdm_client::protocol::{decode_union, encode_union, parse_line, Request, UnionError};
use fdm_core::persist::{Snapshot, SnapshotFormat};
use fdm_core::point::Element;
use fdm_core::streaming::summary;
use proptest::prelude::*;

/// Coordinates from every class the wire must carry to the bit: arbitrary
/// bit patterns (NaN payloads and infinities included), signed zeros,
/// subnormals and the finite extremes.
fn coordinate() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..=u64::MAX).prop_map(f64::from_bits),
        -1e6f64..1e6,
        Just(-0.0),
        Just(0.0),
        Just(f64::from_bits(1)),
        Just(-f64::MIN_POSITIVE / 2.0),
        Just(f64::MAX),
        Just(-f64::MAX),
    ]
}

fn union() -> impl Strategy<Value = Vec<Element>> {
    (1usize..=64).prop_flat_map(|dim| {
        proptest::collection::vec(
            (
                prop_oneof![0usize..1000, 0usize..=usize::MAX, Just(u64::MAX as usize)],
                prop_oneof![0usize..4, 0usize..=usize::MAX, Just(usize::MAX)],
                proptest::collection::vec(coordinate(), dim),
            ),
            0..=300,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .map(|(id, group, point)| Element::new(id, point, group))
                .collect()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn union_blocks_round_trip_bit_exactly(elements in union()) {
        let decoded = decode_union(&encode_union(&elements)).unwrap();
        prop_assert_eq!(decoded.len(), elements.len());
        for (d, e) in decoded.iter().zip(&elements) {
            prop_assert_eq!(d.id, e.id);
            prop_assert_eq!(d.group, e.group);
            let bits = |x: &Element| x.point.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(d), bits(e));
        }
    }
}

fn small_block() -> Vec<u8> {
    encode_union(&[
        Element::new(7, vec![1.5, -0.0], 0),
        Element::new(3, vec![f64::MAX, 2.0], 1),
        Element::new(11, vec![f64::from_bits(1), -4.25], 1),
    ])
}

#[test]
fn every_truncation_is_a_length_error() {
    let block = small_block();
    assert_eq!(block.len(), 24 + 3 * (16 + 2 * 8) + 4);
    for len in 0..block.len() {
        match decode_union(&block[..len]) {
            Err(UnionError::Length { found, .. }) => assert_eq!(found, len),
            other => panic!("{len} bytes: {other:?}"),
        }
    }
    // A padded block is refused the same way.
    let mut padded = block.clone();
    padded.push(0);
    assert!(matches!(
        decode_union(&padded),
        Err(UnionError::Length { expected, found }) if expected == block.len() && found == padded.len()
    ));
}

#[test]
fn every_flipped_byte_is_a_typed_error() {
    let block = small_block();
    for offset in 0..block.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bad = block.clone();
            bad[offset] ^= mask;
            let err = decode_union(&bad).unwrap_err();
            let expected = match offset {
                0..8 => matches!(err, UnionError::Magic),
                8..24 => matches!(err, UnionError::Length { .. }),
                _ => matches!(err, UnionError::Crc { .. }),
            };
            assert!(expected, "offset {offset} mask {mask:#04x}: {err:?}");
            assert!(!err.to_string().is_empty());
        }
    }
}

#[test]
fn snapshot_frames_and_union_blocks_are_not_each_other() {
    let Some(Request::Open { spec, .. }) =
        parse_line("OPEN jobs sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30").unwrap()
    else {
        panic!("OPEN parses");
    };
    let mut summary = summary::build(&spec.to_summary_spec().unwrap()).unwrap();
    for i in 0..40 {
        let x = (i as f64 * 0.7391).sin() * 9.0;
        let y = (i as f64 * 0.2113).cos() * 9.0;
        summary.insert(&Element::new(i, vec![x, y], i % 2));
    }
    // What a version-3 worker answers MERGE with.
    let frame = summary.snapshot().to_bytes(SnapshotFormat::Binary);
    assert_eq!(&frame[..8], b"FDMSNAP2");
    assert_eq!(decode_union(&frame), Err(UnionError::Magic));
    // What this worker answers MERGE with, read by a version-3 coordinator.
    let block = encode_union(&summary.retained_elements());
    assert!(Snapshot::from_bytes(&block).is_err());
    assert_eq!(
        decode_union(&block).unwrap().len(),
        summary.retained_elements().len()
    );
}
