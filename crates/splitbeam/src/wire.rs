//! Bit-packed over-the-air wire format for [`QuantizedFeedback`].
//!
//! The in-memory payload keeps one `u16` per code for fast arithmetic, but a
//! real feedback frame must carry each code at its true width — a 4-bit
//! bottleneck occupies 4 bits per value on the air, not 16. This module is the
//! boundary between the two representations. The current (v2) frame layout is:
//!
//! ```text
//! +---------+---------------+---------+-------------+-----------+-----------+------------------+-----------+
//! | version | bits_per_value|   seq   |  code count |    min    |    max    |   packed codes   |  CRC-32   |
//! |  0xB5   |     u8        |   u16   |     u16     | f32 (BE)  | f32 (BE)  | bpv bits/code,   | u32 (BE)  |
//! |   u8    |               | big-    | big-endian  |  IEEE 754 |  IEEE 754 | MSB first, zero- | over all  |
//! |         |               | endian  |             |           |           | padded to a byte | prior     |
//! |         |               |         |             |           |           |                  | bytes     |
//! +---------+---------------+---------+-------------+-----------+-----------+------------------+-----------+
//! ```
//!
//! The version octet `0xB5` is deliberately outside the `1..=16` range a
//! legacy frame's leading `bits_per_value` octet can take, so the decoder
//! sniffs the first byte and still accepts the pre-versioned
//! `[bpv][count][min][max][codes]` layout (encodable via
//! [`encode_feedback_legacy`]). The CRC-32 (IEEE 802.3, reflected polynomial
//! `0xEDB88320`) covers every byte before the trailer, so a corrupted frame is
//! *detected* and rejected as [`SplitBeamError::CorruptFrame`] instead of
//! being decoded into plausible garbage. The 16-bit sequence number feeds the
//! serving layer's duplicate suppression and retransmission accounting;
//! `seq == 0` marks an unsequenced frame (last-write-wins at the AP).
//!
//! The body reuses the exact MSB-first packing primitives of
//! [`dot11_bfi::bits`], so the SplitBeam payload and the 802.11 compressed
//! beamforming report share one bit-level convention. An explicit code count
//! is carried because the zero-padding of the final byte would otherwise make
//! the number of codes ambiguous for widths that do not divide 8.

use crate::quantization::QuantizedFeedback;
use crate::SplitBeamError;
use dot11_bfi::bits::{BitReader, BitWriter};

/// Version octet opening every v2 frame. Outside `1..=16` so it can never be
/// confused with a legacy frame's leading `bits_per_value` octet.
pub const WIRE_VERSION: u8 = 0xB5;

/// Size of the fixed v2 frame header in bits: version (8) + `bits_per_value`
/// (8) + sequence number (16) + code count (16) + `min` (32) + `max` (32).
pub const WIRE_HEADER_BITS: usize = 8 + 8 + 16 + 16 + 32 + 32;

/// Size of the fixed v2 frame header in bytes.
pub const WIRE_HEADER_BYTES: usize = WIRE_HEADER_BITS / 8;

/// Size of the CRC-32 frame trailer in bits.
pub const WIRE_TRAILER_BITS: usize = 32;

/// Size of the CRC-32 frame trailer in bytes.
pub const WIRE_TRAILER_BYTES: usize = WIRE_TRAILER_BITS / 8;

/// Size of the legacy (pre-versioned) frame header in bits:
/// `bits_per_value` (8) + code count (16) + `min` (32) + `max` (32).
pub const LEGACY_WIRE_HEADER_BITS: usize = 8 + 16 + 32 + 32;

/// Size of the legacy frame header in bytes.
pub const LEGACY_WIRE_HEADER_BYTES: usize = LEGACY_WIRE_HEADER_BITS / 8;

const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC32_TABLES[0]` is the classic bytewise table,
/// and `CRC32_TABLES[t][i]` is the CRC of byte `i` followed by `t` zero
/// bytes, so eight input bytes fold into the register with eight lookups
/// and no serial per-byte dependency.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC32_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE 802.3) over `data` — the same checksum that seals every v2
/// frame. Exposed so tests and fault tooling can re-seal deliberately mutated
/// frames. Slicing-by-8: eight bytes per step, then a bytewise tail.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = u32::MAX;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The bytewise table walk — the oracle [`crc32`] is tested against.
#[cfg(test)]
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut c = u32::MAX;
    for &b in data {
        c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Encodes a quantized payload into its v2 wire representation with an
/// unsequenced (`seq == 0`) header. Equivalent to
/// [`encode_feedback_with_seq`]`(payload, 0)`.
///
/// # Errors
/// Returns [`SplitBeamError::DimensionMismatch`] when `bits_per_value` lies
/// outside `1..=16`, when the payload carries more codes than the 16-bit count
/// field can describe, or when a code does not fit the declared bit width (all
/// indicate a corrupted payload, not a capacity limit of the format per se).
pub fn encode_feedback(payload: &QuantizedFeedback) -> Result<Vec<u8>, SplitBeamError> {
    encode_feedback_with_seq(payload, 0)
}

/// Encodes a quantized payload into a v2 frame carrying the given sequence
/// number (the retransmission layer stamps the attempt index here; `0` means
/// unsequenced).
///
/// # Errors
/// Same contract as [`encode_feedback`].
pub fn encode_feedback_with_seq(
    payload: &QuantizedFeedback,
    seq: u16,
) -> Result<Vec<u8>, SplitBeamError> {
    let bits = check_encodable(payload)?;
    let max_code = ((1u32 << bits) - 1) as u16;
    let mut writer = BitWriter::with_capacity_bits(
        WIRE_HEADER_BITS + payload.codes.len() * bits as usize + WIRE_TRAILER_BITS,
    );
    writer.push(u32::from(WIRE_VERSION), 8);
    writer.push(u32::from(payload.bits_per_value), 8);
    writer.push(u32::from(seq), 16);
    writer.push(payload.codes.len() as u32, 16);
    writer.push(payload.min.to_bits(), 32);
    writer.push(payload.max.to_bits(), 32);
    for (i, &code) in payload.codes.iter().enumerate() {
        if code > max_code {
            return Err(SplitBeamError::DimensionMismatch(format!(
                "code {code} at index {i} does not fit in {bits} bits"
            )));
        }
        writer.push(u32::from(code), bits);
    }
    let mut frame = writer.finish();
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_be_bytes());
    Ok(frame)
}

/// Encodes a quantized payload into the legacy (pre-versioned, CRC-less)
/// `[bpv][count][min][max][codes]` layout. Kept so compatibility with frames
/// from older captures stays testable; new senders should use
/// [`encode_feedback`].
///
/// # Errors
/// Same contract as [`encode_feedback`].
pub fn encode_feedback_legacy(payload: &QuantizedFeedback) -> Result<Vec<u8>, SplitBeamError> {
    let bits = check_encodable(payload)?;
    let max_code = ((1u32 << bits) - 1) as u16;
    let mut writer = BitWriter::with_capacity_bits(
        LEGACY_WIRE_HEADER_BITS + payload.codes.len() * bits as usize,
    );
    writer.push(u32::from(payload.bits_per_value), 8);
    writer.push(payload.codes.len() as u32, 16);
    writer.push(payload.min.to_bits(), 32);
    writer.push(payload.max.to_bits(), 32);
    for (i, &code) in payload.codes.iter().enumerate() {
        if code > max_code {
            return Err(SplitBeamError::DimensionMismatch(format!(
                "code {code} at index {i} does not fit in {bits} bits"
            )));
        }
        writer.push(u32::from(code), bits);
    }
    Ok(writer.finish())
}

fn check_encodable(payload: &QuantizedFeedback) -> Result<u32, SplitBeamError> {
    if !(1..=16).contains(&payload.bits_per_value) {
        return Err(SplitBeamError::DimensionMismatch(format!(
            "bits_per_value {} outside the encodable 1..=16 range",
            payload.bits_per_value
        )));
    }
    if payload.codes.len() > u16::MAX as usize {
        return Err(SplitBeamError::DimensionMismatch(format!(
            "{} codes exceed the wire format's u16 count field",
            payload.codes.len()
        )));
    }
    Ok(u32::from(payload.bits_per_value))
}

/// Decodes a wire frame (v2 or legacy) back into the quantized payload.
///
/// Decoding is exact: the codes and the two range floats are recovered
/// bit-for-bit, so dequantizing the decoded payload yields byte-identical
/// results to dequantizing the original.
///
/// # Errors
/// Returns [`SplitBeamError::CorruptFrame`] when a v2 frame's CRC-32 trailer
/// does not match its contents, and [`SplitBeamError::DimensionMismatch`] when
/// the frame is truncated, opens with an unknown version octet, declares an
/// invalid bit width, carries non-finite range floats, or has trailing bytes
/// beyond the declared code count.
pub fn decode_feedback(frame: &[u8]) -> Result<QuantizedFeedback, SplitBeamError> {
    let mut payload = QuantizedFeedback {
        bits_per_value: 1,
        min: 0.0,
        max: 0.0,
        codes: Vec::new(),
    };
    decode_feedback_into(frame, &mut payload)?;
    Ok(payload)
}

/// Decodes a wire frame (v2 or legacy) into a caller-owned payload, reusing
/// its `codes` buffer (the serving layer's steady-state ingest path — no
/// allocation after the buffer reaches its high-water capacity).
///
/// On error the payload is always left **cleared**: `bits_per_value == 1`,
/// `min == max == 0.0`, and `codes` empty (its capacity is retained for
/// reuse). A failed decode therefore can never leave stale or partially
/// decoded feedback behind.
///
/// # Errors
/// Same contract as [`decode_feedback`].
pub fn decode_feedback_into(
    frame: &[u8],
    payload: &mut QuantizedFeedback,
) -> Result<(), SplitBeamError> {
    let result = decode_inner(frame, payload);
    if result.is_err() {
        payload.bits_per_value = 1;
        payload.min = 0.0;
        payload.max = 0.0;
        payload.codes.clear();
    }
    result
}

fn decode_inner(frame: &[u8], payload: &mut QuantizedFeedback) -> Result<(), SplitBeamError> {
    match frame.first() {
        Some(&WIRE_VERSION) => decode_v2(frame, payload),
        Some(&bpv) if (1..=16).contains(&bpv) => decode_legacy(frame, payload),
        Some(&first) => Err(SplitBeamError::DimensionMismatch(format!(
            "unknown wire frame version octet {first:#04x}"
        ))),
        None => Err(SplitBeamError::DimensionMismatch("empty wire frame".into())),
    }
}

fn decode_v2(frame: &[u8], payload: &mut QuantizedFeedback) -> Result<(), SplitBeamError> {
    let floor = WIRE_HEADER_BYTES + WIRE_TRAILER_BYTES;
    if frame.len() < floor {
        return Err(SplitBeamError::DimensionMismatch(format!(
            "wire frame of {} bytes is shorter than the {floor}-byte v2 header+trailer",
            frame.len()
        )));
    }
    // Verify the CRC before trusting any header field: a corrupted frame must
    // surface as CorruptFrame, never as a misleading field-level error.
    let body = &frame[..frame.len() - WIRE_TRAILER_BYTES];
    let stored = u32::from_be_bytes(
        frame[frame.len() - WIRE_TRAILER_BYTES..]
            .try_into()
            .expect("trailer is exactly four bytes"),
    );
    let computed = crc32(body);
    if stored != computed {
        return Err(SplitBeamError::CorruptFrame(format!(
            "CRC-32 mismatch: trailer {stored:#010x}, contents {computed:#010x}"
        )));
    }
    let mut reader = BitReader::new(body);
    // The length floor above guarantees every header pull succeeds.
    let _version = reader.pull(8).expect("length checked");
    let bits_per_value = reader.pull(8).expect("length checked") as u8;
    let _seq = reader.pull(16).expect("length checked");
    let count = reader.pull(16).expect("length checked") as usize;
    let min = f32::from_bits(reader.pull(32).expect("length checked"));
    let max = f32::from_bits(reader.pull(32).expect("length checked"));
    check_fields(bits_per_value, min, max)?;
    let expected_len = encoded_len(count, bits_per_value);
    if frame.len() != expected_len {
        return Err(SplitBeamError::DimensionMismatch(format!(
            "wire frame is {} bytes, header declares {count} codes x {bits_per_value} bits = {expected_len} bytes",
            frame.len()
        )));
    }
    fill_codes(&mut reader, payload, bits_per_value, min, max, count);
    Ok(())
}

fn decode_legacy(frame: &[u8], payload: &mut QuantizedFeedback) -> Result<(), SplitBeamError> {
    let mut reader = BitReader::new(frame);
    let header_err = || {
        SplitBeamError::DimensionMismatch(format!(
            "wire frame of {} bytes is shorter than the {LEGACY_WIRE_HEADER_BYTES}-byte legacy header",
            frame.len()
        ))
    };
    let bits_per_value = reader.pull(8).ok_or_else(header_err)? as u8;
    let count = reader.pull(16).ok_or_else(header_err)? as usize;
    let min = f32::from_bits(reader.pull(32).ok_or_else(header_err)?);
    let max = f32::from_bits(reader.pull(32).ok_or_else(header_err)?);
    check_fields(bits_per_value, min, max)?;
    let expected_len = legacy_encoded_len(count, bits_per_value);
    if frame.len() != expected_len {
        return Err(SplitBeamError::DimensionMismatch(format!(
            "legacy wire frame is {} bytes, header declares {count} codes x {bits_per_value} bits = {expected_len} bytes",
            frame.len()
        )));
    }
    fill_codes(&mut reader, payload, bits_per_value, min, max, count);
    Ok(())
}

fn check_fields(bits_per_value: u8, min: f32, max: f32) -> Result<(), SplitBeamError> {
    if !(1..=16).contains(&bits_per_value) {
        return Err(SplitBeamError::DimensionMismatch(format!(
            "invalid bits_per_value {bits_per_value} in wire header"
        )));
    }
    if !min.is_finite() || !max.is_finite() {
        return Err(SplitBeamError::DimensionMismatch(
            "non-finite quantization range in wire header".into(),
        ));
    }
    Ok(())
}

fn fill_codes(
    reader: &mut BitReader<'_>,
    payload: &mut QuantizedFeedback,
    bits_per_value: u8,
    min: f32,
    max: f32,
    count: usize,
) {
    payload.bits_per_value = bits_per_value;
    payload.min = min;
    payload.max = max;
    payload.codes.clear();
    // Length was validated by the caller; the bulk pull cannot fail.
    reader
        .pull_u16s_into(u32::from(bits_per_value), count, &mut payload.codes)
        .expect("frame length validated against declared code count");
}

/// Sequence number carried by a v2 frame's header; `0` for legacy frames
/// (which are always unsequenced) and for frames too short to carry one.
pub fn frame_seq(frame: &[u8]) -> u16 {
    if frame.len() >= 4 && frame[0] == WIRE_VERSION {
        u16::from_be_bytes([frame[2], frame[3]])
    } else {
        0
    }
}

/// Rewrites the sequence number of a v2 frame in place and re-seals its
/// CRC-32 trailer. Returns `false` (leaving the frame untouched) for legacy
/// frames or anything too short to be a v2 frame — those stay unsequenced.
pub fn set_frame_seq(frame: &mut [u8], seq: u16) -> bool {
    if frame.len() < WIRE_HEADER_BYTES + WIRE_TRAILER_BYTES || frame[0] != WIRE_VERSION {
        return false;
    }
    frame[2..4].copy_from_slice(&seq.to_be_bytes());
    refresh_crc(frame);
    true
}

/// Recomputes and stores the CRC-32 trailer of a v2 frame after an in-place
/// mutation. Returns `false` (no-op) when the frame is not a v2 frame. Tests
/// and fault tooling use this to craft *validly sealed* hostile frames.
pub fn refresh_crc(frame: &mut [u8]) -> bool {
    if frame.len() < WIRE_HEADER_BYTES + WIRE_TRAILER_BYTES || frame[0] != WIRE_VERSION {
        return false;
    }
    let crc = crc32(&frame[..frame.len() - WIRE_TRAILER_BYTES]);
    let at = frame.len() - WIRE_TRAILER_BYTES;
    frame[at..].copy_from_slice(&crc.to_be_bytes());
    true
}

/// Exact v2 wire frame length in bytes for `count` codes at `bits_per_value`
/// bits, including the CRC-32 trailer.
pub fn encoded_len(count: usize, bits_per_value: u8) -> usize {
    WIRE_HEADER_BYTES + (count * bits_per_value as usize).div_ceil(8) + WIRE_TRAILER_BYTES
}

/// Exact legacy wire frame length in bytes for `count` codes at
/// `bits_per_value` bits.
pub fn legacy_encoded_len(count: usize, bits_per_value: u8) -> usize {
    LEGACY_WIRE_HEADER_BYTES + (count * bits_per_value as usize).div_ceil(8)
}

/// Bytes the pre-wire in-memory representation shipped between crates: one
/// `u16` per code plus the `bits_per_value`/`min`/`max` fields. Kept as the
/// baseline the wire codec is measured against in `serve_report`.
pub fn legacy_repr_bytes(count: usize) -> usize {
    1 + 4 + 4 + 2 * count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantization::{dequantize_bottleneck, quantize_bottleneck};
    use proptest::prelude::*;

    fn sample_values(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.217).sin() * 2.5).collect()
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE 802.3 check value for the standard "123456789" test string.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5EED_C4C3);
        let data: Vec<u8> = (0..512 + 7).map(|_| rng.gen::<u32>() as u8).collect();
        for len in 0..=512 {
            // Every start offset mod 8, so chunk boundaries fall everywhere.
            let start = len % 8;
            let bytes = &data[start..start + len];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len}");
        }
    }

    #[test]
    fn roundtrip_is_bit_exact_for_all_widths() {
        let values = sample_values(77);
        for bits in 1..=16u8 {
            let payload = quantize_bottleneck(&values, bits);
            let frame = encode_feedback(&payload).unwrap();
            assert_eq!(frame.len(), encoded_len(payload.codes.len(), bits));
            assert_eq!(frame.len(), payload.wire_bytes());
            let decoded = decode_feedback(&frame).unwrap();
            assert_eq!(decoded, payload, "bits={bits}");
            assert_eq!(
                dequantize_bottleneck(&decoded),
                dequantize_bottleneck(&payload)
            );
        }
    }

    #[test]
    fn legacy_frames_still_decode() {
        let values = sample_values(77);
        for bits in 1..=16u8 {
            let payload = quantize_bottleneck(&values, bits);
            let frame = encode_feedback_legacy(&payload).unwrap();
            assert_eq!(frame.len(), legacy_encoded_len(payload.codes.len(), bits));
            assert_eq!(decode_feedback(&frame).unwrap(), payload, "bits={bits}");
            assert_eq!(frame_seq(&frame), 0);
        }
    }

    #[test]
    fn four_bit_codes_occupy_four_bits() {
        let payload = quantize_bottleneck(&sample_values(100), 4);
        let frame = encode_feedback(&payload).unwrap();
        assert_eq!(frame.len(), WIRE_HEADER_BYTES + 50 + WIRE_TRAILER_BYTES);
        assert!(frame.len() * 8 < legacy_repr_bytes(100) * 8 / 3);
    }

    #[test]
    fn empty_payload_encodes_to_header_and_trailer_only() {
        let payload = quantize_bottleneck(&[], 8);
        let frame = encode_feedback(&payload).unwrap();
        assert_eq!(frame.len(), WIRE_HEADER_BYTES + WIRE_TRAILER_BYTES);
        assert_eq!(decode_feedback(&frame).unwrap(), payload);
    }

    #[test]
    fn truncated_frames_rejected() {
        let payload = quantize_bottleneck(&sample_values(10), 6);
        let frame = encode_feedback(&payload).unwrap();
        for cut in [0, 3, WIRE_HEADER_BYTES, frame.len() - 1] {
            assert!(
                decode_feedback(&frame[..cut]).is_err(),
                "truncation to {cut} bytes must be rejected"
            );
        }
        let mut padded = frame.clone();
        padded.push(0);
        assert!(decode_feedback(&padded).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let payload = quantize_bottleneck(&sample_values(24), 7);
        let frame = encode_feedback(&payload).unwrap();
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut hostile = frame.clone();
                hostile[byte] ^= 1 << bit;
                let err = decode_feedback(&hostile).expect_err("bit flip must be rejected");
                if byte > 0 {
                    // Anything after the version octet leaves a sniffable v2
                    // frame whose CRC no longer matches.
                    assert!(
                        matches!(err, SplitBeamError::CorruptFrame(_)),
                        "flip at byte {byte} bit {bit}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn crafted_invalid_header_fields_rejected() {
        // A hostile sender can seal arbitrary header fields behind a valid
        // CRC; field validation must still catch them (as DimensionMismatch,
        // since the frame is intact — just inconsistent).
        let payload = quantize_bottleneck(&sample_values(4), 8);
        let mut zero_bpv = encode_feedback(&payload).unwrap();
        zero_bpv[1] = 0;
        refresh_crc(&mut zero_bpv);
        assert!(matches!(
            decode_feedback(&zero_bpv),
            Err(SplitBeamError::DimensionMismatch(_))
        ));
        let mut wide_bpv = encode_feedback(&payload).unwrap();
        wide_bpv[1] = 17;
        refresh_crc(&mut wide_bpv);
        assert!(matches!(
            decode_feedback(&wide_bpv),
            Err(SplitBeamError::DimensionMismatch(_))
        ));
        let mut nan_range = encode_feedback(&payload).unwrap();
        nan_range[6..10].copy_from_slice(&f32::NAN.to_bits().to_be_bytes());
        refresh_crc(&mut nan_range);
        assert!(matches!(
            decode_feedback(&nan_range),
            Err(SplitBeamError::DimensionMismatch(_))
        ));
        // Unknown version octet (not 0xB5, not a legacy bpv).
        let mut bad_version = encode_feedback(&payload).unwrap();
        bad_version[0] = 0x42;
        assert!(decode_feedback(&bad_version).is_err());
    }

    #[test]
    fn sequence_number_roundtrips_and_reseals() {
        let payload = quantize_bottleneck(&sample_values(16), 5);
        let frame = encode_feedback_with_seq(&payload, 3).unwrap();
        assert_eq!(frame_seq(&frame), 3);
        assert_eq!(decode_feedback(&frame).unwrap(), payload);

        let mut patched = encode_feedback(&payload).unwrap();
        assert_eq!(frame_seq(&patched), 0);
        assert!(set_frame_seq(&mut patched, 7));
        assert_eq!(frame_seq(&patched), 7);
        assert_eq!(patched, encode_feedback_with_seq(&payload, 7).unwrap());
        assert_eq!(decode_feedback(&patched).unwrap(), payload);

        let mut legacy = encode_feedback_legacy(&payload).unwrap();
        assert!(
            !set_frame_seq(&mut legacy, 7),
            "legacy frames stay unsequenced"
        );
        assert_eq!(decode_feedback(&legacy).unwrap(), payload);
    }

    #[test]
    fn encode_rejects_out_of_range_bit_width() {
        // Satellite: hand-built payloads with an invalid width must fail with
        // a real error in release builds, not silently mis-pack.
        for bpv in [0u8, 17, 255] {
            let payload = QuantizedFeedback {
                bits_per_value: bpv,
                min: 0.0,
                max: 1.0,
                codes: vec![0, 1],
            };
            assert!(
                matches!(
                    encode_feedback(&payload),
                    Err(SplitBeamError::DimensionMismatch(_))
                ),
                "bpv={bpv}"
            );
            assert!(encode_feedback_legacy(&payload).is_err(), "bpv={bpv}");
        }
    }

    #[test]
    fn failed_decode_clears_payload() {
        // Satellite: every error path must leave the reused payload cleared,
        // never holding stale or partially decoded feedback.
        let good = quantize_bottleneck(&sample_values(12), 9);
        let cleared = QuantizedFeedback {
            bits_per_value: 1,
            min: 0.0,
            max: 0.0,
            codes: Vec::new(),
        };
        let frame = encode_feedback(&good).unwrap();
        let mut corrupt = frame.clone();
        *corrupt.last_mut().unwrap() ^= 0xFF;
        let bad_frames: Vec<Vec<u8>> = vec![
            Vec::new(),                                // empty
            frame[..5].to_vec(),                       // truncated mid-header
            frame[..frame.len() - 1].to_vec(),         // truncated trailer
            corrupt,                                   // CRC mismatch
            vec![0x42; 40],                            // unknown version
            vec![17, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0], // legacy bad bpv
        ];
        for (i, bad) in bad_frames.iter().enumerate() {
            let mut payload = good.clone();
            let capacity = payload.codes.capacity();
            assert!(decode_feedback_into(bad, &mut payload).is_err(), "case {i}");
            assert_eq!(payload, cleared, "case {i}: payload must be cleared");
            assert_eq!(
                payload.codes.capacity(),
                capacity,
                "case {i}: capacity is retained for reuse"
            );
        }
        // And a successful decode into a previously failed buffer still works.
        let mut payload = cleared.clone();
        decode_feedback_into(&frame, &mut payload).unwrap();
        assert_eq!(payload, good);
    }

    #[test]
    fn oversized_code_rejected_at_encode() {
        let mut payload = quantize_bottleneck(&sample_values(4), 4);
        payload.codes[2] = 16; // does not fit in 4 bits
        assert!(encode_feedback(&payload).is_err());
        assert!(encode_feedback_legacy(&payload).is_err());
    }

    #[test]
    fn header_constants_consistent() {
        assert_eq!(WIRE_HEADER_BITS, 112);
        assert_eq!(WIRE_HEADER_BYTES, 14);
        assert_eq!(WIRE_TRAILER_BITS, 32);
        assert_eq!(WIRE_TRAILER_BYTES, 4);
        assert_eq!(LEGACY_WIRE_HEADER_BITS, 88);
        assert_eq!(LEGACY_WIRE_HEADER_BYTES, 11);
        assert_eq!(encoded_len(0, 16), WIRE_HEADER_BYTES + WIRE_TRAILER_BYTES);
        assert_eq!(legacy_encoded_len(0, 16), LEGACY_WIRE_HEADER_BYTES);
        assert_ne!(WIRE_VERSION as usize, 0);
        assert!(!(1..=16).contains(&(WIRE_VERSION as usize)));
    }

    proptest! {
        /// Satellite: quantize → wire-encode → wire-decode → dequantize is
        /// bit-exact with the unencoded path for every width 1..=16, on both
        /// the v2 and legacy layouts.
        #[test]
        fn prop_wire_roundtrip_bit_exact(
            values in proptest::collection::vec(-25.0f32..25.0, 0..96),
            bits in 1u8..17,
            seq in 0u16..=u16::MAX,
        ) {
            let payload = quantize_bottleneck(&values, bits);
            let frame = encode_feedback_with_seq(&payload, seq).unwrap();
            prop_assert_eq!(frame.len(), encoded_len(values.len(), bits));
            prop_assert_eq!(frame_seq(&frame), seq);
            let decoded = decode_feedback(&frame).unwrap();
            prop_assert_eq!(&decoded, &payload);
            let legacy = encode_feedback_legacy(&payload).unwrap();
            prop_assert_eq!(&decode_feedback(&legacy).unwrap(), &payload);
            let direct = dequantize_bottleneck(&payload);
            let via_wire = dequantize_bottleneck(&decoded);
            prop_assert_eq!(direct.len(), via_wire.len());
            for (a, b) in direct.iter().zip(via_wire.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "wire path must be bit-exact");
            }
        }
    }
}
