//! Length-prefixed frame codec shared by every Iris TCP protocol.
//!
//! Every message on the wire is one frame: a 4-byte big-endian length
//! followed by that many bytes of codec payload. Frames are bounded by
//! [`MAX_FRAME_LEN`], checked as soon as the prefix is there, so a
//! hostile or corrupted length cannot drive an allocation.
//!
//! There is one decoder, [`parse_frame`], over bytes already in memory,
//! and one encoder, [`append_frame_with`], into a buffer the caller
//! then writes. This module does no I/O: a non-blocking connection
//! ([`crate::FramedConn`]) fills its buffer when the poller says so, and
//! the one blocking loop ([`crate::client::recv_frame`]) fills its own
//! until the decoder finds a frame.
//!
//! ## Trace header
//!
//! A frame may carry an optional 8-byte trace id between the prefix
//! and the payload, announced by [`TRACE_FLAG`] — the top bit of the
//! length prefix, which a length can never set because
//! [`MAX_FRAME_LEN`] keeps real lengths far below it. A frame written
//! without an id is `[len | payload]` and nothing else; either side of
//! a connection may attach one.

use iris_errors::{IrisError, IrisResult};

/// Largest accepted frame payload, bytes. Far above any real request or
/// response (a full metrics snapshot is a few KiB) while keeping a
/// malicious length prefix from allocating gigabytes.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Length-prefix bit announcing an 8-byte trace-id header between the
/// prefix and the payload. Disjoint from any legal length: payloads
/// are bounded by [`MAX_FRAME_LEN`] `= 1 << 20`.
pub const TRACE_FLAG: u32 = 1 << 31;

/// One frame parsed out of an in-memory read buffer by [`parse_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedFrame {
    /// The frame payload (codec bytes).
    pub payload: Vec<u8>,
    /// The trace id, when the peer attached the 8-byte header.
    pub trace_id: Option<u64>,
    /// Total wire bytes this frame occupied (prefix + header + payload);
    /// the caller advances its buffer by this much.
    pub consumed: usize,
}

/// What a length prefix announces: the bytes before the payload (4, or
/// 12 with a trace id) and the payload's length. `None` until `buf`
/// holds the prefix.
fn header(buf: &[u8]) -> IrisResult<Option<(usize, usize)>> {
    let Some(prefix) = buf.get(..4) else {
        return Ok(None);
    };
    let raw = u32::from_be_bytes(prefix.try_into().expect("4-byte slice"));
    let len = (raw & !TRACE_FLAG) as usize;
    if len > MAX_FRAME_LEN {
        return Err(IrisError::Decode {
            detail: format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte maximum"),
        });
    }
    Ok(Some((if raw & TRACE_FLAG == 0 { 4 } else { 12 }, len)))
}

/// Try to parse one complete frame from the front of `buf`, where a
/// connection accumulates what its socket returns. Returns `Ok(None)`
/// while the frame is still incomplete.
///
/// # Errors
///
/// [`IrisError::Decode`] when the announced length exceeds
/// [`MAX_FRAME_LEN`] — detected as soon as the 4 prefix bytes are
/// present, before the payload is buffered or allocated.
pub fn parse_frame(buf: &[u8]) -> IrisResult<Option<ParsedFrame>> {
    let Some((head, len)) = header(buf)? else {
        return Ok(None);
    };
    let Some(payload) = buf.get(head..head + len) else {
        return Ok(None);
    };
    let trace_id =
        (head == 12).then(|| u64::from_be_bytes(buf[4..12].try_into().expect("8-byte slice")));
    Ok(Some(ParsedFrame {
        payload: payload.to_vec(),
        trace_id,
        consumed: head + len,
    }))
}

/// The error for a stream that ended with `buf`, an incomplete frame,
/// still unparsed.
pub(crate) fn truncated(buf: &[u8]) -> IrisError {
    let detail = match header(buf) {
        Ok(Some((head, len))) => {
            let (wanted, got) = match buf.len().checked_sub(head) {
                Some(got) => (len, got),
                None => (8, buf.len() - 4),
            };
            format!("truncated frame payload: wanted {wanted} bytes, got {got}")
        }
        _ => format!("truncated length prefix: wanted 4 bytes, got {}", buf.len()),
    };
    IrisError::Decode { detail }
}

/// Append a length prefix + `payload` (no trace header) to an in-memory
/// write buffer.
///
/// # Errors
///
/// [`IrisError::InvalidInput`] if the payload exceeds [`MAX_FRAME_LEN`]
/// (nothing is appended).
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) -> IrisResult<()> {
    append_frame_with(out, None, |buf| {
        buf.extend_from_slice(payload);
        Ok(())
    })
}

/// Append one frame whose payload `fill` writes straight into `out`,
/// with `trace` in its header if `Some`. The length prefix is reserved
/// first and patched once the payload's size is known.
///
/// # Errors
///
/// Whatever `fill` returns, or [`IrisError::InvalidInput`] if the
/// payload it wrote exceeds [`MAX_FRAME_LEN`]. Either way `out` is
/// truncated back to its length on entry.
pub fn append_frame_with(
    out: &mut Vec<u8>,
    trace: Option<u64>,
    fill: impl FnOnce(&mut Vec<u8>) -> IrisResult<()>,
) -> IrisResult<()> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    if let Some(id) = trace {
        out.extend_from_slice(&id.to_be_bytes());
    }
    let body = out.len();
    match fill(out).and_then(|()| checked_len(out.len() - body)) {
        Ok(len) => {
            let flag = if trace.is_some() { TRACE_FLAG } else { 0 };
            out[start..start + 4].copy_from_slice(&(len | flag).to_be_bytes());
            Ok(())
        }
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// The length-prefix value for a payload of `len` bytes.
fn checked_len(len: usize) -> IrisResult<u32> {
    if len > MAX_FRAME_LEN {
        return Err(IrisError::InvalidInput {
            detail: format!(
                "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte maximum"
            ),
        });
    }
    Ok(u32::try_from(len).expect("bounded by MAX_FRAME_LEN"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::recv_frame;
    use std::io::Cursor;

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        append_frame(&mut out, payload).expect("in-memory write");
        out
    }

    fn traced_bytes(payload: &[u8], id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        append_frame_with(&mut out, Some(id), |buf| {
            buf.extend_from_slice(payload);
            Ok(())
        })
        .expect("in-memory write");
        out
    }

    /// What the blocking loop makes of a stream that is `bytes`, then EOF.
    fn recv_all(bytes: Vec<u8>) -> IrisResult<Vec<ParsedFrame>> {
        let (mut r, mut buf, mut frames) = (Cursor::new(bytes), Vec::new(), Vec::new());
        while let Some(frame) = recv_frame(&mut r, &mut buf)? {
            frames.push(frame);
        }
        Ok(frames)
    }

    fn payloads(bytes: Vec<u8>) -> Vec<Vec<u8>> {
        let frames = recv_all(bytes).unwrap();
        frames.into_iter().map(|f| f.payload).collect()
    }

    #[test]
    fn round_trips_a_payload() {
        let bytes = frame_bytes(b"{\"Health\":null}");
        assert_eq!(payloads(bytes), [b"{\"Health\":null}"]);
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        assert_eq!(recv_all(Vec::new()).unwrap(), []);
    }

    #[test]
    fn malformed_length_prefix_is_a_decode_error() {
        // Two of the four prefix bytes, then EOF.
        let err = recv_all(vec![0u8, 1]).unwrap_err();
        assert_eq!(err.code(), "decode");
        assert!(err.to_string().contains("length prefix"), "{err}");
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        // Announce 4 GiB-ish; only the 4 prefix bytes are on the wire,
        // so a reader that waited for the payload would never return.
        let mut bytes = (u32::MAX).to_be_bytes().to_vec();
        bytes.extend_from_slice(b"junk");
        let err = recv_all(bytes).unwrap_err();
        assert_eq!(err.code(), "decode");
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn oversized_write_is_rejected() {
        let mut out = Vec::new();
        let err = append_frame(&mut out, &vec![0u8; MAX_FRAME_LEN + 1]).unwrap_err();
        assert_eq!(err.code(), "invalid-input");
        assert!(out.is_empty(), "nothing written for a rejected frame");
    }

    #[test]
    fn truncated_payload_is_a_decode_error() {
        let mut bytes = frame_bytes(b"hello world");
        bytes.truncate(4 + 5); // prefix + 5 of 11 payload bytes
        let err = recv_all(bytes).unwrap_err();
        assert_eq!(err.code(), "decode");
        let msg = err.to_string();
        assert!(msg.contains("wanted 11"), "{msg}");
        assert!(msg.contains("got 5"), "{msg}");
    }

    #[test]
    fn traced_frame_round_trips_id_and_payload() {
        let bytes = traced_bytes(b"{\"Health\":null}", 0xDEAD_BEEF_0042_1337);
        // The header every earlier writer of this format produced:
        // flag | 15, then the id, big-endian.
        let header = [
            0x80, 0, 0, 15, 0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42, 0x13, 0x37,
        ];
        assert_eq!(bytes[..12], header);
        assert_eq!(&bytes[12..], b"{\"Health\":null}");
        let frame = parse_frame(&bytes).unwrap().expect("complete frame");
        assert_eq!(frame.payload, b"{\"Health\":null}");
        assert_eq!(frame.trace_id, Some(0xDEAD_BEEF_0042_1337));
        assert_eq!(recv_all(bytes).unwrap(), [frame]);
    }

    #[test]
    fn untraced_write_is_byte_identical_to_the_legacy_format() {
        // A frame without a trace id is exactly [len BE | payload].
        let payload = b"{\"GetPlan\":null}";
        let mut legacy = (payload.len() as u32).to_be_bytes().to_vec();
        legacy.extend_from_slice(payload);
        assert_eq!(frame_bytes(payload), legacy, "no header, no flag");
        let frame = parse_frame(&legacy).unwrap().expect("complete frame");
        assert_eq!(
            (frame.payload.as_slice(), frame.trace_id),
            (&payload[..], None)
        );
    }

    #[test]
    fn truncated_trace_header_is_a_decode_error() {
        let mut bytes = traced_bytes(b"ping", 7);
        bytes.truncate(4 + 3); // prefix + 3 of 8 header bytes
        let err = recv_all(bytes).unwrap_err();
        assert_eq!(err.code(), "decode");
        assert!(err.to_string().contains("wanted 8 bytes, got 3"), "{err}");
    }

    #[test]
    fn oversized_traced_length_is_rejected_before_the_header() {
        // A corrupted prefix with the trace flag set and an absurd
        // length must fail on the length check, at 4 bytes, not wait
        // for a trace header that will never arrive.
        let bytes = (TRACE_FLAG | (MAX_FRAME_LEN as u32 + 1)).to_be_bytes();
        let err = parse_frame(&bytes).unwrap_err();
        assert_eq!(err.code(), "decode");
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn parse_frame_waits_on_every_incomplete_prefix() {
        let bytes = traced_bytes(b"payload", 9);
        // Every strict prefix of the wire bytes must yield "not yet",
        // never an error or a short payload.
        for cut in 0..bytes.len() {
            assert_eq!(parse_frame(&bytes[..cut]).unwrap(), None, "cut at {cut}");
        }
        assert!(parse_frame(&bytes).unwrap().is_some());
    }

    #[test]
    fn parse_frame_rejects_oversized_lengths_before_buffering() {
        // Only the 4 prefix bytes are present; a parser that deferred
        // the bound check would report "incomplete" and let the peer
        // stream a gigabyte into the connection buffer.
        let bytes = (!TRACE_FLAG).to_be_bytes();
        let err = parse_frame(&bytes).unwrap_err();
        assert_eq!(err.code(), "decode");
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn append_frame_round_trips_through_parse_frame() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"abc").unwrap();
        append_frame(&mut buf, b"").unwrap();
        let a = parse_frame(&buf).unwrap().expect("first frame");
        assert_eq!((a.payload.as_slice(), a.consumed), (&b"abc"[..], 7));
        let b = parse_frame(&buf[a.consumed..]).unwrap().expect("second");
        assert_eq!((b.payload.as_slice(), b.consumed), (&b""[..], 4));
    }

    #[test]
    fn append_frame_with_matches_append_frame_and_truncates_on_error() {
        let mut direct = vec![0xAA];
        append_frame(&mut direct, b"abc").unwrap();
        let mut filled = vec![0xAA];
        append_frame_with(&mut filled, None, |buf| {
            buf.extend_from_slice(b"abc");
            Ok(())
        })
        .unwrap();
        assert_eq!(filled, direct);

        // A failing fill and an oversized payload both leave `out` as
        // it was on entry, trace header or not.
        let err = append_frame_with(&mut filled, Some(1), |buf| {
            buf.extend_from_slice(b"partial");
            Err(IrisError::Decode {
                detail: "nope".into(),
            })
        })
        .unwrap_err();
        assert_eq!(err.code(), "decode");
        assert_eq!(filled, direct);
        let err = append_frame_with(&mut filled, None, |buf| {
            buf.resize(buf.len() + MAX_FRAME_LEN + 1, 0);
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err.code(), "invalid-input");
        assert_eq!(filled, direct);
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let mut bytes = frame_bytes(b"one");
        bytes.extend(frame_bytes(b""));
        bytes.extend(traced_bytes(b"three", 0x1122_3344_5566_7788));
        let wire_len = bytes.len();
        let frames = recv_all(bytes).unwrap();
        let seen = frames.iter().map(|f| (f.payload.as_slice(), f.trace_id));
        let sent: [(&[u8], _); 3] = [
            (b"one", None),
            (b"", None),
            (b"three", Some(0x1122_3344_5566_7788)),
        ];
        assert!(seen.eq(sent), "{frames:?}");
        let consumed: Vec<usize> = frames.iter().map(|f| f.consumed).collect();
        assert_eq!(consumed, [4 + 3, 4, 12 + 5]);
        assert_eq!(consumed.iter().sum::<usize>(), wire_len);
    }
}
