//! Length-prefixed frame codec shared by every Iris TCP protocol.
//!
//! Every message on the wire is one frame: a 4-byte big-endian length
//! followed by that many bytes of codec payload. Frames are bounded by
//! [`MAX_FRAME_LEN`]; the reader checks the prefix *before* allocating,
//! so a hostile or corrupted length cannot drive an allocation. All
//! fault paths are typed [`IrisError`]s — a truncated prefix, an
//! oversized frame and a payload cut off mid-frame each name exactly
//! what was wrong.
//!
//! ## Trace header
//!
//! A frame may carry an optional 8-byte trace id between the prefix
//! and the payload, announced by [`TRACE_FLAG`] — the top bit of the
//! length prefix, which a legacy frame can never set because
//! [`MAX_FRAME_LEN`] keeps real lengths far below it. The extension
//! is backward compatible in both directions: frames written without
//! a trace id are byte-identical to the legacy format, and
//! [`read_frame`] (the legacy entry point) accepts both forms,
//! discarding the id. Use [`write_frame_traced`]/[`read_frame_traced`]
//! to propagate ids.

use iris_errors::{IrisError, IrisResult};
use std::io::{ErrorKind, Read, Write};

/// Largest accepted frame payload, bytes. Far above any real request or
/// response (a full metrics snapshot is a few KiB) while keeping a
/// malicious length prefix from allocating gigabytes.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Length-prefix bit announcing an 8-byte trace-id header between the
/// prefix and the payload. Disjoint from any legal length: payloads
/// are bounded by [`MAX_FRAME_LEN`] `= 1 << 20`.
pub const TRACE_FLAG: u32 = 1 << 31;

/// One read attempt's outcome on a framed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the stream cleanly between frames.
    Eof,
    /// A read timeout elapsed before any byte of the next frame arrived
    /// (only with a socket read timeout set; callers poll a shutdown
    /// flag and retry).
    Idle,
}

/// Write `payload` as one frame and flush.
///
/// # Errors
///
/// [`IrisError::InvalidInput`] if the payload exceeds [`MAX_FRAME_LEN`];
/// [`IrisError::Io`] on socket failure.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> IrisResult<()> {
    write_frame_traced(w, payload, None)
}

/// Write `payload` as one frame, attaching the trace-id header when
/// `trace_id` is `Some`, and flush. With `None` the wire bytes are
/// identical to the legacy (pre-tracing) format.
///
/// # Errors
///
/// [`IrisError::InvalidInput`] if the payload exceeds [`MAX_FRAME_LEN`];
/// [`IrisError::Io`] on socket failure.
pub fn write_frame_traced<W: Write>(
    w: &mut W,
    payload: &[u8],
    trace_id: Option<u64>,
) -> IrisResult<()> {
    let mut len = checked_len(payload.len())?;
    if trace_id.is_some() {
        len |= TRACE_FLAG;
    }
    let io_err = |e: std::io::Error| IrisError::Io {
        detail: format!("frame write failed: {e}"),
    };
    // Prefix and trace header go out as ONE write: with NODELAY a
    // separate 8-byte write would cost an extra syscall and TCP
    // segment per traced frame.
    match trace_id {
        Some(id) => {
            let mut head = [0u8; 12];
            head[..4].copy_from_slice(&len.to_be_bytes());
            head[4..].copy_from_slice(&id.to_be_bytes());
            w.write_all(&head).map_err(io_err)?;
        }
        None => w.write_all(&len.to_be_bytes()).map_err(io_err)?,
    }
    w.write_all(payload).map_err(io_err)?;
    w.flush().map_err(io_err)
}

/// Read the next frame. A clean EOF between frames is [`FrameEvent::Eof`];
/// a read timeout before the first byte is [`FrameEvent::Idle`]. Once a
/// frame has started, timeouts keep reading (the peer is mid-send) and a
/// disconnect mid-frame is a typed decode error.
///
/// # Errors
///
/// [`IrisError::Decode`] for a truncated length prefix, an oversized
/// announced length (checked before allocating) or a payload cut off
/// mid-frame; [`IrisError::Io`] for other socket failures.
pub fn read_frame<R: Read>(r: &mut R) -> IrisResult<FrameEvent> {
    read_frame_traced(r).map(|(event, _)| event)
}

/// Read the next frame along with its trace id, if the peer attached
/// one. Headerless (legacy) frames decode exactly as before with a
/// `None` id. See [`read_frame`] for the event semantics.
///
/// # Errors
///
/// As [`read_frame`], plus [`IrisError::Decode`] for a frame whose
/// announced trace header is cut off.
pub fn read_frame_traced<R: Read>(r: &mut R) -> IrisResult<(FrameEvent, Option<u64>)> {
    let mut prefix = [0u8; 4];
    match read_fill(r, &mut prefix, true)? {
        Fill::Complete => {}
        Fill::Empty => return Ok((FrameEvent::Eof, None)),
        Fill::Idle => return Ok((FrameEvent::Idle, None)),
        Fill::Partial(got) => {
            return Err(IrisError::Decode {
                detail: format!("truncated length prefix: wanted 4 bytes, got {got}"),
            })
        }
    }
    let raw = u32::from_be_bytes(prefix);
    let traced = raw & TRACE_FLAG != 0;
    let len = (raw & !TRACE_FLAG) as usize;
    if len > MAX_FRAME_LEN {
        // Reject before allocating (or reading a header the peer may
        // never send): the announced length is attacker- or
        // corruption-controlled.
        return Err(IrisError::Decode {
            detail: format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte maximum"),
        });
    }
    let trace_id = if traced {
        let mut header = [0u8; 8];
        match read_fill(r, &mut header, false)? {
            Fill::Complete => {}
            Fill::Empty | Fill::Idle | Fill::Partial(_) => unreachable!("eof_ok is false"),
        }
        Some(u64::from_be_bytes(header))
    } else {
        None
    };
    let mut payload = vec![0u8; len];
    match read_fill(r, &mut payload, false)? {
        Fill::Complete => Ok((FrameEvent::Frame(payload), trace_id)),
        Fill::Empty | Fill::Idle | Fill::Partial(_) => unreachable!("eof_ok is false"),
    }
}

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

/// Try to parse one complete frame from the front of `buf` — the
/// non-blocking twin of [`read_frame_traced`] for event-loop servers
/// that accumulate socket reads in a per-connection buffer. Returns
/// `Ok(None)` while the frame is still incomplete; the same wire format
/// (and the same before-allocation length check) as the blocking
/// reader, so the two interoperate byte-for-byte.
///
/// # Errors
///
/// [`IrisError::Decode`] when the announced length exceeds
/// [`MAX_FRAME_LEN`] — detected as soon as the 4 prefix bytes are
/// present, before the payload is buffered or allocated.
pub fn parse_frame(buf: &[u8]) -> IrisResult<Option<ParsedFrame>> {
    let Some(prefix) = buf.get(..4) else {
        return Ok(None);
    };
    let raw = u32::from_be_bytes(prefix.try_into().expect("4-byte slice"));
    let traced = raw & TRACE_FLAG != 0;
    let len = (raw & !TRACE_FLAG) as usize;
    if len > MAX_FRAME_LEN {
        return Err(IrisError::Decode {
            detail: format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte maximum"),
        });
    }
    let header_len = if traced { 12 } else { 4 };
    let Some(rest) = buf.get(header_len..header_len + len) else {
        return Ok(None);
    };
    let trace_id = traced.then(|| u64::from_be_bytes(buf[4..12].try_into().expect("8-byte slice")));
    Ok(Some(ParsedFrame {
        payload: rest.to_vec(),
        trace_id,
        consumed: header_len + len,
    }))
}

/// Append a length prefix + `payload` (no trace header) to an in-memory
/// write buffer — the event-loop counterpart of [`write_frame`].
///
/// # Errors
///
/// [`IrisError::InvalidInput`] if the payload exceeds [`MAX_FRAME_LEN`]
/// (nothing is appended).
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) -> IrisResult<()> {
    let len = checked_len(payload.len())?;
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Append one frame (no trace header) whose payload `fill` writes
/// straight into `out` — [`append_frame`] without the intermediate
/// payload buffer. The length prefix is reserved first and patched once
/// the payload's size is known.
///
/// # Errors
///
/// Whatever `fill` returns, or [`IrisError::InvalidInput`] if the
/// payload it wrote exceeds [`MAX_FRAME_LEN`]. Either way `out` is
/// truncated back to its length on entry.
pub fn append_frame_with(
    out: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>) -> IrisResult<()>,
) -> IrisResult<()> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    match fill(out).and_then(|()| checked_len(out.len() - start - 4)) {
        Ok(len) => {
            out[start..start + 4].copy_from_slice(&len.to_be_bytes());
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

enum Fill {
    Complete,
    /// EOF before the first byte (only when `eof_ok`).
    Empty,
    /// Timeout before the first byte (only when `eof_ok`).
    Idle,
    /// EOF after `n` bytes (only when `eof_ok`; mid-payload EOF errors).
    Partial(usize),
}

/// Fill `buf`, tolerating interrupted and timed-out reads. With `eof_ok`
/// (the length prefix), a clean EOF or timeout at offset 0 is reported
/// instead of erroring; without it (the payload), any shortfall is a
/// decode error naming the byte counts.
fn read_fill<R: Read>(r: &mut R, buf: &mut [u8], eof_ok: bool) -> IrisResult<Fill> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if eof_ok {
                    return Ok(if got == 0 {
                        Fill::Empty
                    } else {
                        Fill::Partial(got)
                    });
                }
                return Err(IrisError::Decode {
                    detail: format!(
                        "truncated frame payload: wanted {} bytes, got {got}",
                        buf.len()
                    ),
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if eof_ok && got == 0 {
                    return Ok(Fill::Idle);
                }
                // Mid-frame: the peer has started sending; keep waiting.
            }
            Err(e) => {
                return Err(IrisError::Io {
                    detail: format!("frame read failed: {e}"),
                })
            }
        }
    }
    Ok(Fill::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).expect("in-memory write");
        out
    }

    #[test]
    fn round_trips_a_payload() {
        let bytes = frame_bytes(b"{\"Health\":null}");
        let mut r = Cursor::new(bytes);
        assert_eq!(
            read_frame(&mut r).unwrap(),
            FrameEvent::Frame(b"{\"Health\":null}".to_vec())
        );
        assert_eq!(read_frame(&mut r).unwrap(), FrameEvent::Eof);
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        let mut r = Cursor::new(Vec::<u8>::new());
        assert_eq!(read_frame(&mut r).unwrap(), FrameEvent::Eof);
    }

    #[test]
    fn malformed_length_prefix_is_a_decode_error() {
        // Two of the four prefix bytes, then EOF.
        let mut r = Cursor::new(vec![0u8, 1]);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.code(), "decode");
        assert!(err.to_string().contains("length prefix"), "{err}");
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        // Announce 4 GiB-ish; only the 4 prefix bytes are on the wire,
        // so if the reader tried to allocate it would also hang waiting
        // for a payload that never comes.
        let mut bytes = (u32::MAX).to_be_bytes().to_vec();
        bytes.extend_from_slice(b"junk");
        let mut r = Cursor::new(bytes);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.code(), "decode");
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn oversized_write_is_rejected() {
        let mut out = Vec::new();
        let err = write_frame(&mut out, &vec![0u8; MAX_FRAME_LEN + 1]).unwrap_err();
        assert_eq!(err.code(), "invalid-input");
        assert!(out.is_empty(), "nothing written for a rejected frame");
    }

    #[test]
    fn truncated_payload_is_a_decode_error() {
        let mut bytes = frame_bytes(b"hello world");
        bytes.truncate(4 + 5); // prefix + 5 of 11 payload bytes
        let mut r = Cursor::new(bytes);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.code(), "decode");
        let msg = err.to_string();
        assert!(msg.contains("wanted 11"), "{msg}");
        assert!(msg.contains("got 5"), "{msg}");
    }

    #[test]
    fn traced_frame_round_trips_id_and_payload() {
        let mut bytes = Vec::new();
        write_frame_traced(
            &mut bytes,
            b"{\"Health\":null}",
            Some(0xDEAD_BEEF_0042_1337),
        )
        .unwrap();
        assert_eq!(bytes[0] & 0x80, 0x80, "trace flag set in the prefix");
        let mut r = Cursor::new(bytes);
        let (event, trace_id) = read_frame_traced(&mut r).unwrap();
        assert_eq!(event, FrameEvent::Frame(b"{\"Health\":null}".to_vec()));
        assert_eq!(trace_id, Some(0xDEAD_BEEF_0042_1337));
        assert_eq!(read_frame_traced(&mut r).unwrap(), (FrameEvent::Eof, None));
    }

    #[test]
    fn untraced_write_is_byte_identical_to_the_legacy_format() {
        // An old client's frame is exactly [len BE | payload]; the new
        // writer must produce those bytes when no trace id is attached,
        // and both readers must agree on what they mean.
        let payload = b"{\"GetPlan\":null}";
        let mut new_writer = Vec::new();
        write_frame_traced(&mut new_writer, payload, None).unwrap();
        let mut legacy = (payload.len() as u32).to_be_bytes().to_vec();
        legacy.extend_from_slice(payload);
        assert_eq!(new_writer, legacy, "no header, no flag, same bytes");

        let (event, trace_id) = read_frame_traced(&mut Cursor::new(legacy.clone())).unwrap();
        assert_eq!(event, FrameEvent::Frame(payload.to_vec()));
        assert_eq!(trace_id, None, "legacy frames carry no trace id");
        assert_eq!(
            read_frame(&mut Cursor::new(legacy)).unwrap(),
            FrameEvent::Frame(payload.to_vec())
        );
    }

    #[test]
    fn legacy_reader_accepts_traced_frames() {
        // An old server (read_frame) receiving a new client's traced
        // frame sees the same payload; the id is simply discarded.
        let mut bytes = Vec::new();
        write_frame_traced(&mut bytes, b"ping", Some(7)).unwrap();
        assert_eq!(
            read_frame(&mut Cursor::new(bytes)).unwrap(),
            FrameEvent::Frame(b"ping".to_vec())
        );
    }

    #[test]
    fn truncated_trace_header_is_a_decode_error() {
        let mut bytes = Vec::new();
        write_frame_traced(&mut bytes, b"ping", Some(7)).unwrap();
        bytes.truncate(4 + 3); // prefix + 3 of 8 header bytes
        let err = read_frame_traced(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err.code(), "decode");
    }

    #[test]
    fn oversized_traced_length_is_rejected_before_the_header() {
        // A corrupted prefix with the trace flag set and an absurd
        // length must fail on the length check, not stall waiting for
        // a trace header that will never arrive.
        let bytes = (TRACE_FLAG | (MAX_FRAME_LEN as u32 + 1))
            .to_be_bytes()
            .to_vec();
        let err = read_frame_traced(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err.code(), "decode");
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn parse_frame_matches_the_blocking_reader_byte_for_byte() {
        let mut bytes = Vec::new();
        write_frame_traced(&mut bytes, b"traced", Some(0x1122_3344_5566_7788)).unwrap();
        write_frame(&mut bytes, b"plain").unwrap();

        let first = parse_frame(&bytes).unwrap().expect("complete frame");
        assert_eq!(first.payload, b"traced");
        assert_eq!(first.trace_id, Some(0x1122_3344_5566_7788));
        assert_eq!(first.consumed, 12 + 6);

        let second = parse_frame(&bytes[first.consumed..])
            .unwrap()
            .expect("complete frame");
        assert_eq!(second.payload, b"plain");
        assert_eq!(second.trace_id, None);
        assert_eq!(second.consumed, 4 + 5);
        assert_eq!(first.consumed + second.consumed, bytes.len());
    }

    #[test]
    fn parse_frame_waits_on_every_incomplete_prefix() {
        let mut bytes = Vec::new();
        write_frame_traced(&mut bytes, b"payload", Some(9)).unwrap();
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

        let mut oversized = Vec::new();
        let err = append_frame(&mut oversized, &vec![0u8; MAX_FRAME_LEN + 1]).unwrap_err();
        assert_eq!(err.code(), "invalid-input");
        assert!(
            oversized.is_empty(),
            "nothing appended for a rejected frame"
        );
    }

    #[test]
    fn append_frame_with_matches_append_frame_and_truncates_on_error() {
        let mut direct = vec![0xAA];
        append_frame(&mut direct, b"abc").unwrap();
        let mut filled = vec![0xAA];
        append_frame_with(&mut filled, |buf| {
            buf.extend_from_slice(b"abc");
            Ok(())
        })
        .unwrap();
        assert_eq!(filled, direct);

        // A failing fill and an oversized payload both leave `out` as
        // it was on entry.
        let err = append_frame_with(&mut filled, |buf| {
            buf.extend_from_slice(b"partial");
            Err(IrisError::Decode {
                detail: "nope".into(),
            })
        })
        .unwrap_err();
        assert_eq!(err.code(), "decode");
        assert_eq!(filled, direct);
        let err = append_frame_with(&mut filled, |buf| {
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
        bytes.extend(frame_bytes(b"three"));
        let mut r = Cursor::new(bytes);
        assert_eq!(
            read_frame(&mut r).unwrap(),
            FrameEvent::Frame(b"one".to_vec())
        );
        assert_eq!(read_frame(&mut r).unwrap(), FrameEvent::Frame(Vec::new()));
        assert_eq!(
            read_frame(&mut r).unwrap(),
            FrameEvent::Frame(b"three".to_vec())
        );
        assert_eq!(read_frame(&mut r).unwrap(), FrameEvent::Eof);
    }
}
