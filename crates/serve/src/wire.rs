//! Length-prefixed JSON framing.
//!
//! Every message is one JSON document preceded by its UTF-8 byte length
//! as a 4-byte big-endian integer. The format is trivially debuggable
//! (`xxd` shows the length, the rest is plain text), self-delimiting
//! over a byte stream, and needs nothing beyond [`omega_bench::json`].
//!
//! Reads cooperate with shutdown: a reader blocked **between** frames
//! (no header byte consumed yet) returns [`Frame::Cancelled`] once the
//! supplied cancel predicate trips, while a cancel **mid-frame** is a
//! protocol error — the peer walked away half-way through a message.
//! The predicate is only consulted when the underlying stream yields
//! timeout-flavoured errors, so sockets must have a read timeout set
//! for cancellation to be responsive.
//!
//! A whole frame whose body is not a JSON document is
//! [`Frame::Malformed`], not an error: the length prefix still marks
//! where the next frame starts, so a reader can answer it and go on.

use omega_bench::Json;
use omega_core::OmegaError;
use std::io::{ErrorKind, Read, Write};

/// Upper bound on a single frame's body. A run report for the largest
/// in-tree dataset is a few hundred KiB; anything near this cap is a
/// corrupt or hostile length prefix, not a real message.
pub const MAX_FRAME: usize = 16 << 20;

/// One read attempt's outcome.
#[derive(Debug)]
pub enum Frame {
    /// A complete JSON document.
    Doc(Json),
    /// A complete frame whose body is not UTF-8 JSON (or nests past
    /// [`omega_bench::json::MAX_DEPTH`]), as a `protocol` error. The
    /// stream is still on a frame boundary.
    Malformed(OmegaError),
    /// The stream ended cleanly on a frame boundary.
    Eof,
    /// The cancel predicate tripped while idle between frames.
    Cancelled,
}

/// Encodes `doc` as one frame: the 4-byte length prefix, then the body.
/// A body over [`MAX_FRAME`] is refused with a `protocol` error: the peer
/// would have to reject it anyway.
pub fn encode_frame(doc: &Json) -> Result<Vec<u8>, OmegaError> {
    encode_frame_spliced(doc, |_| None)
}

/// [`encode_frame`], with each value of `doc` for which `splice` returns
/// encoded text written as that text ([`Json::write_spliced`]).
pub fn encode_frame_spliced<'t>(
    doc: &Json,
    splice: impl FnMut(&Json) -> Option<&'t str>,
) -> Result<Vec<u8>, OmegaError> {
    // The body (what `Json::dump` gives) is written once, behind a
    // placeholder prefix that is patched once its length is known.
    let mut frame = String::from("\0\0\0\0");
    doc.write_spliced(&mut frame, splice);
    frame.push('\n');
    let len = frame.len() - 4;
    if len > MAX_FRAME {
        return Err(OmegaError::Protocol(format!(
            "frame body of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    let mut frame = frame.into_bytes();
    // Lossless: MAX_FRAME fits in the 4-byte prefix.
    frame[..4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(frame)
}

/// Writes `doc` as one frame ([`encode_frame`]). A refused body writes no
/// byte.
pub fn write_frame(w: &mut impl Write, doc: &Json) -> Result<(), OmegaError> {
    w.write_all(&encode_frame(doc)?)?;
    Ok(w.flush()?)
}

enum Fill {
    Done,
    Eof,
    Cancelled,
}

/// Reads exactly `buf.len()` bytes, tolerating timeouts. `at_boundary`
/// marks whether a clean EOF / cancel is acceptable (true only before
/// the first byte of a frame).
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
    cancel: &impl Fn() -> bool,
) -> Result<Fill, OmegaError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if at_boundary && filled == 0 {
                    Ok(Fill::Eof)
                } else {
                    Err(OmegaError::Protocol("stream ended mid-frame".into()))
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                if cancel() {
                    return if at_boundary && filled == 0 {
                        Ok(Fill::Cancelled)
                    } else {
                        Err(OmegaError::Protocol("cancelled mid-frame".into()))
                    };
                }
            }
            Err(e) => return Err(OmegaError::Io(e)),
        }
    }
    Ok(Fill::Done)
}

/// Reads the next frame. See the module docs for the cancel contract.
pub fn read_frame(r: &mut impl Read, cancel: impl Fn() -> bool) -> Result<Frame, OmegaError> {
    let mut header = [0u8; 4];
    match fill(r, &mut header, true, &cancel)? {
        Fill::Done => {}
        Fill::Eof => return Ok(Frame::Eof),
        Fill::Cancelled => return Ok(Frame::Cancelled),
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(OmegaError::Protocol(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    let mut body = vec![0u8; len];
    match fill(r, &mut body, false, &cancel)? {
        Fill::Done => {}
        // Unreachable: mid-frame EOF/cancel already errored inside fill.
        Fill::Eof | Fill::Cancelled => {
            return Err(OmegaError::Protocol("stream ended mid-frame".into()))
        }
    }
    let Ok(text) = String::from_utf8(body) else {
        return Ok(Frame::Malformed(OmegaError::Protocol(
            "frame body is not UTF-8".into(),
        )));
    };
    Ok(match Json::parse(&text) {
        Ok(doc) => Frame::Doc(doc),
        Err(e) => Frame::Malformed(OmegaError::Protocol(format!("frame body is not JSON: {e}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn never() -> bool {
        false
    }

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut a = Json::obj();
        a.set("x", Json::Num(1.0));
        let b = Json::Arr(vec![Json::Str("two".into()), Json::Bool(true)]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();

        let mut r = Cursor::new(buf);
        let Frame::Doc(got_a) = read_frame(&mut r, never).unwrap() else {
            panic!("expected first doc");
        };
        let Frame::Doc(got_b) = read_frame(&mut r, never).unwrap() else {
            panic!("expected second doc");
        };
        assert_eq!(got_a, a);
        assert_eq!(got_b, b);
        assert!(matches!(read_frame(&mut r, never).unwrap(), Frame::Eof));
    }

    #[test]
    fn oversized_length_prefix_is_a_protocol_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        let err = read_frame(&mut Cursor::new(buf), never).unwrap_err();
        assert_eq!(err.code(), "protocol");
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn oversized_body_is_refused_and_nothing_is_written() {
        let doc = Json::Str("x".repeat(MAX_FRAME));
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &doc).unwrap_err();
        assert_eq!(err.code(), "protocol");
        assert!(err.to_string().contains("cap"), "{err}");
        assert!(buf.is_empty(), "no byte of the refused frame was written");
    }

    #[test]
    fn truncation_is_an_error_and_garbage_a_malformed_frame() {
        // Header promises 8 bytes, stream has 3.
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let err = read_frame(&mut Cursor::new(buf), never).unwrap_err();
        assert_eq!(err.code(), "protocol");

        // Correct length, body is not JSON, then nested past the parser's
        // bound: each is one malformed frame, and the next frame still
        // reads.
        let deep = "[".repeat(100_000);
        let mut buf = Vec::new();
        for body in [b"{{{".as_slice(), deep.as_bytes()] {
            buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
            buf.extend_from_slice(body);
        }
        write_frame(&mut buf, &Json::Null).unwrap();
        let mut r = Cursor::new(buf);
        for _ in 0..2 {
            let Frame::Malformed(err) = read_frame(&mut r, never).unwrap() else {
                panic!("expected a malformed frame");
            };
            assert_eq!(err.code(), "protocol");
        }
        assert!(matches!(
            read_frame(&mut r, never),
            Ok(Frame::Doc(Json::Null))
        ));
    }

    /// Seeded fuzz over the codec: random garbage, bit-flipped valid
    /// frames, and truncations. The invariant is total robustness —
    /// every byte sequence either decodes to frames or fails with a
    /// structured protocol/io error; never a panic, never a hang.
    #[test]
    fn malformed_frame_fuzz_never_panics() {
        use omega_graph::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0xF0CACC1A);

        // A real v2 request frame to mutate.
        let mut doc = Json::obj();
        doc.set("proto", Json::Str("omega-serve/v2".to_string()));
        doc.set("id", Json::Num(7.0));
        doc.set("method", Json::Str("ping".to_string()));
        let mut valid = Vec::new();
        write_frame(&mut valid, &doc).unwrap();

        for round in 0..3000usize {
            let buf: Vec<u8> = match round % 3 {
                // Pure garbage of random length (including empty).
                0 => {
                    let len = rng.gen_range(0usize..96);
                    (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect()
                }
                // The valid frame with 1–7 random bit flips, which can
                // corrupt the length prefix, the UTF-8, or the JSON.
                1 => {
                    let mut b = valid.clone();
                    for _ in 0..rng.gen_range(1usize..8) {
                        let i = rng.gen_range(0usize..b.len());
                        b[i] ^= 1 << rng.gen_range(0u32..8);
                    }
                    b
                }
                // The valid frame truncated at a random point.
                _ => valid[..rng.gen_range(0usize..valid.len())].to_vec(),
            };
            let mut r = Cursor::new(&buf);
            loop {
                match read_frame(&mut r, never) {
                    // A decodable prefix is fine — keep draining, the
                    // cursor is finite so this terminates.
                    Ok(Frame::Doc(_)) => continue,
                    Ok(Frame::Eof) | Ok(Frame::Cancelled) => break,
                    Ok(Frame::Malformed(e)) | Err(e) => {
                        let code = e.code();
                        assert!(
                            code == "protocol" || code == "io",
                            "round {round}: unstructured failure {code}: {e}"
                        );
                        break;
                    }
                }
            }
        }
    }
}
