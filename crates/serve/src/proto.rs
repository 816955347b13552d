//! The `safeflow serve` wire protocol: versioned, length-prefixed frames.
//!
//! Every message on the socket is one **frame**: a little-endian `u32`
//! body length followed by that many bytes. Frame bodies start with the
//! protocol version ([`PROTO_VERSION`]); a version the server does not
//! speak yields a [`Status::BadRequest`] response rather than a guess.
//! Bodies are encoded with the same panic-free helpers as the persistent
//! summary store ([`safeflow_util::wire`]), so a truncated, oversized, or
//! garbage frame decodes to `None` — never a server panic.
//!
//! ## Status codes
//!
//! [`Status`] values `0..=4` are exactly the CLI's exit-code contract —
//! a daemon response and a one-shot `safeflow check` of the same inputs
//! agree on both the code and the report bytes. Values `5..` are
//! serve-layer conditions that a one-shot run cannot produce:
//!
//! | status | meaning                                              |
//! |--------|------------------------------------------------------|
//! | 0–2    | clean / warnings-only / errors (or unusable input)   |
//! | 3      | internal error (contained panic degraded the run)    |
//! | 4      | a resource budget (incl. the deadline) was exhausted |
//! | 5      | deadline expired before the request ran (`Timeout`)  |
//! | 6      | admission queue full, request shed (`Overloaded`)    |
//! | 7      | malformed or version-mismatched frame (`BadRequest`) |
//! | 8      | daemon is draining (`ShuttingDown`)                  |

use safeflow_util::wire::{put_str, put_u32, put_u64, put_u8, ByteReader};
use std::io::{Read, Write};

/// Protocol version spoken by this build. Bumped on any frame-layout
/// change; mismatches are answered with [`Status::BadRequest`].
pub const PROTO_VERSION: u32 = 1;

/// Upper bound on a frame body. A length prefix beyond this is treated as
/// a protocol violation and the connection is dropped — load-shed, never
/// OOM on a hostile length field.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Upper bound on the file/path count of one check request. Far above any
/// real program (the monorepo stress corpus is 146 translation units) but
/// low enough that a hostile count can neither balloon an allocation nor
/// wrap the wire's `u32` length fields.
pub const MAX_FILES: usize = 4096;

/// A message that cannot be encoded without corrupting the wire: a length
/// exceeds the format's `u32` field (or the [`MAX_FILES`] cap), so the
/// bare `as u32` cast would silently wrap into a well-formed frame with
/// truncated contents. Callers refuse to send — the server side answers
/// [`Status::BadRequest`] — instead of emitting the malformed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// A string field longer than `u32::MAX` bytes.
    TooLong {
        /// Which field overflowed.
        what: &'static str,
        /// Its length in bytes.
        len: usize,
    },
    /// A sequence with more entries than [`MAX_FILES`].
    TooMany {
        /// Which sequence overflowed.
        what: &'static str,
        /// Its entry count.
        count: usize,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::TooLong { what, len } => {
                write!(f, "{what} is {len} bytes, which exceeds the u32 wire limit")
            }
            EncodeError::TooMany { what, count } => {
                write!(f, "{what} has {count} entries, which exceeds the {MAX_FILES} cap")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// [`put_str`] with the length checked instead of silently wrapped.
fn put_checked_str(out: &mut Vec<u8>, what: &'static str, s: &str) -> Result<(), EncodeError> {
    if s.len() > u32::MAX as usize {
        return Err(EncodeError::TooLong { what, len: s.len() });
    }
    put_str(out, s);
    Ok(())
}

/// A sequence length checked against [`MAX_FILES`] before the cast.
fn put_checked_len(out: &mut Vec<u8>, what: &'static str, n: usize) -> Result<(), EncodeError> {
    if n > MAX_FILES {
        return Err(EncodeError::TooMany { what, count: n });
    }
    put_u32(out, n as u32);
    Ok(())
}

/// Response status (see the module docs for the full table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Status {
    /// Exit code 0: no findings.
    Clean = 0,
    /// Exit code 1: warnings only.
    Warnings = 1,
    /// Exit code 2: errors / violations, or unusable input.
    Errors = 2,
    /// Exit code 3: a contained panic degraded part of the run.
    DegradedFault = 3,
    /// Exit code 4: a resource budget (incl. the deadline) was exhausted
    /// mid-run; the report is conservative for the affected scopes.
    DegradedBudget = 4,
    /// The request's deadline expired before it reached a worker; the
    /// analysis never ran.
    Timeout = 5,
    /// The admission queue was full; the request was shed unexecuted.
    Overloaded = 6,
    /// The frame was malformed, oversized, or version-mismatched.
    #[default]
    BadRequest = 7,
    /// The daemon is draining and accepts no new work.
    ShuttingDown = 8,
}

impl Status {
    /// The status for a completed analysis with CLI exit code `code`.
    pub fn from_exit_code(code: u8) -> Status {
        match code {
            0 => Status::Clean,
            1 => Status::Warnings,
            2 => Status::Errors,
            3 => Status::DegradedFault,
            _ => Status::DegradedBudget,
        }
    }

    fn from_u8(v: u8) -> Option<Status> {
        Some(match v {
            0 => Status::Clean,
            1 => Status::Warnings,
            2 => Status::Errors,
            3 => Status::DegradedFault,
            4 => Status::DegradedBudget,
            5 => Status::Timeout,
            6 => Status::Overloaded,
            7 => Status::BadRequest,
            8 => Status::ShuttingDown,
            _ => return None,
        })
    }

    /// `true` for statuses that carry a completed analysis report
    /// (the `0..=4` exit-code band).
    pub fn is_report(self) -> bool {
        (self as u8) <= 4
    }
}

/// How the daemon produced a check response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum RunKind {
    /// Not a check response (ping, metrics, shed, ...).
    #[default]
    None = 0,
    /// The full pipeline ran (possibly with summary-cache hits).
    Analyzed = 1,
    /// The store's whole-program manifest matched; the report was
    /// replayed without analyzing anything.
    Replayed = 2,
    /// This request was coalesced onto an identical in-flight request
    /// and shares its result.
    Coalesced = 3,
}

impl RunKind {
    fn from_u8(v: u8) -> Option<RunKind> {
        Some(match v {
            0 => RunKind::None,
            1 => RunKind::Analyzed,
            2 => RunKind::Replayed,
            3 => RunKind::Coalesced,
            _ => return None,
        })
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Analyze an inline file set (name → content pairs; `root` names the
    /// root translation unit). Hermetic: the daemon touches no disk paths.
    Check {
        /// Root translation unit (must name one of `files`).
        root: String,
        /// The complete input file set, inline.
        files: Vec<(String, String)>,
        /// Per-request deadline in milliseconds; `0` = the server default.
        deadline_ms: u64,
    },
    /// Analyze on-disk paths (first path is the root). The daemon reads
    /// the files itself; successful roots are registered for `--watch`.
    CheckPaths {
        /// Input file paths; the first is the root translation unit.
        paths: Vec<String>,
        /// Per-request deadline in milliseconds; `0` = the server default.
        deadline_ms: u64,
    },
    /// Liveness probe; answered immediately from the accept thread.
    Ping,
    /// A snapshot of the daemon's metrics registry, as a JSON document.
    Metrics,
    /// Begin a graceful drain: stop admitting, respond once every admitted
    /// check has finished, then exit.
    Shutdown,
}

/// A daemon response.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Response {
    /// Outcome status (see the module table). Defaults to `BadRequest`
    /// only via `Default`, which is never sent.
    pub status: Status,
    /// For report statuses: the rendered report, byte-identical to the
    /// one-shot CLI's stdout for the same inputs. Otherwise a short
    /// human-readable message.
    pub rendered: String,
    /// For report statuses: the `safeflow-report-v1` JSON document (or the
    /// metrics document for [`Request::Metrics`]); empty otherwise.
    pub report_json: String,
    /// How the result was produced.
    pub run: RunKind,
    /// Nanoseconds from the request's admission until its check started.
    pub queue_ns: u64,
    /// Nanoseconds the analysis ran (0 for replays shed, ping, ...).
    pub run_ns: u64,
}

impl Response {
    /// A non-report response: a status plus a short message.
    pub fn message(status: Status, msg: impl Into<String>) -> Response {
        Response { status, rendered: msg.into(), ..Response::default() }
    }
}

// ------------------------------------------------------------- encoding

const KIND_CHECK: u8 = 0;
const KIND_CHECK_PATHS: u8 = 1;
const KIND_PING: u8 = 2;
const KIND_METRICS: u8 = 3;
const KIND_SHUTDOWN: u8 = 4;

/// Encodes `req` as a frame body (no length prefix).
///
/// # Errors
///
/// [`EncodeError`] when a length exceeds the wire's `u32` fields or the
/// file count exceeds [`MAX_FILES`] — the cases a bare cast used to wrap
/// silently into a truncated frame.
pub fn encode_request(req: &Request) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::new();
    put_u32(&mut out, PROTO_VERSION);
    match req {
        Request::Check { root, files, deadline_ms } => {
            put_u8(&mut out, KIND_CHECK);
            put_checked_str(&mut out, "root name", root)?;
            put_checked_len(&mut out, "file set", files.len())?;
            for (name, content) in files {
                put_checked_str(&mut out, "file name", name)?;
                put_checked_str(&mut out, "file content", content)?;
            }
            put_u64(&mut out, *deadline_ms);
        }
        Request::CheckPaths { paths, deadline_ms } => {
            put_u8(&mut out, KIND_CHECK_PATHS);
            put_checked_len(&mut out, "path set", paths.len())?;
            for p in paths {
                put_checked_str(&mut out, "path", p)?;
            }
            put_u64(&mut out, *deadline_ms);
        }
        Request::Ping => put_u8(&mut out, KIND_PING),
        Request::Metrics => put_u8(&mut out, KIND_METRICS),
        Request::Shutdown => put_u8(&mut out, KIND_SHUTDOWN),
    }
    Ok(out)
}

/// Decodes a request frame body. `None` = malformed or wrong version
/// (the caller answers [`Status::BadRequest`]).
pub fn decode_request(body: &[u8]) -> Option<Request> {
    let mut r = ByteReader::new(body);
    if r.u32()? != PROTO_VERSION {
        return None;
    }
    let req = match r.u8()? {
        KIND_CHECK => {
            let root = r.str()?;
            let n = r.seq_len()?;
            if n > MAX_FILES {
                return None;
            }
            let mut files = Vec::with_capacity(n);
            for _ in 0..n {
                files.push((r.str()?, r.str()?));
            }
            Request::Check { root, files, deadline_ms: r.u64()? }
        }
        KIND_CHECK_PATHS => {
            let n = r.seq_len()?;
            if n > MAX_FILES {
                return None;
            }
            let mut paths = Vec::with_capacity(n);
            for _ in 0..n {
                paths.push(r.str()?);
            }
            Request::CheckPaths { paths, deadline_ms: r.u64()? }
        }
        KIND_PING => Request::Ping,
        KIND_METRICS => Request::Metrics,
        KIND_SHUTDOWN => Request::Shutdown,
        _ => return None,
    };
    if !r.done() {
        return None; // trailing garbage
    }
    Some(req)
}

/// Encodes `resp` as a frame body (no length prefix).
///
/// # Errors
///
/// [`EncodeError::TooLong`] when a rendered report exceeds the wire's
/// `u32` length fields (the server substitutes a short error response
/// rather than sending a silently truncated one).
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::new();
    put_u32(&mut out, PROTO_VERSION);
    put_u8(&mut out, resp.status as u8);
    put_checked_str(&mut out, "rendered report", &resp.rendered)?;
    put_checked_str(&mut out, "report JSON", &resp.report_json)?;
    put_u8(&mut out, resp.run as u8);
    put_u64(&mut out, resp.queue_ns);
    put_u64(&mut out, resp.run_ns);
    Ok(out)
}

/// Decodes a response frame body. `None` = malformed or wrong version.
pub fn decode_response(body: &[u8]) -> Option<Response> {
    let mut r = ByteReader::new(body);
    if r.u32()? != PROTO_VERSION {
        return None;
    }
    let status = Status::from_u8(r.u8()?)?;
    let rendered = r.str()?;
    let report_json = r.str()?;
    let run = RunKind::from_u8(r.u8()?)?;
    let queue_ns = r.u64()?;
    let run_ns = r.u64()?;
    if !r.done() {
        return None;
    }
    Some(Response { status, rendered, report_json, run, queue_ns, run_ns })
}

// ---------------------------------------------------------------- frames

/// Reads one length-prefixed frame body from `stream`.
///
/// # Errors
///
/// I/O errors (including read timeouts — the slow-loris guard) pass
/// through; a length prefix over [`MAX_FRAME_LEN`] or EOF mid-body is
/// `InvalidData` (a torn or hostile frame).
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "truncated frame body")
        } else {
            e
        }
    })?;
    Ok(body)
}

/// Writes `body` as one length-prefixed frame.
///
/// # Errors
///
/// `InvalidData` when `body` exceeds [`MAX_FRAME_LEN`] — the cast to the
/// `u32` prefix would otherwise wrap and emit a torn frame the peer
/// misparses at some arbitrary boundary.
pub fn write_frame(stream: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    if body.len() > MAX_FRAME_LEN as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame body of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap", body.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Writes a deliberately **truncated** frame: the length prefix claims the
/// full body but only the first half is sent. This is the
/// [`safeflow_util::fault::FaultSite::ServeFrame`] injection — the
/// client-visible version of a torn wire — used to prove clients detect
/// torn responses and the daemon survives writing them.
pub fn write_truncated_frame(stream: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    if body.len() > MAX_FRAME_LEN as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame body of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap", body.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + body.len() / 2);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body[..body.len() / 2]);
    stream.write_all(&frame)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let body = encode_request(&req).unwrap();
        assert_eq!(decode_request(&body).as_ref(), Some(&req));
        // Every truncation must fail cleanly, never panic.
        for cut in 0..body.len() {
            let _ = decode_request(&body[..cut]);
        }
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Check {
            root: "core.c".into(),
            files: vec![("core.c".into(), "int main() {}".into()), ("h.h".into(), "".into())],
            deadline_ms: 250,
        });
        round_trip_request(Request::CheckPaths {
            paths: vec!["/tmp/a.c".into(), "/tmp/b.c".into()],
            deadline_ms: 0,
        });
    }

    #[test]
    fn responses_round_trip() {
        let resp = Response {
            status: Status::Warnings,
            rendered: "SafeFlow report\n".into(),
            report_json: "{}".into(),
            run: RunKind::Replayed,
            queue_ns: 12,
            run_ns: 34,
        };
        let body = encode_response(&resp).unwrap();
        assert_eq!(decode_response(&body).as_ref(), Some(&resp));
        for cut in 0..body.len() {
            let _ = decode_response(&body[..cut]);
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut body = encode_request(&Request::Ping).unwrap();
        body[0] ^= 1;
        assert_eq!(decode_request(&body), None);
        let mut body = encode_response(&Response::message(Status::Clean, "ok")).unwrap();
        body[0] ^= 1;
        assert_eq!(decode_response(&body), None);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut body = encode_request(&Request::Ping).unwrap();
        body.push(0);
        assert_eq!(decode_request(&body), None);
    }

    /// Regression: `files.len() as u32` used to wrap silently. An
    /// over-the-cap file set must be an [`EncodeError::TooMany`] on the
    /// encode side and a clean `None` (→ `BadRequest`) on the decode side.
    #[test]
    fn oversized_file_set_is_rejected_both_ways() {
        let files: Vec<(String, String)> =
            (0..MAX_FILES + 1).map(|i| (format!("f{i}.c"), String::new())).collect();
        let req = Request::Check { root: "f0.c".into(), files, deadline_ms: 0 };
        assert_eq!(
            encode_request(&req),
            Err(EncodeError::TooMany { what: "file set", count: MAX_FILES + 1 })
        );
        let paths: Vec<String> = (0..MAX_FILES + 1).map(|i| format!("/p/{i}.c")).collect();
        let req = Request::CheckPaths { paths, deadline_ms: 0 };
        let err = encode_request(&req).unwrap_err();
        assert!(matches!(err, EncodeError::TooMany { what: "path set", .. }), "{err}");

        // A hand-built frame claiming an over-the-cap count (with a body
        // large enough that `seq_len`'s plausibility bound passes) must
        // decode to None, never allocate-and-truncate.
        let mut body = Vec::new();
        put_u32(&mut body, PROTO_VERSION);
        put_u8(&mut body, 1); // KIND_CHECK_PATHS
        put_u32(&mut body, (MAX_FILES + 1) as u32);
        body.resize(body.len() + MAX_FILES + 2, 0);
        assert_eq!(decode_request(&body), None);
    }

    #[test]
    fn encode_error_renders_both_variants() {
        let long = EncodeError::TooLong { what: "file content", len: usize::MAX };
        assert!(long.to_string().contains("file content"));
        assert!(long.to_string().contains("u32"));
        let many = EncodeError::TooMany { what: "file set", count: 5000 };
        assert!(many.to_string().contains("5000"));
        assert!(many.to_string().contains(&MAX_FILES.to_string()));
    }

    /// Regression: `body.len() as u32` in the frame writers used to wrap
    /// for >4GiB bodies and emit a torn frame. Anything over the (much
    /// smaller) frame cap is now refused before a byte hits the wire.
    #[test]
    fn over_cap_frame_body_is_refused_by_writers() {
        let body = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(sink.is_empty(), "no partial frame may be written");
        let err = write_truncated_frame(&mut sink, &body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(sink.is_empty());
    }

    #[test]
    fn oversized_frame_length_is_invalid_data() {
        let mut buf: &[u8] = &[0xff, 0xff, 0xff, 0xff];
        let err = read_frame(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_body_is_invalid_data() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        let mut cut: &[u8] = &wire[..wire.len() - 2];
        let err = read_frame(&mut cut).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor: &[u8] = &wire;
        assert_eq!(read_frame(&mut cursor).unwrap(), b"abc");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
    }

    #[test]
    fn statuses_cover_the_exit_code_contract() {
        for code in 0u8..=4 {
            let s = Status::from_exit_code(code);
            assert_eq!(s as u8, code, "status {code} must mirror the exit code");
            assert!(s.is_report());
        }
        assert!(!Status::Timeout.is_report());
        assert!(!Status::Overloaded.is_report());
    }
}
