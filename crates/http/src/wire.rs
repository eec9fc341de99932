//! HTTP/1.1 framing: an incremental request decoder and a response
//! writer, both over plain byte buffers.
//!
//! The subset is deliberate — exactly what the AIMQ wire protocol
//! needs, nothing a generic proxy would want:
//!
//! * requests are framed by `Content-Length` only (no chunked
//!   transfer-encoding; a request that asks for it is refused with a
//!   typed 400);
//! * connections are keep-alive by default (HTTP/1.1 semantics) and
//!   closed on `Connection: close`, framing errors, or server
//!   shutdown;
//! * header blocks are capped at [`MAX_HEADER_BYTES`] and bodies at
//!   [`MAX_BODY_BYTES`], so a hostile peer cannot buffer the server
//!   into the ground.
//!
//! The decoder is *incremental*: the connection loop feeds it whatever
//! bytes the socket produced, and [`Decoder::try_decode`] either frames
//! one complete request, reports that it needs more input, or rejects
//! the stream with a [`FrameError`]. This shape keeps socket timeouts
//! (used to poll the shutdown flag) out of the parsing logic entirely.

use std::fmt;
use std::io::{self, Write};

use aimq_catalog::Json;

/// Cap on the request line + headers of one request.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Cap on one request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One framed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercase as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target with any `?query` suffix removed.
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// `true` when the client asked for the connection to close after
    /// this exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The body as UTF-8, if it is valid UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Why a byte stream could not be framed as a request. Every variant
/// maps to one terminal 400 response; the connection closes after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The request line was not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine,
    /// A header line had no `:` separator.
    BadHeader,
    /// The header block exceeded [`MAX_HEADER_BYTES`].
    HeadersTooLarge,
    /// `Content-Length` was present but not a decimal integer.
    BadContentLength,
    /// The declared body length exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// The request used `Transfer-Encoding`, which this server does not
    /// speak.
    UnsupportedTransferEncoding,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadRequestLine => write!(f, "malformed request line"),
            FrameError::BadHeader => write!(f, "malformed header line"),
            FrameError::HeadersTooLarge => {
                write!(f, "header block exceeds {MAX_HEADER_BYTES} bytes")
            }
            FrameError::BadContentLength => write!(f, "unparseable content-length"),
            FrameError::BodyTooLarge => write!(f, "body exceeds {MAX_BODY_BYTES} bytes"),
            FrameError::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding is not supported; use content-length")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental request decoder: owns the connection's unconsumed bytes.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
}

/// Position of `needle` in `hay`, if present.
fn find_subslice(hay: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || hay.len() < needle.len() {
        return None;
    }
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Parse one `Name: value` header line into a lowercased name and a
/// trimmed value, or `None` when the line has no colon. The single
/// normalization point for both directions of the wire: the server's
/// request decoder and the test client's response reader share it, so
/// header matching (`content-length`, `retry-after`, …) can never
/// disagree on case or whitespace between the two paths.
pub(crate) fn parse_header_line(line: &str) -> Option<(String, String)> {
    let (name, value) = line.split_once(':')?;
    Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
}

impl Decoder {
    /// A fresh decoder with an empty buffer.
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Append bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet framed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Frame one complete request if the buffer holds one.
    ///
    /// `Ok(None)` means "feed me more bytes"; an `Err` is terminal for
    /// the connection (the buffer is in an undefined state afterwards).
    pub fn try_decode(&mut self) -> Result<Option<Request>, FrameError> {
        let head_len = match find_subslice(&self.buf, b"\r\n\r\n") {
            Some(pos) => pos.saturating_add(4),
            None => {
                if self.buf.len() > MAX_HEADER_BYTES {
                    return Err(FrameError::HeadersTooLarge);
                }
                return Ok(None);
            }
        };
        if head_len > MAX_HEADER_BYTES {
            return Err(FrameError::HeadersTooLarge);
        }
        let head = self.buf.get(..head_len).unwrap_or_default();
        let head_text = std::str::from_utf8(head).map_err(|_| FrameError::BadHeader)?;
        let mut lines = head_text.trim_end_matches("\r\n").split("\r\n");

        let request_line = lines.next().ok_or(FrameError::BadRequestLine)?;
        let mut parts = request_line.split(' ');
        let method = parts.next().ok_or(FrameError::BadRequestLine)?;
        let target = parts.next().ok_or(FrameError::BadRequestLine)?;
        let version = parts.next().ok_or(FrameError::BadRequestLine)?;
        if method.is_empty()
            || target.is_empty()
            || parts.next().is_some()
            || !version.starts_with("HTTP/1.")
        {
            return Err(FrameError::BadRequestLine);
        }

        let mut headers = Vec::new();
        let mut content_length: usize = 0;
        for line in lines {
            let (name, value) = parse_header_line(line).ok_or(FrameError::BadHeader)?;
            if name == "content-length" {
                content_length = value.parse().map_err(|_| FrameError::BadContentLength)?;
            }
            if name == "transfer-encoding" {
                return Err(FrameError::UnsupportedTransferEncoding);
            }
            headers.push((name, value));
        }
        if content_length > MAX_BODY_BYTES {
            return Err(FrameError::BodyTooLarge);
        }

        let total = head_len.saturating_add(content_length);
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf.get(head_len..total).unwrap_or_default().to_vec();
        let path = target.split('?').next().unwrap_or(target).to_string();
        let request = Request {
            method: method.to_string(),
            path,
            headers,
            body,
        };
        self.buf.drain(..total);
        Ok(Some(request))
    }
}

/// The machine code of an error body. Each code fixes its status, so a
/// response can never pair a code with the wrong status. DESIGN.md's
/// `| machine code | status |` table documents the set; a unit test
/// holds the table and this enum in step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ErrorCode {
    /// Malformed request body or unframeable request.
    BadRequest,
    /// `PATCH /config` patch rejected by `EngineConfig` validation.
    InvalidConfig,
    /// No route for the method/path pair.
    NotFound,
    /// The `:name` in `/indexes/:name/search` is not the served index.
    UnknownIndex,
    /// Known path, wrong verb.
    MethodNotAllowed,
    /// Admission queue full.
    Overloaded,
    /// An outcome the boundary cannot map (never expected).
    Internal,
    /// The server is draining.
    ShuttingDown,
}

impl ErrorCode {
    /// The HTTP status this code is sent with.
    pub(crate) fn status(self) -> u16 {
        match self {
            ErrorCode::BadRequest | ErrorCode::InvalidConfig => 400,
            ErrorCode::NotFound | ErrorCode::UnknownIndex => 404,
            ErrorCode::MethodNotAllowed => 405,
            ErrorCode::Overloaded => 429,
            ErrorCode::Internal => 500,
            ErrorCode::ShuttingDown => 503,
        }
    }

    /// The code as it appears in the body's `"code"` field.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::InvalidConfig => "invalid_config",
            ErrorCode::NotFound => "not_found",
            ErrorCode::UnknownIndex => "unknown_index",
            ErrorCode::MethodNotAllowed => "method_not_allowed",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }
}

/// One HTTP response, built by the routing layer and serialized by the
/// connection loop.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the always-present `Content-Type`,
    /// `Content-Length`, and `Connection`.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response: the body is `value`'s compact deterministic
    /// serialization.
    pub fn json(status: u16, value: &Json) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: value.to_string_compact().into_bytes(),
        }
    }

    /// The canonical typed error body:
    /// `{"error":{"code":..., "message":...}}`, sent with `code`'s
    /// status.
    pub(crate) fn error(code: ErrorCode, message: &str) -> Response {
        Response::json(
            code.status(),
            &Json::obj(vec![(
                "error",
                Json::obj(vec![
                    ("code", Json::Str(code.as_str().to_string())),
                    ("message", Json::Str(message.to_string())),
                ]),
            )]),
        )
    }

    /// Add a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Standard reason phrase for the status codes this server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialize status line, headers, and body to `w`. `close`
    /// controls the `Connection` header (the caller decides keep-alive
    /// vs drain).
    pub fn write_to(&self, w: &mut impl Write, close: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            Response::reason(self.status),
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every [`ErrorCode`], listed through an exhaustive successor
    /// match: a new variant does not compile until it is chained in.
    fn every_error_code() -> Vec<ErrorCode> {
        let mut codes = Vec::new();
        let mut next = Some(ErrorCode::BadRequest);
        while let Some(code) = next {
            codes.push(code);
            next = match code {
                ErrorCode::BadRequest => Some(ErrorCode::InvalidConfig),
                ErrorCode::InvalidConfig => Some(ErrorCode::NotFound),
                ErrorCode::NotFound => Some(ErrorCode::UnknownIndex),
                ErrorCode::UnknownIndex => Some(ErrorCode::MethodNotAllowed),
                ErrorCode::MethodNotAllowed => Some(ErrorCode::Overloaded),
                ErrorCode::Overloaded => Some(ErrorCode::Internal),
                ErrorCode::Internal => Some(ErrorCode::ShuttingDown),
                ErrorCode::ShuttingDown => None,
            };
        }
        codes
    }

    /// The `(code, status)` rows of DESIGN.md's machine-code table.
    fn design_table(design: &str) -> Vec<(String, u16)> {
        design
            .lines()
            .skip_while(|line| !line.starts_with("| machine code | status |"))
            .skip(2) // header and separator
            .take_while(|line| line.starts_with('|'))
            .map(|row| {
                let cells: Vec<&str> = row.split('|').map(str::trim).collect();
                let code = cells[1].trim_matches('`').to_string();
                let status = cells[2]
                    .parse()
                    .unwrap_or_else(|_| panic!("status is not a number in row {row}"));
                (code, status)
            })
            .collect()
    }

    #[test]
    fn design_table_lists_exactly_the_error_codes() {
        let table = design_table(include_str!("../../../DESIGN.md"));
        let codes: Vec<(String, u16)> = every_error_code()
            .into_iter()
            .map(|code| (code.as_str().to_string(), code.status()))
            .collect();
        for row in &table {
            assert!(
                codes.contains(row),
                "DESIGN.md row {row:?} matches no ErrorCode with that status"
            );
        }
        for code in &codes {
            assert!(
                table.contains(code),
                "ErrorCode {code:?} is missing from the DESIGN.md table"
            );
        }
        assert_eq!(table.len(), codes.len(), "duplicate DESIGN.md rows");
    }

    fn decode_all(bytes: &[u8]) -> Result<Vec<Request>, FrameError> {
        let mut dec = Decoder::new();
        dec.extend(bytes);
        let mut out = Vec::new();
        while let Some(req) = dec.try_decode()? {
            out.push(req);
        }
        Ok(out)
    }

    #[test]
    fn frames_a_simple_get() {
        let reqs = decode_all(b"GET /health HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "GET");
        assert_eq!(reqs[0].path, "/health");
        assert_eq!(reqs[0].header("host"), Some("x"));
        assert!(reqs[0].body.is_empty());
    }

    #[test]
    fn frames_a_post_with_body_and_strips_query_string() {
        let reqs =
            decode_all(b"POST /indexes/cardb/search?x=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].path, "/indexes/cardb/search");
        assert_eq!(reqs[0].body, b"abcd");
    }

    #[test]
    fn pipelined_requests_frame_one_at_a_time() {
        let reqs = decode_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].path, "/a");
        assert_eq!(reqs[1].path, "/b");
    }

    #[test]
    fn partial_input_asks_for_more() {
        let mut dec = Decoder::new();
        dec.extend(b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\n12345");
        assert!(dec.try_decode().unwrap().is_none());
        dec.extend(b"67890");
        let req = dec.try_decode().unwrap().expect("complete");
        assert_eq!(req.body, b"1234567890");
    }

    #[test]
    fn framing_errors_are_typed() {
        assert_eq!(
            decode_all(b"BROKEN\r\n\r\n").unwrap_err(),
            FrameError::BadRequestLine
        );
        assert_eq!(
            decode_all(b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n").unwrap_err(),
            FrameError::BadHeader
        );
        assert_eq!(
            decode_all(b"GET /x HTTP/1.1\r\ncontent-length: seven\r\n\r\n").unwrap_err(),
            FrameError::BadContentLength
        );
        assert_eq!(
            decode_all(b"GET /x HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n").unwrap_err(),
            FrameError::BodyTooLarge
        );
        assert_eq!(
            decode_all(b"GET /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n").unwrap_err(),
            FrameError::UnsupportedTransferEncoding
        );
        let huge = vec![b'a'; MAX_HEADER_BYTES + 2];
        assert_eq!(decode_all(&huge).unwrap_err(), FrameError::HeadersTooLarge);
    }

    #[test]
    fn connection_close_is_detected_case_insensitively() {
        let reqs = decode_all(b"GET /x HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert!(reqs[0].wants_close());
        let reqs = decode_all(b"GET /x HTTP/1.1\r\n\r\n").unwrap();
        assert!(!reqs[0].wants_close());
    }

    #[test]
    fn responses_serialize_with_framing_headers() {
        let resp = Response::json(200, &Json::obj(vec![("ok", Json::Bool(true))]));
        let mut out = Vec::new();
        resp.write_to(&mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));

        let resp = Response::error(ErrorCode::Overloaded, "busy").with_header("retry-after", "1");
        let mut out = Vec::new();
        resp.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("{\"error\":{\"code\":\"overloaded\",\"message\":\"busy\"}}"));
    }
}
