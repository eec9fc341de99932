//! A minimal blocking HTTP/1.1 client — enough to drive the front door
//! from tests and the CLI without pulling in a real client stack.
//!
//! One function, one exchange: [`exchange`] writes a request on an open
//! stream and reads one `Content-Length`-framed response, so keep-alive
//! reuse is the caller's choice of calling it twice on the same stream.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code from the status line.
    pub status: u16,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Response body (UTF-8; every body this server emits is JSON).
    pub body: String,
}

impl Reply {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Write one request and read one response on an open stream.
///
/// The request leaves in one write with `TCP_NODELAY` set, so its body
/// never waits behind the head for the server's delayed ACK.
pub fn exchange(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<Reply> {
    let body = body.unwrap_or("");
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nhost: aimq\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    request.push_str(body);
    stream.set_nodelay(true)?;
    stream.write_all(request.as_bytes())?;
    stream.flush()?;
    read_reply(stream)
}

/// Connect, perform one exchange, and close.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    exchange(&mut stream, method, path, body)
}

/// Read one framed response from the stream.
fn read_reply(stream: &mut TcpStream) -> io::Result<Reply> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "a 4-byte window matched at pos, so pos + 4 <= buf.len()"
    )]
    let head_len = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed before response head"));
        }
        buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
    };
    let head = std::str::from_utf8(buf.get(..head_len).unwrap_or_default())
        .map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = head.trim_end_matches("\r\n").split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response head"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    let mut content_length: usize = 0;
    for line in lines {
        let (name, value) =
            crate::wire::parse_header_line(line).ok_or_else(|| bad("malformed header"))?;
        if name == "content-length" {
            content_length = value.parse().map_err(|_| bad("bad content-length"))?;
        }
        headers.push((name, value));
    }
    let mut body = buf.get(head_len..).unwrap_or_default().to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        body.extend_from_slice(chunk.get(..n).unwrap_or_default());
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 response body"))?;
    Ok(Reply {
        status,
        headers,
        body,
    })
}
