//! The benchmark's own keep-alive HTTP/1.1 client. It sets `TCP_NODELAY`
//! and writes each request in a single write, so the client adds no
//! Nagle or delayed-ACK stall of its own; whatever stall remains is the
//! server's.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    /// Bytes read past the end of the previous reply.
    buf: Vec<u8>,
}

/// Status and body of one reply.
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
}

/// A complete `POST` request — head and body in one buffer, so it goes
/// out in one write.
pub fn post_request(path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

impl Conn {
    /// Open a connection with Nagle's algorithm off.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Send one pre-framed request and read its reply.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        self.read_reply()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-reply"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let head_len = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_len]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let len = content_length.ok_or_else(|| bad("reply without content-length"))?;
        while self.buf.len() < head_len + len {
            self.fill()?;
        }
        let body = self.buf[head_len..head_len + len].to_vec();
        self.buf.drain(..head_len + len);
        Ok(Reply { status, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn requests_are_one_buffer_with_exact_length() {
        let req = post_request("/indexes/cardb/search", "{\"query\":{}}");
        let text = String::from_utf8(req).unwrap();
        assert!(text.starts_with("POST /indexes/cardb/search HTTP/1.1\r\n"));
        assert!(text.contains("content-length: 12\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"query\":{}}"));
    }

    fn read_head(s: &mut TcpStream) {
        let mut seen = Vec::new();
        let mut byte = [0u8; 1];
        while !seen.ends_with(b"\r\n\r\n") {
            s.read_exact(&mut byte).unwrap();
            seen.push(byte[0]);
        }
    }

    #[test]
    fn keep_alive_replies_split_across_writes_are_framed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            read_head(&mut s);
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhel")
                .unwrap();
            s.flush().unwrap();
            s.write_all(b"lo").unwrap();
            read_head(&mut s);
            s.write_all(b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 2\r\n\r\n{}")
                .unwrap();
        });
        let mut conn = Conn::connect(addr).unwrap();
        let get = b"GET /a HTTP/1.1\r\n\r\n";
        let r1 = conn.exchange(get).unwrap();
        assert_eq!((r1.status, r1.body.as_slice()), (200, &b"hello"[..]));
        let r2 = conn.exchange(get).unwrap();
        assert_eq!((r2.status, r2.body.as_slice()), (429, &b"{}"[..]));
        server.join().unwrap();
    }
}
