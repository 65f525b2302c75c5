//! A minimal HTTP/1.1 keep-alive client for the load generator.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long one response may take before the request counts as timed out.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// One response.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

impl Reply {
    /// Whether the status is 2xx.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// One keep-alive connection; reconnects after any transport error.
///
/// The socket is non-blocking and a response is awaited by polling
/// (yielding between polls), so a waiting client never lets its core go
/// idle. On a virtual machine an idle core can take hundreds of
/// microseconds to wake, and that wake-up noise would otherwise swamp
/// the latencies being measured.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    out: Vec<u8>,
    inbuf: Vec<u8>,
}

/// The exact bytes of a request, as the server's parser will see them.
pub fn request_bytes(method: &str, path: &str, body: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let _ = write!(
        out,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    out.extend_from_slice(body);
}

impl Conn {
    /// A connection to `addr`, opened lazily.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            out: Vec::with_capacity(4096),
            inbuf: Vec::with_capacity(64 * 1024),
        }
    }

    /// Sends one request and reads its response. A transport error drops
    /// the connection; the next request reconnects.
    ///
    /// # Errors
    ///
    /// Connect, write, read, or timeout failures, and malformed responses.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        request_bytes(method, path, body, &mut self.out);
        let result = self.roundtrip();
        if result.is_err() {
            self.stream = None;
            self.inbuf.clear();
        }
        result
    }

    fn roundtrip(&mut self) -> io::Result<Reply> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, TIMEOUT)?;
            s.set_nodelay(true)?;
            s.set_write_timeout(Some(TIMEOUT))?;
            self.stream = Some(s);
        }
        let stream = self.stream.as_mut().expect("just opened");
        stream.set_nonblocking(false)?;
        stream.write_all(&self.out)?;
        stream.set_nonblocking(true)?;
        let deadline = Instant::now() + TIMEOUT;
        let (status, head_len, length, close) = loop {
            if let Some(head) = parse_head(&self.inbuf)? {
                break head;
            }
            fill(stream, &mut self.inbuf, deadline)?;
        };
        while self.inbuf.len() < head_len + length {
            fill(stream, &mut self.inbuf, deadline)?;
        }
        let body = self.inbuf[head_len..head_len + length].to_vec();
        self.inbuf.drain(..head_len + length);
        if close {
            self.stream = None;
        }
        Ok(Reply { status, body })
    }
}

/// Polls the socket until it yields some bytes.
fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>, deadline: Instant) -> io::Result<()> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                std::thread::yield_now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// `(status, head length, content length, connection: close)` once the
/// buffer holds a whole response head.
fn parse_head(buf: &[u8]) -> io::Result<Option<(u16, usize, usize, bool)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(io::Error::other)?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {status_line:?}")))?;
    let (mut length, mut close) = (0, false);
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(io::Error::other)?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    Ok(Some((status, end + 4, length, close)))
}

/// The raw (still JSON-escaped) value of the first `"code"` string field
/// in a response body. Every body that carries program text puts it in a
/// top-level `code` field, and escaping keeps the pattern out of nested
/// strings.
pub fn code_field(body: &[u8]) -> Option<&[u8]> {
    const KEY: &[u8] = b"\"code\":\"";
    let start = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let mut i = start;
    while i < body.len() {
        match body[i] {
            b'\\' => i += 2,
            b'"' => return Some(&body[start..i]),
            _ => i += 1,
        }
    }
    None
}

/// The `"id"` string field of a `POST /sessions` response.
pub fn id_field(body: &[u8]) -> Option<String> {
    const KEY: &[u8] = b"\"id\":\"";
    let start = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let len = body[start..].iter().position(|&b| b == b'"')?;
    String::from_utf8(body[start..start + len].to_vec()).ok()
}

/// FNV-1a, to keep a fingerprint of each response instead of its bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_found_past_escapes() {
        let body = br#"{"id":"s-1","code":"(svg [\"a\\\"\"])","canvas":{"svg":"\"code\":\"x\""}}"#;
        assert_eq!(code_field(body).unwrap(), br#"(svg [\"a\\\"\"])"#);
        assert_eq!(id_field(body).unwrap(), "s-1");
        assert!(code_field(br#"{"error":"no"}"#).is_none());
    }

    #[test]
    fn response_heads_parse_once_complete() {
        let resp = b"HTTP/1.1 201 Created\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
        assert_eq!(parse_head(&resp[..20]).unwrap(), None);
        assert_eq!(
            parse_head(resp).unwrap(),
            Some((201, resp.len() - 2, 2, true))
        );
        assert!(parse_head(b"garbage\r\n\r\n").is_err());
    }
}
