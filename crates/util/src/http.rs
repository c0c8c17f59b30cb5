//! A minimal HTTP/1.1 codec and blocking client for the `tesa serve`
//! daemon.
//!
//! The workspace is hermetic — no `hyper`, no `reqwest` — so the daemon
//! and its CLI client speak a deliberately small subset of HTTP/1.1 built
//! directly on [`std::net`]:
//!
//! * one request per connection (`Connection: close` on every response);
//! * bodies are delimited by `Content-Length` only (no chunked encoding);
//! * header names are matched case-insensitively, values are trimmed;
//! * message heads ([`MAX_HEAD_BYTES`]) and bodies ([`MAX_BODY_BYTES`])
//!   are capped so a misbehaving client cannot balloon daemon memory;
//! * a message with two different `Content-Length` values is malformed.
//!
//! That subset is enough for `curl`, for [`get`]/[`post`] below, and for
//! the `tesa client` subcommand. Parsing is transport-agnostic: both
//! [`Request::read_from`] and [`Response::read_from`] accept any
//! [`BufRead`], so the codec is unit-testable with [`std::io::Cursor`]
//! and never needs a socket in tests.
//!
//! # Examples
//!
//! ```
//! use tesa_util::http::{Request, Response};
//! use std::io::Cursor;
//!
//! // Parse a request from raw bytes (as the daemon does per connection).
//! let raw = b"POST /evaluate HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}";
//! let req = Request::read_from(&mut Cursor::new(&raw[..])).unwrap();
//! assert_eq!((req.method.as_str(), req.target.as_str()), ("POST", "/evaluate"));
//! assert_eq!(req.body_str().unwrap(), "{}");
//!
//! // Emit a response (as the daemon does) and parse it back (as the
//! // client does).
//! let mut wire = Vec::new();
//! Response::text(200, "ok\n").write_to(&mut wire).unwrap();
//! let resp = Response::read_from(&mut Cursor::new(wire)).unwrap();
//! assert_eq!(resp.status, 200);
//! assert_eq!(resp.body_str().unwrap(), "ok\n");
//! ```

use crate::json::Json;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard cap on accepted message bodies (1 MiB). A `tesa serve` request
/// describes one design point or one annealing campaign — a few hundred
/// bytes — so anything near the cap is garbage or abuse.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Hard cap on a message head: the start line plus every header line,
/// terminators included (16 KiB). `tesa` clients send a few hundred
/// bytes of head; a peer that sends more, or never ends a line, is cut
/// off here instead of growing a line buffer without limit.
pub const MAX_HEAD_BYTES: usize = 16 << 10;

/// Errors from parsing or transporting an HTTP message.
#[derive(Debug)]
pub enum HttpError {
    /// The underlying transport failed (connect, read, or write).
    Io(std::io::Error),
    /// The peer sent bytes that are not the HTTP subset we speak.
    Malformed(String),
    /// The declared `Content-Length` exceeds [`MAX_BODY_BYTES`].
    TooLarge(usize),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "http i/o error: {e}"),
            HttpError::Malformed(why) => write!(f, "malformed http message: {why}"),
            HttpError::TooLarge(n) => {
                write!(f, "http body of {n} bytes exceeds the {MAX_BODY_BYTES}-byte cap")
            }
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// A parsed HTTP request (the daemon's view of one connection).
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercase as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent, e.g. `/evaluate`.
    pub target: String,
    /// Header `(name, value)` pairs in wire order, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// Reads and parses one request from `reader`.
    ///
    /// Expects a request line, headers up to an empty line, and a body of
    /// exactly `Content-Length` bytes (absent header ⇒ empty body, as is
    /// conventional for `GET`). Declared lengths above [`MAX_BODY_BYTES`]
    /// are rejected before any body byte is read, and a head is rejected
    /// as soon as it passes [`MAX_HEAD_BYTES`].
    pub fn read_from<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
        let mut budget = MAX_HEAD_BYTES;
        let line = read_crlf_line(reader, &mut budget)?;
        let mut parts = line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => {
                    (m.to_owned(), t.to_owned(), v)
                }
                _ => {
                    return Err(HttpError::Malformed(format!("bad request line {line:?}")));
                }
            };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
        }
        let headers = read_headers(reader, &mut budget)?;
        let body = read_body(reader, &headers)?;
        Ok(Request { method, target, headers, body })
    }

    /// First value of header `name`, matched case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// The body as UTF-8, or a [`HttpError::Malformed`] if it is not.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|e| HttpError::Malformed(format!("body is not utf-8: {e}")))
    }
}

/// An HTTP response — built by the daemon, parsed by the client.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (`200`, `429`, …).
    pub status: u16,
    /// Header `(name, value)` pairs. `Content-Length` and `Connection`
    /// are appended automatically by [`Response::write_to`].
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response with the given body.
    pub fn text<S: Into<String>>(status: u16, body: S) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".to_owned(), "text/plain".to_owned())],
            body: body.into().into_bytes(),
        }
    }

    /// An `application/json` response whose body is `value` serialized
    /// with a trailing newline — the same framing the one-shot CLI uses
    /// on stdout, so byte-for-byte comparisons against `tesa … --format
    /// json` hold.
    pub fn json(status: u16, value: &Json) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".to_owned(), "application/json".to_owned())],
            body: format!("{value}\n").into_bytes(),
        }
    }

    /// A `text/plain` response carrying a pre-rendered body that must be
    /// transmitted verbatim (e.g. a stored campaign report).
    pub fn raw(status: u16, body: Vec<u8>, content_type: &str) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".to_owned(), content_type.to_owned())],
            body,
        }
    }

    /// Returns `self` with one extra header appended (builder-style).
    ///
    /// ```
    /// use tesa_util::http::Response;
    /// let r = Response::text(429, "queue full\n").with_header("Retry-After", "1");
    /// assert_eq!(r.header("retry-after"), Some("1"));
    /// ```
    pub fn with_header<N: Into<String>, V: Into<String>>(mut self, name: N, value: V) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// First value of header `name`, matched case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// The body as UTF-8, or a [`HttpError::Malformed`] if it is not.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|e| HttpError::Malformed(format!("body is not utf-8: {e}")))
    }

    /// Serializes the response to `writer`: status line, the stored
    /// headers, then `Content-Length` and `Connection: close`, a blank
    /// line, and the body.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<(), HttpError> {
        write!(writer, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status))?;
        for (name, value) in &self.headers {
            write!(writer, "{name}: {value}\r\n")?;
        }
        write!(writer, "Content-Length: {}\r\n", self.body.len())?;
        write!(writer, "Connection: close\r\n\r\n")?;
        writer.write_all(&self.body)?;
        writer.flush()?;
        Ok(())
    }

    /// Reads and parses one response from `reader` (the client side of
    /// [`Response::write_to`]). Accepts only `Content-Length`-delimited
    /// bodies, like the request parser.
    pub fn read_from<R: BufRead>(reader: &mut R) -> Result<Response, HttpError> {
        let mut budget = MAX_HEAD_BYTES;
        let line = read_crlf_line(reader, &mut budget)?;
        let mut parts = line.splitn(3, ' ');
        let (version, status) = match (parts.next(), parts.next()) {
            (Some(v), Some(s)) => (v, s),
            _ => return Err(HttpError::Malformed(format!("bad status line {line:?}"))),
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
        }
        let status: u16 = status
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad status code in {line:?}")))?;
        let headers = read_headers(reader, &mut budget)?;
        let body = read_body(reader, &headers)?;
        Ok(Response { status, headers, body })
    }
}

/// The canonical reason phrase for the status codes the daemon emits
/// (anything unrecognized maps to `"Unknown"`).
///
/// ```
/// assert_eq!(tesa_util::http::reason(429), "Too Many Requests");
/// ```
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Blocking `GET` against `addr` (a `host:port` string), returning the
/// parsed response. Connect/read/write each carry `timeout`.
pub fn get(addr: &str, path: &str, timeout: Duration) -> Result<Response, HttpError> {
    roundtrip(addr, "GET", path, None, timeout)
}

/// Blocking `POST` of `body` (sent as `application/json`) against `addr`,
/// returning the parsed response. Connect/read/write each carry
/// `timeout`.
pub fn post(addr: &str, path: &str, body: &str, timeout: Duration) -> Result<Response, HttpError> {
    roundtrip(addr, "POST", path, Some(body), timeout)
}

fn roundtrip(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<Response, HttpError> {
    let addrs: Vec<_> = std::net::ToSocketAddrs::to_socket_addrs(addr)
        .map_err(|e| HttpError::Malformed(format!("bad address {addr:?}: {e}")))?
        .collect();
    let sock =
        addrs.first().ok_or_else(|| HttpError::Malformed(format!("bad address {addr:?}")))?;
    let mut stream = TcpStream::connect_timeout(sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let body = body.unwrap_or("");
    write!(stream, "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n")?;
    if !body.is_empty() {
        write!(stream, "Content-Type: application/json\r\n")?;
    }
    write!(stream, "Content-Length: {}\r\nConnection: close\r\n\r\n", body.len())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    Response::read_from(&mut reader)
}

/// Reads one CRLF- (or bare-LF-) terminated line, without the terminator,
/// charging its bytes to the head's remaining `budget`.
fn read_crlf_line<R: BufRead>(reader: &mut R, budget: &mut usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    // One byte past the budget tells a line that fits exactly from one
    // that does not.
    let limit = *budget as u64 + 1;
    let n = std::io::Read::take(&mut *reader, limit).read_until(b'\n', &mut line)?;
    if n == 0 {
        return Err(HttpError::Malformed("unexpected end of stream".to_owned()));
    }
    if n > *budget {
        return Err(HttpError::Malformed(format!(
            "message head exceeds the {MAX_HEAD_BYTES}-byte cap"
        )));
    }
    *budget -= n;
    while line.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|e| HttpError::Malformed(format!("head is not utf-8: {e}")))
}

fn read_headers<R: BufRead>(
    reader: &mut R,
    budget: &mut usize,
) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    loop {
        let line = read_crlf_line(reader, budget)?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_owned(), value.trim().to_owned()));
    }
}

fn read_body<R: BufRead>(
    reader: &mut R,
    headers: &[(String, String)],
) -> Result<Vec<u8>, HttpError> {
    let mut declared: Option<usize> = None;
    for (_, v) in headers.iter().filter(|(n, _)| n.eq_ignore_ascii_case("content-length")) {
        let len = v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?;
        if declared.is_some_and(|d| d != len) {
            return Err(HttpError::Malformed("conflicting content-length headers".to_owned()));
        }
        declared = Some(len);
    }
    let Some(declared) = declared else {
        return Ok(Vec::new());
    };
    if declared > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(declared));
    }
    let mut body = vec![0u8; declared];
    reader.read_exact(&mut body)?;
    Ok(body)
}

fn header_lookup<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /screen HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = Request::read_from(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/screen");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn get_without_length_has_empty_body() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n";
        let req = Request::read_from(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_request_line() {
        let raw = b"NOT-HTTP\r\n\r\n";
        assert!(matches!(
            Request::read_from(&mut Cursor::new(&raw[..])),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_declared_body() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(
            Request::read_from(&mut Cursor::new(raw.into_bytes())),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn head_cap_counts_the_request_line_and_every_header() {
        // A head of exactly `len` bytes: the request line, 1 KiB header
        // lines, one shorter header that lands on `len`, the blank line.
        let head = |len: usize| {
            let mut raw = String::from("GET / HTTP/1.1\r\n");
            while len - raw.len() > 1024 + 7 {
                raw.push_str(&format!("X: {}\r\n", "y".repeat(1024 - 5)));
            }
            let last = len - raw.len() - 2;
            raw.push_str(&format!("Z: {}\r\n\r\n", "z".repeat(last - 5)));
            assert_eq!(raw.len(), len);
            Request::read_from(&mut Cursor::new(raw.into_bytes()))
        };
        assert!(head(MAX_HEAD_BYTES).is_ok());
        assert!(matches!(head(MAX_HEAD_BYTES + 1), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn rejects_truncated_body() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(matches!(Request::read_from(&mut Cursor::new(&raw[..])), Err(HttpError::Io(_))));
    }

    #[test]
    fn response_roundtrips_with_json_framing() {
        let value = Json::obj([("ok", Json::Bool(true))]);
        let mut wire = Vec::new();
        Response::json(200, &value).write_to(&mut wire).unwrap();
        let parsed = Response::read_from(&mut Cursor::new(wire)).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.header("content-type"), Some("application/json"));
        assert_eq!(parsed.body_str().unwrap(), "{\"ok\":true}\n");
    }

    #[test]
    fn retry_after_header_survives_roundtrip() {
        let mut wire = Vec::new();
        Response::text(429, "busy\n")
            .with_header("Retry-After", "1")
            .write_to(&mut wire)
            .unwrap();
        let parsed = Response::read_from(&mut Cursor::new(wire)).unwrap();
        assert_eq!(parsed.status, 429);
        assert_eq!(parsed.header("Retry-After"), Some("1"));
    }

    #[test]
    fn reason_phrases_cover_daemon_statuses() {
        for status in [200u16, 400, 404, 405, 409, 429, 500] {
            assert_ne!(reason(status), "Unknown", "status {status}");
        }
        assert_eq!(reason(302), "Unknown");
    }
}
