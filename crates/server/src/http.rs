//! A bounded HTTP/1.1 subset, from scratch on `std::io` — nothing HTTP
//! is vendored, and the debug server needs exactly this much: GET/HEAD
//! request lines, headers, optional Content-Length bodies, keep-alive,
//! percent-decoded paths and query strings, and hard caps on head and
//! body size so a misbehaving client cannot balloon a worker thread.

use std::collections::BTreeMap;
use std::io::{BufRead, IoSlice, Write};

/// Default cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Default cap on a request body.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// Why a message could not be read off the wire.
#[derive(Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The bytes on the wire are not a well-formed HTTP/1.1 message.
    Malformed(String),
    /// The head or body exceeded its configured cap.
    TooLarge(String),
    /// The underlying socket failed mid-message.
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(why) => write!(f, "malformed message: {why}"),
            HttpError::TooLarge(why) => write!(f, "message too large: {why}"),
            HttpError::Io(why) => write!(f, "i/o error: {why}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// The method verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// The percent-decoded path, query string stripped.
    pub path: String,
    /// Decoded query parameters in first-wins order.
    pub query: BTreeMap<String, String>,
    /// Header names lowercased, values trimmed.
    pub headers: BTreeMap<String, String>,
    /// The body, when Content-Length said there was one.
    pub body: Vec<u8>,
}

impl Request {
    /// The decoded path split on `/`, empty segments dropped.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// Whether the client asked to keep the connection open: HTTP/1.1
    /// defaults to keep-alive unless `Connection: close` is sent.
    pub fn keep_alive(&self) -> bool {
        !self.headers.get("connection").is_some_and(|c| c.eq_ignore_ascii_case("close"))
    }
}

/// Decodes `%XX` escapes and `+`-as-space (query component form).
pub fn percent_decode(s: &str) -> Result<String, HttpError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| HttpError::Malformed("truncated % escape".into()))?;
                let hex = std::str::from_utf8(hex)
                    .map_err(|_| HttpError::Malformed("non-ascii % escape".into()))?;
                let byte = u8::from_str_radix(hex, 16)
                    .map_err(|_| HttpError::Malformed(format!("bad %% escape %{hex}")))?;
                out.push(byte);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            other => {
                out.push(other);
                i += 1;
            }
        }
    }
    String::from_utf8(out)
        .map_err(|_| HttpError::Malformed("percent-decoded to invalid UTF-8".into()))
}

/// Parses `a=1&b=two` into decoded pairs; the first value wins on
/// duplicate keys, flag-style keys get an empty value.
pub fn parse_query(raw: &str) -> Result<BTreeMap<String, String>, HttpError> {
    let mut out = BTreeMap::new();
    for pair in raw.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k)?, percent_decode(v)?),
            None => (percent_decode(pair)?, String::new()),
        };
        out.entry(key).or_insert(value);
    }
    Ok(out)
}

/// Takes one head off `reader`: the bytes up to and including the first
/// `\r\n\r\n` and none past it, so a pipelined next message stays
/// buffered. `Ok(None)` is EOF before any byte; over `cap` bytes fails.
pub fn read_head(reader: &mut dyn BufRead, cap: usize) -> Result<Option<Vec<u8>>, HttpError> {
    let mut head = Vec::new();
    loop {
        let chunk = reader.fill_buf().map_err(|e| HttpError::Io(e.to_string()))?;
        if chunk.is_empty() && head.is_empty() {
            return Ok(None);
        } else if chunk.is_empty() {
            return Err(HttpError::Malformed("connection closed mid-head".into()));
        }
        let start = head.len();
        head.extend_from_slice(&chunk[..chunk.len().min((cap - start).saturating_add(1))]);
        // The terminator may straddle two chunks: search from 3 bytes back.
        let from = start.saturating_sub(3);
        let end = head[from..].windows(4).position(|w| w == b"\r\n\r\n").map(|at| from + at + 4);
        head.truncate(end.unwrap_or(head.len()));
        reader.consume(head.len() - start);
        if head.len() > cap {
            return Err(HttpError::TooLarge(format!("head exceeds {cap} bytes")));
        } else if end.is_some() {
            return Ok(Some(head));
        }
    }
}

/// Reads one request off `reader`. Returns `Ok(None)` on a clean EOF
/// before any byte (the client closed a kept-alive connection).
pub fn read_request(
    reader: &mut dyn BufRead,
    max_head: usize,
    max_body: usize,
) -> Result<Option<Request>, HttpError> {
    let Some(head) = read_head(reader, max_head)? else { return Ok(None) };
    let head = std::str::from_utf8(&head[..head.len() - 4])
        .map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(format!("bad request line {request_line:?}")));
    };
    if parts.next().is_some() || method.is_empty() || target.is_empty() {
        return Err(HttpError::Malformed(format!("bad request line {request_line:?}")));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
    }

    let mut headers = BTreeMap::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name {name:?}")));
        }
        headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
    }

    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(path_raw)?;
    let query = parse_query(query_raw)?;

    let mut body = Vec::new();
    if let Some(len) = headers.get("content-length") {
        let len: usize =
            len.parse().map_err(|_| HttpError::Malformed(format!("bad content-length {len:?}")))?;
        if len > max_body {
            return Err(HttpError::TooLarge(format!("body of {len} bytes exceeds {max_body}")));
        }
        body.resize(len, 0);
        reader.read_exact(&mut body).map_err(|e| HttpError::Io(e.to_string()))?;
    }

    Ok(Some(Request { method: method.to_string(), path, query, headers, body }))
}

/// One response about to go on the wire.
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The Content-Type header value.
    pub content_type: &'static str,
    /// The body bytes, sent verbatim.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response (the canonical view documents already carry their
    /// trailing newline).
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self { status, content_type: "application/json", body: body.into() }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self { status, content_type: "text/plain; charset=utf-8", body: body.into() }
    }

    /// A JSON error document `{"error": ...}`.
    pub fn error(status: u16, message: &str) -> Self {
        let escaped = serde_json::Value::String(message.to_string());
        Self::json(status, format!("{{\"error\":{escaped}}}\n"))
    }
}

/// The standard reason phrase for the handful of codes the server uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Serializes a response, with `Connection: keep-alive|close` as asked,
/// as one vectored write of head and body (the body is not copied).
pub fn write_response(
    stream: &mut dyn Write,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut slices = [IoSlice::new(head.as_bytes()), IoSlice::new(&response.body)];
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match stream.write_vectored(unsent) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut &raw[..], MAX_HEAD_BYTES, MAX_BODY_BYTES)
    }

    #[test]
    fn parses_request_line_headers_and_query() {
        let req = parse(
            b"GET /jobs/run/ss/3/tabular?q=abc&page=2 HTTP/1.1\r\n\
              Host: localhost\r\nAccept: */*\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/jobs/run/ss/3/tabular");
        assert_eq!(req.segments(), vec!["jobs", "run", "ss", "3", "tabular"]);
        assert_eq!(req.query.get("q").unwrap(), "abc");
        assert_eq!(req.query.get("page").unwrap(), "2");
        assert_eq!(req.headers.get("host").unwrap(), "localhost");
        assert!(req.keep_alive());
    }

    #[test]
    fn percent_decoding_covers_escapes_plus_and_errors() {
        assert_eq!(percent_decode("a%20b%2Fc").unwrap(), "a b/c");
        assert_eq!(percent_decode("1+2").unwrap(), "1 2");
        assert_eq!(percent_decode("plain").unwrap(), "plain");
        assert!(matches!(percent_decode("%2"), Err(HttpError::Malformed(_))));
        assert!(matches!(percent_decode("%zz"), Err(HttpError::Malformed(_))));
        assert!(matches!(percent_decode("%ff"), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn query_strings_decode_with_first_value_winning() {
        let q = parse_query("q=x%3Dy&flag&q=second&empty=").unwrap();
        assert_eq!(q.get("q").unwrap(), "x=y");
        assert_eq!(q.get("flag").unwrap(), "");
        assert_eq!(q.get("empty").unwrap(), "");
        assert!(parse_query("").unwrap().is_empty());
    }

    #[test]
    fn path_percent_escapes_decode_before_routing() {
        let req = parse(b"GET /jobs/my%20job/supersteps HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.segments(), vec!["jobs", "my job", "supersteps"]);
    }

    #[test]
    fn content_length_body_is_read_exactly() {
        let req =
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhellotrailing").unwrap().unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn clean_eof_is_none_and_connection_close_is_honored() {
        assert!(parse(b"").unwrap().is_none());
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-header\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"GET / HTT",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Malformed(_))),
                "{:?} should be malformed",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn oversized_head_and_body_are_413() {
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert!(matches!(parse(huge.as_bytes()), Err(HttpError::TooLarge(_))));
        let big_body = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(parse(big_body.as_bytes()), Err(HttpError::TooLarge(_))));
    }

    const PIPELINED: &[u8] = b"POST /first?a=1 HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc\
        GET /jobs/second%20job/supersteps?q=x HTTP/1.1\r\nHost: two\r\nConnection: close\r\n\r\n";

    /// Reads requests off `reader` until a clean EOF.
    fn parse_all(reader: &mut dyn BufRead) -> Vec<Request> {
        std::iter::from_fn(|| read_request(reader, MAX_HEAD_BYTES, MAX_BODY_BYTES).unwrap())
            .collect()
    }

    fn assert_pipelined_pair(requests: &[Request]) {
        assert_eq!(requests.len(), 2);
        assert_eq!((requests[0].method.as_str(), requests[0].path.as_str()), ("POST", "/first"));
        assert_eq!(requests[0].body, b"abc");
        assert_eq!(requests[0].query.get("a").unwrap(), "1");
        assert_eq!(requests[1].method, "GET");
        assert_eq!(requests[1].segments(), vec!["jobs", "second job", "supersteps"]);
        assert_eq!(requests[1].query.get("q").unwrap(), "x");
        assert_eq!(requests[1].headers.get("host").unwrap(), "two");
        assert!(!requests[1].keep_alive());
    }

    #[test]
    fn pipelined_requests_in_one_buffer_parse_in_order() {
        let mut reader = PIPELINED;
        assert_pipelined_pair(&parse_all(&mut reader));
        assert!(reader.is_empty(), "every byte of both requests is consumed");
    }

    #[test]
    fn pipelined_requests_parse_one_byte_per_read() {
        let mut reader = std::io::BufReader::with_capacity(1, PIPELINED);
        assert_pipelined_pair(&parse_all(&mut reader));
    }

    #[test]
    fn head_cap_holds_in_one_chunk_and_byte_by_byte() {
        let at_cap = |len: usize| {
            let pad = "a".repeat(len - "GET / HTTP/1.1\r\n\r\n".len());
            format!("GET /{pad} HTTP/1.1\r\n\r\n")
        };
        for (len, fits) in [(MAX_HEAD_BYTES, true), (MAX_HEAD_BYTES + 1, false)] {
            let raw = at_cap(len);
            let one_chunk = read_request(&mut raw.as_bytes(), MAX_HEAD_BYTES, MAX_BODY_BYTES);
            let mut bytewise = std::io::BufReader::with_capacity(1, raw.as_bytes());
            let bytewise = read_request(&mut bytewise, MAX_HEAD_BYTES, MAX_BODY_BYTES);
            for result in [one_chunk, bytewise] {
                match fits {
                    true => assert!(matches!(result, Ok(Some(_))), "{len}-byte head fits"),
                    false => assert!(matches!(result, Err(HttpError::TooLarge(_))), "{len} bytes"),
                }
            }
        }
    }

    #[test]
    fn a_head_that_never_ends_stops_at_the_cap() {
        let mut endless = std::io::BufReader::new(std::io::repeat(b'a'));
        assert_eq!(
            read_head(&mut endless, 1000),
            Err(HttpError::TooLarge("head exceeds 1000 bytes".into()))
        );
    }

    /// Takes at most `limit` bytes per write call, and counts the calls.
    struct Trickle {
        wire: Vec<u8>,
        limit: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let start = self.wire.len();
            for buf in bufs {
                let room = self.limit - (self.wire.len() - start);
                self.wire.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.wire.len() - start)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_and_survives_short_writes() {
        let response = Response::json(200, "{\"ok\":true}\n");
        let mut whole = Vec::new();
        write_response(&mut whole, &response, true).unwrap();
        let mut one = Trickle { wire: Vec::new(), limit: usize::MAX, calls: 0 };
        write_response(&mut one, &response, true).unwrap();
        assert_eq!((one.wire.as_slice(), one.calls), (whole.as_slice(), 1));
        // Short writes resume mid-head, across the head/body seam, and
        // mid-body.
        let mut short = Trickle { wire: Vec::new(), limit: 7, calls: 0 };
        write_response(&mut short, &response, true).unwrap();
        assert_eq!((short.wire, short.calls), (whole.clone(), whole.len().div_ceil(7)));
    }

    #[test]
    fn responses_serialize_with_length_and_connection() {
        let mut wire = Vec::new();
        write_response(&mut wire, &Response::json(200, "{\"ok\":true}\n"), true).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 12\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}\n"));

        let mut wire = Vec::new();
        write_response(&mut wire, &Response::error(404, "no such job"), false).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("{\"error\":\"no such job\"}"));
    }
}
