//! A minimal loopback HTTP/1.1 client, written against the same wire
//! rules as the server. It exists so tests, the smoke binary, and the
//! benchmark can exercise the server without any external tooling; it
//! speaks keep-alive and reconnects transparently when the server closes
//! a connection.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::read_head;

/// One parsed response.
#[derive(Debug)]
pub struct ClientResponse {
    pub status: u16,
    pub content_type: String,
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The body as UTF-8 (all server responses are text).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("server bodies are UTF-8")
    }
}

/// A keep-alive connection to one server address, read through one
/// buffer for its whole life.
pub struct HttpClient {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    timeout: Duration,
}

impl HttpClient {
    /// A client for `addr`; connections are opened lazily.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, conn: None, timeout: Duration::from_secs(10) }
    }

    /// Issues `GET {target}` (path plus optional query, already encoded)
    /// and reads the full response. Retries once on a fresh connection if
    /// the kept-alive one died.
    pub fn get(&mut self, target: &str) -> std::io::Result<ClientResponse> {
        Ok(self.get_pipelined(&[target])?.remove(0))
    }

    /// Sends a `GET` for every target in one write, then reads the
    /// responses in order; retried once, whole, like [`HttpClient::get`].
    pub fn get_pipelined(&mut self, targets: &[&str]) -> std::io::Result<Vec<ClientResponse>> {
        self.try_get(targets).or_else(|_| {
            // The pooled connection may have been closed between
            // requests (keep-alive budget, server restart): reconnect.
            self.conn = None;
            self.try_get(targets)
        })
    }

    fn try_get(&mut self, targets: &[&str]) -> std::io::Result<Vec<ClientResponse>> {
        let request: String = targets
            .iter()
            .map(|t| format!("GET {t} HTTP/1.1\r\nHost: graft\r\nConnection: keep-alive\r\n\r\n"))
            .collect();
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("just connected");
        conn.get_mut().write_all(request.as_bytes())?;
        // A response that closes the connection before the last one makes
        // the next read fail, and the whole batch is retried.
        let responses =
            targets.iter().map(|_| read_response(conn)).collect::<std::io::Result<Vec<_>>>()?;
        if responses.last().is_some_and(|(_, close)| *close) {
            self.conn = None;
        }
        Ok(responses.into_iter().map(|(response, _)| response).collect())
    }
}

fn bad(why: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_string())
}

/// One response and whether the server said it closes the connection.
fn read_response(conn: &mut dyn BufRead) -> std::io::Result<(ClientResponse, bool)> {
    let head = read_head(conn, 64 * 1024)
        .map_err(|e| bad(&e.to_string()))?
        .ok_or_else(|| bad("connection closed before the response"))?;
    let head = std::str::from_utf8(&head).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(bad("not an HTTP response"));
    }
    let status: u16 =
        parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad status code"))?;

    let mut content_length = 0usize;
    let mut content_type = String::new();
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value.parse().map_err(|_| bad("bad content-length"))?
            }
            "content-type" => content_type = value.to_string(),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }

    let mut body = vec![0u8; content_length];
    conn.read_exact(&mut body)?;
    Ok((ClientResponse { status, content_type, body }, close))
}
