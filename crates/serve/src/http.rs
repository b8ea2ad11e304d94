//! Hand-rolled HTTP/1.1: incremental request parsing and response
//! writing for the server, and the client-side mirror (request formatting,
//! incremental response-head parsing) for every in-repo client.
//!
//! Deliberately small: request line + headers + `Content-Length` bodies,
//! keep-alive, and the handful of status codes the service emits. No
//! chunked transfer encoding, no multipart — the API is JSON-in/JSON-out.
//!
//! Parsing is *incremental by construction*: [`parse_request`] takes
//! whatever bytes have arrived so far and either produces a complete
//! request (plus how many bytes it consumed, so pipelined requests queue
//! up behind it in the same buffer), asks for more bytes, or rejects the
//! stream. The reactor's connection state machine calls it after every
//! nonblocking read, so a request split across arbitrary TCP segment
//! boundaries — or dribbled in one byte at a time — parses identically
//! to one delivered whole. Byte budgets on the head and body bound
//! memory per connection.

use std::io::{self, Write};

use softwatt_obs::push_json_string;

/// Per-request byte budgets.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers together.
    pub max_head_bytes: usize,
    /// Maximum body bytes (larger declared bodies are refused with `413`).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method, as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path, no authority).
    pub target: String,
    /// Whether the request declared HTTP/1.1 (governs keep-alive default).
    pub http11: bool,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection must close after this request: explicit
    /// `Connection: close`, or HTTP/1.0 without `keep-alive`.
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => !self.http11,
        }
    }
}

/// Why a byte stream cannot become a request. Fatal for the connection:
/// after any of these the stream cannot be re-synchronized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The declared body exceeds [`Limits::max_body_bytes`] (send `413`).
    BodyTooLarge,
    /// Anything else unparsable, including a head that outgrows
    /// [`Limits::max_head_bytes`] without terminating (send `400`).
    Malformed(&'static str),
}

/// Tries to parse one request from the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when a complete request is
/// available (`consumed` bytes of `buf` belong to it, leading blank
/// lines included — RFC 9112 §2.2 tolerates them, and they count toward
/// [`Limits::max_head_bytes`]); `Ok(None)` when the bytes so far are a
/// valid *prefix* and more must arrive; an error when the stream can
/// never become a request.
///
/// # Errors
///
/// [`ParseError`] as above; the connection must be closed after
/// reporting it.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Option<(Request, usize)>, ParseError> {
    // Skip optional blank lines before the request line. They count
    // toward the head budget, so a peer streaming nothing but blank lines
    // is refused like one streaming an endless header.
    let mut start = 0;
    loop {
        if buf[start..].starts_with(b"\r\n") {
            start += 2;
        } else if buf[start..].starts_with(b"\n") {
            start += 1;
        } else {
            break;
        }
    }

    let Some(head_end) = find_head_end(buf, start, limits, "request head too large")? else {
        return Ok(None);
    };
    let head_text = std::str::from_utf8(&buf[start..head_end])
        .map_err(|_| ParseError::Malformed("non-UTF-8 request head"))?;
    let mut lines = head_text
        .split('\n')
        .map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || !target.starts_with('/') {
        return Err(ParseError::Malformed("bad request line"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseError::Malformed("unsupported HTTP version")),
    };

    let mut req = Request {
        method,
        target,
        http11,
        headers: header_fields(lines)?,
        body: Vec::new(),
    };
    if req.header("transfer-encoding").is_some() {
        return Err(ParseError::Malformed("chunked bodies are not supported"));
    }
    let body_len = match req.header("content-length") {
        None => 0,
        Some(len) => {
            let len: usize = len
                .parse()
                .map_err(|_| ParseError::Malformed("bad content-length"))?;
            if len > limits.max_body_bytes {
                return Err(ParseError::BodyTooLarge);
            }
            len
        }
    };
    if buf.len() < head_end + body_len {
        return Ok(None);
    }
    req.body = buf[head_end..head_end + body_len].to_vec();
    Ok(Some((req, head_end + body_len)))
}

/// The end of the head that starts at `buf[start..]`: the offset in `buf`
/// just past the empty line that terminates it. `Ok(None)` while it is
/// unterminated and `buf` is still within [`Limits::max_head_bytes`];
/// `too_large` once `buf` through the head outgrows the budget,
/// terminated or not. The bytes before `start` count too, so a peer
/// streaming one endless line, or endless blank lines ahead of one, costs
/// at most the budget.
fn find_head_end(
    buf: &[u8],
    start: usize,
    limits: &Limits,
    too_large: &'static str,
) -> Result<Option<usize>, ParseError> {
    // Find the empty line terminating the head: scan line by line.
    let mut head_end = None; // offset past the terminating empty line
    let mut line_start = start;
    for (i, &b) in buf.iter().enumerate().skip(start) {
        if b != b'\n' {
            continue;
        }
        let line = &buf[line_start..i];
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if line.is_empty() {
            head_end = Some(i + 1);
            break;
        }
        line_start = i + 1;
    }
    let Some(head_end) = head_end else {
        if buf.len() > limits.max_head_bytes {
            return Err(ParseError::Malformed(too_large));
        }
        return Ok(None);
    };
    if head_end > limits.max_head_bytes {
        return Err(ParseError::Malformed(too_large));
    }
    Ok(Some(head_end))
}

/// `name: value` header lines up to the empty line, names lower-cased.
fn header_fields<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<(String, String)>, ParseError> {
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::Malformed("bad header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(headers)
}

/// One request as a client sends it: a single buffer, so one write puts
/// it on the wire (a write per fragment would let Nagle hold the tail for
/// a delayed ACK).
pub fn format_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: softwatt\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A parsed response head: what a client needs to frame the body behind
/// it.
#[derive(Debug)]
pub struct ResponseHead {
    /// HTTP status code.
    pub status: u16,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Bytes of status line, headers and terminating empty line; the body
    /// starts here.
    pub head_len: usize,
    /// The declared `Content-Length`. It comes from the peer: read the
    /// body by bytes received, never allocate it up front.
    pub content_length: u64,
}

impl ResponseHead {
    /// First header with the given lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the server closes the connection after this response.
    pub fn closes(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Tries to parse a response head from the front of `buf`: the client
/// side of [`parse_request`], with the same incremental contract.
/// `Ok(Some(head))` once the head is complete, `Ok(None)` while the bytes
/// so far are a valid prefix within [`Limits::max_head_bytes`], and an
/// error for bytes that can never become a response head — including a
/// head that outgrows the budget without terminating.
///
/// # Errors
///
/// [`ParseError::Malformed`] as above; the connection cannot be
/// re-synchronized after it.
pub fn parse_response_head(
    buf: &[u8],
    limits: &Limits,
) -> Result<Option<ResponseHead>, ParseError> {
    let Some(head_end) = find_head_end(buf, 0, limits, "response head too large")? else {
        return Ok(None);
    };
    let head_text = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ParseError::Malformed("non-UTF-8 response head"))?;
    let mut lines = head_text
        .split('\n')
        .map(|l| l.strip_suffix('\r').unwrap_or(l));
    let mut status_line = lines.next().unwrap_or("").split(' ');
    if !status_line.next().unwrap_or("").starts_with("HTTP/1.") {
        return Err(ParseError::Malformed("bad status line"));
    }
    let status = status_line
        .next()
        .and_then(|code| code.parse().ok())
        .ok_or(ParseError::Malformed("bad status line"))?;
    let mut head = ResponseHead {
        status,
        headers: header_fields(lines)?,
        head_len: head_end,
        content_length: 0,
    };
    head.content_length = head
        .header("content-length")
        .ok_or(ParseError::Malformed("missing content-length"))?
        .parse()
        .map_err(|_| ParseError::Malformed("bad content-length"))?;
    Ok(Some(head))
}

/// One response: status, JSON body, the optional `Retry-After` the
/// backpressure path sets on `503`s, and the admission lane that served
/// it (surfaced as `X-Softwatt-Lane` so clients — and `loadgen`'s
/// per-class tallies — can tell a warm hit from a cold simulation).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: String,
    /// Raw-bytes body for binary endpoints (the trace-transfer route).
    /// When set it replaces `body` on the wire and the `Content-Type`
    /// becomes `application/octet-stream`.
    pub binary: Option<Vec<u8>>,
    /// Seconds for a `Retry-After` header, if any.
    pub retry_after: Option<u32>,
    /// Lane label for the `X-Softwatt-Lane` header, if any.
    pub lane: Option<&'static str>,
    /// Where the answer's trace came from (`local` | `peer` | `sim`),
    /// surfaced as `X-Softwatt-Source` so cluster tests can audit the
    /// fabric without scraping metrics.
    pub source: Option<&'static str>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            binary: None,
            retry_after: None,
            lane: None,
            source: None,
        }
    }

    /// A binary (`application/octet-stream`) response.
    pub fn binary(status: u16, bytes: Vec<u8>) -> Response {
        let mut r = Response::json(status, String::new());
        r.binary = Some(bytes);
        r
    }

    /// A structured JSON error: `{"error": {"code", "message"}}`.
    pub fn error(status: u16, code: &str, message: &str) -> Response {
        let mut body = String::from("{\"error\": {\"code\": ");
        push_json_string(&mut body, code);
        body.push_str(", \"message\": ");
        push_json_string(&mut body, message);
        body.push_str("}}");
        Response::json(status, body)
    }

    /// The overload response: `503` with a `Retry-After`.
    pub fn overloaded(retry_after_s: u32) -> Response {
        let mut r = Response::error(503, "overloaded", "request queue is full; retry shortly");
        r.retry_after = Some(retry_after_s);
        r
    }

    /// Tags the response with the lane that produced it.
    #[must_use]
    pub fn with_lane(mut self, lane: &'static str) -> Response {
        self.lane = Some(lane);
        self
    }

    /// Tags the response with its trace source (`local`/`peer`/`sim`).
    #[must_use]
    pub fn with_source(mut self, source: &'static str) -> Response {
        self.source = Some(source);
        self
    }
}

/// Reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes `resp`, flagging the connection `close` or `keep-alive`. The
/// reactor writes into a `Vec<u8>` connection buffer (infallible); tests
/// write into sockets directly.
pub fn write_response<W: Write>(w: &mut W, resp: &Response, close: bool) -> io::Result<()> {
    let (content_type, payload): (&str, &[u8]) = match &resp.binary {
        Some(bytes) => ("application/octet-stream", bytes),
        None => ("application/json", resp.body.as_bytes()),
    };
    write!(
        w,
        "HTTP/1.1 {} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        resp.status,
        reason(resp.status),
        payload.len()
    )?;
    if let Some(secs) = resp.retry_after {
        write!(w, "Retry-After: {secs}\r\n")?;
    }
    if let Some(lane) = resp.lane {
        write!(w, "X-Softwatt-Lane: {lane}\r\n")?;
    }
    if let Some(source) = resp.source {
        write!(w, "X-Softwatt-Source: {source}\r\n")?;
    }
    write!(
        w,
        "Connection: {}\r\n\r\n",
        if close { "close" } else { "keep-alive" }
    )?;
    w.write_all(payload)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Option<(Request, usize)>, ParseError> {
        parse_request(raw.as_bytes(), &Limits::default())
    }

    fn parse_complete(raw: &str) -> Request {
        let (req, consumed) = parse(raw).expect("parses").expect("complete");
        assert_eq!(consumed, raw.len(), "whole input consumed");
        req
    }

    #[test]
    fn parses_get_with_headers() {
        let req = parse_complete("GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: Close\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert!(req.http11);
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.wants_close());
    }

    #[test]
    fn parses_post_with_body_and_lf_lines() {
        let req = parse_complete("POST /v1/run HTTP/1.1\nContent-Length: 4\n\nabcd");
        assert_eq!(req.body, b"abcd");
        assert!(!req.wants_close(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = parse_complete("GET / HTTP/1.0\r\n\r\n");
        assert!(req.wants_close());
    }

    #[test]
    fn every_prefix_is_incomplete_never_an_error() {
        let raw = "POST /v1/run HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        for cut in 0..raw.len() {
            assert!(
                matches!(parse(&raw[..cut]), Ok(None)),
                "prefix of {cut} bytes must ask for more"
            );
        }
        assert!(parse(raw).unwrap().is_some());
    }

    #[test]
    fn pipelined_requests_consume_exactly_one() {
        let raw = "GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let (first, consumed) = parse(raw).unwrap().unwrap();
        assert_eq!(first.target, "/healthz");
        let rest = &raw[consumed..];
        let (second, consumed2) = parse(rest).unwrap().unwrap();
        assert_eq!(second.target, "/metrics");
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn leading_blank_lines_are_consumed() {
        let raw = "\r\n\nGET / HTTP/1.1\r\n\r\n";
        let (req, consumed) = parse(raw).unwrap().unwrap();
        assert_eq!(req.target, "/");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse("garbage\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/2.0\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn body_over_limit_is_too_large_before_the_body_arrives() {
        let limits = Limits {
            max_body_bytes: 3,
            ..Limits::default()
        };
        // The verdict lands as soon as the head declares the length —
        // no need to buffer (or even receive) the oversized payload.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\n";
        let err = parse_request(raw, &limits).unwrap_err();
        assert_eq!(err, ParseError::BodyTooLarge);
    }

    #[test]
    fn unterminated_head_over_limit_is_malformed() {
        let limits = Limits {
            max_head_bytes: 32,
            ..Limits::default()
        };
        let raw = format!("GET /{} HTTP/1.1\r\n", "x".repeat(64));
        let err = parse_request(raw.as_bytes(), &limits).unwrap_err();
        assert!(matches!(err, ParseError::Malformed(_)));
        // Under the budget and unterminated: still just incomplete.
        assert!(matches!(parse_request(b"GET / HT", &limits), Ok(None)));
        // Leading blank lines count toward the budget: alone...
        let blank = "\r\n".repeat(17);
        assert_eq!(
            parse_request(blank.as_bytes(), &limits).unwrap_err(),
            ParseError::Malformed("request head too large")
        );
        // ...and ahead of a request that fits the budget by itself.
        let short = "GET / HTTP/1.1\r\n\r\n";
        assert!(parse_request(short.as_bytes(), &limits).unwrap().is_some());
        let padded = format!("{}{short}", "\r\n".repeat(8));
        assert_eq!(
            parse_request(padded.as_bytes(), &limits).unwrap_err(),
            ParseError::Malformed("request head too large")
        );
    }

    #[test]
    fn response_heads_parse_whole_or_dribbled() {
        let mut wire = Vec::new();
        let resp = Response::overloaded(2).with_lane("cold").with_source("sim");
        write_response(&mut wire, &resp, true).unwrap();
        let limits = Limits::default();
        let head = parse_response_head(&wire, &limits).unwrap().unwrap();
        assert_eq!(head.status, 503);
        assert_eq!(head.header("retry-after"), Some("2"));
        assert_eq!(head.header("x-softwatt-lane"), Some("cold"));
        assert_eq!(head.header("x-softwatt-source"), Some("sim"));
        assert!(head.closes());
        assert_eq!(head.content_length, resp.body.len() as u64);
        assert_eq!(&wire[head.head_len..], resp.body.as_bytes());
        // Fed one byte at a time, every strict prefix of the head asks for
        // more and the first complete one parses identically.
        for cut in 0..head.head_len {
            assert!(
                matches!(parse_response_head(&wire[..cut], &limits), Ok(None)),
                "prefix of {cut} bytes must ask for more"
            );
        }
        let dribbled = parse_response_head(&wire[..head.head_len], &limits)
            .unwrap()
            .unwrap();
        assert_eq!(dribbled.headers, head.headers);
        assert_eq!(dribbled.head_len, head.head_len);
    }

    #[test]
    fn endless_response_header_is_refused_past_the_head_budget() {
        let limits = Limits {
            max_head_bytes: 64,
            ..Limits::default()
        };
        let mut wire = b"HTTP/1.1 200 OK\r\nX-Endless: ".to_vec();
        while wire.len() <= limits.max_head_bytes {
            assert!(matches!(parse_response_head(&wire, &limits), Ok(None)));
            wire.push(b'a');
        }
        assert!(matches!(
            parse_response_head(&wire, &limits),
            Err(ParseError::Malformed(_))
        ));
        for bad in [
            &b"garbage\r\n\r\n"[..],
            b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nno colon\r\n\r\n",
        ] {
            assert!(
                matches!(
                    parse_response_head(bad, &limits),
                    Err(ParseError::Malformed(_))
                ),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}"), false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        write_response(&mut out, &Response::overloaded(1).with_lane("cold"), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("X-Softwatt-Lane: cold\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("\"code\": \"overloaded\""));
    }

    #[test]
    fn binary_responses_and_source_header() {
        let mut out = Vec::new();
        let resp = Response::binary(200, vec![0x00, 0xFF, 0x7F]).with_source("local");
        write_response(&mut out, &resp, false).unwrap();
        let split = out.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        let head = String::from_utf8(out[..split].to_vec()).unwrap();
        assert!(head.contains("Content-Type: application/octet-stream\r\n"));
        assert!(head.contains("Content-Length: 3\r\n"));
        assert!(head.contains("X-Softwatt-Source: local\r\n"));
        assert_eq!(&out[split + 4..], &[0x00, 0xFF, 0x7F]);

        // JSON responses never grow the source header unless tagged.
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}"), false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("X-Softwatt-Source"));
        assert!(text.contains("Content-Type: application/json\r\n"));
    }
}
