//! A minimal blocking HTTP/1.1 client for tests and the load generator.
//!
//! Speaks exactly the dialect the server emits: JSON bodies with
//! `Content-Length`, keep-alive by default. Not a general-purpose client.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{self, Limits};

/// One response as read off the wire.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: String,
}

impl ClientResponse {
    /// First header with the given lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A response whose body stays raw bytes — the trace-transfer endpoint
/// returns `swtrace` binary, which is not UTF-8.
#[derive(Debug)]
pub struct RawResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// The body bytes, verbatim.
    pub body: Vec<u8>,
}

impl RawResponse {
    /// First header with the given lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A persistent connection to the service.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects with the given I/O timeout.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one request; `body = ""` omits the payload.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send_request(&mut self, method: &str, path: &str, body: &str) -> io::Result<()> {
        self.stream
            .write_all(&http::format_request(method, path, body))?;
        self.stream.flush()
    }

    /// Reads one response (headers + `Content-Length` body), keeping the
    /// body as raw bytes.
    ///
    /// # Errors
    ///
    /// Fails on timeouts, early EOF (including a body shorter than its
    /// `Content-Length`), or a malformed head — one that outgrows
    /// [`Limits::max_head_bytes`] included, so a peer streaming an endless
    /// header costs at most that much buffer.
    pub fn read_response_bytes(&mut self) -> io::Result<RawResponse> {
        let limits = Limits::default();
        let mut buf = Vec::new();
        let head = loop {
            // Never buffer more than one byte past the budget: that byte
            // is what proves an unterminated head too large.
            let room = limits.max_head_bytes + 1 - buf.len();
            let taken = {
                let chunk = self.reader.fill_buf()?;
                let taken = chunk.len().min(room);
                buf.extend_from_slice(&chunk[..taken]);
                taken
            };
            if taken == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before the response head ended",
                ));
            }
            match http::parse_response_head(&buf, &limits) {
                Ok(Some(head)) => {
                    // The head ends inside this chunk (it did not end in
                    // the bytes seen before it); leave the body unread.
                    self.reader.consume(head.head_len + taken - buf.len());
                    break head;
                }
                Ok(None) => self.reader.consume(taken),
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad response head: {e:?}"),
                    ))
                }
            }
        };
        // The length comes from the other side: grow the buffer with the
        // bytes that actually arrive instead of allocating it up front.
        let mut body = Vec::new();
        (&mut self.reader)
            .take(head.content_length)
            .read_to_end(&mut body)?;
        if body.len() as u64 != head.content_length {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "body shorter than its content-length",
            ));
        }
        Ok(RawResponse {
            status: head.status,
            headers: head.headers,
            body,
        })
    }

    /// Reads one response, decoding the body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Fails on timeouts, early EOF, an unparsable status line, or a
    /// non-UTF-8 body.
    pub fn read_response(&mut self) -> io::Result<ClientResponse> {
        let raw = self.read_response_bytes()?;
        let body = String::from_utf8(raw.body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        Ok(ClientResponse {
            status: raw.status,
            headers: raw.headers,
            body,
        })
    }

    /// Request + response in one call.
    ///
    /// # Errors
    ///
    /// Propagates either half's failure.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.send_request(method, path, body)?;
        self.read_response()
    }

    /// Request + raw-bytes response in one call (binary endpoints).
    ///
    /// # Errors
    ///
    /// Propagates either half's failure.
    pub fn request_bytes(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<RawResponse> {
        self.send_request(method, path, body)?;
        self.read_response_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn huge_content_length_with_a_short_body_is_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = Vec::new();
            let mut byte = [0u8; 1];
            while !request.ends_with(b"\r\n\r\n") {
                stream.read_exact(&mut byte).unwrap();
                request.push(byte[0]);
            }
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nabc")
                .unwrap();
        });
        let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
        let err = client
            .request_bytes("GET", "/v1/traces/0011223344556677", "")
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        server.join().unwrap();
    }

    #[test]
    fn endless_header_line_is_invalid_data_within_the_head_budget() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let budget = Limits::default().max_head_bytes;
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = Vec::new();
            let mut byte = [0u8; 1];
            while !request.ends_with(b"\r\n\r\n") {
                stream.read_exact(&mut byte).unwrap();
                request.push(byte[0]);
            }
            // One header line that never ends: 64 head budgets' worth,
            // then the connection stays open until the client hangs up.
            stream.write_all(b"HTTP/1.1 200 OK\r\nX-Endless: ").unwrap();
            let chunk = [b'a'; 4096];
            let mut sent = 0;
            while sent < 64 * budget {
                match stream.write(&chunk) {
                    Ok(n) => sent += n,
                    Err(_) => return,
                }
            }
            let _ = stream.read(&mut byte);
        });
        let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
        let err = client
            .request_bytes("GET", "/v1/traces/0011223344556677", "")
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        drop(client);
        server.join().unwrap();
    }
}
