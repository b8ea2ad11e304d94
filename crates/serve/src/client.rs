//! A minimal blocking HTTP/1.1 client for tests and the load generator.
//!
//! Speaks exactly the dialect the server emits: JSON bodies with
//! `Content-Length`, keep-alive by default. Not a general-purpose client.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

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
/// returns `swtrace-v1` binary, which is not UTF-8.
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
        // One write call for the whole request: `write!` straight to the
        // stream would emit one segment per format fragment, and Nagle
        // holding the tail fragments for a delayed ACK puts a ~40ms floor
        // under every measured latency.
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: softwatt\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        self.stream.flush()
    }

    /// Reads one response (headers + `Content-Length` body), keeping the
    /// body as raw bytes.
    ///
    /// # Errors
    ///
    /// Fails on timeouts, early EOF (including a body shorter than its
    /// `Content-Length`), or an unparsable status line.
    pub fn read_response_bytes(&mut self) -> io::Result<RawResponse> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before status line",
            ));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;

        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF in headers",
                ));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let len: u64 = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| bad("missing content-length"))?;
        // The length comes from the other side: grow the buffer with the
        // bytes that actually arrive instead of allocating it up front.
        let mut body = Vec::new();
        (&mut self.reader).take(len).read_to_end(&mut body)?;
        if body.len() as u64 != len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "body shorter than its content-length",
            ));
        }
        Ok(RawResponse {
            status,
            headers,
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
}
