//! Just enough HTTP/1.1 for a local control socket.
//!
//! The campaign service speaks to clients on the same machine; it needs
//! request lines, headers, `Content-Length` bodies, fixed-length
//! responses and one close-delimited streaming response (`watch`).
//! Nothing else — no chunked encoding, no keep-alive, no TLS — so the
//! whole dialect fits in this file and the workspace stays free of
//! network dependencies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest request body the server will buffer (a campaign spec is a
/// few hundred bytes; a megabyte is already absurd).
const MAX_BODY: usize = 1 << 20;

/// Longest request line or header line, terminator included.
const MAX_LINE: usize = 8 << 10;

/// Most header bytes between the request line and the body.
const MAX_HEADERS: usize = 64 << 10;

/// How long a client has to deliver its whole request.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed request: method, path, decoded body.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased HTTP method (`GET`, `POST`, …).
    pub method: String,
    /// Request path, e.g. `/campaigns/c0123/records`.
    pub path: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: String,
}

/// Why no [`Request`] came out of a connection. Nothing of a rejected
/// request reaches a route.
#[derive(Debug)]
pub enum RequestError {
    /// The request line, a header or the `Content-Length` value does not
    /// parse.
    Malformed(&'static str),
    /// A line, the header block or the declared body is over its cap.
    TooLarge(&'static str),
    /// The client did not deliver its request within the read timeout.
    TimedOut,
    /// The connection failed or closed mid-request; there is nobody to
    /// answer.
    Io(std::io::Error),
}

impl RequestError {
    /// The status line and message to answer with, if the peer can still
    /// be answered.
    pub fn reply(&self) -> Option<(u16, &'static str)> {
        match self {
            RequestError::Malformed(what) => Some((400, what)),
            RequestError::TooLarge(what) => Some((413, what)),
            RequestError::TimedOut => Some((408, "request not received in time")),
            RequestError::Io(_) => None,
        }
    }
}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> RequestError {
        use std::io::ErrorKind::{TimedOut, WouldBlock};
        match e.kind() {
            // A socket read timeout surfaces as either, by platform.
            TimedOut | WouldBlock => RequestError::TimedOut,
            _ => RequestError::Io(e),
        }
    }
}

/// The connection's read half under one deadline for the whole request:
/// every read waits only for what is left of it, so a client that drips
/// bytes cannot hold the connection longer than one that sends nothing.
struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Read one line of at most [`MAX_LINE`] bytes, without its terminator.
/// `None` at end of stream.
fn read_line(r: &mut impl BufRead) -> Result<Option<String>, RequestError> {
    let mut line = Vec::new();
    r.by_ref()
        .take(MAX_LINE as u64)
        .read_until(b'\n', &mut line)?;
    if line.is_empty() {
        return Ok(None);
    }
    if line.last() != Some(&b'\n') && line.len() == MAX_LINE {
        return Err(RequestError::TooLarge("request or header line over 8 KiB"));
    }
    let mut line = String::from_utf8(line).map_err(|_| RequestError::Malformed("not UTF-8"))?;
    line.truncate(line.trim_end().len());
    Ok(Some(line))
}

/// Read and parse one request from `stream`.
pub fn read_request(stream: &TcpStream) -> Result<Request, RequestError> {
    read_request_within(stream, READ_TIMEOUT)
}

fn read_request_within(stream: &TcpStream, timeout: Duration) -> Result<Request, RequestError> {
    let at = Instant::now() + timeout;
    let mut r = BufReader::new(Deadline { stream, at });
    let line = read_line(&mut r)?.unwrap_or_default();
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || path.is_empty() {
        return Err(RequestError::Malformed("malformed request line"));
    }
    let mut content_length = 0usize;
    let mut header_bytes = 0usize;
    while let Some(h) = read_line(&mut r)? {
        if h.is_empty() {
            break;
        }
        header_bytes += h.len();
        if header_bytes > MAX_HEADERS {
            return Err(RequestError::TooLarge("header block over 64 KiB"));
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| RequestError::Malformed("unparseable Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(RequestError::TooLarge("request body over 1 MiB"));
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Content Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Write a complete fixed-length response and flush it.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Answer a request that was refused before it was read to its end, then
/// let the peer read the answer: closing a socket that holds unread bytes
/// resets the connection under the reply. Reads on for at most a second
/// and a megabyte.
pub fn refuse(stream: &mut TcpStream, status: u16, why: &str) -> std::io::Result<()> {
    respond(stream, status, "text/plain", why)?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let at = Instant::now() + Duration::from_secs(1);
    let rest = Deadline { stream, at };
    std::io::copy(&mut rest.take(MAX_BODY as u64), &mut std::io::sink())?;
    Ok(())
}

/// Start a close-delimited streaming response: headers only; the caller
/// writes body lines and signals the end by closing the connection.
pub fn start_stream(stream: &mut TcpStream, content_type: &str) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// Split a raw response into `(status, body)`. Tolerates both
/// fixed-length and close-delimited bodies, since the caller has always
/// read to EOF.
pub fn parse_response(raw: &str) -> Result<(u16, String), String> {
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("truncated HTTP response")?;
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_and_response_round_trip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let req = read_request(&stream).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/campaigns");
            assert_eq!(req.body, r#"{"app":"wavetoy"}"#);
            let mut stream = stream;
            respond(&mut stream, 200, "application/json", r#"{"ok":true}"#).unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let body = r#"{"app":"wavetoy"}"#;
        write!(
            stream,
            "POST /campaigns HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (status, body) = parse_response(&raw).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, r#"{"ok":true}"#);
        server.join().unwrap();
    }

    /// What the server side makes of a client that writes `raw` and then
    /// keeps the connection open until the server is done with it.
    fn read_raw(raw: Vec<u8>, timeout: Duration) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done, wait) = std::sync::mpsc::channel::<()>();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&raw).unwrap();
            let _ = wait.recv();
        });
        let (stream, _) = listener.accept().unwrap();
        let result = read_request_within(&stream, timeout);
        drop(done);
        client.join().unwrap();
        result
    }

    #[test]
    fn hostile_requests_are_typed_errors_not_hangs() {
        let long = Duration::from_secs(30);
        // A declared body over the cap is refused before a byte of it is
        // read (none is ever sent here), not truncated.
        let raw = format!(
            "POST /campaigns HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let e = read_raw(raw.into(), long).unwrap_err();
        assert!(matches!(e, RequestError::TooLarge(_)), "{e:?}");
        assert_eq!(e.reply().unwrap().0, 413);

        // A length that does not parse is not a length of zero.
        for bad in ["banana", "-1", "1e3", "99999999999999999999999"] {
            let raw = format!("POST /campaigns HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n{{}}");
            let e = read_raw(raw.into(), long).unwrap_err();
            assert!(matches!(e, RequestError::Malformed(_)), "{bad}: {e:?}");
            assert_eq!(e.reply().unwrap().0, 400);
        }

        // Lines and the header block are capped; the client never sends
        // a terminator, so an uncapped reader would wait for ever.
        let mut raw = b"GET /".to_vec();
        raw.resize(MAX_LINE + 100, b'a');
        let e = read_raw(raw, long).unwrap_err();
        assert!(matches!(e, RequestError::TooLarge(_)), "{e:?}");
        let mut raw = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.resize(MAX_LINE + 100, b'a');
        let e = read_raw(raw, long).unwrap_err();
        assert!(matches!(e, RequestError::TooLarge(_)), "{e:?}");
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        while raw.len() <= MAX_HEADERS + MAX_LINE {
            raw.extend_from_slice(b"X-Pad: ");
            raw.resize(raw.len() + 4000, b'a');
            raw.extend_from_slice(b"\r\n");
        }
        let e = read_raw(raw, long).unwrap_err();
        assert!(matches!(e, RequestError::TooLarge(_)), "{e:?}");

        // At the caps a request still goes through.
        let mut raw = b"GET /".to_vec();
        raw.resize(MAX_LINE - 20, b'a');
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert_eq!(read_raw(raw, long).unwrap().method, "GET");
    }

    #[test]
    fn a_stalled_client_times_out() {
        // Half a header, or a body that never arrives, and then silence.
        for raw in [
            "POST /campaigns HTTP/1.1\r\nContent-Le",
            "POST /campaigns HTTP/1.1\r\nContent-Length: 10\r\n\r\n{",
        ] {
            let e = read_raw(raw.into(), Duration::from_millis(150)).unwrap_err();
            assert!(matches!(e, RequestError::TimedOut), "{e:?}");
            assert_eq!(e.reply().unwrap().0, 408);
        }
    }

    #[test]
    fn parse_response_rejects_garbage() {
        assert!(parse_response("not http").is_err());
        assert!(parse_response("HTTP/1.1 banana OK\r\n\r\nx").is_err());
    }

    #[test]
    fn bodies_follow_content_length() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            // No body, no Content-Length.
            write!(stream, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut raw = String::new();
            stream.read_to_string(&mut raw).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let req = read_request(&stream).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, "");
        let mut stream = stream;
        respond(&mut stream, 404, "text/plain", "nope").unwrap();
        drop(stream); // EOF ends the client's close-delimited read
        client.join().unwrap();
    }
}
