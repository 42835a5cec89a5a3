//! A minimal HTTP/1.1 keep-alive client that times what a caller of
//! `mintri serve` sees: the first response byte, the first NDJSON line of
//! a chunked body, and the end of the body.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

pub struct Conn {
    reader: BufReader<TcpStream>,
    host: String,
}

pub struct Reply {
    pub status: u16,
    pub body: String,
    /// First byte of the response (status line) after the request began.
    pub ttfb: Duration,
    /// Arrival of the first complete line of a chunked body.
    pub first_line: Option<Duration>,
    /// Request start to the end of the body.
    pub wall: Duration,
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream),
            host: addr.to_string(),
        })
    }

    /// Sends one request and reads the whole response. Every read waits
    /// at most until `deadline`; past it the read fails with a timeout
    /// and the connection must be dropped.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        deadline: Instant,
    ) -> std::io::Result<Reply> {
        let t0 = Instant::now();
        let remaining = deadline
            .checked_duration_since(t0)
            .filter(|d| !d.is_zero())
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::TimedOut, "deadline passed"))?;
        let stream = self.reader.get_mut();
        stream.set_read_timeout(Some(remaining))?;
        stream.set_write_timeout(Some(remaining))?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.host,
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;

        let status_line = self.line()?;
        let ttfb = t0.elapsed();
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;
        let (mut chunked, mut length) = (false, 0usize);
        loop {
            let line = self.line()?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
            if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                chunked = true;
            } else if name == "content-length" {
                length = value
                    .parse()
                    .map_err(|_| invalid(format!("bad length {value:?}")))?;
            }
        }
        let mut body = Vec::new();
        let mut first_line = None;
        if chunked {
            loop {
                let size_line = self.line()?;
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| invalid(format!("bad chunk size {size_line:?}")))?;
                let mut chunk = vec![0u8; size + 2];
                self.reader.read_exact(&mut chunk)?;
                if size == 0 {
                    break;
                }
                if first_line.is_none() && chunk[..size].contains(&b'\n') {
                    first_line = Some(t0.elapsed());
                }
                body.extend_from_slice(&chunk[..size]);
            }
        } else {
            body.resize(length, 0);
            self.reader.read_exact(&mut body)?;
        }
        let body = String::from_utf8(body).map_err(|_| invalid("body is not UTF-8".into()))?;
        Ok(Reply {
            status,
            body,
            ttfb,
            first_line,
            wall: t0.elapsed(),
        })
    }

    fn line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }
}
