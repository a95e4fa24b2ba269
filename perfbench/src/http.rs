//! A minimal HTTP/1.1 keep-alive client for `awdit serve`: one
//! connection, one request in flight, `Content-Length` framing only
//! (all the server sends).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    head: Vec<u8>,
}

/// A reply's status and body.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("socket: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream),
            writer,
            head: Vec::with_capacity(256),
        })
    }

    /// Sends one POST; its reply is read with [`read_reply`](Self::read_reply).
    pub fn send(&mut self, path: &str, body: &[u8]) -> Result<(), String> {
        self.head.clear();
        write!(
            self.head,
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .map_err(|e| e.to_string())?;
        self.writer
            .write_all(&self.head)
            .and_then(|()| self.writer.write_all(body))
            .map_err(|e| format!("send {path}: {e}"))
    }

    /// Reads the reply to the oldest unanswered request.
    pub fn read_reply(&mut self) -> Result<Reply, String> {
        let mut line = String::new();
        self.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad Content-Length {value:?}"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| e.to_string())?;
        let body = String::from_utf8(body).map_err(|_| "reply body is not UTF-8".to_string())?;
        Ok(Reply { status, body })
    }

    fn read_line(&mut self, line: &mut String) -> Result<(), String> {
        match self.reader.read_line(line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// The unsigned integer after `"key":` in a flat JSON reply.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}
