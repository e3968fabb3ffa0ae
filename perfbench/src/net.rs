//! The server side of the benchmark: a spawned `sdfr serve` and a minimal
//! HTTP/1.1 client that measures each request from outside.
//!
//! The server process is this benchmark's own executable re-entered as
//! `perfbench serve-child serve …`, which runs `sdfr_cli::run` exactly as
//! the `sdfr` binary's `main` does: same library, same code path, no
//! second build.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a request may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// A running `sdfr serve`.
#[derive(Debug)]
pub struct Server {
    child: Child,
    stdout: Option<BufReader<ChildStdout>>,
    /// The `host:port` the server listens on.
    pub addr: String,
}

impl Server {
    /// Spawns `sdfr serve --addr 127.0.0.1:0 <extra>` and waits until it
    /// reports its listening address.
    ///
    /// # Errors
    ///
    /// Spawn failures and a server that exits before listening.
    pub fn spawn(extra: &[String]) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
        let mut child = Command::new(exe)
            .args(["serve-child", "serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn the server: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("sdfr serve: listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                stdout: Some(stdout),
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("the server did not start (first line {line:?})"))
            }
        }
    }

    /// The server's peak resident set (VmHWM), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// `GET /v1/stats` on a fresh connection.
    ///
    /// # Errors
    ///
    /// Transport failures and non-200 answers.
    pub fn stats(&self) -> Result<String, String> {
        let request = format!(
            "GET /v1/stats HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
            self.addr
        );
        let r = oneshot(&self.addr, request.as_bytes())?;
        if r.status != 200 {
            return Err(format!("/v1/stats answered {}", r.status));
        }
        String::from_utf8(r.body).map_err(|_| "/v1/stats is not UTF-8".to_string())
    }

    /// Asks the server to drain and waits for it to exit.
    ///
    /// # Errors
    ///
    /// A server that did not exit cleanly within 10 s (it is killed).
    pub fn shutdown(mut self) -> Result<(), String> {
        let request = format!(
            "POST /shutdown HTTP/1.1\r\nHost: {}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
            self.addr
        );
        let _ = oneshot(&self.addr, request.as_bytes());
        if let Some(mut out) = self.stdout.take() {
            // The drain report; reading it also lets the child's final
            // write succeed.
            let mut rest = String::new();
            let _ = out.read_to_string(&mut rest);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("the server did not drain within 10 s".to_string());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One answered request, with the client-side split of its time.
#[derive(Debug)]
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// The server asked to close the connection.
    pub close: bool,
    /// When the request was written.
    pub sent: Instant,
    /// When the first response byte arrived.
    pub first_byte: Instant,
    /// When the response was complete.
    pub done: Instant,
}

/// Opens a connection with the benchmark's timeouts.
///
/// # Errors
///
/// Connect failures, as strings.
pub fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    let _ = stream.set_read_timeout(Some(REQUEST_TIMEOUT));
    let _ = stream.set_write_timeout(Some(REQUEST_TIMEOUT));
    Ok(stream)
}

/// Writes one request and reads exactly one response off `stream`.
///
/// # Errors
///
/// Transport failures, timeouts and malformed responses, as strings.
pub fn exchange(stream: &mut TcpStream, request: &[u8]) -> Result<Response, String> {
    let sent = Instant::now();
    stream
        .write_all(request)
        .map_err(|e| format!("send failed: {e}"))?;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 8192];
    let mut first_byte = None;
    loop {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("receive failed: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response".to_string());
        }
        first_byte.get_or_insert_with(Instant::now);
        buf.extend_from_slice(&chunk[..n]);
        if let Some(parsed) = parse_response(&buf)? {
            let (status, length, close, head_len) = parsed;
            if buf.len() >= head_len + length {
                return Ok(Response {
                    status,
                    body: buf[head_len..head_len + length].to_vec(),
                    close,
                    sent,
                    first_byte: first_byte.expect("a byte arrived"),
                    done: Instant::now(),
                });
            }
        }
    }
}

/// One request on a fresh connection that is closed afterwards; returns
/// the response and the connect time.
///
/// # Errors
///
/// As [`connect`] and [`exchange`].
fn oneshot(addr: &str, request: &[u8]) -> Result<Response, String> {
    let mut stream = connect(addr)?;
    exchange(&mut stream, request)
}

/// Parses a response head: `(status, content length, close, head length)`,
/// or `None` while the head is incomplete.
fn parse_response(buf: &[u8]) -> Result<Option<(u16, usize, bool, usize)>, String> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| "non-UTF-8 head".to_string())?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            let v = v.trim();
            if k.eq_ignore_ascii_case("content-length") {
                length = v.parse().ok();
            } else if k.eq_ignore_ascii_case("connection") {
                close = v.eq_ignore_ascii_case("close");
            }
        }
    }
    let length = length.ok_or_else(|| "response without Content-Length".to_string())?;
    Ok(Some((status, length, close, end + 4)))
}

/// Reads the integer after `"key":` inside the object that follows
/// `"section":` in a stats document (or at top level when `section` is
/// empty).
pub fn stat(doc: &str, section: &str, key: &str) -> u64 {
    let scope = if section.is_empty() {
        doc
    } else {
        match doc.find(&format!("\"{section}\":")) {
            Some(at) => &doc[at..],
            None => return 0,
        }
    };
    let needle = format!("\"{key}\":");
    scope
        .find(&needle)
        .map(|at| {
            scope[at + needle.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}
