//! The load generator's HTTP client: one connection per request, as the
//! server answers every request with `Connection: close`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// Connect to the last byte read.
    pub latency: Duration,
}

/// Send one request and read the whole response. Any transport error or
/// malformed status line is an `Err`, which the caller counts as a failed
/// operation.
pub fn send(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: servbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    stream.write_all(&req).map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::with_capacity(8192);
    let mut chunk = [0u8; 16384];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // A refusal written without draining the request can reset the
            // socket after the response bytes: keep what arrived.
            Err(_) => break,
        }
    }
    let latency = t0.elapsed();
    let split = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("no header terminator")?;
    let head = std::str::from_utf8(&buf[..split]).map_err(|_| "non-UTF-8 head")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let body = buf[split + 4..].to_vec();
    Ok(Reply {
        status,
        body,
        latency,
    })
}

/// Poll `GET /v1/healthz` until it answers 200.
pub fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(r) = send(addr, "GET", "/v1/healthz", b"") {
            if r.status == 200 {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err("server never became healthy".to_owned());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
