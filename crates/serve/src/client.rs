//! The HTTP/1.1 client that talks to the daemon: one `Connection: close`
//! exchange per request, with 10 s read and write deadlines.
//!
//! The load generator ([`crate::loadtest`]) and the daemon tests all use
//! it, so a change to how requests are sent is made here once.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One `GET`: the response's status and body.
///
/// # Errors
/// Any transport failure, or a response without a status line.
pub fn get(addr: &str, path: &str) -> io::Result<(u16, String)> {
    exchange(addr, &get_request(addr, path)).map(|(status, _, body)| (status, body))
}

/// One `POST` of a JSON body: the response's status and body.
///
/// # Errors
/// Any transport failure, or a response without a status line.
pub fn post(addr: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    exchange(addr, &request).map(|(status, _, body)| (status, body))
}

/// One `GET`: the response's status and header block (the status line
/// and every header line), for checks on a header such as `Retry-After`.
///
/// # Errors
/// Any transport failure, or a response without a status line.
pub fn get_headers(addr: &str, path: &str) -> io::Result<(u16, String)> {
    exchange(addr, &get_request(addr, path)).map(|(status, head, _)| (status, head))
}

fn get_request(addr: &str, path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
}

/// Sends `request` and reads the response to EOF: `(status, head, body)`.
fn exchange(addr: &str, request: &str) -> io::Result<(u16, String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(request.as_bytes())?;
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf)?;
    let text = String::from_utf8_lossy(&buf);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no HTTP status line"))?;
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    Ok((status, head.to_string(), body.to_string()))
}
