//! A small blocking client for the query server's text protocol.
//!
//! [`Client::connect`] reads the greeting; [`Client::send`] ships one
//! statement and parses one response frame; [`Client::query`] is the
//! SELECT-shaped convenience that insists on a result set.
//!
//! A statement leaves in **one write** on a `TCP_NODELAY` socket. Built up
//! from several small writes it would leave as several segments, and the
//! second of them would sit in the kernel until the server's delayed ACK
//! for the first came back — some 40 ms in which nothing at all happens,
//! paid by every statement and charged against every deadline.
//!
//! Connection establishment is bounded: each attempt uses the
//! [`NetworkConfig`] connect timeout, failed attempts retry with a short
//! exponential backoff (a server still binding its listener is given a
//! moment), and the greeting read is capped by the same timeout — a dead
//! or wedged server yields an error, never a hang. After the greeting the
//! read timeout reverts to `read_timeout_ms` (`None` by default: a running
//! query may legitimately stay silent for a long time).

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use accordion_common::config::NetworkConfig;
use accordion_common::{AccordionError, Result};

use crate::protocol::{decode_line, parse_frame, Frame};

/// Connection attempts before giving up, with backoff sleeps between them.
const CONNECT_ATTEMPTS: u32 = 4;
/// First backoff sleep; doubles per failed attempt (25 → 50 → 100 ms).
const BACKOFF_START_MS: u64 = 25;
/// Read buffer: the server writes a result in 64 KiB pieces.
const READ_BUFFER_BYTES: usize = 64 * 1024;

/// A decoded result set — all values as their CSV text form.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Server-side execution time for the statement, milliseconds.
    pub elapsed_ms: u64,
}

/// One server response to one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `OK <message>` (SET / SHOW acknowledgment).
    Ok(String),
    /// A full result set.
    Rows(ResultSet),
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The last line read, without its line break; reused for every line.
    line: String,
    /// The server greeting, e.g. `accordion 0.1.0`.
    pub greeting: String,
}

impl Client {
    /// Connects with the default [`NetworkConfig`] timeouts and consumes
    /// the greeting.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_with(addr, &NetworkConfig::default())
    }

    /// Connects with explicit transport timeouts: per-attempt connect
    /// timeout and post-greeting read timeout both come from `network`.
    pub fn connect_with(addr: impl ToSocketAddrs, network: &NetworkConfig) -> Result<Client> {
        let stream = connect_with_backoff(addr, network)?;
        stream
            .set_nodelay(true)
            .map_err(|e| AccordionError::Io(format!("set nodelay failed: {e}")))?;
        // Cap the greeting read: a server that accepts but never speaks
        // (wedged, or not actually our protocol) must fail, not hang.
        let greeting_timeout = Duration::from_millis(network.connect_timeout_ms.max(1));
        stream
            .set_read_timeout(Some(greeting_timeout))
            .map_err(|e| AccordionError::Io(format!("set timeout failed: {e}")))?;
        let writer = stream
            .try_clone()
            .map_err(|e| AccordionError::Io(format!("clone failed: {e}")))?;
        let mut client = Client {
            reader: BufReader::with_capacity(READ_BUFFER_BYTES, stream),
            writer,
            line: String::new(),
            greeting: String::new(),
        };
        match parse_frame(client.read_line()?)? {
            Frame::Ok(greeting) => client.greeting = greeting,
            other => {
                return Err(AccordionError::Io(format!(
                    "unexpected greeting frame: {other:?}"
                )))
            }
        }
        // Statement responses run on the configured read timeout (`None`
        // by default — long queries are silent, not dead).
        let read_timeout = network
            .read_timeout_ms
            .map(|ms| Duration::from_millis(ms.max(1)));
        client
            .reader
            .get_ref()
            .set_read_timeout(read_timeout)
            .map_err(|e| AccordionError::Io(format!("set timeout failed: {e}")))?;
        Ok(client)
    }

    /// Sends one statement (a terminating `;` is added if missing) and
    /// reads its response. `ERR` frames surface as `Err`; the session
    /// stays usable afterwards.
    pub fn send(&mut self, statement: &str) -> Result<Response> {
        let statement = statement.trim();
        let terminator = if statement.ends_with(';') { "" } else { ";" };
        self.write_line(&format!("{statement}{terminator}\n"))?;
        self.read_response()
    }

    /// One line, one write (see the module docs).
    fn write_line(&mut self, line: &str) -> Result<()> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| AccordionError::Io(format!("send failed: {e}")))
    }

    /// [`Self::send`] for statements that must produce rows.
    pub fn query(&mut self, sql: &str) -> Result<ResultSet> {
        match self.send(sql)? {
            Response::Rows(rows) => Ok(rows),
            Response::Ok(msg) => Err(AccordionError::Execution(format!(
                "expected a result set, got OK {msg}"
            ))),
        }
    }

    /// Reads one response frame (plus body for result sets).
    pub fn read_response(&mut self) -> Result<Response> {
        match parse_frame(self.read_line()?)? {
            Frame::Ok(msg) => Ok(Response::Ok(msg)),
            Frame::Err(msg) => Err(AccordionError::Execution(msg)),
            Frame::End { .. } => Err(AccordionError::Io(
                "protocol error: END without RESULT".to_string(),
            )),
            Frame::Result { ncols } => {
                let columns = decode_line(self.read_line()?.trim_end())?;
                if columns.len() != ncols {
                    return Err(AccordionError::Io(format!(
                        "header has {} columns, RESULT announced {ncols}",
                        columns.len()
                    )));
                }
                let mut rows = Vec::new();
                loop {
                    let line = self.read_line()?;
                    // String fields are always quoted, so a bare END token
                    // is unambiguously the trailer.
                    if line.starts_with("END ") {
                        let Frame::End { nrows, elapsed_ms } = parse_frame(line)? else {
                            unreachable!("END prefix parses as End frame")
                        };
                        if nrows as usize != rows.len() {
                            return Err(AccordionError::Io(format!(
                                "trailer claims {nrows} rows, received {}",
                                rows.len()
                            )));
                        }
                        return Ok(Response::Rows(ResultSet {
                            columns,
                            rows,
                            elapsed_ms,
                        }));
                    }
                    let row = decode_line(line)?;
                    if row.len() != ncols {
                        return Err(AccordionError::Io(format!(
                            "row has {} fields, expected {ncols}",
                            row.len()
                        )));
                    }
                    rows.push(row);
                }
            }
        }
    }

    /// Ends the session politely.
    pub fn exit(mut self) -> Result<()> {
        self.write_line("EXIT;\n")?;
        let _ = self.read_line(); // OK bye (or EOF — either is fine)
        let _ = self.writer.shutdown(Shutdown::Both);
        Ok(())
    }

    /// Reads the next line into the reused buffer and returns it without
    /// its line break.
    fn read_line(&mut self) -> Result<&str> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).map_err(|e| {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                AccordionError::Io("server did not respond within the read timeout".to_string())
            } else {
                AccordionError::Io(format!("read failed: {e}"))
            }
        })?;
        if n == 0 {
            return Err(AccordionError::Io(
                "connection closed by server".to_string(),
            ));
        }
        Ok(self.line.trim_end_matches(['\r', '\n']))
    }
}

/// Resolves `addr` and tries each resolved address per attempt, sleeping
/// with exponential backoff between failed attempts. Every attempt is
/// bounded by the connect timeout, so the total wait is bounded too.
fn connect_with_backoff(addr: impl ToSocketAddrs, network: &NetworkConfig) -> Result<TcpStream> {
    let timeout = Duration::from_millis(network.connect_timeout_ms.max(1));
    let addrs: Vec<std::net::SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| AccordionError::Io(format!("address resolution failed: {e}")))?
        .collect();
    if addrs.is_empty() {
        return Err(AccordionError::Io("address resolved to nothing".into()));
    }
    let mut backoff = Duration::from_millis(BACKOFF_START_MS);
    let mut last_err = None;
    for attempt in 0..CONNECT_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff *= 2;
        }
        for sock in &addrs {
            match TcpStream::connect_timeout(sock, timeout) {
                Ok(stream) => return Ok(stream),
                Err(e) => last_err = Some(e),
            }
        }
    }
    Err(AccordionError::Io(format!(
        "connect failed after {CONNECT_ATTEMPTS} attempts: {}",
        last_err.expect("at least one attempt ran")
    )))
}
