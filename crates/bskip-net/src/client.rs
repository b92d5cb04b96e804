//! The pipelined driver client: a windowed connection.
//!
//! [`Connection`] is the unit of pipelining.  It keeps an **in-flight
//! window**: [`Connection::send`] encodes a request into a write buffer
//! and returns immediately while fewer than `window` responses are
//! outstanding; at the window it flushes and blocks for exactly one
//! response before admitting the next request, so a loadgen thread in a
//! `send`/`recv` loop holds a steady `window` requests on the wire.
//! Responses come back strictly in request order (the protocol has no
//! request IDs — FIFO per connection is the contract), so callers track
//! correspondence positionally; drained-but-unconsumed responses queue
//! internally until [`Connection::recv`] claims them.
//!
//! Fault tolerance on the client side is deliberately bounded:
//! [`ClientOptions`] puts read/write timeouts on the socket so a hung
//! server surfaces as a `TimedOut`/`WouldBlock` error instead of a stuck
//! driver thread, and [`Connection::reconnect`] re-dials and resets the
//! pipeline.  Responses that were in flight when a connection broke are
//! lost — the protocol has no request IDs to re-associate them — so
//! reconnection is a *liveness* tool; idempotent traffic (the loadgen's
//! YCSB mixes) simply re-sends.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::proto::{encode_request, FrameDecoder, Request, Response, READ_CHUNK};

/// Default in-flight window for [`Connection::connect`].
pub const DEFAULT_WINDOW: usize = 32;

/// Write-buffer size past which `send` flushes even under the window.
const FLUSH_THRESHOLD: usize = 32 << 10;

/// Connection tuning: pipelining window plus socket timeouts.
#[derive(Debug, Clone, Copy)]
pub struct ClientOptions {
    /// In-flight window (`≥ 1`; `1` degenerates to strict
    /// request/response).
    pub window: usize,
    /// Socket read timeout; `None` blocks forever.  With a timeout, a
    /// stalled server surfaces as `TimedOut`/`WouldBlock` from `recv`.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout; `None` blocks forever.
    pub write_timeout: Option<Duration>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            window: DEFAULT_WINDOW,
            read_timeout: None,
            write_timeout: None,
        }
    }
}

/// A pipelined client connection (see the module docs).
pub struct Connection {
    stream: TcpStream,
    /// Resolved peer address, kept for [`Connection::reconnect`].
    addr: SocketAddr,
    options: ClientOptions,
    decoder: FrameDecoder,
    write_buf: Vec<u8>,
    ready: VecDeque<Response>,
    /// Requests sent (or buffered) whose responses have not been received.
    in_flight: usize,
    window: usize,
    chunk: Vec<u8>,
}

fn resolve<A: ToSocketAddrs>(addr: A) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing"))
}

fn open_stream(addr: SocketAddr, options: &ClientOptions) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(options.read_timeout)?;
    stream.set_write_timeout(options.write_timeout)?;
    Ok(stream)
}

impl Connection {
    /// Connects with the default window.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Connection::connect_windowed(addr, DEFAULT_WINDOW)
    }

    /// Connects with an explicit in-flight window (`window ≥ 1`;
    /// `window == 1` degenerates to strict request/response).
    pub fn connect_windowed<A: ToSocketAddrs>(addr: A, window: usize) -> std::io::Result<Self> {
        Connection::connect_with(
            addr,
            ClientOptions {
                window,
                ..ClientOptions::default()
            },
        )
    }

    /// Connects with full [`ClientOptions`] (window + socket timeouts).
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        options: ClientOptions,
    ) -> std::io::Result<Self> {
        let addr = resolve(addr)?;
        let stream = open_stream(addr, &options)?;
        Ok(Connection {
            stream,
            addr,
            options,
            decoder: FrameDecoder::new(),
            write_buf: Vec::new(),
            ready: VecDeque::new(),
            in_flight: 0,
            window: options.window.max(1),
            chunk: vec![0u8; READ_CHUNK],
        })
    }

    /// Drops the current socket, re-dials the same address with the same
    /// options, and resets the pipeline (decoder, buffers, in-flight
    /// accounting).  Responses that were outstanding are lost.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        self.stream = open_stream(self.addr, &self.options)?;
        self.decoder = FrameDecoder::new();
        self.write_buf.clear();
        self.ready.clear();
        self.in_flight = 0;
        Ok(())
    }

    /// The configured in-flight window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Requests whose responses have not yet been *received* (some may
    /// already sit decoded in the ready queue; those no longer count).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Responses received but not yet claimed by [`Connection::recv`].
    pub fn ready(&self) -> usize {
        self.ready.len()
    }

    /// Enqueues `request` on the pipeline.  Returns without touching the
    /// socket while the window has room (modulo buffer-size flushes); at
    /// the window it flushes and receives one response into the ready
    /// queue first.
    pub fn send(&mut self, request: &Request) -> std::io::Result<()> {
        while self.in_flight >= self.window {
            self.flush()?;
            let response = self.read_response()?;
            self.ready.push_back(response);
            self.in_flight -= 1;
        }
        encode_request(request, &mut self.write_buf)?;
        self.in_flight += 1;
        if self.write_buf.len() >= FLUSH_THRESHOLD {
            self.flush()?;
        }
        Ok(())
    }

    /// Claims the next response, in request order: from the ready queue
    /// if one is waiting, otherwise flushing and reading the socket.
    ///
    /// Errors with [`ErrorKind::InvalidData`] if nothing is outstanding.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        if let Some(response) = self.ready.pop_front() {
            return Ok(response);
        }
        if self.in_flight == 0 {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "recv with no request in flight",
            ));
        }
        self.flush()?;
        let response = self.read_response()?;
        self.in_flight -= 1;
        Ok(response)
    }

    /// Flushes buffered request bytes to the socket.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.write_buf.is_empty() {
            self.stream.write_all(&self.write_buf)?;
            self.write_buf.clear();
        }
        Ok(())
    }

    /// Flushes and receives every outstanding response, in request order
    /// (ready-queued ones first).
    pub fn drain(&mut self) -> std::io::Result<Vec<Response>> {
        let mut responses = Vec::with_capacity(self.ready.len() + self.in_flight);
        while self.ready.front().is_some() || self.in_flight > 0 {
            responses.push(self.recv()?);
        }
        Ok(responses)
    }

    /// Strict request/response convenience: requires an idle pipeline
    /// (everything sent has been claimed), then sends and waits.
    pub fn call(&mut self, request: &Request) -> std::io::Result<Response> {
        if self.in_flight != 0 || !self.ready.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "call on a connection with responses outstanding",
            ));
        }
        self.send(request)?;
        self.recv()
    }

    /// `Ping` round trip.
    pub fn ping(&mut self) -> std::io::Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Point lookup.
    pub fn get(&mut self, key: u64) -> std::io::Result<Option<u64>> {
        point(self.call(&Request::Get { key })?)
    }

    /// Upsert; returns the displaced previous value.
    pub fn put(&mut self, key: u64, value: u64) -> std::io::Result<Option<u64>> {
        point(self.call(&Request::put(key, value))?)
    }

    /// Removal; returns the removed value.
    pub fn del(&mut self, key: u64) -> std::io::Result<Option<u64>> {
        point(self.call(&Request::Del { key })?)
    }

    /// Range scan over `lo ..< hi`, at most `limit` entries.
    pub fn scan(&mut self, lo: u64, hi: u64, limit: u32) -> std::io::Result<Vec<(u64, u64)>> {
        match self.call(&Request::Scan { lo, hi, limit })? {
            Response::Entries { entries } => Ok(entries),
            other => Err(unexpected(&other)),
        }
    }

    /// Server + index statistics snapshot.
    pub fn stats(&mut self) -> std::io::Result<Vec<(String, u64)>> {
        match self.call(&Request::Stats)? {
            Response::Stats { entries } => Ok(entries),
            other => Err(unexpected(&other)),
        }
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        loop {
            if let Some(response) = self.decoder.decode_response()? {
                return Ok(response);
            }
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            let Connection { decoder, chunk, .. } = self;
            decoder.extend(&chunk[..n]);
        }
    }
}

fn point(response: Response) -> std::io::Result<Option<u64>> {
    match response {
        Response::Found { value } => Ok(Some(value)),
        Response::Missing => Ok(None),
        other => Err(unexpected(&other)),
    }
}

fn unexpected(response: &Response) -> std::io::Error {
    std::io::Error::new(
        ErrorKind::InvalidData,
        format!("unexpected response: {response:?}"),
    )
}
