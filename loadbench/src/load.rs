//! The HTTP load generator: one thread driving two keep-alive
//! connections, open loop (requests sent when due, timed from when they
//! were due) or closed loop (a fixed number outstanding per connection).
//!
//! In the open loop the generator never blocks: it polls both sockets
//! and its clock in a loop on a CPU of its own, so neither a due request
//! nor a response waits for the generator to be woken. In the closed
//! loop it blocks in `ppoll` on both sockets. Send buffers are consumed
//! by an offset and compacted only when the consumed half dominates, so
//! a backlog costs linear time.

use crate::spec::{request_bytes, Draw, Kind, Req};
use crate::sys;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// A request on the wire, waiting for its response.
#[derive(Clone, Copy, Debug)]
pub struct Pending {
    /// The generator's sequence number (the request id in traces).
    pub id: u32,
    /// Endpoint.
    pub kind: Kind,
    /// Pool index.
    pub q: usize,
    /// When it was due (open loop) or sent (closed loop), ns after the
    /// generator's epoch.
    pub due_ns: u64,
}

/// A parsed response: status and the first `price_cents` in the body.
#[derive(Clone, Copy, Debug)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// The quoted (or, for a purchase, paid) price; `None` if absent.
    pub cents: Option<u64>,
}

/// Called once per response with the request, the completion time and
/// the reply.
pub type OnDone<'a> = dyn FnMut(&Pending, u64, Reply) + 'a;

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    inbuf: Vec<u8>,
    inflight: VecDeque<Pending>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(64 * 1024),
            sent: 0,
            inbuf: Vec::with_capacity(64 * 1024),
            inflight: VecDeque::new(),
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err(io::Error::other("server stopped reading")),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        } else if self.sent > self.out.len() / 2 {
            self.out.drain(..self.sent);
            self.sent = 0;
        }
        Ok(())
    }

    /// Read what is available and hand every complete response to
    /// `done`, oldest request first.
    fn receive(&mut self, scratch: &mut [u8], epoch: Instant, done: &mut OnDone) -> io::Result<()> {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Err(io::Error::other("server closed the connection")),
                Ok(n) => self.inbuf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let now = epoch.elapsed().as_nanos() as u64;
        let mut at = 0;
        while let Some((reply, len)) = parse_response(&self.inbuf[at..])? {
            at += len;
            let p = self
                .inflight
                .pop_front()
                .ok_or_else(|| io::Error::other("response without a request"))?;
            done(&p, now, reply);
        }
        self.inbuf.drain(..at);
        Ok(())
    }
}

/// Parse one complete response at the start of `buf`: its reply and
/// byte length, or `None` if more bytes are needed.
fn parse_response(buf: &[u8]) -> io::Result<Option<(Reply, usize)>> {
    let Some(head_end) = find(buf, b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::other("response head is not UTF-8"))?;
    let bad = || io::Error::other(format!("malformed response head: {head:?}"));
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let len: usize = head
        .split("\r\n")
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .ok_or_else(bad)?;
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    let body = &buf[head_end + 4..total];
    Ok(Some((
        Reply {
            status,
            cents: price_cents(body),
        },
        total,
    )))
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The first `"price_cents":N` in a JSON body.
pub fn price_cents(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"price_cents\":";
    let at = find(body, KEY)? + KEY.len();
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// Two keep-alive connections to one server plus the pre-rendered
/// request bytes for every pool query.
pub struct Client {
    conns: [Conn; 2],
    quote_bytes: Vec<Vec<u8>>,
    purchase_bytes: Vec<Vec<u8>>,
    scratch: Vec<u8>,
    epoch: Instant,
    next_id: u32,
}

impl Client {
    /// Connect both connections. Times are measured from `epoch`.
    pub fn connect(addr: SocketAddr, pool: &[String], epoch: Instant) -> io::Result<Client> {
        Ok(Client {
            conns: [Conn::connect(addr)?, Conn::connect(addr)?],
            quote_bytes: pool.iter().map(|q| request_bytes(Kind::Quote, q)).collect(),
            purchase_bytes: pool
                .iter()
                .map(|q| request_bytes(Kind::Purchase, q))
                .collect(),
            scratch: vec![0u8; 64 * 1024],
            epoch,
            next_id: 0,
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enqueue(&mut self, conn: usize, kind: Kind, q: usize, due_ns: u64) {
        let bytes = match kind {
            Kind::Quote => &self.quote_bytes[q],
            Kind::Purchase => &self.purchase_bytes[q],
        };
        let c = &mut self.conns[conn];
        c.out.extend_from_slice(bytes);
        c.inflight.push_back(Pending {
            id: self.next_id,
            kind,
            q,
            due_ns,
        });
        self.next_id += 1;
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.inflight.len()).sum()
    }

    /// Flush, wait up to `timeout_ns` for readiness, then read.
    fn step(&mut self, timeout_ns: u64, done: &mut OnDone) -> io::Result<()> {
        for c in &mut self.conns {
            c.flush()?;
        }
        if timeout_ns > 0 {
            let fds: Vec<_> = self
                .conns
                .iter()
                .map(|c| (c.stream.as_raw_fd(), c.sent < c.out.len()))
                .collect();
            sys::wait(&fds, timeout_ns)?;
        }
        for c in &mut self.conns {
            c.receive(&mut self.scratch, self.epoch, done)?;
        }
        Ok(())
    }

    /// Send `plan` open loop from `start_ns`, alternating connections,
    /// until every response is in. Each request's send lag (when the
    /// generator got to it, minus when it was due) lands in `lag_ns`.
    /// Fails if the last response is not in `grace` after the last due
    /// time.
    pub fn open_loop(
        &mut self,
        plan: &[Req],
        start_ns: u64,
        grace: Duration,
        lag_ns: &mut Vec<u64>,
        done: &mut OnDone,
    ) -> io::Result<()> {
        let last_due = start_ns + plan.last().map_or(0, |r| r.due_ns);
        let give_up = last_due + grace.as_nanos() as u64;
        let mut next = 0;
        loop {
            let now = self.now();
            while next < plan.len() && start_ns + plan[next].due_ns <= now {
                let r = plan[next];
                let due = start_ns + r.due_ns;
                lag_ns.push(now - due);
                self.enqueue(next % 2, r.kind, r.q, due);
                next += 1;
            }
            if next == plan.len() && self.outstanding() == 0 {
                return Ok(());
            }
            if now > give_up {
                return Err(io::Error::other(format!(
                    "{} responses still missing {grace:?} after the last due request",
                    self.outstanding()
                )));
            }
            self.step(0, done)?;
        }
    }

    /// Keep `depth` requests outstanding on each connection from
    /// `start_ns` to `end_ns`, drawing from `draw`, then drain.
    pub fn closed_loop(
        &mut self,
        draw: &mut Draw,
        depth: usize,
        start_ns: u64,
        end_ns: u64,
        grace: Duration,
        done: &mut OnDone,
    ) -> io::Result<()> {
        while self.now() < start_ns {
            self.step(start_ns - self.now(), done)?;
        }
        for conn in 0..2 {
            for _ in 0..depth {
                let (kind, q) = draw.draw();
                let now = self.now();
                self.enqueue(conn, kind, q, now);
            }
        }
        let give_up = end_ns + grace.as_nanos() as u64;
        loop {
            let before = [self.conns[0].inflight.len(), self.conns[1].inflight.len()];
            let now = self.now();
            let timeout = if now < end_ns {
                end_ns - now
            } else {
                1_000_000
            };
            self.step(timeout, done)?;
            let now = self.now();
            if now < end_ns {
                for (conn, &had) in before.iter().enumerate() {
                    let completed = had - self.conns[conn].inflight.len();
                    for _ in 0..completed {
                        let (kind, q) = draw.draw();
                        self.enqueue(conn, kind, q, now);
                    }
                }
            } else if self.outstanding() == 0 {
                return Ok(());
            } else if now > give_up {
                return Err(io::Error::other(format!(
                    "{} capacity-phase responses still missing {grace:?} after the window",
                    self.outstanding()
                )));
            }
        }
    }

    /// Send one request and wait for its response (quiesced checks).
    pub fn call(&mut self, kind: Kind, q: usize, timeout: Duration) -> io::Result<Reply> {
        let now = self.now();
        self.enqueue(0, kind, q, now);
        let give_up = now + timeout.as_nanos() as u64;
        let mut got = None;
        while got.is_none() {
            if self.now() > give_up {
                return Err(io::Error::other("no response to a quiesced request"));
            }
            self.step(1_000_000, &mut |_, _, r| got = Some(r))?;
        }
        got.ok_or_else(|| io::Error::other("no response"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_and_prices() {
        let mut buf = Vec::new();
        qbdp_serve::http::write_response(
            &mut buf,
            200,
            "OK",
            "application/json",
            b"{\"query\":\"q\",\"price_cents\":450,\"price\":\"$4.50\"}",
            true,
        );
        qbdp_serve::http::write_response(
            &mut buf,
            429,
            "Too Many Requests",
            "application/json",
            b"{}",
            true,
        );
        let (a, n) = parse_response(&buf).expect("parses").expect("complete");
        assert_eq!((a.status, a.cents), (200, Some(450)));
        let (b, m) = parse_response(&buf[n..])
            .expect("parses")
            .expect("complete");
        assert_eq!((b.status, b.cents), (429, None));
        assert_eq!(n + m, buf.len());
        assert!(parse_response(&buf[..n - 1]).expect("parses").is_none());
    }
}
