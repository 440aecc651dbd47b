//! Stream transport over TCP or Unix-domain sockets.
//!
//! One [`Stream`]/[`Listener`] pair abstracts the two `std` stream
//! transports (the workspace targets Linux; Unix-domain sockets are the
//! default for single-box runs — no port allocation, no TIME_WAIT, and
//! they work inside sandboxes that deny TCP binds). Every blocking
//! operation is bounded: reads/writes by [`Stream::set_io_timeout`],
//! accepts by an explicit deadline, connects by a per-attempt timeout on
//! a [`Backoff`] retry schedule. A peer that never answers produces a
//! typed [`NetError`], never a hang.

use crate::backoff::Backoff;
use crate::{NetError, NetStats};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A transport endpoint address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Addr {
    /// `host:port` TCP address.
    Tcp(String),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

impl Addr {
    /// Parse `tcp:HOST:PORT` or `unix:PATH` (a bare `HOST:PORT` is
    /// accepted as TCP for convenience).
    pub fn parse(s: &str) -> Result<Addr, NetError> {
        if let Some(rest) = s.strip_prefix("unix:") {
            if rest.is_empty() {
                return Err(NetError::Protocol("empty unix socket path".into()));
            }
            return Ok(Addr::Unix(PathBuf::from(rest)));
        }
        let rest = s.strip_prefix("tcp:").unwrap_or(s);
        if rest.rsplit_once(':').is_none() {
            return Err(NetError::Protocol(format!(
                "address {s:?} is neither tcp:HOST:PORT nor unix:PATH"
            )));
        }
        Ok(Addr::Tcp(rest.to_string()))
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(hp) => write!(f, "tcp:{hp}"),
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// A connected stream over either transport.
#[derive(Debug)]
pub enum Stream {
    /// TCP (Nagle disabled: every frame is a latency-bound message).
    Tcp(TcpStream),
    /// Unix-domain stream socket.
    Unix(UnixStream),
}

impl Stream {
    /// Bound both read and write waits; `None` blocks indefinitely.
    /// Expired timeouts surface from `read`/`write` as
    /// `WouldBlock`/`TimedOut`, which the link layer maps to
    /// [`NetError::Timeout`].
    pub fn set_io_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
            Stream::Unix(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
        }
    }

    /// Best-effort orderly shutdown of both directions.
    pub fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound listener over either transport.
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener (unlinks its socket file on drop).
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Bind to `addr`. A stale Unix socket file from a crashed previous
    /// run is removed first. `tcp:HOST:0` binds an ephemeral port —
    /// read the actual address back with [`Listener::local_addr`].
    pub fn bind(addr: &Addr) -> Result<Listener, NetError> {
        match addr {
            Addr::Tcp(hp) => TcpListener::bind(hp.as_str())
                .map(Listener::Tcp)
                .map_err(|e| NetError::Io {
                    peer: None,
                    during: "bind tcp listener",
                    source: e,
                }),
            Addr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                UnixListener::bind(path)
                    .map(|l| Listener::Unix(l, path.clone()))
                    .map_err(|e| NetError::Io {
                        peer: None,
                        during: "bind unix listener",
                        source: e,
                    })
            }
        }
    }

    /// The actual bound address (resolves `:0` ephemeral TCP ports).
    pub fn local_addr(&self) -> Result<Addr, NetError> {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| Addr::Tcp(a.to_string()))
                .map_err(|e| NetError::Io {
                    peer: None,
                    during: "resolve listener address",
                    source: e,
                }),
            Listener::Unix(_, path) => Ok(Addr::Unix(path.clone())),
        }
    }

    /// Accept one connection before `deadline`, polling nonblocking so a
    /// peer that never arrives yields [`NetError::Timeout`] instead of
    /// blocking forever.
    pub fn accept_deadline(&self, deadline: Instant) -> Result<Stream, NetError> {
        let start = Instant::now();
        self.set_nonblocking(true)?;
        let out = loop {
            let attempt = match self {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            };
            match attempt {
                Ok(s) => break Ok(s),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        break Err(NetError::Timeout {
                            peer: None,
                            during: "accept",
                            waited: start.elapsed(),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    break Err(NetError::Io {
                        peer: None,
                        during: "accept",
                        source: e,
                    })
                }
            }
        };
        self.set_nonblocking(false)?;
        if let Ok(Stream::Tcp(t)) = &out {
            let _ = t.set_nodelay(true);
        }
        out
    }

    fn set_nonblocking(&self, nb: bool) -> Result<(), NetError> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            Listener::Unix(l, _) => l.set_nonblocking(nb),
        }
        .map_err(|e| NetError::Io {
            peer: None,
            during: "set listener mode",
            source: e,
        })
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Connect to `addr`, retrying on the `backoff` schedule (each failed
/// attempt increments `stats.retries`). Per-attempt TCP connects are
/// bounded by `attempt_timeout`; Unix connects fail fast when the socket
/// file does not exist yet.
pub fn connect_retry(
    addr: &Addr,
    backoff: &Backoff,
    attempt_timeout: Duration,
    stats: &NetStats,
) -> Result<Stream, NetError> {
    // The last error is formatted only if every attempt fails, so a
    // retry allocates nothing.
    let mut last = None;
    for attempt in 0..backoff.max_attempts {
        match connect_once(addr, attempt_timeout) {
            Ok(s) => {
                if let Stream::Tcp(t) = &s {
                    let _ = t.set_nodelay(true);
                }
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
        match backoff.delay(attempt) {
            Some(d) => {
                stats
                    .retries
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                std::thread::sleep(d);
            }
            None => break,
        }
    }
    Err(NetError::ConnectFailed {
        addr: addr.to_string(),
        attempts: backoff.max_attempts,
        last: last.map(|e| e.to_string()).unwrap_or_default(),
    })
}

fn connect_once(addr: &Addr, attempt_timeout: Duration) -> std::io::Result<Stream> {
    match addr {
        Addr::Tcp(hp) => {
            let sa = hp
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| std::io::Error::other(format!("{hp}: no address")))?;
            TcpStream::connect_timeout(&sa, attempt_timeout).map(Stream::Tcp)
        }
        Addr::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_parse_roundtrip() {
        let t = Addr::parse("tcp:127.0.0.1:8080").expect("tcp");
        assert_eq!(t, Addr::Tcp("127.0.0.1:8080".into()));
        assert_eq!(Addr::parse(&t.to_string()).expect("roundtrip"), t);
        let u = Addr::parse("unix:/tmp/x.sock").expect("unix");
        assert_eq!(u, Addr::Unix(PathBuf::from("/tmp/x.sock")));
        assert_eq!(Addr::parse(&u.to_string()).expect("roundtrip"), u);
        // bare host:port is tcp
        assert_eq!(
            Addr::parse("127.0.0.1:9").expect("bare"),
            Addr::Tcp("127.0.0.1:9".into())
        );
        assert!(Addr::parse("unix:").is_err());
        assert!(Addr::parse("gibberish").is_err());
    }

    #[test]
    fn accept_deadline_times_out_without_a_peer() {
        let dir = std::env::temp_dir().join(format!("netcomm-acc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let l = Listener::bind(&Addr::Unix(dir.join("t.sock"))).expect("bind");
        let t0 = Instant::now();
        let err = l
            .accept_deadline(Instant::now() + Duration::from_millis(40))
            .expect_err("no peer");
        assert!(matches!(err, NetError::Timeout { .. }), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(5), "accept hung");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn connect_retry_counts_retries_and_fails_typed() {
        let stats = NetStats::default();
        let b = Backoff::new(Duration::from_millis(1), Duration::from_millis(2), 3);
        let err = connect_retry(
            &Addr::Unix(PathBuf::from("/nonexistent/nowhere.sock")),
            &b,
            Duration::from_millis(50),
            &stats,
        )
        .expect_err("nothing listening");
        assert!(
            matches!(err, NetError::ConnectFailed { attempts: 3, .. }),
            "{err}"
        );
        assert_eq!(
            stats.snapshot().retries,
            2,
            "one retry after each of the first two attempts"
        );
    }
}
