//! Transports: real TCP and a deterministic in-process loopback.
//!
//! Everything above this module speaks [`Conn`] (a `Read + Write` with
//! timeouts) and [`Listener`] (a non-blocking accept), so the server,
//! client, frame codec, and every fault scenario run identically over
//! `TcpStream` and over [`local_transport`]'s byte pipes. Tests use the
//! loopback (no ports, no firewall, no flaky binds); `gcnt
//! netserve`/`gcnt loadgen` use real sockets.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One direction of a loopback connection: a bounded-ish byte queue with
/// a close flag, woken by a condvar.
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
}

struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

impl Pipe {
    fn new() -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                buf: VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
        })
    }

    fn write(&self, bytes: &[u8]) -> io::Result<usize> {
        let Ok(mut st) = self.state.lock() else {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe poisoned"));
        };
        if st.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
        }
        st.buf.extend(bytes.iter().copied());
        self.readable.notify_all();
        Ok(bytes.len())
    }

    fn read(&self, out: &mut [u8], timeout: Option<Duration>) -> io::Result<usize> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let Ok(mut st) = self.state.lock() else {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe poisoned"));
        };
        loop {
            if !st.buf.is_empty() {
                let n = out.len().min(st.buf.len());
                for slot in out.iter_mut().take(n) {
                    // The queue holds >= n bytes; a miss means another
                    // reader raced us, which the single-reader design
                    // forbids — surface it as a short read, not a panic.
                    match st.buf.pop_front() {
                        Some(b) => *slot = b,
                        None => return Ok(0),
                    }
                }
                return Ok(n);
            }
            if st.closed {
                return Ok(0); // clean EOF
            }
            st = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "pipe read timeout"));
                    }
                    let Ok((guard, _)) = self.readable.wait_timeout(st, d - now) else {
                        return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe poisoned"));
                    };
                    guard
                }
                None => {
                    let Ok(guard) = self.readable.wait(st) else {
                        return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe poisoned"));
                    };
                    guard
                }
            };
        }
    }

    fn close(&self) {
        if let Ok(mut st) = self.state.lock() {
            st.closed = true;
        }
        self.readable.notify_all();
    }
}

/// One end of an in-process loopback connection.
pub struct LocalConn {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
    read_timeout: Option<Duration>,
}

impl LocalConn {
    /// Sets the read timeout (mirrors `TcpStream::set_read_timeout`).
    pub fn set_read_timeout(&mut self, t: Option<Duration>) {
        self.read_timeout = t;
    }
}

impl Drop for LocalConn {
    fn drop(&mut self) {
        self.rx.close();
        self.tx.close();
    }
}

impl Read for LocalConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.rx.read(buf, self.read_timeout)
    }
}

impl Write for LocalConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A connected pair of loopback ends (client end, server end).
pub fn local_pair() -> (LocalConn, LocalConn) {
    let a = Pipe::new();
    let b = Pipe::new();
    (
        LocalConn {
            rx: Arc::clone(&a),
            tx: Arc::clone(&b),
            read_timeout: None,
        },
        LocalConn {
            rx: b,
            tx: a,
            read_timeout: None,
        },
    )
}

/// A connection of either transport. `Read`/`Write` plus timeouts —
/// exactly what the frame codec needs.
pub enum Conn {
    /// A real socket.
    Tcp(TcpStream),
    /// An in-process loopback end.
    Local(LocalConn),
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Conn::Tcp(_) => f.write_str("Conn::Tcp"),
            Conn::Local(_) => f.write_str("Conn::Local"),
        }
    }
}

impl Conn {
    /// Sets the read timeout. A `None` blocks forever.
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            Conn::Local(c) => {
                c.set_read_timeout(t);
                Ok(())
            }
        }
    }

    /// Sets the write timeout (loopback writes never block, so this is a
    /// no-op there).
    pub fn set_write_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(t),
            Conn::Local(_) => Ok(()),
        }
    }

    /// A short peer label for lint contexts and report lines.
    pub fn peer(&self) -> String {
        match self {
            Conn::Tcp(s) => s
                .peer_addr()
                .map_or_else(|_| "tcp:?".to_string(), |a| a.to_string()),
            Conn::Local(_) => "local".to_string(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Local(c) => c.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Local(c) => c.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Local(c) => c.flush(),
        }
    }
}

/// An accept source of either transport.
pub enum Listener {
    /// A bound, non-blocking TCP listener.
    Tcp(TcpListener),
    /// The server side of a [`local_transport`].
    Local(mpsc::Receiver<LocalConn>),
}

impl std::fmt::Debug for Listener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Listener::Tcp(_) => f.write_str("Listener::Tcp"),
            Listener::Local(_) => f.write_str("Listener::Local"),
        }
    }
}

impl Listener {
    /// Binds a TCP listener in non-blocking mode (pass port 0 for an
    /// ephemeral port; read it back with [`Listener::local_addr`]).
    ///
    /// # Errors
    ///
    /// The OS bind/configure error.
    pub fn bind_tcp(addr: &str) -> io::Result<Listener> {
        let l = TcpListener::bind(addr)?;
        l.set_nonblocking(true)?;
        Ok(Listener::Tcp(l))
    }

    /// The bound TCP address, if this is a TCP listener.
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Local(_) => None,
        }
    }

    /// Polls for one pending connection; `Ok(None)` means none right
    /// now. Never blocks.
    ///
    /// # Errors
    ///
    /// A real accept failure (not `WouldBlock`).
    pub fn accept(&self) -> io::Result<Option<Conn>> {
        match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Ok(Some(Conn::Tcp(s)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Local(rx) => match rx.try_recv() {
                Ok(c) => Ok(Some(Conn::Local(c))),
                Err(mpsc::TryRecvError::Empty) => Ok(None),
                // Every dialer hung up: nothing more will ever arrive,
                // which for an accept loop is the same as "none now";
                // the drain flag decides when to stop polling.
                Err(mpsc::TryRecvError::Disconnected) => Ok(None),
            },
        }
    }
}

/// The client side of a [`local_transport`]: hands out new loopback
/// connections to the paired [`Listener`].
#[derive(Clone)]
pub struct LocalDialer {
    tx: mpsc::Sender<LocalConn>,
}

impl std::fmt::Debug for LocalDialer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LocalDialer")
    }
}

impl LocalDialer {
    /// Opens a new connection to the paired listener.
    ///
    /// # Errors
    ///
    /// `ConnectionRefused` if the listener was dropped — byte-for-byte
    /// the error shape a dead TCP server produces.
    pub fn connect(&self) -> io::Result<Conn> {
        let (client, server) = local_pair();
        self.tx.send(server).map_err(|_| {
            io::Error::new(io::ErrorKind::ConnectionRefused, "local listener is gone")
        })?;
        Ok(Conn::Local(client))
    }
}

/// An in-process transport: a listener and a dialer that connect to each
/// other without touching the network stack. Deterministic by
/// construction — no ports, no kernel buffers, no TIME_WAIT.
pub fn local_transport() -> (Listener, LocalDialer) {
    let (tx, rx) = mpsc::channel();
    (Listener::Local(rx), LocalDialer { tx })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn loopback_round_trips_bytes() {
        let (mut a, mut b) = local_pair();
        a.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        b.write_all(b"world").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"world");
    }

    #[test]
    fn read_times_out_then_sees_late_bytes() {
        let (mut a, mut b) = local_pair();
        b.set_read_timeout(Some(Duration::from_millis(10)));
        let mut buf = [0u8; 1];
        let err = b.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        a.write_all(&[7]).unwrap();
        assert_eq!(b.read(&mut buf).unwrap(), 1);
        assert_eq!(buf[0], 7);
    }

    #[test]
    fn dropping_one_end_is_a_clean_eof() {
        let (a, mut b) = local_pair();
        drop(a);
        let mut buf = [0u8; 4];
        assert_eq!(b.read(&mut buf).unwrap(), 0, "closed + empty = EOF");
        assert!(b.write_all(b"x").is_err(), "write to closed pipe fails");
    }

    #[test]
    fn transport_accepts_dialed_connections() {
        let (listener, dialer) = local_transport();
        assert!(listener.accept().unwrap().is_none(), "nothing dialed yet");
        let mut client = dialer.connect().unwrap();
        let mut server = listener.accept().unwrap().expect("dialed conn arrives");
        client.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn dialer_to_dropped_listener_is_connection_refused() {
        let (listener, dialer) = local_transport();
        drop(listener);
        let err = dialer.connect().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn cross_thread_wakeup_works() {
        let (mut a, mut b) = local_pair();
        let t = thread::spawn(move || {
            let mut buf = [0u8; 3];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        thread::sleep(Duration::from_millis(20));
        a.write_all(b"abc").unwrap();
        assert_eq!(&t.join().unwrap(), b"abc");
    }
}
