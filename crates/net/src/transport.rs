//! The TCP transport: a listener the server's accept loop polls.
//!
//! Connections are plain `TcpStream`s in blocking mode with read and
//! write timeouts; the frame codec reads them through `std::io::Read`.

use std::io;
use std::net::{TcpListener, TcpStream};

/// A bound, non-blocking TCP listener.
#[derive(Debug)]
pub struct Listener(TcpListener);

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
        Ok(Listener(l))
    }

    /// The bound address, if the OS reports one.
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.0.local_addr().ok()
    }

    /// Polls for one pending connection, handed out in blocking mode;
    /// `Ok(None)` means none right now. Never blocks.
    ///
    /// # Errors
    ///
    /// A real accept failure (not `WouldBlock`).
    pub fn accept(&self) -> io::Result<Option<TcpStream>> {
        match self.0.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false)?;
                Ok(Some(s))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}
