//! A monotonic deadline and the one socket reader that counts down to it.
//!
//! Every read from an untrusted socket in the workspace goes through
//! [`DeadlineReader`]: the metrics HTTP server reads a request with it,
//! and the federated coordinator and party client (`niid_fl::net`) read
//! every frame with it. A per-*read* timeout is not enough: a peer that
//! trickles one byte inside every timeout window resets it forever and
//! holds the handler open indefinitely. The reader holds one [`Deadline`]
//! per connection (or per protocol phase) and clamps each blocking read's
//! timeout to the time that is actually left, so the helper lives here,
//! in the lowest crate that owns a socket.

use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The longest single socket wait inside a [`DeadlineReader`]: each read
/// waits at most this long before the deadline is checked again.
const READ_SLICE: Duration = Duration::from_millis(250);

/// An absolute point in monotonic time that socket loops count down to.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    end: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            end: Instant::now() + budget,
        }
    }

    /// Time left, or `None` once the deadline has passed. The returned
    /// duration is never zero, so it is always a valid socket timeout
    /// (`set_read_timeout(Some(0))` is an error in std).
    pub fn remaining(&self) -> Option<Duration> {
        let now = Instant::now();
        if now >= self.end {
            None
        } else {
            Some(self.end - now)
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.remaining().is_none()
    }
}

/// A `Read` adapter over a `TcpStream` that gives up once its
/// [`Deadline`] passes, with an `ErrorKind::TimedOut` error, however the
/// peer paces its bytes. With no deadline it blocks until the peer sends
/// or closes (a party's idle wait between rounds).
///
/// This is the only place in the workspace that sets a socket's read
/// timeout; it sets one before every read, so the stream may be shared
/// by readers with different deadlines.
pub struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Option<Deadline>,
}

impl<'a> DeadlineReader<'a> {
    /// Read `stream` until `deadline` (or without end, if `None`).
    pub fn new(stream: &'a TcpStream, deadline: Option<Deadline>) -> Self {
        DeadlineReader { stream, deadline }
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            let timeout = match &self.deadline {
                None => None,
                Some(d) => match d.remaining() {
                    Some(left) => Some(left.min(READ_SLICE)),
                    None => {
                        return Err(std::io::Error::new(ErrorKind::TimedOut, "deadline elapsed"))
                    }
                },
            };
            self.stream.set_read_timeout(timeout)?;
            match self.stream.read(buf) {
                Err(e)
                    if timeout.is_some()
                        && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                {
                    continue
                }
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_down_and_expires() {
        let d = Deadline::after(Duration::from_millis(40));
        let rem = d.remaining().expect("fresh deadline has time left");
        assert!(rem <= Duration::from_millis(40));
        assert!(rem > Duration::ZERO);
        assert!(!d.expired());
        std::thread::sleep(Duration::from_millis(60));
        assert!(d.expired());
        assert_eq!(d.remaining(), None);
    }

    #[test]
    fn is_copyable_per_connection() {
        let d = Deadline::after(Duration::from_secs(5));
        let d2 = d;
        assert!(!d.expired() && !d2.expired());
    }
}
