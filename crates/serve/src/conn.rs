//! Transport abstraction: one enum over Unix-domain and TCP streams, plus
//! the bounded line reader both the daemon and its clients use.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use mkss_obs::Stopwatch;

/// Longest a [`linger_close`] waits for the peer to stop sending, in µs.
const LINGER_US: u64 = 2_000_000;

/// Most input a [`linger_close`] discards before it gives up on the peer.
const LINGER_BYTES: usize = 1 << 20;

/// A connected byte stream over either transport.
#[derive(Debug)]
pub(crate) enum Conn {
    /// Unix-domain socket stream.
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Conn {
    /// An independently-owned handle to the same underlying socket.
    pub(crate) fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
        })
    }

    /// Shut down the read half, unblocking any blocked reader with EOF
    /// while still allowing an in-flight response to be written.
    pub(crate) fn shutdown_read(&self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.shutdown(Shutdown::Read),
            Conn::Tcp(s) => s.shutdown(Shutdown::Read),
        }
    }

    /// Shut down the write half: the peer reads EOF once it has read
    /// everything already written.
    fn shutdown_write(&self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.shutdown(Shutdown::Write),
            Conn::Tcp(s) => s.shutdown(Shutdown::Write),
        }
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(timeout),
            Conn::Tcp(s) => s.set_read_timeout(timeout),
        }
    }
}

/// Close the connection behind `reader` without resetting it.
///
/// Closing a socket that still holds unread input makes the kernel answer
/// the peer with a reset instead of EOF, and over TCP that reset may
/// discard the last response before the peer reads it. So end the write
/// half first (the peer reads EOF after the last response), then discard
/// input until the peer closes its end, [`LINGER_US`] pass or
/// [`LINGER_BYTES`] arrive, and only then drop the socket.
pub(crate) fn linger_close(mut reader: BufReader<Conn>) {
    if reader.get_ref().shutdown_write().is_err() {
        return;
    }
    let started = Stopwatch::start();
    let mut discarded = 0;
    let mut scratch = [0u8; 4096];
    while discarded < LINGER_BYTES {
        let left_us = LINGER_US.saturating_sub(started.elapsed_us());
        if left_us == 0
            || reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_micros(left_us)))
                .is_err()
        {
            return;
        }
        match reader.read(&mut scratch) {
            Ok(0) | Err(_) => return,
            Ok(n) => discarded += n,
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// Outcome of one bounded line read.
#[derive(Debug)]
pub(crate) enum LineRead {
    /// A complete line (newline stripped).
    Line(String),
    /// Clean end of stream with no pending bytes.
    Eof,
    /// The line exceeded the byte budget; the connection should close.
    TooLong,
    /// The line was not valid UTF-8.
    NotUtf8,
}

/// Read one `\n`-terminated line of at most `max_bytes` bytes (excluding
/// the terminator). A final unterminated line at EOF counts as a line,
/// so piped one-shot clients need not send a trailing newline.
pub(crate) fn read_line_bounded<R: Read>(
    reader: &mut BufReader<R>,
    max_bytes: usize,
) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                finish(buf)
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if buf.len() + take > max_bytes {
            // Discard through the end of the oversized line so the
            // stream stays positioned at the next one.
            discard_line(reader, newline)?;
            return Ok(LineRead::TooLong);
        }
        buf.extend_from_slice(&chunk[..take]);
        match newline {
            Some(pos) => {
                reader.consume(pos + 1);
                return Ok(finish(buf));
            }
            None => reader.consume(take),
        }
    }
}

fn discard_line<R: Read>(reader: &mut BufReader<R>, newline_at: Option<usize>) -> io::Result<()> {
    if let Some(pos) = newline_at {
        reader.consume(pos + 1);
        return Ok(());
    }
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return Ok(());
            }
            None => {
                let len = chunk.len();
                reader.consume(len);
            }
        }
    }
}

fn finish(mut buf: Vec<u8>) -> LineRead {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(line) => LineRead::Line(line),
        Err(_) => LineRead::NotUtf8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(input: &[u8], max: usize) -> Vec<String> {
        let mut reader = BufReader::with_capacity(4, input);
        let mut lines = Vec::new();
        loop {
            match read_line_bounded(&mut reader, max).unwrap() {
                LineRead::Line(l) => lines.push(l),
                LineRead::Eof => return lines,
                LineRead::TooLong => lines.push("<too long>".into()),
                LineRead::NotUtf8 => lines.push("<not utf8>".into()),
            }
        }
    }

    #[test]
    fn splits_lines_and_handles_final_unterminated_line() {
        assert_eq!(read_all(b"a\nbb\r\nccc", 10), vec!["a", "bb", "ccc"]);
        assert_eq!(read_all(b"", 10), Vec::<String>::new());
        assert_eq!(read_all(b"\n\n", 10), vec!["", ""]);
    }

    #[test]
    fn oversized_lines_are_flagged_not_buffered() {
        // Limit 5: the 8-byte line trips TooLong, the next line still reads.
        assert_eq!(read_all(b"12345678\nok\n", 5), vec!["<too long>", "ok"]);
    }

    #[test]
    fn invalid_utf8_is_flagged() {
        assert_eq!(read_all(b"\xff\xfe\nok\n", 10), vec!["<not utf8>", "ok"]);
    }
}
