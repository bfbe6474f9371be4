//! A minimal client for the `hique-server` line protocol.
//!
//! Each request leaves in one `write_all` (the line and its newline
//! together) on a socket with `TCP_NODELAY` set, so a stall the benchmark
//! measures belongs to the server.  It does not reuse
//! `hique_server::WireClient`, which writes the line and the newline
//! separately.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// One reply: the status line and the body lines before the `.`
/// terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// `OK ...` or `ERR <layer>: ...`.
    pub status: String,
    pub lines: Vec<String>,
    /// Bytes received for the reply, terminator included.
    pub bytes: usize,
}

impl Reply {
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("OK")
    }

    /// The layer an `ERR <layer>: <message>` reply names.
    pub fn err_layer(&self) -> Option<&str> {
        let rest = self.status.strip_prefix("ERR ")?;
        Some(rest.split(':').next().unwrap_or(rest))
    }
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            out: Vec::new(),
        })
    }

    /// Send one request line and read its whole reply.
    pub fn request(&mut self, line: &str) -> io::Result<Reply> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        read_reply(&mut self.reader)
    }
}

/// Read one reply: a status line starting with `OK` or `ERR`, then body
/// lines up to a line holding only `.`.  A connection that closes before
/// the terminator, or mid-line, is an error.
pub fn read_reply(reader: &mut impl BufRead) -> io::Result<Reply> {
    let mut bytes = 0;
    let status = read_line(reader, &mut bytes)?.ok_or_else(|| closed("before the status line"))?;
    if !(status.starts_with("OK") || status.starts_with("ERR")) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("reply status is neither OK nor ERR: {status:?}"),
        ));
    }
    let mut lines = Vec::new();
    loop {
        match read_line(reader, &mut bytes)? {
            None => return Err(closed("before the '.' terminator")),
            Some(line) if line == "." => break,
            Some(line) => lines.push(line),
        }
    }
    Ok(Reply {
        status,
        lines,
        bytes,
    })
}

fn read_line(reader: &mut impl BufRead, bytes: &mut usize) -> io::Result<Option<String>> {
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    *bytes += n;
    if line.pop() != Some('\n') {
        return Err(closed("in the middle of a line"));
    }
    Ok(Some(line))
}

fn closed(when: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("server closed the connection {when}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, Read};
    use std::net::TcpListener;

    fn parse(bytes: &[u8]) -> io::Result<Reply> {
        read_reply(&mut Cursor::new(bytes))
    }

    #[test]
    fn multi_line_ok_reply() {
        let reply = parse(b"OK 2 2\nk\tn\n0\t20\n1\t20\n.\nOK next\n.\n").unwrap();
        assert_eq!(reply.status, "OK 2 2");
        assert_eq!(reply.lines, ["k\tn", "0\t20", "1\t20"]);
        assert_eq!(reply.bytes, "OK 2 2\nk\tn\n0\t20\n1\t20\n.\n".len());
        assert!(reply.is_ok());
        assert_eq!(reply.err_layer(), None);
    }

    #[test]
    fn err_reply_names_its_layer() {
        let reply = parse(b"ERR analysis: unknown column 'nope'\n.\n").unwrap();
        assert!(!reply.is_ok());
        assert!(reply.lines.is_empty());
        assert_eq!(reply.err_layer(), Some("analysis"));
    }

    #[test]
    fn early_close_is_an_error() {
        for cut in [&b""[..], b"OK 1 1\n", b"OK 1 1\nk\n1", b"OK 1 1\nk\n1\n."] {
            let err = parse(cut).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{cut:?}");
        }
        assert_eq!(
            parse(b"HELLO\n.\n").unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn request_goes_out_in_one_write_with_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // The whole line, newline included, arrives in one read.
            let mut buf = [0u8; 64];
            let n = stream.read(&mut buf).unwrap();
            stream.write_all(b"OK 1 1\nx\n7\n.\n").unwrap();
            // Then close without answering the second request.
            buf[..n].to_vec()
        });
        let mut client = Client::connect(addr).unwrap();
        assert!(client.writer.nodelay().unwrap());
        let reply = client.request("select 7 as x").unwrap();
        assert_eq!(reply.lines, ["x", "7"]);
        assert_eq!(server.join().unwrap(), b"select 7 as x\n");
        let err = client.request(".stats").unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::BrokenPipe
            ),
            "{err}"
        );
    }
}
