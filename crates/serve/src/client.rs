//! A small blocking client for the serve protocol, used by the CLI's
//! `serve --client` paths, the smoke harness, and the tests.

use crate::proto::{self, Request, Response, Status};
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// One connection to a running daemon. Requests are issued sequentially
/// on the connection; open one client per concurrent request.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7433`) with `timeout_ms` on
    /// the connect and on every subsequent read/write.
    ///
    /// # Errors
    ///
    /// Connection failures and invalid addresses.
    pub fn connect(addr: &str, timeout_ms: u64) -> io::Result<Client> {
        let sockaddr: std::net::SocketAddr = addr
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: {e}")))?;
        let timeout = Duration::from_millis(timeout_ms.max(1));
        let stream = TcpStream::connect_timeout(&sockaddr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    fn round_trip(&mut self, req: &Request) -> io::Result<Response> {
        let body = proto::encode_request(req)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        proto::write_frame(&mut self.stream, &body)?;
        let body = proto::read_frame(&mut self.stream)?;
        proto::decode_response(&body)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response frame"))
    }

    /// Checks an inline virtual file set (`root` resolved against
    /// `files`). `deadline_ms = 0` uses the server default.
    ///
    /// # Errors
    ///
    /// Transport failures (including torn frames and timeouts).
    pub fn check(
        &mut self,
        root: &str,
        files: &[(String, String)],
        deadline_ms: u64,
    ) -> io::Result<Response> {
        self.round_trip(&Request::Check {
            root: root.to_string(),
            files: files.to_vec(),
            deadline_ms,
        })
    }

    /// Checks on-disk files by path (first path is the root unit); the
    /// daemon reads them server-side and registers them for `--watch`.
    ///
    /// # Errors
    ///
    /// Transport failures (including torn frames and timeouts).
    pub fn check_paths(&mut self, paths: &[String], deadline_ms: u64) -> io::Result<Response> {
        self.round_trip(&Request::CheckPaths { paths: paths.to_vec(), deadline_ms })
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn ping(&mut self) -> io::Result<Response> {
        self.round_trip(&Request::Ping)
    }

    /// Fetches the daemon's metrics snapshot (JSON in `report_json`).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn metrics(&mut self) -> io::Result<Response> {
        self.round_trip(&Request::Metrics)
    }

    /// Requests a graceful drain; the response arrives once no admitted
    /// check waits or runs.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&mut self) -> io::Result<Response> {
        let resp = self.round_trip(&Request::Shutdown)?;
        if resp.status != Status::ShuttingDown {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected shutdown status {:?}", resp.status),
            ));
        }
        Ok(resp)
    }
}
