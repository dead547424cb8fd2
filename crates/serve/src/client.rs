//! The reusable client half of the `HKRB` protocol.
//!
//! One [`Client`] wraps one blocking TCP connection in binary (framed)
//! mode. It is used by three layers that would otherwise re-implement the
//! framing:
//!
//! * the load generator ([`crate::loadgen`]) hammering a server,
//! * the fan-out router ([`crate::router`]), which is a protocol *client*
//!   of N shard servers while remaining a protocol *server* to the
//!   outside,
//! * programmatic callers embedding a prediction client.
//!
//! Connections opened with [`Client::connect_with`] carry connect and I/O
//! deadlines, so a router fanning out to a shard that just went dark gets
//! a typed [`ServeError::Io`] after the timeout instead of hanging a
//! production query forever.

use crate::protocol::{self, HealthReport, Request, ServerInfo, WirePrediction};
use crate::ServeError;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A thin blocking client for the binary protocol.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects without deadlines and sends the binary hello. Reads block
    /// until the server answers — fine for trusted local use (tests,
    /// loadgen against a healthy server); the router tier uses
    /// [`Client::connect_with`] instead.
    pub fn connect(addr: &str) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        Client::hello(stream)
    }

    /// Connects with a connect deadline and a per-read/write I/O deadline,
    /// then sends the binary hello. `io_timeout` bounds every subsequent
    /// call on this client: a peer that accepted the connection and then
    /// stopped answering surfaces as a timeout [`ServeError::Io`], never a
    /// hang.
    pub fn connect_with(
        addr: &str,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> Result<Client, ServeError> {
        // `connect_timeout` needs a resolved SocketAddr.
        let sock_addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ServeError::Protocol(format!("cannot resolve address {addr:?}")))?;
        let stream = TcpStream::connect_timeout(&sock_addr, connect_timeout)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        Client::hello(stream)
    }

    fn hello(mut stream: TcpStream) -> Result<Client, ServeError> {
        stream.set_nodelay(true).ok();
        stream.write_all(&protocol::BINARY_HELLO)?;
        stream.flush()?;
        Ok(Client { stream })
    }

    /// One request/response round trip; returns the OK body or the typed
    /// error the server sent.
    fn call(&mut self, req: &Request) -> Result<Vec<u8>, ServeError> {
        protocol::write_frame(&mut self.stream, &protocol::encode_request(req))?;
        let frame = protocol::read_frame(&mut self.stream)?;
        protocol::decode_response(&frame).map(<[u8]>::to_vec)
    }

    /// Predicts one point, untraced.
    pub fn predict(&mut self, point: Vec<f64>) -> Result<WirePrediction, ServeError> {
        self.predict_traced(point, 0, 0)
    }

    /// Predicts one point under a cross-process trace context: the
    /// server's engine spans adopt `trace_id` and record `parent_span` as
    /// their causal parent. A zero `trace_id` means untraced.
    pub fn predict_traced(
        &mut self,
        point: Vec<f64>,
        trace_id: u128,
        parent_span: u64,
    ) -> Result<WirePrediction, ServeError> {
        let body = self.call(&Request::Predict {
            point,
            trace_id,
            parent_span,
        })?;
        protocol::decode_prediction(&body)
    }

    /// Fetches the server's stats JSON.
    pub fn stats(&mut self) -> Result<String, ServeError> {
        let body = self.call(&Request::Stats)?;
        Ok(String::from_utf8_lossy(&body).into_owned())
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.call(&Request::Ping).map(|_| ())
    }

    /// Model metadata plus server identity: dimension, training points,
    /// uptime, and the build version/stamp (see [`ServerInfo`]).
    pub fn info(&mut self) -> Result<ServerInfo, ServeError> {
        let body = self.call(&Request::Info)?;
        protocol::decode_info(&body)
    }

    /// Scrapes the server's metrics registry as Prometheus text
    /// exposition (`# HELP`/`# TYPE` plus one sample per line).
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        let body = self.call(&Request::Metrics)?;
        Ok(String::from_utf8_lossy(&body).into_owned())
    }

    /// Health probe: role and predict-request count (see
    /// [`HealthReport`]). Unlike [`Client::ping`], this proves the peer
    /// speaks the binary protocol and says whether it is a model server or
    /// a router.
    pub fn health(&mut self) -> Result<HealthReport, ServeError> {
        let body = self.call(&Request::Health)?;
        protocol::decode_health(&body)
    }

    /// Asks the server to re-load its model from its source and hot-swap
    /// it; returns the refreshed `(num_models, n_train)`.
    pub fn refresh(&mut self) -> Result<(u32, u64), ServeError> {
        let body = self.call(&Request::Refresh)?;
        protocol::decode_refreshed(&body)
    }
}
