//! The wire protocol of the prediction service.
//!
//! Two modes share one TCP port:
//!
//! * **Binary (framed)** — a client opens with the 4-byte hello `HKRB`,
//!   then exchanges length-prefixed frames: `len: u32 LE` followed by `len`
//!   bytes of `opcode: u8` + body. All numbers little-endian, floats as
//!   their exact bit patterns (predictions stay bitwise faithful on the
//!   wire).
//! * **Line mode** — anything else on the first bytes switches the
//!   connection to newline-terminated ASCII commands, so `nc`/`telnet`
//!   work for manual poking: `predict 0.1 -0.3 …`, `stats`, `ping`,
//!   `info`, `health`, `refresh`, `quit`.
//!
//! ## Binary opcodes
//!
//! | op   | request body                      | OK response body                             |
//! |------|-----------------------------------|----------------------------------------------|
//! | 0x01 | `trace u128, parent u64, d × f64` | `score f64, label f64, batch u32, µs u64`    |
//! | 0x02 | —                                 | engine stats as a JSON string                |
//! | 0x03 | — (ping)                          | —                                            |
//! | 0x04 | — (info)                          | `dim u32, n_train u64, uptime µs u64, version, stamp` |
//! | 0x05 | — (health)                        | `role u8, requests u64`                      |
//! | 0x06 | — (refresh)                       | `num_models u32, n_train u64`                |
//! | 0x07 | — (metrics)                       | Prometheus text exposition (UTF-8)           |
//!
//! Every `predict` (0x01) carries a cross-process trace context before the
//! point — `trace_id: u128` then `parent_span: u64`, both little-endian —
//! so the server's engine spans join the caller's trace. A zero trace id
//! means untraced. Line mode's `predict` is always untraced: trace ids are
//! not meaningful on a hand-typed `nc` session.
//!
//! `health` (0x05) is the router tier's liveness + readiness probe: unlike
//! `ping`, it proves the peer speaks the binary protocol *and* reports
//! which role it plays (`0` = model server, `1` = router) plus how many
//! predict requests it has answered. `refresh` (0x06) asks a model server
//! to re-load its model from the source it was started from and hot-swap
//! it behind the live engine; servers without a reloadable source answer
//! with a status-1 error. `metrics` (0x07) renders the process-global
//! telemetry registry in Prometheus text exposition format, so shard
//! servers and routers are scrapeable in place.
//!
//! The info body carries the server's uptime and build identity after the
//! fixed `dim`/`n_train` fields (version and stamp as `len: u8` + UTF-8
//! bytes).
//!
//! Responses carry a status byte before the body: `0` OK, `1` error (body
//! is a UTF-8 message).

use crate::ServeError;
use std::io::{Read, Write};

/// Binary-mode connection hello.
pub const BINARY_HELLO: [u8; 4] = *b"HKRB";
/// Largest accepted frame (1 MiB): bounds per-connection memory.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Request opcode: predict one point under a trace context.
pub const OP_PREDICT: u8 = 0x01;
/// Request opcode: engine statistics.
pub const OP_STATS: u8 = 0x02;
/// Request opcode: liveness probe.
pub const OP_PING: u8 = 0x03;
/// Request opcode: model metadata (dimension, training size).
pub const OP_INFO: u8 = 0x04;
/// Request opcode: protocol-level health probe (role + request count).
pub const OP_HEALTH: u8 = 0x05;
/// Request opcode: re-load the model from its source and hot-swap it.
pub const OP_REFRESH: u8 = 0x06;
/// Request opcode: Prometheus text exposition of the telemetry registry.
pub const OP_METRICS: u8 = 0x07;

/// Byte length of the trace-context prefix in an [`OP_PREDICT`] body:
/// `trace_id: u128` (16) + `parent_span: u64` (8).
pub const TRACE_PREFIX_LEN: usize = 24;

/// `role` byte in a health response: a model (shard) server.
pub const ROLE_MODEL: u8 = 0;
/// `role` byte in a health response: a fan-out router.
pub const ROLE_ROUTER: u8 = 1;

/// Response status: success.
pub const STATUS_OK: u8 = 0;
/// Response status: error (body is a UTF-8 message).
pub const STATUS_ERR: u8 = 1;

/// One parsed binary request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Predict a single raw feature vector under the caller's trace
    /// context.
    Predict {
        /// The raw feature vector.
        point: Vec<f64>,
        /// Caller's globally-unique trace id (`0`: untraced).
        trace_id: u128,
        /// Span id of the caller's dispatch span (`0` for a root).
        parent_span: u64,
    },
    /// Engine statistics (JSON).
    Stats,
    /// Liveness probe.
    Ping,
    /// Model metadata.
    Info,
    /// Health probe: role + cumulative predict-request count.
    Health,
    /// Re-load the model from its source and hot-swap it into the engine.
    Refresh,
    /// Prometheus text exposition of the process-global metrics registry.
    Metrics,
}

/// One answered prediction, as it travels on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePrediction {
    /// Raw decision value.
    pub score: f64,
    /// ±1 label.
    pub label: f64,
    /// Coalesced batch size the request was served in.
    pub batch_size: u32,
    /// Server-side enqueue-to-reply latency in microseconds.
    pub latency_micros: u64,
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ServeError> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(ServeError::Protocol(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
            payload.len()
        )));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ServeError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(ServeError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Encodes a request frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Predict {
            point,
            trace_id,
            parent_span,
        } => {
            let mut out = Vec::with_capacity(1 + TRACE_PREFIX_LEN + point.len() * 8);
            out.push(OP_PREDICT);
            out.extend_from_slice(&trace_id.to_le_bytes());
            out.extend_from_slice(&parent_span.to_le_bytes());
            for &v in point {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out
        }
        Request::Stats => vec![OP_STATS],
        Request::Ping => vec![OP_PING],
        Request::Info => vec![OP_INFO],
        Request::Health => vec![OP_HEALTH],
        Request::Refresh => vec![OP_REFRESH],
        Request::Metrics => vec![OP_METRICS],
    }
}

/// Decodes a request frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ServeError> {
    let (&op, body) = payload
        .split_first()
        .ok_or_else(|| ServeError::Protocol("empty frame".to_string()))?;
    match op {
        OP_PREDICT => {
            if body.len() < TRACE_PREFIX_LEN {
                return Err(ServeError::Protocol(format!(
                    "predict body of {} bytes is shorter than the \
                     {TRACE_PREFIX_LEN}-byte trace context",
                    body.len()
                )));
            }
            let trace_id = u128::from_le_bytes(body[0..16].try_into().unwrap());
            let parent_span = u64::from_le_bytes(body[16..24].try_into().unwrap());
            let rest = &body[TRACE_PREFIX_LEN..];
            if rest.len() % 8 != 0 {
                return Err(ServeError::Protocol(format!(
                    "predict point of {} bytes is not a whole number of f64s",
                    rest.len()
                )));
            }
            let point = rest
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            Ok(Request::Predict {
                point,
                trace_id,
                parent_span,
            })
        }
        OP_STATS => Ok(Request::Stats),
        OP_PING => Ok(Request::Ping),
        OP_INFO => Ok(Request::Info),
        OP_HEALTH => Ok(Request::Health),
        OP_REFRESH => Ok(Request::Refresh),
        OP_METRICS => Ok(Request::Metrics),
        op => Err(ServeError::Protocol(format!("unknown opcode {op:#04x}"))),
    }
}

/// Encodes an OK response with the given body.
pub fn encode_ok(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(STATUS_OK);
    out.extend_from_slice(body);
    out
}

/// Encodes an error response.
pub fn encode_err(message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + message.len());
    out.push(STATUS_ERR);
    out.extend_from_slice(message.as_bytes());
    out
}

/// Splits a response payload into `Ok(body)` / `Err(message)`.
pub fn decode_response(payload: &[u8]) -> Result<&[u8], ServeError> {
    let (&status, body) = payload
        .split_first()
        .ok_or_else(|| ServeError::Protocol("empty response".to_string()))?;
    match status {
        STATUS_OK => Ok(body),
        STATUS_ERR => Err(ServeError::Rejected(
            String::from_utf8_lossy(body).into_owned(),
        )),
        s => Err(ServeError::Protocol(format!("unknown status {s:#04x}"))),
    }
}

/// Encodes a prediction response body.
pub fn encode_prediction(p: &WirePrediction) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 + 4 + 8);
    out.extend_from_slice(&p.score.to_le_bytes());
    out.extend_from_slice(&p.label.to_le_bytes());
    out.extend_from_slice(&p.batch_size.to_le_bytes());
    out.extend_from_slice(&p.latency_micros.to_le_bytes());
    out
}

/// Decodes a prediction response body.
pub fn decode_prediction(body: &[u8]) -> Result<WirePrediction, ServeError> {
    if body.len() != 28 {
        return Err(ServeError::Protocol(format!(
            "prediction body is {} bytes, expected 28",
            body.len()
        )));
    }
    Ok(WirePrediction {
        score: f64::from_le_bytes(body[0..8].try_into().unwrap()),
        label: f64::from_le_bytes(body[8..16].try_into().unwrap()),
        batch_size: u32::from_le_bytes(body[16..20].try_into().unwrap()),
        latency_micros: u64::from_le_bytes(body[20..28].try_into().unwrap()),
    })
}

/// The info reply: model metadata plus server identity, so a scrape can
/// distinguish a restarted server (uptime reset, same build) from a
/// redeployed one (new build stamp).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerInfo {
    /// Input feature dimension of the served model.
    pub dim: u32,
    /// Total training points behind the served model.
    pub n_train: u64,
    /// Microseconds since the server process started.
    pub uptime_micros: u64,
    /// Crate version of the serving binary (`CARGO_PKG_VERSION`).
    pub version: String,
    /// Compile-time build stamp (`HKRR_BUILD_STAMP`, `"dev"` by default).
    pub build_stamp: String,
}

impl ServerInfo {
    /// Uptime as fractional seconds.
    pub fn uptime_seconds(&self) -> f64 {
        self.uptime_micros as f64 / 1e6
    }
}

fn push_short_string(out: &mut Vec<u8>, s: &str) {
    let bytes = &s.as_bytes()[..s.len().min(u8::MAX as usize)];
    out.push(bytes.len() as u8);
    out.extend_from_slice(bytes);
}

fn take_short_string(body: &[u8], at: &mut usize) -> Result<String, ServeError> {
    let len = *body
        .get(*at)
        .ok_or_else(|| ServeError::Protocol("truncated info string".to_string()))?
        as usize;
    *at += 1;
    let bytes = body
        .get(*at..*at + len)
        .ok_or_else(|| ServeError::Protocol("truncated info string".to_string()))?;
    *at += len;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| ServeError::Protocol("info string is not UTF-8".to_string()))
}

/// Encodes an info response body.
pub fn encode_info(info: &ServerInfo) -> Vec<u8> {
    let mut out = Vec::with_capacity(20 + 2 + info.version.len() + info.build_stamp.len());
    out.extend_from_slice(&info.dim.to_le_bytes());
    out.extend_from_slice(&info.n_train.to_le_bytes());
    out.extend_from_slice(&info.uptime_micros.to_le_bytes());
    push_short_string(&mut out, &info.version);
    push_short_string(&mut out, &info.build_stamp);
    out
}

/// Decodes an info response body.
pub fn decode_info(body: &[u8]) -> Result<ServerInfo, ServeError> {
    if body.len() < 20 {
        return Err(ServeError::Protocol(format!(
            "info body is {} bytes, expected at least 20",
            body.len()
        )));
    }
    let dim = u32::from_le_bytes(body[0..4].try_into().unwrap());
    let n_train = u64::from_le_bytes(body[4..12].try_into().unwrap());
    let uptime_micros = u64::from_le_bytes(body[12..20].try_into().unwrap());
    let mut at = 20;
    let version = take_short_string(body, &mut at)?;
    let build_stamp = take_short_string(body, &mut at)?;
    if at != body.len() {
        return Err(ServeError::Protocol(format!(
            "info body has {} trailing bytes",
            body.len() - at
        )));
    }
    Ok(ServerInfo {
        dim,
        n_train,
        uptime_micros,
        version,
        build_stamp,
    })
}

/// A decoded health response: liveness and role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// [`ROLE_MODEL`] or [`ROLE_ROUTER`].
    pub role: u8,
    /// Cumulative predict requests answered by the peer.
    pub requests: u64,
}

/// Encodes a health response body (9 bytes).
pub fn encode_health(role: u8, requests: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.push(role);
    out.extend_from_slice(&requests.to_le_bytes());
    out
}

/// Decodes a health response body; anything that is not exactly 9 bytes
/// is refused.
pub fn decode_health(body: &[u8]) -> Result<HealthReport, ServeError> {
    if body.len() != 9 {
        return Err(ServeError::Protocol(format!(
            "health body is {} bytes, expected 9",
            body.len()
        )));
    }
    Ok(HealthReport {
        role: body[0],
        requests: u64::from_le_bytes(body[1..9].try_into().unwrap()),
    })
}

/// Encodes a refresh response body.
pub fn encode_refreshed(num_models: u32, n_train: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&num_models.to_le_bytes());
    out.extend_from_slice(&n_train.to_le_bytes());
    out
}

/// Decodes a refresh response body into `(num_models, n_train)`.
pub fn decode_refreshed(body: &[u8]) -> Result<(u32, u64), ServeError> {
    if body.len() != 12 {
        return Err(ServeError::Protocol(format!(
            "refresh body is {} bytes, expected 12",
            body.len()
        )));
    }
    Ok((
        u32::from_le_bytes(body[0..4].try_into().unwrap()),
        u64::from_le_bytes(body[4..12].try_into().unwrap()),
    ))
}

/// Parses one line-mode command. Returns `None` for `quit`/`exit` (close
/// the connection). A line-mode `predict` is always untraced.
pub fn parse_line(line: &str) -> Result<Option<Request>, ServeError> {
    let mut words = line.split_whitespace();
    match words.next() {
        None => Err(ServeError::Protocol("empty command".to_string())),
        Some("predict") => {
            let point: Result<Vec<f64>, _> = words.map(str::parse::<f64>).collect();
            match point {
                Ok(point) if !point.is_empty() => Ok(Some(Request::Predict {
                    point,
                    trace_id: 0,
                    parent_span: 0,
                })),
                Ok(_) => Err(ServeError::Protocol(
                    "predict needs at least one feature".to_string(),
                )),
                Err(e) => Err(ServeError::Protocol(format!("bad feature value: {e}"))),
            }
        }
        Some("stats") => Ok(Some(Request::Stats)),
        Some("ping") => Ok(Some(Request::Ping)),
        Some("info") => Ok(Some(Request::Info)),
        Some("health") => Ok(Some(Request::Health)),
        Some("refresh") => Ok(Some(Request::Refresh)),
        Some("metrics") => Ok(Some(Request::Metrics)),
        Some("quit") | Some("exit") => Ok(None),
        Some(cmd) => Err(ServeError::Protocol(format!("unknown command {cmd:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip_through_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        // EOF surfaces as an Io error, not a panic.
        assert!(matches!(read_frame(&mut cursor), Err(ServeError::Io(_))));
    }

    #[test]
    fn oversized_frames_are_refused_on_both_sides() {
        let huge = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &huge),
            Err(ServeError::Protocol(_))
        ));
        let mut bogus = Vec::new();
        bogus.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(bogus)),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn requests_roundtrip_bitwise() {
        let point = vec![1.5, -2.25, f64::MIN_POSITIVE, 1e300];
        for req in [
            Request::Predict {
                point,
                trace_id: 0,
                parent_span: 0,
            },
            Request::Stats,
            Request::Ping,
            Request::Info,
            Request::Health,
            Request::Refresh,
            Request::Metrics,
        ] {
            let decoded = decode_request(&encode_request(&req)).unwrap();
            assert_eq!(decoded, req);
        }
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0x7f]).is_err());
        assert!(decode_request(&[OP_PREDICT, 1, 2, 3]).is_err());
    }

    #[test]
    fn traced_predict_roundtrips_bitwise() {
        let req = Request::Predict {
            point: vec![1.5, -2.25, f64::MIN_POSITIVE, 1e300],
            trace_id: 0xfeed_beef_dead_cafe_0123_4567_89ab_cdef,
            parent_span: 42,
        };
        let payload = encode_request(&req);
        assert_eq!(payload[0], OP_PREDICT);
        assert_eq!(payload.len(), 1 + TRACE_PREFIX_LEN + 4 * 8);
        assert_eq!(decode_request(&payload).unwrap(), req);

        // Zero-length point is wire-legal at this layer (dimension checks
        // live in the engine).
        let empty = Request::Predict {
            point: vec![],
            trace_id: 1,
            parent_span: 0,
        };
        assert_eq!(decode_request(&encode_request(&empty)).unwrap(), empty);
    }

    #[test]
    fn predict_refuses_truncated_and_garbage_bodies() {
        // Body shorter than the 24-byte trace context.
        for short in [0, 1, 8, 23] {
            let mut payload = vec![OP_PREDICT];
            payload.extend_from_slice(&vec![0xAB; short]);
            match decode_request(&payload) {
                Err(ServeError::Protocol(msg)) => {
                    assert!(msg.contains("trace context"), "unexpected message: {msg}")
                }
                other => panic!("expected Protocol error, got {other:?}"),
            }
        }
        // Context present but point bytes not a multiple of 8.
        let mut payload = vec![OP_PREDICT];
        payload.extend_from_slice(&[0u8; TRACE_PREFIX_LEN]);
        payload.extend_from_slice(&[1, 2, 3]);
        match decode_request(&payload) {
            Err(ServeError::Protocol(msg)) => {
                assert!(msg.contains("whole number of f64s"), "unexpected: {msg}")
            }
            other => panic!("expected Protocol error, got {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip() {
        let p = WirePrediction {
            score: -0.123456789,
            label: -1.0,
            batch_size: 17,
            latency_micros: 4321,
        };
        let ok = encode_ok(&encode_prediction(&p));
        let body = decode_response(&ok).unwrap();
        assert_eq!(decode_prediction(body).unwrap(), p);

        let err = encode_err("queue full");
        assert!(matches!(
            decode_response(&err),
            Err(ServeError::Rejected(msg)) if msg == "queue full"
        ));

        let full = ServerInfo {
            dim: 16,
            n_train: 2000,
            uptime_micros: 1_500_000,
            version: "0.1.0".to_string(),
            build_stamp: "ci-42".to_string(),
        };
        let info = encode_ok(&encode_info(&full));
        let decoded = decode_info(decode_response(&info).unwrap()).unwrap();
        assert_eq!(decoded, full);
        assert_eq!(decoded.uptime_seconds(), 1.5);
        assert!(decode_prediction(&[0u8; 5]).is_err());
        assert!(decode_info(&[0u8; 5]).is_err());
        assert!(decode_info(&[0u8; 15]).is_err());
        // Truncated identity strings are refused, as are trailing bytes.
        let mut bad = encode_info(&full);
        bad.pop();
        assert!(decode_info(&bad).is_err());
        let mut trailing = encode_info(&full);
        trailing.push(0xEE);
        assert!(decode_info(&trailing).is_err());
        assert!(decode_response(&[]).is_err());

        let health = encode_ok(&encode_health(ROLE_ROUTER, 12345));
        let report = decode_health(decode_response(&health).unwrap()).unwrap();
        assert_eq!(
            report,
            HealthReport {
                role: ROLE_ROUTER,
                requests: 12345,
            }
        );
        assert!(decode_health(&[0u8; 3]).is_err());
        assert!(decode_health(&[0u8; 11]).is_err());

        let refreshed = encode_ok(&encode_refreshed(4, 2000));
        assert_eq!(
            decode_refreshed(decode_response(&refreshed).unwrap()).unwrap(),
            (4, 2000)
        );
        assert!(decode_refreshed(&[0u8; 3]).is_err());
    }

    #[test]
    fn earlier_health_and_info_bodies_are_refused() {
        // The 10-byte health body that carried a capability byte.
        let mut health = encode_health(ROLE_MODEL, 7);
        health.push(0x08);
        assert!(matches!(
            decode_health(&health),
            Err(ServeError::Protocol(_))
        ));
        // The 12-byte info body without uptime and build identity.
        let mut info = Vec::new();
        info.extend_from_slice(&16u32.to_le_bytes());
        info.extend_from_slice(&2000u64.to_le_bytes());
        assert!(matches!(decode_info(&info), Err(ServeError::Protocol(_))));
    }

    #[test]
    fn line_commands_parse() {
        assert_eq!(
            parse_line("predict 1.0 -2.5 3").unwrap(),
            Some(Request::Predict {
                point: vec![1.0, -2.5, 3.0],
                trace_id: 0,
                parent_span: 0,
            })
        );
        assert_eq!(parse_line("stats").unwrap(), Some(Request::Stats));
        assert_eq!(parse_line("ping").unwrap(), Some(Request::Ping));
        assert_eq!(parse_line("info").unwrap(), Some(Request::Info));
        assert_eq!(parse_line("health").unwrap(), Some(Request::Health));
        assert_eq!(parse_line("refresh").unwrap(), Some(Request::Refresh));
        assert_eq!(parse_line("metrics").unwrap(), Some(Request::Metrics));
        assert_eq!(parse_line("quit").unwrap(), None);
        assert!(parse_line("predict").is_err());
        assert!(parse_line("predict one two").is_err());
        assert!(parse_line("launch missiles").is_err());
        assert!(parse_line("   ").is_err());
    }
}
