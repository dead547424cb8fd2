//! Hostile input at the wire decoders: every truncation of a valid frame,
//! and seeded random bodies behind every opcode and into every response
//! decoder, either decode or return a typed [`ServeError`] — never a panic.

use hkrr_linalg::random::Pcg64;
use hkrr_serve::protocol::{
    decode_health, decode_info, decode_prediction, decode_refreshed, decode_request,
    decode_response, encode_health, encode_info, encode_prediction, encode_refreshed,
    encode_request, Request, ServerInfo, WirePrediction, ROLE_ROUTER,
};
use hkrr_serve::ServeError;
use proptest::prelude::*;

/// `len` bytes drawn from a `Pcg64` seeded with `seed`.
fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Pcg64::seed_from_u64(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// One valid request per opcode.
fn valid_requests() -> Vec<Request> {
    vec![
        Request::Predict {
            point: vec![0.25, -1.5, 3.0, f64::MAX],
            trace_id: 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
            parent_span: 77,
        },
        Request::Stats,
        Request::Ping,
        Request::Info,
        Request::Health,
        Request::Refresh,
        Request::Metrics,
    ]
}

/// A cut-off request frame is refused as `Protocol`, except where the cut
/// falls on an f64 boundary of a predict's point: that decodes as the same
/// trace context over a prefix of the point (dimension checks live in the
/// engine).
#[test]
fn every_truncation_of_a_valid_request_frame_is_typed() {
    for req in valid_requests() {
        let frame = encode_request(&req);
        for cut in 0..frame.len() {
            match (decode_request(&frame[..cut]), &req) {
                (Err(ServeError::Protocol(_)), _) => {}
                (
                    Ok(Request::Predict {
                        point,
                        trace_id,
                        parent_span,
                    }),
                    Request::Predict {
                        point: full,
                        trace_id: full_trace,
                        parent_span: full_parent,
                    },
                ) => {
                    assert_eq!((trace_id, parent_span), (*full_trace, *full_parent));
                    assert_eq!(point[..], full[..point.len()], "cut {cut}");
                }
                (other, _) => panic!("{req:?} cut at {cut}: unexpected {other:?}"),
            }
        }
    }
}

/// Asserts that `decode` refuses every proper prefix of `body` as
/// `Protocol`.
fn every_cut_is_refused<T: std::fmt::Debug>(
    body: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, ServeError>,
) {
    for cut in 0..body.len() {
        let outcome = decode(&body[..cut]);
        assert!(
            matches!(outcome, Err(ServeError::Protocol(_))),
            "cut at {cut}: {outcome:?}"
        );
    }
}

/// Every cut-off response body is refused as `Protocol`.
#[test]
fn every_truncation_of_a_valid_response_body_is_typed() {
    let prediction = encode_prediction(&WirePrediction {
        score: -0.5,
        label: -1.0,
        batch_size: 3,
        latency_micros: 1234,
    });
    every_cut_is_refused(&prediction, decode_prediction);
    let info = encode_info(&ServerInfo {
        dim: 16,
        n_train: 4000,
        uptime_micros: 9_000_000,
        version: "0.1.0".to_string(),
        build_stamp: "dev".to_string(),
    });
    every_cut_is_refused(&info, decode_info);
    every_cut_is_refused(&encode_health(ROLE_ROUTER, 42), decode_health);
    every_cut_is_refused(&encode_refreshed(4, 4000), decode_refreshed);
    assert!(matches!(decode_response(&[]), Err(ServeError::Protocol(_))));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bodies behind every opcode byte — the seven valid ones and
    /// all unknown ones — decode or fail as `Protocol`.
    #[test]
    fn random_request_frames_decode_or_fail_typed(seed in 0..u64::MAX, len in 0..96usize) {
        let body = random_bytes(seed, len);
        for op in 0..=u8::MAX {
            let mut frame = vec![op];
            frame.extend_from_slice(&body);
            let outcome = decode_request(&frame);
            prop_assert!(
                matches!(outcome, Ok(_) | Err(ServeError::Protocol(_))),
                "opcode {op:#04x}, {len} random bytes: {outcome:?}"
            );
        }
    }

    /// Random bodies fed to every response decoder decode or fail typed.
    #[test]
    fn random_response_bodies_decode_or_fail_typed(seed in 0..u64::MAX, len in 0..48usize) {
        let body = random_bytes(seed, len);
        let response = decode_response(&body);
        prop_assert!(
            matches!(
                response,
                Ok(_) | Err(ServeError::Rejected(_)) | Err(ServeError::Protocol(_))
            ),
            "response: {response:?}"
        );
        let prediction = decode_prediction(&body);
        prop_assert!(
            matches!(prediction, Ok(_) | Err(ServeError::Protocol(_))),
            "prediction: {prediction:?}"
        );
        let info = decode_info(&body);
        prop_assert!(
            matches!(info, Ok(_) | Err(ServeError::Protocol(_))),
            "info: {info:?}"
        );
        let health = decode_health(&body);
        prop_assert!(
            matches!(health, Ok(_) | Err(ServeError::Protocol(_))),
            "health: {health:?}"
        );
        let refreshed = decode_refreshed(&body);
        prop_assert!(
            matches!(refreshed, Ok(_) | Err(ServeError::Protocol(_))),
            "refreshed: {refreshed:?}"
        );
    }
}
