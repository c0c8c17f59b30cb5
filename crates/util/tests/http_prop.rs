//! Property tests for the `tesa serve` request parser: whatever bytes a
//! client sends — noise, HTTP-shaped token soup, a valid request cut
//! short, an oversized head, or two `Content-Length` headers —
//! `Request::read_from` returns `Ok` or `Err` and never panics.

use std::io::Cursor;
use std::panic::catch_unwind;
use tesa_util::http::{HttpError, Request, MAX_HEAD_BYTES};
use tesa_util::propcheck::{check, ranged, vec_of, Config};
use tesa_util::{prop_assert, prop_assert_eq};

/// Parses `bytes` as one request, turning a panic into a property
/// failure, and returns the result with how far the parser read.
fn parse(bytes: Vec<u8>) -> Result<(Result<Request, HttpError>, u64), String> {
    catch_unwind(move || {
        let mut cursor = Cursor::new(bytes);
        let result = Request::read_from(&mut cursor);
        (result, cursor.position())
    })
    .map_err(|_| "Request::read_from panicked".to_owned())
}

/// Pieces of HTTP syntax, so random sequences reach the header and body
/// parsers instead of failing on the request line.
const TOKENS: &[&str] = &[
    "GET", "POST", " ", "/", "/evaluate", "HTTP/1.1", "HTTP/2", "\r\n", "\n", "\r", ":",
    "Content-Length", "content-length", ": ", "0", "7", "12", "-1", "99999999999999999999",
    "{}", "x", "\u{e9}", "\0",
];

const VALID: &[u8] = b"POST /evaluate HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}";

#[test]
fn random_bytes_never_panic() {
    check(Config::with_cases(256), vec_of(ranged(0u16..256), 0..600), |bytes| {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let _ = parse(bytes)?;
        Ok(())
    });
}

#[test]
fn http_shaped_token_soup_never_panics() {
    check(Config::with_cases(512), vec_of(ranged(0usize..TOKENS.len()), 0..48), |picks| {
        let raw: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let _ = parse(raw.into_bytes())?;
        Ok(())
    });
}

#[test]
fn truncated_requests_are_errors() {
    check(Config::with_cases(128), ranged(0usize..VALID.len() + 1), |cut| {
        let (result, _) = parse(VALID[..cut].to_vec())?;
        if cut == VALID.len() {
            prop_assert_eq!(result.map_err(|e| e.to_string())?.body, b"{}".to_vec());
        } else {
            prop_assert!(result.is_err(), "a request cut at byte {} parsed", cut);
        }
        Ok(())
    });
}

#[test]
fn oversized_heads_are_rejected_within_the_cap() {
    // `lines` header lines share the head; one line (0) never ends.
    check(
        Config::with_cases(48),
        (ranged(MAX_HEAD_BYTES + 1..4 * MAX_HEAD_BYTES), ranged(0usize..64)),
        |(len, lines)| {
            let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
            let per_line = len / lines.max(1);
            while raw.len() < len {
                raw.extend_from_slice(b"X: ");
                raw.resize(raw.len() + per_line, b'y');
                if lines > 0 {
                    raw.extend_from_slice(b"\r\n");
                }
            }
            raw.extend_from_slice(b"\r\n");
            let (result, read) = parse(raw)?;
            prop_assert!(
                matches!(result, Err(HttpError::Malformed(_))),
                "a {}-byte head was not rejected",
                len
            );
            prop_assert!(
                read <= MAX_HEAD_BYTES as u64 + 1,
                "the parser buffered {} bytes of head",
                read
            );
            Ok(())
        },
    );
}

#[test]
fn duplicate_content_lengths_must_agree() {
    check(Config::with_cases(128), (ranged(0usize..32), ranged(0usize..32)), |(a, b)| {
        let mut raw =
            format!("POST /screen HTTP/1.1\r\nContent-Length: {a}\r\ncontent-length: {b}\r\n\r\n")
                .into_bytes();
        raw.resize(raw.len() + a.max(b), b'x');
        let (result, _) = parse(raw)?;
        if a == b {
            prop_assert_eq!(result.map_err(|e| e.to_string())?.body.len(), a);
        } else {
            prop_assert!(
                matches!(result, Err(HttpError::Malformed(_))),
                "lengths {} and {} were accepted",
                a,
                b
            );
        }
        Ok(())
    });
}
