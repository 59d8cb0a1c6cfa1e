//! Integration tests for the bundled client's public contract, driven
//! against scripted fake servers: a dead or silent connection is retried
//! on a fresh one under a fresh id, a refused connect surfaces as a typed
//! I/O error, replies to ids a call is not waiting for are skipped, and
//! an outcome report rides one `Outcome` frame keyed by the prediction's
//! id. A property pins the retry backoff's jitter window. No model is
//! trained, so every test runs in milliseconds.

use bagpred::ml::codec::fmt_f64;
use bagpred::serve::client::backoff_delay;
use bagpred::serve::frame::{self, Frame, Payload};
use bagpred::serve::{Client, ClientConfig, ClientError};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a fake server does with one request frame.
enum Answer {
    /// Write these frames, then read the next request.
    Reply(Vec<Frame>),
    /// Close the connection without a reply.
    Hangup,
    /// Never reply; wait for the client to give up and close.
    Silent,
}

/// A fake binary server for `connections` connections in turn: each
/// hello is acked, then `answer(connection, frame)` decides every
/// request. Joins to every frame it read, in order.
fn fake_server(
    connections: usize,
    mut answer: impl FnMut(usize, &Frame) -> Answer + Send + 'static,
) -> (SocketAddr, JoinHandle<Vec<Frame>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let mut seen = Vec::new();
        for connection in 0..connections {
            let (stream, _) = listener.accept().expect("accepts");
            let mut reader = BufReader::new(stream.try_clone().expect("clones"));
            let mut writer = stream;
            let mut hello = String::new();
            reader.read_line(&mut hello).expect("reads hello");
            assert_eq!(hello.trim_end(), frame::HELLO_BINARY);
            writer
                .write_all(format!("{}\n", frame::HELLO_BINARY_OK).as_bytes())
                .expect("acks binary");
            while let Some(request) = read_frame(&mut reader) {
                let answer = answer(connection, &request);
                seen.push(request);
                match answer {
                    Answer::Reply(replies) => {
                        for reply in replies {
                            writer.write_all(&frame::encode(&reply)).expect("replies");
                        }
                    }
                    Answer::Hangup => break,
                    Answer::Silent => {
                        let _ = reader.read_to_end(&mut Vec::new());
                        break;
                    }
                }
            }
        }
        seen
    });
    (addr, server)
}

/// One frame off the socket, or `None` once the client hung up.
fn read_frame(reader: &mut BufReader<TcpStream>) -> Option<Frame> {
    let mut prelude = [0u8; frame::PRELUDE_LEN];
    reader.read_exact(&mut prelude).ok()?;
    let len = frame::decode_prelude(&prelude).expect("prelude decodes");
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).expect("reads body");
    Some(frame::decode_body(&body).expect("body decodes"))
}

fn line_reply(request_id: u64, text: &str) -> Frame {
    Frame::new(request_id, Payload::LineReply(text.to_string()))
}

/// Fast retries, so a test that exercises them stays quick.
fn quick_retries(max_attempts: u32) -> ClientConfig {
    ClientConfig {
        max_attempts,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        ..ClientConfig::default()
    }
}

#[test]
fn a_dropped_connection_is_retried_on_a_fresh_one_under_a_fresh_id() {
    let (addr, server) = fake_server(2, |connection, request| match connection {
        0 => Answer::Hangup,
        _ => Answer::Reply(vec![line_reply(request.request_id, "ok models=pair-tree")]),
    });
    let mut client = Client::with_config(addr, quick_retries(3));
    assert_eq!(
        client.request("models").expect("the retry answers"),
        "ok models=pair-tree"
    );
    assert_eq!(client.retries(), 1);
    assert_eq!(
        client.last_request_id(),
        Some(2),
        "the attempt that answered"
    );
    drop(client);
    let seen = server.join().expect("server thread");
    let ids: Vec<u64> = seen.iter().map(|f| f.request_id).collect();
    assert_eq!(ids, vec![1, 2], "a retry is a new request on the wire");
    for request in &seen {
        assert_eq!(request.payload, Payload::Line("models".to_string()));
    }
}

#[test]
fn a_silent_server_times_out_and_the_retry_answers() {
    let (addr, server) = fake_server(2, |connection, request| match connection {
        0 => Answer::Silent,
        _ => Answer::Reply(vec![line_reply(request.request_id, "ok health=ready")]),
    });
    let io_timeout = Duration::from_millis(100);
    let mut client = Client::with_config(
        addr,
        ClientConfig {
            io_timeout,
            ..quick_retries(2)
        },
    );
    let started = Instant::now();
    assert_eq!(
        client.request("health").expect("the retry answers"),
        "ok health=ready"
    );
    assert!(
        started.elapsed() >= io_timeout,
        "the first attempt waited out its read timeout"
    );
    assert_eq!(client.retries(), 1);
    assert_eq!(client.last_request_id(), Some(2));
    drop(client);
    assert_eq!(server.join().expect("server thread").len(), 2);
}

#[test]
fn nothing_listening_surfaces_an_io_error_after_every_attempt() {
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        listener.local_addr().expect("addr")
    };
    let mut client = Client::with_config(addr, quick_retries(3));
    match client.request("models") {
        Err(ClientError::Io(err)) => {
            assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused, "{err}")
        }
        other => panic!("expected an I/O error, got {other:?}"),
    }
    assert_eq!(client.retries(), 2);
    assert_eq!(client.last_request_id(), Some(3), "the last attempt");
}

#[test]
fn cancel_skips_replies_to_other_ids_and_leaves_the_join_key() {
    let (addr, server) = fake_server(1, |_, request| {
        let id = request.request_id;
        Answer::Reply(match request.payload {
            // A late reply for the cancel's target lands ahead of the
            // cancel's own ack; the cancel must wait for its id.
            Payload::Cancel { target } => vec![
                line_reply(target, "ok model=pair-tree predicted_s=9.0"),
                line_reply(id, "ok cancel=late"),
            ],
            _ => vec![line_reply(
                id,
                &format!("ok model=pair-tree predicted_s={id}.5"),
            )],
        })
    });
    let mut client = Client::new(addr);
    assert_eq!(
        client.request("predict SIFT@20+KNN@40").expect("predicts"),
        "ok model=pair-tree predicted_s=1.5"
    );
    assert_eq!(client.cancel(1).expect("cancels"), "ok cancel=late");
    assert_eq!(
        client.last_request_id(),
        Some(1),
        "a cancel takes an id of its own but does not move the join key"
    );
    // The next request reads its own reply, not anything left over.
    assert_eq!(
        client.request("predict SIFT@20+KNN@40").expect("predicts"),
        "ok model=pair-tree predicted_s=3.5"
    );
    assert_eq!(client.last_request_id(), Some(3));
    drop(client);
    let seen = server.join().expect("server thread");
    assert_eq!(seen[1], Frame::new(2, Payload::Cancel { target: 1 }));
}

#[test]
fn outcome_reports_ride_one_outcome_frame_keyed_by_the_prediction_id() {
    let predicted_s = 0.25;
    let mut reports = 0;
    let (addr, server) = fake_server(2, move |_, request| {
        let id = request.request_id;
        match request.payload {
            Payload::Outcome { .. } => {
                reports += 1;
                match reports {
                    1 => Answer::Reply(vec![line_reply(id, "ok outcome=matched")]),
                    // The second report meets a dying server.
                    _ => Answer::Hangup,
                }
            }
            _ => Answer::Reply(vec![Frame::new(
                id,
                Payload::Prediction {
                    model: "pair-tree".to_string(),
                    predicted_s,
                },
            )]),
        }
    });
    let mut client = Client::new(addr);
    // A binary prediction renders to the exact text-dialect line.
    assert_eq!(
        client.request("predict SIFT@20+KNN@40").expect("predicts"),
        format!("ok model=pair-tree predicted_s={}", fmt_f64(predicted_s))
    );
    let id = client.last_request_id().expect("a request was made");
    assert_eq!(
        client.report_outcome(id, 250_000).expect("reports"),
        "ok outcome=matched"
    );
    // One attempt only: a report whose socket dies is an I/O error, and
    // the next request reconnects.
    assert!(matches!(
        client.report_outcome(id, 250_000),
        Err(ClientError::Io(_))
    ));
    assert!(client
        .request("predict SIFT@20+KNN@40")
        .expect("reconnects")
        .starts_with("ok model=pair-tree"));
    assert_eq!(client.retries(), 0, "no request needed a retry");
    drop(client);
    let seen = server.join().expect("server thread");
    let outcome = Frame::new(1, Payload::Outcome { actual_us: 250_000 });
    assert_eq!(seen[1], outcome, "the join key is the frame's own id");
    assert_eq!(seen[2], outcome);
    assert_eq!(seen.len(), 4, "predict, two reports, predict");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every backoff sleeps within the upper half of its capped
    /// exponential window, and the same jitter state replays the same
    /// sleep — whatever the settings, including a base above the cap.
    #[test]
    fn backoff_stays_in_the_upper_half_of_its_capped_window(
        attempt in 0u32..70,
        base_us in 0u64..100_000,
        max_us in 0u64..2_000_000,
        seed in any::<u64>(),
    ) {
        let config = ClientConfig {
            base_backoff: Duration::from_micros(base_us),
            max_backoff: Duration::from_micros(max_us),
            ..ClientConfig::default()
        };
        let window_us = base_us
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
            .min(max_us.max(base_us));
        let (mut rng_a, mut rng_b) = (seed, seed);
        let delay = backoff_delay(attempt, &config, &mut rng_a);
        prop_assert!(delay >= Duration::from_micros(window_us / 2),
            "{delay:?} under half of {window_us}us");
        prop_assert!(delay <= Duration::from_micros(window_us),
            "{delay:?} over {window_us}us");
        prop_assert_eq!(delay, backoff_delay(attempt, &config, &mut rng_b));
        prop_assert_eq!(rng_a, rng_b);
    }
}
