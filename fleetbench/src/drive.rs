//! Load generation: an open-loop driver (Poisson schedule, latency from
//! the scheduled send) and a closed-loop one for calibration. One
//! process, two threads, two connections.

use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use gb_service::client::Client;
use gb_service::proto::{Codec, Frame, FrameReader, Response, WireCodec};

use crate::gen::{Plan, Req};

/// Connections (and threads) the generator uses.
pub const CONNS: usize = 2;

/// What came back for one request.
#[derive(Debug, Clone)]
pub enum Answer {
    /// No reply before the drain deadline (or the connection died).
    Missing,
    /// An error reply or an undecodable frame.
    Error(String),
    Ok(OkReply),
}

#[derive(Debug, Clone)]
pub struct OkReply {
    pub cached: bool,
    pub micros: u64,
    pub algorithm: gb_service::proto::Algorithm,
    pub n: usize,
    pub ratio: f64,
    pub bound: f64,
    pub alpha: f64,
    pub pieces_len: usize,
    /// Hash of the pieces' bit patterns, to compare every reply of a key
    /// without keeping every piece vector.
    pub pieces_hash: u64,
    /// The pieces themselves, kept for the first reply with pieces of
    /// each key on each connection.
    pub pieces: Option<Vec<f64>>,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    /// Send and receive times, seconds from the stream's start (NaN if
    /// the event never happened).
    pub sent: f64,
    pub recv: f64,
    pub answer: Answer,
}

/// Hash of an `f64` slice's bit patterns.
pub fn pieces_hash(pieces: &[f64]) -> u64 {
    pieces.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
        (h ^ p.to_bits())
            .wrapping_mul(0x0100_0000_01b3)
            .rotate_left(7)
    })
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 1;
const POLLOUT: i16 = 4;

/// Waits until `stream` is readable (or writable, with `out`) or
/// `timeout` passes, at nanosecond resolution; `poll(2)` would round
/// the timeout up to a millisecond.
fn wait(stream: &TcpStream, out: bool, timeout: Duration) {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN | if out { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out locals for the
    // duration of the call; nfds = 1 matches the single entry; a null
    // sigmask leaves the signal mask alone. The result only shortens the
    // wait, so errors (EINTR) are ignored.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// Sends `reqs` open-loop, each at its `due` time after a common start,
/// over [`CONNS`] connections (request `i` on connection `i % CONNS`),
/// and waits up to `drain` after the last due time for replies. Returns
/// one outcome per request, in order, with times from the start.
pub fn open_loop(
    addr: SocketAddr,
    plan: &Plan,
    reqs: &[Req],
    drain: Duration,
) -> io::Result<Vec<Outcome>> {
    let mut lanes: Vec<Vec<(usize, f64, Vec<u8>)>> = vec![Vec::new(); CONNS];
    for (i, r) in reqs.iter().enumerate() {
        lanes[i % CONNS].push((i, r.due, plan.frame(r, i as u64)));
    }
    let streams = (0..CONNS)
        .map(|_| TcpStream::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let start = Instant::now();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .zip(streams)
            .map(|(lane, stream)| s.spawn(move || lane_loop(stream, reqs, lane, start, drain)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut out: Vec<Outcome> = vec![
        Outcome {
            sent: f64::NAN,
            recv: f64::NAN,
            answer: Answer::Missing,
        };
        reqs.len()
    ];
    for lane in results {
        for (i, o) in lane? {
            out[i] = o;
        }
    }
    Ok(out)
}

fn lane_loop(
    stream: TcpStream,
    reqs: &[Req],
    lane: Vec<(usize, f64, Vec<u8>)>,
    start: Instant,
    drain: Duration,
) -> io::Result<Vec<(usize, Outcome)>> {
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let mut reader = FrameReader::new(&stream);
    let by_id: HashMap<u64, usize> = lane
        .iter()
        .enumerate()
        .map(|(j, l)| (l.0 as u64, j))
        .collect();
    let mut outcomes: Vec<Outcome> = lane
        .iter()
        .map(|_| Outcome {
            sent: f64::NAN,
            recv: f64::NAN,
            answer: Answer::Missing,
        })
        .collect();
    let last_due = lane.last().map_or(0.0, |l| l.1);
    let deadline = last_due + drain.as_secs_f64();
    let mut kept_pieces: HashSet<u32> = HashSet::new();
    let (mut next, mut received) = (0usize, 0usize);
    let (mut out, mut out_pos) = (Vec::<u8>::new(), 0usize);
    let mut closed = false;
    loop {
        let now = start.elapsed().as_secs_f64();
        while next < lane.len() && lane[next].1 <= now {
            out.extend_from_slice(&lane[next].2);
            outcomes[next].sent = now;
            next += 1;
        }
        while out_pos < out.len() && !closed {
            match (&stream).write(&out[out_pos..]) {
                Ok(0) => closed = true,
                Ok(k) => out_pos += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => closed = true,
            }
        }
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }
        while !closed {
            let (payload, codec) = match reader.poll_line() {
                Ok(Frame::Line(line)) => (line.into_bytes(), WireCodec::Json),
                Ok(Frame::Binary(p)) => (p, WireCodec::Binary),
                Ok(Frame::Pending) => break,
                Ok(Frame::Eof) | Err(_) => {
                    closed = true;
                    break;
                }
            };
            let recv = start.elapsed().as_secs_f64();
            let (id, answer) = match codec.decode_response(&payload) {
                Ok(Response::Ok(ok)) => {
                    let Some(&j) = ok.id.and_then(|id| by_id.get(&id)) else {
                        continue;
                    };
                    let key = reqs[lane[j].0].key;
                    let keep = !ok.pieces.is_empty() && kept_pieces.insert(key);
                    let reply = OkReply {
                        cached: ok.cached,
                        micros: ok.micros,
                        algorithm: ok.algorithm,
                        n: ok.n,
                        ratio: ok.ratio,
                        bound: ok.bound,
                        alpha: ok.alpha,
                        pieces_len: ok.pieces.len(),
                        pieces_hash: pieces_hash(&ok.pieces),
                        pieces: keep.then_some(ok.pieces),
                    };
                    (ok.id, Answer::Ok(reply))
                }
                Ok(Response::Error { id, code, message }) => {
                    (id, Answer::Error(format!("{}: {message}", code.name())))
                }
                Ok(other) => (None, Answer::Error(format!("unexpected reply {other:?}"))),
                Err(e) => (None, Answer::Error(format!("undecodable reply: {e}"))),
            };
            let Some(&j) = id.and_then(|id| by_id.get(&id)) else {
                continue;
            };
            if matches!(outcomes[j].answer, Answer::Missing) {
                received += 1;
            }
            outcomes[j].recv = recv;
            outcomes[j].answer = answer;
        }
        let now = start.elapsed().as_secs_f64();
        if received == lane.len() || closed || (next == lane.len() && now >= deadline) {
            break;
        }
        let until = if next < lane.len() {
            lane[next].1
        } else {
            deadline
        };
        wait(
            &stream,
            out_pos < out.len(),
            Duration::from_secs_f64((until - now).max(0.0)),
        );
    }
    Ok(lane.iter().map(|l| l.0).zip(outcomes).collect())
}

/// Closed-loop capacity: each of [`CONNS`] connections sends its next
/// request as soon as the previous reply arrives, cycling through
/// `reqs`. Returns OK replies per second over `seconds`.
pub fn closed_loop(addr: SocketAddr, plan: &Plan, reqs: &[Req], seconds: f64) -> io::Result<f64> {
    let start = Instant::now();
    let oks = closed(addr, plan, reqs, true, seconds)?;
    Ok(oks as f64 / start.elapsed().as_secs_f64())
}

/// Sends each of `reqs` once, closed loop over [`CONNS`] connections,
/// and returns the number of OK replies.
pub fn send_each(addr: SocketAddr, plan: &Plan, reqs: &[Req]) -> io::Result<usize> {
    closed(addr, plan, reqs, false, f64::INFINITY).map(|ok| ok as usize)
}

/// Request `i` goes on connection `i % CONNS`, each connection waiting
/// for one reply before its next send; with `cycle` the connections
/// repeat `reqs` until `seconds` pass. Returns the OK replies.
fn closed(
    addr: SocketAddr,
    plan: &Plan,
    reqs: &[Req],
    cycle: bool,
    seconds: f64,
) -> io::Result<u64> {
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                s.spawn(move || -> io::Result<u64> {
                    let mut client = Client::connect(addr)?;
                    let mut ok = 0;
                    let mine = reqs.iter().enumerate().skip(c).step_by(CONNS);
                    let mine: Box<dyn Iterator<Item = _>> = if cycle {
                        Box::new(mine.cycle())
                    } else {
                        Box::new(mine)
                    };
                    for (i, r) in mine {
                        if start.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        client.set_codec(r.codec);
                        if let Response::Ok(_) = client.call(&plan.request(r, i as u64))? {
                            ok += 1;
                        }
                    }
                    Ok(ok)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .sum::<io::Result<u64>>()
    })
}
