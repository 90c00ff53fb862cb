//! The serving workload: one release `tempora-serve` process driven by an
//! open-loop Poisson load generator with at most `nproc` threads and
//! `nproc` connections, requests pipelined on each connection.

use crate::mix;
use crate::openloop::{self, Trial};
use crate::solve::{backlog_at_end, oracle_state_digest, request_seed};
use crate::verify::splitmix;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tempora_proto::{ErrorCode, Frame, FrameAccum, FramePoll, JobSpec, RunReply};

/// A running `tempora-serve`; killed and reaped on drop.
pub struct ServeProc {
    child: Child,
    pub addr: String,
}

impl ServeProc {
    pub fn start(bin: &Path) -> Result<ServeProc, String> {
        let mut child = Command::new(bin)
            .args([
                "--tcp",
                "127.0.0.1:0",
                "--cache-cap",
                &mix::CACHE_CAP.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {} failed: {e}", bin.display()))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = line
            .split_whitespace()
            .find_map(|w| w.strip_prefix("tcp="))
            .map(str::to_string);
        match (read, addr) {
            (Some(Ok(_)), Some(addr)) => Ok(ServeProc { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "tempora-serve did not report its address: {line:?}"
                ))
            }
        }
    }

    /// Peak resident set of the server process, in MiB.
    pub fn hwm_mib(&self) -> f64 {
        crate::machine::vm_hwm_mib(&self.child.id().to_string())
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request of a schedule.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    pub due_ns: u64,
    /// Index into the hot specs followed by the cold specs.
    pub spec: usize,
    pub seed: u64,
}

/// The arrivals of one trial: Poisson due times, ~95% hot specs and ~5%
/// from the cold pool, input seeds from a small per-run pool.
pub fn schedule(seed: u64, rate: f64, seconds: f64, hot: usize, cold: usize) -> Vec<Req> {
    openloop::poisson_schedule(seed, rate, seconds)
        .into_iter()
        .enumerate()
        .map(|(i, due_ns)| {
            let u = splitmix(seed ^ 0xc01d ^ (i as u64) << 8);
            let spec = if u % 100 < mix::COLD_PERCENT {
                hot + ((u >> 16) % cold as u64) as usize
            } else {
                ((u >> 16) % hot as u64) as usize
            };
            Req {
                due_ns,
                spec,
                seed: request_seed(seed, i),
            }
        })
        .collect()
}

/// What came back for one request.
#[derive(Clone, Debug)]
pub struct Reply {
    pub sent_ns: u64,
    pub recv_ns: u64,
    pub reply: Result<RunReply, ErrorCode>,
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

/// Block until `stream` is readable or `timeout_ns` passed. The load
/// generator waits here instead of polling, so it takes no CPU time from
/// the server between arrivals; `ppoll` has nanosecond timeouts where
/// socket read timeouts round to scheduler ticks.
fn wait_readable(stream: &TcpStream, timeout_ns: u64) {
    use std::os::fd::AsRawFd;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: 1, // POLLIN
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fd` and `ts` outlive the call, `nfds` is 1 for the one
    // `PollFd`, and a null signal mask leaves the mask unchanged. An error
    // return (EINTR) only ends the wait early, which the caller tolerates.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// One persistent connection of the load generator.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    accum: FrameAccum,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let io = |e: std::io::Error| format!("connecting to {addr}: {e}");
        let stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream.set_nonblocking(true).map_err(io)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone().map_err(io)?),
            writer: stream,
            accum: FrameAccum::new(),
        })
    }
}

/// Drive `reqs` over `conns`, one thread per connection (the calling
/// thread runs the first). Requests are assigned round-robin and written
/// as soon as they fall due, without waiting for earlier replies.
/// Request ids are `id_base + index`, so a late reply from an earlier
/// trial can never be taken for one of this trial. Requests unanswered
/// `drain` after the last due time are missing from the result.
pub fn drive(
    conns: &mut [Conn],
    specs: &[JobSpec],
    reqs: &[Req],
    id_base: u64,
    drain: Duration,
) -> Result<Vec<Option<Reply>>, String> {
    let t0 = Instant::now() + Duration::from_millis(5);
    let n = conns.len();
    let results: Vec<Result<Vec<(usize, Reply)>, String>> = std::thread::scope(|scope| {
        // Panic-justification: callers open `nproc` ≥ 1 connections.
        let (first, rest) = conns.split_first_mut().expect("at least one connection");
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || connection(conn, specs, reqs, id_base, c + 1, n, t0, drain))
            })
            .collect();
        let mut out = vec![connection(first, specs, reqs, id_base, 0, n, t0, drain)];
        out.extend(handles.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("load-generator thread panicked".into()))
        }));
        out
    });
    let mut outcomes = vec![None; reqs.len()];
    for r in results {
        for (i, o) in r? {
            outcomes[i] = Some(o);
        }
    }
    Ok(outcomes)
}

// Justification: one connection's loop needs the shared schedule, its slot and the trial clock.
#[allow(clippy::too_many_arguments)]
fn connection(
    conn: &mut Conn,
    specs: &[JobSpec],
    reqs: &[Req],
    id_base: u64,
    c: usize,
    n: usize,
    t0: Instant,
    drain: Duration,
) -> Result<Vec<(usize, Reply)>, String> {
    let io = |e: std::io::Error| format!("connection {c}: {e}");
    let mine: Vec<usize> = (c..reqs.len()).step_by(n).collect();
    let mut sent: HashMap<u64, (usize, u64)> = HashMap::new();
    let mut out = Vec::with_capacity(mine.len());
    let mut buf: Vec<u8> = Vec::new();
    let mut next = 0;
    let last_due = mine.last().map_or(0, |&i| reqs[i].due_ns);
    let deadline = last_due + drain.as_nanos() as u64;
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        while next < mine.len() && reqs[mine[next]].due_ns <= now {
            let i = mine[next];
            let r = reqs[i];
            let request_id = id_base + i as u64;
            let body = Frame::RunSteps {
                request_id,
                spec: specs[r.spec],
                seed: r.seed,
            }
            .encode_body();
            buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
            buf.extend_from_slice(&body);
            sent.insert(request_id, (i, now));
            next += 1;
        }
        while !buf.is_empty() {
            match conn.writer.write(&buf) {
                Ok(k) => {
                    buf.drain(..k);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io(e)),
            }
        }
        let mut got = false;
        loop {
            match conn.accum.poll(&mut conn.reader) {
                Ok(FramePoll::Frame(frame)) => {
                    got = true;
                    let recv_ns = t0.elapsed().as_nanos() as u64;
                    let (id, reply) = match frame {
                        Frame::ReportReply { request_id, reply } => (request_id, Ok(reply)),
                        Frame::ErrorReply {
                            request_id, code, ..
                        } => (request_id, Err(code)),
                        _ => return Err(format!("connection {c}: unexpected frame")),
                    };
                    if let Some((i, sent_ns)) = sent.remove(&id) {
                        out.push((
                            i,
                            Reply {
                                sent_ns,
                                recv_ns,
                                reply,
                            },
                        ));
                    }
                }
                Ok(FramePoll::Pending { .. }) => break,
                Ok(FramePoll::Eof) => {
                    return Err(format!("connection {c}: server closed the connection"))
                }
                Err(e) => return Err(format!("connection {c}: {e}")),
            }
        }
        if (next == mine.len() && sent.is_empty() && buf.is_empty()) || now > deadline {
            return Ok(out);
        }
        if !got && buf.is_empty() {
            let wake = if next < mine.len() {
                reqs[mine[next]].due_ns
            } else {
                deadline
            };
            wait_readable(&conn.writer, wake.saturating_sub(now).min(50_000_000));
        }
    }
}

/// One trial's requests, outcomes and the verified latency accounting.
pub struct ServeTrial {
    pub trial: Trial,
    pub reqs: Vec<Req>,
    pub outcomes: Vec<Option<Reply>>,
    /// Replies whose digest differed from the in-process oracle.
    pub mismatches: u64,
    pub busy: u64,
    pub errors: u64,
}

/// Expected `state_digest` per `(spec, seed)`, computed once by running
/// the reference oracle on the server's deterministic input.
pub struct Expected(HashMap<(usize, u64), u64>);

impl Expected {
    pub fn new() -> Expected {
        Expected(HashMap::new())
    }

    pub fn get(&mut self, specs: &[JobSpec], spec: usize, seed: u64) -> u64 {
        *self
            .0
            .entry((spec, seed))
            .or_insert_with(|| oracle_state_digest(&specs[spec].problem, seed))
    }
}

/// Offer `rate` for `seconds` and check every reply against the oracle.
/// `id_base` must exceed every request id of earlier trials on `conns`.
// Justification: a trial is the connections, the mix, its seed and rate, and the oracle memo.
#[allow(clippy::too_many_arguments)]
pub fn trial(
    conns: &mut [Conn],
    specs: &[JobSpec],
    hot: usize,
    seed: u64,
    rate: f64,
    seconds: f64,
    id_base: u64,
    expected: &mut Expected,
) -> Result<ServeTrial, String> {
    let reqs = schedule(seed, rate, seconds, hot, specs.len() - hot);
    let outcomes = drive(conns, specs, &reqs, id_base, Duration::from_secs(5))?;
    let (mut ok, mut mismatches, mut busy, mut errors) = (0, 0, 0, 0);
    let mut latency_ns = Vec::with_capacity(reqs.len());
    let mut late_ns = Vec::with_capacity(reqs.len());
    let mut done = Vec::with_capacity(reqs.len());
    for (r, o) in reqs.iter().zip(&outcomes) {
        let Some(o) = o else {
            errors += 1;
            done.push(u64::MAX);
            latency_ns.push(u64::MAX);
            continue;
        };
        done.push(o.recv_ns);
        late_ns.push(o.sent_ns.saturating_sub(r.due_ns));
        let good = match &o.reply {
            Ok(reply) if reply.digest == expected.get(specs, r.spec, r.seed) => true,
            Ok(_) => {
                mismatches += 1;
                false
            }
            Err(ErrorCode::Busy { .. }) => {
                busy += 1;
                false
            }
            Err(_) => {
                errors += 1;
                false
            }
        };
        ok += good as u64;
        latency_ns.push(if good {
            o.recv_ns.saturating_sub(r.due_ns)
        } else {
            u64::MAX
        });
    }
    let first = reqs.first().map_or(0, |r| r.due_ns);
    let last = done
        .iter()
        .copied()
        .filter(|&d| d != u64::MAX)
        .max()
        .unwrap_or(first);
    let due: Vec<u64> = reqs.iter().map(|r| r.due_ns).collect();
    Ok(ServeTrial {
        trial: Trial {
            rate,
            seconds,
            latency_ns,
            late_ns,
            attempted: reqs.len() as u64,
            ok,
            backlog_at_end: backlog_at_end(&due, &done),
            elapsed_s: (last - first) as f64 / 1e9,
        },
        reqs,
        outcomes,
        mismatches,
        busy,
        errors,
    })
}

/// Build every hot plan server-side and run each once, so the timed
/// trials start from a warm cache.
pub fn warm_up(addr: &str, hot: &[JobSpec]) -> Result<(), String> {
    let mut client = tempora_client::Client::connect_tcp(addr).map_err(|e| e.to_string())?;
    for spec in hot {
        client.submit(spec).map_err(|e| e.to_string())?;
        client.run_steps(spec, 0).map_err(|e| e.to_string())?;
    }
    Ok(())
}
