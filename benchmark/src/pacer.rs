//! The load generator's core: arrival schedules and the phase loop.
//!
//! Time is an `f64` of seconds since the run epoch behind a [`Clock`], so the
//! whole loop runs unchanged against the fake clock of the tests below.
//!
//! Two rules keep open-loop numbers honest:
//! * every latency is taken from the request's **due** time, not from when
//!   the generator got round to sending it — a stall anywhere (server or
//!   generator) shows up as latency on the requests that waited behind it,
//!   never as a lower send rate;
//! * the generator waits exactly until the next due time (or the next
//!   completion), never in coarse poll ticks, and reports how late it sent
//!   each request (`lag = sent - due`).

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Seconds a phase waits, after its last send, for answers still in flight;
/// an answer that has not come by then counts as failed.
pub const DRAIN: f64 = 10.0;

/// A source of "now", in seconds since the run epoch.
pub trait Clock {
    fn now(&self) -> f64;
}

/// The real clock: monotonic seconds since the run started.
#[derive(Clone, Copy)]
pub struct RunClock {
    epoch: Instant,
}

impl RunClock {
    pub fn new() -> RunClock {
        RunClock {
            epoch: Instant::now(),
        }
    }

    /// Time left from now until run-clock time `t` (zero if past).
    pub fn until(&self, t: f64) -> Duration {
        Duration::from_secs_f64((t - self.now()).max(0.0))
    }
}

impl Clock for RunClock {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// How requests arrive during a phase.
#[derive(Clone, Copy, Debug)]
pub enum Arrivals {
    /// Request `k` is due at `start + k / rate`, whatever happened before.
    Open { rate: f64 },
    /// `window` requests in flight; a completion frees a slot that is due at
    /// the completion instant.
    Closed { window: usize },
}

/// One phase: its arrivals, how many operations it issues, and the number
/// of its first operation (phases of one run use disjoint numbers, so a
/// late answer can never be taken for another phase's).
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub arrivals: Arrivals,
    pub ops: u64,
    pub first_op: u64,
}

/// The system under test, as the generator sees it.
pub trait Target {
    /// What a completion carries back to the workload's checker.
    type Resp;
    /// Issue operation `op` for request `req` of the workload's request set,
    /// under `trace` when the operation is traced.
    fn send(&mut self, op: u64, req: usize, trace: Option<ls_obs::TraceContext>);
    /// Block until a completion arrives or run-clock time `until`, appending
    /// `(op, done_at, response)` for every completion seen.
    fn wait(&mut self, until: f64, out: &mut Vec<(u64, f64, Self::Resp)>);
}

/// Timing of one operation on the run clock, handed to the checker.
#[derive(Clone, Copy, Debug)]
pub struct OpRec {
    pub op: u64,
    pub req: usize,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    /// The trace id the operation carried; 0 when untraced.
    pub trace: u64,
}

/// What the open loop keeps of each operation, in issue order.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub req: u32,
    /// Seconds the generator sent it late.
    pub lag: f32,
    /// Seconds from due time to answer; `NAN` if no answer came.
    pub latency: f32,
}

/// What a phase measured.
pub struct Phase {
    pub start: f64,
    /// When the last answer came (or the phase gave up waiting).
    pub end: f64,
    pub issued: u64,
    /// Operations never answered (each counts as failed).
    pub missing: u64,
    /// Open loop only: every operation, in issue order.
    pub samples: Vec<Sample>,
}

impl Phase {
    /// Answers per second from the first send to the last answer: the
    /// throughput of a closed-loop phase.
    pub fn rate(&self) -> f64 {
        (self.issued - self.missing) as f64 / (self.end - self.start).max(1e-9)
    }
}

/// Issue the schedule's operations and wait for their answers, giving up
/// once nothing has been sent or answered for [`DRAIN`] seconds. `pick`
/// maps an operation number to a request index; `traced` decides per
/// operation whether it carries a trace; every answer is handed to `check`
/// with its record.
pub fn run_phase<T: Target>(
    clock: &impl Clock,
    target: &mut T,
    sched: Schedule,
    mut pick: impl FnMut(u64) -> usize,
    mut traced: impl FnMut(u64) -> bool,
    mut check: impl FnMut(&OpRec, T::Resp),
) -> Phase {
    let start = clock.now();
    let rate = match sched.arrivals {
        Arrivals::Open { rate } => Some(rate),
        Arrivals::Closed { .. } => None,
    };
    let mut phase = Phase {
        start,
        end: start,
        issued: 0,
        missing: 0,
        samples: Vec::with_capacity(if rate.is_some() {
            sched.ops as usize
        } else {
            0
        }),
    };
    let mut inflight: HashMap<u64, OpRec> = HashMap::new();
    // Closed loop: the due times of the free slots.
    let mut free: Vec<f64> = match sched.arrivals {
        Arrivals::Closed { window } => vec![start; window],
        Arrivals::Open { .. } => Vec::new(),
    };
    let mut last_activity = start;
    let mut done = Vec::new();
    loop {
        let now = clock.now();
        // Release everything due by now.
        while phase.issued < sched.ops {
            let due = match rate {
                Some(rate) => {
                    let due = start + phase.issued as f64 / rate;
                    if due > now {
                        break;
                    }
                    due
                }
                None => match free.pop() {
                    Some(due) => due,
                    None => break,
                },
            };
            let op = sched.first_op + phase.issued;
            let req = pick(op);
            let trace = traced(op).then(ls_obs::TraceContext::root);
            let sent = clock.now();
            if rate.is_some() {
                phase.samples.push(Sample {
                    req: req as u32,
                    lag: (sent - due) as f32,
                    latency: f32::NAN,
                });
            }
            let rec = OpRec {
                op,
                req,
                due,
                sent,
                done: f64::NAN,
                trace: trace.map_or(0, |c| c.trace_id),
            };
            inflight.insert(op, rec);
            phase.issued += 1;
            last_activity = sent;
            target.send(op, req, trace);
        }
        let all_sent = phase.issued == sched.ops;
        let give_up = last_activity + DRAIN;
        if all_sent && inflight.is_empty() {
            break;
        }
        if now >= give_up {
            phase.end = now;
            break;
        }
        let wake = match rate {
            Some(rate) if !all_sent => (start + phase.issued as f64 / rate).min(give_up),
            _ => give_up,
        };
        target.wait(wake, &mut done);
        for (op, at, resp) in done.drain(..) {
            let Some(mut rec) = inflight.remove(&op) else {
                continue; // an answer for an operation of another phase
            };
            rec.done = at;
            (phase.end, last_activity) = (at, at);
            if rate.is_some() {
                phase.samples[(op - sched.first_op) as usize].latency = (at - rec.due) as f32;
            } else {
                free.push(at);
            }
            check(&rec, resp);
        }
    }
    phase.missing = inflight.len() as u64;
    phase
}

/// Issue requests `0..n` as operations `first_op..first_op + n`, with at
/// most `window` in flight, and wait for all of them: the warm-up pass over
/// a request set. Returns how many never answered within `timeout` seconds.
pub fn pump<T: Target>(
    clock: &impl Clock,
    target: &mut T,
    n: usize,
    window: usize,
    first_op: u64,
    timeout: f64,
    mut check: impl FnMut(usize, T::Resp),
) -> usize {
    let deadline = clock.now() + timeout;
    let mut next = 0usize;
    let mut inflight = 0usize;
    let mut done = Vec::new();
    while next < n || inflight > 0 {
        while next < n && inflight < window {
            target.send(first_op + next as u64, next, None);
            next += 1;
            inflight += 1;
        }
        if clock.now() >= deadline {
            return inflight + (n - next);
        }
        target.wait(deadline, &mut done);
        for (op, _, resp) in done.drain(..) {
            if let Some(req) = op.checked_sub(first_op).filter(|&r| r < n as u64) {
                inflight -= 1;
                check(req as usize, resp);
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A fake clock shared by the fake server below.
    #[derive(Clone)]
    struct Fake(Rc<Cell<f64>>);

    impl Clock for Fake {
        fn now(&self) -> f64 {
            self.0.get()
        }
    }

    /// A single-server FIFO queue with a fixed service time, an optional
    /// window during which the server makes no progress, and an optional
    /// stall of the generator itself inside one `send`.
    struct FakeServer {
        clock: Fake,
        service: f64,
        stall: Option<(f64, f64)>,
        gen_stall: Option<(u64, f64)>,
        free_at: f64,
        pending: Vec<(u64, f64)>,
        waits: Vec<f64>,
    }

    impl FakeServer {
        fn new(clock: &Fake, service: f64) -> FakeServer {
            FakeServer {
                clock: clock.clone(),
                service,
                stall: None,
                gen_stall: None,
                free_at: 0.0,
                pending: Vec::new(),
                waits: Vec::new(),
            }
        }
    }

    impl Target for FakeServer {
        type Resp = ();

        fn send(&mut self, op: u64, _req: usize, _trace: Option<ls_obs::TraceContext>) {
            let now = self.clock.now();
            let mut begin = self.free_at.max(now);
            if let Some((from, to)) = self.stall {
                if begin < to && begin + self.service > from {
                    begin = begin.max(to);
                }
            }
            self.free_at = begin + self.service;
            self.pending.push((op, self.free_at));
            if let Some((at_op, secs)) = self.gen_stall {
                if at_op == op {
                    self.clock.0.set(now + secs);
                }
            }
        }

        fn wait(&mut self, until: f64, out: &mut Vec<(u64, f64, ())>) {
            self.waits.push(until);
            let next = self
                .pending
                .iter()
                .map(|p| p.1)
                .fold(f64::INFINITY, f64::min);
            let now = self.clock.now().max(until.min(next));
            self.clock.0.set(now);
            self.pending.retain(|&(op, at)| {
                if at <= now {
                    out.push((op, at, ()));
                    false
                } else {
                    true
                }
            });
        }
    }

    fn run(server: &mut FakeServer, clock: &Fake, arrivals: Arrivals, ops: u64) -> Phase {
        let sched = Schedule {
            arrivals,
            ops,
            first_op: 0,
        };
        run_phase(clock, server, sched, |op| op as usize, |_| false, |_, _| {})
    }

    fn pct(v: impl Iterator<Item = f32>, q: f64) -> f64 {
        crate::stats::percentile(&mut v.map(f64::from).collect::<Vec<_>>(), q)
    }

    #[test]
    fn open_loop_sends_on_schedule_and_times_from_due() {
        let clock = Fake(Rc::new(Cell::new(0.0)));
        let mut server = FakeServer::new(&clock, 0.001);
        let phase = run(&mut server, &clock, Arrivals::Open { rate: 100.0 }, 200);
        assert_eq!(phase.samples.len(), 200);
        assert_eq!(phase.missing, 0);
        for s in &phase.samples {
            assert!(s.lag.abs() < 1e-6, "an idle generator sends on time");
            assert!((s.latency - 0.001).abs() < 1e-6);
        }
        // The generator sleeps exactly until the next due time: no poll ticks.
        for w in server.waits.iter().filter(|&&w| w < 2.0) {
            assert!(
                (w * 100.0 - (w * 100.0).round()).abs() < 1e-6,
                "woke at {w}"
            );
        }
    }

    #[test]
    fn server_stall_is_latency_on_later_requests_not_a_lower_send_rate() {
        let clock = Fake(Rc::new(Cell::new(0.0)));
        let mut server = FakeServer::new(&clock, 0.001);
        server.stall = Some((1.0, 1.2));
        let phase = run(&mut server, &clock, Arrivals::Open { rate: 100.0 }, 200);
        // Same number of requests sent as without the stall, all on time.
        assert_eq!(phase.samples.len(), 200);
        assert!(phase.samples.iter().all(|s| s.lag.abs() < 1e-6));
        // Requests due inside the stall wait for its end, timed from due.
        let during = &phase.samples[100..120];
        assert!((during[0].latency - 0.201).abs() < 1e-5);
        for (k, s) in during.iter().enumerate() {
            let due = 1.0 + k as f32 * 0.01;
            assert!(due + s.latency >= 1.2 - 1e-5);
        }
        let lat = || phase.samples.iter().map(|s| s.latency);
        assert!(pct(lat(), 0.99) > 0.15, "the stall reaches the tail");
        assert!(pct(lat(), 0.5) < 0.002, "the median is untouched");
    }

    #[test]
    fn generator_stall_shows_as_lag_and_latency_not_fewer_requests() {
        let clock = Fake(Rc::new(Cell::new(0.0)));
        let mut server = FakeServer::new(&clock, 0.001);
        // Sending op 50 (due at 0.5 s) blocks the generator for 105 ms.
        server.gen_stall = Some((50, 0.105));
        let phase = run(&mut server, &clock, Arrivals::Open { rate: 100.0 }, 200);
        assert_eq!(
            phase.samples.len(),
            200,
            "late requests are sent, not skipped"
        );
        let late: Vec<&Sample> = phase.samples.iter().filter(|s| s.lag > 1e-6).collect();
        assert_eq!(late.len(), 10, "ops 51..=60 fell due during the stall");
        assert!((late[0].lag - 0.095).abs() < 1e-5);
        // The lag is part of each late request's latency.
        for s in &late {
            assert!(s.latency >= s.lag + 0.001 - 1e-5);
        }
        let lags = phase.samples.iter().map(|s| s.lag);
        assert!(pct(lags, 0.99) > 0.05, "gen_lag_p99 exposes the stall");
    }

    #[test]
    fn closed_loop_keeps_the_window_full() {
        let clock = Fake(Rc::new(Cell::new(0.0)));
        // One FIFO server at 1/64 s per request (exact in binary, so the
        // answer times below are exact too).
        let mut server = FakeServer::new(&clock, 1.0 / 64.0);
        let sched = Schedule {
            arrivals: Arrivals::Closed { window: 4 },
            ops: 128,
            first_op: 0,
        };
        let (sent, answered, most) = (Cell::new(0), Cell::new(0), Cell::new(0));
        let phase = run_phase(
            &clock,
            &mut server,
            sched,
            |op| op as usize,
            |_| {
                sent.set(sent.get() + 1);
                most.set(most.get().max(sent.get() - answered.get()));
                false
            },
            |_, _| answered.set(answered.get() + 1),
        );
        assert_eq!((phase.issued, phase.missing, answered.get()), (128, 0, 128));
        assert!(phase.samples.is_empty());
        assert_eq!(most.get(), 4, "never more than the window in flight");
        // The server never idles: 128 answers in two seconds.
        assert_eq!(phase.end, 2.0);
        assert_eq!(phase.rate(), 64.0);
    }

    #[test]
    fn a_lost_answer_counts_as_missing_after_the_drain() {
        let clock = Fake(Rc::new(Cell::new(0.0)));
        let mut server = FakeServer::new(&clock, 0.001);
        // The server never answers op 3.
        server.stall = Some((0.0035, f64::INFINITY));
        let phase = run(&mut server, &clock, Arrivals::Open { rate: 1000.0 }, 10);
        assert_eq!(phase.issued, 10);
        assert!(phase.missing >= 1);
        assert!(phase.samples[3].latency.is_nan());
        assert!(clock.now() >= DRAIN, "the generator waited out the drain");
    }
}
