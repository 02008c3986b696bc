//! Load generators. Both stay within the two-thread budget: the open
//! loop is one sender plus one reaper, the closed loop is one thread
//! that keeps a fixed number of requests in flight.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What one open-loop segment observed. Latencies run from when a
/// request was **due**, not from when it was sent: when the system (or
/// the generator) stalls, the requests scheduled during the stall are
/// charged the time they spent waiting to be sent.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per completed request: µs from due time to reply.
    pub latency_us: Vec<f64>,
    /// Per sent request: µs the sender ran behind schedule.
    pub late_us: Vec<f64>,
    /// `(due, done)` per completed request, for span output.
    pub intervals: Vec<(Instant, Instant)>,
    pub attempted: u64,
    /// Refused submits, error replies and wrong answers.
    pub failed: u64,
    /// First due time to last reply reaped; longer than the schedule
    /// when a backlog had to drain.
    pub elapsed: Duration,
}

/// Sleep most of the way to `due`, then spin: a bare `sleep` overshoots
/// by a scheduler quantum, a bare spin would take a whole core from a
/// two-core host.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN * 2 {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Send request `i` at `start + i / rate`, for `duration`, whether or
/// not earlier requests have been answered. `submit` returns the ticket
/// to wait on (`None` = refused); `wait` blocks for the reply and says
/// whether it was correct. Replies are reaped in send order.
pub fn open_loop<T: Send>(
    rate_hz: f64,
    duration: Duration,
    submit: impl Fn(usize) -> Option<T>,
    wait: impl Fn(usize, T) -> bool + Sync,
) -> OpenLoop {
    let period = Duration::from_secs_f64(1.0 / rate_hz);
    let total = (duration.as_secs_f64() * rate_hz).floor().max(1.0) as usize;
    let (tx, rx) = mpsc::channel::<(usize, Instant, T)>();
    let mut out = OpenLoop::default();
    let start = Instant::now();
    let reaped = std::thread::scope(|s| {
        let reaper = s.spawn(|| {
            let mut latency_us = Vec::with_capacity(total);
            let mut intervals = Vec::with_capacity(total);
            let mut failed = 0u64;
            for (i, due, ticket) in rx {
                let ok = wait(i, ticket);
                let done = Instant::now();
                if ok {
                    latency_us.push(done.saturating_duration_since(due).as_secs_f64() * 1e6);
                    intervals.push((due, done));
                } else {
                    failed += 1;
                }
            }
            (latency_us, intervals, failed)
        });
        for i in 0..total {
            let due = start + period * i as u32;
            wait_until(due);
            let sent = Instant::now();
            out.late_us
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
            out.attempted += 1;
            match submit(i) {
                Some(ticket) => tx.send((i, due, ticket)).expect("reaper alive"),
                None => out.failed += 1,
            }
        }
        drop(tx);
        reaper.join().expect("reaper panicked")
    });
    out.elapsed = start.elapsed();
    (out.latency_us, out.intervals) = (reaped.0, reaped.1);
    out.failed += reaped.2;
    out
}

/// What one closed-loop segment observed.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    pub completed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed: Duration,
}

impl ClosedLoop {
    pub fn per_second(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64()
    }
}

/// One thread standing in for `depth` callers that each wait for their
/// reply before sending again: `depth` requests are kept in flight, the
/// oldest is awaited, and its slot is refilled at once. Runs until
/// `duration` has passed, then drains what is in flight.
pub fn closed_loop_in_flight<T>(
    depth: usize,
    duration: Duration,
    mut submit: impl FnMut(usize) -> Option<T>,
    mut wait: impl FnMut(usize, T) -> bool,
) -> ClosedLoop {
    let mut out = ClosedLoop::default();
    let mut in_flight: VecDeque<(usize, T)> = VecDeque::with_capacity(depth);
    let mut next = 0usize;
    let start = Instant::now();
    let mut send = |out: &mut ClosedLoop, in_flight: &mut VecDeque<(usize, T)>| {
        out.attempted += 1;
        match submit(next) {
            Some(t) => in_flight.push_back((next, t)),
            None => out.failed += 1,
        }
        next += 1;
    };
    while in_flight.len() < depth {
        send(&mut out, &mut in_flight);
        if out.failed as usize >= depth {
            break; // nothing is being accepted; do not spin on refusals
        }
    }
    while let Some((i, t)) = in_flight.pop_front() {
        if wait(i, t) {
            out.completed += 1;
        } else {
            out.failed += 1;
        }
        if start.elapsed() < duration {
            send(&mut out, &mut in_flight);
        }
    }
    out.elapsed = start.elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A backend that answers inside `submit`, and stalls once.
    fn run_with_stall(stall_at: Option<usize>) -> OpenLoop {
        open_loop(
            1000.0,
            Duration::from_millis(60),
            |i| {
                if Some(i) == stall_at {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Some(())
            },
            |_, ()| true,
        )
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_scheduled_during_it() {
        let smooth = run_with_stall(None);
        let stalled = run_with_stall(Some(10));
        assert_eq!(stalled.attempted, 60);
        assert_eq!(stalled.latency_us.len(), 60);
        // Requests 11..=29 were due while the backend sat in request 10.
        // Timed from the send they would look instant; timed from when
        // they were due, request 11 waited ~19 ms and request 25 ~5 ms.
        assert!(
            stalled.latency_us[11] > 15_000.0,
            "{:?}",
            &stalled.latency_us[8..14]
        );
        assert!(stalled.latency_us[25] > 2_000.0);
        assert!(stalled.late_us[11] > 15_000.0);
        // ... and the generator reports that it ran late, and catches up.
        assert!(
            stalled.latency_us[55] < 2_000.0,
            "{}",
            stalled.latency_us[55]
        );
        let worst_smooth = smooth.latency_us.iter().cloned().fold(0.0, f64::max);
        assert!(worst_smooth < 15_000.0, "quiet run saw {worst_smooth} µs");
    }

    #[test]
    fn refused_and_wrong_requests_count_as_failed() {
        let r = open_loop(
            2000.0,
            Duration::from_millis(10),
            |i| (i % 4 != 0).then_some(i),
            |_, i| i % 4 != 1,
        );
        assert_eq!(r.attempted, 20);
        assert_eq!(r.failed, 10);
        assert_eq!(r.latency_us.len(), 10);
    }

    #[test]
    fn closed_loop_keeps_depth_in_flight_and_drains() {
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let r = closed_loop_in_flight(
            8,
            Duration::from_millis(20),
            |i| {
                let now = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                peak.fetch_max(now, Ordering::Relaxed);
                Some(i)
            },
            |i, t| {
                in_flight.fetch_sub(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(100));
                i == t
            },
        );
        assert_eq!(peak.load(Ordering::Relaxed), 8);
        assert_eq!(in_flight.load(Ordering::Relaxed), 0);
        assert_eq!(r.completed, r.attempted);
        assert_eq!(r.failed, 0);
        assert!(r.completed > 8);
    }
}
