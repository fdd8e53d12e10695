//! The open-loop load generator.
//!
//! Requests are due on a fixed schedule, whatever the server does. A
//! small pool of client slots (one connection each) takes the next due
//! request, waits for its due time, and sends it. Every request is timed
//! from when it was *due*, not from when a slot got round to sending
//! it, so a stalled server charges its stall to every request scheduled
//! behind it (the coordinated-omission correction).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// One request's timeline, as offsets from the start of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Index of the request in the schedule.
    pub index: usize,
    /// When it was due.
    pub due: Duration,
    /// When a client slot sent it.
    pub sent: Duration,
    /// When its response was complete.
    pub done: Duration,
    /// Whether the response was the one expected.
    pub ok: bool,
}

impl Sample {
    /// Latency as a user sees it: from due time to response.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// Time the server took, from send to response.
    pub fn service(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }
}

/// Due times of `n` requests at `rate` per second, one in each of `n`
/// consecutive slots of length `1/rate` at a jittered position (`unit`
/// yields values in [0, 1)). The offered rate is exact over the step,
/// and the jitter keeps arrivals from locking onto any periodic timer in
/// the server.
pub fn stratified_schedule(n: usize, rate: f64, mut unit: impl FnMut() -> f64) -> Vec<Duration> {
    (0..n)
        .map(|i| Duration::from_secs_f64((i as f64 + unit()) / rate))
        .collect()
}

/// Sends every request of `schedule` through `slots` concurrent client
/// slots and returns the samples of those sent, in schedule order.
///
/// A request that could only be sent more than `give_up` after its due
/// time ends the run: the backlog is growing and the rest of the
/// schedule would only measure the generator's queue. Requests not sent
/// are absent from the result.
pub fn run_open_loop(
    schedule: &[Duration],
    slots: usize,
    give_up: Duration,
    send: impl Fn(usize) -> bool + Sync,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let abandoned = AtomicBool::new(false);
    let samples = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = Instant::now() + Duration::from_millis(2);
    thread::scope(|scope| {
        for _ in 0..slots.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= schedule.len() || abandoned.load(Ordering::Relaxed) {
                    return;
                }
                let due = schedule[index];
                let elapsed = start.elapsed();
                if elapsed < due {
                    thread::sleep(due - elapsed);
                }
                let sent = start.elapsed();
                if sent.saturating_sub(due) > give_up {
                    abandoned.store(true, Ordering::Relaxed);
                    return;
                }
                let ok = send(index);
                let done = start.elapsed();
                samples.lock().expect("sample lock").push(Sample {
                    index,
                    due,
                    sent,
                    done,
                    ok,
                });
            });
        }
    });
    let mut samples = samples.into_inner().expect("sample lock");
    samples.sort_by_key(|s| s.index);
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_the_requests_due_behind_it() {
        // One slot, a request due every 2 ms, and a 60 ms stall on request
        // 5: requests 6.. were due during the stall and wait for it.
        let schedule: Vec<Duration> = (0..20).map(|i| Duration::from_millis(2 * i)).collect();
        let samples = run_open_loop(&schedule, 1, Duration::from_secs(5), |i| {
            if i == 5 {
                thread::sleep(Duration::from_millis(60));
            }
            true
        });
        assert_eq!(samples.len(), 20);
        let after = samples[6];
        // Due 2 ms after the stalled request, it could not be sent until
        // the stall ended ~58 ms later; latency from due includes that.
        assert!(after.latency() >= Duration::from_millis(55), "{after:?}");
        assert!(after.lateness() >= Duration::from_millis(55), "{after:?}");
        // Timed from send instead, it would look instantaneous.
        assert!(after.service() < Duration::from_millis(20), "{after:?}");
        // The backlog drains: the last request is sent on time or close.
        assert!(samples[19].latency() < samples[6].latency());
    }

    #[test]
    fn a_growing_backlog_abandons_the_rest_of_the_schedule() {
        let schedule: Vec<Duration> = (0..50).map(Duration::from_millis).collect();
        let samples = run_open_loop(&schedule, 1, Duration::from_millis(30), |_| {
            thread::sleep(Duration::from_millis(10));
            true
        });
        assert!(samples.len() < 50, "sent {}", samples.len());
    }

    #[test]
    fn schedule_offers_the_exact_rate_with_one_request_per_slot() {
        let mut k = 0u32;
        let schedule = stratified_schedule(100, 50.0, || {
            k = (k + 37) % 100;
            f64::from(k) / 100.0
        });
        for (i, due) in schedule.iter().enumerate() {
            // Due times are whole nanoseconds.
            let slot = due.as_secs_f64() * 50.0;
            assert!(
                slot > i as f64 - 1e-6 && slot < i as f64 + 1.0 - 1e-6,
                "{i}: {slot}"
            );
        }
    }
}
