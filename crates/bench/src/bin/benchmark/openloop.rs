//! Open-loop load generation: requests fall due on a fixed schedule
//! whether or not earlier ones have finished, so a stall delays every later
//! request and shows up in their latencies.
//!
//! The pacer spin-waits instead of sleeping: a sleeping thread on a shared
//! host can overshoot its wake-up by milliseconds, which would be charged
//! to the system under test as latency.

use std::time::Instant;

/// One request of a merged arrival schedule.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Which stream (request kind) it belongs to.
    pub stream: usize,
    /// When it is due, in nanoseconds after the schedule starts.
    pub due_ns: u64,
}

/// Fixed-rate streams merged into one schedule in due order (ties go to the
/// lower stream number). The schedule depends only on the rates and the
/// duration, never on how fast requests complete.
pub struct Arrivals {
    rates: Vec<u64>,
    next: Vec<u64>,
    count: Vec<u64>,
}

impl Arrivals {
    /// Streams at `rates_per_s` requests per second, each running for
    /// `duration_ms`.
    pub fn new(rates_per_s: &[u64], duration_ms: u64) -> Self {
        Arrivals {
            rates: rates_per_s.to_vec(),
            next: vec![0; rates_per_s.len()],
            count: rates_per_s
                .iter()
                .map(|r| r * duration_ms / 1_000)
                .collect(),
        }
    }

    fn due_ns(&self, stream: usize) -> u64 {
        (self.next[stream] as u128 * 1_000_000_000 / self.rates[stream] as u128) as u64
    }
}

impl Iterator for Arrivals {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let stream = (0..self.rates.len())
            .filter(|&s| self.next[s] < self.count[s])
            .min_by_key(|&s| (self.due_ns(s), s))?;
        let arrival = Arrival {
            stream,
            due_ns: self.due_ns(stream),
        };
        self.next[stream] += 1;
        Some(arrival)
    }
}

/// Wall-clock side of an open loop: waits for due times and records how
/// late the generator issued each request.
pub struct Pacer {
    start: Instant,
    late_us: Vec<f64>,
}

impl Pacer {
    /// Start the schedule's clock now.
    pub fn start() -> Self {
        Pacer {
            start: Instant::now(),
            late_us: Vec::new(),
        }
    }

    /// Nanoseconds since the schedule started.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Spin until `due_ns`; returns at once if it has passed.
    pub fn wait_until(&self, due_ns: u64) {
        while self.now_ns() < due_ns {
            std::hint::spin_loop();
        }
    }

    /// Record that the request due at `due_ns` is being issued now.
    pub fn issued(&mut self, due_ns: u64) {
        self.late_us
            .push(self.now_ns().saturating_sub(due_ns) as f64 / 1e3);
    }

    /// Microseconds from `due_ns` to now: the latency of a request that
    /// completes now, including any time it waited to be issued.
    pub fn since_us(&self, due_ns: u64) -> f64 {
        self.now_ns().saturating_sub(due_ns) as f64 / 1e3
    }

    /// Generator lateness of every issued request, in microseconds.
    pub fn lateness_us(&self) -> &[f64] {
        &self.late_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_merge_in_due_order_with_exact_counts() {
        let all: Vec<Arrival> = Arrivals::new(&[4, 1], 1_000).collect();
        let dues: Vec<(usize, u64)> = all.iter().map(|a| (a.stream, a.due_ns)).collect();
        assert_eq!(
            dues,
            vec![
                (0, 0),
                (1, 0),
                (0, 250_000_000),
                (0, 500_000_000),
                (0, 750_000_000)
            ]
        );
        let service: Vec<Arrival> = Arrivals::new(&[20_000], 500).collect();
        assert_eq!(service.len(), 10_000);
        assert_eq!(service[1].due_ns, 50_000);
    }

    #[test]
    fn pacer_waits_for_due_time_and_charges_late_issue() {
        let mut pacer = Pacer::start();
        pacer.wait_until(2_000_000);
        assert!(pacer.now_ns() >= 2_000_000);
        pacer.issued(2_000_000);
        // A request issued after a stall is charged from its due time.
        pacer.wait_until(5_000_000);
        pacer.issued(1_000_000);
        let late = pacer.lateness_us();
        assert_eq!(late.len(), 2);
        assert!(late[1] >= 4_000.0, "late {late:?}");
        assert!(pacer.since_us(0) >= 5_000.0);
    }
}
