//! Sample summaries and the open-loop clock.
//!
//! Percentile rule: a tail percentile is only reported when at least ten
//! samples lie beyond it; a failed operation is recorded as a sample of
//! `+∞`, so it misses every latency limit and pushes the tail up instead
//! of vanishing from the count.

use std::time::{Duration, Instant};

/// Samples needed beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;
/// How long before a due time an open-loop sender stops sleeping.
const SPIN: Duration = Duration::from_micros(300);

/// One metric's samples (ms, bytes, counts — any unit).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Record one measured value.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Record one failed operation: it counts as missing every limit.
    pub fn fail(&mut self) {
        self.values.push(f64::INFINITY);
    }

    /// Record a duration in milliseconds.
    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    /// Samples recorded, failures included.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Append another set.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let v = self.sorted();
        (!v.is_empty()).then(|| v[rank(v.len(), q)])
    }

    /// The median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The `q` tail percentile, or `None` unless at least
    /// [`TAIL_SAMPLES`] samples lie beyond it.
    pub fn tail(&self, q: f64) -> Option<f64> {
        let n = self.values.len();
        if n == 0 || n - 1 - rank(n, q) < TAIL_SAMPLES {
            return None;
        }
        self.quantile(q)
    }

    /// The `q` tail as the median over consecutive windows of at least
    /// `window` samples each (in recording order), every window's tail
    /// obeying the ten-beyond rule; one window when there are too few
    /// samples for two. A burst of outside contention then moves one
    /// window's tail, not the reported one.
    pub fn windowed_tail(&self, q: f64, window: usize) -> Option<f64> {
        let count = (self.values.len() / window.max(1)).max(1);
        let size = self.values.len().div_ceil(count);
        let mut tails = Samples::new();
        for chunk in self.values.chunks(size.max(1)) {
            tails.push(
                Samples {
                    values: chunk.to_vec(),
                }
                .tail(q)?,
            );
        }
        tails.median()
    }

    /// The arithmetic mean of the finite samples.
    pub fn mean(&self) -> Option<f64> {
        let finite: Vec<f64> = self
            .values
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        (!finite.is_empty()).then(|| finite.iter().sum::<f64>() / finite.len() as f64)
    }

    /// `(q1, median, q3)`.
    pub fn quartiles(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.quantile(0.25)?,
            self.quantile(0.5)?,
            self.quantile(0.75)?,
        ))
    }
}

/// Index of the nearest-rank `q` quantile among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// An open-loop schedule: operation `k` is due at `start + k × period`,
/// whether or not earlier operations have finished. Latency counts from
/// the due time, so a stall also delays every operation queued behind it.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// When operation 0 is due.
    pub start: Instant,
    /// Time between due times.
    pub period: Duration,
}

impl OpenLoop {
    /// A schedule of `rate` operations per second starting at `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        OpenLoop {
            start,
            period: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When operation `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        self.start + self.period * k as u32
    }

    /// Wait until operation `k` is due; returns the due time and how
    /// late the caller got there (the generator's own lag). Sleeps until
    /// shortly before the due time and spins the rest, so a sender's
    /// wake-up latency does not count against the program.
    pub fn wait(&self, k: u64) -> (Instant, Duration) {
        let due = self.due(k);
        let now = Instant::now();
        if now + SPIN < due {
            std::thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        (due, Instant::now().saturating_duration_since(due))
    }
}

/// Latency of an operation that finished at `done`, counted from its
/// due time (never from when it was actually sent).
pub fn latency_ms(due: Instant, done: Instant) -> f64 {
    done.saturating_duration_since(due).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is the 990th; 10 lie beyond it.
        assert_eq!(samples(1000).tail(0.99), Some(990.0));
        // With 999 samples only 9 lie beyond the 990th.
        assert_eq!(samples(999).tail(0.99), None);
        // p95 of 200 samples is the 190th, with 10 beyond.
        assert_eq!(samples(200).tail(0.95), Some(190.0));
        assert_eq!(samples(199).tail(0.95), None);
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        // Too few samples for two windows: the plain tail.
        assert_eq!(
            samples(300).windowed_tail(0.95, 200),
            samples(300).tail(0.95)
        );
        // 600 samples, three windows of 200: tails 190, 390, 590.
        assert_eq!(samples(600).windowed_tail(0.95, 200), Some(390.0));
        // A burst inside one window moves that window only.
        let mut s = samples(600);
        for v in &mut s.values[400..440] {
            *v = 10_000.0;
        }
        assert_eq!(s.windowed_tail(0.95, 200), Some(390.0));
        assert_eq!(s.tail(0.95), Some(10_000.0));
        // Every window must support the percentile on its own.
        assert_eq!(samples(100).windowed_tail(0.95, 200), None);
    }

    #[test]
    fn failures_count_as_misses() {
        let mut s = samples(1000);
        for _ in 0..20 {
            s.fail();
        }
        assert_eq!(s.len(), 1020);
        // Twenty failures sit beyond every measured value: p99 of 1020
        // is the 1010th sample, which is a failure.
        assert_eq!(s.tail(0.99), Some(f64::INFINITY));
        // The median shifts up too.
        assert_eq!(s.median(), Some(510.0));
        assert_eq!(s.mean(), Some(500.5));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let schedule = OpenLoop::new(Instant::now(), 100.0);
        // Operation 0 stalls for 50 ms; operations 1..5 were due every
        // 10 ms behind it and could only be sent after the stall.
        let stall = Duration::from_millis(50);
        let (due0, _) = schedule.wait(0);
        std::thread::sleep(stall);
        let mut lat = Vec::new();
        for k in 1..5 {
            let (due, lag) = schedule.wait(k);
            let sent = Instant::now();
            let done = sent + Duration::from_millis(1);
            // Timed from the send, the stall would be invisible: every
            // operation would read 1 ms.
            assert!(latency_ms(sent, done) < 2.0);
            lat.push((latency_ms(due, done), lag));
        }
        assert!(latency_ms(due0, Instant::now()) >= 50.0);
        // Operation 1 was due at 10 ms and sent after 50 ms: ≥ 40 ms late.
        assert!(lat[0].0 >= 40.0, "{:?}", lat);
        assert!(lat[0].1 >= Duration::from_millis(39));
        // Each later one is due 10 ms later, so it waited 10 ms less.
        assert!(lat[3].0 >= 10.0 && lat[3].0 < lat[0].0);
    }
}
