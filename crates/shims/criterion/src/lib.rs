//! Offline stand-in for the subset of `criterion` this workspace uses.
//!
//! crates.io is unreachable from the build environment, so this shim
//! provides an API-compatible measurement harness: `criterion_group!` /
//! `criterion_main!`, `Criterion::bench_function`, `Bencher::iter` and
//! `Bencher::iter_batched`. It is a real benchmark runner — each benchmark
//! is warmed up, timed over `sample_size` samples, and reported as
//! min/median/mean nanoseconds per iteration on stdout — just without
//! criterion's statistical regression machinery and HTML reports.

use std::time::{Duration, Instant};

/// How a batched benchmark's per-iteration state is sized (API-compatible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small setup output; many iterations per batch.
    SmallInput,
    /// Large setup output; one iteration per batch.
    LargeInput,
    /// One iteration per batch.
    PerIteration,
}

/// One measured sample series.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark id.
    pub name: String,
    /// Per-iteration wall time of each sample, in nanoseconds.
    pub sample_ns: Vec<f64>,
}

impl Measurement {
    /// Median nanoseconds per iteration.
    pub fn median_ns(&self) -> f64 {
        let mut s = self.sample_ns.clone();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = s.len();
        if n == 0 {
            return f64::NAN;
        }
        if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        }
    }

    /// Mean nanoseconds per iteration.
    pub fn mean_ns(&self) -> f64 {
        if self.sample_ns.is_empty() {
            return f64::NAN;
        }
        self.sample_ns.iter().sum::<f64>() / self.sample_ns.len() as f64
    }

    /// Fastest sample.
    pub fn min_ns(&self) -> f64 {
        self.sample_ns.iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

/// The benchmark driver (API-compatible subset of `criterion::Criterion`).
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    warm_up: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            warm_up: Duration::from_millis(300),
            measurement_time: Duration::from_secs(2),
        }
    }
}

impl Criterion {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Set the warm-up duration.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Set the total measurement budget per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Define and immediately run one benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            sample_size: self.sample_size,
            warm_up: self.warm_up,
            measurement_time: self.measurement_time,
            sample_ns: Vec::new(),
        };
        f(&mut b);
        let m = Measurement {
            name: name.to_string(),
            sample_ns: b.sample_ns,
        };
        println!(
            "{:<44} min {:>12.0} ns  median {:>12.0} ns  mean {:>12.0} ns  ({} samples)",
            m.name,
            m.min_ns(),
            m.median_ns(),
            m.mean_ns(),
            m.sample_ns.len()
        );
        self
    }
}

/// Per-benchmark timing context handed to the closure.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    warm_up: Duration,
    measurement_time: Duration,
    sample_ns: Vec<f64>,
}

impl Bencher {
    /// Time a routine with no per-iteration setup.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and estimate the per-iteration cost.
        let warm_start = Instant::now();
        let mut iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up {
            std::hint::black_box(routine());
            iters += 1;
        }
        let per_iter = warm_start.elapsed().as_nanos() as f64 / iters.max(1) as f64;
        // Size each sample so the whole run fits the measurement budget.
        let budget_ns = self.measurement_time.as_nanos() as f64 / self.sample_size as f64;
        let iters_per_sample = ((budget_ns / per_iter.max(1.0)) as u64).max(1);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(routine());
            }
            self.sample_ns
                .push(t.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
    }

    /// Time a routine with untimed per-iteration setup.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // One warm-up pass, then one timed iteration per sample (setup
        // excluded from the timing).
        std::hint::black_box(routine(setup()));
        for _ in 0..self.sample_size {
            let input = setup();
            let t = Instant::now();
            std::hint::black_box(routine(input));
            self.sample_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
}

/// Define a group of benchmark functions (API-compatible subset).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Entry point running every group (API-compatible subset).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_produces_samples() {
        let mut c = Criterion::default()
            .sample_size(5)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(20));
        let mut ran = 0u64;
        c.bench_function("shim_smoke", |b| {
            b.iter(|| {
                ran += 1;
                ran
            })
        });
        assert!(ran > 0);
    }

    #[test]
    fn iter_batched_times_routine_only() {
        let mut c = Criterion::default()
            .sample_size(4)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        c.bench_function("shim_batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
    }

    #[test]
    fn measurement_stats() {
        let m = Measurement {
            name: "x".into(),
            sample_ns: vec![3.0, 1.0, 2.0],
        };
        assert_eq!(m.median_ns(), 2.0);
        assert_eq!(m.mean_ns(), 2.0);
        assert_eq!(m.min_ns(), 1.0);
    }
}
