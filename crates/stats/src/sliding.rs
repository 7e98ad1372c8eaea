//! Sliding-window robust statistics.
//!
//! The magnitude metric (Eq. 10) uses a *one-week sliding* median and MAD.
//! [`SlidingRobust`] maintains a bounded window of the most recent values
//! and serves median/MAD/magnitude queries against it.
//!
//! The window stays small (168 hourly bins for one week), so recomputing
//! order statistics per query — O(w log w) — is both simple and fast; an
//! indexed multiset would only pay off for windows orders of magnitude
//! larger. A property test pins this implementation to the naive definition.

use crate::mad::{magnitude, MAD_TO_SIGMA};
use crate::quantile::median;
use std::collections::VecDeque;

/// Fixed-capacity sliding window with robust statistics.
#[derive(Debug, Clone)]
pub struct SlidingRobust {
    window: VecDeque<f64>,
    capacity: usize,
}

impl SlidingRobust {
    /// Create a window holding at most `capacity` values.
    ///
    /// The buffer grows as values arrive instead of reserving `capacity`
    /// up front, so a capacity never drives an allocation by itself: a
    /// window sized from untrusted input (a snapshot field) costs only
    /// the values it actually holds.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        SlidingRobust {
            window: VecDeque::new(),
            capacity,
        }
    }

    /// Rebuild a window from its capacity and contents (oldest first) —
    /// the snapshot/restore constructor. Values beyond `capacity` evict
    /// from the front, exactly as live pushes would have.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn from_values<I>(capacity: usize, values: I) -> Self
    where
        I: IntoIterator<Item = f64>,
    {
        let mut s = SlidingRobust::new(capacity);
        for x in values {
            s.push(x);
        }
        s
    }

    /// The window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of values currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Whether the window has reached capacity.
    pub fn is_full(&self) -> bool {
        self.window.len() == self.capacity
    }

    /// Push a value, evicting the oldest when full.
    pub fn push(&mut self, x: f64) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(x);
    }

    /// Current window contents (oldest first).
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.window.iter().copied()
    }

    /// Median of the window.
    pub fn median(&self) -> Option<f64> {
        let v: Vec<f64> = self.window.iter().copied().collect();
        median(&v)
    }

    /// MAD of the window.
    pub fn mad(&self) -> Option<f64> {
        let v: Vec<f64> = self.window.iter().copied().collect();
        crate::mad::mad(&v)
    }

    /// Magnitude of `x` against the current window (Eq. 10).
    ///
    /// Scores `x` against the existing window *without* including `x`,
    /// matching the online use: score this hour's severity against the
    /// previous week, then [`push`](Self::push) it.
    pub fn magnitude(&self, x: f64) -> Option<f64> {
        let v: Vec<f64> = self.window.iter().copied().collect();
        magnitude(&v, x)
    }

    /// Score and then absorb a value: the common online step.
    pub fn score_and_push(&mut self, x: f64) -> Option<f64> {
        let m = self.magnitude(x);
        self.push(x);
        // First value has no history: report neutral 0 rather than None so
        // time series stay aligned.
        Some(m.unwrap_or(0.0))
    }

    /// The denominator of Eq. 10 for the current window.
    pub fn scale(&self) -> Option<f64> {
        Some(1.0 + MAD_TO_SIGMA * self.mad()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eviction_keeps_capacity() {
        let mut s = SlidingRobust::new(3);
        for i in 0..10 {
            s.push(f64::from(i));
        }
        assert_eq!(s.len(), 3);
        let v: Vec<f64> = s.values().collect();
        assert_eq!(v, vec![7.0, 8.0, 9.0]);
        assert!(s.is_full());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        SlidingRobust::new(0);
    }

    #[test]
    fn median_and_mad_follow_window() {
        let mut s = SlidingRobust::new(5);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.push(x);
        }
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.mad(), Some(1.0));
        // Slide the window: [3,4,5,6,7].
        s.push(6.0);
        s.push(7.0);
        assert_eq!(s.median(), Some(5.0));
    }

    #[test]
    fn empty_window_returns_none() {
        let s = SlidingRobust::new(4);
        assert_eq!(s.median(), None);
        assert_eq!(s.mad(), None);
        assert_eq!(s.magnitude(1.0), None);
    }

    #[test]
    fn score_and_push_first_value_is_zero() {
        let mut s = SlidingRobust::new(4);
        assert_eq!(s.score_and_push(10.0), Some(0.0));
        assert_eq!(s.len(), 1);
        // Second identical value scores 0 too (x == median, MAD == 0).
        assert_eq!(s.score_and_push(10.0), Some(0.0));
    }

    #[test]
    fn spike_scores_high_then_decays_into_reference() {
        let mut s = SlidingRobust::new(168);
        for _ in 0..168 {
            s.push(1.0);
        }
        let spike = s.score_and_push(100.0).unwrap();
        assert!(spike > 50.0, "spike magnitude {spike}");
        // After the spike enters the window the next normal hour is ~0.
        let normal = s.score_and_push(1.0).unwrap();
        assert!(normal.abs() < 1.0, "normal magnitude {normal}");
    }

    proptest! {
        #[test]
        fn prop_matches_naive_recompute(xs in prop::collection::vec(-1e4f64..1e4, 1..300), cap in 1usize..50) {
            let mut s = SlidingRobust::new(cap);
            let mut naive: Vec<f64> = Vec::new();
            for &x in &xs {
                s.push(x);
                naive.push(x);
                if naive.len() > cap {
                    naive.remove(0);
                }
                let expect = crate::quantile::median(&naive).unwrap();
                prop_assert!((s.median().unwrap() - expect).abs() < 1e-9);
                let expect_mad = crate::mad::mad(&naive).unwrap();
                prop_assert!((s.mad().unwrap() - expect_mad).abs() < 1e-9);
            }
        }
    }
}
