//! The magnitude metric (Eq. 10) over per-AS severity time series.
//!
//! For each AS, two [`pinpoint_stats::SlidingRobust`] windows (one week of
//! bins) normalize the current severity: `mag = (x − median) / (1 +
//! 1.4826·MAD)`. Every AS must be scored in *every* bin — including
//! alarm-free ones, where severity is 0 — otherwise the sliding baseline
//! would be biased toward busy hours.

use crate::snapshot::{Reader, SnapshotError, Writer};
use pinpoint_model::Asn;
use pinpoint_stats::sliding::SlidingRobust;
use std::collections::{BTreeMap, HashMap};

/// Magnitudes of one AS in one bin.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AsMagnitude {
    /// Raw delay severity Σ d(Δ).
    pub delay_severity: f64,
    /// Raw forwarding severity Σ rᵢ.
    pub forwarding_severity: f64,
    /// Normalized delay magnitude (Eq. 10).
    pub delay_magnitude: f64,
    /// Normalized forwarding magnitude (Eq. 10).
    pub forwarding_magnitude: f64,
}

/// Tracks per-AS sliding windows and scores each bin.
#[derive(Debug)]
pub struct MagnitudeTracker {
    window_bins: usize,
    delay: HashMap<Asn, SlidingRobust>,
    forwarding: HashMap<Asn, SlidingRobust>,
    known: std::collections::BTreeSet<Asn>,
}

impl MagnitudeTracker {
    /// Create a tracker with the given window length (bins).
    pub fn new(window_bins: usize) -> Self {
        MagnitudeTracker {
            window_bins,
            delay: HashMap::new(),
            forwarding: HashMap::new(),
            known: Default::default(),
        }
    }

    /// Pre-register ASes so they are scored from the first bin even before
    /// their first alarm.
    pub fn register<I: IntoIterator<Item = Asn>>(&mut self, ases: I) {
        self.known.extend(ases);
    }

    /// Score one bin given its per-AS severities; returns magnitudes for
    /// every known AS.
    pub fn score_bin(
        &mut self,
        delay_sev: &BTreeMap<Asn, f64>,
        fwd_sev: &BTreeMap<Asn, f64>,
    ) -> BTreeMap<Asn, AsMagnitude> {
        // ASes appearing for the first time join the tracked set.
        self.known.extend(delay_sev.keys().copied());
        self.known.extend(fwd_sev.keys().copied());

        let mut out = BTreeMap::new();
        for &asn in &self.known {
            let ds = delay_sev.get(&asn).copied().unwrap_or(0.0);
            let fs = fwd_sev.get(&asn).copied().unwrap_or(0.0);
            let dwin = self
                .delay
                .entry(asn)
                .or_insert_with(|| SlidingRobust::new(self.window_bins));
            let dmag = dwin.score_and_push(ds).unwrap_or(0.0);
            let fwin = self
                .forwarding
                .entry(asn)
                .or_insert_with(|| SlidingRobust::new(self.window_bins));
            let fmag = fwin.score_and_push(fs).unwrap_or(0.0);
            out.insert(
                asn,
                AsMagnitude {
                    delay_severity: ds,
                    forwarding_severity: fs,
                    delay_magnitude: dmag,
                    forwarding_magnitude: fmag,
                },
            );
        }
        out
    }

    /// The sliding-window length (bins).
    pub(crate) fn window_bins(&self) -> usize {
        self.window_bins
    }

    /// Number of ASes currently tracked.
    pub fn tracked_ases(&self) -> usize {
        self.known.len()
    }

    /// Serialize the window length, the known-AS set, and both per-AS
    /// sliding windows (sorted by AS — hash maps iterate unstably) with
    /// their contents oldest-first.
    pub(crate) fn snapshot_into(&self, w: &mut Writer) {
        w.usize(self.window_bins);
        w.seq(self.known.len());
        for asn in &self.known {
            w.u32(asn.0);
        }
        for windows in [&self.delay, &self.forwarding] {
            let mut entries: Vec<(&Asn, &SlidingRobust)> = windows.iter().collect();
            entries.sort_by_key(|(asn, _)| **asn);
            w.seq(entries.len());
            for (asn, window) in entries {
                w.u32(asn.0);
                w.seq(window.len());
                for x in window.values() {
                    w.f64(x);
                }
            }
        }
    }

    /// Rebuild a tracker from [`MagnitudeTracker::snapshot_into`] bytes.
    pub(crate) fn restore_from(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let window_bins = r.usize()?;
        if window_bins == 0 {
            return Err(SnapshotError::Corrupt("zero magnitude window"));
        }
        let mut tracker = MagnitudeTracker::new(window_bins);
        let n = r.seq()?;
        for _ in 0..n {
            tracker.known.insert(Asn(r.u32()?));
        }
        for side in 0..2 {
            let n = r.seq()?;
            for _ in 0..n {
                let asn = Asn(r.u32()?);
                let len = r.seq()?;
                let mut values = Vec::with_capacity(len);
                for _ in 0..len {
                    values.push(r.f64()?);
                }
                let window = SlidingRobust::from_values(window_bins, values);
                if side == 0 {
                    tracker.delay.insert(asn, window);
                } else {
                    tracker.forwarding.insert(asn, window);
                }
            }
        }
        Ok(tracker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_as_scores_zero() {
        let mut t = MagnitudeTracker::new(24);
        t.register([Asn(100)]);
        for _ in 0..24 {
            let m = t.score_bin(&BTreeMap::new(), &BTreeMap::new());
            assert_eq!(m[&Asn(100)].delay_magnitude, 0.0);
            assert_eq!(m[&Asn(100)].forwarding_magnitude, 0.0);
        }
    }

    #[test]
    fn spike_after_quiet_week_scores_high() {
        let mut t = MagnitudeTracker::new(168);
        t.register([Asn(25152)]);
        for _ in 0..168 {
            t.score_bin(&BTreeMap::new(), &BTreeMap::new());
        }
        let mut dsev = BTreeMap::new();
        dsev.insert(Asn(25152), 300.0); // DDoS hour
        let m = t.score_bin(&dsev, &BTreeMap::new());
        assert!(
            m[&Asn(25152)].delay_magnitude > 100.0,
            "magnitude {}",
            m[&Asn(25152)].delay_magnitude
        );
        assert_eq!(m[&Asn(25152)].delay_severity, 300.0);
    }

    #[test]
    fn negative_forwarding_severity_scores_negative() {
        let mut t = MagnitudeTracker::new(48);
        t.register([Asn(1200)]);
        for _ in 0..48 {
            t.score_bin(&BTreeMap::new(), &BTreeMap::new());
        }
        let mut fsev = BTreeMap::new();
        fsev.insert(Asn(1200), -24.0); // AMS-IX outage hour
        let m = t.score_bin(&BTreeMap::new(), &fsev);
        assert!(
            m[&Asn(1200)].forwarding_magnitude < -10.0,
            "magnitude {}",
            m[&Asn(1200)].forwarding_magnitude
        );
    }

    #[test]
    fn noisy_baseline_dampens_magnitude() {
        // The same spike is less remarkable over a noisy week than over a
        // silent one — MAD normalization at work.
        let spike = 50.0;
        let mut quiet = MagnitudeTracker::new(168);
        quiet.register([Asn(1)]);
        for _ in 0..168 {
            quiet.score_bin(&BTreeMap::new(), &BTreeMap::new());
        }
        let mut noisy = MagnitudeTracker::new(168);
        noisy.register([Asn(1)]);
        for i in 0..168u64 {
            let mut sev = BTreeMap::new();
            sev.insert(Asn(1), (i % 13) as f64);
            noisy.score_bin(&sev, &BTreeMap::new());
        }
        let mut sev = BTreeMap::new();
        sev.insert(Asn(1), spike);
        let mq = quiet.score_bin(&sev, &BTreeMap::new())[&Asn(1)].delay_magnitude;
        let mn = noisy.score_bin(&sev, &BTreeMap::new())[&Asn(1)].delay_magnitude;
        assert!(mq > mn, "quiet {mq} <= noisy {mn}");
    }

    #[test]
    fn new_as_joins_on_first_alarm() {
        let mut t = MagnitudeTracker::new(24);
        assert_eq!(t.tracked_ases(), 0);
        let mut dsev = BTreeMap::new();
        dsev.insert(Asn(7), 1.0);
        let m = t.score_bin(&dsev, &BTreeMap::new());
        assert!(m.contains_key(&Asn(7)));
        assert_eq!(t.tracked_ases(), 1);
        // Present in subsequent bins even when silent.
        let m2 = t.score_bin(&BTreeMap::new(), &BTreeMap::new());
        assert!(m2.contains_key(&Asn(7)));
    }
}
