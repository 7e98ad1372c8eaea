//! Step 5: normal-reference maintenance (§4.2.4).
//!
//! The reference tracks where a link's differential RTT *usually* sits:
//! exponentially smoothed median and CI bounds (Eq. 7, small α). Because a
//! small α makes the initial value decisive, the reference warms up on the
//! first `warmup_bins` medians and starts from their median:
//! `m̄₀ = median(m₁, m₂, m₃)`.

use super::characterize::LinkStat;
use crate::config::DetectorConfig;
use crate::snapshot::{Reader, SnapshotError, Writer};
use pinpoint_stats::quantile::median;
use pinpoint_stats::smoothing::Ewma;
use pinpoint_stats::wilson::ConfidenceInterval;

/// The smoothed normal reference of one link.
#[derive(Debug, Clone)]
pub struct LinkReference {
    warmup: Vec<LinkStat>,
    warmup_bins: usize,
    med: Ewma,
    lower: Ewma,
    upper: Ewma,
}

impl LinkReference {
    /// Fresh (un-warmed) reference.
    pub fn new(cfg: &DetectorConfig) -> Self {
        // The buffer grows on push: `warmup_bins` comes from the config,
        // which a restored snapshot sets, so reserving it up front would
        // let an absurd value abort the process at the first new link.
        LinkReference {
            warmup: Vec::new(),
            warmup_bins: cfg.warmup_bins.max(1),
            med: Ewma::new(cfg.alpha),
            lower: Ewma::new(cfg.alpha),
            upper: Ewma::new(cfg.alpha),
        }
    }

    /// Whether the warm-up phase is complete (detection allowed).
    pub fn is_ready(&self) -> bool {
        self.med.value().is_some()
    }

    /// The current reference interval, if ready.
    pub fn interval(&self) -> Option<ConfidenceInterval> {
        let m = self.med.value()?;
        let l = self.lower.value()?;
        let u = self.upper.value()?;
        // Smoothing each bound independently can in principle cross them;
        // clamp into a valid interval around the median.
        Some(ConfidenceInterval::new(l.min(m), m, u.max(m), 0))
    }

    /// Serialize the resumable state: the warm-up buffer and the three
    /// smoothed values. `warmup_bins` and α are derived from the config
    /// (itself inside every snapshot), so they are not repeated per link.
    pub(crate) fn snapshot_into(&self, w: &mut Writer) {
        w.seq(self.warmup.len());
        for s in &self.warmup {
            w.f64(s.ci.lower);
            w.f64(s.ci.median);
            w.f64(s.ci.upper);
            w.usize(s.ci.n);
        }
        for e in [&self.med, &self.lower, &self.upper] {
            match e.value() {
                Some(v) => {
                    w.bool(true);
                    w.f64(v);
                }
                None => w.bool(false),
            }
        }
    }

    /// Rebuild a reference from [`LinkReference::snapshot_into`] bytes.
    pub(crate) fn restore_from(
        r: &mut Reader<'_>,
        cfg: &DetectorConfig,
    ) -> Result<Self, SnapshotError> {
        let n = r.seq()?;
        let mut warmup = Vec::with_capacity(n);
        for _ in 0..n {
            let lower = r.f64()?;
            let med = r.f64()?;
            let upper = r.f64()?;
            let count = r.usize()?;
            warmup.push(LinkStat {
                ci: ConfidenceInterval::new(lower, med, upper, count),
            });
        }
        let read_ewma = |r: &mut Reader<'_>| -> Result<Ewma, SnapshotError> {
            Ok(if r.bool()? {
                Ewma::with_initial(cfg.alpha, r.f64()?)
            } else {
                Ewma::new(cfg.alpha)
            })
        };
        let med = read_ewma(r)?;
        let lower = read_ewma(r)?;
        let upper = read_ewma(r)?;
        Ok(LinkReference {
            warmup,
            warmup_bins: cfg.warmup_bins.max(1),
            med,
            lower,
            upper,
        })
    }

    /// Fold one bin's statistics into the reference.
    pub fn update(&mut self, stat: &LinkStat) {
        if self.med.value().is_none() {
            self.warmup.push(*stat);
            if self.warmup.len() >= self.warmup_bins {
                let meds: Vec<f64> = self.warmup.iter().map(|s| s.ci.median).collect();
                let lows: Vec<f64> = self.warmup.iter().map(|s| s.ci.lower).collect();
                let ups: Vec<f64> = self.warmup.iter().map(|s| s.ci.upper).collect();
                self.med.reset_to(median(&meds).unwrap());
                self.lower.reset_to(median(&lows).unwrap());
                self.upper.reset_to(median(&ups).unwrap());
                self.warmup.clear();
            }
            return;
        }
        self.med.update(stat.ci.median);
        self.lower.update(stat.ci.lower);
        self.upper.update(stat.ci.upper);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(lower: f64, med: f64, upper: f64) -> LinkStat {
        LinkStat {
            ci: ConfidenceInterval::new(lower, med, upper, 100),
        }
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig::default()
    }

    #[test]
    fn warmup_takes_median_of_first_three() {
        let mut r = LinkReference::new(&cfg());
        assert!(!r.is_ready());
        r.update(&stat(4.0, 5.0, 6.0));
        assert!(!r.is_ready());
        r.update(&stat(4.4, 5.4, 6.4));
        assert!(!r.is_ready());
        r.update(&stat(4.2, 5.2, 6.2));
        assert!(r.is_ready());
        let ci = r.interval().unwrap();
        assert!((ci.median - 5.2).abs() < 1e-12);
        assert!((ci.lower - 4.2).abs() < 1e-12);
        assert!((ci.upper - 6.2).abs() < 1e-12);
    }

    #[test]
    fn warmup_resists_one_anomalous_bin() {
        // An anomaly in the warm-up window must not poison m̄₀ — that is
        // exactly why the paper takes the median of the first three bins.
        let mut r = LinkReference::new(&cfg());
        r.update(&stat(4.0, 5.0, 6.0));
        r.update(&stat(200.0, 250.0, 300.0)); // outage during warm-up
        r.update(&stat(4.2, 5.1, 6.1));
        let ci = r.interval().unwrap();
        assert!((ci.median - 5.1).abs() < 1e-9, "median {}", ci.median);
    }

    #[test]
    fn post_warmup_smoothing_is_slow() {
        let mut r = LinkReference::new(&cfg());
        for _ in 0..3 {
            r.update(&stat(4.0, 5.0, 6.0));
        }
        // A single wild bin moves the reference by at most α × gap.
        r.update(&stat(100.0, 150.0, 200.0));
        let ci = r.interval().unwrap();
        assert!((ci.median - (0.01 * 150.0 + 0.99 * 5.0)).abs() < 1e-9);
        assert!(ci.median < 7.0);
    }

    #[test]
    fn bounds_never_cross_median() {
        let mut r = LinkReference::new(&cfg());
        for _ in 0..3 {
            r.update(&stat(4.0, 5.0, 6.0));
        }
        // Feed stats whose bounds would drag lower above the median.
        for _ in 0..500 {
            r.update(&stat(9.0, 9.1, 9.2));
        }
        let ci = r.interval().unwrap();
        assert!(ci.lower <= ci.median && ci.median <= ci.upper);
    }

    #[test]
    fn custom_warmup_length() {
        let mut c = cfg();
        c.warmup_bins = 1;
        let mut r = LinkReference::new(&c);
        r.update(&stat(1.0, 2.0, 3.0));
        assert!(r.is_ready());
    }

    #[test]
    fn zero_warmup_bins_behaves_like_one() {
        // The warm-up logic clamps `warmup_bins = 0` to one bin.
        let mut c = cfg();
        c.warmup_bins = 0;
        let mut r = LinkReference::new(&c);
        assert!(!r.is_ready());
        r.update(&stat(1.0, 2.0, 3.0));
        assert!(r.is_ready(), "one stat must complete a zero-bin warm-up");
        let ci = r.interval().unwrap();
        assert!((ci.median - 2.0).abs() < 1e-12);
    }
}
