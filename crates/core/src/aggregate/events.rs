//! The event criterion: which magnitudes make an incident, how quiet
//! bins bridge, and what kind of incident it is.
//!
//! §6 closes with "Finding major network disruptions in an AS is done by
//! identifying peaks in either of the two time series". The empathy
//! extractor ([`super::empathy`]) applies these rules while it clusters
//! each bin's alarms into fleet events; the render layer names the
//! [`EventKind`].

use super::magnitude::AsMagnitude;
use pinpoint_model::BinId;

/// The reporting criterion: either magnitude series peaking past the
/// configured threshold (§6: "identifying peaks in either of the two
/// time series").
pub(crate) fn over_threshold(m: &AsMagnitude, threshold: f64) -> bool {
    m.delay_magnitude.abs() > threshold || m.forwarding_magnitude.abs() > threshold
}

/// The gap bridge: evidence at `bin` extends an event whose last
/// evidence was at `prev_end`, bridging up to `gap_bins` quiet bins in
/// between.
pub(crate) fn bridges_gap(prev_end: BinId, bin: BinId, gap_bins: u64) -> bool {
    bin.0 <= prev_end.0 + gap_bins + 1
}

/// Classify an event by its signed peaks: delay dominates when its
/// absolute peak is at least the forwarding one, otherwise the
/// forwarding sign decides loss vs attraction.
pub(crate) fn classify(peak_delay: f64, peak_forwarding: f64) -> EventKind {
    if peak_delay.abs() >= peak_forwarding.abs() {
        EventKind::DelayChange
    } else if peak_forwarding < 0.0 {
        EventKind::ForwardingLoss
    } else {
        EventKind::ForwardingGain
    }
}

/// Which detector dominated an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Delay-change magnitude peaked (congestion-style incidents).
    DelayChange,
    /// Forwarding magnitude peaked negative (loss/reroute-style incidents).
    ForwardingLoss,
    /// Forwarding magnitude peaked positive (traffic attraction).
    ForwardingGain,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mag(d: f64, f: f64) -> AsMagnitude {
        AsMagnitude {
            delay_severity: 0.0,
            forwarding_severity: 0.0,
            delay_magnitude: d,
            forwarding_magnitude: f,
        }
    }

    #[test]
    fn either_series_past_the_threshold_counts() {
        assert!(!over_threshold(&mag(0.3, -0.2), 3.0), "quiet AS");
        assert!(over_threshold(&mag(40.0, -0.5), 3.0), "delay peak");
        assert!(over_threshold(&mag(0.2, -11.0), 3.0), "forwarding peak");
        assert!(over_threshold(&mag(-5.0, 0.0), 3.0), "negative delay peak");
        // Strictly past: a magnitude at the threshold is not a peak.
        assert!(!over_threshold(&mag(3.0, -3.0), 3.0));
    }

    #[test]
    fn gap_bridge_spans_exactly_gap_bins_quiet_bins() {
        // The next bin always extends.
        assert!(bridges_gap(BinId(10), BinId(11), 0));
        assert!(!bridges_gap(BinId(10), BinId(12), 0));
        // The default gap of one bridges one quiet bin, not two.
        assert!(bridges_gap(BinId(10), BinId(12), 1));
        assert!(!bridges_gap(BinId(10), BinId(13), 1));
        // Fig. 6's two attacks, ~20 quiet hours apart, stay two events.
        assert!(!bridges_gap(BinId(12), BinId(34), 1));
        assert!(bridges_gap(BinId(10), BinId(13), 2));
    }

    #[test]
    fn the_dominant_signed_peak_names_the_kind() {
        assert_eq!(classify(90.0, -1.0), EventKind::DelayChange);
        assert_eq!(classify(-90.0, 1.0), EventKind::DelayChange);
        // A tie goes to delay.
        assert_eq!(classify(5.0, -5.0), EventKind::DelayChange);
        assert_eq!(classify(0.2, -11.0), EventKind::ForwardingLoss);
        assert_eq!(classify(0.0, 50.0), EventKind::ForwardingGain);
    }
}
