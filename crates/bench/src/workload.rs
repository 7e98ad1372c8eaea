//! Synthetic engine workloads.
//!
//! The scenario simulators produce *faithful* bins, but their volume is
//! bounded by simulated probe counts. The throughput benches also need a
//! bin that looks like the full Atlas stream — thousands of links, each
//! monitored by enough probes in enough ASes to survive the §4.3 diversity
//! filter — without paying simulator cost. This module fabricates such a
//! bin directly at the record level, deterministically from a seed.

use pinpoint_core::aggregate::AsMapper;
use pinpoint_model::records::{Hop, Reply, TracerouteRecord};
use pinpoint_model::{Asn, MeasurementId, ProbeId, SimTime};
use pinpoint_stats::SplitMix64;
use std::net::Ipv4Addr;

/// Shape of a synthetic bin.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Number of distinct IP links.
    pub links: usize,
    /// Probes monitoring each link (spread over 5 ASes).
    pub probes_per_link: usize,
    /// Traceroutes each probe launches across the link per bin.
    pub shots: usize,
}

impl WorkloadSpec {
    /// A large bin: ~`links × probes × shots` records, nine differential
    /// RTT samples each.
    pub fn large() -> Self {
        WorkloadSpec {
            links: 400,
            probes_per_link: 12,
            shots: 2,
        }
    }

    /// A small smoke-test bin.
    pub fn small() -> Self {
        WorkloadSpec {
            links: 40,
            probes_per_link: 8,
            shots: 2,
        }
    }

    /// Total records this spec produces.
    pub fn records(&self) -> usize {
        self.links * self.probes_per_link * self.shots
    }
}

fn link_ips(i: usize) -> (Ipv4Addr, Ipv4Addr, Ipv4Addr) {
    let hi = (i / 250) as u8;
    let lo = (i % 250) as u8;
    (
        Ipv4Addr::new(10, hi, lo, 1),
        Ipv4Addr::new(10, hi, lo, 2),
        Ipv4Addr::new(198, 51, hi, lo.saturating_add(1)),
    )
}

/// Build one synthetic bin of traceroute records.
///
/// Per link, `probes_per_link` probes (ASNs cycling over five values, so
/// the diversity filter passes) each fire `shots` traceroutes of three
/// responsive hops with three replies per hop — nine RTT combinations per
/// record, like a fully responsive Atlas traceroute pair. `bin` shifts the
/// timestamps and jitters the RTTs so successive bins look like a steady
/// stream.
pub fn synthetic_bin(spec: &WorkloadSpec, seed: u64, bin: u64) -> Vec<TracerouteRecord> {
    let mut rng = SplitMix64::new(seed ^ (bin.wrapping_mul(0x9E37_79B9)));
    let mut out = Vec::with_capacity(spec.records());
    for li in 0..spec.links {
        let (near, far, dst) = link_ips(li);
        let link_base = 5.0 + (li % 17) as f64;
        for p in 0..spec.probes_per_link {
            let probe = ProbeId((li * spec.probes_per_link + p) as u32);
            let asn = Asn(64000 + (p % 5) as u32);
            let eps = rng.next_range_f64(-1.0, 1.0);
            for shot in 0..spec.shots {
                let base = 10.0 + eps + rng.next_range_f64(0.0, 0.3);
                let reply3 = |addr: Ipv4Addr, rtt: f64, rng: &mut SplitMix64| {
                    Hop::new(
                        0,
                        (0..3)
                            .map(|_| Reply::new(addr, rtt + rng.next_range_f64(0.0, 0.25)))
                            .collect(),
                    )
                };
                let near_hop = reply3(near, base, &mut rng);
                let far_hop = reply3(far, base + link_base, &mut rng);
                let dst_hop = reply3(dst, base + link_base + 2.0, &mut rng);
                out.push(TracerouteRecord {
                    msm_id: MeasurementId(5000 + li as u32),
                    probe_id: probe,
                    probe_asn: asn,
                    dst,
                    timestamp: SimTime(bin * 3600 + (shot as u64) * 1200),
                    paris_id: shot as u16,
                    hops: vec![near_hop, far_hop, dst_hop],
                    destination_reached: true,
                });
            }
        }
    }
    out
}

/// Ground-truth mapper covering the synthetic address plan.
pub fn synthetic_mapper() -> AsMapper {
    AsMapper::from_prefixes([
        ("10.0.0.0/8".parse().unwrap(), Asn(65000)),
        ("198.51.0.0/16".parse().unwrap(), Asn(65001)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_core::{Analyzer, DetectorConfig};
    use pinpoint_model::BinId;

    #[test]
    fn synthetic_bin_has_expected_shape() {
        let spec = WorkloadSpec::small();
        let records = synthetic_bin(&spec, 7, 0);
        assert_eq!(records.len(), spec.records());
        // Deterministic per seed.
        assert_eq!(records, synthetic_bin(&spec, 7, 0));
        assert_ne!(records, synthetic_bin(&spec, 8, 0));
    }

    #[test]
    fn synthetic_bin_survives_the_diversity_filter() {
        // All links must make it through §4.3 — otherwise the throughput
        // bench would measure an engine that discards its input.
        let spec = WorkloadSpec::small();
        let mut analyzer = Analyzer::new(DetectorConfig::default(), synthetic_mapper());
        let report = analyzer.process_bin(BinId(0), &synthetic_bin(&spec, 7, 0));
        // Each record contributes two IP-adjacent links: (near, far) and
        // (far, dst).
        assert_eq!(report.link_stats.len(), 2 * spec.links);
    }
}
