//! The benchmark's own input generator.
//!
//! Bins are fabricated at the record level, deterministically from the
//! seed, in the shape of a mixed Atlas hour: delay paths (three
//! responsive hops, three replies each, probes spread over five ASes so
//! both links survive the §4.3 diversity filter) and forwarding patterns
//! (one router, a fixed next-hop fan-out). Unlike a random fan-out, every
//! pattern keeps the *same* next-hop packet counts in every quiet bin, so
//! the §5 detector only alarms where an event was injected.
//!
//! A small pool of distinct bins is built once and cycled under
//! increasing `BinId`s (a 13.2k-record bin is several MB, so hundreds of
//! distinct bins would not fit a small machine). Each pool has one delay
//! shift and one next-hop failure, both on seeded transit ASes.
//!
//! The fleet variant adds what the steady stream lacks: mild measurement
//! artifacts (`netsim::ArtifactModel::mild`), key churn (a share of the
//! probes and links is fresh in every bin, patched in per `BinId`), and a
//! cross-stream outage that hits the same AS in every stream at once.

use pinpoint_core::aggregate::AsMapper;
use pinpoint_model::records::{Hop, Reply, TracerouteRecord};
use pinpoint_model::{Asn, MeasurementId, Prefix, ProbeId, SimTime};
use pinpoint_netsim::ArtifactModel;
use pinpoint_stats::SplitMix64;
use std::net::Ipv4Addr;

/// Mapped ASes (each owns a /20 of 10.0.0.0/8).
pub const ASES: usize = 300;
/// ASes that carry links and routers (the rest only host probes).
pub const TRANSIT: usize = 60;
/// Distinct bins in a pool.
pub const POOL_BINS: usize = 12;
/// Pool position of the injected delay shift (one bin in twelve, small
/// enough that the smoothed reference does not drift past the 1 ms
/// reporting floor on quiet bins).
pub const DELAY_EVENT: [usize; 1] = [5];
/// Pool positions with the injected next-hop failure.
pub const FORWARDING_EVENT: [usize; 2] = [8, 9];
/// Added to the far side of every link of the delay-event AS (ms).
const DELAY_SHIFT_MS: f64 = 10.0;
/// Packets one pattern sends per bin (3 shots × 3 replies).
const PATTERN_PACKETS: usize = 9;

/// The ASN of mapped AS `i`.
pub fn asn(i: usize) -> Asn {
    Asn(20_000 + i as u32)
}

/// Address `k` (< 4096) inside AS `i`'s /20.
fn as_addr(i: usize, k: usize) -> Ipv4Addr {
    Ipv4Addr::new(
        10,
        (i / 16) as u8,
        ((i % 16) * 16 + (k >> 8)) as u8,
        (k & 0xff) as u8,
    )
}

/// The IP→AS map covering every generated router address.
pub fn mapper() -> AsMapper {
    AsMapper::from_prefixes((0..ASES).map(|i| (Prefix::new(as_addr(i, 0), 20), asn(i))))
}

/// The ASes an operator would track from bin zero: every transit AS.
pub fn tracked_ases() -> Vec<Asn> {
    (0..TRANSIT).map(asn).collect()
}

/// The size of one stream's bins.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Delay paths (two links each).
    pub paths: usize,
    /// Probes per path (spread over five ASes).
    pub probes: usize,
    /// Traceroutes per probe per bin.
    pub shots: usize,
    /// Forwarding routers.
    pub routers: usize,
    /// Destinations per router (patterns = routers × this).
    pub dsts: usize,
}

impl Shape {
    /// The solo stream: 9,600 delay + 3,600 forwarding records.
    pub fn solo() -> Self {
        Shape {
            paths: 400,
            probes: 12,
            shots: 2,
            routers: 300,
            dsts: 4,
        }
    }

    /// One of three fleet streams: 2,400 delay + 900 forwarding records
    /// (five hops per delay record instead of three).
    pub fn fleet_member() -> Self {
        Shape {
            paths: 100,
            probes: 12,
            shots: 2,
            routers: 75,
            dsts: 4,
        }
    }

    /// Records per bin.
    pub fn records(&self) -> usize {
        self.paths * self.probes * self.shots + self.routers * self.dsts * 3
    }

    /// Forwarding patterns from the router part.
    pub fn patterns(&self) -> usize {
        self.routers * self.dsts
    }

    /// Delay links (two per path).
    pub fn links(&self) -> usize {
        2 * self.paths
    }
}

/// Where the seeded events land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Events {
    /// Transit AS whose links shift.
    pub delay_as: usize,
    /// Transit AS whose routers lose their main next hop.
    pub forwarding_as: usize,
}

impl Events {
    /// Pick both ASes from the seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xE7E7);
        let delay_as = rng.next_below(TRANSIT as u64) as usize;
        let mut forwarding_as = rng.next_below(TRANSIT as u64 - 1) as usize;
        if forwarding_as >= delay_as {
            forwarding_as += 1;
        }
        Events {
            delay_as,
            forwarding_as,
        }
    }
}

/// Which kind of bin a pool position is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// No injected event.
    Quiet,
    /// The delay shift.
    DelayShift,
    /// The next-hop failure.
    NextHopFailure,
}

/// The kind of the bin at pool position `slot`.
pub fn kind(slot: usize) -> BinKind {
    if DELAY_EVENT.contains(&slot) {
        BinKind::DelayShift
    } else if FORWARDING_EVENT.contains(&slot) {
        BinKind::NextHopFailure
    } else {
        BinKind::Quiet
    }
}

struct Path {
    near: Ipv4Addr,
    far: Ipv4Addr,
    dst: Ipv4Addr,
    far_as: usize,
    gap_ms: f64,
    /// `(probe, probe AS)` per probe slot.
    probes: Vec<(ProbeId, Asn)>,
    /// Links of churned paths are re-addressed every bin.
    churn: bool,
}

struct Pattern {
    router: Ipv4Addr,
    /// Whether this router loses its main next hop in failure bins.
    event: bool,
    dsts: Vec<Ipv4Addr>,
    /// The next hop of each of the nine packets (`None` = timeout) in a
    /// quiet bin; the counts never change, only the order.
    packets: [Option<Ipv4Addr>; PATTERN_PACKETS],
    /// Where the main next hop's packets go when it fails.
    backup: Ipv4Addr,
}

/// One stream's fixed key universe.
pub struct Stream {
    stream: usize,
    seed: u64,
    events: Events,
    paths: Vec<Path>,
    patterns: Vec<Pattern>,
    shape: Shape,
    artifacts: Option<ArtifactModel>,
}

/// Churned addresses live outside every mapped prefix, in
/// 172.16.0.0/12, so their links never collide with stable ones.
fn churn_addr(stream: usize, bin: u64, octet: u8) -> Ipv4Addr {
    Ipv4Addr::new(
        172,
        (16 + stream * 16 + ((bin >> 8) & 15) as usize) as u8,
        (bin & 0xff) as u8,
        octet,
    )
}

impl Stream {
    /// Build stream `stream` of a run. `dirty` adds mild artifacts and
    /// key churn (the fleet workload); both events are shared by every
    /// stream of the run.
    pub fn new(seed: u64, stream: usize, shape: Shape, dirty: bool) -> Self {
        let events = Events::from_seed(seed);
        let mut rng = SplitMix64::new(seed ^ 0x5EED_0000 ^ (stream as u64) << 32);
        let base_probe = 1_000_000 * (stream as u32 + 1);
        let mut addr_next = vec![0usize; ASES];
        let mut take = |i: usize| {
            let k = addr_next[i];
            addr_next[i] += 1;
            // Stream s draws from its own slice of each /20.
            as_addr(i, stream * 1024 + k)
        };
        let churn_every = if dirty { 10 } else { usize::MAX };
        let paths = (0..shape.paths)
            .map(|p| {
                // The first paths of every stream cross the event AS, so
                // the outage is visible to every stream.
                let far_as = if p < 4 {
                    events.delay_as
                } else {
                    rng.next_below(TRANSIT as u64) as usize
                };
                let near_as = rng.next_below(TRANSIT as u64) as usize;
                let first_probe_as = rng.next_below(ASES as u64) as usize;
                let probes = (0..shape.probes)
                    .map(|i| {
                        (
                            ProbeId(base_probe + (p * shape.probes + i) as u32),
                            asn((first_probe_as + (i % 5) * 7) % ASES),
                        )
                    })
                    .collect();
                Path {
                    near: take(near_as),
                    far: take(far_as),
                    dst: Ipv4Addr::new(198, 18 + stream as u8, (p / 250) as u8, (p % 250) as u8),
                    far_as,
                    gap_ms: 3.0 + rng.next_range_f64(0.0, 20.0),
                    probes,
                    churn: p % churn_every == churn_every - 1,
                }
            })
            .collect();
        let patterns = (0..shape.routers)
            .map(|r| {
                // The first routers of every stream send their main next
                // hop through the event AS. §5 responsibility is signed
                // and lands on the next hops' ASes, so the failed hops
                // must sit in one AS (and their backups elsewhere) for the
                // fleet to see one AS event.
                let event = r < 4;
                let router = take(rng.next_below(TRANSIT as u64) as usize);
                let fanout: Vec<Ipv4Addr> = (0..4)
                    .map(|i| {
                        take(if event && i == 0 {
                            events.forwarding_as
                        } else {
                            rng.next_below(TRANSIT as u64) as usize
                        })
                    })
                    .collect();
                // Shares 4/3/1/1 of nine packets, or 3/3/2 plus one
                // timeout, so the unresponsive bucket is modeled too.
                let counts: [usize; 4] = if r % 3 == 0 {
                    [3, 3, 2, 0]
                } else {
                    [4, 3, 1, 1]
                };
                let mut packets = [None; PATTERN_PACKETS];
                let mut i = 0;
                for (hop, &n) in fanout.iter().zip(&counts) {
                    for _ in 0..n {
                        packets[i] = Some(*hop);
                        i += 1;
                    }
                }
                let dsts = (0..shape.dsts)
                    .map(|d| {
                        Ipv4Addr::new(
                            198,
                            24 + stream as u8,
                            (r / 250) as u8 * 8 + d as u8,
                            (r % 250) as u8,
                        )
                    })
                    .collect();
                Pattern {
                    router,
                    event,
                    dsts,
                    packets,
                    backup: take(rng.next_below(TRANSIT as u64) as usize),
                }
            })
            .collect();
        Stream {
            stream,
            seed,
            events,
            paths,
            patterns,
            shape,
            artifacts: dirty.then(|| ArtifactModel::mild(seed ^ stream as u64)),
        }
    }

    /// Records per bin.
    pub fn records_per_bin(&self) -> usize {
        self.shape.records()
    }

    /// Build pool position `slot` (records of a churned path or probe are
    /// re-keyed per bin by [`Stream::rekey`]).
    pub fn bin(&self, slot: usize) -> Vec<TracerouteRecord> {
        let mut rng =
            SplitMix64::new(self.seed ^ 0xB1B1 ^ ((slot as u64) << 20) ^ self.stream as u64);
        let kind = kind(slot);
        let ts = slot as u64 * 3600;
        let mut out = Vec::with_capacity(self.records_per_bin());
        for (pi, path) in self.paths.iter().enumerate() {
            let shift = if kind == BinKind::DelayShift && path.far_as == self.events.delay_as {
                DELAY_SHIFT_MS
            } else {
                0.0
            };
            for (i, &(probe, probe_asn)) in path.probes.iter().enumerate() {
                let eps = rng.next_range_f64(-1.0, 1.0);
                for shot in 0..self.shape.shots {
                    let base = 10.0 + eps + rng.next_range_f64(0.0, 0.3);
                    let mut hop = |ttl: u8, addr: Ipv4Addr, rtt: f64| {
                        Hop::new(
                            ttl,
                            (0..3)
                                .map(|_| Reply::new(addr, rtt + rng.next_range_f64(0.0, 0.25)))
                                .collect(),
                        )
                    };
                    let (near, far) = if path.churn {
                        let c = (pi / 10) as u8;
                        (
                            churn_addr(self.stream, 0, 2 * c + 1),
                            churn_addr(self.stream, 0, 2 * c + 2),
                        )
                    } else {
                        (path.near, path.far)
                    };
                    let mut hops = Vec::with_capacity(5);
                    if self.artifacts.is_some() {
                        // Dirty streams carry the probe's access and
                        // upstream hops too (unmapped, below the
                        // diversity floor), so the artifact model has
                        // middle hops to paint loops into.
                        let p = probe.0 as usize;
                        let access =
                            Ipv4Addr::new(100, 64 + self.stream as u8, (p >> 8) as u8, p as u8);
                        let upstream =
                            Ipv4Addr::new(100, 80 + self.stream as u8, (pi >> 8) as u8, pi as u8);
                        hops.push(hop(1, access, base - 6.0));
                        hops.push(hop(2, upstream, base - 3.0));
                    }
                    let ttl = hops.len() as u8;
                    hops.push(hop(ttl + 1, near, base));
                    hops.push(hop(ttl + 2, far, base + path.gap_ms + shift));
                    hops.push(hop(ttl + 3, path.dst, base + path.gap_ms + shift + 2.0));
                    out.push(TracerouteRecord {
                        msm_id: MeasurementId(5_000 + pi as u32),
                        probe_id: probe,
                        probe_asn,
                        dst: path.dst,
                        timestamp: SimTime(ts + shot as u64 * 1200 + i as u64),
                        paris_id: shot as u16,
                        hops,
                        destination_reached: true,
                    });
                }
            }
        }
        for (ri, pat) in self.patterns.iter().enumerate() {
            let failed = kind == BinKind::NextHopFailure && pat.event;
            let main = pat.packets[0];
            for (d, &dst) in pat.dsts.iter().enumerate() {
                let mut packets = pat.packets;
                if failed {
                    for p in &mut packets {
                        if *p == main {
                            *p = Some(pat.backup);
                        }
                    }
                }
                // Same counts every bin; only which shot carries which
                // packet changes.
                rng.shuffle(&mut packets);
                for shot in 0..3 {
                    let base = 8.0 + rng.next_range_f64(0.0, 2.0);
                    let next = packets[shot * 3..shot * 3 + 3]
                        .iter()
                        .map(|p| match p {
                            Some(addr) => {
                                Reply::new(*addr, base + 1.0 + rng.next_range_f64(0.0, 0.5))
                            }
                            None => Reply::TIMEOUT,
                        })
                        .collect();
                    out.push(TracerouteRecord {
                        msm_id: MeasurementId(9_000 + ri as u32),
                        probe_id: ProbeId(
                            5_000_000 * (self.stream as u32 + 1)
                                + ((ri * self.shape.dsts + d) * 3 + shot) as u32,
                        ),
                        probe_asn: asn((ri * 7 + shot) % ASES),
                        dst,
                        timestamp: SimTime(ts + shot as u64 * 1100 + d as u64),
                        paris_id: shot as u16,
                        hops: vec![
                            Hop::new(1, vec![Reply::new(pat.router, base); 3]),
                            Hop::new(2, next),
                        ],
                        destination_reached: false,
                    });
                }
            }
        }
        if let Some(model) = &self.artifacts {
            for rec in &mut out {
                model.corrupt(rec);
            }
        }
        out
    }

    /// Re-key a pool bin in place for `bin`: records of churned paths get
    /// this bin's link addresses, and the last probe of every path a
    /// probe id never used before. A no-op on clean streams.
    pub fn rekey(&self, records: &mut [TracerouteRecord], bin: u64) {
        if self.artifacts.is_none() {
            return;
        }
        let per_path = self.shape.probes * self.shape.shots;
        let delay_records = self.shape.paths * per_path;
        for (i, rec) in records.iter_mut().take(delay_records).enumerate() {
            let (pi, within) = (i / per_path, i % per_path);
            if within / self.shape.shots == self.shape.probes - 1 {
                rec.probe_id = ProbeId(
                    40_000_000
                        + self.stream as u32 * 4_000_000
                        + ((bin % 4096) as u32) * 512
                        + pi as u32,
                );
            }
            if self.paths[pi].churn {
                for hop in &mut rec.hops {
                    for reply in &mut hop.replies {
                        if let Some(ip) = reply.from {
                            let o = ip.octets();
                            if o[0] == 172 {
                                reply.from = Some(churn_addr(self.stream, bin, o[3]));
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A cycled pool of pre-built bins for one stream.
pub struct Pool {
    /// The generator.
    pub stream: Stream,
    /// `POOL_BINS` bins.
    pub bins: Vec<Vec<TracerouteRecord>>,
}

impl Pool {
    /// Build the pool.
    pub fn new(stream: Stream) -> Self {
        let bins = (0..POOL_BINS).map(|slot| stream.bin(slot)).collect();
        Pool { stream, bins }
    }

    /// The pool position serving `bin`.
    pub fn slot(bin: u64) -> usize {
        (bin % POOL_BINS as u64) as usize
    }

    /// The records of `bin`, re-keyed in place for it.
    pub fn prepare(&mut self, bin: u64) -> &[TracerouteRecord] {
        let slot = Self::slot(bin);
        self.stream.rekey(&mut self.bins[slot], bin);
        &self.bins[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bins() {
        let a = Stream::new(7, 0, Shape::fleet_member(), true);
        let b = Stream::new(7, 0, Shape::fleet_member(), true);
        assert_eq!(a.bin(3), b.bin(3));
        let c = Stream::new(8, 0, Shape::fleet_member(), true);
        assert_ne!(a.bin(3), c.bin(3));
    }

    #[test]
    fn shapes_match_their_record_counts() {
        let s = Stream::new(1, 0, Shape::solo(), false);
        assert_eq!(s.bin(0).len(), Shape::solo().records());
        assert_eq!(Shape::solo().records(), 13_200);
    }

    #[test]
    fn rekey_makes_churned_keys_unique_per_bin() {
        let s = Stream::new(3, 1, Shape::fleet_member(), true);
        let mut a = s.bin(0);
        let mut b = a.clone();
        s.rekey(&mut a, 100);
        s.rekey(&mut b, 101);
        assert_ne!(a, b);
        let probes = |r: &[TracerouteRecord]| {
            r.iter()
                .map(|x| x.probe_id)
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert!(probes(&a).difference(&probes(&b)).count() >= 100);
        // Re-keying is a pure function of the bin.
        let mut c = s.bin(0);
        s.rekey(&mut c, 100);
        assert_eq!(a, c);
    }
}
