//! What a replay runs: a solo [`Analyzer`] or a [`StreamRouter`] fleet,
//! behind one trait so both replays share the timing and gate code, and
//! the pools that feed them.

use crate::gen::{self, Pool, Shape, Stream};
use pinpoint_core::aggregate::FleetEvent;
use pinpoint_core::session::{AnalyzerSession, FleetSession};
use pinpoint_core::{
    render, AnalysisSession, Analyzer, BinReport, DetectorConfig, FleetReport, SanitizeStats,
    StreamRouter,
};
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::BinId;

/// Streams in the fleet workload.
pub const FLEET_STREAMS: usize = 3;
/// The fleet's reference expiry and magnitude window: a day of hourly
/// bins instead of the default week, so expiry, intern-epoch compaction
/// and the per-AS magnitude windows reach their steady state during
/// set-up and every measured bin does the same work.
pub const FLEET_EXPIRY_BINS: usize = 24;

/// A solo analyzer at the default configuration over the generated
/// address plan, with every transit AS tracked from bin zero.
pub fn analyzer() -> Analyzer {
    analyzer_with(DetectorConfig::default())
}

/// [`analyzer`] with another configuration.
pub fn analyzer_with(cfg: DetectorConfig) -> Analyzer {
    let mut a = Analyzer::new(cfg, gen::mapper());
    a.register_ases(gen::tracked_ases());
    a
}

/// The fleet members' configuration: the default with
/// [`FLEET_EXPIRY_BINS`] as reference expiry and magnitude window.
pub fn fleet_config() -> DetectorConfig {
    DetectorConfig {
        reference_expiry_bins: FLEET_EXPIRY_BINS,
        magnitude_window_bins: FLEET_EXPIRY_BINS,
        ..DetectorConfig::default()
    }
}

/// A fleet of `streams` analyzers at [`fleet_config`].
pub fn fleet(streams: usize) -> StreamRouter {
    let mut r = StreamRouter::new();
    for i in 0..streams {
        r.add_stream(format!("stream-{i}"), analyzer_with(fleet_config()));
    }
    r.register_ases(gen::tracked_ases());
    r
}

/// A solo analyzer or a fleet, seen through the session API.
pub trait Unit {
    /// One bin of input.
    type Input: ?Sized;
    /// One bin's report.
    type Report;
    /// The session type.
    type Session<'a>: AnalysisSession<Input = Self::Input, Report = Self::Report>
    where
        Self: 'a;

    /// Open a session at `depth` (0 = configured default).
    fn session(&mut self, depth: usize) -> Self::Session<'_>;
    /// The sequential reference path (the correctness oracle).
    fn sequential(&mut self, bin: BinId, input: &Self::Input) -> Self::Report;
    /// Sanitizer counters.
    fn sanitize_stats(s: &Self::Session<'_>) -> SanitizeStats;
    /// Tracked forwarding patterns.
    fn tracked_patterns(&self) -> usize;
    /// The resumable state.
    fn snapshot(&self) -> Vec<u8>;

    /// The bin a report covers.
    fn bin(r: &Self::Report) -> u64;
    /// The `/bins/{id}/report` body.
    fn render(r: &Self::Report) -> String;
    /// The alarm graph body.
    fn graph(r: &Self::Report) -> String;
    /// This bin's event deltas.
    fn events(r: &Self::Report) -> &[FleetEvent];
    /// `(delay alarms, forwarding alarms)`.
    fn alarms(r: &Self::Report) -> (usize, usize);
}

impl Unit for Analyzer {
    type Input = [TracerouteRecord];
    type Report = BinReport;
    type Session<'a> = AnalyzerSession<'a>;

    fn session(&mut self, depth: usize) -> AnalyzerSession<'_> {
        Analyzer::session(self, depth)
    }
    fn sequential(&mut self, bin: BinId, input: &[TracerouteRecord]) -> BinReport {
        self.process_bin_sequential(bin, input)
    }
    fn sanitize_stats(s: &AnalyzerSession<'_>) -> SanitizeStats {
        s.analyzer().sanitize_stats()
    }
    fn tracked_patterns(&self) -> usize {
        Analyzer::tracked_patterns(self)
    }
    fn snapshot(&self) -> Vec<u8> {
        Analyzer::snapshot(self)
    }
    fn bin(r: &BinReport) -> u64 {
        r.bin.0
    }
    fn render(r: &BinReport) -> String {
        render::bin_report(r).to_string()
    }
    fn graph(r: &BinReport) -> String {
        render::alarm_graph(&r.alarm_graph()).to_string()
    }
    fn events(r: &BinReport) -> &[FleetEvent] {
        &r.events
    }
    fn alarms(r: &BinReport) -> (usize, usize) {
        (r.delay_alarms.len(), r.forwarding_alarms.len())
    }
}

impl Unit for StreamRouter {
    type Input = [Vec<TracerouteRecord>];
    type Report = FleetReport;
    type Session<'a> = FleetSession<'a>;

    fn session(&mut self, depth: usize) -> FleetSession<'_> {
        StreamRouter::session(self, depth)
    }
    fn sequential(&mut self, bin: BinId, input: &[Vec<TracerouteRecord>]) -> FleetReport {
        self.process_bin_sequential(bin, input)
    }
    fn sanitize_stats(s: &FleetSession<'_>) -> SanitizeStats {
        s.router().sanitize_stats()
    }
    fn tracked_patterns(&self) -> usize {
        StreamRouter::tracked_patterns(self)
    }
    fn snapshot(&self) -> Vec<u8> {
        StreamRouter::snapshot(self)
    }
    fn bin(r: &FleetReport) -> u64 {
        r.bin.0
    }
    fn render(r: &FleetReport) -> String {
        render::fleet_report(r).to_string()
    }
    fn graph(r: &FleetReport) -> String {
        render::alarm_graph(&r.alarm_graph()).to_string()
    }
    fn events(r: &FleetReport) -> &[FleetEvent] {
        &r.events
    }
    fn alarms(r: &FleetReport) -> (usize, usize) {
        (r.delay_alarms(), r.forwarding_alarms())
    }
}

/// Generated bins for a [`Unit`], cycled under increasing bin ids.
pub trait Feed {
    /// What one bin looks like.
    type Input: ?Sized;
    /// The input of `bin` (re-keyed for it where the stream churns).
    fn prepare(&mut self, bin: u64) -> &Self::Input;
    /// Records per bin.
    fn records(&self) -> usize;
    /// Each stream's records of `bin`, for the standalone layer calls.
    fn streams(&mut self, bin: u64) -> Vec<&[TracerouteRecord]>;
}

/// The solo stream's pool.
pub struct SoloFeed(pub Pool);

impl SoloFeed {
    /// The clean steady stream of `seed`.
    pub fn steady(seed: u64) -> Self {
        SoloFeed(Pool::new(Stream::new(seed, 0, Shape::solo(), false)))
    }
}

impl Feed for SoloFeed {
    type Input = [TracerouteRecord];
    fn prepare(&mut self, bin: u64) -> &[TracerouteRecord] {
        self.0.prepare(bin)
    }
    fn records(&self) -> usize {
        self.0.stream.records_per_bin()
    }
    fn streams(&mut self, bin: u64) -> Vec<&[TracerouteRecord]> {
        vec![self.0.prepare(bin)]
    }
}

/// The dirty fleet's pools, laid out `[slot][stream]` so one slot is the
/// `&[Vec<TracerouteRecord>]` a fleet session takes.
pub struct FleetFeed {
    streams: Vec<Stream>,
    bins: Vec<Vec<Vec<TracerouteRecord>>>,
}

impl FleetFeed {
    /// The three dirty, churning streams of `seed`.
    pub fn dirty(seed: u64) -> Self {
        let streams: Vec<Stream> = (0..FLEET_STREAMS)
            .map(|s| Stream::new(seed, s, Shape::fleet_member(), true))
            .collect();
        let bins = (0..gen::POOL_BINS)
            .map(|slot| streams.iter().map(|s| s.bin(slot)).collect())
            .collect();
        FleetFeed { streams, bins }
    }
}

impl Feed for FleetFeed {
    type Input = [Vec<TracerouteRecord>];
    fn prepare(&mut self, bin: u64) -> &[Vec<TracerouteRecord>] {
        let slot = Pool::slot(bin);
        for (stream, records) in self.streams.iter().zip(&mut self.bins[slot]) {
            stream.rekey(records, bin);
        }
        &self.bins[slot]
    }
    fn records(&self) -> usize {
        self.streams.iter().map(Stream::records_per_bin).sum()
    }
    fn streams(&mut self, bin: u64) -> Vec<&[TracerouteRecord]> {
        self.prepare(bin).iter().map(Vec::as_slice).collect()
    }
}
