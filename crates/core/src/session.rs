//! The session API and the one bin executor behind it.
//!
//! Every way of feeding bins — whole bins or record slices as they arrive
//! from the streaming Atlas API, serial or with bin *n+1*'s ingestion
//! overlapped with bin *n*'s analysis, one stream or a fleet — is one
//! [`AnalysisSession`]. Reports come back **strictly in bin order**, but
//! at pipeline depth 2 one bin late: each bin returns the *previous*
//! bin's report and `flush` returns the last one. Depth-1 sessions report
//! every bin at once. [`BinSource`] is anything that yields `(BinId, feed)`
//! pairs in bin order, and [`drive`] runs a source through a session.
//!
//! [`AnalyzerSession`] (from [`Analyzer::session`]) and [`FleetSession`]
//! (from [`StreamRouter::session`]) are thin shells over one private
//! executor that drives a slice of [`Analyzer`]s — one, or one per
//! stream — through open, scatter, intern merge, shard wave, stamp and
//! absorb. The solo session returns the single per-stream report as it
//! is; the fleet session passes the reports through the router's merge.
//!
//! Slices scatter as they arrive, at both depths. A bin's first slice
//! opens it: at depth 2 it rides one two-lane engine wave with the
//! pending bin's shard jobs, on the opposite chunk lane; with nothing
//! pending it opens the lane normally. Later slices append to the lane.
//! `finish_bin` merges the bin's interned keys; at depth 1 it runs the
//! bin's shard wave at once, at depth 2 the bin stays pending. A bin with
//! no slices drains the pending bin and then opens normally. Depth 1 is
//! therefore the depth-2 executor with the overlap lane always empty.
//! Two serial fences keep the overlap byte-identical to the serial
//! schedule: intern ids are assigned only at the merge, in bin order, and
//! a compaction sweep runs only after draining the pending bin (the epoch
//! fence, checked at `begin_bin`). `src/README.md` gives the argument.
//!
//! The executor reads `threads` and `pipeline_depth` from the members'
//! [`DetectorConfig`](crate::DetectorConfig) (the first member's, for a
//! fleet). `depth` 0 resolves `pipeline_depth` (whose own 0 means 2), 1 is
//! strictly serial, deeper clamps to 2, and a one-worker herd always runs
//! serially. Reports are byte-identical across every depth, thread count,
//! chunk size and slicing of the feed.
//!
//! While a bin is open or pending, the members refuse to snapshot — a
//! half-analyzed bin is not resumable state; `flush` first, or use
//! [`AnalysisSession::checkpoint`]. Dropping a session abandons the bin it
//! holds (a report computed but not yet returned is lost), and the members
//! keep refusing until a later session completes a bin or flushes.

use crate::engine::{self, Wave};
use crate::pipeline::{Analyzer, AnalyzerStage, BinReport, StagedBin};
use crate::stream::{FleetReport, StreamRouter};
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::BinId;
use std::borrow::Borrow;

/// A supplier of consecutive bins: yields `(bin, feed)` pairs in strictly
/// increasing bin order, `None` when the feed is exhausted.
///
/// Every `Iterator<Item = (BinId, F)>` is a `BinSource` via the blanket
/// impl, so platform streams, vectors of pre-collected bins, and ad-hoc
/// adapters need no wrapper type.
pub trait BinSource {
    /// What one bin's records look like (e.g. `Vec<TracerouteRecord>` for
    /// a solo analyzer, `Vec<Vec<TracerouteRecord>>` for a fleet).
    type Feed;

    /// The next bin, or `None` when the feed is exhausted.
    fn next_bin(&mut self) -> Option<(BinId, Self::Feed)>;
}

impl<I, F> BinSource for I
where
    I: Iterator<Item = (BinId, F)>,
{
    type Feed = F;

    fn next_bin(&mut self) -> Option<(BinId, F)> {
        self.next()
    }
}

/// One open-ended analysis run over consecutive bins — the single
/// interface behind the batch, incremental, pipelined, and fleet entry
/// paths (see the [module docs](self)).
pub trait AnalysisSession {
    /// One bin's worth of input, borrowed (`[TracerouteRecord]` for a
    /// solo analyzer, `[Vec<TracerouteRecord>]` — one slot per stream —
    /// for a fleet).
    type Input: ?Sized;
    /// What a finished bin produces.
    type Report;

    /// Open the next bin for incremental ingestion.
    ///
    /// # Panics
    /// When a bin is already open, or `bin` does not increase.
    fn begin_bin(&mut self, bin: BinId);

    /// Feed one slice of the open bin's records, in arrival order.
    ///
    /// # Panics
    /// Without an open bin.
    fn ingest(&mut self, input: &Self::Input);

    /// Close the open bin. Returns the next in-order report — the closed
    /// bin's at depth 1, the *previous* bin's at depth 2 (`None` until
    /// the pipeline has filled).
    ///
    /// # Panics
    /// Without an open bin.
    fn finish_bin(&mut self) -> Option<Self::Report>;

    /// Feed one whole bin at once: `begin_bin` + one `ingest` +
    /// `finish_bin`.
    ///
    /// # Panics
    /// When a bin is open, or `bin` does not increase.
    fn push_bin(&mut self, bin: BinId, input: &Self::Input) -> Option<Self::Report> {
        self.begin_bin(bin);
        self.ingest(input);
        self.finish_bin()
    }

    /// Drain the executor: the in-flight bin's report at depth 2, `None`
    /// at depth 1 (every report was already returned). Idempotent.
    ///
    /// # Panics
    /// When a bin is still open.
    fn flush(&mut self) -> Option<Self::Report>;

    /// The resolved pipeline depth (1 or 2): how many bins may be in
    /// flight, and therefore how far reports trail pushes.
    fn depth(&self) -> usize;

    /// The event channel's cumulative view: every event the run has
    /// extracted so far (open and closed), ranked by merged severity.
    /// Per-bin deltas ride on the reports
    /// ([`BinReport::events`](crate::pipeline::BinReport::events) /
    /// [`FleetReport::events`](crate::stream::FleetReport::events));
    /// this reads the same state between bins, e.g. for a final
    /// listing. Reflects only *reported* bins — at depth 2, a
    /// pushed-but-unreported bin is not yet visible.
    fn events(&self) -> Vec<crate::aggregate::FleetEvent>;

    /// Drain the executor and serialize the run's complete resumable
    /// state: returns the flushed in-flight report (if the pipeline held
    /// one — hand it to the observer like any other) and the snapshot
    /// bytes ([`Analyzer::snapshot`] / [`StreamRouter::snapshot`]
    /// layout). Draining inserts one pipeline bubble at depth 2, exactly
    /// like the epoch fence, and is invisible in report bytes — so a
    /// checkpoint cadence never voids the determinism contract. The
    /// session keeps running afterwards; the pipeline refills on the
    /// next push.
    ///
    /// # Panics
    /// When a bin is still open (`finish_bin` first).
    fn checkpoint(&mut self) -> (Option<Self::Report>, Vec<u8>);
}

/// Exhaust a [`BinSource`] through an [`AnalysisSession`], handing every
/// report to `observer` strictly in bin order (including the flushed
/// tail). This is the canonical run loop — `scenarios::run_pipelined`
/// and the service's executor thread are both this shape.
pub fn drive<S, B>(session: &mut S, mut source: B, mut observer: impl FnMut(S::Report))
where
    S: AnalysisSession + ?Sized,
    B: BinSource,
    B::Feed: Borrow<S::Input>,
{
    while let Some((bin, feed)) = source.next_bin() {
        if let Some(report) = session.push_bin(bin, feed.borrow()) {
            observer(report);
        }
    }
    if let Some(report) = session.flush() {
        observer(report);
    }
}

/// One bin between `begin_bin` and `finish_bin`.
struct Open {
    bin: BinId,
    /// Records fed so far, per member.
    records: Vec<usize>,
    /// Whether the first slice has opened the members' chunk lanes.
    scattered: bool,
    /// Whether the epoch fence already swept at this bin.
    swept: bool,
}

/// A bin scattered and merged whose shard wave has not run yet.
struct Pending {
    bin: BinId,
    records: Vec<usize>,
}

/// The one bin executor (see the [module docs](self)): drives a slice of
/// analyzers through open, scatter, intern merge, shard wave, stamp and
/// absorb, with the depth-2 overlap lane and the epoch fence written once.
/// The members are passed to every call, so a fleet session can lend the
/// router's streams and keep the router for the merge.
struct Executor {
    depth: usize,
    threads: usize,
    /// Last bin opened — enforces the increasing-order contract at every
    /// depth.
    last: Option<BinId>,
    open: Option<Open>,
    /// The bin whose shard wave rides the next bin's first slice (depth 2
    /// only; depth 1 drains it in the same `finish`).
    pending: Option<Pending>,
    /// Per-member reports of the bin absorbed since the last `finish`.
    ready: Option<(BinId, Vec<BinReport>)>,
}

impl Executor {
    fn new(members: &[Analyzer], depth: usize) -> Self {
        let cfg = members.first().map(Analyzer::config);
        let threads = cfg.map_or(0, |c| c.threads);
        let depth = match depth {
            0 => cfg.map_or(0, |c| c.pipeline_depth),
            depth => depth,
        };
        Executor {
            depth: engine::resolve_schedule(depth, threads),
            threads: engine::resolve_threads(threads),
            last: None,
            open: None,
            pending: None,
            ready: None,
        }
    }

    /// Mark the members busy while any bin is open or pending: the
    /// snapshot guard.
    fn mark(&self, members: &mut [Analyzer]) {
        let busy = self.open.is_some() || self.pending.is_some();
        for a in members {
            a.in_flight = busy;
        }
    }

    fn begin(&mut self, members: &mut [Analyzer], bin: BinId) {
        assert!(
            self.open.is_none(),
            "begin_bin called while a bin is already open (finish_bin first)"
        );
        if let Some(last) = self.last {
            assert!(
                bin.0 > last.0,
                "bins must be fed in increasing order ({bin:?} after {last:?})"
            );
        }
        self.last = Some(bin);
        // Epoch fence: drain, sweep, and let the first slice refill.
        let swept = self.pending.is_some() && members.iter().any(|a| a.needs_compaction(bin));
        if swept {
            self.drain(members);
            for a in members.iter_mut() {
                a.compact_epochs(bin);
            }
        }
        self.open = Some(Open {
            bin,
            records: vec![0; members.len()],
            scattered: false,
            swept,
        });
        self.mark(members);
    }

    fn ingest<F: AsRef<[TracerouteRecord]>>(&mut self, members: &mut [Analyzer], feeds: &[F]) {
        assert_eq!(
            feeds.len(),
            members.len(),
            "one feed per stream (streams: {}, feeds: {})",
            members.len(),
            feeds.len()
        );
        let open = self.open.as_mut().expect("ingest called without begin_bin");
        for (n, feed) in open.records.iter_mut().zip(feeds) {
            *n += feed.as_ref().len();
        }
        let (bin, first, compact) = (open.bin, !open.scattered, !open.swept);
        open.scattered = true;
        let threads = self.threads;
        let pending = match self.pending.take() {
            Some(pending) if first => pending,
            pending => {
                // A later slice appends to the open bin's chunk lane; a
                // first slice with nothing to overlap opens it normally.
                self.pending = pending;
                let mut wave = Wave::new();
                for (a, feed) in members.iter_mut().zip(feeds) {
                    let feed = feed.as_ref();
                    wave.push_scatter(if first {
                        a.open_scatter(bin, feed, compact, threads)
                    } else {
                        a.append_scatter(feed, threads)
                    });
                }
                wave.run(threads);
                return;
            }
        };
        // The overlap: the pending bin's shard jobs and this slice's
        // scatter chunks run as one two-lane wave on one worker herd.
        let staged = {
            let mut stages = Vec::with_capacity(members.len());
            let mut wave = Wave::new();
            for (a, feed) in members.iter_mut().zip(feeds) {
                let (stage, scatter) = a.overlap_wave(pending.bin, feed.as_ref(), threads);
                wave.push_scatter(scatter);
                stages.push(stage);
            }
            for stage in &mut stages {
                wave.push_analysis(stage.jobs());
            }
            wave.run(threads);
            stages.into_iter().map(AnalyzerStage::finish).collect()
        };
        self.absorb(members, pending, staged);
    }

    fn finish(&mut self, members: &mut [Analyzer]) -> Option<(BinId, Vec<BinReport>)> {
        let open = self
            .open
            .as_ref()
            .expect("finish_bin called without begin_bin");
        if !open.scattered {
            // A bin with no slices: drain, then open it normally.
            self.drain(members);
            let empty: &[TracerouteRecord] = &[];
            self.ingest(members, &vec![empty; members.len()]);
        }
        let Open { bin, records, .. } = self.open.take().expect("checked above");
        for a in members.iter_mut() {
            a.merge_scatter(bin);
        }
        self.pending = Some(Pending { bin, records });
        if self.depth == 1 {
            self.drain(members);
        }
        self.mark(members);
        self.ready.take()
    }

    fn flush(&mut self, members: &mut [Analyzer]) -> Option<(BinId, Vec<BinReport>)> {
        assert!(
            self.open.is_none(),
            "flush called while a bin is open (finish_bin first)"
        );
        self.drain(members);
        self.mark(members);
        self.ready.take()
    }

    /// Shards-only wave for the pending bin, if any.
    fn drain(&mut self, members: &mut [Analyzer]) {
        let Some(pending) = self.pending.take() else {
            return;
        };
        let threads = self.threads;
        let staged = {
            let mut stages: Vec<_> = members
                .iter_mut()
                .map(|a| a.stage(pending.bin, threads))
                .collect();
            let mut jobs = Vec::new();
            for stage in &mut stages {
                jobs.extend(stage.jobs());
            }
            engine::run_jobs(jobs, threads);
            stages.into_iter().map(AnalyzerStage::finish).collect()
        };
        self.absorb(members, pending, staged);
    }

    /// The post-wave fences: stamp each member's epoch tables, then fold
    /// its staged outputs into a report.
    fn absorb(&mut self, members: &mut [Analyzer], pending: Pending, staged: Vec<StagedBin>) {
        let reports = members
            .iter_mut()
            .zip(pending.records)
            .zip(staged)
            .map(|((a, records), staged)| {
                a.stamp_bin(pending.bin);
                a.absorb(pending.bin, records, staged)
            })
            .collect();
        debug_assert!(self.ready.is_none(), "one report per finish");
        self.ready = Some((pending.bin, reports));
    }
}

/// The solo report of a one-member executor.
fn solo((_, mut reports): (BinId, Vec<BinReport>)) -> BinReport {
    reports.pop().expect("one member, one report")
}

/// A solo-analyzer [`AnalysisSession`] (create with
/// [`Analyzer::session`]): the executor over one member.
pub struct AnalyzerSession<'a> {
    analyzer: &'a mut Analyzer,
    executor: Executor,
}

impl<'a> AnalyzerSession<'a> {
    pub(crate) fn new(analyzer: &'a mut Analyzer, depth: usize) -> Self {
        let executor = Executor::new(std::slice::from_ref(analyzer), depth);
        AnalyzerSession { analyzer, executor }
    }

    /// The underlying analyzer — intern-epoch and sanitizer counters
    /// ([`Analyzer::ingest_stats`] / [`Analyzer::sanitize_stats`]) keep
    /// working mid-session, which is how the live service's `/stats`
    /// endpoint reads them.
    pub fn analyzer(&self) -> &Analyzer {
        self.analyzer
    }
}

impl AnalysisSession for AnalyzerSession<'_> {
    type Input = [TracerouteRecord];
    type Report = BinReport;

    fn begin_bin(&mut self, bin: BinId) {
        self.executor
            .begin(std::slice::from_mut(self.analyzer), bin);
    }

    fn ingest(&mut self, input: &[TracerouteRecord]) {
        self.executor
            .ingest(std::slice::from_mut(self.analyzer), &[input]);
    }

    fn finish_bin(&mut self) -> Option<BinReport> {
        self.executor
            .finish(std::slice::from_mut(self.analyzer))
            .map(solo)
    }

    fn flush(&mut self) -> Option<BinReport> {
        self.executor
            .flush(std::slice::from_mut(self.analyzer))
            .map(solo)
    }

    fn depth(&self) -> usize {
        self.executor.depth
    }

    fn events(&self) -> Vec<crate::aggregate::FleetEvent> {
        self.analyzer.events()
    }

    fn checkpoint(&mut self) -> (Option<BinReport>, Vec<u8>) {
        let report = self.flush();
        (report, self.analyzer.snapshot())
    }
}

/// A fleet [`AnalysisSession`] over a [`StreamRouter`] (create with
/// [`StreamRouter::session`]): the executor over every stream's analyzer.
/// Input is one feed per stream (`[Vec<TracerouteRecord>]`, index =
/// [`crate::stream::StreamId`]); reports are merged [`FleetReport`]s.
pub struct FleetSession<'a> {
    router: &'a mut StreamRouter,
    executor: Executor,
}

impl<'a> FleetSession<'a> {
    pub(crate) fn new(router: &'a mut StreamRouter, depth: usize) -> Self {
        let executor = Executor::new(router.members_mut(), depth);
        FleetSession { router, executor }
    }

    /// The underlying router — fleet-summed [`StreamRouter::ingest_stats`]
    /// / [`StreamRouter::sanitize_stats`] keep working mid-session.
    pub fn router(&self) -> &StreamRouter {
        self.router
    }

    fn merged(&mut self, out: Option<(BinId, Vec<BinReport>)>) -> Option<FleetReport> {
        let (bin, reports) = out?;
        Some(self.router.merge(bin, reports))
    }
}

impl AnalysisSession for FleetSession<'_> {
    type Input = [Vec<TracerouteRecord>];
    type Report = FleetReport;

    fn begin_bin(&mut self, bin: BinId) {
        self.executor.begin(self.router.members_mut(), bin);
    }

    fn ingest(&mut self, input: &[Vec<TracerouteRecord>]) {
        self.executor.ingest(self.router.members_mut(), input);
    }

    fn finish_bin(&mut self) -> Option<FleetReport> {
        let out = self.executor.finish(self.router.members_mut());
        self.merged(out)
    }

    fn flush(&mut self) -> Option<FleetReport> {
        let out = self.executor.flush(self.router.members_mut());
        self.merged(out)
    }

    fn depth(&self) -> usize {
        self.executor.depth
    }

    fn events(&self) -> Vec<crate::aggregate::FleetEvent> {
        self.router.events()
    }

    fn checkpoint(&mut self) -> (Option<FleetReport>, Vec<u8>) {
        let report = self.flush();
        (report, self.router.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AsMapper;
    use crate::config::DetectorConfig;

    fn analyzer() -> Analyzer {
        Analyzer::new(DetectorConfig::fast_test(), AsMapper::new())
    }

    /// An analyzer whose herd has two workers — required by every test
    /// that exercises depth-2 cadence, because a one-worker herd
    /// collapses the overlapped schedule to serial
    /// (`engine::resolve_schedule`), regardless of the host's core count.
    fn pipelined_analyzer() -> Analyzer {
        analyzer_with_threads(2)
    }

    fn analyzer_with_threads(threads: usize) -> Analyzer {
        let mut cfg = DetectorConfig::fast_test();
        cfg.threads = threads;
        Analyzer::new(cfg, AsMapper::new())
    }

    #[test]
    fn depth_resolution_matches_driver_convention() {
        let mut a = pipelined_analyzer();
        assert_eq!(a.session(1).depth(), 1);
        let mut a = pipelined_analyzer();
        assert_eq!(a.session(2).depth(), 2);
        let mut a = pipelined_analyzer();
        assert_eq!(a.session(7).depth(), 2, "deeper than 2 clamps");
        let mut a = pipelined_analyzer();
        assert_eq!(a.session(0).depth(), 2, "0 falls through to the default");
    }

    #[test]
    fn one_worker_session_collapses_to_serial() {
        let mut a = analyzer_with_threads(1);
        let mut session = a.session(2);
        assert_eq!(session.depth(), 1, "one worker has nothing to overlap");
        // Serial cadence: every push reports its own bin immediately.
        let report = session
            .push_bin(BinId(0), &[])
            .expect("serial schedule reports immediately");
        assert_eq!(report.bin, BinId(0));
        assert!(session.flush().is_none());
    }

    #[test]
    fn serial_session_reports_every_bin_immediately() {
        let mut a = analyzer();
        let mut session = a.session(1);
        for bin in 0..3u64 {
            let report = session
                .push_bin(BinId(bin), &[])
                .expect("depth 1 is immediate");
            assert_eq!(report.bin, BinId(bin));
        }
        assert!(session.flush().is_none());
    }

    #[test]
    fn pipelined_session_trails_one_bin_and_flushes_the_tail() {
        let mut a = pipelined_analyzer();
        let mut session = a.session(2);
        assert!(session.push_bin(BinId(0), &[]).is_none());
        assert_eq!(session.push_bin(BinId(1), &[]).unwrap().bin, BinId(0));
        assert_eq!(session.flush().unwrap().bin, BinId(1));
        assert!(session.flush().is_none(), "flush is idempotent");
    }

    #[test]
    fn incremental_slices_and_drive_agree_on_report_order() {
        let mut a = pipelined_analyzer();
        let mut session = a.session(2);
        session.begin_bin(BinId(0));
        session.ingest(&[]);
        session.ingest(&[]);
        assert!(session.finish_bin().is_none());
        assert_eq!(session.push_bin(BinId(1), &[]).unwrap().bin, BinId(0));
    }

    #[test]
    fn drive_exhausts_a_source_in_order() {
        let mut a = pipelined_analyzer();
        let bins: Vec<(BinId, Vec<TracerouteRecord>)> =
            (0..4u64).map(|b| (BinId(b), Vec::new())).collect();
        let mut seen = Vec::new();
        let mut session = a.session(2);
        drive(&mut session, bins.into_iter(), |r| seen.push(r.bin));
        assert_eq!(seen, vec![BinId(0), BinId(1), BinId(2), BinId(3)]);
    }

    #[test]
    fn fleet_session_round_trips() {
        let mut router = StreamRouter::new();
        router.add_stream("a", pipelined_analyzer());
        router.add_stream("b", pipelined_analyzer());
        let mut session = router.session(2);
        let feeds = vec![Vec::new(), Vec::new()];
        assert!(session.push_bin(BinId(0), &feeds).is_none());
        assert_eq!(session.push_bin(BinId(1), &feeds).unwrap().bin, BinId(0));
        assert_eq!(session.flush().unwrap().bin, BinId(1));
    }

    #[test]
    fn fleet_session_reads_threads_and_depth_from_its_members() {
        let mut router = StreamRouter::new();
        router.add_stream("a", pipelined_analyzer());
        assert_eq!(router.session(0).depth(), 2, "two workers overlap");
        let mut router = StreamRouter::new();
        router.add_stream("a", analyzer_with_threads(1));
        assert_eq!(router.session(2).depth(), 1, "one worker runs serially");
    }

    #[test]
    #[should_panic(expected = "snapshot called while a bin is in flight")]
    fn snapshot_refuses_an_open_bin_at_depth_1() {
        let mut a = analyzer();
        let mut session = a.session(1);
        session.begin_bin(BinId(0));
        session.ingest(&[]);
        session.analyzer().snapshot();
    }

    #[test]
    #[should_panic(expected = "snapshot called while a bin is in flight")]
    fn snapshot_refuses_a_pending_bin_at_depth_2() {
        let mut a = pipelined_analyzer();
        let mut session = a.session(2);
        assert!(session.push_bin(BinId(0), &[]).is_none());
        session.analyzer().snapshot();
    }

    #[test]
    fn snapshot_resumes_once_the_session_flushed() {
        let mut a = pipelined_analyzer();
        let mut session = a.session(2);
        session.push_bin(BinId(0), &[]);
        assert!(session.flush().is_some());
        session.analyzer().snapshot();
        let mut router = StreamRouter::new();
        router.add_stream("a", pipelined_analyzer());
        let mut session = router.session(2);
        let (report, _bytes) = session.checkpoint();
        assert!(report.is_none(), "nothing was in flight");
        session.push_bin(BinId(0), &[Vec::new()]);
        assert_eq!(session.checkpoint().0.unwrap().bin, BinId(0));
    }

    #[test]
    #[should_panic(expected = "flush called while a bin is open")]
    fn flush_with_open_bin_panics() {
        let mut a = pipelined_analyzer();
        let mut session = a.session(2);
        session.begin_bin(BinId(0));
        session.flush();
    }
}
