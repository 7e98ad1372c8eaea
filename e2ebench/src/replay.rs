//! The replay workloads: bins pushed through `AnalysisSession::push_bin`
//! as fast as the engine takes them (a closed loop), then gated against
//! the sequential reference path.
//!
//! The run alternates timed rounds of four pool cycles with untimed gate
//! rounds, so the reports awaiting their check never pile up: a gate
//! round renders the timed reports (the replay's "reads"), replays the
//! same bins through the reference analyzer's `process_bin_sequential`,
//! and compares the rendered bytes.

use crate::gen::{self, BinKind, Pool, Shape};
use crate::stats::Samples;
use crate::unit::{self, Feed, Unit};
use pinpoint_core::diffrtt::DelayDetector;
use pinpoint_core::forwarding::ForwardingDetector;
use pinpoint_core::sanitize::sanitize_records;
use pinpoint_core::session::{AnalyzerSession, FleetSession};
use pinpoint_core::{render, AnalysisSession, Analyzer, DetectorConfig, EventTable, StreamRouter};
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::BinId;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Warm-up bins pushed during set-up on the steady stream (one pool
/// cycle: every reference is warm and every pool position has been seen).
pub const WARMUP_BINS: u64 = gen::POOL_BINS as u64;
/// Warm-up bins on the churning fleet: past the fleet's reference expiry,
/// so every measured bin compacts as many keys as it inserts.
pub const FLEET_WARMUP_BINS: u64 = 3 * gen::POOL_BINS as u64;
/// Bins per timed round (four pool cycles: the first push after a gate
/// round finds cold caches, and must stay rarer than the p95 tail).
pub const ROUND_BINS: u64 = 4 * gen::POOL_BINS as u64;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Most alarms a quiet bin may raise, per thousand links or patterns.
const QUIET_ALARMS_PER_MILLE: usize = 5;

/// How long to replay.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Measure at least this much push wall time.
    pub seconds: f64,
    /// ... and at least this many bins.
    pub min_bins: u64,
    /// Warm-up bins pushed during each set-up.
    pub warmup: u64,
}

/// What one replay measured.
#[derive(Debug, Default)]
pub struct ReplayOut {
    /// Set-up wall times (s).
    pub setup_s: Samples,
    /// `push_bin` wall per measured bin (ms).
    pub bin_ms: Samples,
    /// Push of a bin → its report returned (ms).
    pub report_ms: Samples,
    /// Rendering a bin's reader documents: its report and its alarm
    /// graph (ms).
    pub read_ms: Samples,
    /// Records per second of each pool cycle (12 bins, every input once).
    pub cycle_rate: Samples,
    /// Wall time of every measured push and the final flush.
    pub wall: Duration,
    /// Measured bins.
    pub bins: u64,
    /// Gate failures.
    pub errors: Vec<String>,
    /// Bins whose report was never returned.
    pub missing: u64,
    /// Per-layer numbers (traced runs only).
    pub layers: Option<Layers>,
}

/// Per-layer numbers of a traced replay.
#[derive(Debug, Default)]
pub struct Layers {
    /// `begin_bin` + `ingest` at depth 1 (ms).
    pub ingest_ms: Samples,
    /// `finish_bin` at depth 1 (ms).
    pub analyze_ms: Samples,
    /// Untraced depth-1 `push_bin` (ms).
    pub depth1_ms: Samples,
    /// The traced depth-1 bin, begin to finish (ms).
    pub traced_ms: Samples,
    /// The untraced default-depth bin in the same rounds (ms).
    pub default_ms: Samples,
    /// The pool-ratio partner's `push_bin` (ms): a fleet of one on the
    /// solo workload, the members as solo analyzers on the fleet one.
    pub partner_ms: Samples,
    /// Fleet `push_bin` wall ÷ the same feeds through solo sessions.
    pub pool_ratio: f64,
    /// Intern-table insertions per bin (depth 1, exact per bin).
    pub intern_inserts: Samples,
    /// Standalone `sanitize_records` (ms).
    pub sanitize_ms: Samples,
    /// Quarantined ÷ inspected, cumulative.
    pub quarantine_ratio: f64,
    /// Standalone `DelayDetector::process_bin` (ms).
    pub diffrtt_ms: Samples,
    /// Links it characterized per bin.
    pub diffrtt_links: Samples,
    /// Its alarms over the run.
    pub diffrtt_alarms: f64,
    /// Standalone `ForwardingDetector::process_bin` (ms).
    pub forwarding_ms: Samples,
    /// Tracked forwarding patterns.
    pub patterns: f64,
    /// Its alarms over the run.
    pub forwarding_alarms: f64,
    /// Events in the folded table at the end.
    pub events: f64,
    /// Event deltas carried by the reports.
    pub event_deltas: f64,
    /// `render` of one report (ms) and its size (bytes).
    pub render_report_ms: Samples,
    /// See `render_report_ms`.
    pub render_report_bytes: Samples,
    /// `alarm_graph()` + render (ms).
    pub render_graph_ms: Samples,
    /// `render::events` of the ranked table (ms).
    pub render_events_ms: Samples,
    /// `snapshot()` of the warmed state (ms) and its size.
    pub snapshot_ms: Samples,
    /// See `snapshot_ms`.
    pub snapshot_bytes: f64,
}

/// Push one bin through a session, timing the call.
fn timed_push<S: AnalysisSession>(
    session: &mut S,
    bin: u64,
    input: &S::Input,
) -> (Duration, Option<S::Report>) {
    let t = Instant::now();
    let report = session.push_bin(BinId(bin), input);
    (t.elapsed(), report)
}

/// Reports waiting for their gate, and the gate's running state.
struct Gate<U: Unit> {
    reference: U,
    /// Reference renders not yet matched with a timed report.
    expected: VecDeque<(u64, String)>,
    /// Timed reports not yet checked.
    pending: VecDeque<U::Report>,
    /// Next bin the reference replays.
    next_bin: u64,
    table: EventTable,
    events: usize,
    episodes_with_events: Vec<(u64, BinKind, usize)>,
    links: usize,
    patterns: usize,
    warmup: u64,
    errors: Vec<String>,
}

impl<U: Unit> Gate<U> {
    fn check_bin(&mut self, bin: u64, report: &U::Report) {
        let (delay, forwarding) = U::alarms(report);
        let slot = Pool::slot(bin);
        let events = U::events(report).len();
        self.events += events;
        if bin < self.warmup {
            return;
        }
        let kind = gen::kind(slot);
        match kind {
            BinKind::Quiet
                if delay * 1000 > self.links * QUIET_ALARMS_PER_MILLE
                    || forwarding * 1000 > self.patterns * QUIET_ALARMS_PER_MILLE =>
            {
                self.errors.push(format!(
                    "quiet bin {bin} raised {delay} delay and {forwarding} forwarding alarms"
                ))
            }
            BinKind::DelayShift if delay == 0 => self
                .errors
                .push(format!("delay-shift bin {bin} raised no delay alarm")),
            BinKind::NextHopFailure if forwarding == 0 => self.errors.push(format!(
                "next-hop-failure bin {bin} raised no forwarding alarm"
            )),
            _ => {}
        }
        if kind != BinKind::Quiet {
            // One episode per pool cycle and kind.
            let cycle = bin / gen::POOL_BINS as u64;
            match self
                .episodes_with_events
                .iter_mut()
                .find(|(c, k, _)| *c == cycle && *k == kind)
            {
                Some(e) => e.2 += events,
                None => self.episodes_with_events.push((cycle, kind, events)),
            }
        }
    }

    /// Render every pending timed report, replay the reference up to
    /// `upto`, and compare in bin order.
    fn run<F: Feed<Input = U::Input>>(
        &mut self,
        feed: &mut F,
        upto: u64,
        reads: &mut Samples,
        layers: Option<&mut Layers>,
    ) {
        // The timed reports render first, alone on the machine, so the
        // reads are not timed against the reference replay.
        let mut layers = layers;
        let table = &mut self.table;
        let rendered: Vec<(u64, String, U::Report)> = self
            .pending
            .drain(..)
            .map(|report| {
                let t = Instant::now();
                let body = U::render(&report);
                let report_ms = t.elapsed();
                let t = Instant::now();
                let graph = U::graph(&report);
                let graph_ms = t.elapsed();
                table.absorb(U::events(&report));
                reads.push_ms(report_ms + graph_ms);
                // The cumulative listing grows with the run, so it is a
                // layer number only, not part of a bin's read.
                if let Some(l) = layers.as_deref_mut() {
                    let t = Instant::now();
                    let listing = render::events(&table.ranked()).to_string();
                    l.render_events_ms.push_ms(t.elapsed());
                    drop(listing);
                    l.render_report_ms.push_ms(report_ms);
                    l.render_report_bytes.push(body.len() as f64);
                    l.render_graph_ms.push_ms(graph_ms);
                }
                drop(graph);
                (U::bin(&report), body, report)
            })
            .collect();
        let fresh: Vec<(u64, String)> = (self.next_bin..upto)
            .map(|bin| {
                let report = self.reference.sequential(BinId(bin), feed.prepare(bin));
                (bin, U::render(&report))
            })
            .collect();
        self.next_bin = upto;
        self.expected.extend(fresh);
        for (bin, body, report) in rendered {
            match self.expected.pop_front() {
                Some((want_bin, want)) if want_bin == bin => {
                    if want != body {
                        self.errors.push(format!(
                            "bin {bin}: report differs from process_bin_sequential"
                        ));
                    }
                }
                other => self.errors.push(format!(
                    "report for bin {bin} arrived out of order (reference at {:?})",
                    other.map(|o| o.0)
                )),
            }
            self.check_bin(bin, &report);
        }
    }

    fn finish(&mut self, fleet: bool) {
        if fleet {
            for (cycle, kind, events) in &self.episodes_with_events {
                if *events == 0 {
                    self.errors.push(format!(
                        "{kind:?} episode of cycle {cycle} extracted no fleet event"
                    ));
                }
            }
        }
    }
}

/// The analyzers behind the per-layer arms of a traced replay: depth-1
/// analyzers on every member stream (one traced, one untraced), the
/// pool-ratio partner, and standalone detectors.
struct ArmUnits {
    traced: Vec<Analyzer>,
    untraced: Vec<Analyzer>,
    /// Solo workload: a fleet of one. Fleet workload: none.
    partner_fleet: Option<StreamRouter>,
    /// Fleet workload: the members as solo analyzers. Solo: none.
    partner_solo: Vec<Analyzer>,
    delay: Vec<DelayDetector>,
    forwarding: Vec<ForwardingDetector>,
}

impl ArmUnits {
    fn new(streams: usize, fleet: bool) -> Self {
        let cfg = if fleet {
            unit::fleet_config()
        } else {
            DetectorConfig::default()
        };
        let analyzers = |n: usize| {
            (0..n)
                .map(|_| unit::analyzer_with(cfg.clone()))
                .collect::<Vec<_>>()
        };
        ArmUnits {
            traced: analyzers(streams),
            untraced: analyzers(streams),
            partner_fleet: (!fleet).then(|| unit::fleet(1)),
            partner_solo: analyzers(if fleet { streams } else { 0 }),
            delay: (0..streams).map(|_| DelayDetector::new(&cfg)).collect(),
            forwarding: (0..streams)
                .map(|_| ForwardingDetector::new(&cfg))
                .collect(),
        }
    }

    fn sessions(&mut self) -> Arms<'_> {
        let ArmUnits {
            traced,
            untraced,
            partner_fleet,
            partner_solo,
            delay,
            forwarding,
        } = self;
        Arms {
            traced: traced.iter_mut().map(|a| a.session(1)).collect(),
            untraced: untraced.iter_mut().map(|a| a.session(1)).collect(),
            partner_fleet: partner_fleet.as_mut().map(|f| f.session(0)),
            partner_solo: partner_solo.iter_mut().map(|a| a.session(0)).collect(),
            delay,
            forwarding,
        }
    }
}

/// Open sessions over [`ArmUnits`].
struct Arms<'a> {
    traced: Vec<AnalyzerSession<'a>>,
    untraced: Vec<AnalyzerSession<'a>>,
    partner_fleet: Option<FleetSession<'a>>,
    partner_solo: Vec<AnalyzerSession<'a>>,
    delay: &'a mut Vec<DelayDetector>,
    forwarding: &'a mut Vec<ForwardingDetector>,
}

impl Arms<'_> {
    /// Run one bin through every arm; with `layers`, record it.
    fn step<F: Feed>(&mut self, feed: &mut F, bin: u64, layers: Option<&mut Layers>) {
        let id = BinId(bin);
        let cfg = DetectorConfig::default();
        let streams = feed.streams(bin);
        // Traced depth 1: ingest and analysis timed separately.
        let (mut ingest, mut analyze, mut inserts) = (Duration::ZERO, Duration::ZERO, 0u64);
        for (s, records) in self.traced.iter_mut().zip(&streams) {
            let t = Instant::now();
            s.begin_bin(id);
            s.ingest(records);
            let mid = Instant::now();
            let report = s.finish_bin();
            analyze += mid.elapsed();
            ingest += mid - t;
            drop(report);
            inserts += s.analyzer().ingest_stats().bin_insertions;
        }
        // Untraced depth 1.
        let t = Instant::now();
        for (s, records) in self.untraced.iter_mut().zip(&streams) {
            drop(s.push_bin(id, records));
        }
        let depth1 = t.elapsed();
        // Pool-ratio partner, default depth.
        let owned: Vec<Vec<TracerouteRecord>> = match self.partner_fleet {
            Some(_) => streams.iter().map(|r| r.to_vec()).collect(),
            None => Vec::new(),
        };
        let t = Instant::now();
        if let Some(f) = self.partner_fleet.as_mut() {
            drop(f.push_bin(id, &owned));
        }
        for (s, records) in self.partner_solo.iter_mut().zip(&streams) {
            drop(s.push_bin(id, records));
        }
        let partner = t.elapsed();
        drop(owned);
        // Standalone layers, on the records the analyzer would see.
        let (mut san, mut dly, mut fwd) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let (mut links, mut delay_alarms, mut fwd_alarms) = (0usize, 0usize, 0usize);
        for ((records, d), f) in streams
            .iter()
            .zip(self.delay.iter_mut())
            .zip(self.forwarding.iter_mut())
        {
            let t = Instant::now();
            let (clean, _) = sanitize_records(records, &cfg);
            san += t.elapsed();
            let t = Instant::now();
            let (alarms, stats) = d.process_bin(id, &clean);
            dly += t.elapsed();
            links += stats.len();
            delay_alarms += alarms.len();
            let t = Instant::now();
            fwd_alarms += f.process_bin(id, &clean).len();
            fwd += t.elapsed();
        }
        let Some(l) = layers else {
            return;
        };
        l.ingest_ms.push_ms(ingest);
        l.analyze_ms.push_ms(analyze);
        l.traced_ms.push_ms(ingest + analyze);
        l.depth1_ms.push_ms(depth1);
        l.partner_ms.push_ms(partner);
        l.intern_inserts.push(inserts as f64);
        l.sanitize_ms.push_ms(san);
        l.diffrtt_ms.push_ms(dly);
        l.diffrtt_links.push(links as f64);
        l.diffrtt_alarms += delay_alarms as f64;
        l.forwarding_ms.push_ms(fwd);
        l.forwarding_alarms += fwd_alarms as f64;
    }
}

/// Run one replay. `make` builds the unit under test (timed as set-up);
/// `fleet` selects the fleet gates. With `traced`, per-layer arms run
/// interleaved with the timed bins.
pub fn run<U, F>(
    make: impl Fn() -> U,
    mut feed: F,
    opts: Opts,
    fleet: bool,
    traced: bool,
) -> ReplayOut
where
    U: Unit,
    F: Feed<Input = U::Input>,
{
    let mut out = ReplayOut::default();
    let streams = if fleet { unit::FLEET_STREAMS } else { 1 };
    // Discarded set-ups, then the kept one.
    for _ in 1..SETUPS {
        let mut setup = Duration::ZERO;
        let t = Instant::now();
        let mut u = make();
        setup += t.elapsed();
        {
            let mut session = u.session(0);
            for bin in 0..opts.warmup {
                setup += timed_push(&mut session, bin, feed.prepare(bin)).0;
            }
        }
        let t = Instant::now();
        drop(u);
        setup += t.elapsed();
        out.setup_s.push(setup.as_secs_f64());
    }
    let mut gate = Gate::<U> {
        reference: make(),
        expected: VecDeque::new(),
        pending: VecDeque::new(),
        next_bin: 0,
        table: EventTable::new(),
        events: 0,
        episodes_with_events: Vec::new(),
        links: 0,
        patterns: 0,
        warmup: opts.warmup,
        errors: Vec::new(),
    };
    let mut setup = Duration::ZERO;
    let t = Instant::now();
    let mut u = make();
    setup += t.elapsed();
    let mut session = u.session(0);
    for bin in 0..opts.warmup {
        let (d, report) = timed_push(&mut session, bin, feed.prepare(bin));
        setup += d;
        gate.pending.extend(report);
    }
    out.setup_s.push(setup.as_secs_f64());

    let mut arm_units = traced.then(|| ArmUnits::new(streams, fleet));
    let mut arms = arm_units.as_mut().map(ArmUnits::sessions);
    let mut layers = traced.then(Layers::default);
    // Arms see the warm-up bins too, untimed.
    if let Some(arms) = arms.as_mut() {
        for bin in 0..opts.warmup {
            arms.step(&mut feed, bin, None);
        }
    }

    let per_bin = feed.records() as u64;
    // Report latency runs on the measured clock (`out.wall`): the gate
    // rounds between timed rounds, and input preparation between pushes,
    // are not part of any bin's wait.
    let mut pushed_at: VecDeque<(u64, Duration)> = VecDeque::new();
    let mut bin = opts.warmup;
    let shape = if fleet {
        Shape::fleet_member()
    } else {
        Shape::solo()
    };
    gate.links = shape.links() * streams;
    gate.patterns = shape.patterns() * streams;
    let returned = |r: &U::Report,
                    at: Duration,
                    pushed_at: &mut VecDeque<(u64, Duration)>,
                    report_ms: &mut Samples| {
        // Warm-up bins' reports carry no measured push of their own.
        if let Some(i) = pushed_at.iter().position(|(b, _)| *b == U::bin(r)) {
            report_ms.push_ms(at - pushed_at[i].1);
            pushed_at.remove(i);
        }
    };
    loop {
        if out.wall.as_secs_f64() >= opts.seconds && out.bins >= opts.min_bins {
            let (d, report) = {
                let t = Instant::now();
                let report = session.flush();
                (t.elapsed(), report)
            };
            out.wall += d;
            if let Some(r) = report {
                returned(&r, out.wall, &mut pushed_at, &mut out.report_ms);
                gate.pending.push_back(r);
            }
            gate.run(&mut feed, bin, &mut out.read_ms, layers.as_mut());
            break;
        }
        let mut cycle_start = out.wall;
        for i in 0..ROUND_BINS {
            let input = feed.prepare(bin);
            pushed_at.push_back((bin, out.wall));
            let (d, report) = timed_push(&mut session, bin, input);
            out.bin_ms.push_ms(d);
            out.wall += d;
            out.bins += 1;
            if let Some(r) = report {
                returned(&r, out.wall, &mut pushed_at, &mut out.report_ms);
                gate.pending.push_back(r);
            }
            if (i + 1) % gen::POOL_BINS as u64 == 0 {
                let wall = (out.wall - cycle_start).as_secs_f64();
                out.cycle_rate
                    .push((per_bin * gen::POOL_BINS as u64) as f64 / wall);
                cycle_start = out.wall;
            }
            if let (Some(arms), Some(layers)) = (arms.as_mut(), layers.as_mut()) {
                layers.default_ms.push_ms(d);
                arms.step(&mut feed, bin, Some(layers));
            }
            bin += 1;
        }
        gate.run(&mut feed, bin, &mut out.read_ms, layers.as_mut());
    }
    out.missing = pushed_at.len() as u64;
    for (b, _) in &pushed_at {
        gate.errors
            .push(format!("bin {b} was pushed but never reported"));
    }
    gate.finish(fleet);
    if let Some(mut l) = layers {
        drop(arms);
        drop(arm_units);
        let stats = U::sanitize_stats(&session);
        l.quarantine_ratio = stats.quarantined() as f64 / stats.records.max(1) as f64;
        drop(session);
        l.patterns = u.tracked_patterns() as f64;
        let sum = |s: &Samples| s.mean().unwrap_or(0.0) * s.len() as f64;
        l.pool_ratio = if fleet {
            sum(&l.default_ms) / sum(&l.partner_ms)
        } else {
            sum(&l.partner_ms) / sum(&l.default_ms)
        };
        l.events = gate.table.len() as f64;
        l.event_deltas = gate.events as f64;
        for _ in 0..5 {
            let t = Instant::now();
            let bytes = u.snapshot();
            l.snapshot_ms.push_ms(t.elapsed());
            l.snapshot_bytes = bytes.len() as f64;
        }
        out.layers = Some(l);
    }
    out.errors = std::mem::take(&mut gate.errors);
    out
}
