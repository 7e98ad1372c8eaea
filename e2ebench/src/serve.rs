//! The live-serve workload: an in-process `Daemon` with `pinpointd`'s
//! defaults and a checkpoint every four bins, fed on a fixed schedule,
//! then read over HTTP by open-loop dashboard users.
//!
//! Writes: bin *k* is due at `t0 + k / bin_rate`; the feed hands it to
//! the collector no earlier than that (it prepares the records ahead of
//! time), and report latency counts from the due time to the moment
//! `ServiceState::report` returns the bin. Reads: once the feed has
//! drained, independent dashboard users load pages of [`PAGE`] requests
//! (the route mix, one connection each); page *k* is due at
//! `t1 + k × PAGE / read_rate`, whichever client thread takes it, and its
//! latency counts from the due time to the last byte of its last
//! response. Both are open loops: a slow daemon gets the same load, and
//! its backlog shows as latency. Reads wait for the feed to drain, and
//! come in pages, because on a two-core machine single sub-millisecond
//! requests beside the feed, and the report p95 beside them, did not
//! repeat from run to run (see the README).

use crate::stats::{latency_ms, OpenLoop, Samples};
use crate::unit::{self, Feed, SoloFeed};
use pinpoint_core::{render, AnalysisSession, Analyzer, EventTable};
use pinpoint_model::json::{self, Value};
use pinpoint_model::records::TracerouteRecord;
use pinpoint_model::BinId;
use pinpoint_service::{CheckpointStore, Daemon, ServiceConfig, ServiceState};
use pinpoint_stats::SplitMix64;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Warm-up bins fed unpaced during set-up.
pub const WARMUP_BINS: u64 = crate::replay::WARMUP_BINS;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Fewest fed bins: the p95 of report latency needs ten bins beyond it.
pub const MIN_BINS: u64 = 200;
/// How often the watcher looks for newly readable reports.
const POLL: Duration = Duration::from_micros(100);

/// Requests per dashboard page load; one page is one read.
pub const PAGE: usize = 20;
/// Fewest pages: the read p95 needs ten pages beyond it.
pub const MIN_PAGES: u64 = 200;
/// The read routes and their share of requests (percent).
pub const ROUTES: [(&str, u64); 6] = [
    ("report", 30),
    ("events", 20),
    ("timeline", 20),
    ("graph", 15),
    ("bins", 10),
    ("health", 5),
];

/// Rates and lengths of one serve run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Length of the fed (and read) window; at least [`MIN_BINS`] bins.
    pub seconds: f64,
    /// Bins fed per second.
    pub bin_rate: f64,
    /// Requests sent per second (in pages of [`PAGE`]).
    pub read_rate: f64,
    /// Client threads.
    pub clients: usize,
    /// Checkpoint cadence in bins.
    pub checkpoint_every: u64,
    /// Scratch directory for checkpoints.
    pub scratch: PathBuf,
    /// Seed for the route mix and the timeline ASes.
    pub seed: u64,
}

/// What one serve run measured.
#[derive(Debug, Default)]
pub struct ServeOut {
    /// Set-up wall times (s).
    pub setup_s: Samples,
    /// Bin due → report readable (ms).
    pub report_ms: Samples,
    /// Page due → last byte of its last request (ms).
    pub read_ms: Samples,
    /// The daemon's own collect → publish time per bin, from `/bins` (ms).
    pub bin_ms: Samples,
    /// Records in measured bins.
    pub records: u64,
    /// First bin due → last report readable.
    pub wall: Duration,
    /// Bins fed in the measured window.
    pub bins: u64,
    /// Requests sent.
    pub reads: u64,
    /// Failed requests (I/O error or non-200).
    pub reads_failed: u64,
    /// Bins never reported.
    pub missing: u64,
    /// Gate failures.
    pub errors: Vec<String>,
    /// Per-layer numbers (traced runs only).
    pub layers: Option<ServiceLayers>,
}

impl ServeOut {
    /// Records per second over the measured wall.
    pub fn records_per_s(&self) -> f64 {
        self.records as f64 / self.wall.as_secs_f64()
    }
}

/// Per-layer numbers of a traced serve run.
#[derive(Debug, Default)]
pub struct ServiceLayers {
    /// Bin due → the collector pulls it (ms).
    pub feed_lag_ms: Samples,
    /// Pull → report hook (ms).
    pub pipeline_ms: Samples,
    /// Report hook → readable (ms).
    pub reporter_ms: Samples,
    /// Queue high-water marks.
    pub collect_peak: f64,
    /// See `collect_peak`.
    pub report_peak: f64,
    /// `CheckpointStore::save` of a real snapshot (ms).
    pub checkpoint_save_ms: Samples,
    /// Checkpoints the daemon wrote.
    pub checkpoints: f64,
    /// Per route: latency (ms) and body size (bytes).
    pub http: BTreeMap<&'static str, (Samples, Samples)>,
    /// How late the read generator sent (ms).
    pub reader_lag_ms: Samples,
    /// The daemon's own per-bin latency, mean over the measured bins (ms).
    pub state_latency_mean: f64,
}

/// When the paced part of the feed starts (or that it never will).
#[derive(Default)]
struct Start {
    go: Mutex<Option<Option<OpenLoop>>>,
    cv: Condvar,
}

impl Start {
    fn set(&self, schedule: Option<OpenLoop>) {
        *self.go.lock().unwrap() = Some(schedule);
        self.cv.notify_all();
    }

    fn wait(&self) -> Option<OpenLoop> {
        let mut go = self.go.lock().unwrap();
        while go.is_none() {
            go = self.cv.wait(go).unwrap();
        }
        go.unwrap()
    }
}

/// The daemon's feed: warm-up bins at once, then one bin per period.
struct PacedFeed {
    pool: Arc<Mutex<SoloFeed>>,
    next: u64,
    bins: u64,
    start: Arc<Start>,
    pulls: Arc<Mutex<Vec<Instant>>>,
}

impl Iterator for PacedFeed {
    type Item = (BinId, Vec<TracerouteRecord>);

    fn next(&mut self) -> Option<Self::Item> {
        let bin = self.next;
        if bin >= WARMUP_BINS + self.bins {
            return None;
        }
        // Prepared before the due time: the generator stays ahead.
        let records = self.pool.lock().unwrap().prepare(bin).to_vec();
        if bin >= WARMUP_BINS {
            let schedule = self.start.wait()?;
            schedule.wait(bin - WARMUP_BINS);
            self.pulls.lock().unwrap().push(Instant::now());
        }
        self.next += 1;
        Some((BinId(bin), records))
    }
}

/// One HTTP GET; `(status, body)`.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    s.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf)?;
    let split = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("no header end"))?;
    let status = std::str::from_utf8(&buf[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| std::io::Error::other("bad status line"))?;
    Ok((status, buf[split + 4..].to_vec()))
}

/// The requests of dashboard page `k`, in a seeded order: every page
/// carries the route mix exactly.
fn page(seed: u64, k: u64) -> Vec<&'static str> {
    let mut routes: Vec<&'static str> = ROUTES
        .iter()
        .flat_map(|&(route, share)| {
            std::iter::repeat_n(route, (share * PAGE as u64 / 100) as usize)
        })
        .collect();
    SplitMix64::new(seed ^ 0x4EAD ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)).shuffle(&mut routes);
    routes
}

/// Check a response body against the daemon's cache (report and graph)
/// or the JSON grammar (every other route). `None` = the body is right.
pub fn check_body(state: &ServiceState, route: &str, bin: u64, body: &[u8]) -> Option<String> {
    let Ok(text) = std::str::from_utf8(body) else {
        return Some(format!("{route}: body is not UTF-8"));
    };
    let cached = match route {
        "report" => state.report(bin),
        "graph" => state.graph(Some(bin)),
        _ => {
            return json::parse(text)
                .err()
                .map(|e| format!("{route}: body does not parse: {e:?}"));
        }
    };
    match cached {
        Some(c) if c.as_str() == text => None,
        _ => Some(format!(
            "{route} of bin {bin}: body differs from the published render"
        )),
    }
}

/// What the read clients collect.
#[derive(Default)]
struct Reads {
    all: Samples,
    lag: Samples,
    routes: BTreeMap<&'static str, (Samples, Samples)>,
    sent: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Replay `bins` offline and require every body the daemon published to
/// equal the offline render (compared bin by bin, so no render is kept).
/// Returns the final event listing and the analyzer's snapshot.
fn offline(
    pool: &mut SoloFeed,
    bins: u64,
    state: &ServiceState,
    errors: &mut Vec<String>,
) -> (String, Vec<u8>) {
    let mut analyzer = unit::analyzer();
    let mut table = EventTable::new();
    let mut seen = 0u64;
    {
        let mut session = analyzer.session(0);
        let mut take = |r: pinpoint_core::BinReport| {
            let bin = r.bin.0;
            seen += 1;
            table.absorb(&r.events);
            let report = render::bin_report(&r).to_string();
            if state.report(bin).as_deref() != Some(&report) {
                errors.push(format!(
                    "/bins/{bin}/report differs from the offline render"
                ));
            }
            let graph = Value::object(vec![
                ("bin", Value::Number(bin as f64)),
                ("graph", render::alarm_graph(&r.alarm_graph())),
            ])
            .to_string();
            if state.graph(Some(bin)).as_deref() != Some(&graph) {
                errors.push(format!(
                    "/alarms/graph?bin={bin} differs from the offline render"
                ));
            }
        };
        for bin in 0..bins {
            if let Some(r) = session.push_bin(BinId(bin), pool.prepare(bin)) {
                take(r);
            }
        }
        if let Some(r) = session.flush() {
            take(r);
        }
    }
    if seen != bins {
        errors.push(format!(
            "offline replay produced {seen} reports for {bins} bins"
        ));
    }
    (
        render::events(&table.ranked()).to_string(),
        analyzer.snapshot(),
    )
}

/// The newest checkpoint must restore to identical snapshot bytes.
fn check_checkpoint(dir: &Path) -> Result<(), String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("checkpoint dir: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "pnck"))
        .collect();
    files.sort();
    let newest = files.last().ok_or("no checkpoint was written")?;
    let bytes = std::fs::read(newest).map_err(|e| format!("{}: {e}", newest.display()))?;
    let payload =
        pinpoint_core::snapshot::unframe(&bytes).map_err(|e| format!("unframe: {e:?}"))?;
    let snapshot = payload.get(8..).ok_or("checkpoint payload too short")?;
    let restored = Analyzer::restore(snapshot).map_err(|e| format!("restore: {e:?}"))?;
    if restored.snapshot() != snapshot {
        return Err("restored checkpoint re-snapshots to different bytes".to_string());
    }
    Ok(())
}

/// Spawn a daemon and feed it the warm-up bins; returns it once every
/// warm-up bin but the one the depth-2 executor holds back is readable.
#[allow(clippy::type_complexity)]
fn set_up(
    pool: &Arc<Mutex<SoloFeed>>,
    bins: u64,
    opts: &Opts,
    ckpt: &Path,
    hooks: Option<Arc<Mutex<Vec<(u64, Instant)>>>>,
) -> (Duration, Daemon, Arc<Start>, Arc<Mutex<Vec<Instant>>>) {
    let start = Arc::new(Start::default());
    let pulls = Arc::new(Mutex::new(Vec::new()));
    let feed = PacedFeed {
        pool: Arc::clone(pool),
        next: 0,
        bins,
        start: Arc::clone(&start),
        pulls: Arc::clone(&pulls),
    };
    let cfg = ServiceConfig {
        checkpoint_every: opts.checkpoint_every,
        checkpoint_dir: Some(ckpt.to_path_buf()),
        ..ServiceConfig::default()
    };
    let t = Instant::now();
    let analyzer = unit::analyzer();
    let daemon = match hooks {
        Some(hooks) => Daemon::spawn_with_report_hook(
            cfg,
            analyzer,
            feed,
            Box::new(move |bin| hooks.lock().unwrap().push((bin, Instant::now()))),
        ),
        None => Daemon::spawn(cfg, analyzer, feed),
    }
    .expect("daemon failed to start");
    while daemon.state().bins_reported() + 1 < WARMUP_BINS {
        std::thread::sleep(POLL);
    }
    (t.elapsed(), daemon, start, pulls)
}

/// Run one serve workload over `pool`'s bins.
pub fn run(pool: SoloFeed, opts: &Opts, traced: bool) -> ServeOut {
    let mut out = ServeOut::default();
    let per_bin = pool.records() as u64;
    let pool = Arc::new(Mutex::new(pool));
    let bins = ((opts.seconds * opts.bin_rate).round() as u64).max(MIN_BINS);
    let window = bins as f64 / opts.bin_rate;
    let end = WARMUP_BINS + bins;
    for i in 1..SETUPS {
        let dir = opts.scratch.join(format!("discard-{i}"));
        let (d, daemon, start, _) = set_up(&pool, bins, opts, &dir, None);
        out.setup_s.push(d.as_secs_f64());
        start.set(None);
        daemon.join().expect("daemon thread panicked");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let ckpt = opts.scratch.join("ckpt");
    let hooks = traced.then(|| Arc::new(Mutex::new(Vec::new())));
    let (d, daemon, start, pulls) = set_up(&pool, bins, opts, &ckpt, hooks.clone());
    out.setup_s.push(d.as_secs_f64());
    let state = Arc::clone(daemon.state());
    let addr = daemon.local_addr();
    let timeline_ases: Vec<u32> = {
        let mut rng = SplitMix64::new(opts.seed ^ 0x7153);
        let mut ases = crate::gen::tracked_ases();
        rng.shuffle(&mut ases);
        ases.into_iter().take(8).map(|a| a.0).collect()
    };

    let t0 = Instant::now() + Duration::from_millis(20);
    let writes = OpenLoop::new(t0, opts.bin_rate);
    let total_pages = ((window * opts.read_rate / PAGE as f64).round() as u64).max(MIN_PAGES);
    start.set(Some(writes));

    let next_page = AtomicU64::new(0);
    let reads = Mutex::new(Reads::default());
    let mut readable: Vec<Option<Instant>> = vec![None; bins as usize];
    let mut checkpoints = 0u64;
    // The watcher: stamps each bin the moment its report is readable.
    let deadline = t0 + Duration::from_secs_f64(window + 30.0);
    let mut next = WARMUP_BINS;
    let mut last_ckpt = state.last_checkpoint();
    while next < end && Instant::now() < deadline {
        while next < end && state.report(next).is_some() {
            readable[(next - WARMUP_BINS) as usize] = Some(Instant::now());
            next += 1;
        }
        let ckpt_now = state.last_checkpoint();
        if ckpt_now != last_ckpt {
            checkpoints += 1;
            last_ckpt = ckpt_now;
        }
        std::thread::sleep(POLL);
    }
    // Reads run once the feed has drained: beside the feed, the client
    // threads and the daemon contend for the same cores and the read tail
    // does not repeat from run to run.
    state.wait_done();
    let bin = end - 1;
    let pages = OpenLoop::new(
        Instant::now() + Duration::from_millis(20),
        opts.read_rate / PAGE as f64,
    );
    std::thread::scope(|scope| {
        for _ in 0..opts.clients.max(1) {
            scope.spawn(|| {
                let mut mine = Reads::default();
                loop {
                    let k = next_page.fetch_add(1, Ordering::Relaxed);
                    if k >= total_pages {
                        break;
                    }
                    let (due, lag) = pages.wait(k);
                    mine.lag.push_ms(lag);
                    let mut ok = true;
                    let mut bodies = Vec::with_capacity(PAGE);
                    for (i, route) in page(opts.seed, k).into_iter().enumerate() {
                        let path = match route {
                            "report" => format!("/bins/{bin}/report"),
                            "events" => "/events".to_string(),
                            "timeline" => format!(
                                "/asn/{}/timeline",
                                timeline_ases[(k as usize + i) % timeline_ases.len()]
                            ),
                            "graph" => format!("/alarms/graph?bin={bin}"),
                            "bins" => "/bins".to_string(),
                            _ => "/health".to_string(),
                        };
                        mine.sent += 1;
                        let sent = Instant::now();
                        let result = get(addr, &path);
                        let entry = mine.routes.entry(route).or_default();
                        match result {
                            Ok((200, body)) => {
                                entry.0.push(latency_ms(sent, Instant::now()));
                                entry.1.push(body.len() as f64);
                                bodies.push((route, body));
                            }
                            _ => {
                                mine.failed += 1;
                                entry.0.fail();
                                ok = false;
                            }
                        }
                    }
                    if ok {
                        mine.all.push(latency_ms(due, Instant::now()));
                    } else {
                        mine.all.fail();
                    }
                    // Checked after the page is timed.
                    for (route, body) in bodies {
                        mine.errors.extend(check_body(&state, route, bin, &body));
                    }
                }
                let mut all = reads.lock().unwrap();
                all.all.extend(&mine.all);
                all.lag.extend(&mine.lag);
                all.sent += mine.sent;
                all.failed += mine.failed;
                all.errors.extend(mine.errors);
                for (route, (ms, bytes)) in mine.routes {
                    let e = all.routes.entry(route).or_default();
                    e.0.extend(&ms);
                    e.1.extend(&bytes);
                }
            });
        }
    });
    let reads = reads.into_inner().unwrap();
    // Final listing, after the feed drained.
    let final_events = get(addr, "/events");
    let gauges = daemon.queue_gauges();
    let bins_json = state.bins_json();
    daemon.join().expect("daemon thread panicked");

    out.bins = bins;
    out.records = per_bin * bins;
    out.reads = reads.sent;
    out.reads_failed = reads.failed;
    out.read_ms = reads.all;
    out.errors = reads.errors;
    let mut last = t0;
    for (k, at) in readable.iter().enumerate() {
        match at {
            Some(at) => {
                out.report_ms.push(latency_ms(writes.due(k as u64), *at));
                last = last.max(*at);
            }
            None => {
                out.report_ms.fail();
                out.missing += 1;
            }
        }
    }
    out.wall = last - t0;
    let own: BTreeMap<u64, f64> = json::parse(&bins_json)
        .ok()
        .and_then(|v| match v.get("bins") {
            Some(Value::Array(rows)) => Some(
                rows.iter()
                    .filter_map(|r| {
                        Some((
                            r.get("bin")?.as_f64()? as u64,
                            r.get("latency_ms")?.as_f64()?,
                        ))
                    })
                    .collect(),
            ),
            _ => None,
        })
        .unwrap_or_default();
    for bin in WARMUP_BINS..end {
        match own.get(&bin) {
            Some(ms) => out.bin_ms.push(*ms),
            None => out.bin_ms.fail(),
        }
    }

    // Gates: every published body equals the offline render, the final
    // listing equals the offline fold, the newest checkpoint restores.
    let (events, snapshot) = offline(&mut pool.lock().unwrap(), end, &state, &mut out.errors);
    match final_events {
        Ok((200, body)) if body == events.as_bytes() => {}
        Ok((status, _)) => out.errors.push(format!(
            "final /events ({status}) differs from the offline listing"
        )),
        Err(e) => out.errors.push(format!("final /events failed: {e}")),
    }
    if let Err(e) = check_checkpoint(&ckpt) {
        out.errors.push(e);
    }

    if let Some(hooks) = hooks {
        let hooks: BTreeMap<u64, Instant> = hooks.lock().unwrap().iter().copied().collect();
        let pulls = pulls.lock().unwrap();
        let mut l = ServiceLayers::default();
        for (k, pulled) in pulls.iter().enumerate() {
            let bin = WARMUP_BINS + k as u64;
            l.feed_lag_ms
                .push(latency_ms(writes.due(k as u64), *pulled));
            if let Some(hooked) = hooks.get(&bin) {
                l.pipeline_ms.push(latency_ms(*pulled, *hooked));
                if let Some(Some(at)) = readable.get(k) {
                    l.reporter_ms.push(latency_ms(*hooked, *at));
                }
            }
        }
        l.collect_peak = gauges.0.peak as f64;
        l.report_peak = gauges.1.peak as f64;
        l.checkpoints = checkpoints as f64;
        l.http = reads.routes;
        l.reader_lag_ms = reads.lag;
        l.state_latency_mean = out.bin_ms.mean().unwrap_or(0.0);
        let store = CheckpointStore::new(opts.scratch.join("save"));
        for i in 0..5 {
            let t = Instant::now();
            store.save(end + i, &snapshot).expect("checkpoint save");
            l.checkpoint_save_ms.push_ms(t.elapsed());
        }
        out.layers = Some(l);
    }
    let _ = std::fs::remove_dir_all(&opts.scratch);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_altered_report_body_fails_the_gate() {
        let mut pool = SoloFeed::steady(3);
        let bins: Vec<_> = (0..3)
            .map(|b| (BinId(b), pool.prepare(b).to_vec()))
            .collect();
        let daemon = Daemon::spawn(ServiceConfig::default(), unit::analyzer(), bins.into_iter())
            .expect("daemon starts");
        daemon.state().wait_done();
        let (status, mut body) = get(daemon.local_addr(), "/bins/1/report").expect("GET");
        assert_eq!(status, 200);
        assert_eq!(check_body(daemon.state(), "report", 1, &body), None);
        // Change one digit of the body: same length, still valid JSON.
        let i = body.iter().position(u8::is_ascii_digit).expect("a digit");
        body[i] = if body[i] == b'9' { b'8' } else { body[i] + 1 };
        assert!(check_body(daemon.state(), "report", 1, &body).is_some());
        // The published renders equal the offline replay of the same bins…
        let mut errors = Vec::new();
        offline(&mut pool, 3, daemon.state(), &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
        // …and not the replay of other bins.
        offline(&mut SoloFeed::steady(4), 3, daemon.state(), &mut errors);
        assert!(!errors.is_empty());
        daemon.join().expect("clean exit");
    }

    #[test]
    fn every_page_carries_the_route_mix() {
        for k in 0..50 {
            let p = page(7, k);
            assert_eq!(p.len(), PAGE);
            for (route, share) in ROUTES {
                let n = p.iter().filter(|r| **r == route).count();
                assert_eq!(n as u64 * 100, share * PAGE as u64, "{route}");
            }
        }
        assert_ne!(page(7, 0), page(7, 1), "the order is seeded per page");
    }
}
