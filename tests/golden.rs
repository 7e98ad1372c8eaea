//! Golden renders: the paper's case studies, pinned byte for byte.
//!
//! The parity suites prove that every execution path agrees with the
//! sequential reference, which shares detection, aggregation and rendering
//! with the fast path — so a change that moves every path together passes
//! them. These files pin the semantics themselves. For the §7.1 root-server
//! DDoS (`ddos`), the §7.2 route leak (`leak`), the §7.3 AMS-IX outage
//! (`ixp`), a quiet `steady` window, and the AMS-IX outage over the
//! three-stream `multi` fleet, `tests/golden/<case>/` holds the rendered
//! report (`bin-<n>.json`) of every bin in the event window plus the quiet
//! bin before it, the final `/events` listing as
//! `pinpointd --offline --events` prints it (`events.json`), and the alarm
//! graph of the window's peak bin, the earliest on ties (`graph-<n>.json`).
//!
//! Cases run on `Scale::Small` worlds with `DetectorConfig::fast_test` plus
//! the parity-matrix knobs, so every CI matrix point also proves the
//! goldens under its schedule. `PINPOINT_BLESS=1 cargo test --test golden`
//! rewrites the files and prints what changed per file; explain any
//! golden change in CHANGES.md.

#[allow(dead_code)]
mod common;

use common::parity_config;
use pinpoint::core::aggregate::FleetEvent;
use pinpoint::core::session::drive;
use pinpoint::core::{render, BinReport, EventTable, FleetReport};
use pinpoint::model::{BinId, SimTime};
use pinpoint::scenarios::{ddos, ixp, leak, multi, steady, CaseStudy, Scale};
use std::path::Path;

const SEED: u64 = 7;

/// Bins analysed before a case's event window opens, so the references
/// are warm when it does. The last of them is the quiet bin.
const WARMUP: u64 = 4;

/// The bins a `[start, end)` time span overlaps, half-open.
fn bins_of((start, end): (SimTime, SimTime)) -> (u64, u64) {
    (start.0 / 3600, end.0.div_ceil(3600))
}

/// One case's golden files, collected as its reports arrive.
struct Goldens {
    event: (u64, u64),
    files: Vec<(String, String)>,
    table: EventTable,
    /// `(alarms, bin, rendered graph)` of the peak bin so far.
    peak: Option<(usize, u64, String)>,
}

impl Goldens {
    fn new(event: (u64, u64)) -> Self {
        Goldens {
            event,
            files: Vec::new(),
            table: EventTable::new(),
            peak: None,
        }
    }

    /// The bins a case analyses, half-open.
    fn analysed(&self) -> (BinId, BinId) {
        (BinId(self.event.0 - WARMUP), BinId(self.event.1))
    }

    fn observe(
        &mut self,
        bin: u64,
        events: &[FleetEvent],
        alarms: usize,
        report: impl FnOnce() -> String,
        graph: impl FnOnce() -> String,
    ) {
        self.table.absorb(events);
        let in_event = (self.event.0..self.event.1).contains(&bin);
        if in_event || bin == self.event.0 - 1 {
            self.files.push((format!("bin-{bin}.json"), report()));
        }
        if in_event && self.peak.as_ref().is_none_or(|p| alarms > p.0) {
            self.peak = Some((alarms, bin, graph()));
        }
    }

    /// Compare with `tests/golden/<case>/`, or rewrite it under
    /// `PINPOINT_BLESS=1`.
    fn check(mut self, case: &str) {
        let events = render::events(&self.table.ranked()).to_string();
        self.files.push(("events.json".to_string(), events));
        let (_, bin, graph) = self.peak.take().expect("the event window reported no bin");
        self.files.push((format!("graph-{bin}.json"), graph));

        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(case);
        let bless = std::env::var("PINPOINT_BLESS").is_ok_and(|v| v == "1");
        let mut problems = Vec::new();
        for (name, body) in &self.files {
            let status = match std::fs::read_to_string(dir.join(name)) {
                Ok(old) if old == *body => continue,
                Ok(old) => describe_change(&old, body),
                Err(_) => "missing".to_string(),
            };
            if bless {
                std::fs::create_dir_all(&dir).expect("create the golden dir");
                std::fs::write(dir.join(name), body).expect("write a golden file");
                println!(
                    "golden {case}/{name}: {status} -> written ({} bytes)",
                    body.len()
                );
            } else {
                problems.push(format!("{case}/{name}: {status}"));
            }
        }
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if self.files.iter().all(|(n, _)| *n != name) {
                if bless {
                    std::fs::remove_file(entry.path()).expect("remove a stale golden file");
                    println!("golden {case}/{name}: no longer produced -> removed");
                } else {
                    problems.push(format!("{case}/{name}: no longer produced"));
                }
            }
        }
        assert!(
            problems.is_empty(),
            "golden renders differ:\n  {}\nIf the change is intended, rerun with \
             PINPOINT_BLESS=1 and explain it in CHANGES.md.",
            problems.join("\n  ")
        );
    }
}

/// Sizes and the first differing byte, with context, of `old` vs `new`.
fn describe_change(old: &str, new: &str) -> String {
    let (a, b) = (old.as_bytes(), new.as_bytes());
    let at = a.iter().zip(b).position(|(x, y)| x != y);
    let at = at.unwrap_or(a.len().min(b.len()));
    let context = |s: &[u8]| {
        let range = at.saturating_sub(30).min(s.len())..(at + 30).min(s.len());
        String::from_utf8_lossy(&s[range]).into_owned()
    };
    format!(
        "changed ({} -> {} bytes), first difference at byte {at}: golden `{}`, now `{}`",
        a.len(),
        b.len(),
        context(a),
        context(b)
    )
}

/// Run a solo case study over its event window and check its goldens.
fn solo(name: &str, mut case: CaseStudy, event: (u64, u64)) {
    case.cfg = parity_config();
    let mut goldens = Goldens::new(event);
    let (start, end) = goldens.analysed();
    let mut analyzer = case.analyzer();
    let source = case.platform.stream(start, end);
    drive(&mut analyzer.session(0), source, |r: BinReport| {
        goldens.observe(
            r.bin.0,
            &r.events,
            r.delay_alarms.len() + r.forwarding_alarms.len(),
            || render::bin_report(&r).to_string(),
            || render::alarm_graph(&r.alarm_graph()).to_string(),
        )
    });
    goldens.check(name);
}

#[test]
fn ixp_outage_goldens() {
    solo(
        "ixp",
        ixp::case_study(SEED, Scale::Small),
        ixp::outage_bins(),
    );
}

#[test]
fn ddos_goldens() {
    let attack = bins_of(ddos::attack1(Scale::Small));
    solo("ddos", ddos::case_study(SEED, Scale::Small), attack);
}

#[test]
fn route_leak_goldens() {
    let leak = bins_of(leak::leak_window());
    solo("leak", leak::case_study(SEED, Scale::Small), leak);
}

/// No injected event: the "event window" is two ordinary early bins.
#[test]
fn steady_goldens() {
    solo("steady", steady::case_study(SEED, Scale::Small), (4, 6));
}

/// The AMS-IX outage through the three-stream fleet.
#[test]
fn multi_stream_goldens() {
    let mut case = multi::case_study(SEED, Scale::Small);
    case.cfg = parity_config();
    let mut goldens = Goldens::new(ixp::outage_bins());
    let (start, end) = goldens.analysed();
    let mut router = case.router();
    let source = (start.0..end.0).map(|b| (BinId(b), case.collect_bin(BinId(b))));
    drive(&mut router.session(0), source, |r: FleetReport| {
        goldens.observe(
            r.bin.0,
            &r.events,
            r.delay_alarms() + r.forwarding_alarms(),
            || render::fleet_report(&r).to_string(),
            || render::alarm_graph(&r.alarm_graph()).to_string(),
        )
    });
    goldens.check("multi");
}
