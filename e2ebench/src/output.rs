//! Metric naming, the result line, run records, and the all-workloads
//! runner.

use crate::replay::{Layers, ReplayOut};
use crate::serve::{ServeOut, ServiceLayers, ROUTES};
use crate::stats::Samples;
use pinpoint_model::json::{self, Value};
use std::path::Path;

/// Stand-in for a time no operation met (every sample failed): JSON has
/// no infinity, and a failed operation must still read as a miss.
const MISSED: f64 = 1e12;

/// One named metric with its unit, and its sample distribution when it
/// summarizes many samples.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// `(q1, median, q3, samples)` of the underlying samples.
    pub dist: Option<(f64, f64, f64, usize)>,
}

/// The metrics a run reports, in order.
pub type Metrics = Vec<Metric>;

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        MISSED
    }
}

fn scalar(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value: finite(value),
        dist: None,
    }
}

/// Samples per window of a windowed tail.
const TAIL_WINDOW: usize = 200;

/// A percentile of `s`: the median, or a tail under the ten-beyond rule,
/// taken as the median of the tails of consecutive 200-sample windows.
fn pct(name: &str, unit: &'static str, s: &Samples, q: f64) -> Metric {
    let value = if q == 0.5 {
        s.median()
    } else {
        s.windowed_tail(q, TAIL_WINDOW)
    };
    let value = value.unwrap_or_else(|| {
        panic!(
            "{name}: {} samples cannot support the {q} percentile (need ten beyond it)",
            s.len()
        )
    });
    Metric {
        name: name.to_string(),
        unit,
        value: finite(value),
        dist: s
            .quartiles()
            .map(|(a, b, c)| (finite(a), finite(b), finite(c), s.len())),
    }
}

/// One workload run: its end-to-end numbers, its per-layer numbers when
/// traced, gate results, and human-readable notes.
pub struct Run {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    e2e: Metrics,
    /// End-to-end numbers printed and recorded but not in the result
    /// line: their run-to-run spread exceeds any bound the result line
    /// may carry (see the README).
    ungated: Metrics,
    layers: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    notes: Vec<String>,
}

impl Run {
    /// An empty run record.
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        Run {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            e2e: Vec::new(),
            ungated: Vec::new(),
            layers: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Whether every gate passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Record a replay as this run's end-to-end result.
    pub fn replay(&mut self, out: &ReplayOut) {
        self.attempted = out.bins;
        self.failed = out.missing;
        self.e2e = vec![
            pct("setup_s", "s", &out.setup_s, 0.5),
            pct("records_per_s", "records/s", &out.cycle_rate, 0.5),
            pct("bin_ms_p50", "ms", &out.bin_ms, 0.5),
            pct("report_latency_ms_p50", "ms", &out.report_ms, 0.5),
        ];
        self.ungated = ungated(&out.bin_ms, &out.report_ms, &out.read_ms);
        self.errors.extend(out.errors.iter().cloned());
        if let Some(l) = &out.layers {
            self.add_core(l, out.bins);
            self.notes.push(format!(
                "tracing overhead: traced depth-1 bin (begin+ingest+finish) p50 {:.3} ms vs untraced depth-1 push_bin p50 {:.3} ms ({:+.1}%)",
                l.traced_ms.median().unwrap_or(0.0),
                l.depth1_ms.median().unwrap_or(0.0),
                100.0 * (l.traced_ms.median().unwrap_or(0.0) / l.depth1_ms.median().unwrap_or(1.0) - 1.0)
            ));
        }
    }

    /// Record a secondary traced replay: its per-layer numbers and its
    /// gate failures, but not its end-to-end numbers.
    pub fn core_layers(&mut self, out: &ReplayOut) {
        self.errors.extend(out.errors.iter().cloned());
        if let Some(l) = &out.layers {
            self.add_core(l, out.bins);
        }
    }

    fn add_core(&mut self, l: &Layers, bins: u64) {
        self.layers.extend(core_metrics(l, bins));
        let sum = l.ingest_ms.median().unwrap_or(0.0) + l.analyze_ms.median().unwrap_or(0.0);
        let wall = l.depth1_ms.median().unwrap_or(0.0);
        self.notes.push(format!(
            "reconcile core.session: ingest_ms_p50 + analyze_ms_p50 = {sum:.3} ms vs depth-1 push_bin p50 {wall:.3} ms (gap {:+.1}%: time outside the split calls)",
            100.0 * (wall - sum) / wall.max(1e-9)
        ));
    }

    /// Record a serve run; `primary` makes it this run's end-to-end result.
    pub fn serve(&mut self, out: &ServeOut, primary: bool) {
        if primary {
            self.attempted = out.bins + out.reads;
            self.failed = out.missing + out.reads_failed;
            self.e2e = vec![
                pct("setup_s", "s", &out.setup_s, 0.5),
                scalar("records_per_s", "records/s", out.records_per_s()),
                pct("bin_ms_p50", "ms", &out.bin_ms, 0.5),
                pct("report_latency_ms_p50", "ms", &out.report_ms, 0.5),
            ];
            self.ungated = ungated(&out.bin_ms, &out.report_ms, &out.read_ms);
        }
        self.errors.extend(out.errors.iter().cloned());
        let Some(l) = &out.layers else { return };
        self.layers.extend(service_metrics(l));
        let p50 = |s: &Samples| s.median().unwrap_or(0.0);
        let mean = |s: &Samples| s.mean().unwrap_or(0.0);
        let parts = p50(&l.feed_lag_ms) + p50(&l.pipeline_ms) + p50(&l.reporter_ms);
        let parts_mean = mean(&l.feed_lag_ms) + mean(&l.pipeline_ms) + mean(&l.reporter_ms);
        self.notes.push(format!(
            "reconcile report latency: feed.lag + pipeline + reporter = {parts:.3} ms (p50s), {parts_mean:.3} ms (means) vs report_latency {:.3} ms (p50), {:.3} ms (mean)",
            p50(&out.report_ms),
            mean(&out.report_ms)
        ));
        self.notes.push(format!(
            "reconcile service.state: pipeline + reporter = {:.3} ms (means) vs service.state.latency_ms_mean {:.3} ms",
            mean(&l.pipeline_ms) + mean(&l.reporter_ms),
            l.state_latency_mean
        ));
    }

    /// The reported metrics: end-to-end untraced, per-layer traced.
    pub fn metrics(&self) -> Metrics {
        let mut m = if self.trace {
            self.layers.clone()
        } else {
            self.e2e.clone()
        };
        if self.trace {
            m.push(scalar(
                "failed_ratio",
                "fraction",
                self.failed as f64 / self.attempted.max(1) as f64,
            ));
        } else {
            m.push(scalar("peak_rss_mb", "MiB", peak_rss_mb()));
        }
        m
    }

    /// Every metric by name with its unit, plus the notes, for people.
    pub fn print_human(&self, metrics: &Metrics) {
        println!(
            "# {} seed={} seconds={} trace={} correct={} attempted={} failed={} failed_ratio={:.6}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.correct(),
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        if self.trace {
            for m in self.e2e.iter().chain(&self.ungated) {
                println!("  (traced) {:<34} {:>16.4} {}", m.name, m.value, m.unit);
            }
        }
        for m in metrics {
            println!("  {:<42} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for m in &self.ungated {
            println!("  {:<42} {:>16.4} {} (not gated)", m.name, m.value, m.unit);
        }
        for n in &self.notes {
            println!("  {n}");
        }
        for e in self.errors.iter().take(20) {
            println!("  GATE FAILED: {e}");
        }
        if self.errors.len() > 20 {
            println!("  ... and {} more gate failures", self.errors.len() - 20);
        }
    }

    /// The result line.
    pub fn json_line(&self, metrics: &Metrics) -> String {
        let m = metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::object(vec![
                        ("value", Value::Number(m.value)),
                        ("unit", Value::String(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::object(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Number(self.attempted.max(1) as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", Value::Object(m)),
        ])
        .to_string()
    }

    /// Write the machine-aware record of this run.
    pub fn write_record(&self, dir: &Path, metrics: &Metrics) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let list = |ms: &Metrics| {
            Value::Array(
                ms.iter()
                    .map(|m| {
                        let mut pairs = vec![
                            ("name", Value::String(m.name.clone())),
                            ("unit", Value::String(m.unit.to_string())),
                            ("value", Value::Number(m.value)),
                        ];
                        if let Some((q1, med, q3, n)) = m.dist {
                            pairs.push(("q1", Value::Number(q1)));
                            pairs.push(("median", Value::Number(med)));
                            pairs.push(("q3", Value::Number(q3)));
                            pairs.push(("samples", Value::Number(n as f64)));
                        }
                        Value::object(pairs)
                    })
                    .collect(),
            )
        };
        let record = Value::object(vec![
            ("workload", Value::String(self.workload.clone())),
            ("seed", Value::Number(self.seed as f64)),
            ("seconds", Value::Number(self.seconds)),
            ("trace", Value::Bool(self.trace)),
            ("bin_rate", Value::Number(crate::BIN_RATE)),
            ("read_rate", Value::Number(crate::READ_RATE)),
            ("machine", fingerprint()),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Number(self.attempted as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", list(metrics)),
            ("end_to_end", list(&self.e2e)),
            ("ungated", list(&self.ungated)),
            (
                "notes",
                Value::Array(self.notes.iter().cloned().map(Value::String).collect()),
            ),
            (
                "errors",
                Value::Array(self.errors.iter().cloned().map(Value::String).collect()),
            ),
        ]);
        std::fs::write(
            dir.join(record_name(&self.workload, self.seed, self.trace)),
            record.to_string(),
        )
    }
}

/// The tails and the read median: reported on every untraced run, not
/// in the result line.
fn ungated(bin_ms: &Samples, report_ms: &Samples, read_ms: &Samples) -> Metrics {
    vec![
        pct("bin_ms_p95", "ms", bin_ms, 0.95),
        pct("report_latency_ms_p95", "ms", report_ms, 0.95),
        pct("read_latency_ms_p50", "ms", read_ms, 0.5),
        pct("read_latency_ms_p95", "ms", read_ms, 0.95),
    ]
}

fn record_name(workload: &str, seed: u64, trace: bool) -> String {
    format!("{workload}-seed{seed}-trace{}.json", u8::from(trace))
}

fn core_metrics(l: &Layers, bins: u64) -> Metrics {
    let p50 = |name: &str, s: &Samples| pct(name, "ms", s, 0.5);
    let mean = |s: &Samples| s.mean().unwrap_or(0.0);
    vec![
        p50("core.session.ingest_ms_p50", &l.ingest_ms),
        p50("core.session.analyze_ms_p50", &l.analyze_ms),
        scalar(
            "core.session.overlap_ratio",
            "ratio",
            mean(&l.default_ms) / mean(&l.traced_ms),
        ),
        scalar(
            "core.ingest.intern_inserts_per_bin",
            "count",
            mean(&l.intern_inserts),
        ),
        p50("core.sanitize.pass_ms_p50", &l.sanitize_ms),
        scalar(
            "core.sanitize.quarantine_ratio",
            "ratio",
            l.quarantine_ratio,
        ),
        p50("core.diffrtt.ms_p50", &l.diffrtt_ms),
        scalar(
            "core.diffrtt.links_per_bin",
            "count",
            mean(&l.diffrtt_links),
        ),
        scalar(
            "core.diffrtt.alarm_ratio",
            "ratio",
            l.diffrtt_alarms / (mean(&l.diffrtt_links) * bins as f64).max(1.0),
        ),
        p50("core.forwarding.ms_p50", &l.forwarding_ms),
        scalar("core.forwarding.patterns", "count", l.patterns),
        scalar(
            "core.forwarding.alarm_ratio",
            "ratio",
            l.forwarding_alarms / (l.patterns * bins as f64).max(1.0),
        ),
        scalar("core.stream.pool_ratio", "ratio", l.pool_ratio),
        scalar("core.aggregate.events", "count", l.events),
        scalar("core.aggregate.event_deltas", "count", l.event_deltas),
        p50("core.render.report_ms_p50", &l.render_report_ms),
        scalar(
            "core.render.report_bytes",
            "bytes",
            l.render_report_bytes.median().unwrap_or(0.0),
        ),
        p50("core.render.graph_ms_p50", &l.render_graph_ms),
        p50("core.render.events_ms_p50", &l.render_events_ms),
        pct("core.snapshot.ms", "ms", &l.snapshot_ms, 0.5),
        scalar("core.snapshot.bytes", "bytes", l.snapshot_bytes),
    ]
}

fn service_metrics(l: &ServiceLayers) -> Metrics {
    let mut m = vec![
        pct("service.feed.lag_ms_p50", "ms", &l.feed_lag_ms, 0.5),
        pct("service.feed.lag_ms_p95", "ms", &l.feed_lag_ms, 0.95),
        pct("service.pipeline.ms_p50", "ms", &l.pipeline_ms, 0.5),
        pct("service.pipeline.ms_p95", "ms", &l.pipeline_ms, 0.95),
        pct("service.reporter.ms_p50", "ms", &l.reporter_ms, 0.5),
        scalar("service.queue.collect_peak", "count", l.collect_peak),
        scalar("service.queue.report_peak", "count", l.report_peak),
        pct(
            "service.checkpoint.save_ms",
            "ms",
            &l.checkpoint_save_ms,
            0.5,
        ),
        scalar("service.checkpoint.count", "count", l.checkpoints),
    ];
    for (route, _) in ROUTES {
        let empty = (Samples::new(), Samples::new());
        let (ms, bytes) = l.http.get(route).unwrap_or(&empty);
        m.push(pct(&format!("service.http.{route}.ms_p50"), "ms", ms, 0.5));
        m.push(scalar(
            &format!("service.http.{route}.bytes"),
            "bytes",
            bytes.median().unwrap_or(0.0),
        ));
    }
    m.push(pct(
        "service.reader.lag_ms_p95",
        "ms",
        &l.reader_lag_ms,
        0.95,
    ));
    m.push(scalar(
        "service.state.latency_ms_mean",
        "ms",
        l.state_latency_mean,
    ));
    m
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine a run ran on: hardware threads, CPU model, compiler.
fn fingerprint() -> Value {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    Value::object(vec![
        ("threads", Value::Number(threads as f64)),
        ("cpu", Value::String(cpu)),
        ("rustc", Value::String(rustc)),
    ])
}

/// Run one workload in a child process, echo its human lines, and
/// return its result line; a failed or unparsable run sets `failed`.
fn run_child(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    failed: &mut bool,
) -> Option<Value> {
    let out = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output();
    let line = out.as_ref().ok().and_then(|out| {
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("{line}");
        }
        json::parse(stdout.lines().last()?).ok()
    });
    *failed |= line.is_none() || !out.is_ok_and(|o| o.status.success());
    line
}

/// Run every workload `runs` times untraced (seeds `seed..seed+runs`) and
/// once traced, each in its own process; print each end-to-end metric's
/// median and quartiles, the tracing overhead, and write
/// `e2ebench/out/summary.json`. Returns the exit code.
pub fn run_all(seed: u64, seconds: f64, runs: usize) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("e2ebench: cannot find my own executable: {e}");
            return 2;
        }
    };
    let dir = Path::new("e2ebench").join("out");
    let mut failed = false;
    let mut summary = Vec::new();
    for workload in crate::WORKLOADS {
        let mut values: std::collections::BTreeMap<String, (String, Vec<f64>)> = Default::default();
        for r in 0..runs {
            let Some(line) =
                run_child(&exe, workload, seed + r as u64, seconds, false, &mut failed)
            else {
                continue;
            };
            if let Some(Value::Object(m)) = line.get("metrics") {
                for (name, v) in m {
                    let unit = v
                        .get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string();
                    let e = values.entry(name.clone()).or_insert((unit, Vec::new()));
                    e.1.extend(v.get("value").and_then(Value::as_f64));
                }
            }
        }
        run_child(&exe, workload, seed, seconds, true, &mut failed);
        // The traced run's own end-to-end numbers, from its record.
        let traced_e2e: std::collections::BTreeMap<String, f64> =
            std::fs::read_to_string(dir.join(record_name(workload, seed, true)))
                .ok()
                .and_then(|s| json::parse(&s).ok())
                .and_then(|v| {
                    v.get("end_to_end")?.as_array().map(|a| {
                        a.iter()
                            .filter_map(|m| {
                                Some((
                                    m.get("name")?.as_str()?.to_string(),
                                    m.get("value")?.as_f64()?,
                                ))
                            })
                            .collect()
                    })
                })
                .unwrap_or_default();
        println!("== {workload}: {runs} untraced runs (median [q1, q3]) and the tracing overhead");
        let mut rows = Vec::new();
        for (name, (unit, vals)) in &values {
            let mut s = Samples::new();
            for v in vals {
                s.push(*v);
            }
            let (q1, med, q3) = s.quartiles().unwrap_or((0.0, 0.0, 0.0));
            let overhead = traced_e2e
                .get(name)
                .map(|t| format!("traced {t:.4} ({:+.1}%)", 100.0 * (t / med - 1.0)))
                .unwrap_or_default();
            println!("  {name:<26} {med:>14.4} [{q1:.4}, {q3:.4}] {unit} {overhead}");
            rows.push(Value::object(vec![
                ("name", Value::String(name.clone())),
                ("unit", Value::String(unit.clone())),
                ("median", Value::Number(med)),
                ("q1", Value::Number(q1)),
                ("q3", Value::Number(q3)),
                (
                    "values",
                    Value::Array(vals.iter().map(|v| Value::Number(*v)).collect()),
                ),
            ]));
        }
        summary.push(Value::object(vec![
            ("workload", Value::String(workload.to_string())),
            ("metrics", Value::Array(rows)),
        ]));
    }
    let doc = Value::object(vec![
        ("machine", fingerprint()),
        ("seed", Value::Number(seed as f64)),
        ("seconds", Value::Number(seconds)),
        ("runs", Value::Number(runs as f64)),
        ("bin_rate", Value::Number(crate::BIN_RATE)),
        ("read_rate", Value::Number(crate::READ_RATE)),
        ("workloads", Value::Array(summary)),
    ]);
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join("summary.json"), doc.to_string()))
    {
        eprintln!("e2ebench: could not write the summary: {e}");
    }
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_gate_failure_is_reported_as_incorrect_not_as_a_metric() {
        let mut run = Run::new("replay_steady", 1, 1.0, false);
        run.attempted = 10;
        let metrics = vec![scalar("records_per_s", "records/s", 5.0)];
        assert!(run.correct());
        assert!(run
            .json_line(&metrics)
            .starts_with("{\"attempted\":10,\"correct\":true"));
        run.errors
            .push("bin 3: report differs from process_bin_sequential".to_string());
        assert!(!run.correct());
        let line = run.json_line(&metrics);
        assert!(line.contains("\"correct\":false"), "{line}");
        assert!(!line.contains("differs"), "a mismatch is not a metric");
    }

    #[test]
    fn failures_push_the_tail_to_a_miss() {
        let mut s = Samples::new();
        for _ in 0..200 {
            s.push(1.0);
        }
        for _ in 0..60 {
            s.fail();
        }
        assert_eq!(pct("x", "ms", &s, 0.95).value, MISSED);
    }
}
