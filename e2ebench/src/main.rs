//! `e2ebench` — the end-to-end and per-layer benchmark of the pinpoint
//! engine and daemon. See `e2ebench/README.md` for the workloads, the
//! metrics and how to read a traced run.
//!
//! ```text
//! e2ebench --workload replay_steady|replay_fleet_dirty|serve_live|all
//!          [--seed N] [--seconds S] [--trace 0|1] [--runs N]
//! ```
//!
//! One workload per process (so `peak_rss_mb` is that workload's alone).
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics untraced, the per-layer metrics traced. A gate failure prints
//! `"correct": false` and exits 1. `--workload all` runs every workload
//! `--runs` times untraced and once traced, each in a child process, and
//! prints each metric's median and quartiles.

mod gen;
mod output;
mod replay;
mod serve;
mod stats;
mod unit;

use output::{Metrics, Run};
use std::path::PathBuf;
use unit::{FleetFeed, SoloFeed};

/// The workloads, in run order.
pub const WORKLOADS: [&str; 3] = ["replay_steady", "replay_fleet_dirty", "serve_live"];
/// Fed bins per second on `serve_live`.
pub const BIN_RATE: f64 = 20.0;
/// Requests per second on `serve_live` (ten pages of 20 per second: a
/// page takes 10–25 ms here, so the clients stay well below saturation
/// and a stall does not back up the open loop for seconds).
pub const READ_RATE: f64 = 200.0;
/// Fewest measured bins in a replay: every p95 needs ten samples beyond it.
pub const REPLAY_MIN_BINS: u64 = 200;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --workload replay_steady|replay_fleet_dirty|serve_live|all \
         [--seed N] [--seconds S] [--trace 0|1] [--runs N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        runs: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--runs" => args.runs = value.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if args.seconds <= 0.0
        || !(args.workload == "all" || WORKLOADS.contains(&args.workload.as_str()))
    {
        usage();
    }
    args
}

/// Where runs leave their files (relative to the checkout root).
fn out_dir() -> PathBuf {
    PathBuf::from("e2ebench").join("out")
}

fn serve_opts(args: &Args) -> serve::Opts {
    serve::Opts {
        seconds: args.seconds,
        bin_rate: BIN_RATE,
        read_rate: READ_RATE,
        clients: std::thread::available_parallelism().map_or(1, |n| n.get()),
        checkpoint_every: 4,
        scratch: out_dir().join(format!("scratch-{}", std::process::id())),
        seed: args.seed,
    }
}

fn replay_opts(args: &Args, warmup: u64) -> replay::Opts {
    replay::Opts {
        // A traced replay also runs every per-layer arm for each bin.
        seconds: if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        },
        min_bins: REPLAY_MIN_BINS,
        warmup,
    }
}

/// Run one workload in this process.
fn run_one(args: &Args) -> Run {
    let seed = args.seed;
    let mut run = Run::new(&args.workload, seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "replay_steady" => {
            let out = replay::run(
                unit::analyzer,
                SoloFeed::steady(seed),
                replay_opts(args, replay::WARMUP_BINS),
                false,
                args.trace,
            );
            run.replay(&out);
            if args.trace {
                run.serve(
                    &serve::run(SoloFeed::steady(seed), &serve_opts(args), true),
                    false,
                );
            }
        }
        "replay_fleet_dirty" => {
            let out = replay::run(
                || unit::fleet(unit::FLEET_STREAMS),
                FleetFeed::dirty(seed),
                replay_opts(args, replay::FLEET_WARMUP_BINS),
                true,
                args.trace,
            );
            run.replay(&out);
            if args.trace {
                // The service layers, on the first dirty stream.
                let pool =
                    gen::Pool::new(gen::Stream::new(seed, 0, gen::Shape::fleet_member(), true));
                run.serve(&serve::run(SoloFeed(pool), &serve_opts(args), true), false);
            }
        }
        "serve_live" => {
            let out = serve::run(SoloFeed::steady(seed), &serve_opts(args), args.trace);
            run.serve(&out, true);
            if args.trace {
                // The core layers, on the same bins.
                let opts = replay::Opts {
                    seconds: args.seconds / 2.0,
                    min_bins: 0,
                    warmup: replay::WARMUP_BINS,
                };
                run.core_layers(&replay::run(
                    unit::analyzer,
                    SoloFeed::steady(seed),
                    opts,
                    false,
                    true,
                ));
            }
        }
        _ => usage(),
    }
    run
}

fn main() {
    let args = parse_args();
    if args.workload == "all" {
        std::process::exit(output::run_all(args.seed, args.seconds, args.runs));
    }
    let run = run_one(&args);
    let metrics: Metrics = run.metrics();
    run.print_human(&metrics);
    if let Err(e) = run.write_record(&out_dir(), &metrics) {
        eprintln!("e2ebench: could not write the run record: {e}");
    }
    println!("{}", run.json_line(&metrics));
    if !run.correct() {
        std::process::exit(1);
    }
}
