//! Criterion performance benches for the pipeline's hot paths.
//!
//! The paper's system runs in near real time against the Atlas stream
//! (§8); these benches establish that each stage is far faster than the
//! one-hour bin cadence it must sustain.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pinpoint_bench::workload::{synthetic_bin, synthetic_mapper, WorkloadSpec};
use pinpoint_core::diffrtt::compute::collect_link_samples;
use pinpoint_core::diffrtt::SampleArena;
use pinpoint_core::forwarding::collect_patterns;
use pinpoint_core::pipeline::Analyzer;
use pinpoint_core::DetectorConfig;
use pinpoint_model::{BinId, LpmTable, Prefix};
use pinpoint_netsim::network::TraceQuery;
use pinpoint_netsim::routing::policy::compute_routes;
use pinpoint_netsim::{EventSchedule, Network, TopologyConfig};
use pinpoint_scenarios::steady;
use pinpoint_scenarios::Scale;
use pinpoint_stats::sliding::SlidingRobust;
use pinpoint_stats::wilson::median_ci;
use pinpoint_stats::SplitMix64;

fn bench_stats(c: &mut Criterion) {
    let mut rng = SplitMix64::new(7);
    let samples: Vec<f64> = (0..1000).map(|_| rng.next_f64() * 20.0).collect();
    c.bench_function("wilson_median_ci_1000", |b| {
        b.iter(|| median_ci(std::hint::black_box(&samples), 1.96))
    });

    c.bench_function("sliding_median_mad_168", |b| {
        b.iter_batched(
            || {
                let mut s = SlidingRobust::new(168);
                for i in 0..168 {
                    s.push((i % 13) as f64);
                }
                s
            },
            |mut s| s.score_and_push(std::hint::black_box(42.0)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_lpm(c: &mut Criterion) {
    let mut table: LpmTable<u32> = LpmTable::new();
    let mut rng = SplitMix64::new(3);
    for i in 0..10_000u32 {
        let addr = std::net::Ipv4Addr::from(rng.next_raw() as u32);
        let len = 8 + (rng.next_below(17)) as u8;
        table.insert(Prefix::new(addr, len), i);
    }
    let queries: Vec<std::net::Ipv4Addr> = (0..1024)
        .map(|_| std::net::Ipv4Addr::from(rng.next_raw() as u32))
        .collect();
    c.bench_function("lpm_lookup_10k_prefixes", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % queries.len();
            table.lookup_value(std::hint::black_box(queries[i]))
        })
    });
}

fn bench_netsim(c: &mut Criterion) {
    let topo = TopologyConfig::default().build();
    let stubs: Vec<_> = topo.stub_ases().map(|a| a.routers[0]).collect();
    let dst = topo.router(stubs[stubs.len() - 1]).ip;
    let dest_as = topo.router(stubs[stubs.len() - 1]).as_id;
    let src = stubs[0];
    c.bench_function("policy_route_table", |b| {
        b.iter(|| compute_routes(std::hint::black_box(&topo), dest_as, &[], 7))
    });

    let net = Network::new(topo, 11, &EventSchedule::new());
    c.bench_function("paris_traceroute", |b| {
        let mut flow = 0u64;
        b.iter(|| {
            flow += 1;
            net.traceroute(&TraceQuery {
                src,
                dst,
                t: pinpoint_model::SimTime::from_hours(5),
                flow,
                packets_per_hop: 3,
            })
        })
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let case = steady::case_study(2015, Scale::Small);
    let records = case.platform.collect_bin(BinId(0));
    println!("bin volume: {} traceroutes", records.len());

    c.bench_function("collect_link_samples_per_bin", |b| {
        b.iter(|| collect_link_samples(std::hint::black_box(&records)))
    });
    c.bench_function("sample_arena_build_per_bin", |b| {
        let mut arena = SampleArena::new();
        b.iter(|| {
            arena.build(std::hint::black_box(&records));
            arena.total_samples()
        })
    });
    c.bench_function("collect_patterns_per_bin", |b| {
        b.iter(|| collect_patterns(std::hint::black_box(&records)))
    });
    c.bench_function("analyzer_process_bin", |b| {
        b.iter_batched(
            || {
                let mut analyzer = Analyzer::new(DetectorConfig::default(), case.mapper.clone());
                // Warm the references so the bench covers the steady state.
                analyzer.process_bin(BinId(0), &records);
                analyzer
            },
            |mut analyzer| analyzer.process_bin(BinId(1), std::hint::black_box(&records)),
            BatchSize::LargeInput,
        )
    });
    c.bench_function("analyzer_process_bin_sequential", |b| {
        b.iter_batched(
            || {
                let mut analyzer = Analyzer::new(DetectorConfig::default(), case.mapper.clone());
                analyzer.process_bin_sequential(BinId(0), &records);
                analyzer
            },
            |mut analyzer| {
                analyzer.process_bin_sequential(BinId(1), std::hint::black_box(&records))
            },
            BatchSize::LargeInput,
        )
    });
}

/// Engine-level throughput on a synthetic Atlas-scale bin (hundreds of
/// links, every one passing the diversity filter), parallel against
/// sequential. A local profiling aid: the repository's benchmark, with
/// end-to-end and per-layer metrics, is `e2ebench` (`BENCHMARK.json`).
fn bench_engine(c: &mut Criterion) {
    let spec = WorkloadSpec::large();
    let records = synthetic_bin(&spec, 2015, 0);
    let next = synthetic_bin(&spec, 2015, 1);
    println!(
        "synthetic bin volume: {} traceroutes, {} links",
        records.len(),
        spec.links * 2
    );

    c.bench_function("engine_bin_large_parallel", |b| {
        b.iter_batched(
            || {
                let mut analyzer = Analyzer::new(DetectorConfig::default(), synthetic_mapper());
                analyzer.process_bin(BinId(0), &records);
                analyzer
            },
            |mut analyzer| analyzer.process_bin(BinId(1), std::hint::black_box(&next)),
            BatchSize::LargeInput,
        )
    });
    c.bench_function("engine_bin_large_sequential", |b| {
        b.iter_batched(
            || {
                let mut analyzer = Analyzer::new(DetectorConfig::default(), synthetic_mapper());
                analyzer.process_bin_sequential(BinId(0), &records);
                analyzer
            },
            |mut analyzer| analyzer.process_bin_sequential(BinId(1), std::hint::black_box(&next)),
            BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_stats, bench_lpm, bench_netsim, bench_pipeline, bench_engine
}
criterion_main!(benches);
