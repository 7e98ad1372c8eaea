//! Helpers shared by the engine-parity integration tests.

use pinpoint::core::{BinReport, DetectorConfig};

/// Parse a parity-matrix environment variable.
///
/// Contract (shared by `PINPOINT_THREADS` and `PINPOINT_CHUNK`): unset
/// means `0` — "let the engine decide" (all cores / the default chunk
/// size); any other value must parse as a non-negative integer, and the
/// engine's output must be byte-for-byte identical for every value. A
/// value that does not parse is a harness misconfiguration (a typo'd CI
/// matrix would silently test nothing), so it fails loudly with the
/// contract instead of a bare `parse` panic.
fn matrix_var(name: &str, meaning: &str) -> usize {
    match std::env::var(name) {
        Ok(v) => parse_matrix_var(name, &v, meaning),
        Err(std::env::VarError::NotPresent) => 0,
        Err(std::env::VarError::NotUnicode(v)) => {
            panic!("{name}={v:?} is not valid unicode — cannot be a {meaning}")
        }
    }
}

/// The value parser behind [`matrix_var`], split out so the failure mode
/// itself is testable without mutating process-global environment state
/// (tests in one binary run concurrently).
pub fn parse_matrix_var(name: &str, value: &str, meaning: &str) -> usize {
    value.trim().parse().unwrap_or_else(|_| {
        panic!(
            "{name}={value:?} is not a valid {meaning}: set {name} to 0 ({}) \
             or a positive integer, e.g. `{name}=4 cargo test`",
            match name {
                "PINPOINT_THREADS" => "use all cores",
                _ => "use the engine default",
            }
        )
    })
}

/// Worker-thread count under test: `PINPOINT_THREADS` when set (the CI
/// matrix exports 1/2/4/8 on a real multi-core runner), otherwise 0
/// ("all cores"). Byte-for-byte parity must hold for every value.
pub fn threads_from_env() -> usize {
    matrix_var("PINPOINT_THREADS", "thread count")
}

/// Scatter chunk size under test: `PINPOINT_CHUNK` when set (the CI
/// matrix pairs a pathological tiny chunk with the default), otherwise 0
/// (`DetectorConfig::ingest_chunk_records` auto). Byte-for-byte parity
/// must hold for every value — chunking is pure partitioning.
pub fn chunk_from_env() -> usize {
    matrix_var("PINPOINT_CHUNK", "scatter chunk size (records)")
}

/// Cross-bin pipeline depth under test: `PINPOINT_PIPELINE` when set
/// (the CI matrix exports 1 = serial and 2 = overlapped), otherwise 0
/// (`DetectorConfig::pipeline_depth` auto, currently 2). Byte-for-byte
/// parity must hold for every value — overlap is pure scheduling.
pub fn pipeline_from_env() -> usize {
    check_pipeline_depth(
        "PINPOINT_PIPELINE",
        matrix_var("PINPOINT_PIPELINE", "pipeline depth"),
    )
}

/// The depth validator behind [`pipeline_from_env`], split out (like
/// [`parse_matrix_var`]) so the failure mode is testable without mutating
/// process-global environment state. Depths above 2 would silently clamp
/// to 2 inside the engine — a matrix axis claiming to test depth 3 must
/// fail loudly instead of re-testing depth 2.
pub fn check_pipeline_depth(name: &str, depth: usize) -> usize {
    assert!(
        depth <= 2,
        "{name}={depth} is not a supported pipeline depth: set {name} to 0 \
         (engine default), 1 (strictly serial bins), or 2 (overlap bin n+1's \
         ingestion with bin n's analysis) — deeper pipelines do not exist",
    );
    depth
}

/// Radix grouping mode under test: `PINPOINT_RADIX` when set (the CI
/// matrix exports `on` and `off` alongside the default `auto`),
/// otherwise 0 — `DetectorConfig::radix_min_keys` auto, which resolves
/// to `pinpoint_stats::RADIX_MIN_KEYS`. Byte-for-byte parity must hold
/// for every value — the radix sort is stable, so grouping order never
/// depends on which sorter ran.
pub fn radix_from_env() -> usize {
    match std::env::var("PINPOINT_RADIX") {
        Ok(v) => parse_radix_mode("PINPOINT_RADIX", &v),
        Err(std::env::VarError::NotPresent) => 0,
        Err(std::env::VarError::NotUnicode(v)) => {
            panic!("PINPOINT_RADIX={v:?} is not valid unicode — cannot be a radix grouping mode")
        }
    }
}

/// The mode parser behind [`radix_from_env`], split out (like
/// [`parse_matrix_var`]) so the failure mode is testable without mutating
/// process-global environment state. Unlike the numeric matrix axes this
/// one also speaks `on`/`off`/`auto`, mapping them onto the
/// `radix_min_keys` threshold convention (`1` = every shard,
/// `usize::MAX` = never, `0` = engine default).
pub fn parse_radix_mode(name: &str, value: &str) -> usize {
    match value.trim() {
        "on" => 1,
        "off" => usize::MAX,
        "auto" | "" => 0,
        other => other.parse().unwrap_or_else(|_| {
            panic!(
                "{name}={value:?} is not a valid radix grouping mode: set {name} to \
                 `on` (radix-sort every shard), `off` (comparison sort only), `auto` \
                 (engine default threshold), or a key-count threshold, \
                 e.g. `{name}=128 cargo test`"
            )
        }),
    }
}

/// The parity config: `fast_test` with the matrix-selected thread count,
/// scatter chunk size, pipeline depth, and radix grouping mode.
pub fn parity_config() -> DetectorConfig {
    let mut cfg = DetectorConfig::fast_test();
    cfg.threads = threads_from_env();
    cfg.ingest_chunk_records = chunk_from_env();
    cfg.pipeline_depth = pipeline_from_env();
    cfg.radix_min_keys = radix_from_env();
    cfg
}

/// Demand two bin reports be byte-for-byte identical — same alarms in the
/// same order, same link statistics, same AS magnitudes.
pub fn assert_reports_identical(a: &BinReport, b: &BinReport, ctx: &str) {
    assert_eq!(a.bin, b.bin, "{ctx}: bin");
    assert_eq!(a.records, b.records, "{ctx}: record count");
    assert_eq!(a.delay_alarms, b.delay_alarms, "{ctx}: delay alarms");
    assert_eq!(
        a.forwarding_alarms, b.forwarding_alarms,
        "{ctx}: forwarding alarms"
    );
    assert_eq!(a.link_stats, b.link_stats, "{ctx}: link stats");
    assert_eq!(a.magnitudes, b.magnitudes, "{ctx}: magnitudes");
    assert_eq!(a.events, b.events, "{ctx}: event deltas");
}

/// The incremental slices bin number `i` is fed in by the sliced parity
/// drivers, as `(lo, hi, parts)` fractions of its records: no slice at
/// all for a bin without records (`begin_bin` + `finish_bin` only), else
/// by rotation an empty first slice followed by the whole bin, three
/// slices, or one slice. Every schedule must report the bytes of feeding
/// the whole bin at once.
#[allow(dead_code)]
pub fn slicing(i: u64, empty: bool) -> &'static [(usize, usize, usize)] {
    match (empty, i % 3) {
        (true, _) => &[],
        (false, 0) => &[(0, 0, 1), (0, 1, 1)],
        (false, 1) => &[(0, 1, 3), (1, 2, 3), (2, 3, 3)],
        _ => &[(0, 1, 1)],
    }
}

/// One slice of `items` under a [`slicing`] fraction.
#[allow(dead_code)]
pub fn slice<T>(items: &[T], (lo, hi, parts): (usize, usize, usize)) -> &[T] {
    &items[items.len() * lo / parts..items.len() * hi / parts]
}
