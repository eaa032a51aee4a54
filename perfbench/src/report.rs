//! Metric names and units, the per-layer assembly of the traced run, and
//! the output: a readable metric table, a run record, and the final JSON
//! line.

use crate::host::{self, HostReading};
use crate::setup::Setup;
use crate::trace::{TraceMode, Tracer};
use crate::{gen::Rng, layers, rpca_step, service, stats, Args, Measured};
use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_share", "share"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("gflops", "GFLOP/s"),
    ("interactive_ms_tail", "ms"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("host.fma_ms", "ms"),
    ("host.copy_gbs", "GB/s"),
    ("rayon.region_us", "us"),
    ("dense.gemm_gflops", "GFLOP/s"),
    ("dense.arena_misses_per_op", "count"),
    ("blockops.factor_tile_gflops", "GFLOP/s"),
    ("blockops.apply_tile_gflops", "GFLOP/s"),
    ("caqr_cpu.launches_per_op", "count"),
    ("caqr_cpu.share_of_gemm_peak", "share"),
    ("svd_qr.factor_ms", "ms"),
    ("svd_qr.generate_q_ms", "ms"),
    ("svd_qr.rest_ms", "ms"),
    ("batch.group_size_mean", "count"),
    ("batch.fused_share", "share"),
    ("batch.launches_per_job", "count"),
    ("queue.wait_ms_p50", "ms"),
    ("queue.wait_ms_tail", "ms"),
    ("queue.service_ms_p50", "ms"),
    ("queue.interactive_wait_ms_tail", "ms"),
    ("ledger.reconciled", "count"),
    ("ledger.jobs_failed", "count"),
    ("ledger.jobs_shed", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.late_ms_max", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.spans_dropped", "count"),
];

/// A metric or unit name: 1 to 64 (unit: 16) characters from the allowed
/// set, a name starting with a letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Median of traced minus median of untraced operation latency.
fn tracing_overhead_ms(m: &Measured) -> f64 {
    let pick = |traced: bool| {
        stats::median_of(
            m.samples
                .iter()
                .filter(|s| s.traced == traced)
                .map(|s| s.ms)
                .collect(),
        )
    };
    pick(true) - pick(false)
}

/// `svd_qr.*` from the spans of `svd_via_qr` calls.
fn svd_metrics(tr: &Tracer) -> [(&'static str, f64); 3] {
    [
        (
            "svd_qr.factor_ms",
            stats::median_of(tr.durations_ms("caqr_cpu")),
        ),
        (
            "svd_qr.generate_q_ms",
            stats::median_of(tr.durations_ms("caqr_cpu.generate_q")),
        ),
        (
            "svd_qr.rest_ms",
            stats::median_of(tr.self_ms("svd_qr.svd_via_qr")),
        ),
    ]
}

/// The per-layer metrics of a traced run and the layers measured by a
/// probe instead of the workload.
pub struct Layers {
    values: Vec<(&'static str, f64)>,
    probed: Vec<&'static str>,
}

/// Every per-layer metric of a traced run. Layers the workload does not
/// call are measured by a short seeded probe of that layer, named in the
/// run record.
pub fn layer_metrics(
    args: &Args,
    m: &Measured,
    tracer: &Tracer,
    host_start: HostReading,
    host_end: HostReading,
) -> Layers {
    let mut rng = Rng::new(args.seed, 9);
    let mut v: Vec<(&'static str, f64)> = m.layer.clone();
    let mut probed = Vec::new();
    let gemm = layers::gemm_gflops(&mut rng);
    let (tile_rows, tile_width) = match args.workload {
        "rpca_step" => rpca_step::tile(rpca::video::VideoConfig::paper_scale().frames),
        _ => {
            let s = layers::dominant_service_shape();
            (s.h, s.w)
        }
    };
    let (factor_tile, apply_tile) = layers::tile_gflops(tile_rows, tile_width, &mut rng);
    v.extend([
        ("host.fma_ms", 0.5 * (host_start.fma_ms + host_end.fma_ms)),
        (
            "host.copy_gbs",
            0.5 * (host_start.copy_gbs + host_end.copy_gbs),
        ),
        ("rayon.region_us", layers::rayon_region_us()),
        ("dense.gemm_gflops", gemm),
        (
            "dense.arena_misses_per_op",
            m.arena_misses as f64 / m.attempted.max(1) as f64,
        ),
        ("blockops.factor_tile_gflops", factor_tile),
        ("blockops.apply_tile_gflops", apply_tile),
        ("caqr_cpu.share_of_gemm_peak", m.factor_gflops / gemm),
        (
            "batch.launches_per_job",
            layers::batch_launches_per_job(&mut rng).unwrap_or(f64::NAN),
        ),
        ("trace.overhead_ms", tracing_overhead_ms(m)),
        ("trace.spans", tracer.spans().len() as f64),
        ("trace.spans_dropped", tracer.dropped as f64),
    ]);
    if args.workload == "rpca_step" {
        v.extend(svd_metrics(tracer));
    } else {
        probed.push("svd_qr");
        let a = dense::generate::uniform::<f64>(8192, 32, rng.next());
        let mut probe = Tracer::new(std::time::Instant::now());
        rpca_step::run_on(
            &a,
            Duration::from_millis(200),
            &mut probe,
            TraceMode::All,
            0,
        );
        v.extend(svd_metrics(&probe));
    }
    if !args.workload.starts_with("service") {
        probed.push("service");
        let mut probe = Tracer::new(std::time::Instant::now());
        let run = service::burst(args.seed, Duration::ZERO, 128, &mut probe, TraceMode::Off);
        v.extend(
            service::layer_metrics(&run)
                .into_iter()
                .filter(|(name, _)| !name.starts_with("caqr_cpu.")),
        );
    }
    Layers { values: v, probed }
}

/// Write the traced run's spans as a Chrome trace under `.perfbench/` in
/// the working directory. Returns the path written.
pub fn write_trace(args: &Args, tracer: &Tracer) -> Option<String> {
    let dir = std::path::Path::new(".perfbench");
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    std::fs::create_dir_all(dir).ok()?;
    std::fs::write(&path, tracer.chrome_json(0)).ok()?;
    Some(path.display().to_string())
}

/// A JSON number; non-finite values (only produced by failed runs, which
/// report `correct: false`) print as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(values: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn host_json(h: HostReading) -> String {
    format!(
        "{{\"fma_ms\": {}, \"copy_gbs\": {}}}",
        num(h.fma_ms),
        num(h.copy_gbs)
    )
}

/// Print the metric table, the run record and the final JSON line.
pub fn emit(
    args: &Args,
    m: &Measured,
    setup: &Setup,
    layer: Option<Layers>,
    host_start: HostReading,
    host_end: HostReading,
    trace_file: Option<String>,
) {
    let untraced: Vec<&crate::Sample> = m.samples.iter().filter(|s| !s.traced).collect();
    let p50 = stats::median_of(untraced.iter().map(|s| s.ms).collect());
    let tail = |keep: &dyn Fn(&crate::Sample) -> bool| {
        stats::summarize_or_nan(untraced.iter().filter(|s| keep(s)).map(|s| s.ms).collect()).1
    };
    let itail = tail(&|s| s.interactive);
    let tail = tail(&|_| true);
    let success = (m.attempted - m.failed) as f64 / m.attempted.max(1) as f64;
    let e2e = [
        setup.median_s(),
        host::peak_rss_mb(),
        success,
        p50,
        tail.value,
        m.gflops,
        itail.value,
    ];
    let values: Vec<(&str, f64, &str)> = match &layer {
        None => END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(n, u), v)| (n, v, u))
            .collect(),
        Some(layers) => PER_LAYER
            .iter()
            .map(|&(n, u)| {
                let v = layers
                    .values
                    .iter()
                    .find(|(name, _)| *name == n)
                    .map_or(f64::NAN, |(_, v)| *v);
                (n, v, u)
            })
            .collect(),
    };
    let correct = m.checks_passed
        && setup.matches(m.setup_digest)
        && m.failed == 0
        && values.iter().all(|(_, v, _)| v.is_finite());

    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (n, v, u) in &values {
        println!("  {n:<34} {v:>14.6} {u}");
    }
    let mut record = String::new();
    let _ = write!(
        record,
        concat!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"host_start\": {}, \"host_end\": {}, ",
            "\"host\": {}, \"samples\": {}, \"tail_samples\": {}, \"latency_tail_pct\": {}, ",
            "\"latency_tail_beyond\": {}, \"interactive_tail_samples\": {}, \"interactive_tail_pct\": {}, ",
            "\"setup_s_each\": [{}], \"setup_children_broken\": {}"
        ),
        args.workload,
        args.seed,
        host_json(host_start),
        host_json(host_end),
        host::fingerprint_json(),
        untraced.len(),
        tail.samples,
        num(tail.pct),
        tail.beyond,
        itail.samples,
        num(itail.pct),
        setup
            .seconds
            .iter()
            .map(|&v| num(v))
            .collect::<Vec<_>>()
            .join(", "),
        setup.broken(),
    );
    for (k, v) in &m.record {
        let _ = write!(record, ", \"{k}\": {v}");
    }
    if let Some(layers) = &layer {
        let names: Vec<String> = layers.probed.iter().map(|p| format!("\"{p}\"")).collect();
        let _ = write!(record, ", \"probed_layers\": [{}]", names.join(", "));
    }
    if let Some(f) = trace_file {
        let _ = write!(record, ", \"trace_file\": \"{f}\"");
    }
    record.push('}');
    println!("record {record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.attempted,
        m.failed,
        metrics_json(&values)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_is_in_the_allowed_set() {
        for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(n), "metric name {n:?}");
            assert!(valid_unit(u), "unit {u:?}");
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
    }

    #[test]
    fn the_name_check_rejects_what_the_charset_forbids() {
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "x".repeat(65).as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
        assert!(valid_name("queue.wait_ms-p50"));
        assert!(!valid_unit("GFLOP per s"));
        assert!(valid_unit("1/s"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let decl = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        let gated = crate::WORKLOADS
            .iter()
            .filter(|w| json.contains(&format!("{{\"name\": \"{w}\", \"why\"")))
            .count();
        assert!(gated >= 2, "at least two workloads are gated");
        assert_eq!(
            gated,
            json.matches("\"why\":").count(),
            "every gated workload is one the benchmark runs"
        );
    }

    #[test]
    fn metrics_json_prints_every_digit() {
        let s = metrics_json(&[("a", 1.2345678901234567, "ms"), ("b", f64::NAN, "s")]);
        assert_eq!(
            s,
            "{\"a\": {\"value\": 1.2345678901234567, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}"
        );
    }
}
