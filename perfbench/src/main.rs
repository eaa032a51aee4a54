//! End-to-end and per-layer benchmark of the CAQR stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rpca_step|service_burst> --seed <n> --seconds <s> \
//!     --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; every output is checked. With
//! `--trace 0` the last stdout line is a JSON object carrying the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics,
//! and the run's spans are written as a Chrome trace under `.perfbench/`.
//! The lines before it print each metric with its unit and a run record
//! (host readings before and after, host fingerprint, tail percentiles,
//! sample counts, tracing overhead).
//!
//! `setup_s` is taken in fresh processes: the binary runs itself with
//! `--setup-child 1` several times before the measured run, and each child
//! times the workload's cold set-up once (see [`setup`]).

mod gen;
mod host;
mod layers;
mod report;
mod rpca_step;
mod service;
mod setup;
mod stats;
mod trace;

use dense::Matrix;
use std::time::{Duration, Instant};
use trace::{TraceMode, Tracer};

/// One completed, checked operation's latency.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub ms: f64,
    /// Counts toward `interactive_ms_tail`.
    pub interactive: bool,
    /// Spans were recorded for this operation.
    pub traced: bool,
}

/// What one workload run measured.
pub struct Measured {
    /// Completed, checked operations.
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// A run-level check (ledger reconciliation, warm-up results) passed.
    pub checks_passed: bool,
    /// Digest of the checked warm-up results, which every cold set-up
    /// child must reproduce; `None` when the warm-up failed its check.
    pub setup_digest: Option<u64>,
    /// Useful flops over busy wall time.
    pub gflops: f64,
    /// Compute rate of the factorization layer, for its share of the gemm
    /// peak.
    pub factor_gflops: f64,
    /// `dense::arena` misses during the measured window.
    pub arena_misses: u64,
    /// Per-layer metrics the workload itself measured.
    pub layer: Vec<(&'static str, f64)>,
    /// Extra run-record fields, as JSON values.
    pub record: Vec<(&'static str, String)>,
}

/// Bitwise equality of two matrices.
pub fn same_bits(a: &Matrix<f64>, b: &Matrix<f64>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `dense::arena` misses since `before`.
pub fn arena_misses_since(before: dense::ArenaStats) -> u64 {
    dense::arena::stats::<f64>().misses - before.misses
}

pub const WORKLOADS: [&str; 2] = ["rpca_step", "service_burst"];

pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Time one cold set-up and exit (the child side of [`setup`]).
    pub setup_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_child = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--setup-child" => setup_child = value == "1",
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if setup_child {
            0
        } else {
            seconds.ok_or("--seconds is required")?.max(1)
        },
        trace: trace.unwrap_or(false),
        setup_child,
    })
}

fn run_workload(args: &Args, tracer: &mut Tracer) -> Measured {
    let window = Duration::from_secs(args.seconds);
    let mode = if args.trace {
        TraceMode::Alternate
    } else {
        TraceMode::Off
    };
    match args.workload {
        "rpca_step" => rpca_step::run(args.seed, window, tracer, mode),
        "service_burst" => service::measured(service::burst(
            args.seed,
            window,
            service::BURST,
            tracer,
            mode,
        )),
        other => unreachable!("workload {other} was validated by parse_args"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.setup_child {
        setup::child(&args);
        return;
    }
    let t0 = Instant::now();
    let host_start = host::read();
    let setup = setup::measure(&args);
    let mut tracer = Tracer::new(t0);
    let measured = run_workload(&args, &mut tracer);
    let host_end = host::read();
    let layer = args
        .trace
        .then(|| report::layer_metrics(&args, &measured, &tracer, host_start, host_end));
    let trace_file = if args.trace {
        report::write_trace(&args, &tracer)
    } else {
        None
    };
    report::emit(
        &args, &measured, &setup, layer, host_start, host_end, trace_file,
    );
}
