//! `rpca_step`: one `svd_via_qr` call per operation on the paper-scale
//! synthetic video matrix (110,592 x 100), through a benchmark-side
//! `QrBackend` that wraps `caqr_cpu` and `generate_q`. Singular values are
//! checked against the independent blocked-Householder pipeline.

use crate::setup::{digest, DIGEST_SEED};
use crate::trace::{TraceMode, Tracer};
use crate::{arena_misses_since, stats, Measured, Sample};
use caqr::{caqr_cpu, CaqrError, CpuCaqrOptions};
use dense::Matrix;
use rpca::svd_qr::{svd_via_qr, CpuQrBackend, QrBackend};
use rpca::video::{generate, VideoConfig};
use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

/// Largest allowed `|sigma_i - sigma_ref_i|`, relative to the largest
/// reference singular value.
pub const SIGMA_REL_TOL: f64 = 1e-10;

/// Untimed warm-up calls before the measured window.
const WARMUPS: usize = 2;

/// CAQR-backed QR for the SVD pipeline. The input is staged into a
/// recycled buffer before the timed call, so the call itself copies
/// nothing; the phase boundaries are recorded for the trace.
struct CaqrQr {
    opts: CpuCaqrOptions,
    staged: RefCell<Option<Matrix<f64>>>,
    /// Factors of the previous call, dropped outside the timed call.
    spent: RefCell<Vec<caqr::multicore::CpuPanel<f64>>>,
    phases: Cell<[Option<Instant>; 3]>,
    /// Milliseconds of the last `caqr_cpu` call.
    factor_ms: Cell<f64>,
    launches: Cell<usize>,
}

impl QrBackend<f64> for CaqrQr {
    fn qr(&self, a: &Matrix<f64>) -> Result<(Matrix<f64>, Matrix<f64>), CaqrError> {
        let staged = self
            .staged
            .borrow_mut()
            .take()
            .filter(|m| m.shape() == a.shape())
            .ok_or_else(|| CaqrError::BadShape("no input staged for this call".into()))?;
        let t0 = Instant::now();
        let f = caqr_cpu(staged, self.opts)?;
        let t1 = Instant::now();
        let q = f.generate_q(a.cols())?;
        let t2 = Instant::now();
        let r = f.r();
        self.phases.set([Some(t0), Some(t1), Some(t2)]);
        self.factor_ms.set((t1 - t0).as_secs_f64() * 1e3);
        self.launches.set(caqr::service::logical_launches(&f));
        self.spent.borrow_mut().extend(f.panels);
        *self.staged.borrow_mut() = Some(f.a);
        Ok((q, r))
    }

    fn name(&self) -> &'static str {
        "caqr-cpu"
    }
}

impl CaqrQr {
    fn new(n: usize) -> CaqrQr {
        CaqrQr {
            opts: CpuCaqrOptions::for_width(n),
            staged: RefCell::new(None),
            spent: RefCell::new(Vec::new()),
            phases: Cell::new([None; 3]),
            factor_ms: Cell::new(f64::NAN),
            launches: Cell::new(0),
        }
    }

    fn stage(&self, video: &Matrix<f64>) {
        let mut slot = self.staged.borrow_mut();
        let buf = slot.get_or_insert_with(|| Matrix::zeros(video.rows(), video.cols()));
        buf.as_mut_slice().copy_from_slice(video.as_slice());
        self.spent.borrow_mut().clear();
    }
}

/// Flops of one operation: `geqrf`, the explicit-Q generation (`orgqr`
/// with k = n) and the `Q * U` product; the n x n SVD is left out.
pub fn flops(m: usize, n: usize) -> f64 {
    let (mf, nf) = (m as f64, n as f64);
    let orgqr = 4.0 * mf * nf * nf - 2.0 * (mf + nf) * nf * nf + 4.0 / 3.0 * nf * nf * nf;
    dense::geqrf_flops(m, n) + orgqr + 2.0 * mf * nf * nf
}

/// The tile a `caqr_cpu` call on an `n`-column matrix factors:
/// `(tile_rows, panel_width)` of `CpuCaqrOptions::for_width(n)`.
pub fn tile(n: usize) -> (usize, usize) {
    let o = CpuCaqrOptions::for_width(n);
    (o.tile_rows, o.panel_width)
}

/// Run `svd_via_qr` on `matrix` in a closed loop for `window` (at least
/// one call), after `warmups` untimed calls.
pub fn run_on(
    matrix: &Matrix<f64>,
    window: Duration,
    tracer: &mut Tracer,
    mode: TraceMode,
    warmups: usize,
) -> Measured {
    let (m, n) = matrix.shape();
    let reference = svd_via_qr(&CpuQrBackend, matrix)
        .expect("reference SVD of the video matrix")
        .sigma;
    let sigma_max = reference.first().copied().unwrap_or(0.0).abs();
    let backend = CaqrQr::new(n);
    let op_flops = flops(m, n);
    let mut worst = 0.0f64;
    // Returns the call's duration, its singular-value error when the call
    // succeeded, and a digest of its singular values.
    let call = |tracer: &mut Tracer, op: u64| -> (Duration, Option<f64>, u64) {
        backend.stage(matrix);
        let root = tracer.open("svd_qr.svd_via_qr", 0, op, 0);
        let start = Instant::now();
        let result = svd_via_qr(&backend, matrix);
        let took = start.elapsed();
        let root_id = root.id;
        tracer.close(root, op_flops);
        if let [Some(t0), Some(t1), Some(t2)] = backend.phases.take() {
            tracer.interval("caqr_cpu", 0, op, root_id, t0, t1, dense::geqrf_flops(m, n));
            tracer.interval("caqr_cpu.generate_q", 0, op, root_id, t1, t2, 0.0);
        }
        let sigma = result.map(|s| s.sigma).unwrap_or_default();
        let err = (sigma.len() == reference.len()).then(|| {
            sigma
                .iter()
                .zip(&reference)
                .map(|(x, y)| (x - y).abs() / sigma_max)
                .fold(0.0, f64::max)
        });
        (took, err, digest(DIGEST_SEED, &sigma))
    };
    let accept = |e: Option<f64>| e.is_some_and(|e| e <= SIGMA_REL_TOL);

    let mut warm_ok = true;
    let mut setup_digest = None;
    for _ in 0..warmups {
        let (_, err, d) = call(tracer, 0);
        warm_ok &= accept(err);
        setup_digest = setup_digest.or(Some(d));
    }

    let mut samples = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rates = Vec::new();
    let mut factor_ms = Vec::new();
    let arena = dense::arena::stats::<f64>();
    let end = Instant::now() + window;
    while attempted == 0 || Instant::now() < end {
        attempted += 1;
        let traced = mode.traced(attempted);
        tracer.enabled = traced;
        let (took, err, _) = call(tracer, attempted);
        factor_ms.push(backend.factor_ms.get());
        worst = worst.max(err.unwrap_or(f64::INFINITY));
        if accept(err) {
            samples.push(Sample {
                ms: took.as_secs_f64() * 1e3,
                interactive: true,
                traced,
            });
            rates.push(op_flops / took.as_secs_f64() / 1e9);
        } else {
            failed += 1;
        }
    }
    tracer.enabled = false;
    let arena_misses = arena_misses_since(arena);
    Measured {
        samples,
        attempted,
        failed,
        checks_passed: warm_ok,
        gflops: stats::median_of(rates),
        factor_gflops: dense::geqrf_flops(m, n) / stats::median_of(factor_ms) / 1e6,
        setup_digest: setup_digest.filter(|_| warm_ok),
        arena_misses,
        layer: vec![("caqr_cpu.launches_per_op", backend.launches.get() as f64)],
        record: vec![
            ("sigma_max_rel_err", crate::report::num(worst)),
            ("sigma_rel_tol", crate::report::num(SIGMA_REL_TOL)),
        ],
    }
}

/// The paper-scale clip, seeded.
pub fn video(seed: u64) -> Matrix<f64> {
    let mut cfg = VideoConfig::paper_scale();
    cfg.seed = seed;
    generate::<f64>(&cfg).matrix
}

pub fn run(seed: u64, window: Duration, tracer: &mut Tracer, mode: TraceMode) -> Measured {
    run_on(&video(seed), window, tracer, mode, WARMUPS)
}

/// One cold set-up, in a fresh process: the first `svd_via_qr` call on the
/// seeded clip. Returns its time and the digest of its singular values,
/// which must equal those of the run's checked warm-up calls.
pub fn cold_setup(seed: u64) -> (Duration, u64) {
    let matrix = video(seed);
    let backend = CaqrQr::new(matrix.cols());
    backend.stage(&matrix);
    let start = Instant::now();
    let result = svd_via_qr(&backend, &matrix);
    let took = start.elapsed();
    let sigma = result.map(|s| s.sigma).unwrap_or_default();
    (took, digest(DIGEST_SEED, &sigma))
}
