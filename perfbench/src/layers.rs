//! Layer probes for the traced run: short, seeded measurements of one
//! layer's public entry point, taken from outside the library.

use crate::gen::{self, JobShape, Rng};
use crate::stats;
use caqr::block::Tile;
use caqr::blockops;
use dense::blas3::{gemm, Trans};
use dense::{MatPtr, Matrix};
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Median microseconds of an empty two-item parallel region.
pub fn rayon_region_us() -> f64 {
    let mut t: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            [0u8, 1].to_vec().into_par_iter().for_each(|x| {
                black_box(x);
            });
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(stats::sorted(&mut t))
}

/// In-run gemm peak: best GFLOP/s of a 384^3 f64 product over five calls.
pub fn gemm_gflops(rng: &mut Rng) -> f64 {
    let n = 384;
    let a = dense::generate::uniform::<f64>(n, n, rng.next());
    let b = dense::generate::uniform::<f64>(n, n, rng.next());
    let mut c = Matrix::<f64>::zeros(n, n);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        best = best.min(start.elapsed().as_secs_f64());
        black_box(&c);
    }
    2.0 * (n * n * n) as f64 / best / 1e9
}

/// `(factor_tile, apply_tile_wy)` GFLOP/s on one `rows x width` tile, each
/// the median of 100 calls. The apply targets a `rows x width` block.
pub fn tile_gflops(rows: usize, width: usize, rng: &mut Rng) -> (f64, f64) {
    let src = dense::generate::uniform::<f64>(rows, 2 * width, rng.next());
    let tile = Tile { start: 0, rows };
    let k = rows.min(width);
    let factor_flops = dense::geqrf_flops(rows, width);
    let apply_flops = (2 * width * k * (2 * rows - k)) as f64;
    let mut work = src.clone();
    let mut factor_s = Vec::with_capacity(100);
    let mut apply_s = Vec::with_capacity(100);
    for _ in 0..100 {
        work.as_mut_slice().copy_from_slice(src.as_slice());
        let ptr = MatPtr::new(&mut work);
        let start = Instant::now();
        let wy = blockops::factor_tile(ptr, tile, 0, width);
        factor_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        blockops::apply_tile_wy(&wy, ptr, tile, width, width, true);
        apply_s.push(start.elapsed().as_secs_f64());
        black_box(&wy);
    }
    (
        factor_flops / stats::median(stats::sorted(&mut factor_s)) / 1e9,
        apply_flops / stats::median(stats::sorted(&mut apply_s)) / 1e9,
    )
}

/// Regions one `factor_many_with_stats` call issues per job on a bag of
/// eight same-shape jobs of every service shape, with every result checked
/// bitwise against standalone `caqr_cpu`. Returns `None` when a result
/// differs or a job did not fuse.
pub fn batch_launches_per_job(rng: &mut Rng) -> Option<f64> {
    let mut bag = Vec::new();
    for s in gen::SERVICE_SHAPES {
        for a in gen::matrix_pool(s.m, s.n, 8, rng) {
            bag.push((a, s.opts()));
        }
    }
    let refs: Vec<Matrix<f64>> = bag
        .iter()
        .map(|(a, o)| caqr::caqr_cpu(a.clone(), *o).map(|f| f.a))
        .collect::<Result<_, _>>()
        .ok()?;
    let jobs = bag.len();
    let (results, stats) = caqr::factor_many_with_stats(bag);
    for (r, want) in results.iter().zip(&refs) {
        if !r.as_ref().is_ok_and(|f| crate::same_bits(&f.a, want)) {
            return None;
        }
    }
    if stats.solo_jobs != 0 || stats.fused_jobs != jobs {
        return None;
    }
    Some(stats.fused_launches as f64 / jobs as f64)
}

/// The service job shape whose tile a service workload's blockops probe
/// measures: the most frequent one.
pub fn dominant_service_shape() -> JobShape {
    gen::SERVICE_SHAPES
        .iter()
        .copied()
        .max_by_key(|s| s.weight)
        .expect("the service mix is not empty")
}
