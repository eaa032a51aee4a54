//! Seeded input generation. Every input of a run — matrix pools, job
//! shapes, tenants and priority classes — is a pure function of the
//! `--seed` argument, so the same seed replays the same workload.

use caqr::{CpuCaqrOptions, Priority, TreeShape};
use dense::Matrix;

/// splitmix64: tiny, seeded, dependency-free.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose of one run: `stream` keeps the draws of
    /// different generators independent under the same seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `count` distinct uniform matrices of one shape.
pub fn matrix_pool(m: usize, n: usize, count: usize, rng: &mut Rng) -> Vec<Matrix<f64>> {
    (0..count)
        .map(|_| dense::generate::uniform::<f64>(m, n, rng.next()))
        .collect()
}

/// One service job shape: the matrix and the host tile options it is
/// submitted with, plus its share of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobShape {
    pub m: usize,
    pub n: usize,
    pub h: usize,
    pub w: usize,
    pub weight: u32,
}

impl JobShape {
    pub fn opts(&self) -> CpuCaqrOptions {
        CpuCaqrOptions {
            tile_rows: self.h,
            panel_width: self.w,
            tree: TreeShape::DeviceArity,
            verify_checksums: false,
        }
    }
}

/// The service job mix: the full-mode shapes of the repository's
/// `service_report` bench, weighted 6/3/1.
pub const SERVICE_SHAPES: [JobShape; 3] = [
    JobShape {
        m: 768,
        n: 48,
        h: 48,
        w: 16,
        weight: 6,
    },
    JobShape {
        m: 1024,
        n: 32,
        h: 64,
        w: 32,
        weight: 3,
    },
    JobShape {
        m: 512,
        n: 64,
        h: 64,
        w: 16,
        weight: 1,
    },
];

/// Tenants the service jobs are charged to.
pub const TENANTS: [&str; 3] = ["acme", "globex", "initech"];

/// Distinct matrices per service shape; jobs draw from this pool so every
/// result can be checked against a reference computed once.
pub const POOL_PER_SHAPE: usize = 8;

/// One planned service request.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Index into [`SERVICE_SHAPES`].
    pub shape: usize,
    /// Index into the shape's matrix pool.
    pub input: usize,
    /// Index into [`TENANTS`].
    pub tenant: usize,
    pub priority: Priority,
}

/// Draws jobs of the service mix: shape by weight, 2/6/2
/// Interactive/Standard/Batch, tenants uniform.
pub struct JobGen {
    rng: Rng,
}

impl JobGen {
    pub fn new(seed: u64) -> JobGen {
        JobGen {
            rng: Rng::new(seed, 0x5E41_1CE0),
        }
    }

    pub fn job(&mut self) -> Job {
        let total: u32 = SERVICE_SHAPES.iter().map(|s| s.weight).sum();
        let mut roll = self.rng.below(total as usize) as u32;
        let mut shape = SERVICE_SHAPES.len() - 1;
        for (i, s) in SERVICE_SHAPES.iter().enumerate() {
            if roll < s.weight {
                shape = i;
                break;
            }
            roll -= s.weight;
        }
        let priority = match self.rng.below(10) {
            0..=1 => Priority::Interactive,
            2..=7 => Priority::Standard,
            _ => Priority::Batch,
        };
        Job {
            shape,
            input: self.rng.below(POOL_PER_SHAPE),
            tenant: self.rng.below(TENANTS.len()),
            priority,
        }
    }

    /// A burst: `count` jobs all due at once.
    pub fn burst(&mut self, count: usize) -> Vec<Job> {
        (0..count).map(|_| self.job()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs() {
        let a = JobGen::new(7).burst(512);
        assert_eq!(a, JobGen::new(7).burst(512));
        let c = JobGen::new(8).burst(512);
        assert_ne!(a, c, "a different seed must give different jobs");
        // Consecutive bursts of one generator differ.
        let mut g = JobGen::new(7);
        assert_eq!(g.burst(512), a);
        assert_ne!(g.burst(512), a);
    }

    #[test]
    fn same_seed_same_matrices() {
        let a = matrix_pool(64, 8, 3, &mut Rng::new(11, 1));
        let b = matrix_pool(64, 8, 3, &mut Rng::new(11, 1));
        let c = matrix_pool(64, 8, 3, &mut Rng::new(12, 1));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
        assert_ne!(a[0].as_slice(), c[0].as_slice());
        assert_ne!(a[0].as_slice(), a[1].as_slice(), "pool members differ");
    }

    #[test]
    fn mix_follows_the_weights() {
        let jobs = JobGen::new(1).burst(20_000);
        let share = |f: &dyn Fn(&Job) -> bool| {
            jobs.iter().filter(|j| f(j)).count() as f64 / jobs.len() as f64
        };
        assert!((share(&|j| j.shape == 0) - 0.6).abs() < 0.02);
        assert!((share(&|j| j.priority == Priority::Interactive) - 0.2).abs() < 0.02);
        assert!((share(&|j| j.priority == Priority::Batch) - 0.2).abs() < 0.02);
        for t in 0..TENANTS.len() {
            assert!((share(&|j| j.tenant == t) - 1.0 / 3.0).abs() < 0.02);
        }
    }
}
