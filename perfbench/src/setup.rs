//! `setup_s`: the workload's cold set-up, timed in fresh processes.
//!
//! Costs paid once per process — the first `caqr_cpu` call's measured
//! profile load, a cold `dense::arena` pool, first-touch page faults,
//! `Service::start` spawning its workers — would be hidden by repeating
//! set-up inside one process, where every repetition after the first is
//! warm. So a run starts [`SETUP_PROCS`] children of its own binary, one
//! after another, before it generates its own inputs. Each child generates
//! the run's inputs, times one cold set-up, prints the time and a digest of
//! the set-up's outputs, and exits; the run reports the median time and
//! checks every digest against its own checked warm-up results.

use crate::{rpca_step, service, stats, Args};
use std::process::{Command, Stdio};

/// Cold set-ups per run.
pub const SETUP_PROCS: usize = 5;

/// What the set-up children reported.
pub struct Setup {
    pub seconds: Vec<f64>,
    pub digests: Vec<u64>,
}

impl Setup {
    /// Median seconds of the cold set-ups; NaN when none reported.
    pub fn median_s(&self) -> f64 {
        stats::median_of(self.seconds.clone())
    }

    /// Children that failed to run or printed no result.
    pub fn broken(&self) -> usize {
        SETUP_PROCS - self.digests.len()
    }

    /// Every child ran and produced `digest`.
    pub fn matches(&self, digest: Option<u64>) -> bool {
        self.broken() == 0 && digest.is_some_and(|d| self.digests.iter().all(|&c| c == d))
    }
}

/// FNV-1a over the bit patterns of `values`, continuing from `acc`.
pub fn digest(acc: u64, values: &[f64]) -> u64 {
    values.iter().fold(acc, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
    })
}

/// Starting value of [`digest`].
pub const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Run the set-up children, one at a time, each to completion.
pub fn measure(args: &Args) -> Setup {
    let mut setup = Setup {
        seconds: Vec::with_capacity(SETUP_PROCS),
        digests: Vec::with_capacity(SETUP_PROCS),
    };
    let Ok(exe) = std::env::current_exe() else {
        return setup;
    };
    for _ in 0..SETUP_PROCS {
        let out = Command::new(&exe)
            .args(["--workload", args.workload, "--seed"])
            .arg(args.seed.to_string())
            .args(["--setup-child", "1"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let parsed = out
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| parse_child(&String::from_utf8_lossy(&o.stdout)));
        if let Some((s, d)) = parsed {
            setup.seconds.push(s);
            setup.digests.push(d);
        }
    }
    setup
}

/// The child's line: `setup <seconds> <digest in hex>`.
fn parse_child(stdout: &str) -> Option<(f64, u64)> {
    let mut words = stdout.lines().last()?.split_whitespace();
    if words.next()? != "setup" {
        return None;
    }
    let seconds = words.next()?.parse::<f64>().ok()?;
    let digest = u64::from_str_radix(words.next()?, 16).ok()?;
    Some((seconds, digest))
}

/// The child side: one cold set-up of the workload, printed as one line.
pub fn child(args: &Args) {
    let (took, digest) = match args.workload {
        "rpca_step" => rpca_step::cold_setup(args.seed),
        "service_burst" => service::cold_setup(args.seed),
        other => unreachable!("workload {other} was validated by parse_args"),
    };
    println!("setup {} {digest:016x}", took.as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_line_round_trips() {
        let d = digest(DIGEST_SEED, &[1.0, -0.0, f64::MIN_POSITIVE]);
        let line = format!("noise\nsetup 0.123456789 {d:016x}\n");
        assert_eq!(parse_child(&line), Some((0.123456789, d)));
        assert_eq!(parse_child("setup x 00"), None);
        assert_eq!(parse_child(""), None);
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = digest(DIGEST_SEED, &[1.0, 2.0]);
        assert_ne!(a, digest(DIGEST_SEED, &[2.0, 1.0]));
        assert_ne!(
            a,
            digest(DIGEST_SEED, &[1.0, f64::from_bits(2.0f64.to_bits() ^ 1)])
        );
        assert_ne!(digest(DIGEST_SEED, &[0.0]), digest(DIGEST_SEED, &[-0.0]));
    }
}
