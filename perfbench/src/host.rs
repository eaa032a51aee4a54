//! Host context, measured with benchmark-owned code only: a fixed
//! floating-point loop and a memory copy, read at the start and end of
//! every run, plus a fingerprint of the machine. These are never
//! end-to-end metrics; they let a reader tell a host swing from a
//! regression.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// Milliseconds for a fixed multiply-add loop (eight independent chains,
/// 2M steps each), median of five.
pub fn fma_ms() -> f64 {
    let mut t = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        let mut acc = black_box([1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7]);
        let c = black_box(0.999_999_9);
        for i in 0..2_000_000u32 {
            let d = f64::from(i & 7) * 1e-9;
            for a in acc.iter_mut() {
                *a = *a * c + d;
            }
        }
        black_box(acc);
        t.push(start.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(stats::sorted(&mut t))
}

/// Copy bandwidth in GB/s (bytes read plus bytes written) of a 32 MB
/// buffer — larger than any one core's cache — best of three.
pub fn copy_gbs() -> f64 {
    let n = 4 << 20;
    let src = vec![1.0f64; n];
    let mut dst = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        best = best.min(start.elapsed().as_secs_f64());
    }
    2.0 * (n * 8) as f64 / best / 1e9
}

/// One reading of the host context.
#[derive(Clone, Copy, Debug)]
pub struct HostReading {
    pub fma_ms: f64,
    pub copy_gbs: f64,
}

pub fn read() -> HostReading {
    HostReading {
        fma_ms: fma_ms(),
        copy_gbs: copy_gbs(),
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// L2 (per core) and L3 (shared) data cache sizes in KB from the CPUID
/// cache-topology leaf (0x8000_001D on AMD, 4 on Intel; both use the same
/// layout); 0 when the processor does not report them.
pub fn cache_kb() -> (u64, u64) {
    let (mut l2, mut l3) = (0, 0);
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__cpuid, __cpuid_count};
        // SAFETY: CPUID exists on every x86_64 processor. Leaves 0 and
        // 0x8000_0000 report the highest standard and extended leaves,
        // checked before the topology leaf is read.
        #[allow(unused_unsafe)]
        let (max_std, max_ext) = unsafe { (__cpuid(0).eax, __cpuid(0x8000_0000).eax) };
        let leaf = if max_ext >= 0x8000_001D {
            0x8000_001D
        } else if max_std >= 4 {
            4
        } else {
            return (0, 0);
        };
        for sub in 0..16 {
            // SAFETY: as above; `leaf` is at most the reported maximum.
            #[allow(unused_unsafe)]
            let r = unsafe { __cpuid_count(leaf, sub) };
            let kind = r.eax & 0x1F;
            if kind == 0 {
                break;
            }
            let ways = u64::from(r.ebx >> 22) + 1;
            let parts = u64::from((r.ebx >> 12) & 0x3FF) + 1;
            let line = u64::from(r.ebx & 0xFFF) + 1;
            let sets = u64::from(r.ecx) + 1;
            let kb = ways * parts * line * sets / 1024;
            match ((r.eax >> 5) & 7, kind) {
                (2, 1 | 3) => l2 = kb,
                (3, 1 | 3) => l3 = kb,
                _ => {}
            }
        }
    }
    (l2, l3)
}

/// `nproc`, SIMD backend and cache sizes as one JSON object.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (l2, l3) = cache_kb();
    format!(
        "{{\"nproc\": {nproc}, \"simd\": \"{}\", \"l2_kb\": {l2}, \"l3_kb\": {l3}}}",
        dense::simd::active().name()
    )
}
