//! Measurement utilities: seed derivation, order statistics, the
//! reference loop and the process's peak resident set.

use std::hint::black_box;
use std::time::Instant;

/// SplitMix64 finaliser: a bijective scramble of one 64-bit word.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a sub-seed from the run's seed, a role tag and the parameter
/// values of the component it seeds. The result depends on those values
/// only — never on the component's position in a list — so the same
/// component gets the same stream in every workload that builds it.
pub fn derive_seed(seed: u64, role: &str, params: &[u64]) -> u64 {
    let mut h = mix(seed);
    for b in role.bytes() {
        h = mix(h ^ u64::from(b));
    }
    for &p in params {
        h = mix(h ^ p);
    }
    h
}

/// Median of `xs` (the mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds taken by a fixed CPU-bound loop (an xorshift chain of 2^26
/// steps). Its result is not a metric: printed before and after a
/// workload, it shows whether the run was taken during a slow spell of
/// the host.
pub fn reference_loop_s() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..(1u32 << 26) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

/// Peak resident set of this process in MiB (the `VmHWM` line of
/// `/proc/self/status`, in KiB).
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_depend_on_role_and_values() {
        let a = derive_seed(7, "adversary", &[2048, 3]);
        assert_eq!(a, derive_seed(7, "adversary", &[2048, 3]));
        assert_ne!(a, derive_seed(8, "adversary", &[2048, 3]));
        assert_ne!(a, derive_seed(7, "link", &[2048, 3]));
        assert_ne!(a, derive_seed(7, "adversary", &[4096, 3]));
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
