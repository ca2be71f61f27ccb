//! Host diagnostics: a fixed integer/memory loop whose time tells host
//! drift apart from a code change, and the process's peak resident memory.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Milliseconds a fixed reference loop takes on the host now (median of
/// five rounds). A round sorts 2^18 pseudo-random integers and inserts a
/// quarter of them into a `BTreeMap`: sorting, branching and small
/// allocations, whose speed on a shared host tracks this benchmark's
/// workloads more closely than pure arithmetic does.
pub fn host_ref_ms() -> f64 {
    let mut rounds: Vec<f64> = (0..5)
        .map(|round| {
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ round;
            let mut keys: Vec<u64> = (0..1 << 18)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                })
                .collect();
            let t0 = Instant::now();
            keys.sort_unstable();
            let map: BTreeMap<u64, u64> = keys
                .iter()
                .step_by(4)
                .map(|&k| (k.rotate_left(7), k))
                .collect();
            black_box(&map);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[rounds.len() / 2]
}

/// Restart peak-memory accounting from the current resident set (writes
/// `5` to `/proc/self/clear_refs`), so the reference loop's buffers do not
/// count toward [`peak_rss_mb`]. Ignored where unsupported.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
