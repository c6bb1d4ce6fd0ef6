//! The host's own speed, measured between ops.
//!
//! The sizing host is a 2-core VM on a machine shared with other tenants.
//! For seconds to minutes at a time, and sometimes for a process's whole
//! life, it ran the simulator 1.6–1.7 times slower, on every workload at
//! once. No statistic over the ops alone can tell that from a slower
//! simulator. So a round also times a fixed piece of host work, the
//! probe, between ops, and every time an op measured is scaled by how long
//! the probe took around it. A slower simulator still shows in full, since
//! the probe is the benchmark's own code.
//!
//! The probe is bitwise arithmetic over a 256 KiB array, like the
//! simulator's work on its bitplanes. Of the kernels tried, it was the one
//! that slowed as much as the simulator did: over 30 sample processes per
//! workload, the log of op time tracked the log of probe time with a slope
//! of 0.9–1.0, and the ratio varied 5–8% (standard deviation) where op time
//! alone varied 20–23%. A branchy interpreter loop, a DRAM stream, a pointer
//! chase and an allocation each slowed less than the simulator did.

use std::hint::black_box;
use std::time::Instant;

/// 64-bit words in the probe's array: 256 KiB.
const WORDS: usize = 1 << 15;

/// Seconds the probe took on the sizing host in its fast state. A scaled
/// time is what the op would have taken with the probe at this speed.
pub const NOMINAL_S: f64 = 120e-6;

/// A round runs the probe before an op once this many seconds have passed
/// since the last probe, and once more when it ends.
pub const EVERY_S: f64 = 0.004;

/// An op is scaled by the probes that ran within this many seconds of it.
/// At least one always does, since one ran at most [`EVERY_S`] before it.
pub const NEAR_S: f64 = 0.010;

pub struct Probe {
    planes: Vec<u64>,
}

impl Probe {
    pub fn new() -> Probe {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let planes = (0..WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Probe { planes }
    }

    /// Run the probe once; returns the seconds it took.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let p = &mut self.planes;
        let mask = WORDS - 1;
        let mut ones = 0u64;
        for i in 0..WORDS {
            let (a, b, c) = (p[i], p[(i + 4099) & mask], p[(i * 7 + 1) & mask]);
            let v = (a & b) ^ (!a & c).rotate_left(3);
            p[i] = v;
            ones += u64::from(v.count_ones());
        }
        black_box(ones);
        start.elapsed().as_secs_f64()
    }
}

/// Per op, the factor its times are multiplied by (and its rates divided
/// by): [`NOMINAL_S`] over the median time of the probes that started
/// within [`NEAR_S`] of it. `ops` are `(start, end)` and `probes`
/// `(start, seconds)`, in seconds since the round began, both in order.
pub fn scales(ops: &[(f64, f64)], probes: &[(f64, f64)]) -> Result<Vec<f64>, String> {
    ops.iter()
        .map(|&(start, end)| {
            let from = probes.partition_point(|&(at, _)| at < start - NEAR_S);
            let to = probes.partition_point(|&(at, _)| at <= end + NEAR_S);
            let near: Vec<f64> = probes[from..to].iter().map(|&(_, s)| s).collect();
            let median = crate::stats::median(&near)
                .ok_or_else(|| format!("no probe within {NEAR_S} s of the op at {start:.6} s"))?;
            Ok(NOMINAL_S / median)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_time_and_keeps_its_work() {
        let mut probe = Probe::new();
        let before = probe.planes.clone();
        assert!(probe.time() > 0.0);
        assert_ne!(probe.planes, before);
    }

    #[test]
    fn each_op_is_scaled_by_the_median_of_the_probes_near_it() {
        let probes = [(0.0, 1e-4), (0.004, 3e-4), (0.008, 2e-4), (0.1, 4e-4)];
        let ops = [(0.001, 0.002), (0.095, 0.099)];
        let s = scales(&ops, &probes).unwrap();
        // the first three probes are near the first op; only the last is
        // near the second
        assert!((s[0] - NOMINAL_S / 2e-4).abs() < 1e-9, "{s:?}");
        assert!((s[1] - NOMINAL_S / 4e-4).abs() < 1e-9, "{s:?}");
        assert!(scales(&[(0.05, 0.06)], &probes).is_err());
    }

    #[test]
    fn a_host_slowing_ops_and_probes_alike_leaves_scaled_times_alone() {
        let probes = [(0.0, 1e-4), (0.004, 1e-4)];
        let ops = [(0.001, 0.002)];
        let calm = 5e-4 * scales(&ops, &probes).unwrap()[0];
        let slow: Vec<(f64, f64)> = probes.iter().map(|&(at, s)| (at, 1.7 * s)).collect();
        let slowed = 1.7 * 5e-4 * scales(&ops, &slow).unwrap()[0];
        assert!((calm - slowed).abs() < 1e-12, "{calm} {slowed}");
    }
}
