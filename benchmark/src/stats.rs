//! Percentiles, quartiles, and the size of a measurement window.
//!
//! The serving workloads measure over **windows of equal work** — whole
//! cycles of the workload's request sequence, each lasting at least
//! [`WINDOW_SECS`] — so that every window is timed against the same work
//! and judged by the host's slowness around it (see `calib`).

/// Seconds a measurement window lasts at least.
pub const WINDOW_SECS: f64 = 0.25;

/// Operations per window: the smallest whole number of request cycles
/// (`cycle` operations each) that lasts [`WINDOW_SECS`] at `rate`
/// operations per second.
pub fn window_ops(cycle: usize, rate: f64) -> usize {
    let cycles = (WINDOW_SECS * rate / cycle as f64).ceil();
    cycle * (cycles.max(1.0) as usize)
}

/// Nearest-rank percentile (`q` in [0, 1]); sorts `v`. Empty input is NaN.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median (mean of the middle two for an even count); sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.95), 95.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn windows_hold_whole_cycles() {
        // 60-request cycles at 50/s last 1.2 s: one cycle per window.
        assert_eq!(window_ops(60, 50.0), 60);
        // 256-request cycles at 20 000/s: 20 cycles reach 0.25 s.
        assert_eq!(window_ops(256, 20_000.0), 256 * 20);
    }
}
