//! Summaries and process-level readings the harness takes from outside
//! the program: percentiles, CPU time, peak RSS and the calibration spin.

use std::time::Instant;

/// Nearest rank (1-based) of the `pct`-th percentile among `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

/// Nearest-rank percentile of `values` (`pct` in 1..=100).
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), pct) - 1]
}

/// Median as the mean of the two middle samples.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest of p50/p75/p90/p95/p99 that still has at least ten of `n`
/// samples beyond it; a tail percentile resting on fewer is one outlier.
pub fn highest_percentile(n: usize) -> Option<u32> {
    [99, 95, 90, 75, 50].into_iter().find(|&pct| n >= rank(n, pct) + 10)
}

/// Process user+sys CPU milliseconds so far, all threads, from
/// `/proc/self/stat` (`utime` and `stime`, in 10 ms clock ticks).
pub fn cpu_ms() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // The command name is parenthesised and may hold spaces: count fields
    // after the closing parenthesis, where `state` is field 3.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| -> Result<f64, String> {
        fields
            .get(field - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("no field {field} in /proc/self/stat"))
    };
    const MS_PER_TICK: f64 = 10.0; // USER_HZ is 100 on every Linux ABI.
    Ok((ticks(14)? + ticks(15)?) * MS_PER_TICK)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Wall milliseconds of a fixed integer spin. The work never changes, so
/// a reading that moves between runs is the machine, not the program.
pub fn calib_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..40_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(10), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50));
        assert_eq!(highest_percentile(39), Some(50));
        // 40 passes: rank 30 leaves exactly ten beyond p75.
        assert_eq!(highest_percentile(40), Some(75));
        assert_eq!(highest_percentile(100), Some(90));
        assert_eq!(highest_percentile(200), Some(95));
        assert_eq!(highest_percentile(1000), Some(99));
    }

    #[test]
    fn percentile_and_median() {
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 75), 30.0);
        assert_eq!(percentile(&v, 100), 40.0);
        assert_eq!(median(&v), 20.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn proc_readings_are_positive() {
        calib_ms();
        assert!(cpu_ms().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
