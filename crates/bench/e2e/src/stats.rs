//! The benchmark's own arithmetic: medians, tail percentiles, failure
//! shares and `/proc` memory readings.

/// Median of the samples (mean of the two middle ones for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every metric states its sample count, and a
/// count of zero is a bug in the driver, not a measurement.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`0 < pct ≤ 100`) of the samples.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of `count` samples that still has at least ten
/// samples beyond it — the only tail a run of that length can report
/// without quoting its own outliers. Falls back to the median below
/// twenty samples.
pub fn tail_percentile(count: usize) -> f64 {
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|per_mille| count * (1000 - per_mille) / 1000 >= 10)
        .map_or(50.0, |per_mille| per_mille as f64 / 10.0)
}

/// Failed ÷ attempted. Nothing attempted is not a pass: it reads as 1.
pub fn fail_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// The KiB value of one `/proc/<pid>/status` field such as `VmHWM`.
pub fn status_kib(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

fn read_status(pid: &str) -> Option<String> {
    std::fs::read_to_string(format!("/proc/{pid}/status")).ok()
}

/// One memory field of this process, in KiB (0 where `/proc` is missing).
pub fn own_kib(field: &str) -> u64 {
    read_status("self")
        .and_then(|s| status_kib(&s, field))
        .unwrap_or(0)
}

/// Summed peak resident set (`VmHWM`, KiB) of this process's live
/// children — the remote backend's worker processes.
pub fn children_hwm_kib() -> u64 {
    let me = format!("PPid:\t{}", std::process::id());
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| name.bytes().all(|b| b.is_ascii_digit()))
        .filter_map(|pid| read_status(&pid))
        .filter(|status| status.lines().any(|l| l == me))
        .filter_map(|status| status_kib(&status, "VmHWM"))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
    }

    #[test]
    fn fail_share_counts_zero_attempts_as_failure() {
        assert_eq!(fail_share(0, 0), 1.0);
        assert_eq!(fail_share(0, 8), 0.0);
        assert_eq!(fail_share(2, 8), 0.25);
    }

    #[test]
    fn status_fields_parse() {
        let status =
            "Name:\tsmst-e2e\nVmPeak:\t  204800 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(status_kib(status, "VmHWM"), Some(51234));
        assert_eq!(status_kib(status, "VmRSS"), Some(40000));
        assert_eq!(status_kib(status, "VmSwap"), None);
        assert_eq!(status_kib("VmHWM:\tgarbage kB\n", "VmHWM"), None);
    }
}
