//! Quantiles, process accounting from `/proc`, and the environment block.

use std::path::Path;
use vdb_core::simd::SimdLevel;

/// The `q`-quantile of `samples` (nearest rank on the sorted copy).
/// `NaN` for an empty sample, so a missing measurement cannot pass as 0.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method): the
/// quartiles the driver takes the spread from.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        if n < 2 {
            return sorted.first().copied().unwrap_or(f64::NAN);
        }
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Process CPU seconds so far (user + system, every thread), from
/// `/proc/self/stat`. Linux reports these in ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks() + ticks()) / 100.0
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Filesystem type of the mount that holds `path` (longest mount-point
/// prefix in `/proc/self/mounts`).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The commit checked out in the current directory, when it is a git
/// work tree (the driver's checkout is not).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map_or_else(|_| head.clone(), |c| c.trim().to_string()),
        None => head,
    }
}

/// One line describing where and how this run was taken.
pub fn environment(work_dir: &Path, seed: u64, ops: u64, window_s: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "env: nproc={nproc} simd={} workdir_fs={} rustc=\"{}\" commit={} seed={seed} ops={ops} window_s={window_s:.3}",
        SimdLevel::Auto.resolve(),
        filesystem_of(work_dir),
        env!("BENCH_RUSTC_VERSION"),
        git_commit(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let values = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&values), 3.0);
        assert_eq!(quantile(&values, 1.0), 5.0);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
