//! Order statistics, the process's peak resident set, and the metadata
//! every result carries.

use std::ops::Range;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Length of the windows a run is cut into.
pub const WINDOW: Duration = Duration::from_secs(1);

/// Share of a run's windows, the fastest, that its figures come from.
pub const FAST_SHARE: f64 = 0.25;

/// Requests a window needs for its own latency percentiles to count.
pub const MIN_WINDOW_REQUESTS: usize = 100;

/// Throughput and latency of a set of requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Items processed per second of request time.
    pub items_per_s: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Median set-up time, seconds, of the set-ups recorded in the kept
    /// windows (of all recorded set-ups when none fell in them; 0 when
    /// none were recorded).
    pub setup_s: f64,
    /// Requests summarized.
    pub requests: usize,
    /// Windows the requests were taken from.
    pub windows: usize,
    /// Windows the run was cut into.
    pub of_windows: usize,
}

/// The requests of one run: when each completed, how long it took and
/// how many items it carried.
#[derive(Debug, Clone)]
pub struct Requests {
    start: Instant,
    done_ns: Vec<u64>,
    took_ns: Vec<u64>,
    items: Vec<u64>,
    /// `(completed, took)` of set-ups run between requests, nanoseconds.
    setups: Vec<(u64, u64)>,
    /// The window whose start the next set-ups wait for.
    next_setup_window: u64,
}

impl Requests {
    /// Starts recording now, with room for `n` requests so recording
    /// does not allocate mid-loop.
    pub fn with_capacity(n: usize) -> Self {
        Requests {
            start: Instant::now(),
            done_ns: Vec::with_capacity(n),
            took_ns: Vec::with_capacity(n),
            items: Vec::with_capacity(n),
            setups: Vec::new(),
            next_setup_window: 0,
        }
    }

    /// Nanoseconds since recording started.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Times `reps` calls of `build` (not the drop of what it built) once
    /// per window of `window` wall time: the first call in a window that
    /// has not had its set-ups yet runs them, later calls return at once.
    pub fn time_setups<T>(&mut self, window: Duration, reps: usize, mut build: impl FnMut() -> T) {
        let w = (window.as_nanos() as u64).max(1);
        if self.elapsed_ns() < self.next_setup_window * w {
            return;
        }
        for _ in 0..reps {
            let t0 = Instant::now();
            let built = build();
            let took = t0.elapsed().as_nanos() as u64;
            drop(built);
            self.setups.push((self.elapsed_ns(), took));
        }
        self.next_setup_window = self.elapsed_ns() / w + 1;
    }

    /// Records one request that just completed.
    pub fn push(&mut self, took: Duration, items: u64) {
        self.done_ns.push(self.elapsed_ns());
        self.took_ns.push(took.as_nanos() as u64);
        self.items.push(items);
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.took_ns.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.took_ns.is_empty()
    }

    fn summarize(&self, ranges: &[Range<usize>], of_windows: usize) -> Summary {
        let mut sorted: Vec<u64> = ranges
            .iter()
            .flat_map(|r| self.took_ns[r.clone()].iter().copied())
            .collect();
        sorted.sort_unstable();
        let secs = sorted.iter().sum::<u64>() as f64 / 1e9;
        let items: u64 = ranges
            .iter()
            .map(|r| self.items[r.clone()].iter().sum::<u64>())
            .sum();
        Summary {
            items_per_s: if secs > 0.0 { items as f64 / secs } else { 0.0 },
            p50_us: percentile(&sorted, 0.50) / 1e3,
            p99_us: percentile(&sorted, 0.99) / 1e3,
            setup_s: median(self.setups.iter().map(|s| s.1 as f64 / 1e9).collect()),
            requests: sorted.len(),
            windows: ranges.len(),
            of_windows,
        }
    }

    /// Figures over all requests.
    pub fn pooled(&self) -> Summary {
        self.summarize(std::slice::from_ref(&(0..self.len())), 1)
    }

    /// Items per second of request time over `r`.
    fn rate(&self, r: &Range<usize>) -> f64 {
        let secs = self.took_ns[r.clone()].iter().sum::<u64>() as f64 / 1e9;
        let items: u64 = self.items[r.clone()].iter().sum();
        if secs > 0.0 {
            items as f64 / secs
        } else {
            0.0
        }
    }

    /// The run cut into consecutive windows of `window` wall time (a
    /// request belongs to the window it completed in; a trailing window
    /// shorter than half of `window` is left out), and the figures taken
    /// from the fastest `share` of the windows by throughput: items per
    /// second over their pooled requests, and each latency percentile as
    /// the median of the windows' own percentiles when every kept window
    /// holds at least [`MIN_WINDOW_REQUESTS`] requests (over the pooled
    /// requests otherwise). Set-ups timed with [`Requests::time_setups`]
    /// count for the window they completed in.
    ///
    /// Load from outside the process — other tenants of a shared host —
    /// comes and goes over seconds and only ever slows a window down, so
    /// the fastest windows of a run estimate the program's own speed; a
    /// change to the program moves every window alike.
    pub fn fastest(&self, window: Duration, share: f64) -> Summary {
        let w = (window.as_nanos() as u64).max(1);
        let mut ranges = Vec::new();
        let mut first = 0;
        while first < self.len() {
            let edge = (self.done_ns[first] / w + 1) * w;
            let end = first + self.done_ns[first..].partition_point(|&d| d < edge);
            ranges.push(first..end);
            first = end;
        }
        let end_ns = self.done_ns.last().copied().unwrap_or(0);
        if ranges.len() > 1 && end_ns % w < w / 2 {
            ranges.pop();
        }
        let total = ranges.len();
        let mut rated: Vec<(f64, Range<usize>)> =
            ranges.into_iter().map(|r| (self.rate(&r), r)).collect();
        rated.sort_by(|a, b| b.0.total_cmp(&a.0));
        let keep = ((total as f64 * share).ceil() as usize).clamp(1, total.max(1));
        let kept: Vec<Range<usize>> = rated.into_iter().take(keep).map(|(_, r)| r).collect();
        let mut summary = self.summarize(&kept, total);
        if kept.iter().all(|r| r.len() >= MIN_WINDOW_REQUESTS) {
            let per: Vec<Summary> = kept
                .iter()
                .map(|r| self.summarize(std::slice::from_ref(r), 1))
                .collect();
            summary.p50_us = median(per.iter().map(|s| s.p50_us).collect());
            summary.p99_us = median(per.iter().map(|s| s.p99_us).collect());
        }
        let ids: Vec<u64> = kept.iter().map(|r| self.done_ns[r.start] / w).collect();
        let in_kept: Vec<f64> = self
            .setups
            .iter()
            .filter(|(done, _)| ids.contains(&(done / w)))
            .map(|(_, took)| *took as f64 / 1e9)
            .collect();
        if !in_kept.is_empty() {
            summary.setup_s = median(in_kept);
        }
        summary
    }
}

/// Median of `v` (the mean of the middle two for an even count; 0 when
/// empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MB of 10⁶ bytes.
/// 0 where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn figures_come_from_the_fastest_windows() {
        let mut r = Requests::with_capacity(8);
        // Four windows of one second; the second and fourth ran at half
        // speed, and the last is cut short.
        for (done, took) in [
            (100, 10),
            (900, 10),
            (1_100, 20),
            (1_900, 20),
            (2_100, 10),
            (2_900, 10),
            (3_100, 20),
            (3_300, 20),
        ] {
            r.done_ns.push(done * 1_000_000);
            r.took_ns.push(took * 1_000_000);
            r.items.push(1);
        }
        r.setups = vec![
            (50_000_000, 3_000),
            (1_050_000_000, 9_000),
            (2_050_000_000, 5_000),
        ];
        let s = r.fastest(Duration::from_secs(1), 0.5);
        assert_eq!((s.windows, s.of_windows, s.requests), (2, 3, 4));
        assert!((s.setup_s - 4e-6).abs() < 1e-12, "{}", s.setup_s);
        assert!((s.items_per_s - 100.0).abs() < 1e-9);
        assert_eq!(s.p99_us, 10_000.0);
        let pooled = r.pooled();
        assert!((pooled.items_per_s - 8.0 / 0.12).abs() < 1e-9);
    }

    #[test]
    fn full_windows_report_the_median_of_their_percentiles() {
        let mut r = Requests::with_capacity(400);
        // Two one-second windows of 200 requests, 10 ms and 20 ms each,
        // plus one slow request in the first window.
        for i in 0..400u64 {
            let (done, took) = if i < 200 {
                (i, 10)
            } else {
                (1_000 + 4 * (i - 200), 20)
            };
            r.done_ns.push(done * 1_000_000);
            r.took_ns.push(if i == 7 {
                500_000_000
            } else {
                took * 1_000_000
            });
            r.items.push(1);
        }
        let s = r.fastest(Duration::from_secs(1), 1.0);
        assert_eq!((s.windows, s.of_windows), (2, 2));
        assert_eq!(s.p50_us, 15_000.0);
        assert_eq!(s.p99_us, 15_000.0);
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
