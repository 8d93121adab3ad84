//! Sample statistics, the seeded generator, and `/proc` memory probes.

use std::time::{Duration, Instant};

/// splitmix64: the benchmark's only source of randomness, so one seed
/// fixes every graph, request stream and sample.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, lane)`, e.g. one per connection.
    pub fn lane(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Nearest-rank percentile of `samples` (`q` in `0..=1`); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Windows the measured phase is cut into, by completion time.
pub const WINDOWS: usize = 5;

/// The window of a measured phase from `start` to `deadline` in which
/// an operation that ended at `end` falls; the last one holds overruns.
pub fn window_of(start: Instant, deadline: Instant, end: Instant) -> usize {
    let share = (end - start).as_secs_f64() / (deadline - start).as_secs_f64();
    ((share * WINDOWS as f64) as usize).min(WINDOWS - 1)
}

/// Samples grouped by the window of the measured phase they ended in.
/// End-to-end latencies are a median over windows of a per-window
/// statistic, so a slowdown of the shared host that covers fewer than
/// half of a run's windows does not move them.
#[derive(Clone, Debug, Default)]
pub struct Windowed(Vec<Vec<f64>>);

impl Windowed {
    pub fn push(&mut self, window: usize, value: f64) {
        if self.0.len() <= window {
            self.0.resize(window + 1, Vec::new());
        }
        self.0[window].push(value);
    }

    pub fn absorb(&mut self, other: Windowed) {
        for (w, values) in other.0.into_iter().enumerate() {
            for v in values {
                self.push(w, v);
            }
        }
    }

    pub fn len(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    /// Every sample, whatever its window.
    pub fn all(&self) -> Vec<f64> {
        self.0.concat()
    }

    /// Median over the non-empty windows of `stat` of each window.
    pub fn median_of(&self, stat: impl Fn(&[f64]) -> f64) -> f64 {
        let per_window: Vec<f64> = self
            .0
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| stat(w))
            .collect();
        median(&per_window)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// `VmHWM` (peak resident set) of process `pid` in MiB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set, so a
/// transient set-up peak does not hide the measured phase's footprint.
/// Heap memory that set-up freed is first handed back to the kernel:
/// the allocator keeps it resident otherwise (about 30 MiB on
/// `batch-baidu-z`), and it would count as the measured phase's.
pub fn reset_hwm() -> bool {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and only returns
    // free pages of the allocator's own heaps to the kernel.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_median_ignores_a_slow_minority_of_windows() {
        let mut w = Windowed::default();
        for (window, v) in [(0, 1.0), (0, 3.0), (1, 2.0), (2, 2.0), (3, 50.0), (4, 2.0)] {
            w.push(window, v);
        }
        assert_eq!(w.len(), 6);
        assert_eq!(w.median_of(mean), 2.0);
        let t = Instant::now();
        let later = t + Duration::from_secs(10);
        assert_eq!(window_of(t, later, t), 0);
        assert_eq!(window_of(t, later, t + Duration::from_secs(5)), WINDOWS / 2);
        assert_eq!(
            window_of(t, later, later + Duration::from_secs(1)),
            WINDOWS - 1
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::lane(7, 0).below(1000)).collect();
        assert!(a.iter().all(|&x| x == a[0]));
        let mut r = Rng::lane(7, 1);
        let mut s = Rng::lane(7, 2);
        assert_ne!(r.next_u64(), s.next_u64());
    }
}
