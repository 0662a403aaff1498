//! Process accounting read from `/proc/self` (no `libc` crate is available
//! offline): CPU ticks, minor faults and resident-set size.

use std::fs;

use crate::stats::median;

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` needs `libc`;
/// Linux has reported 100 on every architecture since 2.6.
const TICKS_PER_S: f64 = 100.0;

/// One reading of the process-wide counters in `/proc/self/stat`
/// (all threads, exited ones included).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSample {
    pub user_ms: f64,
    pub system_ms: f64,
    pub minor_faults: u64,
}

impl CpuSample {
    /// Reads the counters now; zeros where `/proc` is unreadable.
    pub fn now() -> Self {
        let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
            return CpuSample::default();
        };
        // Fields after the parenthesised command name, which may itself
        // contain spaces: state is field 3, so minflt (10), utime (14)
        // and stime (15) sit at offsets 7, 11 and 12 from it.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let num = |i: usize| -> u64 { fields.get(i).and_then(|f| f.parse().ok()).unwrap_or(0) };
        CpuSample {
            user_ms: num(11) as f64 * 1e3 / TICKS_PER_S,
            system_ms: num(12) as f64 * 1e3 / TICKS_PER_S,
            minor_faults: num(7),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: CpuSample) -> CpuSample {
        CpuSample {
            user_ms: self.user_ms - earlier.user_ms,
            system_ms: self.system_ms - earlier.system_ms,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
        }
    }

    pub fn total_ms(self) -> f64 {
        self.user_ms + self.system_ms
    }
}

fn status_kb(key: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Memory, interval by interval: [`MemWatch::sample`] closes an interval
/// (an op, or a slice of a serving window) and records its peak live heap
/// (the counting allocator's big-block high-water mark) and its peak
/// resident set — the kernel's `VmHWM` where it can be reset through
/// `clear_refs`, else `VmRSS` at the sampling point. Each is reported as
/// the median over intervals, which one unlucky overlap of two threads'
/// live sets cannot move the way it moves the maximum.
pub struct MemWatch {
    hwm_reset: bool,
    heap_bytes: Vec<f64>,
    rss_kb: Vec<f64>,
}

impl MemWatch {
    fn reset_hwm() -> bool {
        fs::write("/proc/self/clear_refs", "5").is_ok()
    }

    /// Starts the first interval.
    pub fn start() -> Self {
        let mut watch = MemWatch {
            hwm_reset: false,
            heap_bytes: Vec::new(),
            rss_kb: Vec::new(),
        };
        watch.restart();
        watch
    }

    /// Starts an interval afresh, forgetting what happened since the last
    /// one closed.
    pub fn restart(&mut self) {
        crate::alloc::take_peak_bytes();
        self.hwm_reset = Self::reset_hwm();
    }

    /// Closes the current interval and starts the next.
    pub fn sample(&mut self) {
        self.heap_bytes.push(crate::alloc::take_peak_bytes() as f64);
        let key = if self.hwm_reset { "VmHWM:" } else { "VmRSS:" };
        self.rss_kb.push(status_kb(key).unwrap_or(0.0));
        self.hwm_reset = Self::reset_hwm();
    }

    pub fn intervals(&self) -> usize {
        self.heap_bytes.len()
    }

    /// Mean interval peak of live heap, in MB. Batch ops repeat the same
    /// peak, so any average would do; under overlapping requests the
    /// interval peaks fall into two groups (one worker at its peak, or
    /// both), and the mean moves smoothly with the mix where the median
    /// and the maximum jump between the groups.
    pub fn peak_heap_mb(&self) -> f64 {
        self.heap_bytes.iter().sum::<f64>() / self.heap_bytes.len().max(1) as f64 / 1e6
    }

    /// Median interval peak of the resident set, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        median(&self.rss_kb) / 1024.0
    }
}
