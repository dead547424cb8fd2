//! Per-phase peak resident set size, from the kernel's own accounting.
//!
//! Writing `5` to `/proc/self/clear_refs` resets the process's peak RSS
//! (`VmHWM`) to its current RSS, so the peak read after a phase is the
//! peak of that phase alone.

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pins glibc's mmap threshold at its 128 KiB default. Left dynamic, it
/// rises to the largest block freed so far, so how much of a phase's
/// memory lands in the heap, where freed pages linger, depends on what ran
/// before: the first fit's peak read 130 or 150 MB on identical runs.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: mallopt takes two integers and no pointers; M_MMAP_THRESHOLD
    // (-3) with 128 KiB is a documented, valid setting.
    unsafe {
        mallopt(-3, 128 * 1024);
    }
}

/// Returns the allocator's free heap pages to the kernel and resets the
/// peak-RSS high-water mark to the current RSS. Without the trim, how much
/// freed memory an earlier phase left mapped varies from run to run, and
/// so would every later phase's peak.
pub fn reset_peak() -> std::io::Result<()> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim takes no pointers; glibc serializes it against
    // other allocator calls with its arena locks.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak RSS since the last reset, in MB (10^6 bytes).
pub fn peak_mb() -> std::io::Result<f64> {
    status_kb("VmHWM:").map(|kb| kb as f64 * 1024.0 / 1e6)
}

/// Current RSS, in MB.
pub fn current_mb() -> std::io::Result<f64> {
    status_kb("VmRSS:").map(|kb| kb as f64 * 1024.0 / 1e6)
}

fn status_kb(key: &str) -> std::io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("{key} missing from /proc/self/status")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Touches `mb` megabytes so they become resident.
    fn touch(mb: usize) -> Vec<u8> {
        let mut v = vec![0u8; mb * 1_000_000];
        for i in (0..v.len()).step_by(4096) {
            v[i] = 1;
        }
        std::hint::black_box(v)
    }

    #[test]
    fn reset_forgets_an_earlier_phase_peak() {
        reset_peak().unwrap();
        let base = current_mb().unwrap();
        let big = touch(96);
        let during = peak_mb().unwrap();
        assert!(during >= base + 90.0, "peak {during} MB, base {base} MB");
        drop(big);
        // Large blocks are unmapped on free, so RSS falls back; the peak
        // only forgets the 96 MB once it is reset. (The kernel's RSS
        // counters are batched per CPU, hence the slack.)
        assert!(peak_mb().unwrap() >= during - 2.0);
        reset_peak().unwrap();
        let after = peak_mb().unwrap();
        assert!(
            after < during - 60.0,
            "peak after reset {after} MB, during {during} MB"
        );
    }
}
