//! Process resource readings from `/proc/self`: CPU time and the resident
//! memory high-water mark.

/// CPU time (user + system) the live threads of this process have used so
/// far, in seconds, at nanosecond resolution (`/proc/self/task/*/schedstat`).
///
/// Threads that exit drop out of the sum, so a difference of two readings
/// is the process's CPU time in between only when no thread exits there;
/// the measured passes run with a fixed set of server threads.
pub fn cpu_seconds() -> Result<f64, String> {
    let tasks = std::fs::read_dir("/proc/self/task")
        .map_err(|e| format!("listing /proc/self/task: {e}"))?;
    let mut ns = 0u64;
    for task in tasks.flatten() {
        // A thread may exit between the listing and the read.
        if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or("malformed schedstat")?;
        }
    }
    Ok(ns as f64 / 1e9)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
