//! Process-wide figures read from `/proc/self`: peak resident memory and
//! CPU time.

use std::fs;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| format!("status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM line")?;
    Ok(kib / 1024.0)
}

/// User plus system CPU seconds this process has used, all threads.
/// `/proc/self/stat` counts in `USER_HZ` ticks, which Linux fixes at 100
/// for user space.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = fs::read_to_string("/proc/self/stat").map_err(|e| format!("stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after the name.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("malformed stat field {i}"))
    };
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
