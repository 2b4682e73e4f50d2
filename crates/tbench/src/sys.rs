//! What the operating system knows about this process.

/// Peak resident set (`VmHWM`) of process `pid` in MiB, from
/// `/proc/<pid>/status`; `None` where that file does not exist.
pub fn peak_rss_mib_of(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    // Off Linux there is no /proc; 1.0 keeps the metric non-zero and
    // obviously not a measurement.
    peak_rss_mib_of("self").unwrap_or(1.0)
}

/// Summed peak resident set of this process's live direct children (the
/// cluster workers), in MiB. Must be read before they are reaped.
pub fn children_peak_rss_mib() -> f64 {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return 0.0;
    };
    let mut total = 0.0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name
            .to_str()
            .filter(|n| n.bytes().all(|b| b.is_ascii_digit()))
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // `pid (comm) state ppid …`; comm may hold spaces, so split after
        // the closing parenthesis.
        let ppid = stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().nth(1));
        if ppid == Some(me.as_str()) {
            total += peak_rss_mib_of(pid).unwrap_or(0.0);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_and_children_are_none_here() {
        assert!(peak_rss_mib() > 0.0);
        // The test process has no children of its own at this point.
        assert!(children_peak_rss_mib() >= 0.0);
    }
}
