//! Facts about the host a result was measured on.

use std::path::Path;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// Filesystem type of the mount holding `dir` (the run registry's
/// location), from this process's mount table; `"unknown"` if it cannot
/// be read.
pub fn fs_type(dir: &Path) -> String {
    let (Ok(dir), Ok(table)) =
        (dir.canonicalize(), std::fs::read_to_string("/proc/self/mountinfo"))
    else {
        return "unknown".into();
    };
    // fields: id parent dev root mount-point options [optional...] - fstype ...
    table
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            let sep = f.iter().position(|&x| x == "-")?;
            Some((*f.get(4)?, *f.get(sep + 1)?))
        })
        .filter(|(mount, _)| dir.starts_with(mount))
        .max_by_key(|(mount, _)| mount.len())
        .map_or("unknown".into(), |(_, fs)| fs.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn root_has_a_filesystem_type() {
        assert_ne!(fs_type(Path::new("/")), "unknown");
    }
}
