//! Hermetic set-up: a scrubbed environment, scratch directories inside
//! the checkout, explicit worker counts, and the provenance every result
//! records.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The most worker threads any workload uses, whatever the machine has,
/// so results from different machines describe the same work.
pub const MAX_WORKERS: usize = 2;

/// Removes every `WSRS_*` variable (and the `RAYON_NUM_THREADS` the grid
/// harness honours) from this process's environment, so the program sees
/// only what the benchmark passes it. Call before the first call into the
/// program: some of its switches are read once per process.
pub fn scrub_env() {
    for (k, _) in std::env::vars_os() {
        let key = k.to_string_lossy();
        if key.starts_with("WSRS_") || key == "RAYON_NUM_THREADS" {
            std::env::remove_var(&k);
        }
    }
}

#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Worker threads for grids and the server: `nproc`, capped at
/// [`MAX_WORKERS`].
#[must_use]
pub fn workers() -> usize {
    nproc().min(MAX_WORKERS)
}

/// A scratch directory under `<cwd>/.bench_tmp`, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh, empty directory tagged `tag`.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    #[must_use]
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = scratch_root().join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        TempDir(dir)
    }

    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Removes the scratch root if no scratch directory is left in it.
pub fn remove_scratch_root() {
    let _ = std::fs::remove_dir(scratch_root());
}

fn scratch_root() -> PathBuf {
    PathBuf::from(".bench_tmp")
}

/// Peak resident set size of this process so far, in MiB (`NaN` where
/// `/proc` is unavailable).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets the peak-RSS mark, so the next workload in the same process
/// reports its own peak. Best-effort.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Machine and build identity, recorded beside every result so numbers
/// from different machines are never mixed.
#[must_use]
pub fn provenance() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let git_rev = wsrs_telemetry::manifest::git_revision(&wsrs_bench::manifest::repo_root());
    vec![
        ("nproc", nproc().to_string()),
        ("workers", workers().to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
        ("git_rev", git_rev),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dir_is_removed_on_drop() {
        let path = {
            let t = TempDir::new("unit");
            std::fs::write(t.path().join("f"), "x").unwrap();
            t.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
