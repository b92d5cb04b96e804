//! Scratch directories for WAL and SSTable files.
//!
//! They live under `target/bskip_perf/` relative to the working
//! directory, not under the system's temporary directory: the benchmark
//! contract lets a run read and write only inside the checkout it was
//! started from.  They are removed when dropped, which covers panics too
//! (the binary unwinds); what a killed run leaves behind, the next run
//! removes ([`remove_stale`]).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Everything the benchmark writes goes below this directory.
pub const OUTPUT_ROOT: &str = "target/bskip_perf";

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A directory that is deleted, with its contents, on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `target/bskip_perf/scratch-<pid>-<n>-<tag>`.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(OUTPUT_ROOT).join(format!("scratch-{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total size of the regular files directly inside the directory.
    pub fn file_bytes(&self) -> std::io::Result<u64> {
        let mut total = 0;
        for entry in std::fs::read_dir(&self.path)? {
            let meta = entry?.metadata()?;
            if meta.is_file() {
                total += meta.len();
            }
        }
        Ok(total)
    }
}

/// Removes the scratch directories of processes that no longer exist (a
/// run the driver killed at its time limit never dropped its own).  Which
/// processes exist is read from `/proc`; without one nothing is removed.
pub fn remove_stale() {
    if !Path::new("/proc/self").exists() {
        return;
    }
    let Ok(entries) = std::fs::read_dir(OUTPUT_ROOT) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let name = entry.file_name();
        let pid = name
            .to_str()
            .and_then(|name| name.strip_prefix("scratch-"))
            .and_then(|rest| rest.split('-').next());
        if pid.is_some_and(|pid| !Path::new("/proc").join(pid).exists()) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_distinct_sized_and_removed() {
        let (a, b) = (
            ScratchDir::new("unit").unwrap(),
            ScratchDir::new("unit").unwrap(),
        );
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), [0u8; 100]).unwrap();
        assert_eq!(a.file_bytes().unwrap(), 100);
        let path = a.path().to_path_buf();
        drop(a);
        assert!(!path.exists());
    }

    #[test]
    fn stale_directories_go_and_live_ones_stay() {
        let live = ScratchDir::new("live").unwrap();
        // No process has this id: Linux caps them at 2^22.
        let stale = Path::new(OUTPUT_ROOT).join("scratch-4294967295-0-killed");
        std::fs::create_dir_all(&stale).unwrap();
        std::fs::write(stale.join("000001.sst"), [0u8; 10]).unwrap();
        remove_stale();
        assert!(!stale.exists());
        assert!(live.path().exists());
    }
}
