//! Per-test scratch directories.
//!
//! Tests that touch the file system (ledger files, shard directories) used
//! to share one `temp_dir()/<prefix>-<pid>` directory per test binary, so
//! concurrently running tests could see each other's files and every run
//! left its directory behind. A [`ScratchDir`] is unique to one caller in
//! one process, starts empty, and is removed when dropped.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes scratch directories created by one process.
static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty directory under the system temp dir, removed on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `temp_dir()/dpx-<name>-<pid>-<n>`, where `n` counts the
    /// scratch directories this process has made. Whatever a crashed run
    /// with the same process id left at that path is removed first.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created: a test without its
    /// scratch space cannot run.
    pub fn new(name: &str) -> Self {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("dpx-{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("create scratch dir {}: {e}", path.display()));
        ScratchDir { path }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `file` inside the directory.
    pub fn join(&self, file: impl AsRef<Path>) -> PathBuf {
        self.path.join(file)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is harmless, a panic in drop is not.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirs_are_unique_empty_and_removed_on_drop() {
        let a = ScratchDir::new("scratch-test");
        let b = ScratchDir::new("scratch-test");
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir());
        assert_eq!(std::fs::read_dir(a.path()).unwrap().count(), 0);
        std::fs::write(a.join("f"), b"x").unwrap();
        let path = a.path().to_path_buf();
        drop(a);
        assert!(!path.exists());
    }
}
