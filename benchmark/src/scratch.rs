//! Scratch directories for store files.
//!
//! The benchmark reads and writes only inside its checkout, so scratch
//! lives under `benchmark/scratch/<pid>` (git-ignored) rather than the
//! system temp dir.  The root is removed when the last handle drops,
//! which unwinding from a failed check does too.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Root {
    path: PathBuf,
    next: AtomicUsize,
}

impl Drop for Root {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty `scratch/` behind either; fails harmlessly while
        // another process still has its own directory in it.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A handle on this process's scratch root.
#[derive(Clone)]
pub struct Scratch(Arc<Root>);

impl Scratch {
    /// `<parent>/<pid>`, created empty.
    pub fn under(parent: &Path) -> std::io::Result<Scratch> {
        let path = parent.join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch(Arc::new(Root {
            path,
            next: AtomicUsize::new(0),
        })))
    }

    /// The scratch root of a process started in the repository root,
    /// which is where `run.sh` starts it; refused elsewhere, so that a
    /// stray run cannot scatter directories.
    pub fn in_checkout() -> std::io::Result<Scratch> {
        if !Path::new("benchmark/Cargo.toml").is_file() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "not in the repository root (no benchmark/Cargo.toml here)",
            ));
        }
        Scratch::under(Path::new("benchmark/scratch"))
    }

    /// A fresh, not yet created, directory path under the root.
    pub fn subdir(&self, tag: &str) -> PathBuf {
        // Relaxed: the counter only has to hand out distinct numbers.
        let n = self.0.next.fetch_add(1, Ordering::Relaxed);
        self.0.path.join(format!("{tag}-{n}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_root_is_removed_with_the_last_handle_even_when_unwinding() {
        let parent = Path::new(env!("CARGO_MANIFEST_DIR")).join("scratch/unit-test");
        let root = {
            let scratch = Scratch::under(&parent).unwrap();
            let a = scratch.subdir("store");
            let b = scratch.clone().subdir("store");
            assert_ne!(a, b);
            std::fs::create_dir_all(&a).unwrap();
            std::fs::write(a.join("seg"), b"x").unwrap();
            a.parent().unwrap().to_path_buf()
        };
        assert!(!root.exists());

        let kept = std::panic::catch_unwind(|| {
            let scratch = Scratch::under(&parent).unwrap();
            let dir = scratch.subdir("store");
            std::fs::create_dir_all(&dir).unwrap();
            panic!("a failed check");
        });
        assert!(kept.is_err());
        assert!(!root.exists());
    }
}
