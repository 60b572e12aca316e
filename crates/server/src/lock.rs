//! An advisory lock guarding a snapshot file against the
//! last-writer-wins hazard: two live processes pointed at the same
//! `--snapshot` / `--snapshot-out` path would silently overwrite each
//! other's atomic renames, so whoever persists to a snapshot path first
//! locks `<path>.lock` and everyone else refuses to start.

use std::fs::{File, OpenOptions, TryLockError};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Lock-file path guarding `snapshot`: the snapshot path with `.lock`
/// appended (not substituted, so `plans.dsqc` and `plans.tmp` cannot
/// collide on one lock).
pub fn lock_path(snapshot: &Path) -> PathBuf {
    PathBuf::from(format!("{}.lock", snapshot.display()))
}

/// A held snapshot lock; dropping it releases the lock.
///
/// The lock is **advisory** (nothing stops a process that does not
/// check it): an exclusive [`File::try_lock`] (`flock` on Linux) on
/// `<snapshot>.lock`, held by keeping the file open. The kernel releases
/// it when the holder closes the file or exits, however it exits, so a
/// crashed server never wedges the snapshot path. The file itself stays
/// behind, holding the last holder's pid, which a refused acquire
/// names: unlinking it would let a process that had already opened it
/// lock an inode no longer at the path while another locks a new one.
#[derive(Debug)]
pub struct SnapshotLock {
    _file: File,
}

impl SnapshotLock {
    /// Takes the lock guarding `snapshot`.
    ///
    /// # Errors
    ///
    /// `AddrInUse` naming the holder's pid while any open file holds the
    /// lock (a holder in this process counts: two servers in one process
    /// must not share a snapshot path either); other I/O errors from
    /// opening, locking or writing the lock file.
    pub fn acquire(snapshot: &Path) -> io::Result<SnapshotLock> {
        let path = lock_path(snapshot);
        // Never truncate before the lock is ours: the pid in the file is
        // the holder's until then.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        match file.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => {
                let mut holder = String::new();
                file.read_to_string(&mut holder)?;
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!(
                        "snapshot {} is locked by live process {} (lock file {})",
                        snapshot.display(),
                        holder.trim(),
                        path.display()
                    ),
                ));
            }
            Err(TryLockError::Error(e)) => return Err(e),
        }
        file.set_len(0)?;
        writeln!(file, "{}", std::process::id())?;
        Ok(SnapshotLock { _file: file })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_snapshot(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dsq-lock-{tag}-{}.dsqc", std::process::id()))
    }

    #[test]
    fn acquire_release_roundtrip() {
        let snapshot = temp_snapshot("roundtrip");
        let lock = SnapshotLock::acquire(&snapshot).expect("free path locks");
        let content = std::fs::read_to_string(lock_path(&snapshot)).expect("lock readable");
        assert_eq!(content.trim(), std::process::id().to_string());
        drop(lock);
        // Dropping released the lock: the path locks again.
        drop(SnapshotLock::acquire(&snapshot).expect("released path relocks"));
        std::fs::remove_file(lock_path(&snapshot)).ok();
    }

    #[test]
    fn live_holder_refuses_second_acquire() {
        let snapshot = temp_snapshot("live");
        let held = SnapshotLock::acquire(&snapshot).expect("locks");
        let err = SnapshotLock::acquire(&snapshot).expect_err("held lock refuses");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        let message = err.to_string();
        assert!(
            message.contains(&format!("locked by live process {}", std::process::id())),
            "{message}"
        );
        drop(held);
        std::fs::remove_file(lock_path(&snapshot)).ok();
    }

    /// A lock file left behind by a crashed server (a dead pid, no
    /// holder) is no lock at all: it is acquired and rewritten.
    #[test]
    fn stale_locks_are_stolen() {
        let snapshot = temp_snapshot("dead");
        let lock_file = lock_path(&snapshot);
        std::fs::write(&lock_file, "999999999\n").expect("plant leftover lock file");
        let lock = SnapshotLock::acquire(&snapshot).expect("a leftover lock file is acquired");
        let content = std::fs::read_to_string(&lock_file).expect("lock readable");
        assert_eq!(content, format!("{}\n", std::process::id()), "lock now ours");
        drop(lock);
        std::fs::remove_file(&lock_file).ok();
    }

    /// A lock file whose content is not a pid, and longer than one, is
    /// acquired and rewritten whole: no garbage survives past the pid.
    #[test]
    fn unreadable_locks_count_as_stale() {
        let snapshot = temp_snapshot("garbage");
        let lock_file = lock_path(&snapshot);
        std::fs::write(&lock_file, "not a pid, and longer\n").expect("plant garbage lock");
        let lock = SnapshotLock::acquire(&snapshot).expect("garbage lock is stolen");
        let content = std::fs::read_to_string(&lock_file).expect("lock readable");
        assert_eq!(content, format!("{}\n", std::process::id()), "lock now ours");
        drop(lock);
        std::fs::remove_file(&lock_file).ok();
    }
}
