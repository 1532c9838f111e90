//! Atomic artefact publication and exact integer conversions.
//!
//! Every file the workspace publishes — result documents, snapshots,
//! ingestion reports, benchmark artefacts, traces — goes through
//! [`write_bytes_atomic`] (or, for streamed files, [`create_staging`] plus
//! [`publish_staged`]), so a concurrent reader or a crash mid-write sees
//! either the previous complete file or the new one, never a torn mixture.
//! `lb lint` rule R04 enforces this at the source level: direct
//! `File::create`/`fs::write` calls outside this module are findings.
//!
//! [`u64_exact`] and [`usize_exact`] are the checked counterparts to the
//! truncating `as` casts that rule R02 rejects in serialization code: the
//! widening direction is proven lossless at compile time, the narrowing
//! direction reports failure instead of wrapping.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A name no other call in this process, and no other live process, gets:
/// `{stem}.{pid}.{n}`, with `n` drawn from a per-process counter. Staging
/// files and scratch paths both take their names from here.
pub fn unique_name(stem: &str) -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    format!("{stem}.{}.{n}", std::process::id())
}

/// Creates the staging file for an atomic publication of `path`: a new
/// sibling `.{name}.tmp.{pid}.{n}` (see [`unique_name`]) opened with
/// `create_new`, so two publishers of one target — threads or processes —
/// never share a temp file. Returns the staging path and the open file.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn create_staging(path: &Path) -> std::io::Result<(PathBuf, fs::File)> {
    let file_name = path
        .file_name()
        .and_then(|name| name.to_str())
        .unwrap_or("artifact");
    let tmp_name = unique_name(&format!(".{file_name}.tmp"));
    let tmp = match path.parent().filter(|p| !p.as_os_str().is_empty()) {
        Some(dir) => dir.join(tmp_name),
        None => PathBuf::from(tmp_name),
    };
    let file = fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&tmp)?;
    Ok((tmp, file))
}

/// Publishes the finished staging file `tmp` at `path`: fsync, rename over
/// the target, then fsync the directory so the rename itself persists
/// (best-effort where directories cannot be opened). On failure the
/// staging file is removed and the target is left as it was.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn publish_staged(tmp: &Path, path: &Path) -> std::io::Result<()> {
    let result = fs::File::open(tmp)
        .and_then(|file| file.sync_all())
        .and_then(|()| fs::rename(tmp, path));
    if result.is_err() {
        let _ = fs::remove_file(tmp);
    }
    result?;
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Atomically publishes `bytes` at `path`: write to a fresh staging file
/// in the same directory ([`create_staging`]), then [`publish_staged`]. A
/// crash at any point leaves either the previous file or the new one under
/// `path`, never a torn mixture, and concurrent publishers of one target
/// each publish their own bytes whole.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let (tmp, mut file) = create_staging(path)?;
    if let Err(e) = file.write_all(bytes) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    drop(file);
    publish_staged(&tmp, path)
}

// The widening in `u64_exact` is only lossless where usize fits in u64 —
// true on every supported target, and proven here rather than assumed.
const _: () = assert!(std::mem::size_of::<usize>() <= std::mem::size_of::<u64>());

/// Losslessly widens a `usize` (a length, an index) to the `u64` the
/// serialization formats carry. The compile-time assertion above makes this
/// the audited home for a conversion that would otherwise be a bare `as`
/// cast at every call site.
#[inline]
pub fn u64_exact(n: usize) -> u64 {
    // lint: allow(R02, lossless by the const size assertion above)
    n as u64
}

/// Checked narrowing of a serialized `u64` back to `usize`; `None` when the
/// value does not fit the platform (the caller turns that into its located
/// error, never a wrapped index).
#[inline]
pub fn usize_exact(v: u64) -> Option<usize> {
    usize::try_from(v).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_publishes_and_cleans_up() {
        let dir = std::env::temp_dir().join(unique_name("lb-artifact-test"));
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("out.json");
        write_bytes_atomic(&target, b"{\"v\":1}\n").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"{\"v\":1}\n");
        // Overwrite: the new content fully replaces the old.
        write_bytes_atomic(&target, b"{\"v\":2}\n").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"{\"v\":2}\n");
        // No temp file left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_publishers_of_one_target_never_tear() {
        // Eight writers each publish their own distinct JSON document to the
        // same target, over and over, while a reader keeps reading it. Every
        // read must parse whole and be exactly one writer's bytes.
        const WRITERS: usize = 8;
        const ROUNDS: usize = 40;
        let dir = std::env::temp_dir().join(unique_name("lb-artifact-stress"));
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("shared.json");
        let payloads: Vec<Vec<u8>> = (0..WRITERS)
            .map(|w| {
                let filler = "x".repeat(4096 * (w + 1));
                format!("{{\"writer\":{w},\"filler\":\"{filler}\"}}\n").into_bytes()
            })
            .collect();
        let done = std::sync::atomic::AtomicBool::new(false);
        let reads = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut reads = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let Ok(bytes) = fs::read(&target) else {
                        continue;
                    };
                    let text = std::str::from_utf8(&bytes).expect("utf-8 document");
                    crate::Json::parse(text).expect("every read parses whole");
                    assert!(payloads.contains(&bytes), "read matches no writer's bytes");
                    reads += 1;
                }
                reads
            });
            let writers: Vec<_> = payloads
                .iter()
                .map(|payload| {
                    let target = &target;
                    scope.spawn(move || {
                        for _ in 0..ROUNDS {
                            write_bytes_atomic(target, payload).expect("publishes");
                        }
                    })
                })
                .collect();
            // Join every writer before stopping the reader, so a failed
            // publish ends the test instead of leaving the reader spinning.
            let published: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
            done.store(true, Ordering::Relaxed);
            let reads = reader.join().unwrap();
            for result in published {
                result.unwrap();
            }
            reads
        });
        assert!(reads > 0, "the reader saw at least one published document");
        let last = fs::read(&target).unwrap();
        assert!(payloads.contains(&last));
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exact_conversions_round_trip_and_reject_overflow() {
        assert_eq!(u64_exact(0), 0);
        assert_eq!(u64_exact(usize::MAX), usize::MAX as u64);
        assert_eq!(usize_exact(42), Some(42));
        assert_eq!(usize_exact(u64_exact(usize::MAX)), Some(usize::MAX));
        if usize::BITS < 64 {
            assert_eq!(usize_exact(u64::MAX), None);
        }
    }
}
