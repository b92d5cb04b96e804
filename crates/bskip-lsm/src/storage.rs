//! Pluggable storage backend for the LSM engine.
//!
//! Every file operation the engine performs — create, append, positional
//! read, sync, rename, remove, directory listing — goes through the
//! [`Storage`] / [`StorageFile`] traits instead of `std::fs` directly.
//! Production uses [`StdFs`], the real filesystem with no state of its
//! own; on 64-bit unix it reads a table out of one read-only mapping of
//! the file instead of one `pread` per block. Tests use [`FaultFs`], a
//! deterministic in-memory filesystem with scripted fault schedules and
//! buffer-until-fsync crash semantics, which makes crash consistency
//! *provable* instead of assumed: a simulated crash discards every byte
//! not covered by a successful sync, and reopening the engine against the
//! survivor image must recover exactly the acknowledged prefix.
//!
//! The model mirrors the LevelDB/RocksDB `Env` split: the engine holds an
//! `Arc<dyn Storage>` and threads `&dyn Storage` into the WAL, SSTable
//! and manifest modules, so the indirection is two vtable calls per I/O —
//! nothing on the in-memory hot path.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// An open file handle: append-at-end writes plus positional reads.
///
/// Appends take `&mut self` (one writer per handle); positional reads
/// take `&self` so many cursors can share one table handle.
// `len` is fallible I/O, not a collection length — `is_empty` would be
// a second syscall for a question no caller asks.
#[allow(clippy::len_without_is_empty)]
pub trait StorageFile: Send + Sync {
    /// Append `data` at the end of the file.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;

    /// Read exactly `buf.len()` bytes starting at `offset`.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;

    /// Flush file *data* to durable storage (`fdatasync`).
    fn sync_data(&self) -> io::Result<()>;

    /// Flush file data and metadata to durable storage (`fsync`).
    fn sync_all(&self) -> io::Result<()>;

    /// Current length of the file in bytes.
    fn len(&self) -> io::Result<u64>;
}

/// A filesystem: the factory for [`StorageFile`] handles plus the
/// metadata operations (rename, remove, listing) the engine needs.
pub trait Storage: Send + Sync {
    /// Create (or truncate) a file and open it for appending.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Open an existing file for appending after truncating it to
    /// `valid_len` bytes (WAL torn-tail resumption).
    fn open_append(&self, path: &Path, valid_len: u64) -> io::Result<Box<dyn StorageFile>>;

    /// Open an existing file for positional reads.
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Read a whole file into memory.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Atomically rename `from` to `to`, replacing any existing file.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove a file. Open handles remain readable (POSIX unlink).
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// List the file names (not paths) directly inside `dir`.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>>;

    /// Create a directory and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Flush directory metadata (the rename journal) to durable storage.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------------------
// StdFs — the production filesystem
// ---------------------------------------------------------------------------

/// Zero-state production [`Storage`] over `std::fs`.
///
/// Writes, syncs and metadata operations go straight to `std::fs`. On a
/// 64-bit unix host, [`open_read`](Storage::open_read) maps the whole
/// file read-only once, at open, and a positioned read is a bounds check
/// plus a copy out of that mapping — no syscall per block. Elsewhere it
/// is one positioned read (`pread`) per call. Either way every read
/// copies into the caller's buffer, so the block checksums above see
/// exactly the bytes a `pread` would have returned.
///
/// The mapping relies on the engine owning its directory: a table file
/// is never shrunk while it is open, only unlinked, and an unlinked file
/// stays mapped until its last handle drops. If another process
/// truncates a live table file, reading the cut-off part raises `SIGBUS`
/// rather than returning an [`io::Error`]; bytes another process
/// changes in place are caught by the block checksum like any other
/// corruption.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

struct StdFile {
    file: File,
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    // `Seek`/`Read` are implemented for `&File`; the shared cursor makes
    // this racy under concurrent readers, matching the previous in-tree
    // non-unix fallback.
    let mut handle = file;
    handle.seek(SeekFrom::Start(offset))?;
    handle.read_exact(buf)
}

impl StorageFile for StdFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.file.write_all(data)
    }

    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        read_exact_at(&self.file, buf, offset)
    }

    fn sync_data(&self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn sync_all(&self) -> io::Result<()> {
        self.file.sync_all()
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

/// The read-only handle [`StdFs::open_read`] returns: the file opened
/// for reading plus one shared, read-only mapping of all of it.
#[cfg(all(unix, target_pointer_width = "64"))]
fn open_for_reads(file: File) -> io::Result<Box<dyn StorageFile>> {
    Ok(Box::new(mapped::MappedFile::new(file)?))
}

/// The read-only handle [`StdFs::open_read`] returns where the mapping
/// is not built: one positioned read per call.
#[cfg(not(all(unix, target_pointer_width = "64")))]
fn open_for_reads(file: File) -> io::Result<Box<dyn StorageFile>> {
    Ok(Box::new(StdFile { file }))
}

/// A whole file mapped `PROT_READ` / `MAP_SHARED` at open; reads copy out
/// of the mapping. `MAP_SHARED` makes a write through another descriptor
/// visible here, as it would be to a `pread`.
#[cfg(all(unix, target_pointer_width = "64"))]
mod mapped {
    use super::StorageFile;
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io::{self, Write};
    use std::os::fd::AsRawFd;
    use std::ptr::{self, NonNull};

    // On a 64-bit unix target `off_t` is 64 bits wide, and `PROT_READ`
    // and `MAP_SHARED` are both 1 on Linux and macOS. std links libc, so
    // the two calls need no crate.
    const PROT_READ: c_int = 1;
    const MAP_SHARED: c_int = 1;
    const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    unsafe extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub(super) struct MappedFile {
        /// Kept for the syncs, and so `append` fails as a read-only
        /// descriptor's does.
        file: File,
        /// First byte of the mapping; dangling when `len` is 0, for which
        /// nothing is mapped.
        base: NonNull<u8>,
        /// Length of the file at open, and of the mapping.
        len: usize,
    }

    // SAFETY: `file` and `len` are `Send`.  `base` is the one field that
    // is not: it points at a mapping this handle owns alone (mapped in
    // `new`, unmapped in `Drop`, and no reference into it is handed out),
    // which is process-wide memory, valid from any thread.
    unsafe impl Send for MappedFile {}

    // SAFETY: `file` and `len` are `Sync`.  Through `&self`, `base` is only
    // read from — the mapping is `PROT_READ`, every `&self` method copies
    // out of it — and it stays mapped until `Drop`, which needs `&mut self`.
    unsafe impl Sync for MappedFile {}

    impl MappedFile {
        pub(super) fn new(file: File) -> io::Result<Self> {
            // Lossless: `usize` is 64 bits wide on this target.
            let len = file.metadata()?.len() as usize;
            let mut base = NonNull::dangling();
            if len > 0 {
                // SAFETY: a fresh mapping at an address the kernel picks
                // (no `MAP_FIXED`), so it replaces nothing; the descriptor
                // is open for reading, which is all `PROT_READ` needs.
                let addr = unsafe {
                    mmap(
                        ptr::null_mut(),
                        len,
                        PROT_READ,
                        MAP_SHARED,
                        file.as_raw_fd(),
                        0,
                    )
                };
                if addr == MAP_FAILED {
                    return Err(io::Error::last_os_error());
                }
                base =
                    NonNull::new(addr.cast()).expect("mmap without MAP_FIXED never maps address 0");
            }
            Ok(MappedFile { file, base, len })
        }
    }

    impl Drop for MappedFile {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: `base` and `len` are the mapping `mmap` returned
                // in `new`, unmapped only here; `&mut self` rules out a copy
                // in flight, and nothing else points into it.
                unsafe { munmap(self.base.as_ptr().cast(), self.len) };
            }
        }
    }

    impl StorageFile for MappedFile {
        fn append(&mut self, data: &[u8]) -> io::Result<()> {
            self.file.write_all(data)
        }

        fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
            // An empty read succeeds at any offset, as `read_exact_at`'s does.
            if buf.is_empty() {
                return Ok(());
            }
            let start = usize::try_from(offset).ok().filter(|start| {
                start
                    .checked_add(buf.len())
                    .is_some_and(|end| end <= self.len)
            });
            let Some(start) = start else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "read past end of file",
                ));
            };
            // SAFETY: `start..start + buf.len()` lies inside the `len` bytes
            // mapped at `base` (checked just above), which stay mapped until
            // `Drop` and so for all of `&self`; `buf` is a distinct, writable
            // buffer of exactly that many bytes.  Every page in range is
            // backed by the file: the engine never shrinks a table after
            // `TableBuilder::finish`, it removes tables only by unlink, and
            // an unlinked inode stays mapped (see `StdFs`).  A byte another
            // descriptor changes meanwhile is still some `u8`, and the
            // block checksum above rejects it.
            unsafe {
                ptr::copy_nonoverlapping(self.base.as_ptr().add(start), buf.as_mut_ptr(), buf.len())
            };
            Ok(())
        }

        fn sync_data(&self) -> io::Result<()> {
            self.file.sync_data()
        }

        fn sync_all(&self) -> io::Result<()> {
            self.file.sync_all()
        }

        fn len(&self) -> io::Result<u64> {
            Ok(self.len as u64)
        }
    }
}

impl Storage for StdFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(StdFile { file }))
    }

    fn open_append(&self, path: &Path, valid_len: u64) -> io::Result<Box<dyn StorageFile>> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(Box::new(StdFile { file }))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        open_for_reads(File::open(path)?)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    #[cfg(unix)]
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }

    #[cfg(not(unix))]
    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// FaultFs — deterministic in-memory filesystem with fault injection
// ---------------------------------------------------------------------------

/// One in-memory file. `live` is what the running process observes;
/// `durable` is what survives a simulated crash. Syncing copies
/// `live` into `durable`; [`FaultFs::reboot`] copies `durable` back.
#[derive(Debug, Default)]
struct Inode {
    live: Vec<u8>,
    durable: Vec<u8>,
}

#[derive(Debug, Default)]
struct FaultState {
    /// Path → inode. Handles hold an `Arc` to the inode, so an unlinked
    /// file stays readable through open handles (POSIX semantics —
    /// compaction deletes input tables while cursors still stream them).
    files: BTreeMap<PathBuf, Arc<Mutex<Inode>>>,
    /// Mutating storage ops performed so far (create, open-append,
    /// append, sync, rename, remove, sync-dir — not reads).
    ops: u64,
    /// Appends performed so far (a subset of `ops`).
    writes: u64,
    /// Syncs performed so far (a subset of `ops`).
    syncs: u64,
    /// Positioned reads performed so far (not part of `ops`).
    reads: u64,
    /// Once true, every mutating op fails until [`FaultFs::reboot`].
    crashed: bool,
    /// Crash when the mutating-op index reaches this value.
    crash_at: Option<u64>,
    /// One-shot: fail the append with this absolute index.
    fail_write: Option<(u64, io::ErrorKind)>,
    /// One-shot: the append with this absolute index writes only a
    /// prefix of its payload, then fails (torn write).
    torn_write: Option<(u64, usize)>,
    /// One-shot: fail the sync with this absolute index.
    fail_sync: Option<(u64, io::ErrorKind)>,
}

fn simulated_crash() -> io::Error {
    io::Error::other("FaultFs: simulated crash")
}

impl FaultState {
    /// Count one mutating op, triggering the crash schedule if armed.
    fn mutating_op(&mut self) -> io::Result<()> {
        if self.crashed {
            return Err(simulated_crash());
        }
        let index = self.ops;
        self.ops += 1;
        if self.crash_at.is_some_and(|at| index >= at) {
            self.crashed = true;
            return Err(simulated_crash());
        }
        Ok(())
    }
}

/// Deterministic in-memory [`Storage`] with scripted fault injection.
///
/// Crash model (simplified from a journalling filesystem):
/// - File **data** buffers in memory until a successful `sync_data` /
///   `sync_all` on that file's handle; [`reboot`](FaultFs::reboot)
///   discards unsynced bytes.
/// - **Metadata** (create, truncate-on-open, rename, remove) is durable
///   immediately, as if the directory journal committed synchronously.
///
/// Fault schedules are one-shot and indexed from the current counters:
/// `fail_nth_write(1, kind)` fails the very next append. A scheduled
/// crash ([`crash_at_op`](FaultFs::crash_at_op)) is sticky: the op at
/// that index and every mutating op after it fail until `reboot`.
///
/// Cloning a `FaultFs` shares the same filesystem (it is an
/// `Arc` around the state), so tests can keep a handle while the
/// engine owns another.
#[derive(Debug, Default, Clone)]
pub struct FaultFs {
    state: Arc<Mutex<FaultState>>,
}

struct FaultFile {
    state: Arc<Mutex<FaultState>>,
    inode: Arc<Mutex<Inode>>,
}

impl FaultFs {
    /// An empty in-memory filesystem with no faults scheduled.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutating storage ops performed so far. Running the same workload
    /// twice yields the same count — the basis for crash-point
    /// enumeration.
    pub fn op_count(&self) -> u64 {
        self.lock().ops
    }

    /// Appends performed so far.
    pub fn write_count(&self) -> u64 {
        self.lock().writes
    }

    /// Syncs performed so far.
    pub fn sync_count(&self) -> u64 {
        self.lock().syncs
    }

    /// Positioned reads (`read_at` calls) performed so far, failed ones
    /// included — what a read path's block-load budget is counted in.
    /// Reads are not mutating ops: they do not move
    /// [`op_count`](FaultFs::op_count) or any fault schedule.
    pub fn read_count(&self) -> u64 {
        self.lock().reads
    }

    /// Fail the `n`th append from now (1 = the next one) with `kind`.
    pub fn fail_nth_write(&self, n: u64, kind: io::ErrorKind) {
        assert!(n >= 1, "fault indices are 1-based");
        let mut state = self.lock();
        state.fail_write = Some((state.writes + n - 1, kind));
    }

    /// The `n`th append from now writes only its first `keep` bytes,
    /// then fails (torn write).
    pub fn torn_nth_write(&self, n: u64, keep: usize) {
        assert!(n >= 1, "fault indices are 1-based");
        let mut state = self.lock();
        state.torn_write = Some((state.writes + n - 1, keep));
    }

    /// Fail the `n`th sync from now (1 = the next one) with `kind`.
    pub fn fail_nth_sync(&self, n: u64, kind: io::ErrorKind) {
        assert!(n >= 1, "fault indices are 1-based");
        let mut state = self.lock();
        state.fail_sync = Some((state.syncs + n - 1, kind));
    }

    /// Crash when the mutating-op index reaches `at` (0-based, compared
    /// against [`op_count`](FaultFs::op_count)). That op and every
    /// mutating op after it fail until [`reboot`](FaultFs::reboot).
    pub fn crash_at_op(&self, at: u64) {
        self.lock().crash_at = Some(at);
    }

    /// Crash immediately: every mutating op fails until `reboot`.
    pub fn crash_now(&self) {
        self.lock().crashed = true;
    }

    /// Whether a scheduled or explicit crash has fired.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Drop all scheduled faults without touching file contents.
    pub fn clear_faults(&self) {
        let mut state = self.lock();
        state.crash_at = None;
        state.fail_write = None;
        state.torn_write = None;
        state.fail_sync = None;
    }

    /// Simulate a machine reboot: every file reverts to its last synced
    /// content, scheduled faults and the crashed flag clear, and the op
    /// counters reset. Open handles from before the reboot keep
    /// observing their inode but belong to the "previous life".
    pub fn reboot(&self) {
        let mut state = self.lock();
        for inode in state.files.values() {
            let mut inode = inode.lock().unwrap_or_else(PoisonError::into_inner);
            let durable = inode.durable.clone();
            inode.live = durable;
        }
        state.crashed = false;
        state.crash_at = None;
        state.fail_write = None;
        state.torn_write = None;
        state.fail_sync = None;
        state.ops = 0;
        state.writes = 0;
        state.syncs = 0;
        state.reads = 0;
    }

    /// Test helper: mark every file's current content durable, as if
    /// each open handle were fsynced. Lets a test build a valid image,
    /// then hand-edit `live` state before a reboot.
    pub fn sync_all_files(&self) {
        let state = self.lock();
        for inode in state.files.values() {
            let mut inode = inode.lock().unwrap_or_else(PoisonError::into_inner);
            let live = inode.live.clone();
            inode.durable = live;
        }
    }

    /// The current (live) content of `path`, for test assertions.
    pub fn live_contents(&self, path: &Path) -> Option<Vec<u8>> {
        let state = self.lock();
        let inode = state.files.get(path)?;
        let inode = inode.lock().unwrap_or_else(PoisonError::into_inner);
        Some(inode.live.clone())
    }

    fn get_inode(&self, path: &Path) -> io::Result<Arc<Mutex<Inode>>> {
        let state = self.lock();
        state.files.get(path).cloned().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("FaultFs: no such file: {}", path.display()),
            )
        })
    }
}

impl Storage for FaultFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let inode = {
            let mut state = self.lock();
            state.mutating_op()?;
            let inode = Arc::new(Mutex::new(Inode::default()));
            state.files.insert(path.to_path_buf(), Arc::clone(&inode));
            inode
        };
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            inode,
        }))
    }

    fn open_append(&self, path: &Path, valid_len: u64) -> io::Result<Box<dyn StorageFile>> {
        let inode = {
            let mut state = self.lock();
            state.mutating_op()?;
            let inode = state.files.get(path).cloned().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("FaultFs: no such file: {}", path.display()),
                )
            })?;
            {
                // Truncation is metadata: durable immediately in this model.
                let mut guard = inode.lock().unwrap_or_else(PoisonError::into_inner);
                let len = valid_len as usize;
                if guard.live.len() > len {
                    guard.live.truncate(len);
                }
                if guard.durable.len() > len {
                    guard.durable.truncate(len);
                }
            }
            inode
        };
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            inode,
        }))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let inode = self.get_inode(path)?;
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            inode,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let inode = self.get_inode(path)?;
        let inode = inode.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(inode.live.clone())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut state = self.lock();
        state.mutating_op()?;
        let inode = state.files.remove(from).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("FaultFs: no such file: {}", from.display()),
            )
        })?;
        state.files.insert(to.to_path_buf(), inode);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        state.mutating_op()?;
        state.files.remove(path).map(drop).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("FaultFs: no such file: {}", path.display()),
            )
        })
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let state = self.lock();
        let mut names = Vec::new();
        for path in state.files.keys() {
            if path.parent() == Some(dir) {
                if let Some(name) = path.file_name().and_then(|name| name.to_str()) {
                    names.push(name.to_string());
                }
            }
        }
        Ok(names)
    }

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        let mut state = self.lock();
        state.mutating_op()?;
        state.syncs += 1;
        Ok(())
    }
}

impl FaultFile {
    fn sync_impl(&self) -> io::Result<()> {
        {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.mutating_op()?;
            let index = state.syncs;
            state.syncs += 1;
            if let Some((at, kind)) = state.fail_sync {
                if index >= at {
                    state.fail_sync = None;
                    return Err(io::Error::new(kind, "FaultFs: injected sync failure"));
                }
            }
        }
        let mut inode = self.inode.lock().unwrap_or_else(PoisonError::into_inner);
        let live = inode.live.clone();
        inode.durable = live;
        Ok(())
    }
}

impl StorageFile for FaultFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let torn = {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.mutating_op()?;
            let index = state.writes;
            state.writes += 1;
            if let Some((at, kind)) = state.fail_write {
                if index >= at {
                    state.fail_write = None;
                    return Err(io::Error::new(kind, "FaultFs: injected write failure"));
                }
            }
            match state.torn_write {
                Some((at, keep)) if index >= at => {
                    state.torn_write = None;
                    Some(keep)
                }
                _ => None,
            }
        };
        let mut inode = self.inode.lock().unwrap_or_else(PoisonError::into_inner);
        match torn {
            Some(keep) => {
                let keep = keep.min(data.len());
                inode.live.extend_from_slice(&data[..keep]);
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "FaultFs: injected torn write",
                ))
            }
            None => {
                inode.live.extend_from_slice(data);
                Ok(())
            }
        }
    }

    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .reads += 1;
        let inode = self.inode.lock().unwrap_or_else(PoisonError::into_inner);
        let start = offset as usize;
        let end = start.checked_add(buf.len());
        match end {
            Some(end) if end <= inode.live.len() => {
                buf.copy_from_slice(&inode.live[start..end]);
                Ok(())
            }
            _ => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "FaultFs: read past end of file",
            )),
        }
    }

    fn sync_data(&self) -> io::Result<()> {
        self.sync_impl()
    }

    fn sync_all(&self) -> io::Result<()> {
        self.sync_impl()
    }

    fn len(&self) -> io::Result<u64> {
        let inode = self.inode.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(inode.live.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(name: &str) -> PathBuf {
        PathBuf::from("/db").join(name)
    }

    /// An empty directory of its own for one real-file test.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bskip-storage-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn std_fs_round_trip() {
        let dir = scratch_dir("round-trip");
        let fs = StdFs;

        let file_a = dir.join("a.log");
        let mut handle = fs.create(&file_a).expect("create");
        handle.append(b"hello ").expect("append");
        handle.append(b"world").expect("append");
        handle.sync_data().expect("sync");
        assert_eq!(handle.len().expect("len"), 11);

        let reader = fs.open_read(&file_a).expect("open_read");
        let mut buf = [0u8; 5];
        reader.read_at(&mut buf, 6).expect("read_at");
        assert_eq!(&buf, b"world");
        assert!(reader.read_at(&mut buf, 9).is_err(), "short read errors");

        let file_b = dir.join("b.log");
        fs.rename(&file_a, &file_b).expect("rename");
        assert_eq!(fs.read(&file_b).expect("read"), b"hello world");
        assert!(fs.read(&file_a).is_err());

        let mut names = fs.read_dir(&dir).expect("read_dir");
        names.sort();
        assert_eq!(names, ["b.log"]);
        fs.sync_dir(&dir).expect("sync_dir");

        // Reopen at a truncated length and resume appending.
        let mut resumed = fs.open_append(&file_b, 5).expect("open_append");
        resumed.append(b"!").expect("append");
        drop(resumed);
        assert_eq!(fs.read(&file_b).expect("read"), b"hello!");

        fs.remove(&file_b).expect("remove");
        assert!(fs.read(&file_b).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The bytes one `read_at` of `len` bytes at `offset` fills in, or the
    /// kind of error it fails with.
    fn read_outcome(
        file: &dyn StorageFile,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, io::ErrorKind> {
        let mut buf = vec![0u8; len];
        match file.read_at(&mut buf, offset) {
            Ok(()) => Ok(buf),
            Err(error) => Err(error.kind()),
        }
    }

    #[test]
    #[cfg(all(unix, target_pointer_width = "64"))]
    #[cfg_attr(miri, ignore)]
    fn mapped_reads_answer_like_pread() {
        let dir = scratch_dir("mapped");
        let contents: Vec<u8> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        let open = |bytes: &[u8], name: &str| {
            let path = dir.join(name);
            std::fs::write(&path, bytes).expect("write");
            let pread = StdFile {
                file: File::open(&path).expect("open"),
            };
            let mapped = mapped::MappedFile::new(File::open(&path).expect("open")).expect("map");
            (pread, mapped)
        };
        for (bytes, name) in [(&contents[..], "full"), (&[][..], "empty")] {
            let (pread, mapped) = open(bytes, name);
            let len = bytes.len() as u64;
            assert_eq!(pread.len().expect("len"), len);
            assert_eq!(mapped.len().expect("len"), len);
            let k = 7;
            for offset in [0, len / 2, len.saturating_sub(k), len, len + 1] {
                let to_end = len.saturating_sub(offset) as usize;
                for read_len in [0, 1, k as usize, to_end, to_end + 1] {
                    let expected = read_outcome(&pread, offset, read_len);
                    if let Ok(read) = &expected {
                        let start = offset as usize;
                        assert!(read.is_empty() || read[..] == bytes[start..start + read_len]);
                    }
                    assert_eq!(
                        read_outcome(&mapped, offset, read_len),
                        expected,
                        "{name}: {read_len} bytes at {offset}"
                    );
                }
            }
        }

        // Four threads read random 4 KiB windows out of one handle at once.
        let (_, mapped) = open(&contents, "shared");
        let window = 4_096;
        std::thread::scope(|scope| {
            for seed in 1..=4u64 {
                let (mapped, contents) = (&mapped, &contents);
                scope.spawn(move || {
                    let mut draw = seed;
                    let mut buf = vec![0u8; window];
                    for _ in 0..2_000 {
                        draw = draw.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
                        let offset = (draw >> 33) as usize % (contents.len() - window + 1);
                        mapped.read_at(&mut buf, offset as u64).expect("in range");
                        assert_eq!(buf[..], contents[offset..offset + window]);
                    }
                });
            }
        });
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn std_fs_handle_reads_an_unlinked_file() {
        let dir = scratch_dir("unlinked");
        unlinked_file_stays_readable(&StdFs, &dir.join("tab"));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn std_fs_handle_sees_a_byte_written_in_place() {
        let dir = scratch_dir("in-place");
        let fs = StdFs;
        let path = dir.join("tab");
        std::fs::write(&path, b"block").expect("write");
        let reader = fs.open_read(&path).expect("open_read");
        let mut buf = [0u8; 5];
        reader.read_at(&mut buf, 0).expect("read");
        assert_eq!(&buf, b"block");
        // A second descriptor changes one byte in place, as a bit flip on
        // disk would; the open handle must read it, not a stale copy.
        let mut other = OpenOptions::new().write(true).open(&path).expect("open");
        other.seek(SeekFrom::Start(2)).expect("seek");
        other.write_all(b"O").expect("write in place");
        reader.read_at(&mut buf, 0).expect("read");
        assert_eq!(&buf, b"blOck");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn fault_fs_buffers_until_fsync() {
        let fs = FaultFs::new();
        let mut handle = fs.create(&path("wal")).expect("create");
        handle.append(b"synced").expect("append");
        handle.sync_data().expect("sync");
        handle.append(b" unsynced").expect("append");
        assert_eq!(fs.read(&path("wal")).expect("read"), b"synced unsynced");

        fs.reboot();
        assert_eq!(
            fs.read(&path("wal")).expect("read"),
            b"synced",
            "unsynced bytes vanish at reboot"
        );
    }

    #[test]
    fn fault_fs_injects_write_sync_and_torn_faults() {
        let fs = FaultFs::new();
        let mut handle = fs.create(&path("f")).expect("create");

        fs.fail_nth_write(2, io::ErrorKind::StorageFull);
        handle.append(b"one").expect("first write fine");
        let err = handle.append(b"two").expect_err("second write fails");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        handle.append(b"three").expect("one-shot fault cleared");
        assert_eq!(fs.read(&path("f")).expect("read"), b"onethree");

        fs.torn_nth_write(1, 2);
        let err = handle.append(b"XYZW").expect_err("torn write fails");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(
            fs.read(&path("f")).expect("read"),
            b"onethreeXY",
            "torn write keeps the scheduled prefix"
        );

        fs.fail_nth_sync(1, io::ErrorKind::Interrupted);
        let err = handle.sync_all().expect_err("sync fails");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        handle.sync_all().expect("one-shot sync fault cleared");
    }

    #[test]
    fn failed_sync_leaves_bytes_volatile() {
        let fs = FaultFs::new();
        let mut handle = fs.create(&path("f")).expect("create");
        handle.append(b"abc").expect("append");
        fs.fail_nth_sync(1, io::ErrorKind::Other);
        assert!(handle.sync_data().is_err());
        fs.reboot();
        assert_eq!(
            fs.read(&path("f")).expect("read"),
            b"",
            "a failed sync must not make bytes durable"
        );
    }

    #[test]
    fn crash_at_op_is_sticky_until_reboot() {
        let fs = FaultFs::new();
        let mut handle = fs.create(&path("f")).expect("create"); // op 0
        handle.append(b"a").expect("append"); // op 1
        handle.sync_data().expect("sync"); // op 2
        fs.crash_at_op(3);
        assert!(handle.append(b"b").is_err(), "op 3 crashes");
        assert!(handle.sync_data().is_err(), "everything after fails");
        assert!(fs.rename(&path("f"), &path("g")).is_err());
        assert!(fs.crashed());
        // Reads still work: the engine may serve lookups while degraded.
        assert_eq!(fs.read(&path("f")).expect("read"), b"a");

        fs.reboot();
        assert!(!fs.crashed());
        assert_eq!(fs.op_count(), 0, "counters reset for the next life");
        let mut handle = fs.open_append(&path("f"), 1).expect("reopen");
        handle.append(b"c").expect("appends work again");
    }

    #[test]
    fn metadata_is_durable_data_is_not() {
        let fs = FaultFs::new();
        let mut handle = fs.create(&path("tmp")).expect("create");
        handle.append(b"manifest").expect("append");
        handle.sync_all().expect("sync");
        handle.append(b" tail").expect("append unsynced");
        fs.rename(&path("tmp"), &path("MANIFEST")).expect("rename");
        fs.reboot();
        assert_eq!(
            fs.read(&path("MANIFEST")).expect("read"),
            b"manifest",
            "rename survives (metadata), unsynced tail does not (data)"
        );
        assert!(fs.read(&path("tmp")).is_err());
    }

    /// Writes a file at `path`, opens it for reads, unlinks it, and reads
    /// it through the open handle.
    fn unlinked_file_stays_readable(fs: &dyn Storage, path: &Path) {
        let mut writer = fs.create(path).expect("create");
        writer.append(b"block").expect("append");
        let reader = fs.open_read(path).expect("open_read");
        fs.remove(path).expect("remove");
        assert!(fs.read(path).is_err(), "name is gone");
        let mut buf = [0u8; 5];
        reader.read_at(&mut buf, 0).expect("handle still reads");
        assert_eq!(&buf, b"block");
    }

    #[test]
    fn unlinked_file_stays_readable_through_open_handle() {
        unlinked_file_stays_readable(&FaultFs::new(), &path("tab"));
    }

    #[test]
    fn read_dir_lists_only_direct_children() {
        let fs = FaultFs::new();
        fs.create(&path("a")).expect("create");
        fs.create(&path("b")).expect("create");
        fs.create(&PathBuf::from("/other").join("c"))
            .expect("create");
        let mut names = fs.read_dir(Path::new("/db")).expect("read_dir");
        names.sort();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn op_counts_are_deterministic() {
        let run = || {
            let fs = FaultFs::new();
            let mut handle = fs.create(&path("f")).expect("create");
            for i in 0..10u8 {
                handle.append(&[i]).expect("append");
                if i % 3 == 0 {
                    handle.sync_data().expect("sync");
                }
            }
            fs.rename(&path("f"), &path("g")).expect("rename");
            // Reads are counted apart, failed ones included, and move no
            // mutating-op index.
            let ops = fs.op_count();
            let reader = fs.open_read(&path("g")).expect("open");
            let mut buf = [0u8; 4];
            reader.read_at(&mut buf, 6).expect("in range");
            reader.read_at(&mut buf, 7).expect_err("past the end");
            assert_eq!((fs.read_count(), fs.op_count()), (2, ops));
            ops
        };
        assert_eq!(run(), run(), "same workload, same op count");
    }
}
