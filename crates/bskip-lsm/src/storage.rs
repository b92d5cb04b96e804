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
use std::io::{self, Write};
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
use std::io::{Seek, SeekFrom};
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
/// Syncs and metadata operations go straight to `std::fs`. On a 64-bit
/// unix host, [`open_read`](Storage::open_read) maps the whole file
/// read-only once, at open, and a positioned read is a bounds check plus
/// a copy out of that mapping — no syscall per block. Elsewhere it is one
/// positioned read (`pread`) per call. Either way every read copies into
/// the caller's buffer, so the block checksums above see exactly the
/// bytes a `pread` would have returned.
///
/// On 64-bit Linux, a handle from [`create`](Storage::create) or
/// [`open_append`](Storage::open_append) maps the 64 KiB-aligned extent
/// it is writing into, shared and writable, after reserving it with
/// `posix_fallocate`; an append of fewer than 1 KiB is a bounds check
/// plus a copy into that mapping — the page cache, so it survives the
/// death of the process as a `write` would — and a larger one is one
/// `pwrite` at the end, as is the first small one after the handle opens
/// or syncs. Until the handle is synced or dropped the file may run on
/// into up to 64 KiB of zeros past what was appended;
/// [`len`](StorageFile::len) is always the appended length, and a sync
/// or a drop cuts the file back to it, so the bytes on disk after either
/// are the ones a `write` per append would have left. Elsewhere an
/// append is one `write`.
///
/// CI builds and tests only 64-bit Linux, so the `write(2)` append and
/// `pread` read fallbacks, and the non-unix ones, are never compiled there.
///
/// The mappings rely on the engine owning its directory: a table file
/// is never shrunk while it is open, only unlinked, and an unlinked file
/// stays mapped until its last handle drops; no other process writes
/// the file an append handle has open. If another process truncates a
/// live table file, reading the cut-off part raises `SIGBUS` rather than
/// returning an [`io::Error`]; if it truncates a file an append handle
/// has reserved, the next append into the cut-off part raises `SIGBUS`.
/// Bytes another process changes in place are caught by the block or
/// frame checksum like any other corruption.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

/// A file handle that does every append and read with one syscall.  On
/// 64-bit Linux only the tests build one, as the `pread` reference.
#[cfg_attr(
    all(target_os = "linux", target_pointer_width = "64"),
    allow(dead_code)
)]
struct StdFile {
    file: File,
}

impl StorageFile for StdFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.file.write_all(data)
    }

    #[cfg(unix)]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, offset)
    }

    #[cfg(not(unix))]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        // `Seek`/`Read` are implemented for `&File`; the shared cursor makes
        // this racy under concurrent readers, matching the previous in-tree
        // non-unix fallback.
        use std::io::Read;
        let mut handle = &self.file;
        handle.seek(SeekFrom::Start(offset))?;
        handle.read_exact(buf)
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

/// The append handle [`StdFs::create`] and [`StdFs::open_append`] return
/// for `file`, opened for reading and writing and `len` bytes long: small
/// appends copy into a mapped, reserved extent.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn open_for_appends(file: File, len: u64) -> io::Result<Box<dyn StorageFile>> {
    Ok(Box::new(mapped::appender::MappedAppender::new(file, len)))
}

/// The append handle where appends are not mapped: one `write` each, at
/// the file's cursor.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn open_for_appends(mut file: File, len: u64) -> io::Result<Box<dyn StorageFile>> {
    file.seek(SeekFrom::Start(len))?;
    Ok(Box::new(StdFile { file }))
}

/// The mapped handles: a whole table file mapped `PROT_READ` /
/// `MAP_SHARED` at open, read by copying out of the mapping, and (on
/// Linux) an append handle that copies small appends into a mapped,
/// reserved extent. `MAP_SHARED` makes the mappings views of the page
/// cache, so a write through another descriptor is visible in them, and
/// a byte copied into one is visible to every `pread`, survives the
/// process, and is written back by `fsync` like one a `write` put there.
#[cfg(all(unix, target_pointer_width = "64"))]
mod mapped {
    use super::StorageFile;
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io::{self, Write};
    use std::os::fd::AsRawFd;
    use std::ptr::{self, NonNull};

    // On a 64-bit unix target `off_t` is 64 bits wide, and `PROT_READ`,
    // `PROT_WRITE` and `MAP_SHARED` are 1, 2 and 1 on Linux and macOS.
    // std links libc, so the calls need no crate.
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

    /// Maps `len > 0` bytes of `file` from `offset` (a multiple of the
    /// page size) shared, with protection `prot`.
    fn map(file: &File, len: usize, offset: u64, prot: c_int) -> io::Result<NonNull<u8>> {
        let offset =
            i64::try_from(offset).map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
        // SAFETY: a fresh mapping at an address the kernel picks (no
        // `MAP_FIXED`), so it replaces nothing; the kernel checks `prot`
        // against the descriptor's access mode and `offset`'s alignment.
        let addr = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                prot,
                MAP_SHARED,
                file.as_raw_fd(),
                offset,
            )
        };
        if addr == MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(NonNull::new(addr.cast()).expect("mmap without MAP_FIXED never maps address 0"))
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
            let base = if len > 0 {
                map(&file, len, 0, PROT_READ)?
            } else {
                NonNull::dangling()
            };
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

    #[cfg(target_os = "linux")]
    pub(super) mod appender {
        use super::{map, munmap, PROT_READ};
        use crate::storage::StorageFile;
        use std::ffi::c_int;
        use std::fs::File;
        use std::io;
        use std::os::fd::AsRawFd;
        use std::os::unix::fs::FileExt;
        use std::ptr::{self, NonNull};
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

        const PROT_WRITE: c_int = 2;

        unsafe extern "C" {
            // Returns an error number (0 on success) and leaves `errno`
            // alone.
            fn posix_fallocate(fd: c_int, offset: i64, len: i64) -> c_int;
        }

        /// The reservation unit, and the alignment of a reserved extent:
        /// RocksDB's mapped-write region size.
        pub(in crate::storage) const EXTENT: u64 = 64 << 10;

        /// Appends shorter than this may be copied into the mapped
        /// extent; longer ones are one `pwrite`.  A point write's WAL
        /// record (≈ 40 B) is far below it; a table build's 64 KiB staged
        /// appends and a 64-operation `execute` record (≈ 1.2 KiB) are
        /// above it, where a copy would trade one syscall for a zero-fill
        /// page fault per fresh 4 KiB page.
        pub(in crate::storage) const MAPPED_APPEND_BELOW: usize = 1 << 10;

        /// An append handle: appends go to the logical end `len`, small
        /// ones as copies into the mapped extent `[start, start + EXTENT)`
        /// that contains it, which is reserved (allocated, and inside the
        /// file) before the first copy.  The first small append after the
        /// handle opens or syncs is a `pwrite` all the same: a reservation
        /// pays for itself only across several appends before the sync
        /// that cuts it off, and a table's footer, a manifest or a
        /// `SyncPolicy::Always` record is one.
        pub(in crate::storage) struct MappedAppender {
            file: File,
            /// Bytes appended: where the next append goes, and the length
            /// a sync or a drop cuts the file back to.
            len: u64,
            /// The file is at least this long: the end of the extent this
            /// handle reserved, or `len` once a sync cut the reservation
            /// off (a sync has only `&self`, hence the atomic).  More than
            /// `len` means a zero tail that a sync or a drop must cut.
            reserved_to: AtomicU64,
            /// First byte of the mapped extent, and its offset in the
            /// file; `None` before the first mapped append.
            extent: Option<(NonNull<u8>, u64)>,
            /// Whether a small append came since the handle opened or
            /// last synced: the next one is mapped.
            warm: AtomicBool,
        }

        // SAFETY: `file`, `len`, `reserved_to` and `warm` are `Send`.  The
        // extent's pointer is a mapping this handle owns alone (mapped in
        // `mapped_tail`, unmapped in `unmap`), which is process-wide
        // memory, valid from any thread.
        unsafe impl Send for MappedAppender {}

        // SAFETY: through `&self` the extent is neither read nor written:
        // the copies into it take `&mut self`, `read_at` reads through the
        // descriptor, and a sync only shortens the file (it never touches
        // the mapping).
        unsafe impl Sync for MappedAppender {}

        impl MappedAppender {
            pub(in crate::storage) fn new(file: File, len: u64) -> Self {
                MappedAppender {
                    file,
                    len,
                    reserved_to: AtomicU64::new(len),
                    extent: None,
                    warm: AtomicBool::new(false),
                }
            }

            /// Where the `n` bytes of an append go in the mapped extent,
            /// once it is the one that holds `len..len + n`, reserved and
            /// mapped; `None` if the append would run past the extent or
            /// the reservation or the mapping failed (the append is then a
            /// `pwrite`).
            fn mapped_tail(&mut self, n: usize) -> Option<*mut u8> {
                let start = self.len & !(EXTENT - 1);
                if self.len + n as u64 > start + EXTENT {
                    return None;
                }
                let reserved_to = self.reserved_to.get_mut();
                if *reserved_to < start + EXTENT {
                    // Allocates the extent's blocks, so a copy into it can
                    // not meet a full disk, and grows the file over it.
                    // SAFETY: the call touches no memory of this process;
                    // it only allocates in, and lengthens, the file behind
                    // a descriptor this handle owns.
                    let status = unsafe {
                        posix_fallocate(self.file.as_raw_fd(), start as i64, EXTENT as i64)
                    };
                    if status != 0 {
                        return None;
                    }
                    *reserved_to = start + EXTENT;
                }
                let base = match self.extent {
                    Some((base, mapped)) if mapped == start => base,
                    _ => {
                        self.unmap();
                        let base =
                            map(&self.file, EXTENT as usize, start, PROT_READ | PROT_WRITE).ok()?;
                        self.extent = Some((base, start));
                        base
                    }
                };
                Some(base.as_ptr().wrapping_add((self.len - start) as usize))
            }

            fn unmap(&mut self) {
                if let Some((base, _)) = self.extent.take() {
                    // SAFETY: `base` is the `EXTENT`-byte mapping made in
                    // `mapped_tail`, unmapped only here, once (`take`);
                    // nothing else points into it.
                    unsafe { munmap(base.as_ptr().cast(), EXTENT as usize) };
                }
            }

            /// Cuts the file back to `len` if a reservation runs past it;
            /// the next small append is a `pwrite` again.
            fn cut_reservation(&self) -> io::Result<()> {
                self.warm.store(false, Ordering::Relaxed);
                if self.reserved_to.load(Ordering::Relaxed) > self.len {
                    self.file.set_len(self.len)?;
                    self.reserved_to.store(self.len, Ordering::Relaxed);
                }
                Ok(())
            }
        }

        impl Drop for MappedAppender {
            fn drop(&mut self) {
                self.unmap();
                // Nowhere to report a failure: the zero tail then stays,
                // and WAL replay ends at it.
                let _ = self.cut_reservation();
            }
        }

        impl StorageFile for MappedAppender {
            fn append(&mut self, data: &[u8]) -> io::Result<()> {
                if (1..MAPPED_APPEND_BELOW).contains(&data.len())
                    && std::mem::replace(self.warm.get_mut(), true)
                {
                    if let Some(tail) = self.mapped_tail(data.len()) {
                        // SAFETY: `mapped_tail` returned where `len` lies in
                        // a live, writable mapping of the extent holding all
                        // of `len..len + data.len()` (it checked that the
                        // range ends inside the extent); the file runs at
                        // least to the extent's end (`reserved_to`: only a
                        // sync cuts it back, and a sync cannot run during
                        // this `&mut self` call), so every page is backed.
                        // `data` is caller memory, not the mapping.
                        unsafe { ptr::copy_nonoverlapping(data.as_ptr(), tail, data.len()) };
                        self.len += data.len() as u64;
                        return Ok(());
                    }
                }
                self.file.write_all_at(data, self.len)?;
                self.len += data.len() as u64;
                Ok(())
            }

            fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
                // The file may run on past `len` into its reservation; a
                // read that does must fail as one past the end does.
                if buf.is_empty() {
                    return Ok(());
                }
                if offset
                    .checked_add(buf.len() as u64)
                    .is_none_or(|end| end > self.len)
                {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "read past end of file",
                    ));
                }
                self.file.read_exact_at(buf, offset)
            }

            fn sync_data(&self) -> io::Result<()> {
                self.cut_reservation()?;
                self.file.sync_data()
            }

            fn sync_all(&self) -> io::Result<()> {
                self.cut_reservation()?;
                self.file.sync_all()
            }

            fn len(&self) -> io::Result<u64> {
                Ok(self.len)
            }
        }
    }
}

impl Storage for StdFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        // Readable as well: a shared writable mapping needs it.
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        open_for_appends(file, 0)
    }

    fn open_append(&self, path: &Path, valid_len: u64) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        open_for_appends(file, valid_len)
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

    /// Whether a scheduled crash has fired.
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
    use std::io::{Seek, SeekFrom};

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

    /// The bytes of `path` and its length as the filesystem reports it.
    fn on_disk(path: &Path) -> (Vec<u8>, u64) {
        let len = std::fs::metadata(path).expect("stat").len();
        (std::fs::read(path).expect("read"), len)
    }

    /// A `StdFs` append handle against a `Vec<u8>` model: random appends
    /// on both sides of the mapped-append threshold and across 64 KiB
    /// extents, interleaved with reads, syncs, and drops followed by a
    /// re-open.  Between syncs the file may run on into a reservation,
    /// never more than 64 KiB past the appended length; after every sync
    /// and drop it is exactly the model.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn std_fs_appends_answer_like_a_vec() {
        const EXTENT: u64 = 64 << 10;
        let dir = scratch_dir("appends");
        let path = dir.join("log");
        let fs = StdFs;
        let mut model: Vec<u8> = Vec::new();
        let mut handle = fs.create(&path).expect("create");
        let mut draw = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |below: u64| {
            draw = draw.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
            (draw >> 33) % below
        };
        let (mut syncs, mut reopens) = (0, 0);
        for step in 0..2_000 {
            match next(100) {
                0..=79 => {
                    let len = match next(100) {
                        0..=64 => 1 + next(64),
                        65..=74 => 1_000 + next(50),
                        75..=89 => 1 + next(3_000),
                        90..=92 => 60_000 + next(10_000),
                        _ => 0,
                    };
                    let data: Vec<u8> = (0..len).map(|_| next(256) as u8).collect();
                    handle.append(&data).expect("append");
                    model.extend_from_slice(&data);
                }
                80..=89 => {
                    let len = model.len() as u64;
                    let offset = next(len + 1);
                    let mut buf = vec![0u8; next(len - offset + 1) as usize];
                    handle.read_at(&mut buf, offset).expect("read inside");
                    assert_eq!(buf[..], model[offset as usize..offset as usize + buf.len()]);
                    let past = handle.read_at(&mut [0u8; 1], len).expect_err("read past");
                    assert_eq!(past.kind(), io::ErrorKind::UnexpectedEof, "step {step}");
                }
                90..=94 => {
                    if step % 2 == 0 {
                        handle.sync_data().expect("sync_data");
                    } else {
                        handle.sync_all().expect("sync_all");
                    }
                    syncs += 1;
                    assert_eq!(
                        on_disk(&path),
                        (model.clone(), model.len() as u64),
                        "step {step}"
                    );
                }
                _ => {
                    drop(handle);
                    reopens += 1;
                    assert_eq!(
                        on_disk(&path),
                        (model.clone(), model.len() as u64),
                        "step {step}"
                    );
                    handle = fs.open_append(&path, model.len() as u64).expect("reopen");
                }
            }
            assert_eq!(handle.len().expect("len"), model.len() as u64);
            let file_len = std::fs::metadata(&path).expect("stat").len();
            let reserved = file_len - model.len() as u64;
            assert!(reserved <= EXTENT, "step {step}: {reserved} bytes reserved");
        }
        assert!(
            syncs > 50 && reopens > 50,
            "{syncs} syncs, {reopens} reopens"
        );
        assert!(model.len() > 4 * EXTENT as usize, "{} bytes", model.len());
        drop(handle);
        assert_eq!(on_disk(&path), (model.clone(), model.len() as u64));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    /// Where the mapping is built, a small append — the second since the
    /// handle opened or synced — reserves the extent it lands in, a large
    /// one or one crossing the extent's end is written at the end, and a
    /// sync or a drop cuts the reservation off.
    #[test]
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[cfg_attr(miri, ignore)]
    fn small_appends_reserve_one_extent_at_a_time() {
        use mapped::appender::{EXTENT, MAPPED_APPEND_BELOW};
        let dir = scratch_dir("extent");
        let path = dir.join("log");
        let file_len = || std::fs::metadata(&path).expect("stat").len();
        let mut handle = StdFs.create(&path).expect("create");
        let mut model = Vec::new();
        let mut append = |handle: &mut Box<dyn StorageFile>, len: usize| {
            let data: Vec<u8> = (0..len).map(|i| (model.len() + i) as u8 | 1).collect();
            handle.append(&data).expect("append");
            model.extend_from_slice(&data);
            model.len() as u64
        };

        assert_eq!(append(&mut handle, 28), 28);
        assert_eq!(file_len(), 28, "the first small append is written");
        assert_eq!(append(&mut handle, 28), 56);
        assert_eq!(file_len(), EXTENT, "the second reserves its extent");
        let mut past = [0u8; 1];
        let error = handle.read_at(&mut past, 56).expect_err("past the appends");
        assert_eq!(error.kind(), io::ErrorKind::UnexpectedEof);
        handle.sync_data().expect("sync");
        assert_eq!(file_len(), 56, "a sync cuts the reservation off");
        append(&mut handle, 28);
        assert_eq!(
            file_len(),
            84,
            "the first small append after a sync is written"
        );
        append(&mut handle, 28);
        assert_eq!(file_len(), EXTENT, "the second reserves again");
        let len = append(&mut handle, MAPPED_APPEND_BELOW);
        assert_eq!(file_len(), EXTENT, "a large append inside it keeps it");
        // Up to 10 bytes short of the extent's end, then 20 across it: the
        // crossing append is written at the end, past the reservation.
        let len = append(&mut handle, (EXTENT - 10 - len) as usize);
        assert_eq!(len, EXTENT - 10);
        let len = append(&mut handle, 20);
        assert_eq!(file_len(), len, "an append crossing the extent is written");
        append(&mut handle, 5);
        assert_eq!(
            file_len(),
            2 * EXTENT,
            "the next small append reserves the next extent"
        );
        let mut all = vec![0u8; model.len()];
        handle.read_at(&mut all, 0).expect("read back");
        assert_eq!(all, model);
        drop(handle);
        assert_eq!(
            on_disk(&path),
            (model.clone(), model.len() as u64),
            "a drop cuts"
        );
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
