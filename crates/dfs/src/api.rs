//! The `FileSystem` trait shared by every backend.

use std::io::{Read, Write};

use crate::error::FsResult;

/// Whether a path names a file or a directory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileKind {
    /// A regular file.
    File,
    /// A directory.
    Directory,
}

/// Metadata for one directory entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FileStatus {
    /// Absolute normalized path.
    pub path: String,
    /// File or directory.
    pub kind: FileKind,
    /// Length in bytes (0 for directories).
    pub len: u64,
}

impl FileStatus {
    /// True when this entry is a regular file.
    pub fn is_file(&self) -> bool {
        self.kind == FileKind::File
    }
}

/// A writable handle to a file being created.
///
/// Data becomes visible to readers when the handle is dropped or
/// [`FileWrite::sync`] is called, mirroring HDFS's create-then-close
/// visibility model.
pub trait FileWrite: Write + Send {
    /// Flushes buffered data and makes it visible to readers.
    fn sync(&mut self) -> FsResult<()>;
}

/// A readable handle to an existing file.
pub trait FileRead: Read + Send {
    /// Total length of the file in bytes.
    fn len(&self) -> u64;

    /// True when the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A file system where Graft stores trace files.
///
/// All paths are absolute `/`-separated strings (see [`crate::DfsPath`]).
/// Implementations are safe to share across worker threads.
pub trait FileSystem: Send + Sync {
    /// Creates a file (and any missing parent directories), truncating an
    /// existing file at the same path.
    fn create(&self, path: &str) -> FsResult<Box<dyn FileWrite>>;

    /// Opens an existing file for reading.
    fn open(&self, path: &str) -> FsResult<Box<dyn FileRead>>;

    /// Lists the entries of a directory, sorted by path.
    fn list(&self, path: &str) -> FsResult<Vec<FileStatus>>;

    /// Returns metadata for a path.
    fn status(&self, path: &str) -> FsResult<FileStatus>;

    /// Whether the path exists (as a file or directory).
    fn exists(&self, path: &str) -> bool;

    /// Creates a directory and all missing ancestors.
    fn mkdirs(&self, path: &str) -> FsResult<()>;

    /// Deletes a path. Directories require `recursive` unless empty.
    fn delete(&self, path: &str, recursive: bool) -> FsResult<()>;

    /// Opens a file for appending, creating it (and any missing parent
    /// directories) if absent. Existing contents are preserved; writes
    /// land after them and become visible on [`FileWrite::sync`].
    ///
    /// The default implementation reads the file back and rewrites it
    /// through [`FileSystem::create`]; backends override it with a real
    /// append so message logs grow in O(delta), not O(file).
    fn append(&self, path: &str) -> FsResult<Box<dyn FileWrite>> {
        let existing = match self.open(path) {
            Ok(mut r) => {
                let mut buf = Vec::with_capacity(r.len() as usize);
                r.read_to_end(&mut buf).map_err(crate::FsError::from)?;
                buf
            }
            Err(crate::FsError::NotFound(_)) => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut w = self.create(path)?;
        w.write_all(&existing).map_err(crate::FsError::from)?;
        Ok(w)
    }

    /// Opens a file for reading starting at byte `offset` (clamped to the
    /// file length). The returned reader's [`FileRead::len`] is the number
    /// of bytes remaining from `offset` to the end of the file.
    ///
    /// The default implementation opens the file and discards the prefix;
    /// block-based backends override it to skip whole blocks.
    fn tail(&self, path: &str, offset: u64) -> FsResult<Box<dyn FileRead>> {
        let mut r = self.open(path)?;
        let skip = offset.min(r.len());
        let remaining = r.len() - skip;
        std::io::copy(&mut r.by_ref().take(skip), &mut std::io::sink())
            .map_err(crate::FsError::from)?;
        Ok(Box::new(Clamped::new(r, remaining)))
    }

    /// Renames the file at `from` to `to`, replacing any existing file at
    /// `to`. Missing parent directories of `to` are created.
    ///
    /// This is the commit step of write-temp-then-rename protocols:
    /// backends that can move a file in one step (in-memory, local disk)
    /// override this so readers observe either the old contents or the
    /// complete new contents, never a partial write. The default
    /// implementation copies then deletes — still torn-free on every
    /// backend because `create` + `sync` publishes whole contents at
    /// once, but not a single atomic step.
    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let data = self.read_all(from)?;
        self.write_all(to, &data)?;
        self.delete(from, false)
    }

    /// Convenience: writes an entire file in one call.
    fn write_all(&self, path: &str, data: &[u8]) -> FsResult<()> {
        let mut w = self.create(path)?;
        w.write_all(data).map_err(crate::FsError::from)?;
        w.sync()
    }

    /// Convenience: reads an entire file in one call.
    fn read_all(&self, path: &str) -> FsResult<Vec<u8>> {
        let mut r = self.open(path)?;
        let mut buf = Vec::with_capacity(r.len() as usize);
        r.read_to_end(&mut buf).map_err(crate::FsError::from)?;
        Ok(buf)
    }

    /// Convenience: lists only the files under `path`, recursively,
    /// sorted by path.
    fn list_files_recursive(&self, path: &str) -> FsResult<Vec<FileStatus>> {
        let mut out = Vec::new();
        let mut stack = vec![path.to_string()];
        while let Some(dir) = stack.pop() {
            for entry in self.list(&dir)? {
                match entry.kind {
                    FileKind::File => out.push(entry),
                    FileKind::Directory => stack.push(entry.path.clone()),
                }
            }
        }
        out.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(out)
    }
}

impl<F: FileSystem + ?Sized> FileSystem for std::sync::Arc<F> {
    fn create(&self, path: &str) -> FsResult<Box<dyn FileWrite>> {
        (**self).create(path)
    }

    fn open(&self, path: &str) -> FsResult<Box<dyn FileRead>> {
        (**self).open(path)
    }

    fn list(&self, path: &str) -> FsResult<Vec<FileStatus>> {
        (**self).list(path)
    }

    fn status(&self, path: &str) -> FsResult<FileStatus> {
        (**self).status(path)
    }

    fn exists(&self, path: &str) -> bool {
        (**self).exists(path)
    }

    fn mkdirs(&self, path: &str) -> FsResult<()> {
        (**self).mkdirs(path)
    }

    fn delete(&self, path: &str, recursive: bool) -> FsResult<()> {
        (**self).delete(path, recursive)
    }

    fn append(&self, path: &str) -> FsResult<Box<dyn FileWrite>> {
        (**self).append(path)
    }

    fn tail(&self, path: &str, offset: u64) -> FsResult<Box<dyn FileRead>> {
        (**self).tail(path, offset)
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        (**self).rename(from, to)
    }
}

/// A reader that yields no more than `len` bytes of `inner`, the length
/// at open. A concurrent appender may have grown the file since, and
/// streaming past `len()` would expose a torn mid-frame tail to readers
/// that sized their decode on it (message-log tails, spill segments).
pub(crate) struct Clamped<R> {
    inner: std::io::Take<R>,
    len: u64,
}

impl<R: Read> Clamped<R> {
    pub(crate) fn new(inner: R, len: u64) -> Self {
        Self { inner: inner.take(len), len }
    }
}

impl<R: Read> Read for Clamped<R> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(out)
    }
}

impl<R: Read + Send> FileRead for Clamped<R> {
    fn len(&self) -> u64 {
        self.len
    }
}
