//! Local-disk backend rooted at a host directory.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::api::{Clamped, FileKind, FileRead, FileStatus, FileSystem, FileWrite};
use crate::error::{FsError, FsResult};
use crate::path::DfsPath;

/// A [`FileSystem`] that maps DFS paths onto a directory on the local
/// disk, for users who want trace files to outlive the process.
pub struct LocalFs {
    root: PathBuf,
}

impl LocalFs {
    /// Creates a backend rooted at `root`, creating the directory if needed.
    pub fn new(root: impl Into<PathBuf>) -> FsResult<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The host directory backing `/`.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn resolve(&self, path: &str) -> FsResult<(DfsPath, PathBuf)> {
        let dfs = DfsPath::parse(path)?;
        let mut host = self.root.clone();
        for component in dfs.components() {
            host.push(component);
        }
        Ok((dfs, host))
    }

    fn to_dfs_path(&self, host: &Path) -> String {
        let rel = host.strip_prefix(&self.root).unwrap_or(host);
        let mut out = String::from("/");
        let mut first = true;
        for c in rel.components() {
            if !first {
                out.push('/');
            }
            out.push_str(&c.as_os_str().to_string_lossy());
            first = false;
        }
        out
    }
}

impl FileSystem for LocalFs {
    fn create(&self, path: &str) -> FsResult<Box<dyn FileWrite>> {
        let (dfs, host) = self.resolve(path)?;
        if dfs.is_root() {
            return Err(FsError::NotAFile(dfs.to_string()));
        }
        if host.is_dir() {
            return Err(FsError::NotAFile(dfs.to_string()));
        }
        if let Some(parent) = host.parent() {
            fs::create_dir_all(parent)?;
        }
        let file = fs::File::create(&host)?;
        Ok(Box::new(LocalWriter { inner: std::io::BufWriter::new(file) }))
    }

    fn open(&self, path: &str) -> FsResult<Box<dyn FileRead>> {
        let (dfs, host) = self.resolve(path)?;
        let meta = fs::metadata(&host).map_err(|_| FsError::NotFound(dfs.to_string()))?;
        if meta.is_dir() {
            return Err(FsError::NotAFile(dfs.to_string()));
        }
        let file = fs::File::open(&host)?;
        Ok(Box::new(Clamped::new(std::io::BufReader::new(file), meta.len())))
    }

    fn list(&self, path: &str) -> FsResult<Vec<FileStatus>> {
        let (dfs, host) = self.resolve(path)?;
        let meta = fs::metadata(&host).map_err(|_| FsError::NotFound(dfs.to_string()))?;
        if !meta.is_dir() {
            return Err(FsError::NotADirectory(dfs.to_string()));
        }
        let mut out = Vec::new();
        for entry in fs::read_dir(&host)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            out.push(FileStatus {
                path: self.to_dfs_path(&entry.path()),
                kind: if meta.is_dir() { FileKind::Directory } else { FileKind::File },
                len: if meta.is_dir() { 0 } else { meta.len() },
            });
        }
        out.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(out)
    }

    fn status(&self, path: &str) -> FsResult<FileStatus> {
        let (dfs, host) = self.resolve(path)?;
        let meta = fs::metadata(&host).map_err(|_| FsError::NotFound(dfs.to_string()))?;
        Ok(FileStatus {
            path: dfs.to_string(),
            kind: if meta.is_dir() { FileKind::Directory } else { FileKind::File },
            len: if meta.is_dir() { 0 } else { meta.len() },
        })
    }

    fn exists(&self, path: &str) -> bool {
        self.resolve(path).map(|(_, host)| host.exists()).unwrap_or(false)
    }

    fn mkdirs(&self, path: &str) -> FsResult<()> {
        let (dfs, host) = self.resolve(path)?;
        if host.is_file() {
            return Err(FsError::NotADirectory(dfs.to_string()));
        }
        fs::create_dir_all(&host)?;
        Ok(())
    }

    fn append(&self, path: &str) -> FsResult<Box<dyn FileWrite>> {
        let (dfs, host) = self.resolve(path)?;
        if dfs.is_root() || host.is_dir() {
            return Err(FsError::NotAFile(dfs.to_string()));
        }
        if let Some(parent) = host.parent() {
            fs::create_dir_all(parent)?;
        }
        let file = fs::OpenOptions::new().append(true).create(true).open(&host)?;
        Ok(Box::new(LocalWriter { inner: std::io::BufWriter::new(file) }))
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let (from_dfs, from_host) = self.resolve(from)?;
        let (to_dfs, to_host) = self.resolve(to)?;
        let meta = fs::metadata(&from_host).map_err(|_| FsError::NotFound(from_dfs.to_string()))?;
        if meta.is_dir() {
            return Err(FsError::NotAFile(from_dfs.to_string()));
        }
        if to_host.is_dir() {
            return Err(FsError::NotAFile(to_dfs.to_string()));
        }
        if let Some(parent) = to_host.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::rename(&from_host, &to_host)?;
        Ok(())
    }

    fn delete(&self, path: &str, recursive: bool) -> FsResult<()> {
        let (dfs, host) = self.resolve(path)?;
        let meta = fs::metadata(&host).map_err(|_| FsError::NotFound(dfs.to_string()))?;
        if meta.is_dir() {
            if recursive {
                fs::remove_dir_all(&host)?;
            } else {
                fs::remove_dir(&host).map_err(|_| FsError::DirectoryNotEmpty(dfs.to_string()))?;
            }
        } else {
            fs::remove_file(&host)?;
        }
        Ok(())
    }
}

struct LocalWriter {
    inner: std::io::BufWriter<fs::File>,
}

impl Write for LocalWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.inner.write(data)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl FileWrite for LocalWriter {
    fn sync(&mut self) -> FsResult<()> {
        self.inner.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "graft-dfs-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_on_disk() {
        let root = temp_root("roundtrip");
        let fs = LocalFs::new(&root).unwrap();
        fs.write_all("/traces/t.bin", b"\x00\x01\x02").unwrap();
        assert_eq!(fs.read_all("/traces/t.bin").unwrap(), b"\x00\x01\x02");
        assert_eq!(fs.status("/traces/t.bin").unwrap().len, 3);
        let listed = fs.list("/traces").unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].path, "/traces/t.bin");
        fs.delete("/traces", true).unwrap();
        assert!(!fs.exists("/traces"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_paths_error() {
        let root = temp_root("missing");
        let fs = LocalFs::new(&root).unwrap();
        assert!(matches!(fs.open("/nope"), Err(FsError::NotFound(_))));
        assert!(matches!(fs.list("/nope"), Err(FsError::NotFound(_))));
        assert!(matches!(fs.delete("/nope", false), Err(FsError::NotFound(_))));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn append_extends_existing_file() {
        let root = temp_root("append");
        let fs = LocalFs::new(&root).unwrap();
        let mut w = fs.append("/logs/seg.log").unwrap();
        w.write_all(b"alpha ").unwrap();
        w.sync().unwrap();
        drop(w);
        let mut w = fs.append("/logs/seg.log").unwrap();
        w.write_all(b"beta").unwrap();
        drop(w);
        assert_eq!(fs.read_all("/logs/seg.log").unwrap(), b"alpha beta");
        let mut r = fs.tail("/logs/seg.log", 6).unwrap();
        assert_eq!(r.len(), 4);
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"beta");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rename_commits_atomically_on_disk() {
        let root = temp_root("rename");
        let fs = LocalFs::new(&root).unwrap();
        fs.write_all("/live/snap.json.tmp", b"new").unwrap();
        fs.write_all("/live/snap.json", b"old").unwrap();
        fs.rename("/live/snap.json.tmp", "/live/snap.json").unwrap();
        assert!(!fs.exists("/live/snap.json.tmp"));
        assert_eq!(fs.read_all("/live/snap.json").unwrap(), b"new");
        assert!(matches!(fs.rename("/nope", "/x"), Err(FsError::NotFound(_))));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reader_never_yields_bytes_appended_after_open() {
        let root = temp_root("torn");
        let fs = LocalFs::new(&root).unwrap();
        // A complete length-prefixed frame: [len=4][payload].
        fs.write_all("/seg/p0.seg", &[4, 1, 2, 3, 4]).unwrap();

        let mut reader = fs.open("/seg/p0.seg").unwrap();
        assert_eq!(reader.len(), 5);

        // A concurrent appender lands a torn half-frame after the open:
        // the length prefix of the next record but only part of its body.
        let mut w = fs.append("/seg/p0.seg").unwrap();
        w.write_all(&[4, 9, 9]).unwrap();
        w.sync().unwrap();
        drop(w);
        assert_eq!(fs.status("/seg/p0.seg").unwrap().len, 8);

        // The reader must stop at its open-time length: a frame decoder
        // sized on `len()` sees only whole frames, never the torn tail.
        let mut buf = Vec::new();
        reader.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, vec![4, 1, 2, 3, 4]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tail_never_yields_bytes_appended_after_open() {
        let root = temp_root("torn-tail");
        let fs = LocalFs::new(&root).unwrap();
        fs.write_all("/seg/log.seg", b"prefix-frame1").unwrap();

        let mut tail = fs.tail("/seg/log.seg", 7).unwrap();
        assert_eq!(tail.len(), 6);

        let mut w = fs.append("/seg/log.seg").unwrap();
        w.write_all(b"-torn").unwrap();
        w.sync().unwrap();
        drop(w);

        let mut buf = Vec::new();
        tail.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"frame1", "tail leaked bytes appended after open");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn non_empty_dir_requires_recursive() {
        let root = temp_root("nonempty");
        let fs = LocalFs::new(&root).unwrap();
        fs.write_all("/d/f", b"x").unwrap();
        assert!(matches!(fs.delete("/d", false), Err(FsError::DirectoryNotEmpty(_))));
        fs.delete("/d", true).unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }
}
