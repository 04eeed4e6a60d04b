//! In-memory file system backend.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use crate::api::{FileKind, FileRead, FileStatus, FileSystem, FileWrite};
use crate::error::{FsError, FsResult};
use crate::path::DfsPath;

#[derive(Clone, Debug)]
enum Node {
    File(Vec<u8>),
    Directory,
}

type Tree = BTreeMap<String, Node>;

/// A thread-safe in-process file system.
///
/// The default backend for tests, examples, and benchmarks: trace files
/// live in a `BTreeMap` guarded by an `RwLock`, so concurrent worker
/// writers and the debug-session reader see a consistent namespace.
#[derive(Clone, Default)]
pub struct InMemoryFs {
    tree: Arc<RwLock<Tree>>,
}

impl InMemoryFs {
    /// Creates an empty file system containing only the root directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes stored across all files.
    pub fn total_bytes(&self) -> u64 {
        self.tree
            .read()
            .values()
            .map(|n| match n {
                Node::File(b) => b.len() as u64,
                Node::Directory => 0,
            })
            .sum()
    }

    /// Number of files (not directories).
    pub fn file_count(&self) -> usize {
        self.tree.read().values().filter(|n| matches!(n, Node::File(_))).count()
    }

    fn ensure_parents(tree: &mut Tree, path: &DfsPath) -> FsResult<()> {
        let mut current = DfsPath::root();
        for component in path.components() {
            match tree.get(current.as_str()) {
                None if current.is_root() => {}
                None | Some(Node::Directory) => {}
                Some(Node::File(_)) => return Err(FsError::NotADirectory(current.to_string())),
            }
            if !current.is_root() {
                tree.entry(current.as_str().to_string()).or_insert(Node::Directory);
            }
            current = current.join(component)?;
        }
        Ok(())
    }
}

impl FileSystem for InMemoryFs {
    fn create(&self, path: &str) -> FsResult<Box<dyn FileWrite>> {
        let path = DfsPath::parse(path)?;
        if path.is_root() {
            return Err(FsError::NotAFile(path.to_string()));
        }
        let mut tree = self.tree.write();
        Self::ensure_parents(&mut tree, &path)?;
        if matches!(tree.get(path.as_str()), Some(Node::Directory)) {
            return Err(FsError::NotAFile(path.to_string()));
        }
        // Reserve the path immediately so concurrent creates are visible,
        // but content only lands on sync/drop.
        tree.insert(path.as_str().to_string(), Node::File(Vec::new()));
        Ok(Box::new(MemWriter::new(&self.tree, &path)))
    }

    fn open(&self, path: &str) -> FsResult<Box<dyn FileRead>> {
        let path = DfsPath::parse(path)?;
        let tree = self.tree.read();
        match tree.get(path.as_str()) {
            Some(Node::File(bytes)) => {
                // Snapshot the contents so concurrent appends do not move
                // under the reader.
                Ok(Box::new(MemReader { bytes: Bytes::from(bytes.clone()), pos: 0 }))
            }
            Some(Node::Directory) => Err(FsError::NotAFile(path.to_string())),
            None => Err(FsError::NotFound(path.to_string())),
        }
    }

    fn list(&self, path: &str) -> FsResult<Vec<FileStatus>> {
        let path = DfsPath::parse(path)?;
        let tree = self.tree.read();
        if !path.is_root() {
            match tree.get(path.as_str()) {
                Some(Node::Directory) => {}
                Some(Node::File(_)) => return Err(FsError::NotADirectory(path.to_string())),
                None => return Err(FsError::NotFound(path.to_string())),
            }
        }
        let mut out = Vec::new();
        for (entry_path, node) in tree.iter() {
            let entry = DfsPath::parse(entry_path).expect("stored paths are normalized");
            if entry.parent().as_ref() == Some(&path) {
                out.push(FileStatus {
                    path: entry_path.clone(),
                    kind: match node {
                        Node::File(_) => FileKind::File,
                        Node::Directory => FileKind::Directory,
                    },
                    len: match node {
                        Node::File(b) => b.len() as u64,
                        Node::Directory => 0,
                    },
                });
            }
        }
        Ok(out)
    }

    fn status(&self, path: &str) -> FsResult<FileStatus> {
        let path = DfsPath::parse(path)?;
        if path.is_root() {
            return Ok(FileStatus { path: "/".into(), kind: FileKind::Directory, len: 0 });
        }
        let tree = self.tree.read();
        match tree.get(path.as_str()) {
            Some(Node::File(b)) => {
                Ok(FileStatus { path: path.to_string(), kind: FileKind::File, len: b.len() as u64 })
            }
            Some(Node::Directory) => {
                Ok(FileStatus { path: path.to_string(), kind: FileKind::Directory, len: 0 })
            }
            None => Err(FsError::NotFound(path.to_string())),
        }
    }

    fn exists(&self, path: &str) -> bool {
        match DfsPath::parse(path) {
            Ok(p) => p.is_root() || self.tree.read().contains_key(p.as_str()),
            Err(_) => false,
        }
    }

    fn mkdirs(&self, path: &str) -> FsResult<()> {
        let path = DfsPath::parse(path)?;
        let mut tree = self.tree.write();
        Self::ensure_parents(&mut tree, &path)?;
        if path.is_root() {
            return Ok(());
        }
        match tree.get(path.as_str()) {
            Some(Node::File(_)) => Err(FsError::NotADirectory(path.to_string())),
            _ => {
                tree.insert(path.as_str().to_string(), Node::Directory);
                Ok(())
            }
        }
    }

    fn append(&self, path: &str) -> FsResult<Box<dyn FileWrite>> {
        let path = DfsPath::parse(path)?;
        if path.is_root() {
            return Err(FsError::NotAFile(path.to_string()));
        }
        let mut tree = self.tree.write();
        Self::ensure_parents(&mut tree, &path)?;
        // Existing bytes stay where they are: every sync appends.
        match tree.entry(path.as_str().to_string()).or_insert(Node::File(Vec::new())) {
            Node::File(_) => {}
            Node::Directory => return Err(FsError::NotAFile(path.to_string())),
        }
        Ok(Box::new(MemWriter::new(&self.tree, &path)))
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let from = DfsPath::parse(from)?;
        let to = DfsPath::parse(to)?;
        if from.is_root() || to.is_root() {
            return Err(FsError::NotAFile(from.to_string()));
        }
        // One write lock covers the whole move, so readers see either the
        // old file or the new one — never both, never neither.
        let mut tree = self.tree.write();
        match tree.get(from.as_str()) {
            Some(Node::File(_)) => {}
            Some(Node::Directory) => return Err(FsError::NotAFile(from.to_string())),
            None => return Err(FsError::NotFound(from.to_string())),
        }
        Self::ensure_parents(&mut tree, &to)?;
        if matches!(tree.get(to.as_str()), Some(Node::Directory)) {
            return Err(FsError::NotAFile(to.to_string()));
        }
        let node = tree.remove(from.as_str()).expect("checked above");
        tree.insert(to.as_str().to_string(), node);
        Ok(())
    }

    fn delete(&self, path: &str, recursive: bool) -> FsResult<()> {
        let path = DfsPath::parse(path)?;
        let mut tree = self.tree.write();
        if path.is_root() {
            if !recursive && !tree.is_empty() {
                return Err(FsError::DirectoryNotEmpty(path.to_string()));
            }
            tree.clear();
            return Ok(());
        }
        match tree.get(path.as_str()) {
            None => return Err(FsError::NotFound(path.to_string())),
            Some(Node::File(_)) => {
                tree.remove(path.as_str());
                return Ok(());
            }
            Some(Node::Directory) => {}
        }
        let children: Vec<String> = tree
            .range(path.as_str().to_string()..)
            .take_while(|(k, _)| {
                DfsPath::parse(k).expect("stored paths are normalized").starts_with(&path)
            })
            .map(|(k, _)| k.clone())
            .collect();
        if children.len() > 1 && !recursive {
            return Err(FsError::DirectoryNotEmpty(path.to_string()));
        }
        for child in children {
            tree.remove(&child);
        }
        Ok(())
    }
}

/// Holds only the bytes written since the last sync; everything before
/// them lives in the tree and nowhere else. A sync appends them to the
/// file as it then stands, so reopening with `append` per chunk costs
/// the chunk, not the file. If the file was deleted behind the writer's
/// back it comes back holding the unsynced bytes alone.
struct MemWriter {
    tree: Arc<RwLock<Tree>>,
    path: String,
    pending: Vec<u8>,
}

impl MemWriter {
    fn new(tree: &Arc<RwLock<Tree>>, path: &DfsPath) -> Self {
        Self { tree: Arc::clone(tree), path: path.as_str().to_string(), pending: Vec::new() }
    }
}

impl Write for MemWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl FileWrite for MemWriter {
    fn sync(&mut self) -> FsResult<()> {
        if !self.pending.is_empty() {
            let mut tree = self.tree.write();
            match tree.get_mut(&self.path) {
                Some(Node::File(contents)) => contents.append(&mut self.pending),
                _ => {
                    let orphaned = std::mem::take(&mut self.pending);
                    tree.insert(self.path.clone(), Node::File(orphaned));
                }
            }
        }
        Ok(())
    }
}

impl Drop for MemWriter {
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

struct MemReader {
    bytes: Bytes,
    pos: usize,
}

impl Read for MemReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let available = &self.bytes[self.pos.min(self.bytes.len())..];
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.pos += n;
        Ok(n)
    }
}

impl FileRead for MemReader {
    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read() {
        let fs = InMemoryFs::new();
        fs.write_all("/a/b/file.txt", b"content").unwrap();
        assert_eq!(fs.read_all("/a/b/file.txt").unwrap(), b"content");
        assert!(fs.exists("/a"));
        assert!(fs.exists("/a/b"));
        assert_eq!(fs.status("/a/b").unwrap().kind, FileKind::Directory);
        assert_eq!(fs.status("/a/b/file.txt").unwrap().len, 7);
    }

    #[test]
    fn create_truncates() {
        let fs = InMemoryFs::new();
        fs.write_all("/f", b"long content").unwrap();
        fs.write_all("/f", b"short").unwrap();
        assert_eq!(fs.read_all("/f").unwrap(), b"short");
    }

    #[test]
    fn writer_content_visible_after_sync_not_before() {
        let fs = InMemoryFs::new();
        let mut w = fs.create("/f").unwrap();
        w.write_all(b"data").unwrap();
        assert_eq!(fs.read_all("/f").unwrap(), b"");
        w.sync().unwrap();
        assert_eq!(fs.read_all("/f").unwrap(), b"data");
        drop(w);
        assert_eq!(fs.read_all("/f").unwrap(), b"data");
    }

    #[test]
    fn list_is_shallow_and_sorted() {
        let fs = InMemoryFs::new();
        fs.write_all("/d/z", b"1").unwrap();
        fs.write_all("/d/a", b"2").unwrap();
        fs.write_all("/d/sub/deep", b"3").unwrap();
        let names: Vec<String> = fs.list("/d").unwrap().into_iter().map(|s| s.path).collect();
        assert_eq!(names, vec!["/d/a", "/d/sub", "/d/z"]);
    }

    #[test]
    fn list_files_recursive_finds_nested() {
        let fs = InMemoryFs::new();
        fs.write_all("/d/x/1", b"").unwrap();
        fs.write_all("/d/y/2", b"").unwrap();
        fs.write_all("/d/3", b"").unwrap();
        let names: Vec<String> =
            fs.list_files_recursive("/d").unwrap().into_iter().map(|s| s.path).collect();
        assert_eq!(names, vec!["/d/3", "/d/x/1", "/d/y/2"]);
    }

    #[test]
    fn delete_semantics() {
        let fs = InMemoryFs::new();
        fs.write_all("/d/a", b"").unwrap();
        fs.write_all("/d/b", b"").unwrap();
        assert!(matches!(fs.delete("/d", false), Err(FsError::DirectoryNotEmpty(_))));
        fs.delete("/d/a", false).unwrap();
        fs.delete("/d", true).unwrap();
        assert!(!fs.exists("/d"));
        assert!(matches!(fs.delete("/nope", false), Err(FsError::NotFound(_))));
    }

    #[test]
    fn cannot_create_file_over_directory() {
        let fs = InMemoryFs::new();
        fs.mkdirs("/dir").unwrap();
        assert!(matches!(fs.create("/dir"), Err(FsError::NotAFile(_))));
        fs.write_all("/file", b"").unwrap();
        assert!(matches!(fs.mkdirs("/file"), Err(FsError::NotADirectory(_))));
        assert!(matches!(fs.create("/file/child"), Err(FsError::NotADirectory(_))));
    }

    #[test]
    fn concurrent_writers_to_distinct_files() {
        let fs = InMemoryFs::new();
        std::thread::scope(|scope| {
            for worker in 0..8 {
                let fs = fs.clone();
                scope.spawn(move || {
                    let path = format!("/traces/worker_{worker}.trace");
                    let mut w = fs.create(&path).unwrap();
                    for record in 0..100 {
                        writeln!(w, "w{worker} r{record}").unwrap();
                    }
                    w.sync().unwrap();
                });
            }
        });
        let files = fs.list("/traces").unwrap();
        assert_eq!(files.len(), 8);
        for f in files {
            let data = fs.read_all(&f.path).unwrap();
            assert_eq!(data.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count(), 100);
        }
    }

    #[test]
    fn append_extends_and_creates() {
        let fs = InMemoryFs::new();
        // Appending to a missing path creates it (parents included).
        let mut w = fs.append("/logs/w0/seg_0.log").unwrap();
        w.write_all(b"one ").unwrap();
        w.sync().unwrap();
        assert_eq!(fs.read_all("/logs/w0/seg_0.log").unwrap(), b"one ");
        drop(w);
        // A second append handle continues after the existing bytes.
        let mut w = fs.append("/logs/w0/seg_0.log").unwrap();
        w.write_all(b"two").unwrap();
        drop(w);
        assert_eq!(fs.read_all("/logs/w0/seg_0.log").unwrap(), b"one two");
        assert!(matches!(fs.append("/logs/w0"), Err(FsError::NotAFile(_))));
    }

    /// A writer holds unsynced bytes only: what it synced before, and what
    /// an `append` handle found in the file, is never copied or rewritten.
    #[test]
    fn sync_appends_the_unsynced_bytes_to_the_file_as_it_stands() {
        let fs = InMemoryFs::new();
        let mut first = fs.create("/f").unwrap();
        first.write_all(b"aa").unwrap();
        first.sync().unwrap();
        first.sync().unwrap();
        assert_eq!(fs.read_all("/f").unwrap(), b"aa");
        // A second handle's synced bytes are not overwritten by the first's
        // next sync, in either order.
        let mut second = fs.append("/f").unwrap();
        second.write_all(b"bb").unwrap();
        first.write_all(b"cc").unwrap();
        second.sync().unwrap();
        first.sync().unwrap();
        assert_eq!(fs.read_all("/f").unwrap(), b"aabbcc");
        // Deleted behind its back, the file returns with the new bytes only.
        fs.delete("/f", false).unwrap();
        drop(second);
        assert!(!fs.exists("/f"), "nothing unsynced, nothing written");
        first.write_all(b"dd").unwrap();
        drop(first);
        assert_eq!(fs.read_all("/f").unwrap(), b"dd");
    }

    #[test]
    fn tail_skips_prefix_and_reports_remaining() {
        let fs = InMemoryFs::new();
        fs.write_all("/f", b"0123456789").unwrap();
        let mut r = fs.tail("/f", 4).unwrap();
        assert_eq!(r.len(), 6);
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"456789");
        // Offsets past the end clamp to an empty reader.
        let mut r = fs.tail("/f", 99).unwrap();
        assert_eq!(r.len(), 0);
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
    }

    #[test]
    fn rename_moves_and_replaces() {
        let fs = InMemoryFs::new();
        fs.write_all("/live/snap.json.tmp", b"{\"seq\":1}").unwrap();
        fs.rename("/live/snap.json.tmp", "/live/snap.json").unwrap();
        assert!(!fs.exists("/live/snap.json.tmp"));
        assert_eq!(fs.read_all("/live/snap.json").unwrap(), b"{\"seq\":1}");
        // Replacing an existing destination is allowed (commit protocol).
        fs.write_all("/live/snap.json.tmp", b"{\"seq\":2}").unwrap();
        fs.rename("/live/snap.json.tmp", "/live/snap.json").unwrap();
        assert_eq!(fs.read_all("/live/snap.json").unwrap(), b"{\"seq\":2}");
        // Parents of the destination are created as needed.
        fs.write_all("/tmp/x", b"x").unwrap();
        fs.rename("/tmp/x", "/deep/new/dir/x").unwrap();
        assert_eq!(fs.read_all("/deep/new/dir/x").unwrap(), b"x");
        assert!(matches!(fs.rename("/nope", "/b"), Err(FsError::NotFound(_))));
        fs.mkdirs("/adir").unwrap();
        assert!(matches!(fs.rename("/adir", "/b"), Err(FsError::NotAFile(_))));
        fs.write_all("/f2", b"").unwrap();
        assert!(matches!(fs.rename("/f2", "/adir"), Err(FsError::NotAFile(_))));
    }

    #[test]
    fn counters() {
        let fs = InMemoryFs::new();
        fs.write_all("/a", b"123").unwrap();
        fs.write_all("/b/c", b"4567").unwrap();
        assert_eq!(fs.total_bytes(), 7);
        assert_eq!(fs.file_count(), 2);
    }
}
