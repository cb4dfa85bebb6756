//! Storage backends for the checkpoint commit protocol.
//!
//! A [`CheckpointSink`] is a flat namespace of named byte blobs with the
//! three durability primitives the atomic commit protocol is built from:
//! `write` (content lands but is not yet durable), `sync` (the named blob's
//! content becomes durable), and `rename` (atomic, durable namespace move —
//! the commit point). [`DirSink`] maps the namespace onto one directory;
//! [`MemSink`] is the in-memory equivalent for benchmarks and tests; the
//! crash-injecting sink lives in [`crate::testing`].

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Failure modes of a [`CheckpointSink`] operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkError {
    /// The named blob does not exist.
    NotFound,
    /// The fault-injecting sink killed the process at this operation — the
    /// checkpoint in flight must be treated as torn.
    Killed,
    /// An underlying I/O failure, with the OS error text.
    Io(String),
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkError::NotFound => write!(f, "no such checkpoint blob"),
            SinkError::Killed => write!(f, "sink killed (crash injection)"),
            SinkError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
        }
    }
}

impl std::error::Error for SinkError {}

/// A flat namespace of named byte blobs with explicit durability — the
/// storage abstraction the [`crate::Checkpointer`] commit protocol drives.
///
/// Contract (what [`DirSink`] guarantees and the crash model in
/// [`crate::testing`] assumes):
///
/// * `write` replaces the named blob's content, but the content may be lost
///   on a crash until `sync(name)` returns.
/// * `rename` atomically moves a blob to a new name, replacing any existing
///   blob there, and the move itself is durable once it returns.
/// * `list` returns every existing name in unspecified order.
pub trait CheckpointSink {
    /// Every existing blob name.
    fn list(&self) -> Result<Vec<String>, SinkError>;
    /// Read a whole blob.
    fn read(&self, name: &str) -> Result<Vec<u8>, SinkError>;
    /// Create or replace a blob (not yet durable).
    fn write(&mut self, name: &str, data: &[u8]) -> Result<(), SinkError>;
    /// Make a blob's content durable.
    fn sync(&mut self, name: &str) -> Result<(), SinkError>;
    /// Atomically and durably move a blob to a new name.
    fn rename(&mut self, from: &str, to: &str) -> Result<(), SinkError>;
    /// Delete a blob (no error if absent).
    fn remove(&mut self, name: &str) -> Result<(), SinkError>;
}

impl<T: CheckpointSink + ?Sized> CheckpointSink for &mut T {
    fn list(&self) -> Result<Vec<String>, SinkError> {
        (**self).list()
    }
    fn read(&self, name: &str) -> Result<Vec<u8>, SinkError> {
        (**self).read(name)
    }
    fn write(&mut self, name: &str, data: &[u8]) -> Result<(), SinkError> {
        (**self).write(name, data)
    }
    fn sync(&mut self, name: &str) -> Result<(), SinkError> {
        (**self).sync(name)
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<(), SinkError> {
        (**self).rename(from, to)
    }
    fn remove(&mut self, name: &str) -> Result<(), SinkError> {
        (**self).remove(name)
    }
}

fn io_err(e: std::io::Error) -> SinkError {
    SinkError::Io(e.to_string())
}

/// A directory-backed sink: each blob is one file directly under `root`.
/// `sync` is `File::sync_all`; `rename` is `std::fs::rename` followed by a
/// best-effort fsync of the directory, which on POSIX filesystems makes the
/// rename itself durable.
#[derive(Debug)]
pub struct DirSink {
    root: PathBuf,
}

impl DirSink {
    /// Open (creating if needed) a sink over `root`.
    ///
    /// # Errors
    ///
    /// [`SinkError::Io`] if the directory cannot be created.
    pub fn new(root: impl AsRef<Path>) -> Result<Self, SinkError> {
        std::fs::create_dir_all(root.as_ref()).map_err(io_err)?;
        Ok(DirSink {
            root: root.as_ref().to_path_buf(),
        })
    }

    /// The backing directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn sync_dir(&self) {
        // Directory fsync durably commits renames on POSIX; harmless noise
        // elsewhere, so failures are deliberately ignored.
        if let Ok(d) = std::fs::File::open(&self.root) {
            let _ = d.sync_all();
        }
    }
}

impl CheckpointSink for DirSink {
    fn list(&self) -> Result<Vec<String>, SinkError> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root).map_err(io_err)? {
            let entry = entry.map_err(io_err)?;
            if entry.file_type().map_err(io_err)?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        Ok(names)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, SinkError> {
        match std::fs::read(self.root.join(name)) {
            Ok(data) => Ok(data),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(SinkError::NotFound),
            Err(e) => Err(io_err(e)),
        }
    }

    fn write(&mut self, name: &str, data: &[u8]) -> Result<(), SinkError> {
        let mut f = std::fs::File::create(self.root.join(name)).map_err(io_err)?;
        f.write_all(data).map_err(io_err)
    }

    fn sync(&mut self, name: &str) -> Result<(), SinkError> {
        match std::fs::File::open(self.root.join(name)) {
            Ok(f) => f.sync_all().map_err(io_err),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(SinkError::NotFound),
            Err(e) => Err(io_err(e)),
        }
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), SinkError> {
        match std::fs::rename(self.root.join(from), self.root.join(to)) {
            Ok(()) => {
                self.sync_dir();
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(SinkError::NotFound),
            Err(e) => Err(io_err(e)),
        }
    }

    fn remove(&mut self, name: &str) -> Result<(), SinkError> {
        match std::fs::remove_file(self.root.join(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(e)),
        }
    }
}

/// An in-memory sink where every write is immediately durable — the
/// zero-I/O backend for benchmarks, and the "surviving disk image" a
/// [`crate::testing::CrashSink`] materializes after a crash.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemSink {
    files: BTreeMap<String, Vec<u8>>,
}

impl MemSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Directly install a blob (test setup / fixture mutation).
    pub fn insert(&mut self, name: impl Into<String>, data: Vec<u8>) {
        self.files.insert(name.into(), data);
    }

    /// Direct read access to a blob.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.files.get(name).map(|v| v.as_slice())
    }

    /// All blobs, name-ordered.
    pub fn files(&self) -> &BTreeMap<String, Vec<u8>> {
        &self.files
    }
}

impl CheckpointSink for MemSink {
    fn list(&self) -> Result<Vec<String>, SinkError> {
        Ok(self.files.keys().cloned().collect())
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, SinkError> {
        self.files.get(name).cloned().ok_or(SinkError::NotFound)
    }

    fn write(&mut self, name: &str, data: &[u8]) -> Result<(), SinkError> {
        self.files.insert(name.to_string(), data.to_vec());
        Ok(())
    }

    fn sync(&mut self, _name: &str) -> Result<(), SinkError> {
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), SinkError> {
        let data = self.files.remove(from).ok_or(SinkError::NotFound)?;
        self.files.insert(to.to_string(), data);
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), SinkError> {
        self.files.remove(name);
        Ok(())
    }
}
