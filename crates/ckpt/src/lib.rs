//! Atomic, incremental, crash-safe checkpoint/restore for
//! [`SlabMachine`] state (DESIGN.md §12).
//!
//! # Commit protocol
//!
//! A checkpoint is a set of content-addressed chunk files
//! `c-<hash>-<len>.bin` plus one manifest `m-<epoch>.ckpt` naming them.
//! The hash is [`word_hash64`] of the payload (see [`manifest`] for the
//! wire formats). Every file is written as
//! `tmp-<name>`, `sync`ed, then `rename`d into place; the manifest rename
//! is the **commit point** — a crash anywhere before it leaves the
//! previous epoch fully intact, and a crash anywhere after it leaves the
//! new epoch fully intact. Resume scans manifests newest-first and applies
//! the first one that passes its self-checksum and whose chunk files all
//! verify; torn leftovers are skipped (and garbage-collected by the next
//! commit). There is no state in between: the crash-injection suite
//! (`tests/checkpoint_crash.rs`) proves every kill point lands on exactly
//! the prior or the new epoch.
//!
//! # Incremental snapshots
//!
//! Chunks are the dirty-tracking granule. [`Checkpointer`] records each
//! chunk's write-tracking fingerprint
//! ([`SlabMachine::chunk_fingerprint`]) at commit; a later commit skips
//! re-encoding chunks whose fingerprints are unchanged, and content
//! addressing skips re-writing chunk bytes that already exist under any
//! epoch. Fingerprints are conservative — an over-bump costs one encode,
//! never correctness.
//!
//! # Migration
//!
//! The manifest witnesses the machine **geometry** (groups, PEs, rows,
//! cols, mesh, timing) and the fault model, not the chunk width: a
//! checkpoint written by one chunking restores into any other via the
//! lossless per-PE conversions ([`SlabMachine::restore_chunks`]), so a
//! checkpoint moves between machines built with different chunk widths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;
pub mod sink;
pub mod testing;

use std::collections::{HashMap, HashSet};

use hyperap_arch::SlabMachine;

pub use manifest::{fnv1a64, word_hash64, ChunkEntry, CkptError, FaultWitness, Manifest};
pub use sink::{CheckpointSink, DirSink, MemSink, SinkError};

use manifest::{decode_chunk, encode_chunk};

/// What one [`Checkpointer::checkpoint`] commit did — the
/// checkpoint-cost numbers the bench harness reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointStats {
    /// The epoch this commit created.
    pub epoch: u64,
    /// Chunks in the machine.
    pub chunks_total: usize,
    /// Chunks skipped by fingerprint (dirty tracking hit).
    pub chunks_clean: usize,
    /// Chunk files physically written (dirty and not already stored).
    pub chunks_written: usize,
    /// Total payload bytes across every chunk (the full image size).
    pub payload_bytes: u64,
    /// Bytes physically written this commit (chunk files + manifest).
    pub bytes_written: u64,
    /// Size of the manifest blob.
    pub manifest_bytes: u64,
}

/// Drives the commit protocol over a [`CheckpointSink`], tracking per-chunk
/// fingerprints for incremental snapshots. One `Checkpointer` per machine
/// and sink.
#[derive(Debug)]
pub struct Checkpointer<S> {
    sink: S,
    keep: usize,
    next_epoch: u64,
    /// Per-chunk `(fingerprint, payload hash, payload len)` as of the last
    /// successful commit. Only updated after the manifest rename lands, so
    /// a failed commit never poisons dirty tracking.
    committed: HashMap<usize, ([u64; 5], u64, u64)>,
}

impl<S: CheckpointSink> Checkpointer<S> {
    /// A checkpointer over `sink`, keeping the last 2 epochs.
    pub fn new(sink: S) -> Self {
        Checkpointer {
            sink,
            keep: 2,
            next_epoch: 0,
            committed: HashMap::new(),
        }
    }

    /// Keep the newest `keep` epochs at garbage collection (minimum 1).
    pub fn set_keep(&mut self, keep: usize) {
        self.keep = keep.max(1);
    }

    /// The underlying sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The underlying sink, mutable (test setup / fixture surgery).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consume the checkpointer, returning its sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    fn manifest_name(&self, epoch: u64) -> String {
        format!("m-{epoch:020}.ckpt")
    }

    fn chunk_name(&self, hash: u64, len: u64) -> String {
        format!("c-{hash:016x}-{len}.bin")
    }

    /// `(epoch, name)` of every manifest in the sink, newest first.
    fn manifest_epochs(&self, names: &[String]) -> Vec<(u64, String)> {
        let mut out: Vec<(u64, String)> = names
            .iter()
            .filter_map(|n| {
                let tail = n.strip_prefix("m-")?;
                let digits = tail.strip_suffix(".ckpt")?;
                digits.parse::<u64>().ok().map(|e| (e, n.clone()))
            })
            .collect();
        out.sort_by_key(|&(epoch, _)| std::cmp::Reverse(epoch));
        out
    }

    /// Write `data` as `name` through the atomic temp-write + sync + rename
    /// sequence.
    fn put_atomic(&mut self, name: &str, data: &[u8]) -> Result<(), CkptError> {
        let tmp = format!("tmp-{name}");
        self.sink.write(&tmp, data)?;
        self.sink.sync(&tmp)?;
        self.sink.rename(&tmp, name)?;
        Ok(())
    }

    /// Commit one epoch of `machine`'s state. Incremental: chunks whose
    /// fingerprints are unchanged since the last successful commit are not
    /// re-encoded, and chunk bytes already stored (under any epoch — the
    /// content address) are not re-written. Returns what was done.
    ///
    /// # Errors
    ///
    /// Any [`CkptError::Sink`] failure aborts the commit; the previous
    /// epoch remains the restore target (atomicity is property-tested
    /// against every kill point in `tests/checkpoint_crash.rs`).
    pub fn checkpoint(&mut self, machine: &SlabMachine) -> Result<CheckpointStats, CkptError> {
        let names = self.sink.list()?;
        let mut existing: HashSet<String> = names.iter().cloned().collect();
        // A fresh checkpointer over a populated sink must not reuse epochs.
        if let Some((newest, _)) = self.manifest_epochs(&names).first() {
            self.next_epoch = self.next_epoch.max(newest + 1);
        }
        let epoch = self.next_epoch;
        let mut stats = CheckpointStats {
            epoch,
            chunks_total: machine.num_chunks(),
            ..CheckpointStats::default()
        };
        let mut entries = Vec::with_capacity(machine.num_chunks());
        let mut fresh: HashMap<usize, ([u64; 5], u64, u64)> = HashMap::new();
        for i in 0..machine.num_chunks() {
            let fp = machine.chunk_fingerprint(i);
            let state = machine.chunk_state(i);
            let clean = self
                .committed
                .get(&i)
                .filter(|(old, hash, len)| {
                    *old == fp && existing.contains(&self.chunk_name(*hash, *len))
                })
                .copied();
            let (hash, len) = match clean {
                Some((_, hash, len)) => {
                    stats.chunks_clean += 1;
                    (hash, len)
                }
                None => {
                    let payload = encode_chunk(&state);
                    let (hash, len) = (word_hash64(&payload), payload.len() as u64);
                    let name = self.chunk_name(hash, len);
                    if !existing.contains(&name) {
                        self.put_atomic(&name, &payload)?;
                        existing.insert(name);
                        stats.chunks_written += 1;
                        stats.bytes_written += len;
                    }
                    (hash, len)
                }
            };
            stats.payload_bytes += len;
            fresh.insert(i, (fp, hash, len));
            entries.push(ChunkEntry {
                base: state.global_base as u64,
                pes: state.pes as u32,
                len,
                hash,
            });
        }
        let manifest = Manifest {
            epoch,
            geometry: machine.config().geometry_fields(),
            fault: FaultWitness::of(machine.config()),
            extras: machine.machine_extras(),
            chunks: entries,
        };
        let blob = manifest.encode();
        stats.manifest_bytes = blob.len() as u64;
        stats.bytes_written += blob.len() as u64;
        // The commit point: this rename makes the new epoch the newest
        // valid manifest. Everything before it is invisible to resume.
        self.put_atomic(&self.manifest_name(epoch), &blob)?;
        self.committed = fresh;
        self.next_epoch = epoch + 1;
        self.collect_garbage()?;
        Ok(stats)
    }

    /// Remove manifests beyond the newest `keep`, chunk files none of the
    /// kept manifests reference, and stale temp files. Crash-safe in any
    /// interleaving: the newest manifest's files are never candidates, and
    /// resume ignores everything it doesn't need.
    fn collect_garbage(&mut self) -> Result<(), CkptError> {
        let names = self.sink.list()?;
        let manifests = self.manifest_epochs(&names);
        let (kept, dropped) = manifests.split_at(self.keep.min(manifests.len()));
        let mut referenced: HashSet<String> = HashSet::new();
        let mut chunks_known = true;
        for (_, name) in kept {
            match self
                .sink
                .read(name)
                .map_err(CkptError::from)
                .and_then(|b| Manifest::decode(&b))
            {
                Ok(man) => {
                    for c in &man.chunks {
                        referenced.insert(self.chunk_name(c.hash, c.len));
                    }
                }
                // A kept manifest we cannot decode might reference
                // anything: skip chunk GC rather than guess.
                Err(_) => chunks_known = false,
            }
        }
        for (_, name) in dropped {
            self.sink.remove(name)?;
        }
        for name in &names {
            let stale_tmp = name.starts_with("tmp-");
            let orphan_chunk = chunks_known && name.starts_with("c-") && !referenced.contains(name);
            if stale_tmp || orphan_chunk {
                self.sink.remove(name)?;
            }
        }
        Ok(())
    }

    /// Restore `machine` from the newest committed epoch that verifies:
    /// manifests are tried newest-first, and one is applied only if its
    /// self-checksum holds and every referenced chunk file is present,
    /// hash-verified, and decodable — torn leftovers of an interrupted
    /// commit fall through to the previous epoch. Returns the restored
    /// epoch.
    ///
    /// Dirty tracking restarts from scratch: the next
    /// [`checkpoint`](Self::checkpoint) re-encodes every chunk, but content
    /// addressing still skips re-writing unchanged bytes.
    ///
    /// # Errors
    ///
    /// Every error leaves `machine` as it was.
    ///
    /// [`CkptError::NoCheckpoint`] when no manifest verifies;
    /// [`CkptError::BadVersion`] when an intact manifest or chunk uses an
    /// unknown future format; [`CkptError::GeometryMismatch`] when an
    /// intact manifest describes a different machine or fault universe.
    pub fn resume(&mut self, machine: &mut SlabMachine) -> Result<u64, CkptError> {
        let names = self.sink.list()?;
        let manifests = self.manifest_epochs(&names);
        if manifests.is_empty() {
            return Err(CkptError::NoCheckpoint);
        }
        for (_, name) in &manifests {
            let blob = match self.sink.read(name) {
                Ok(b) => b,
                Err(SinkError::NotFound) => continue,
                Err(e) => return Err(e.into()),
            };
            let man = match Manifest::decode(&blob) {
                Ok(m) => m,
                // Torn or bit-rotted: fall back to the previous epoch.
                Err(CkptError::Truncated) | Err(CkptError::BadChecksum) => continue,
                // Intact but unreadable-by-design: surface it.
                Err(e) => return Err(e),
            };
            if man.geometry != machine.config().geometry_fields()
                || man.fault != FaultWitness::of(machine.config())
            {
                return Err(CkptError::GeometryMismatch);
            }
            let mut parts = Vec::with_capacity(man.chunks.len());
            let mut damaged = false;
            for entry in &man.chunks {
                let cname = self.chunk_name(entry.hash, entry.len);
                let payload = match self.sink.read(&cname) {
                    Ok(p) => p,
                    Err(SinkError::NotFound) => {
                        damaged = true;
                        break;
                    }
                    Err(e) => return Err(e.into()),
                };
                if payload.len() as u64 != entry.len || word_hash64(&payload) != entry.hash {
                    damaged = true;
                    break;
                }
                let part = match decode_chunk(&payload) {
                    Ok(p) => p,
                    Err(CkptError::BadVersion(v)) => return Err(CkptError::BadVersion(v)),
                    Err(_) => {
                        damaged = true;
                        break;
                    }
                };
                if part.global_base as u64 != entry.base || part.storage.pes() as u32 != entry.pes {
                    damaged = true;
                    break;
                }
                parts.push(part);
            }
            if damaged {
                continue;
            }
            // Both calls validate before they mutate; the extras go first
            // and are put back if the chunks are refused, so an error
            // leaves the machine as it was.
            let previous = machine.machine_extras();
            machine.set_machine_extras(man.extras.clone())?;
            if let Err(e) = machine.restore_chunks(parts) {
                machine
                    .set_machine_extras(previous)
                    .expect("a machine's own extras fit it");
                return Err(e.into());
            }
            self.committed.clear();
            self.next_epoch = man.epoch + 1;
            return Ok(man.epoch);
        }
        Err(CkptError::NoCheckpoint)
    }
}

/// Checkpoint methods on the machine itself — sugar over
/// [`Checkpointer`], matching the API named in ROADMAP item 4.
pub trait MachineCheckpoint {
    /// Commit this machine's state as one epoch.
    ///
    /// # Errors
    ///
    /// See [`Checkpointer::checkpoint`].
    fn checkpoint_to<S: CheckpointSink>(
        &self,
        ck: &mut Checkpointer<S>,
    ) -> Result<CheckpointStats, CkptError>;

    /// Restore this machine from the newest committed epoch.
    ///
    /// # Errors
    ///
    /// See [`Checkpointer::resume`].
    fn resume_from<S: CheckpointSink>(
        &mut self,
        ck: &mut Checkpointer<S>,
    ) -> Result<u64, CkptError>;
}

impl MachineCheckpoint for SlabMachine {
    fn checkpoint_to<S: CheckpointSink>(
        &self,
        ck: &mut Checkpointer<S>,
    ) -> Result<CheckpointStats, CkptError> {
        ck.checkpoint(self)
    }

    fn resume_from<S: CheckpointSink>(
        &mut self,
        ck: &mut Checkpointer<S>,
    ) -> Result<u64, CkptError> {
        ck.resume(self)
    }
}
