//! Directory-based persistence: one data file per shard (named by
//! **generation**), one write-ahead log per shard, plus a manifest that is
//! only ever replaced atomically.
//!
//! Layout of an index directory:
//!
//! ```text
//! <dir>/
//!   MANIFEST.pms      the whole `ShardedConfig`, the head basis every
//!                     shard is coded under, per-shard count / norm bound /
//!                     generation, and the shard-local → global id maps —
//!                     always describing the last **compacted** state —
//!                     then a CRC32 of all of it
//!   shard_0000.pmx    shard 0, generation 0: a full ProMIPS page file
//!                     (identical format to [`promips_core::ProMips::save`])
//!   shard_0002.g3.pmx generation 3 of shard 2 (written by compaction; the
//!                     manifest names the live generation)
//!   shard_0000.wal    per-shard write-ahead log: every mutation since the
//!                     shard's last compaction (see [`promips_wal`])
//!   ...
//! ```
//!
//! A shard whose generation holds no rows (manifest count 0) has no data
//! file.
//!
//! The durability contract: the **manifest + named generation files** hold
//! the compacted state, the **WALs** hold everything since. [`ShardedProMips::open`]
//! loads the former and replays the latter, so any crash point lands on
//! "compacted state + the prefix of mutations that reached disk". Manifest
//! replacement goes through [`promips_storage::write_file_atomic`]
//! (`MANIFEST.pms.tmp` → fsync → rename → directory fsync), which is what
//! makes a compaction's generation swap atomic.
//!
//! The manifest (version 7) ends with the [`promips_wal::crc32`] of the
//! bytes before it, and [`ShardedProMips::open`] checks it before it
//! decodes a word: a flipped or torn manifest is `InvalidData`, never a
//! different index. Every count is checked against the bytes that remain
//! before anything is allocated. Shard data pages carry no checksum.
//!
//! The manifest serializes only **generation** state — each shard's
//! committed id map and norm bound, never the delta overlay or tombstone
//! set (those are exactly what the WALs reconstruct). A compaction commit
//! therefore writes the manifest while readers and writers keep running:
//! it only needs the generation handles (under their read locks) plus the
//! [`crate::index::ShardedProMips`] maintenance lock, which a compaction,
//! a re-partition or a snapshot holds for its whole run.
//!
//! A build or snapshot starts a directory afresh: before it writes the
//! manifest it removes the WAL of every shard it names, so a log a previous
//! index left there is never replayed into the new one.
//!
//! Each shard file is self-contained — a shard's `.pmx` can even be opened
//! directly with `ProMips::open` — so shards can later be placed
//! on different devices or hosts without touching the format.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use promips_core::{MutationError, ProMips};
use promips_idistance::layout::{enc, RUN_BYTES};
use promips_idistance::{HeadBasis, IDistanceConfig};
use promips_linalg::Matrix;
use promips_storage::{fsync_dir, write_file_atomic, AccessStats, FileStorage, Pager, Storage};
use promips_wal::{crc32, SyncPolicy, Wal};

use crate::compaction::CompactionPolicy;
use crate::config::ShardedConfig;
use crate::index::{Shard, ShardGeneration, ShardedProMips};

const MANIFEST_MAGIC: u64 = 0x5AA2_D1CE_5059_0001;
const MANIFEST_VERSION: u64 = 7;
const MANIFEST_NAME: &str = "MANIFEST.pms";

/// Data-file path of shard `si` at `generation` (generation 0 keeps the
/// original `shard_NNNN.pmx` name).
pub(crate) fn shard_path(dir: &Path, si: usize, generation: u64) -> PathBuf {
    if generation == 0 {
        dir.join(format!("shard_{si:04}.pmx"))
    } else {
        dir.join(format!("shard_{si:04}.g{generation}.pmx"))
    }
}

/// Write-ahead-log path of shard `si`.
pub(crate) fn wal_path(dir: &Path, si: usize) -> PathBuf {
    dir.join(format!("shard_{si:04}.wal"))
}

/// Encodes the WAL group-commit policy for the manifest.
fn sync_policy_tag(p: SyncPolicy) -> u64 {
    match p {
        SyncPolicy::Always => 0,
        SyncPolicy::Never => 1,
        SyncPolicy::EveryN(n) => 2 + n as u64,
    }
}

fn sync_policy_from_tag(tag: u64) -> SyncPolicy {
    match tag {
        0 => SyncPolicy::Always,
        1 => SyncPolicy::Never,
        n => SyncPolicy::EveryN((n - 2).min(u32::MAX as u64) as u32),
    }
}

/// Removes the WALs of shards `0..shards` from `dir` — a fresh index's
/// directory holds none — and, if one was there, fsyncs the directory so
/// the removal is durable before a manifest names the directory.
fn remove_wals(dir: &Path, shards: usize) -> io::Result<()> {
    let mut removed = false;
    for si in 0..shards {
        match fs::remove_file(wal_path(dir, si)) {
            Ok(()) => removed = true,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    if removed {
        fsync_dir(dir)?;
    }
    Ok(())
}

impl ShardedProMips {
    /// Builds the sharded index **directly into `dir`**: each shard's index
    /// is built on its own file-backed page device (`shard_NNNN.pmx`) and
    /// saved there, and the manifest is finalized — the directory is
    /// immediately reopenable with [`ShardedProMips::open`], with no page
    /// copying. The returned index is **durable**: subsequent
    /// [`ShardedProMips::insert`]/[`ShardedProMips::delete`] calls are
    /// logged to per-shard WALs inside `dir`.
    pub fn build_in_dir(
        data: &Matrix,
        config: ShardedConfig,
        dir: impl AsRef<Path>,
    ) -> io::Result<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let built = Self::build_impl(data, config, Some(dir.to_path_buf()))?;
        remove_wals(dir, built.shards.len())?;
        built.write_manifest_with(dir, &[])?;
        Ok(built)
    }

    /// Snapshots the index into `dir`: every shard's index appends its
    /// persistence footer ([`ProMips::save`]) and has its pages copied into
    /// a per-shard file, and the manifest is written alongside. Reopen with
    /// [`ShardedProMips::open`]. Mutations and compactions are frozen for
    /// the duration (queries keep running).
    ///
    /// The index must have no pending mutations (a snapshot carries no
    /// WAL, so an uncompacted delta would be silently dropped) — call
    /// [`ShardedProMips::compact_all`] first. Snapshot a given in-memory
    /// index at most once per directory: each call appends a fresh
    /// persistence footer to the live shard pagers (the last one always
    /// wins on reopen, but the pages accumulate).
    ///
    /// A durable index's own directory is `InvalidInput`, refused before
    /// any file is created or removed: its generation-0 shard files are
    /// the very files the copy would truncate.
    pub fn snapshot(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        let dir = dir.as_ref();
        if let (Some(own), Ok(target)) = (&self.dir, fs::canonicalize(dir)) {
            if fs::canonicalize(own)? == target {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "cannot snapshot an index into its own directory",
                ));
            }
        }
        // Freeze all mutation state (same order as repartition: mut_order →
        // maintenance). Readers are unaffected.
        let _order = self.mut_order.lock();
        let _maintenance = self.maintenance.lock();
        let (delta, tombstones) = self.shards.iter().fold((0, 0), |(di, ti), s| {
            let d = s.delta.read();
            (di + d.len(), ti + d.tombstones.len())
        });
        if delta + tombstones > 0 {
            return Err(MutationError::PendingMutations { delta, tombstones }.into());
        }
        fs::create_dir_all(dir)?;
        let gens: Vec<Arc<ShardGeneration>> = self
            .shards
            .iter()
            .map(|s| Arc::clone(&s.generation.read()))
            .collect();
        for (si, gen) in gens.iter().enumerate() {
            if let Some(pm) = &gen.index {
                pm.save()?;
                // Copy at the device level, a run of about RUN_BYTES at a
                // time: going through Pager::read here would charge a
                // logical read per page to the shard's access counters and
                // churn its buffer pool.
                let src = pm.idistance().pager().storage();
                let dst = FileStorage::create(shard_path(dir, si, 0), src.page_size())?;
                let run = (RUN_BYTES / src.page_size()).max(1) as u64;
                let mut buf = Vec::new();
                for first in (0..src.num_pages()).step_by(run as usize) {
                    let n = run.min(src.num_pages() - first) as usize;
                    buf.resize(n * src.page_size(), 0);
                    src.read_pages(first, &mut buf)?;
                    dst.append_pages(&buf)?;
                }
                dst.sync()?;
            }
        }
        // A snapshot starts a fresh lineage: everything at generation 0.
        remove_wals(dir, self.shards.len())?;
        self.encode_manifest(dir, &gens.iter().map(Arc::as_ref).collect::<Vec<_>>(), true)
    }

    /// Atomically replaces the manifest from the shards' **live generation
    /// handles**, with `overrides` substituting not-yet-swapped new
    /// generations — the commit point of a build, a compaction and a
    /// repartition. Callers hold the maintenance lock (or own the index
    /// outright); the generation read locks taken here are the only shard
    /// state touched, so readers and writers keep running.
    pub(crate) fn write_manifest_with(
        &self,
        dir: &Path,
        overrides: &[(usize, &ShardGeneration)],
    ) -> io::Result<()> {
        let current: Vec<Option<Arc<ShardGeneration>>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(si, s)| {
                if overrides.iter().any(|&(oi, _)| oi == si) {
                    None
                } else {
                    Some(Arc::clone(&s.generation.read()))
                }
            })
            .collect();
        let gens: Vec<&ShardGeneration> = current
            .iter()
            .enumerate()
            .map(|(si, slot)| match slot {
                Some(arc) => arc.as_ref(),
                None => overrides
                    .iter()
                    .find(|&&(oi, _)| oi == si)
                    .map(|&(_, g)| g)
                    .expect("override present for every None slot"),
            })
            .collect();
        self.encode_manifest(dir, &gens, false)
    }

    /// Serializes and atomically writes the manifest for the given
    /// per-shard generation views — with every generation number written as
    /// 0 when `fresh_lineage` (a snapshot's files start over in their
    /// directory). What is recorded is each shard's **committed** state —
    /// the generation id maps and norm bounds; delta rows and tombstones
    /// live only in the WALs, so the committed state plus a replay
    /// reconstructs the live state without applying anything twice.
    fn encode_manifest(
        &self,
        dir: &Path,
        gens: &[&ShardGeneration],
        fresh_lineage: bool,
    ) -> io::Result<()> {
        debug_assert_eq!(gens.len(), self.shards.len());
        let committed_total: u64 = gens.iter().map(|g| g.ids.len() as u64).sum();
        let (ix, policy) = (&self.config.base.idistance, &self.config.compaction);
        let mut buf = Vec::new();
        enc::put_u64(&mut buf, MANIFEST_MAGIC);
        enc::put_u64(&mut buf, MANIFEST_VERSION);
        enc::put_u64(&mut buf, self.shards.len() as u64);
        enc::put_u64(&mut buf, self.d as u64);
        enc::put_u64(&mut buf, committed_total);
        enc::put_u64(&mut buf, u64::from(self.config.prune));
        enc::put_f64(&mut buf, self.config.base.c);
        enc::put_f64(&mut buf, self.config.base.p);
        enc::put_u64(&mut buf, self.config.base.m.map_or(u64::MAX, |m| m as u64));
        enc::put_u64(&mut buf, self.config.base.page_size as u64);
        enc::put_u64(&mut buf, self.config.base.pool_pages as u64);
        enc::put_u64(&mut buf, self.config.base.seed);
        enc::put_u64(&mut buf, self.next_global_id.load(Ordering::Acquire));
        enc::put_u64(&mut buf, sync_policy_tag(self.config.wal_sync));
        for word in [ix.kp, ix.nkey, ix.ksp, ix.kmeans_iters] {
            enc::put_u64(&mut buf, word as u64);
        }
        enc::put_u64(&mut buf, ix.seed);
        enc::put_u64(&mut buf, u64::from(ix.verify_quantize));
        enc::put_f64(&mut buf, policy.max_delta_fraction);
        enc::put_f64(&mut buf, policy.max_tombstone_fraction);
        enc::put_u64(&mut buf, policy.min_mutations as u64);
        enc::put_f64(&mut buf, policy.repartition_skew);
        enc::put_u64(&mut buf, u64::from(self.head.is_some()));
        if let Some(basis) = &self.head {
            basis.encode(&mut buf);
        }
        for gen in gens {
            enc::put_u64(&mut buf, gen.ids.len() as u64);
            enc::put_f64(&mut buf, gen.built_max_norm);
            enc::put_u64(&mut buf, if fresh_lineage { 0 } else { gen.generation });
            for &id in &gen.ids {
                enc::put_u64(&mut buf, id);
            }
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        // The swap is the commit point of every build, snapshot, and
        // compaction; a transient stall here (EINTR, a briefly saturated
        // device) should not abort an otherwise healthy commit. Re-running
        // the atomic write is idempotent — it rebuilds the tmp sibling
        // from scratch and the old manifest stays authoritative until the
        // rename lands.
        promips_storage::durability::retry::retry_io(&Default::default(), || {
            write_file_atomic(dir.join(MANIFEST_NAME), &buf)
        })
    }

    /// Reopens an index directory written by [`ShardedProMips::snapshot`],
    /// [`ShardedProMips::build_in_dir`], or compaction: loads the
    /// manifest-named generation of every shard, then **streams** each
    /// shard's write-ahead log (if present) through the replay path in
    /// bounded batches — a log is never buffered wholesale in memory, so
    /// recovery cost is flat in WAL size. With no WALs this is exactly the
    /// read-only open path — bit-identical results to the index that was
    /// saved.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref();
        let file = fs::read(dir.join(MANIFEST_NAME))?;
        let invalid = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
        // The checksum first: nothing below decodes a byte it has not
        // vouched for.
        let Some((buf, crc)) = file.split_last_chunk::<4>() else {
            return Err(invalid("truncated sharded-index manifest".into()));
        };
        if crc32(buf) != u32::from_le_bytes(*crc) {
            return Err(invalid("sharded-index manifest checksum mismatch".into()));
        }
        // A count the checksum covers can still be wild: the reader bounds
        // every read by what remains.
        let mut r = enc::Reader::new(buf);
        if r.u64()? != MANIFEST_MAGIC {
            return Err(invalid("bad sharded-index manifest magic".into()));
        }
        let version = r.u64()?;
        if version != MANIFEST_VERSION {
            return Err(invalid(format!("unsupported manifest version {version}")));
        }
        let (n_shards, d) = (r.u64()? as usize, r.u64()? as usize);
        let (n_points, prune) = (r.u64()?, r.u64()? != 0);
        let (c, p) = (r.f64()?, r.f64()?);
        let m = Some(r.u64()? as usize).filter(|&m| m != usize::MAX);
        let (page_size, pool_pages) = (r.u64()? as usize, r.u64()? as usize);
        let (seed, mut next_global_id) = (r.u64()?, r.u64()?);
        let wal_sync = sync_policy_from_tag(r.u64()?);
        let mut word = || r.u64();
        let idistance = IDistanceConfig {
            kp: word()? as usize,
            nkey: word()? as usize,
            ksp: word()? as usize,
            kmeans_iters: word()? as usize,
            seed: word()?,
            verify_quantize: word()? != 0,
        };
        let compaction = CompactionPolicy {
            max_delta_fraction: f64::from_bits(word()?),
            max_tombstone_fraction: f64::from_bits(word()?),
            min_mutations: word()? as usize,
            repartition_skew: f64::from_bits(word()?),
        };
        // The basis every shard is coded under: a flag, then the basis.
        let head = match r.u64()? {
            0 => None,
            1 if idistance.verify_quantize => Some(HeadBasis::decode(&mut r, d)?),
            flag => {
                return Err(invalid(format!(
                    "bad head-basis flag {flag} in sharded-index manifest"
                )))
            }
        };

        let config = ShardedConfig {
            shards: n_shards,
            prune,
            wal_sync,
            compaction,
            base: promips_core::ProMipsConfig {
                c,
                p,
                m,
                idistance,
                page_size,
                pool_pages,
                seed,
            },
        };
        // Everything past here (routing, compaction, every shard's build)
        // trusts these domains.
        config
            .check()
            .map_err(|e| invalid(format!("manifest: {e}")))?;

        let mut shards = Vec::with_capacity(n_shards.min(1 << 16));
        for si in 0..n_shards {
            let (count, max_norm, generation) = (r.u64()? as usize, r.f64()?, r.u64()?);
            let ids = r.u64s(count)?;
            if let Some(&max_id) = ids.last() {
                next_global_id = next_global_id.max(max_id.saturating_add(1));
            }
            // An empty generation has no file.
            let index = if count == 0 {
                None
            } else {
                let storage = Arc::new(FileStorage::open(
                    shard_path(dir, si, generation),
                    page_size,
                )?);
                let pager = Arc::new(Pager::new(storage, pool_pages, AccessStats::new_shared()));
                let pm = ProMips::open(pager)?;
                if pm.len() != count as u64 || pm.d() != d {
                    return Err(invalid(format!(
                        "shard {si} holds {} points of d = {}, manifest says {count} of d = {d}",
                        pm.len(),
                        pm.d()
                    )));
                }
                if pm.idistance().head() != head.as_ref() {
                    return Err(invalid(format!(
                        "shard {si} is coded under another head basis than the manifest's"
                    )));
                }
                Some(Box::new(pm))
            };
            shards.push(Shard::new(ShardGeneration {
                ids,
                built_max_norm: max_norm,
                generation,
                index,
            }));
        }

        let index = Self {
            config,
            shards,
            d,
            head,
            n_points: AtomicU64::new(n_points),
            next_global_id: AtomicU64::new(next_global_id),
            mut_order: Mutex::new(()),
            maintenance: Mutex::new(()),
            dir: Some(dir.to_path_buf()),
        };

        // Stream each shard's write-ahead log (where one exists) through
        // the replay path; records are decoded from a bounded sliding
        // window and applied one at a time (chunks sealed under the
        // manifest's basis), and torn tails are truncated inside the open. Replay mutates only delta state, so the index
        // can be built first and the `Wal` handles attached after.
        for si in 0..n_shards {
            let wp = wal_path(dir, si);
            if !wp.exists() {
                continue;
            }
            let wal = Wal::open_streaming(&wp, d, index.config.wal_sync, |rec| {
                index.apply_replayed(si, rec)
            })?;
            *index.shards[si].wal.lock() = Some(wal);
        }
        Ok(index)
    }
}
