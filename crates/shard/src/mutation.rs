//! The durable mutation path: inserts and deletes that are routed by norm
//! range, hit the owning shard's write-ahead log **before** touching
//! memory, and are visible to the very next query — all through `&self`,
//! so readers keep running while writers commit.
//!
//! Ordering contract (what makes the log *write-ahead*): a mutation is
//! appended to the shard's WAL first — honouring the group-commit policy
//! ([`crate::ShardedConfig::wal_sync`]) — and applied to the in-memory
//! overlay only afterwards. A crash between the two replays the record on
//! reopen; a crash before the append loses a mutation that was never
//! acknowledged. In-memory indexes (no directory) skip the log and take
//! mutations volatilely — same semantics, no durability.
//!
//! Concurrency protocol per mutation:
//!
//! 1. take the global `mut_order` mutex, assign/locate the global id, and
//!    route to the owning shard;
//! 2. acquire that shard's WAL mutex, **then** release `mut_order` — so
//!    per-shard WAL byte order always equals global-id order, without
//!    serializing fsyncs across shards;
//! 3. append to the WAL (fsync per policy) while holding only the WAL
//!    mutex — readers are never blocked on storage;
//! 4. take the shard's delta **write** lock for the in-memory apply (one
//!    row appended to the open tail; every `CHUNK_ROWS`-th append seals
//!    it), then release everything.
//!
//! Deletes re-validate liveness *after* acquiring the WAL mutex: the mutex
//! freezes the shard's mutation state, so the WAL never carries a record
//! that turned into a no-op between the check and the append.
//!
//! Soundness under inserts: the searching conditions (Theorems 1–2) and
//! the cross-shard Cauchy–Schwarz pruning both lean on per-shard norm
//! bounds. [`crate::ShardedProMips::insert`] raises the shard's live bound
//! in place whenever an insert exceeds it, so the fan-out's seed-probe
//! ordering and pruning tests keep seeing a true upper bound. Deletes
//! leave the bound conservative (a bound referencing a tombstoned point
//! only enlarges searched ranges).

use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use promips_core::MutationError;
use promips_linalg::sq_norm2;
use promips_obs::{CounterId, Registry};
use promips_wal::{Wal, WalRecord};

use crate::index::{Shard, ShardedProMips};
use crate::persist::wal_path;

/// `‖point‖₂`, or the refusal of a point with a NaN, infinite or
/// overflowing coordinate — the check the query path makes on `‖q‖²`.
fn finite_norm(point: &[f32]) -> io::Result<f64> {
    let norm = sq_norm2(point).sqrt();
    if norm.is_finite() {
        Ok(norm)
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "‖o‖² is not finite: a NaN, infinite or overflowing coordinate",
        ))
    }
}

impl ShardedProMips {
    /// Inserts a point, returning its global id. The point is routed to a
    /// shard by norm range (the shard whose bound covers it most tightly),
    /// logged to that shard's WAL when the index is directory-backed, and
    /// entered into the shard's in-memory delta — searchable immediately,
    /// folded into the shard's index file at the next compaction.
    /// Concurrent readers are never blocked.
    ///
    /// A point with a NaN or infinite coordinate is refused with
    /// [`MutationError::Io`] of kind `InvalidInput` before anything is
    /// logged: no norm bound covers it and no score ranks it.
    pub fn insert(&self, point: &[f32]) -> Result<u64, MutationError> {
        self.insert_inner(point, finite_norm(point)?, true)
            .map(|(gid, _)| gid)
    }

    /// Inserts a batch under **cross-shard group commit**: every record is
    /// appended to its shard's WAL with the fsync deferred, then each
    /// *touched* WAL is synced exactly once — a burst spanning `S` shards
    /// pays `S` fsyncs instead of one per point (under
    /// [`promips_wal::SyncPolicy::Always`], `points.len()` of them).
    /// Returns the assigned global ids, in order. The batch is durable
    /// when this returns; a crash mid-call can lose the (unacknowledged)
    /// tail, never a prefix of an earlier acknowledged call. Every point is
    /// checked as [`ShardedProMips::insert`] checks it before any is
    /// logged, so a refused batch writes nothing.
    pub fn insert_batch<'a, I>(&self, points: I) -> Result<Vec<u64>, MutationError>
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let points = points
            .into_iter()
            .map(|p| Ok((p, finite_norm(p)?)))
            .collect::<Result<Vec<_>, MutationError>>()?;
        let mut gids = Vec::with_capacity(points.len());
        let mut touched = vec![false; self.shards.len()];
        for (point, norm) in points {
            let (gid, si) = self.insert_inner(point, norm, false)?;
            gids.push(gid);
            touched[si] = true;
        }
        for (si, hit) in touched.iter().enumerate() {
            if *hit {
                if let Some(wal) = self.shards[si].wal.lock().as_mut() {
                    wal.sync()?;
                }
            }
        }
        Registry::global().counter(CounterId::InsertBatches).inc();
        Ok(gids)
    }

    fn insert_inner(
        &self,
        point: &[f32],
        norm: f64,
        sync_now: bool,
    ) -> Result<(u64, usize), MutationError> {
        assert_eq!(point.len(), self.d, "insert dimensionality mismatch");
        let order = self.mut_order.lock();
        let gid = self.next_global_id.fetch_add(1, Ordering::AcqRel);
        let si = self.route(norm);
        let shard = &self.shards[si];
        let mut wal = shard.wal.lock();
        drop(order); // WAL order for this shard is now fixed
        self.wal_append(
            si,
            &mut wal,
            &WalRecord::Insert {
                id: gid,
                vector: point.to_vec(),
            },
            sync_now,
        )?;
        self.apply_insert(shard, gid, point);
        Registry::global().counter(CounterId::Inserts).inc();
        Ok((gid, si))
    }

    /// Deletes a point by global id. Typed refusals instead of a `bool`:
    /// [`MutationError::UnknownId`] for an id never assigned,
    /// [`MutationError::DeadId`] for one already tombstoned (or compacted
    /// away after deletion) — neither writes a log record, so the WAL
    /// never carries no-ops.
    pub fn delete(&self, gid: u64) -> Result<(), MutationError> {
        let order = self.mut_order.lock();
        let Some(si) = self.owning_shard(gid) else {
            drop(order);
            return Err(if gid >= self.next_global_id.load(Ordering::Acquire) {
                MutationError::UnknownId(gid)
            } else {
                // Assigned in the past but stored nowhere: it was deleted
                // and the tombstone has since been compacted away.
                MutationError::DeadId(gid)
            });
        };
        let shard = &self.shards[si];
        let mut wal = shard.wal.lock();
        drop(order);
        // Re-validate under the WAL mutex: the shard's mutation state is
        // frozen now, so this verdict holds through the append below.
        let in_gen = {
            let delta = shard.delta.read();
            if delta.tombstones.contains(&gid) {
                return Err(MutationError::DeadId(gid));
            }
            shard.generation.read().ids.binary_search(&gid).is_ok()
        };
        self.wal_append(si, &mut wal, &WalRecord::Delete { id: gid }, true)?;
        self.apply_delete(shard, gid, in_gen);
        Registry::global().counter(CounterId::Deletes).inc();
        Ok(())
    }

    /// Whether a global id names a live point.
    pub fn contains(&self, gid: u64) -> bool {
        self.shards.iter().any(|s| {
            let delta = s.delta.read();
            if delta.tombstones.contains(&gid) {
                return false;
            }
            delta.holds(gid) || s.generation.read().ids.binary_search(&gid).is_ok()
        })
    }

    /// The shard storing `gid` (live or tombstoned), if any. Each shard's
    /// committed id map and delta are both ascending, so this is a few
    /// binary searches per shard.
    pub(crate) fn owning_shard(&self, gid: u64) -> Option<usize> {
        self.shards.iter().position(|s| {
            s.delta.read().holds(gid) || s.generation.read().ids.binary_search(&gid).is_ok()
        })
    }

    /// Routes a point of 2-norm `norm` by norm range, against the shards'
    /// current (insert-raised) norm bounds.
    fn route(&self, norm: f64) -> usize {
        let bounds: Vec<f64> = self
            .shards
            .iter()
            .map(|s| s.delta.read().max_norm)
            .collect();
        crate::partition::route(norm, &bounds) as usize
    }

    /// Appends a record to shard `si`'s WAL (no-op for in-memory indexes).
    /// The log file is created on the shard's first mutation: a shard
    /// without a log has none on disk either (`open` attaches every log it
    /// finds, and a build or snapshot removes the ones it finds before its
    /// manifest names the directory). `sync_now = false` defers the fsync
    /// for group commit — the caller owns syncing before acknowledging.
    fn wal_append(
        &self,
        si: usize,
        slot: &mut Option<Wal>,
        rec: &WalRecord,
        sync_now: bool,
    ) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let wal = match slot {
            Some(wal) => wal,
            None => slot.insert(Wal::create(
                wal_path(dir, si),
                self.d,
                self.config.wal_sync,
            )?),
        };
        wal.append_with_sync(rec, sync_now)
    }

    /// Replays one WAL record against shard `si` (used by
    /// [`crate::ShardedProMips::open`]; no concurrency at replay time, but
    /// the locked paths are reused so the invariants live in one place).
    ///
    /// Replay must be **idempotent against stale records**: a crash after
    /// a compaction's manifest swap but before its WAL rewrite leaves a
    /// log whose folded prefix is already in the live generation. A stale
    /// insert is recognised by its id being present somewhere
    /// (re-partitioning may have moved it to another shard) **or** by
    /// falling at or below the shard's current maximum id — global ids are
    /// assigned monotonically, so a genuinely unfolded insert is always
    /// larger than everything the shard holds, while a folded-then-deleted
    /// id (absent everywhere) is not. A stale delete finds no live point
    /// and no-ops on its own.
    pub(crate) fn apply_replayed(&self, si: usize, rec: WalRecord) -> io::Result<()> {
        match rec {
            WalRecord::Insert { id, vector } => {
                if vector.len() != self.d {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "WAL record dimensionality {} != index {}",
                            vector.len(),
                            self.d
                        ),
                    ));
                }
                if finite_norm(&vector).is_err() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("WAL insert of id {id} holds a non-finite coordinate"),
                    ));
                }
                self.next_global_id.fetch_max(id + 1, Ordering::AcqRel);
                let shard = &self.shards[si];
                let stale = {
                    let delta = shard.delta.read();
                    let max_here = delta
                        .last_gid()
                        .or_else(|| shard.generation.read().ids.last().copied());
                    max_here.is_some_and(|m| m >= id) || self.owning_shard(id).is_some()
                };
                if !stale {
                    self.apply_insert(shard, id, &vector);
                }
            }
            WalRecord::Delete { id } => {
                self.replay_delete(&self.shards[si], id);
            }
        }
        Ok(())
    }

    fn replay_delete(&self, shard: &Shard, gid: u64) {
        let in_gen = {
            let delta = shard.delta.read();
            if delta.tombstones.contains(&gid) {
                return; // already dead (torn-tail double delete)
            }
            let in_gen = shard.generation.read().ids.binary_search(&gid).is_ok();
            if !in_gen && !delta.holds(gid) {
                return; // stale: the point was folded away
            }
            in_gen
        };
        self.apply_delete(shard, gid, in_gen);
    }

    /// The in-memory half of an insert, logged or replayed: appends the row
    /// to the shard's delta and counts it live.
    fn apply_insert(&self, shard: &Shard, gid: u64, row: &[f32]) {
        shard.delta.write().append(gid, row, self.head.as_ref());
        self.n_points.fetch_add(1, Ordering::AcqRel);
    }

    /// The in-memory half of a delete, logged or replayed: tombstones `gid`
    /// — counted in `dead_base` when it names a committed row (`in_gen`) —
    /// and counts it dead.
    fn apply_delete(&self, shard: &Shard, gid: u64, in_gen: bool) {
        {
            let mut delta = shard.delta.write();
            Arc::make_mut(&mut delta.tombstones).insert(gid);
            if in_gen {
                delta.dead_base += 1;
            }
        }
        self.n_points.fetch_sub(1, Ordering::AcqRel);
    }

    /// Forces every shard's WAL to durable media regardless of the
    /// group-commit policy (e.g. before acknowledging a batch).
    pub fn sync_wal(&self) -> io::Result<()> {
        for shard in &self.shards {
            if let Some(wal) = shard.wal.lock().as_mut() {
                wal.sync()?;
            }
        }
        Ok(())
    }

    /// Total pending mutations (delta inserts + tombstones) across shards.
    pub fn pending_mutations(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let delta = s.delta.read();
                delta.len() + delta.tombstones.len()
            })
            .sum()
    }
}
