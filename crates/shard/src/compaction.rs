//! Online, crash-safe compaction: folding a shard's delta and tombstones
//! into a fresh **generation** of its data file while readers keep
//! serving, and re-partitioning the whole index when the live norm
//! distribution has drifted off the shard boundaries.
//!
//! Compaction runs on the thread that calls it: a caller that wants it in
//! the background calls [`ShardedProMips::compact`] in a loop on a thread
//! of its own.
//!
//! ## Shadow build
//!
//! Compaction never drains the live shard. It **freezes** a snapshot of
//! the overlay (the delta prefix and the tombstone `Arc` at freeze time),
//! builds the next generation entirely off to the side from committed
//! live rows + that frozen delta, and only then commits. Readers keep
//! serving the old generation merged with the *live* overlay the whole
//! time; writers keep appending past the freeze point. The commit splits
//! the overlay at the freeze point: the frozen prefix is now inside the
//! new generation, the suffix (everything that arrived during the build)
//! is re-sealed on chunk boundaries of its own as the new delta. A failed
//! build leaves zero footprint — the old generation was never touched, so
//! there is nothing to roll back.
//!
//! ## The generation/manifest protocol
//!
//! Every durable shard's data file carries a generation number in its name
//! (`shard_0007.pmx` is generation 0, `shard_0007.g3.pmx` generation 3).
//! The manifest names the **live** generation of every shard, and the
//! manifest itself is only ever replaced atomically (write
//! `MANIFEST.pms.tmp`, fsync, rename, fsync the directory — see
//! [`promips_storage::write_file_atomic`]). A commit therefore runs:
//!
//! 1. build generation `g+1` off-thread (new file, fsynced) — holding
//!    only the index's maintenance lock, which readers and writers never
//!    take;
//! 2. atomically swap the manifest to point at `g+1` — **the commit
//!    point**;
//! 3. atomically rewrite the shard's WAL down to the unfolded suffix
//!    (records that arrived after the freeze);
//! 4. swap the in-memory generation handle and split the overlay;
//! 5. best-effort delete of the generation-`g` file.
//!
//! A crash (or injected fault) in (1) leaves an orphan file and the old
//! manifest: the reopened index replays the intact WAL over generation
//! `g` and retries compaction later. A crash between (2) and (3) reopens
//! on `g+1` and replays WAL records whose folded prefix is already in the
//! file — which is why replay of a stale insert (id at or below the
//! shard's max, or present elsewhere) or stale delete (id absent) is
//! defined as a no-op. Nothing acknowledged is ever lost, nothing is ever
//! applied twice.
//!
//! ## What compaction re-takes
//!
//! The new generation is a fresh ProMIPS index over the live rows — or
//! nothing, when deletes left none: no index, no data file, a manifest
//! count of 0, until a later compaction finds rows again. The shard's norm
//! bound is re-tightened over those rows, undoing the conservative growth
//! deletes leave behind.
//!
//! ## Re-partitioning
//!
//! Norm-range partitioning (arXiv:1810.09104) only prunes well while the
//! shard boundaries track the **live** norm distribution; a stream of
//! skewed inserts can pile most live points into one shard.
//! [`ShardedProMips::repartition`] recomputes equal-count boundaries over
//! every live point and rebuilds all shards (one generation bump each,
//! one manifest swap, all WALs truncated); [`ShardedProMips::compact`]
//! triggers it automatically when
//! [`CompactionPolicy::repartition_skew`] is exceeded. Re-partitioning
//! freezes **writers** (it moves ids between shards, so the mutation
//! order lock is held throughout) but never readers.

use std::collections::HashSet;
use std::fs;
use std::io;
use std::sync::Arc;

use promips_linalg::Matrix;
use promips_obs::{CounterId, Registry};
use promips_wal::WalRecord;

use crate::index::{DeltaState, ShardGeneration, ShardSnapshot, ShardedProMips};
use crate::persist::shard_path;
use crate::result::CompactionOutcome;

/// When the mutation lifecycle folds deltas and tombstones back into shard
/// files, and when it re-cuts the shard boundaries.
#[derive(Debug, Clone, Copy)]
pub struct CompactionPolicy {
    /// Compact a shard once its delta holds more than this fraction of its
    /// live points.
    pub max_delta_fraction: f64,
    /// Compact a shard once more than this fraction of its stored points
    /// are tombstones.
    pub max_tombstone_fraction: f64,
    /// Never trigger below this many pending mutations (delta +
    /// tombstones) — rebuilding a shard over single-digit deltas is pure
    /// overhead.
    pub min_mutations: usize,
    /// Re-partition the whole index when the largest shard's live count
    /// exceeds this multiple of the ideal (total / shards). `f64::INFINITY`
    /// disables skew-triggered re-partitioning.
    pub repartition_skew: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self {
            max_delta_fraction: 0.25,
            max_tombstone_fraction: 0.25,
            min_mutations: 64,
            repartition_skew: 4.0,
        }
    }
}

impl CompactionPolicy {
    /// Whether a shard with the given live/delta/tombstone counts is due.
    pub fn due(&self, live: u64, delta: usize, tombstones: usize) -> bool {
        if delta + tombstones < self.min_mutations.max(1) {
            return false;
        }
        let base = (live as f64).max(1.0);
        delta as f64 / base > self.max_delta_fraction
            || tombstones as f64 / (live as f64 + tombstones as f64).max(1.0)
                > self.max_tombstone_fraction
    }
}

/// What one [`ShardedProMips::compact`] pass did.
#[derive(Debug, Clone, Default)]
pub struct CompactionReport {
    /// Shards folded into a new generation this pass.
    pub compacted: Vec<usize>,
    /// Whether the pass re-partitioned the whole index (which compacts
    /// every shard as a side effect).
    pub repartitioned: bool,
}

/// Copies out what a rebuild of `gen` keeps, without consuming anything —
/// the read side of a shadow rebuild: the committed rows `tombs` does not
/// kill, then the surviving rows of `delta`. Ids ascending (a generation's
/// id map ascends, and a delta's ids ascend past it), rows in that order,
/// in one buffer sized once — each row is copied to its final place as it
/// is read.
fn live_rows(
    gen: &ShardGeneration,
    tombs: &HashSet<u64>,
    delta: &DeltaState,
    d: usize,
) -> io::Result<(Vec<u64>, Matrix)> {
    let live_delta = || delta.rows(d).filter(|(gid, _)| !tombs.contains(gid));
    let spare_rows = live_delta().count();
    let (mut gids, mut flat) = match &gen.index {
        Some(pm) => {
            let dead = |l: u64| tombs.contains(&gen.ids[l as usize]);
            let (locals, rows) = pm.live_rows_snapshot(&dead, spare_rows)?;
            let gids: Vec<u64> = locals.iter().map(|&l| gen.ids[l as usize]).collect();
            (gids, rows.into_vec())
        }
        None => (
            Vec::with_capacity(spare_rows),
            Vec::with_capacity(spare_rows * d),
        ),
    };
    for (gid, row) in live_delta() {
        gids.push(gid);
        flat.extend_from_slice(row);
    }
    let rows = Matrix::from_vec(gids.len(), d, flat);
    Ok((gids, rows))
}

impl ShardedProMips {
    /// Imbalance of live points across shards: `max / ideal` where ideal is
    /// `total / shards`. 1.0 is perfectly balanced; an empty index reports
    /// 1.0.
    pub fn shard_skew(&self) -> f64 {
        let live: Vec<u64> = self.shards.iter().map(|s| s.snapshot().live()).collect();
        let total: u64 = live.iter().sum();
        if total == 0 || live.len() <= 1 {
            return 1.0;
        }
        let max = live.iter().max().copied().unwrap_or(0);
        max as f64 * live.len() as f64 / total as f64
    }

    /// One policy-driven maintenance pass: re-partitions if the live skew
    /// exceeds [`CompactionPolicy::repartition_skew`] **and** at least one
    /// shard is due (re-partitioning folds every delta anyway), otherwise
    /// compacts each shard the policy marks due.
    pub fn compact(&self) -> io::Result<CompactionReport> {
        let policy = self.config.compaction;
        let is_due = |si: usize| {
            let s = &self.shards[si];
            let delta = s.delta.read();
            let stored = self.shards[si].generation.read().ids.len() + delta.len();
            let live = (stored - delta.tombstones.len()) as u64;
            policy.due(live, delta.len(), delta.tombstones.len())
        };
        let mut report = CompactionReport::default();
        if !(0..self.shards.len()).any(is_due) {
            return Ok(report);
        }
        if policy.repartition_skew.is_finite()
            && self.shards.len() > 1
            && self.shard_skew() > policy.repartition_skew
        {
            self.repartition()?;
            report.repartitioned = true;
            report.compacted = (0..self.shards.len()).collect();
            return Ok(report);
        }
        for si in 0..self.shards.len() {
            if is_due(si) && self.compact_shard(si)? {
                report.compacted.push(si);
            }
        }
        Ok(report)
    }

    /// Unconditionally compacts every shard with pending mutations (e.g.
    /// before [`ShardedProMips::snapshot`]). Returns the shards compacted.
    pub fn compact_all(&self) -> io::Result<Vec<usize>> {
        let mut done = Vec::new();
        for si in 0..self.shards.len() {
            if self.compact_shard(si)? {
                done.push(si);
            }
        }
        Ok(done)
    }

    /// Folds shard `si`'s frozen delta and tombstones into a fresh
    /// generation of its data file via a shadow build (see the module
    /// docs), then commits. Returns `false` when the shard had no pending
    /// mutations. Queries are served throughout from the old generation +
    /// live overlay; mutations that land during the build survive as the
    /// new delta. The index and the shard's norm bound are both rebuilt over
    /// the live rows.
    pub fn compact_shard(&self, si: usize) -> io::Result<bool> {
        let res = self.compact_shard_inner(si);
        match &res {
            Ok(true) => Registry::global().counter(CounterId::Compactions).inc(),
            Ok(false) => {}
            // Covers shadow-build and commit failures alike: even the
            // swapped-but-WAL-rewrite-failed path reports Failed, since the
            // pass needs operator attention either way. The install time
            // stays that of the generation still live.
            Err(_) => self.shards[si].maintenance.lock().1 = CompactionOutcome::Failed,
        }
        res
    }

    fn compact_shard_inner(&self, si: usize) -> io::Result<bool> {
        let shard = &self.shards[si];
        let _maintenance = self.maintenance.lock();

        // ---- Freeze: a point-in-time view of the overlay. ----------------
        let frozen = shard.snapshot();
        if frozen.delta.len() == 0 && frozen.delta.tombstones.is_empty() {
            return Ok(false);
        }
        let split = frozen.delta.len();
        let frozen_tombs = &frozen.delta.tombstones;

        // ---- Shadow build: readers and writers run free. ----------------
        let (gids, rows) = live_rows(&frozen.gen, frozen_tombs, &frozen.delta, self.d)?;
        let new_gen = self.build_generation(si, gids, rows, frozen.gen.generation + 1)?;

        // ---- Commit: manifest swap, WAL rewrite, handle swap. ------------
        self.commit_shard(si, &frozen.gen, new_gen, split, frozen_tombs)?;
        Ok(true)
    }

    /// The commit step of one shard compaction (see the module docs for
    /// the crash windows each ordering decision covers).
    fn commit_shard(
        &self,
        si: usize,
        old_gen: &ShardGeneration,
        new_gen: ShardGeneration,
        split: usize,
        frozen_tombs: &HashSet<u64>,
    ) -> io::Result<()> {
        let shard = &self.shards[si];
        // The caller holds the maintenance lock. The WAL mutex freezes this
        // shard's mutation state for the whole commit; readers never take
        // it.
        let mut wal = shard.wal.lock();
        let new_gen = Arc::new(new_gen);

        // 1. Manifest swap — THE commit point. On failure nothing moved:
        //    the old generation stays authoritative on disk and in memory,
        //    and the new file is deleted.
        if let Some(dir) = self.dir.clone() {
            if let Err(e) = self.write_manifest_with(&dir, &[(si, &new_gen)]) {
                let _ = fs::remove_file(shard_path(&dir, si, new_gen.generation));
                return Err(e);
            }
        }

        // The unfolded suffix, the next overlay: the inserts after the
        // freeze, re-sealed on chunk boundaries of their own (the norm bound
        // re-tightened over them), and the tombstones set after it. Built
        // under the read lock: the WAL mutex already keeps it still.
        let next = {
            let delta = shard.delta.read();
            let mut next = DeltaState::empty(new_gen.built_max_norm);
            for (gid, row) in delta.rows(self.d).skip(split) {
                next.append(gid, row, self.head.as_ref());
            }
            let late_tombs: HashSet<u64> = delta
                .tombstones
                .iter()
                .filter(|t| !frozen_tombs.contains(t))
                .copied()
                .collect();
            next.dead_base = late_tombs
                .iter()
                .filter(|t| new_gen.ids.binary_search(t).is_ok())
                .count();
            next.tombstones = Arc::new(late_tombs);
            next
        };

        // 2. Rewrite the WAL down to that suffix: its inserts, from the
        //    slabs (ascending gid — all larger than anything in the new
        //    generation), then its deletes (their targets all exist by
        //    then). The rewrite is atomic (tmp + rename); if it fails the
        //    old log survives intact, and replaying its folded prefix over
        //    the new generation is a no-op by the staleness rules.
        let mut rewrite_result = Ok(());
        if let Some(w) = wal.as_mut() {
            let mut late_tombs: Vec<u64> = next.tombstones.iter().copied().collect();
            late_tombs.sort_unstable();
            let suffix: Vec<WalRecord> = next
                .rows(self.d)
                .map(|(id, row)| WalRecord::Insert {
                    id,
                    vector: row.to_vec(),
                })
                .chain(late_tombs.into_iter().map(|id| WalRecord::Delete { id }))
                .collect();
            rewrite_result = w.rewrite(&suffix);
        }

        // 3. Swap the generation handle and the overlay — under the delta
        //    write lock so no reader ever pairs the new generation with the
        //    old overlay (or vice versa). This happens regardless of the
        //    rewrite outcome: the on-disk manifest already points at the
        //    new generation.
        {
            let mut delta = shard.delta.write();
            let mut gen_slot = shard.generation.write();
            *delta = next;
            *gen_slot = Arc::clone(&new_gen);
        }
        Registry::global().counter(CounterId::GenerationSwaps).inc();
        shard.note_generation_swap(CompactionOutcome::Compacted);

        // 4. The superseded file is garbage now; removal is best-effort
        //    (a crash here merely leaks a file the manifest never names).
        if let Some(dir) = &self.dir {
            let _ = fs::remove_file(shard_path(dir, si, old_gen.generation));
        }
        rewrite_result
    }

    /// Recomputes norm-range boundaries over **every live point** and
    /// rebuilds all shards against them, migrating rows between shards.
    /// Global ids are preserved; every shard gets a generation bump, one
    /// manifest swap commits them all, and every WAL is truncated. Writers
    /// are frozen for the duration (ids move between shards, so the
    /// mutation-order lock is held throughout); **readers are not** — they
    /// serve the old generations until the swap.
    ///
    /// The live rows of every shard are copied out once, laid end to end,
    /// and ranked by `(‖o‖², gid)` over one `‖o‖²` a row: the same
    /// boundaries and tie-breaks a build over those rows in gid order
    /// would draw. Each new shard then gathers its members, in gid order,
    /// straight from that one copy — the live dataset plus one shard's
    /// rows are resident for the duration.
    pub fn repartition(&self) -> io::Result<()> {
        let ns = self.shards.len();
        // Lock order: mut_order → maintenance → all WALs (ascending by
        // shard id).
        let _order = self.mut_order.lock();
        let _maintenance = self.maintenance.lock();
        let mut wals: Vec<_> = self.shards.iter().map(|s| s.wal.lock()).collect();

        // All mutation state is frozen now; snapshot and gather live rows.
        let snaps: Vec<ShardSnapshot> = self.shards.iter().map(|s| s.snapshot()).collect();
        let live_total: usize = snaps
            .iter()
            .map(|s| s.stored() - s.delta.tombstones.len())
            .sum();
        let mut all_gids: Vec<u64> = Vec::with_capacity(live_total);
        let mut flat: Vec<f32> = Vec::with_capacity(live_total * self.d);
        for snap in &snaps {
            let (gids, rows) = live_rows(&snap.gen, &snap.delta.tombstones, &snap.delta, self.d)?;
            all_gids.extend(gids);
            flat.extend_from_slice(rows.as_slice());
        }
        // Each shard's rows ascend; across shards they interleave. Each new
        // shard's member indices come back in gid order, so its one gather
        // below is already in id-map order.
        let all_rows = Matrix::from_vec(all_gids.len(), self.d, flat);
        let members =
            crate::partition::assign(&crate::partition::sq_norms(&all_rows), |i| all_gids[i], ns);

        // Shadow-build every new generation before committing anything: a
        // failed build deletes its files and leaves the old index — disk
        // and memory — untouched.
        let mut new_gens: Vec<Arc<ShardGeneration>> = Vec::with_capacity(ns);
        let discard = |gens: &[Arc<ShardGeneration>]| {
            if let Some(dir) = &self.dir {
                for (ri, g) in gens.iter().enumerate() {
                    let _ = fs::remove_file(shard_path(dir, ri, g.generation));
                }
            }
        };
        for (si, m) in members.iter().enumerate() {
            let gids: Vec<u64> = m.iter().map(|&i| all_gids[i]).collect();
            let rows = all_rows.gather(m);
            match self.build_generation(si, gids, rows, snaps[si].gen.generation + 1) {
                Ok(g) => new_gens.push(Arc::new(g)),
                Err(e) => {
                    discard(&new_gens);
                    return Err(e);
                }
            }
        }

        // One manifest swap commits every shard's new generation.
        if let Some(dir) = self.dir.clone() {
            let overrides: Vec<(usize, &ShardGeneration)> = new_gens
                .iter()
                .enumerate()
                .map(|(si, g)| (si, g.as_ref()))
                .collect();
            if let Err(e) = self.write_manifest_with(&dir, &overrides) {
                discard(&new_gens);
                return Err(e);
            }
        }

        // Everything is folded: truncate the logs. A failure here leaves a
        // stale-but-safe log (replay skips folded records), so finish the
        // in-memory swap first and report the error after.
        let mut first_err = None;
        for slot in wals.iter_mut() {
            if let Some(w) = slot.as_mut() {
                if let Err(e) = w.truncate() {
                    first_err.get_or_insert(e);
                }
            }
        }

        let reg = Registry::global();
        for (si, new_gen) in new_gens.into_iter().enumerate() {
            let shard = &self.shards[si];
            {
                let mut delta = shard.delta.write();
                let mut gen_slot = shard.generation.write();
                *delta = DeltaState::empty(new_gen.built_max_norm);
                *gen_slot = Arc::clone(&new_gen);
            }
            reg.counter(CounterId::GenerationSwaps).inc();
            shard.note_generation_swap(CompactionOutcome::Repartitioned);
            if let Some(dir) = &self.dir {
                let old = &snaps[si].gen;
                let _ = fs::remove_file(shard_path(dir, si, old.generation));
            }
        }
        reg.counter(CounterId::Repartitions).inc();
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_triggers_on_fractions_and_floor() {
        let p = CompactionPolicy::default();
        // Below the mutation floor: never due.
        assert!(!p.due(100, 10, 10));
        // Delta fraction: 300 delta over 1000 live > 0.25.
        assert!(p.due(1000, 300, 0));
        assert!(!p.due(1000, 100, 0));
        // Tombstone fraction: 300 dead of 1000 stored.
        assert!(p.due(700, 0, 300));
        assert!(!p.due(900, 0, 100));
        // Disabled repartition skew stays disabled.
        assert!(CompactionPolicy {
            repartition_skew: f64::INFINITY,
            ..p
        }
        .repartition_skew
        .is_infinite());
    }
}
