//! The sharded index: construction, shard bookkeeping, and the MVCC-lite
//! state layout that lets queries run concurrently with mutations.
//!
//! ## Isolation scheme
//!
//! Each [`Shard`] splits its state into an **immutable generation** and a
//! small **mutable overlay**:
//!
//! * `ShardGeneration` — the ProMIPS index (none while the shard is empty)
//!   as of the shard's last (re)build, plus its committed id map and norm
//!   bound.
//!   Generations are never mutated; they are *replaced*, wholesale, behind
//!   an atomically swappable `RwLock<Arc<ShardGeneration>>` handle (the
//!   poor man's arc-swap — the write lock is held only for the pointer
//!   swap, never for IO).
//! * `DeltaState` — everything since that build: appended rows, the
//!   copy-on-write tombstone set, and the live norm bound. Rows live in
//!   the base column's shape: an append-only list of sealed chunks (an f32
//!   slab plus its SQ8 codes) and one small open f32 tail, each behind an
//!   `Arc`. Guarded by a per-shard `RwLock` that readers hold only long
//!   enough to clone the overlay — a handful of `Arc`s, whatever the delta
//!   holds — so a query owns a consistent snapshot without blocking
//!   writers.
//!
//! A reader therefore **never blocks on a mutation**: inserts and deletes
//! take the delta write lock for an append — one row copied, and on every
//! `CHUNK_ROWS`-th the tail's seal, its rows projected onto the index's
//! basis and coded (≈ 0.15 ms for 64 rows at d = 300 under a 64-wide head,
//! hot-cache loop on a 2-core AVX-512 VM) — their fsync happens *outside*
//! any lock readers touch, and compaction builds the next generation
//! entirely off to the side before swapping the handle.
//!
//! Lock order (outer → inner): `mut_order` → `maintenance` → `wal` →
//! `delta` → `gen`. Every code path acquires along this order, which is
//! what makes compaction, the writers, and the fan-out readers
//! deadlock-free by construction.

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use promips_core::ProMips;
use promips_idistance::build::sq8_code_rows;
use promips_idistance::meta::OrigQuant;
use promips_idistance::HeadBasis;
use promips_linalg::{sq_norm2, Matrix};
use promips_storage::{AccessStats, AccessStatsSnapshot, FileStorage, Pager};
use promips_wal::Wal;

use crate::config::ShardedConfig;
use crate::partition;
use crate::persist::shard_path;
use crate::result::CompactionOutcome;

/// Golden-ratio stride for deriving per-shard seeds; shard 0 keeps the base
/// seed so a one-shard build reproduces the unsharded index exactly.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Seed for shard `si` derived from the base config seed.
pub(crate) fn shard_seed(base: u64, si: usize) -> u64 {
    base ^ (si as u64).wrapping_mul(SEED_STRIDE)
}

/// One immutable generation of a shard: its committed id map, the norm
/// bound over those rows, and the index over them. Shared with readers as
/// `Arc<ShardGeneration>`; replaced (never mutated) by compaction.
pub(crate) struct ShardGeneration {
    /// Committed shard-local id → global id, ascending (so per-shard
    /// tie-breaking by local id agrees with global tie-breaking by global
    /// id, and membership checks are binary searches).
    pub ids: Vec<u64>,
    /// `max ‖o‖₂` over the committed rows (not squared).
    pub built_max_norm: f64,
    /// Monotone rebuild counter; durable shards name their data file by it.
    pub generation: u64,
    /// The ProMIPS index over the committed rows (own pager, own file),
    /// `None` exactly when there are none. Built fresh at each compaction,
    /// so it carries no internal delta or tombstones — the shard-level
    /// overlay is the only one. Whether a query scans the rows or prunes
    /// them is the index's own per-query choice (its column pass).
    pub index: Option<Box<ProMips>>,
}

impl ShardGeneration {
    /// A freshly built generation, whose norm bound is the index's: it took
    /// `max ‖o‖²` over the same rows while it was built.
    pub(crate) fn new(ids: Vec<u64>, generation: u64, index: Option<Box<ProMips>>) -> Self {
        let max_sq_norm = index.as_ref().map_or(0.0, |pm| pm.max_sq_norm());
        Self {
            ids,
            built_max_norm: max_sq_norm.sqrt(),
            generation,
            index,
        }
    }
}

/// Rows per sealed delta chunk: the open tail is sealed — SQ8-encoded — when
/// it reaches this many rows. Derived, not a knob. A shard holding `n` delta
/// rows pays per query ≈ `(n/C)·o` for its chunks (bound, max fold, budget
/// tick and kernel call: `o` ≈ 160 ns, fitted before the fold replaced a
/// threshold) plus ≈ `(C/2)·f` for its open tail (single-row f32 scoring
/// of rows written since the last query: `f` ≈ 78
/// ns a row, against 8.6 ns a screened row), least at `C = √(2·n·o/f)`:
/// 70 for `lf300_churn`'s mean 1 150 rows a shard, 92 for its 2 000-row
/// rounds. `o` and `f` are fitted to traced `core.verify_us` on
/// `lf300_churn`, seed 1, five runs each — medians 71.4 µs at C = 32, 65.1
/// at 64, 71.3 at 128; 64 the fastest of the three in each of the five
/// rounds — and two runs 98.5–99.3 µs at 256, 126–146 at 512, 183–202 at
/// 1 024 (4 096, every row in the tail, is the f32 scan this replaced:
/// 245–361). Those were full-width chunks. Coded under a 64-wide head a
/// chunk's kernel call is ≈ 4× cheaper (72 hot chunks: 8.9 µs at w = 64,
/// 38 µs at w = 300), so `o` is smaller than fitted; it was not re-fitted,
/// but five alternated runs per size still keep 64: medians 45.3 µs at
/// C = 32, 42.1 at 64, 50.7 at 128, 64 the fastest in three rounds and 32
/// in the other two.
pub(crate) const CHUNK_ROWS: usize = 64;

/// A run of rows appended since the shard's last rebuild: their ascending
/// global ids and one contiguous `n × d` f32 slab. A **sealed** chunk holds
/// exactly [`CHUNK_ROWS`] rows plus their SQ8 codes under the index's one
/// [`HeadBasis`] (`h` bytes a row, or `d` without one) and quantizer, and
/// is never mutated again; the open tail holds fewer, and no codes.
#[derive(Clone, Default)]
pub(crate) struct DeltaChunk {
    pub gids: Vec<u64>,
    pub rows: Vec<f32>,
    pub codes: Vec<u8>,
    /// `None` for the open tail.
    pub quant: Option<OrigQuant>,
}

impl DeltaChunk {
    /// `(gid, row)` in id order.
    pub(crate) fn iter(&self, d: usize) -> impl Iterator<Item = (u64, &[f32])> {
        self.gids.iter().copied().zip(self.rows.chunks_exact(d))
    }

    /// Codes the slab under `basis` — the index's, which every generation
    /// is coded under too, so one query screen serves both — with the
    /// build's own encoder, [`sq8_code_rows`].
    fn seal(mut self, d: usize, basis: Option<&HeadBasis>) -> Self {
        let rows = Matrix::from_vec(self.gids.len(), d, std::mem::take(&mut self.rows));
        self.quant = Some(sq8_code_rows(&rows, basis, &mut self.codes).0);
        self.rows = rows.into_vec();
        self
    }
}

/// The mutable overlay on top of a [`ShardGeneration`]: everything a query
/// must merge with the committed index to see the live state. Every field
/// is an `Arc` or a scalar, so a clone — a query's snapshot — allocates
/// nothing and costs the same at any delta size.
#[derive(Clone)]
pub(crate) struct DeltaState {
    /// Sealed chunks, ascending by global id (global ids are assigned
    /// monotonically and per-shard WAL order follows assignment order).
    /// Copy-on-write: a seal clones the list of `Arc`s only when a reader
    /// still holds it.
    pub chunks: Arc<Vec<Arc<DeltaChunk>>>,
    /// The open tail, past every sealed id; copy-on-write like the list.
    pub tail: Arc<DeltaChunk>,
    /// Global ids tombstoned since the last rebuild — committed rows and
    /// delta rows alike. Copy-on-write: a query clones the `Arc`, a delete
    /// clones the set only when a reader still holds it.
    pub tombstones: Arc<HashSet<u64>>,
    /// Live norm bound: `built_max_norm` raised in place by delta inserts.
    /// Deletes leave it conservative (a tombstoned max-norm point only
    /// enlarges searched ranges); compaction re-tightens it.
    pub max_norm: f64,
    /// How many tombstones target **committed** ids — the `dead_count`
    /// the masked index search needs for its `k` clamp.
    pub dead_base: usize,
}

impl DeltaState {
    pub(crate) fn empty(built_max_norm: f64) -> Self {
        Self {
            chunks: Arc::default(),
            tail: Arc::default(),
            tombstones: Arc::default(),
            max_norm: built_max_norm,
            dead_base: 0,
        }
    }

    /// Rows appended (live and tombstoned).
    pub(crate) fn len(&self) -> usize {
        self.chunks.len() * CHUNK_ROWS + self.tail.gids.len()
    }

    /// The sealed chunks, then the tail.
    pub(crate) fn parts(&self) -> impl Iterator<Item = &DeltaChunk> {
        self.chunks
            .iter()
            .map(|c| &**c)
            .chain(std::iter::once(&*self.tail))
    }

    /// Every appended `(gid, row)`, in id order.
    pub(crate) fn rows(&self, d: usize) -> impl Iterator<Item = (u64, &[f32])> {
        self.parts().flat_map(move |c| c.iter(d))
    }

    /// Whether `gid` was appended here (live or tombstoned): the one lookup
    /// over the delta — a binary search over the chunks' first ids, then one
    /// inside the chunk.
    pub(crate) fn holds(&self, gid: u64) -> bool {
        let part = if self.tail.gids.first().is_some_and(|&first| first <= gid) {
            &self.tail
        } else {
            match self.chunks.partition_point(|c| c.gids[0] <= gid) {
                0 => return false,
                at => &self.chunks[at - 1],
            }
        };
        part.gids.binary_search(&gid).is_ok()
    }

    /// The largest id appended.
    pub(crate) fn last_gid(&self) -> Option<u64> {
        let last_chunk = || self.chunks.last().and_then(|c| c.gids.last());
        self.tail.gids.last().or_else(last_chunk).copied()
    }

    /// Appends one row, whose id must exceed every id here, raises the norm
    /// bound, and seals the tail under `basis` (the index's) once it holds
    /// [`CHUNK_ROWS`] rows — the one append path of inserts, WAL replay and
    /// a compaction's commit.
    pub(crate) fn append(&mut self, gid: u64, row: &[f32], basis: Option<&HeadBasis>) {
        debug_assert!(
            self.last_gid().is_none_or(|last| last < gid),
            "the delta would lose its ascending gid order"
        );
        let norm = sq_norm2(row).sqrt();
        if norm > self.max_norm {
            self.max_norm = norm;
        }
        let tail = Arc::make_mut(&mut self.tail);
        let room = CHUNK_ROWS - tail.gids.len();
        tail.gids.reserve_exact(room);
        tail.rows.reserve_exact(room * row.len());
        tail.gids.push(gid);
        tail.rows.extend_from_slice(row);
        if tail.gids.len() == CHUNK_ROWS {
            let sealed = std::mem::take(tail).seal(row.len(), basis);
            Arc::make_mut(&mut self.chunks).push(Arc::new(sealed));
        }
    }
}

/// A consistent point-in-time view of one shard, owned by a query for its
/// whole run: the generation `Arc` plus a clone of the overlay. Taking one
/// holds the delta read lock for the duration of four `Arc` clones.
pub(crate) struct ShardSnapshot {
    pub gen: Arc<ShardGeneration>,
    pub delta: DeltaState,
}

impl ShardSnapshot {
    /// Points stored (committed + delta, live + tombstoned).
    pub(crate) fn stored(&self) -> usize {
        self.gen.ids.len() + self.delta.len()
    }

    /// Live (non-tombstoned) points.
    pub(crate) fn live(&self) -> u64 {
        (self.stored() - self.delta.tombstones.len()) as u64
    }
}

/// One shard: an atomically swappable immutable generation, the mutable
/// delta/tombstone overlay, the shard's write-ahead log, and its
/// maintenance ledger.
pub struct Shard {
    /// The committed generation handle. Swapped (under a brief write lock)
    /// by compaction; read-locked only long enough to clone the `Arc`.
    pub(crate) generation: RwLock<Arc<ShardGeneration>>,
    /// The mutable overlay. Writers hold the write lock for in-memory
    /// pushes only — never across IO.
    pub(crate) delta: RwLock<DeltaState>,
    /// The shard's write-ahead log (`None` until the first durable
    /// mutation, and always `None` for in-memory indexes). Doubles as the
    /// shard's **mutation lock**: holding it freezes the overlay against
    /// other mutators and against a compaction commit, which is what keeps
    /// the WAL byte order equal to the apply order.
    pub(crate) wal: Mutex<Option<Wal>>,
    /// The maintenance ledger, stored as one value so a reader never pairs
    /// one pass's install time with another's outcome: the
    /// [`promips_obs::now_ns`] timestamp of the live generation's install
    /// (build, open, or swap — [`crate::ShardMaintenance`] reports the age)
    /// and how the last maintenance pass that touched this shard ended.
    pub(crate) maintenance: Mutex<(u64, CompactionOutcome)>,
}

impl Shard {
    pub(crate) fn new(generation: ShardGeneration) -> Self {
        let delta = DeltaState::empty(generation.built_max_norm);
        Self {
            generation: RwLock::new(Arc::new(generation)),
            delta: RwLock::new(delta),
            wal: Mutex::new(None),
            maintenance: Mutex::new((promips_obs::now_ns(), CompactionOutcome::Never)),
        }
    }

    /// Records a generation swap for the maintenance ledger: stamps the
    /// install time and the outcome of the pass that produced it.
    pub(crate) fn note_generation_swap(&self, outcome: CompactionOutcome) {
        *self.maintenance.lock() = (promips_obs::now_ns(), outcome);
    }

    /// A consistent snapshot of the shard (see [`ShardSnapshot`]). The
    /// delta read lock is held while the generation `Arc` is cloned, and
    /// commits swap both under the delta **write** lock, so the pair is
    /// always mutually consistent.
    pub(crate) fn snapshot(&self) -> ShardSnapshot {
        let delta = self.delta.read();
        let gen = Arc::clone(&self.generation.read());
        ShardSnapshot {
            gen,
            delta: delta.clone(),
        }
    }

    /// Number of points stored in this shard (live + tombstoned).
    pub fn len(&self) -> u64 {
        let delta = self.delta.read();
        (self.generation.read().ids.len() + delta.len()) as u64
    }

    /// True when the shard holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Points inserted since the shard's last (re)build — the in-memory
    /// delta (sealed SQ8-screened chunks plus an open f32 tail) that
    /// queries score on top of the generation and compaction folds away.
    pub fn delta_len(&self) -> usize {
        self.delta.read().len()
    }

    /// The shard's inner-product norm bound `max ‖o‖₂`, **including delta
    /// inserts**: [`crate::ShardedProMips::insert`] raises it in place
    /// whenever a new point's norm exceeds it, so Cauchy–Schwarz pruning
    /// and the seed-probe ordering stay sound under mutation (a tombstoned
    /// max-norm point only leaves the bound conservative). Compaction
    /// re-tightens it over the live rows.
    pub fn max_norm(&self) -> f64 {
        self.delta.read().max_norm
    }

    /// True when the shard holds no index — its committed generation is
    /// empty, and only its delta (if any) answers. Frozen by `benchmark/`,
    /// which compiles against this name.
    pub fn is_exact(&self) -> bool {
        self.generation.read().index.is_none()
    }

    /// Global ids of the shard's points (committed generation first, then
    /// the delta), including tombstoned ids still awaiting compaction.
    pub fn global_ids(&self) -> Vec<u64> {
        let delta = self.delta.read();
        let gen = self.generation.read();
        let mut ids = gen.ids.clone();
        ids.extend(delta.parts().flat_map(|c| c.gids.iter().copied()));
        ids
    }
}

/// A sharded ProMIPS index: `N` shards, each owning its own storage
/// (pager + file) and its own ProMIPS/iDistance index (none while the
/// shard is empty), searched by a norm-bound-pruned parallel fan-out (see
/// [`crate::search`]).
///
/// All operations — including [`ShardedProMips::insert`],
/// [`ShardedProMips::delete`], and [`ShardedProMips::compact`] — take
/// `&self`; interior per-shard locking (see [`Shard`]) isolates readers
/// from writers, so the index can be shared across threads (`Arc<Self>`)
/// with queries running concurrently with mutations and background
/// compaction.
pub struct ShardedProMips {
    pub(crate) config: ShardedConfig,
    pub(crate) shards: Vec<Shard>,
    pub(crate) d: usize,
    /// The one basis every generation's verification codes and every
    /// sealed delta chunk are coded under: estimated once, from all rows,
    /// at build time ([`promips_core::ProMipsConfig::head_basis`] with the
    /// base seed, so one shard codes what the unsharded index does), kept
    /// through every compaction and repartition, and recorded in the
    /// manifest. `None` for full-width codes.
    pub(crate) head: Option<HeadBasis>,
    /// Live (non-tombstoned) points across all shards.
    pub(crate) n_points: AtomicU64,
    /// Next global id handed out by [`ShardedProMips::insert`] (global ids
    /// are stable across compactions and re-partitions).
    pub(crate) next_global_id: AtomicU64,
    /// Serializes mutation *ordering*: held from global-id assignment until
    /// the owning shard's WAL lock is acquired, so per-shard WAL append
    /// order always equals global-id order. Re-partitioning holds it for
    /// its whole run (writes briefly block on writes; reads never do).
    pub(crate) mut_order: Mutex<()>,
    /// Held for the whole run of a shard compaction (freeze → shadow build
    /// → commit), a re-partition and a snapshot, so no two of them overlap
    /// and manifest replacements never race.
    pub(crate) maintenance: Mutex<()>,
    /// Home directory of a durable index; `None` for in-memory builds,
    /// whose mutations are volatile.
    pub(crate) dir: Option<std::path::PathBuf>,
}

impl ShardedProMips {
    /// Builds the sharded index with one in-memory page device per shard.
    pub fn build_in_memory(data: &Matrix, config: ShardedConfig) -> io::Result<Self> {
        Self::build_impl(data, config, None)
    }

    /// Shared build path of [`ShardedProMips::build_in_memory`] and (with
    /// its `dir`) [`ShardedProMips::build_in_dir`]: every shard's
    /// generation 0 comes from [`ShardedProMips::build_generation`], the
    /// builder compaction uses.
    pub(crate) fn build_impl(
        data: &Matrix,
        config: ShardedConfig,
        dir: Option<PathBuf>,
    ) -> io::Result<Self> {
        config.validate();
        assert!(
            !data.is_empty(),
            "cannot build a sharded index over an empty dataset"
        );
        let n = data.rows();
        // The rank pass's norms are the finiteness check: a non-finite row
        // is refused before the basis estimate and before any file of a
        // directory that may hold another index is created or removed.
        let sq_norms = partition::sq_norms(data);
        if !sq_norms.iter().all(|sq| sq.is_finite()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a row's ‖o‖² is not finite: a NaN, infinite or overflowing coordinate",
            ));
        }
        let head = config.base.head_basis(data);
        // Membership lists in ascending global-id order (a row's id is its
        // index).
        let members = partition::assign(&sq_norms, |i| i as u64, config.shards);
        drop(sq_norms);

        let mut index = Self {
            config,
            shards: Vec::with_capacity(members.len()),
            d: data.cols(),
            head,
            n_points: AtomicU64::new(n as u64),
            next_global_id: AtomicU64::new(n as u64),
            mut_order: Mutex::new(()),
            maintenance: Mutex::new(()),
            dir,
        };
        for (si, m) in members.iter().enumerate() {
            let ids: Vec<u64> = m.iter().map(|&i| i as u64).collect();
            let generation = index.build_generation(si, ids, data.gather(m), 0)?;
            index.shards.push(Shard::new(generation));
        }
        Ok(index)
    }

    /// Builds generation `generation` of shard `si` over `rows` (ids
    /// ascending), its codes under the index's basis — the one builder of
    /// the initial build, compaction and re-partitioning. No rows, no index
    /// and no file. For a durable index
    /// the generation's data file is written and fsynced here ([`ProMips::save`]
    /// ends with a pager sync); the manifest swap making it live is the
    /// caller's. Pure shadow work: on failure the partial file is removed
    /// and nothing else changed.
    pub(crate) fn build_generation(
        &self,
        si: usize,
        ids: Vec<u64>,
        rows: Matrix,
        generation: u64,
    ) -> io::Result<ShardGeneration> {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must ascend");
        if rows.is_empty() {
            return Ok(ShardGeneration::new(ids, generation, None));
        }
        let mut cfg = self.config.base.clone();
        cfg.seed = shard_seed(cfg.seed, si);
        let path = self.dir.as_ref().map(|dir| shard_path(dir, si, generation));
        let pager = match &path {
            Some(path) => Arc::new(Pager::new(
                Arc::new(FileStorage::create(path, cfg.page_size)?),
                cfg.pool_pages,
                AccessStats::new_shared(),
            )),
            None => Arc::new(Pager::in_memory(cfg.page_size, cfg.pool_pages)),
        };
        let built = ProMips::build_with_head(&rows, cfg, pager, self.head.clone()).and_then(|pm| {
            if path.is_some() {
                pm.save()?;
            }
            Ok(pm)
        });
        match built {
            Ok(pm) => Ok(ShardGeneration::new(ids, generation, Some(Box::new(pm)))),
            Err(e) => {
                if let Some(path) = &path {
                    let _ = fs::remove_file(path);
                }
                Err(e)
            }
        }
    }

    /// Total number of live points across all shards.
    pub fn len(&self) -> u64 {
        self.n_points.load(Ordering::Acquire)
    }

    /// True when no live points remain (a freshly built index never is;
    /// deleting everything gets here).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The next global id an insert will be assigned.
    pub fn next_global_id(&self) -> u64 {
        self.next_global_id.load(Ordering::Acquire)
    }

    /// True when the index is directory-backed and mutations are logged to
    /// per-shard WALs (false for in-memory builds, whose mutations are
    /// volatile).
    pub fn is_durable(&self) -> bool {
        self.dir.is_some()
    }

    /// Bytes in shard `si`'s write-ahead log (header included), or 0 when
    /// the shard has no log yet. Takes the log's lock, so it waits for a
    /// writer's append and fsync; the search path never calls it.
    pub fn wal_bytes(&self, si: usize) -> u64 {
        self.shards[si]
            .wal
            .lock()
            .as_ref()
            .map_or(0, |w| w.size_bytes())
    }

    /// Per-shard maintenance counters: live points, uncompacted delta,
    /// tombstones, WAL size, data-file generation plus its age, and how
    /// the last compaction pass ended — what an operator watches to see
    /// compaction debt accumulate.
    pub fn maintenance_stats(&self) -> Vec<crate::result::ShardMaintenance> {
        let now = promips_obs::now_ns();
        self.shards
            .iter()
            .enumerate()
            .map(|(si, s)| {
                let snap = s.snapshot();
                let (installed_ns, last_compaction) = *s.maintenance.lock();
                crate::result::ShardMaintenance {
                    shard: si as u32,
                    live: snap.live(),
                    delta_len: snap.delta.len(),
                    tombstones: snap.delta.tombstones.len(),
                    wal_bytes: self.wal_bytes(si),
                    generation: snap.gen.generation,
                    generation_age_ns: now.saturating_sub(installed_ns),
                    last_compaction,
                }
            })
            .collect()
    }

    /// Original dimensionality `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in shard-id order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Per-shard point counts (shard-local stat used by the persistence
    /// tests and the benchmark report).
    pub fn shard_points(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// The active configuration.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// The basis every generation and every sealed delta chunk is coded
    /// under (`None`: full-width codes), fixed at build time.
    pub fn head_basis(&self) -> Option<&HeadBasis> {
        self.head.as_ref()
    }

    /// Aggregated page-access counters over every shard's index.
    pub fn access_stats(&self) -> AccessStatsSnapshot {
        let mut total = AccessStatsSnapshot::default();
        for s in &self.shards {
            if let Some(pm) = &s.generation.read().index {
                let snap = pm.access_stats();
                total.logical_reads += snap.logical_reads;
                total.cache_hits += snap.cache_hits;
                total.cache_misses += snap.cache_misses;
                total.writes += snap.writes;
            }
        }
        total
    }

    /// Resets every shard's page-access counters.
    pub fn reset_stats(&self) {
        for s in &self.shards {
            if let Some(pm) = &s.generation.read().index {
                pm.reset_stats();
            }
        }
    }

    /// Drops every shard's cached pages (cold-cache measurements).
    pub fn clear_cache(&self) {
        for s in &self.shards {
            if let Some(pm) = &s.generation.read().index {
                pm.clear_cache();
            }
        }
    }

    /// Sum of the paper's Index Size metric over the shards' indexes, plus
    /// the raw bytes of the delta overlays and the id maps.
    pub fn index_size_bytes(&self) -> u64 {
        let mut total = 0u64;
        for s in &self.shards {
            let snap = s.snapshot();
            total += snap.stored() as u64 * 8;
            total += snap
                .delta
                .parts()
                .map(|c| (c.rows.len() * 4 + c.codes.len()) as u64)
                .sum::<u64>();
            total += snap
                .gen
                .index
                .as_ref()
                .map_or(0, |pm| pm.index_size_bytes());
        }
        total
    }

    /// Total bytes across every shard's page file (data + index).
    pub fn file_size_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let gen = s.generation.read();
                gen.index.as_ref().map_or(0, |pm| pm.file_size_bytes())
            })
            .sum()
    }
}
