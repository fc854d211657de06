//! The [`Storage`] trait (raw page device) and the [`Pager`] (the metered,
//! cached access path every index component uses).

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::BufferPool;
use crate::durability::faults::{self, IoOp};
use crate::durability::sync_file_data;
use crate::metrics::AccessStats;
use crate::page::{PageBuf, PageId};

/// A raw page device: fixed page size, random-access read/write, append-only
/// allocation.
pub trait Storage: Send + Sync {
    /// Page size in bytes.
    fn page_size(&self) -> usize;
    /// Number of allocated pages.
    fn num_pages(&self) -> u64;
    /// Reads page `id` into `buf` (`buf.len() == page_size`).
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> io::Result<()>;
    /// Writes page `id` from `buf`.
    fn write_page(&self, id: PageId, buf: &[u8]) -> io::Result<()>;
    /// Allocates a fresh zeroed page and returns its id.
    fn allocate(&self) -> io::Result<PageId>;
    /// Appends `bytes` — a non-empty whole number of pages — as fresh
    /// consecutive pages in one device write and returns the first one's
    /// id. On error no page was allocated.
    fn append_pages(&self, bytes: &[u8]) -> io::Result<PageId>;
    /// Flushes to durable media (no-op for memory).
    fn sync(&self) -> io::Result<()>;
}

/// In-memory page device. Used by unit tests and by experiments that only
/// care about logical page-access counts.
pub struct MemStorage {
    page_size: usize,
    pages: Mutex<Vec<PageBuf>>,
}

impl MemStorage {
    /// Creates an empty in-memory device with the given page size.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size too small: {page_size}");
        Self {
            page_size,
            pages: Mutex::new(Vec::new()),
        }
    }
}

impl Storage for MemStorage {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        let pages = self.pages.lock();
        let page = pages.get(id as usize).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("page {id} not allocated"))
        })?;
        buf.copy_from_slice(page.as_slice());
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> io::Result<()> {
        assert_eq!(buf.len(), self.page_size);
        let mut pages = self.pages.lock();
        let page = pages.get_mut(id as usize).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("page {id} not allocated"))
        })?;
        page.as_mut_slice().copy_from_slice(buf);
        Ok(())
    }

    fn allocate(&self) -> io::Result<PageId> {
        let mut pages = self.pages.lock();
        pages.push(PageBuf::zeroed(self.page_size));
        Ok(pages.len() as u64 - 1)
    }

    fn append_pages(&self, bytes: &[u8]) -> io::Result<PageId> {
        assert!(!bytes.is_empty() && bytes.len().is_multiple_of(self.page_size));
        let mut pages = self.pages.lock();
        let start = pages.len() as u64;
        pages.extend(
            bytes
                .chunks_exact(self.page_size)
                .map(|page| PageBuf::from_vec(page.to_vec())),
        );
        Ok(start)
    }

    fn sync(&self) -> io::Result<()> {
        Ok(())
    }
}

/// File-backed page device using positioned I/O (`pread`/`pwrite`).
pub struct FileStorage {
    page_size: usize,
    file: File,
    /// Kept for fault-plan scoping: page reads, page writes and the data
    /// fsync route through the durability shim so tests can fault one
    /// shard's data file.
    path: PathBuf,
    num_pages: Mutex<u64>,
}

impl FileStorage {
    /// Creates (truncating) a page file at `path`.
    pub fn create(path: impl AsRef<Path>, page_size: usize) -> io::Result<Self> {
        assert!(page_size >= 64, "page size too small: {page_size}");
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(Self {
            page_size,
            file,
            path,
            num_pages: Mutex::new(0),
        })
    }

    /// Opens an existing page file; its length must be a multiple of
    /// `page_size`.
    pub fn open(path: impl AsRef<Path>, page_size: usize) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("file length {len} not a multiple of page size {page_size}"),
            ));
        }
        Ok(Self {
            page_size,
            file,
            path,
            num_pages: Mutex::new(len / page_size as u64),
        })
    }

    /// Total file size in bytes (the paper's Index Size measurement unit).
    pub fn size_bytes(&self) -> u64 {
        *self.num_pages.lock() * self.page_size as u64
    }
}

impl Storage for FileStorage {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        *self.num_pages.lock()
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        faults::check(IoOp::Read, &self.path)?;
        self.file.read_exact_at(buf, id * self.page_size as u64)
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> io::Result<()> {
        assert_eq!(buf.len(), self.page_size);
        faults::check(IoOp::Write, &self.path)?;
        self.file.write_all_at(buf, id * self.page_size as u64)
    }

    fn allocate(&self) -> io::Result<PageId> {
        let mut n = self.num_pages.lock();
        let id = *n;
        // Extend the file eagerly so subsequent reads of the fresh page work.
        self.file.set_len((id + 1) * self.page_size as u64)?;
        *n += 1;
        Ok(id)
    }

    fn append_pages(&self, bytes: &[u8]) -> io::Result<PageId> {
        assert!(!bytes.is_empty() && bytes.len().is_multiple_of(self.page_size));
        let mut n = self.num_pages.lock();
        let start = *n;
        let at = start * self.page_size as u64;
        faults::check(IoOp::Write, &self.path)?;
        self.file.set_len(at + bytes.len() as u64)?;
        self.file.write_all_at(bytes, at)?;
        // Only now do the pages exist: a failed write leaves the count
        // where it was, and the next allocation cuts the file back to it.
        *n += (bytes.len() / self.page_size) as u64;
        Ok(start)
    }

    fn sync(&self) -> io::Result<()> {
        sync_file_data(&self.file, &self.path)
    }
}

/// The metered, cached page-access path.
///
/// Every component that touches disk (B+-tree, iDistance data pages, QALSH
/// tables, PQ inverted lists) goes through a `Pager`, so the experiment
/// harness can read one [`AccessStats`] per method and reproduce Fig. 7.
pub struct Pager {
    storage: Arc<dyn Storage>,
    pool: BufferPool,
    stats: Arc<AccessStats>,
}

impl Pager {
    /// Wraps a storage device with a buffer pool of `capacity` pages,
    /// striped across the default shard count (see
    /// [`crate::buffer::DEFAULT_SHARDS`]).
    pub fn new(storage: Arc<dyn Storage>, capacity: usize, stats: Arc<AccessStats>) -> Self {
        Self {
            storage,
            pool: BufferPool::new(capacity),
            stats,
        }
    }

    /// As [`Pager::new`] with an explicit buffer-pool stripe count — `1`
    /// is a single-mutex pool (the contention benchmark's baseline).
    pub fn with_pool_shards(
        storage: Arc<dyn Storage>,
        capacity: usize,
        shards: usize,
        stats: Arc<AccessStats>,
    ) -> Self {
        Self {
            storage,
            pool: BufferPool::with_shards(capacity, shards),
            stats,
        }
    }

    /// Convenience constructor: in-memory device, fresh counters.
    pub fn in_memory(page_size: usize, pool_capacity: usize) -> Self {
        Self::new(
            Arc::new(MemStorage::new(page_size)),
            pool_capacity,
            AccessStats::new_shared(),
        )
    }

    /// Page size of the underlying device.
    pub fn page_size(&self) -> usize {
        self.storage.page_size()
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u64 {
        self.storage.num_pages()
    }

    /// Total bytes occupied (num_pages × page_size) — the Index Size metric.
    pub fn size_bytes(&self) -> u64 {
        self.num_pages() * self.page_size() as u64
    }

    /// The shared access counters.
    pub fn stats(&self) -> &Arc<AccessStats> {
        &self.stats
    }

    /// The underlying page device. Maintenance paths — whole-file copies
    /// like sharded snapshots — read through this instead of
    /// [`Pager::read`], so they neither inflate the access counters the
    /// experiments measure nor evict the query working set from the
    /// buffer pool.
    pub fn storage(&self) -> &Arc<dyn Storage> {
        &self.storage
    }

    /// Fetches a page, counting one logical read; served from the buffer
    /// pool when possible.
    pub fn read(&self, id: PageId) -> io::Result<Arc<PageBuf>> {
        self.stats.record_read();
        if let Some(page) = self.pool.get(id) {
            return Ok(page);
        }
        self.stats.record_miss();
        let mut buf = PageBuf::zeroed(self.storage.page_size());
        self.storage.read_page(id, buf.as_mut_slice())?;
        let page = Arc::new(buf);
        self.pool.insert(id, Arc::clone(&page));
        Ok(page)
    }

    /// Writes a page through to storage (write-through; the cached copy is
    /// replaced so readers never observe stale data).
    pub fn write(&self, id: PageId, buf: PageBuf) -> io::Result<()> {
        assert_eq!(buf.len(), self.storage.page_size());
        self.stats.record_write();
        self.storage.write_page(id, buf.as_slice())?;
        self.pool.insert(id, Arc::new(buf));
        Ok(())
    }

    /// Allocates a fresh zeroed page.
    pub fn allocate(&self) -> io::Result<PageId> {
        self.storage.allocate()
    }

    /// Allocates and immediately writes a page, returning its id.
    pub fn append(&self, buf: PageBuf) -> io::Result<PageId> {
        let id = self.allocate()?;
        self.write(id, buf)?;
        Ok(id)
    }

    /// Appends `bytes` — a non-empty whole number of pages — as fresh
    /// consecutive pages through one [`Storage::append_pages`] call and
    /// returns the first one's id. Counted and cached page by page, in
    /// file order, exactly as that many [`Pager::append`] calls would be.
    pub fn append_run(&self, bytes: &[u8]) -> io::Result<PageId> {
        let start = self.storage.append_pages(bytes)?;
        for (id, page) in (start..).zip(bytes.chunks_exact(self.page_size())) {
            self.stats.record_write();
            self.pool
                .insert(id, Arc::new(PageBuf::from_vec(page.to_vec())));
        }
        Ok(start)
    }

    /// Drops all cached pages (used to measure cold-cache behaviour).
    pub fn clear_cache(&self) {
        self.pool.clear();
    }

    /// Flushes the underlying device.
    pub fn sync(&self) -> io::Result<()> {
        self.storage.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(storage: Arc<dyn Storage>) {
        let ps = storage.page_size();
        let id0 = storage.allocate().unwrap();
        let id1 = storage.allocate().unwrap();
        assert_eq!((id0, id1), (0, 1));
        let mut w = vec![0u8; ps];
        w[0] = 0xAB;
        w[ps - 1] = 0xCD;
        storage.write_page(id1, &w).unwrap();
        let mut r = vec![0u8; ps];
        storage.read_page(id1, &mut r).unwrap();
        assert_eq!(r, w);
        storage.read_page(id0, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0));
    }

    #[test]
    fn mem_storage_roundtrip() {
        roundtrip(Arc::new(MemStorage::new(256)));
    }

    #[test]
    fn file_storage_roundtrip() {
        let dir = std::env::temp_dir().join(format!("promips-pager-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        roundtrip(Arc::new(FileStorage::create(&path, 256).unwrap()));
        // Re-open and confirm persistence.
        let reopened = FileStorage::open(&path, 256).unwrap();
        assert_eq!(reopened.num_pages(), 2);
        let mut r = vec![0u8; 256];
        reopened.read_page(1, &mut r).unwrap();
        assert_eq!(r[0], 0xAB);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_storage_missing_page_errors() {
        let s = MemStorage::new(128);
        let mut buf = vec![0u8; 128];
        assert!(s.read_page(3, &mut buf).is_err());
    }

    #[test]
    fn pager_counts_logical_reads_and_cache() {
        let pager = Pager::in_memory(128, 8);
        let id = pager.allocate().unwrap();
        let mut page = PageBuf::zeroed(128);
        page.as_mut_slice()[7] = 9;
        pager.write(id, page).unwrap();

        // First read after write: cache hit (write-through populated pool).
        let p = pager.read(id).unwrap();
        assert_eq!(p.as_slice()[7], 9);
        let snap = pager.stats().snapshot();
        assert_eq!(snap.logical_reads, 1);
        assert_eq!(snap.cache_hits, 1);

        pager.clear_cache();
        let _ = pager.read(id).unwrap();
        let snap = pager.stats().snapshot();
        assert_eq!(snap.logical_reads, 2);
        assert_eq!(snap.cache_misses, 1);
    }

    #[test]
    fn concurrent_readers_get_correct_pages_within_capacity() {
        // Stress the striped pool through the full pager path: many threads
        // read a page set larger than the pool, so stripes churn constantly.
        // Every read must return the page's own content, and the cache must
        // never hold more pages than its total capacity.
        for shards in [1usize, 4, 16] {
            let storage = Arc::new(MemStorage::new(64));
            let pool_pages = 24;
            let pager = Arc::new(Pager::with_pool_shards(
                storage,
                pool_pages,
                shards,
                AccessStats::new_shared(),
            ));
            let n_pages = 200u64;
            for i in 0..n_pages {
                let mut b = PageBuf::zeroed(64);
                b.as_mut_slice()[0] = (i % 251) as u8;
                b.as_mut_slice()[63] = (i % 13) as u8;
                pager.append(b).unwrap();
            }
            pager.clear_cache();
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let pager = Arc::clone(&pager);
                    s.spawn(move || {
                        for round in 0..3_000u64 {
                            let id = (round * 31 + t * 47) % n_pages;
                            let p = pager.read(id).unwrap();
                            assert_eq!(p.as_slice()[0], (id % 251) as u8, "page {id}");
                            assert_eq!(p.as_slice()[63], (id % 13) as u8, "page {id}");
                        }
                    });
                }
            });
            let cached = pager.pool.len();
            assert!(
                cached <= pool_pages,
                "shards={shards}: {cached} cached pages exceed capacity {pool_pages}"
            );
            let snap = pager.stats().snapshot();
            assert_eq!(snap.logical_reads, 4 * 3_000);
            assert_eq!(snap.cache_hits + snap.cache_misses, snap.logical_reads);
        }
    }

    #[test]
    fn pager_eviction_still_correct() {
        let pager = Pager::in_memory(64, 2); // tiny pool forces eviction
        let ids: Vec<PageId> = (0..5)
            .map(|i| {
                let mut b = PageBuf::zeroed(64);
                b.as_mut_slice()[0] = i as u8;
                pager.append(b).unwrap()
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(pager.read(id).unwrap().as_slice()[0], i as u8);
        }
    }
}
