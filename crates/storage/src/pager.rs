//! The [`Storage`] trait (raw page device) and the [`Pager`] (the metered,
//! cached access path every index component uses).

use std::cell::RefCell;
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

/// A raw page device: fixed page size, random-access reads, and writes
/// only at the end. A page file is written once, front to back, and read
/// ever after; no page is overwritten.
pub trait Storage: Send + Sync {
    /// Page size in bytes.
    fn page_size(&self) -> usize;
    /// Number of pages written.
    fn num_pages(&self) -> u64;
    /// Reads the consecutive pages from `first` on into `buf` — a
    /// non-empty whole number of pages — in one device read.
    fn read_pages(&self, first: PageId, buf: &mut [u8]) -> io::Result<()>;
    /// Appends `bytes` — a non-empty whole number of pages — as fresh
    /// consecutive pages in one device write and returns the first one's
    /// id. On error no page was added.
    fn append_pages(&self, bytes: &[u8]) -> io::Result<PageId>;
    /// Page `id`'s own buffer, for a device that holds its pages in
    /// memory: the pager caches it as it is instead of a copy. `None` for a
    /// device that does not (the default) and for a page not written.
    fn page(&self, _id: PageId) -> Option<Arc<PageBuf>> {
        None
    }
    /// Flushes to durable media (no-op for memory).
    fn sync(&self) -> io::Result<()>;
}

/// In-memory page device. Used by unit tests, by experiments that only
/// care about logical page-access counts and by every `build_in_memory`
/// index. Each page is one shared buffer: [`Storage::page`] hands it out,
/// and the pager's pool caches that buffer, not a copy, so the index's
/// pages are held once.
pub struct MemStorage {
    page_size: usize,
    pages: Mutex<Vec<Arc<PageBuf>>>,
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

    fn read_pages(&self, first: PageId, buf: &mut [u8]) -> io::Result<()> {
        assert!(!buf.is_empty() && buf.len().is_multiple_of(self.page_size));
        let pages = self.pages.lock();
        for (id, out) in (first..).zip(buf.chunks_exact_mut(self.page_size)) {
            let page = pages.get(id as usize).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("page {id} not written"))
            })?;
            out.copy_from_slice(page.as_slice());
        }
        Ok(())
    }

    fn append_pages(&self, bytes: &[u8]) -> io::Result<PageId> {
        assert!(!bytes.is_empty() && bytes.len().is_multiple_of(self.page_size));
        let mut pages = self.pages.lock();
        let start = pages.len() as u64;
        pages.extend(
            bytes
                .chunks_exact(self.page_size)
                .map(|page| Arc::new(PageBuf::from_vec(page.to_vec()))),
        );
        Ok(start)
    }

    fn page(&self, id: PageId) -> Option<Arc<PageBuf>> {
        self.pages.lock().get(usize::try_from(id).ok()?).cloned()
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

    fn read_pages(&self, first: PageId, buf: &mut [u8]) -> io::Result<()> {
        assert!(!buf.is_empty() && buf.len().is_multiple_of(self.page_size));
        faults::check(IoOp::Read, &self.path)?;
        self.file.read_exact_at(buf, first * self.page_size as u64)
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
        // where it was, and the next append cuts the file back to it.
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

    /// Number of pages written.
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

    /// Pages the buffer pool holds at most; with [`Pager::num_pages`] or more it never evicts.
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Buffer-pool stripes: the most pages a [`Pager::read_run`] can take
    /// with each stripe seeing what single reads would show it.
    pub fn stripes(&self) -> usize {
        self.pool.num_shards()
    }

    /// Fetches a page, counting one logical read; served from the buffer
    /// pool when possible. A one-page [`Pager::read_run`].
    pub fn read(&self, id: PageId) -> io::Result<Arc<PageBuf>> {
        let mut page = [None];
        self.read_run(id, &mut page)?;
        Ok(page[0].take().expect("a read run fills its slots"))
    }

    /// Fetches the `pages.len()` pages from `first` on into `pages`,
    /// counting a logical read each, in one add. Every page is looked up in the pool
    /// first; then each run of consecutive misses is cached as the device's
    /// own buffers when it holds them ([`Storage::page`]), and otherwise is
    /// one [`Storage::read_pages`] call, its pages copied into the frames the
    /// pool evicts for them. With at most [`Pager::stripes`] pages, each
    /// stripe sees one `get` and at most one insert, so reads, hits, misses
    /// and the pool's state are those of as many [`Pager::read`]s; only the
    /// device calls are fewer. On an error no page of the failed device
    /// read is cached.
    pub fn read_run(&self, first: PageId, pages: &mut [Option<Arc<PageBuf>>]) -> io::Result<()> {
        self.stats.record_reads(pages.len() as u64);
        let mut missing = false;
        for (id, slot) in (first..).zip(pages.iter_mut()) {
            *slot = self.pool.get(id);
            missing |= slot.is_none();
        }
        if missing {
            self.read_misses(first, pages)?;
        }
        Ok(())
    }

    /// The miss path of [`Pager::read_run`]: fills the `None` slots of
    /// `pages`, one device read a run of them.
    #[inline(never)]
    fn read_misses(&self, first: PageId, pages: &mut [Option<Arc<PageBuf>>]) -> io::Result<()> {
        thread_local! {
            /// The bytes of one device read, reused across runs.
            static RUN: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
        }
        let ps = self.page_size();
        RUN.with_borrow_mut(|buf| {
            let mut at = 0;
            while at < pages.len() {
                let run = pages[at..].iter().take_while(|p| p.is_none()).count();
                if run > 0 {
                    self.stats.record_misses(run as u64);
                    let (id, slots) = (first + at as u64, &mut pages[at..at + run]);
                    at += run;
                    if self.adopt_run(id, slots) {
                        continue;
                    }
                    if buf.len() < run * ps {
                        buf.resize(run * ps, 0);
                    }
                    let bytes = &mut buf[..run * ps];
                    self.storage.read_pages(id, bytes)?;
                    for ((id, slot), page) in (id..).zip(slots).zip(bytes.chunks_exact(ps)) {
                        *slot = Some(self.pool.insert(id, page));
                    }
                }
                at += pages[at..].iter().take_while(|p| p.is_some()).count();
            }
            Ok(())
        })
    }

    /// Caches the run of pages from `first` on into `slots` as the device's
    /// own buffers if it holds every one of them; otherwise leaves `slots`
    /// empty and returns false.
    fn adopt_run(&self, first: PageId, slots: &mut [Option<Arc<PageBuf>>]) -> bool {
        let held = (first..).zip(slots.iter_mut()).all(|(id, slot)| {
            *slot = self.storage.page(id);
            slot.is_some()
        });
        for (id, slot) in (first..).zip(slots) {
            *slot = slot
                .take()
                .filter(|_| held)
                .map(|page| self.pool.adopt(id, page));
        }
        held
    }

    /// Appends `bytes` — a non-empty whole number of pages — as fresh
    /// consecutive pages through one [`Storage::append_pages`] call and
    /// returns the first one's id: the one way a page gets into a file.
    /// Each page counts one write and is cached, in file order: the
    /// device's own buffer when it holds one, a copy of its bytes otherwise.
    pub fn append_run(&self, bytes: &[u8]) -> io::Result<PageId> {
        let start = self.storage.append_pages(bytes)?;
        for (id, page) in (start..).zip(bytes.chunks_exact(self.page_size())) {
            self.stats.record_write();
            match self.storage.page(id) {
                Some(held) => self.pool.adopt(id, held),
                None => self.pool.insert(id, page),
            };
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

// The unit tests, kept under `tests/` (see that file's header).
#[cfg(test)]
#[path = "../tests/pager_unit/mod.rs"]
mod tests;
