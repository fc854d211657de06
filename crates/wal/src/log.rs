//! The log itself: append, group commit, streaming replay-on-open with
//! torn-tail truncation, and crash-safe post-compaction rewrite.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use promips_obs::{CounterId, Registry};
use promips_storage::durability::{
    faults::{self, IoOp},
    fsync_dir, rename,
    retry::{self, RetryPolicy},
    sync_file_data, tmp_sibling,
};

use crate::crc::crc32;
use crate::record::WalRecord;

const WAL_MAGIC: u64 = 0x5AA2_D1CE_3A70_0001;
const WAL_VERSION: u64 = 1;
/// magic + version + dimensionality.
pub(crate) const HEADER_BYTES: u64 = 24;
/// len prefix + crc.
const RECORD_HEADER: usize = 8;
/// Replay window: records are parsed out of a sliding buffer of roughly
/// this many bytes instead of materializing the whole log. A single
/// record larger than the window (very high-dimensional vectors) still
/// replays — the window grows to that record's size and shrinks back via
/// the next compaction of the buffer.
const REPLAY_CHUNK: usize = 256 * 1024;

/// When appends reach durable media.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every append — nothing acknowledged is ever lost.
    #[default]
    Always,
    /// Group commit: `fsync` once per `n` appends (and on explicit
    /// [`Wal::sync`]). A crash loses at most the last `n − 1` mutations.
    EveryN(u32),
    /// Never sync implicitly; the OS flushes when it pleases. For
    /// measurement and bulk loads followed by an explicit [`Wal::sync`].
    Never,
}

/// An open write-ahead log for one shard.
///
/// The in-memory state tracks the byte length of the *complete-record
/// prefix*; appends go exactly there, so a previous torn tail (already
/// truncated by [`Wal::open_streaming`]) can never resurface.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    d: usize,
    /// Group-commit knob (see [`SyncPolicy`]).
    policy: SyncPolicy,
    /// End of the last complete record (file offset appends write at).
    len_bytes: u64,
    records: u64,
    /// Appends since the last sync (group-commit counter).
    unsynced: u32,
    /// Reusable encode buffer.
    buf: Vec<u8>,
}

impl Wal {
    /// Creates a fresh (empty) log for vectors of dimensionality `d`,
    /// fsyncing the header and the parent directory so the file itself
    /// survives a crash.
    pub fn create(path: impl AsRef<Path>, d: usize, policy: SyncPolicy) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut header = Vec::with_capacity(HEADER_BYTES as usize);
        header.extend_from_slice(&WAL_MAGIC.to_le_bytes());
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&(d as u64).to_le_bytes());
        // A fresh (truncated) file: rewriting the header from offset 0
        // after a transient failure is idempotent, and fsync always is.
        retry::retry_io(&RetryPolicy::default(), || {
            faults::check(IoOp::Write, &path)?;
            file.write_all_at(&header, 0)?;
            sync_file_data(&file, &path)
        })?;
        sync_parent(&path)?;
        Ok(Self {
            file,
            path,
            d,
            policy,
            len_bytes: HEADER_BYTES,
            records: 0,
            unsynced: 0,
            buf: Vec::new(),
        })
    }

    /// Opens an existing log of `d`-dimensional vectors and streams its
    /// records, in append order, into `apply` — one call per complete
    /// record, parsed out of a bounded sliding window (`REPLAY_CHUNK`
    /// bytes) so replay memory does not grow with log size. Everything from
    /// the first incomplete or corrupt record onward — an incomplete length
    /// prefix, an incomplete payload, or a CRC mismatch — is truncated off
    /// the file, so the log is clean for subsequent appends. An error from
    /// `apply` aborts the open. A header naming another dimensionality is
    /// `InvalidData`, refused before any record is read: `apply` never runs
    /// and the file is not touched.
    ///
    /// This is **point-in-time recovery** (the same choice RocksDB's
    /// default WAL mode and SQLite's WAL replay make): recovery never
    /// extends past the first bad record, even if parseable bytes follow
    /// it. The alternative — erroring out when valid records appear after
    /// a gap — would brick legitimately crashed logs: under group commit
    /// the OS may persist the unsynced window's pages out of order, so a
    /// crash can leave a later record intact behind a hole, and such a log
    /// must still open. The cost is that mid-file bit-rot in an already
    /// fsynced region also truncates the records behind it; logs are kept
    /// short by compaction, which bounds that exposure.
    pub fn open_streaming(
        path: impl AsRef<Path>,
        d: usize,
        policy: SyncPolicy,
        mut apply: impl FnMut(WalRecord) -> io::Result<()>,
    ) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        // Replay is a read path: consult the fault shim once per open so
        // recovery tests can fail a shard's WAL at its most fragile
        // moment.
        faults::check(IoOp::Read, &path)?;
        let file_len = file.metadata()?.len();

        if file_len < HEADER_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("WAL {} shorter than its header", path.display()),
            ));
        }
        let mut header = [0u8; HEADER_BYTES as usize];
        file.read_exact_at(&mut header, 0)?;
        let magic = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes"));
        let version = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let header_d = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        if magic != WAL_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad WAL magic in {}", path.display()),
            ));
        }
        if version != WAL_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported WAL version {version}"),
            ));
        }
        if header_d != d as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "WAL {} dimensionality {header_d} != index {d}",
                    path.display()
                ),
            ));
        }

        let mut win = Window {
            file: &file,
            file_len,
            base: HEADER_BYTES,
            buf: Vec::new(),
            pos: 0,
        };
        let mut records = 0u64;
        let mut good_end = HEADER_BYTES;
        loop {
            // First failure of any kind ends the scan (see the doc comment
            // on point-in-time recovery): records are never skipped over.
            if !win.ensure(RECORD_HEADER)? {
                break; // partial length prefix
            }
            let hdr = win.peek(RECORD_HEADER);
            let len = u32::from_le_bytes(hdr[0..4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(hdr[4..8].try_into().expect("4 bytes"));
            // Checking against the file's remaining bytes *before* asking
            // the window for them keeps a garbage length prefix from
            // ballooning the buffer.
            if len == 0 || !win.ensure(RECORD_HEADER + len)? {
                break; // partial payload (or nonsense length running past EOF)
            }
            let payload = &win.peek(RECORD_HEADER + len)[RECORD_HEADER..];
            if crc32(payload) != crc {
                break; // half-flushed sector
            }
            let rec = match WalRecord::decode_payload(payload, d) {
                Ok(r) => r,
                Err(_) => break, // checksummed but undecodable ⇒ treat as tail
            };
            win.advance(RECORD_HEADER + len);
            good_end = win.offset();
            records += 1;
            apply(rec)?;
        }

        if good_end != file_len {
            // Drop the torn tail so the next append starts on a record
            // boundary. Sync: the truncation itself must be durable, or a
            // second crash could resurrect garbage past our append point.
            file.set_len(good_end)?;
            sync_file_data(&file, &path)?;
        }
        Registry::global()
            .counter(CounterId::WalReplayedRecords)
            .add(records);

        Ok(Self {
            file,
            path,
            d,
            policy,
            len_bytes: good_end,
            records,
            unsynced: 0,
            buf: Vec::new(),
        })
    }

    /// Appends one record, honouring the group-commit policy. The record is
    /// on disk (modulo the policy's sync debt) when this returns; apply it
    /// to in-memory state only afterwards — that ordering is what makes the
    /// log *write-ahead*.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.append_with_sync(record, true)
    }

    /// Appends one record, optionally deferring the policy sync. Cross-shard
    /// group commit uses `sync_now = false` to write a burst spanning many
    /// logs and then pay one [`Wal::sync`] round at the end — one fsync per
    /// *touched log* instead of one per record. Callers that defer **must
    /// not acknowledge** the mutation until the closing sync returns.
    pub fn append_with_sync(&mut self, record: &WalRecord, sync_now: bool) -> io::Result<()> {
        if let WalRecord::Insert { vector, .. } = record {
            assert_eq!(
                vector.len(),
                self.d,
                "WAL dimensionality mismatch: record {} vs log {}",
                vector.len(),
                self.d
            );
        }
        self.buf.clear();
        encode_record(&mut self.buf, record, self.d);
        // Retry scope: the write targets a fixed offset and `len_bytes`
        // has not advanced yet, so re-running it after a transient
        // failure is idempotent — the record is not acknowledged (and not
        // counted) until the write sticks. Retrying the *whole* append
        // would not be: a sync failure after a successful write must not
        // duplicate the record.
        {
            let (file, path, buf, off) = (&self.file, &self.path, &self.buf, self.len_bytes);
            retry::retry_io(&RetryPolicy::default(), || {
                faults::check(IoOp::Write, path)?;
                file.write_all_at(buf, off)
            })?;
        }
        self.len_bytes += self.buf.len() as u64;
        self.records += 1;
        self.unsynced += 1;
        Registry::global().counter(CounterId::WalAppends).inc();
        if sync_now {
            match self.policy {
                SyncPolicy::Always => self.sync()?,
                SyncPolicy::EveryN(n) => {
                    if self.unsynced >= n.max(1) {
                        self.sync()?;
                    }
                }
                SyncPolicy::Never => {}
            }
        }
        Ok(())
    }

    /// Forces everything appended so far to durable media.
    pub fn sync(&mut self) -> io::Result<()> {
        // fsync is idempotent, so a transient failure retries cleanly.
        retry::retry_io(&RetryPolicy::default(), || {
            sync_file_data(&self.file, &self.path)
        })?;
        Registry::global().counter(CounterId::WalSyncs).inc();
        self.unsynced = 0;
        Ok(())
    }

    /// Empties the log (keeps the header). Called **after** a compaction's
    /// manifest swap has landed — at that point the records are folded into
    /// the new generation and replaying them would resurrect dead state.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(HEADER_BYTES)?;
        sync_file_data(&self.file, &self.path)?;
        self.len_bytes = HEADER_BYTES;
        self.records = 0;
        self.unsynced = 0;
        Ok(())
    }

    /// Atomically replaces the log's on-disk contents with exactly
    /// `records`: a new file (header + records) is written next to the log,
    /// fsynced, and renamed over it. A crash at any point leaves either the
    /// old complete log or the new one — never a partial rewrite — which is
    /// what lets a compaction commit shrink the log to its *unfolded
    /// suffix* (mutations that arrived while the shadow build ran) without
    /// a window where acknowledged records exist nowhere on disk.
    ///
    /// On success the handle continues on the new file (the renamed inode);
    /// the records are already durable, so the sync debt resets.
    pub fn rewrite(&mut self, records: &[WalRecord]) -> io::Result<()> {
        let tmp = tmp_sibling(&self.path);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        self.buf.clear();
        self.buf.extend_from_slice(&WAL_MAGIC.to_le_bytes());
        self.buf.extend_from_slice(&WAL_VERSION.to_le_bytes());
        self.buf.extend_from_slice(&(self.d as u64).to_le_bytes());
        for record in records {
            if let WalRecord::Insert { vector, .. } = record {
                assert_eq!(
                    vector.len(),
                    self.d,
                    "WAL dimensionality mismatch: record {} vs log {}",
                    vector.len(),
                    self.d
                );
            }
            encode_record(&mut self.buf, record, self.d);
        }
        // The tmp file is private until the rename, so rewriting it from
        // offset 0 after a transient failure is idempotent.
        {
            let buf = &self.buf;
            retry::retry_io(&RetryPolicy::default(), || {
                faults::check(IoOp::Write, &tmp)?;
                file.write_all_at(buf, 0)?;
                sync_file_data(&file, &tmp)
            })?;
        }
        rename(&tmp, &self.path)?;
        // The fd follows the inode across the rename, so the handle is
        // already on the new log; swap it *before* the directory sync so an
        // error there cannot strand appends on the unlinked old inode.
        self.file = file;
        self.len_bytes = self.buf.len() as u64;
        self.records = records.len() as u64;
        self.unsynced = 0;
        self.buf.clear();
        sync_parent(&self.path)?;
        Ok(())
    }

    /// Number of complete records in the log.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Bytes of complete records + header (the operator-facing "how big is
    /// my WAL" number; compaction policies feed on it).
    pub fn size_bytes(&self) -> u64 {
        self.len_bytes
    }

    /// Appends not yet covered by an fsync (sync debt of the group-commit
    /// policy).
    pub fn unsynced_appends(&self) -> u32 {
        self.unsynced
    }

    /// Vector dimensionality the log was created with.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Encodes `record` (header + checksummed payload) onto the end of `buf`.
fn encode_record(buf: &mut Vec<u8>, record: &WalRecord, d: usize) {
    let payload_len = record.payload_len(d);
    let start = buf.len();
    buf.reserve(RECORD_HEADER + payload_len);
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]); // crc placeholder
    record.encode_payload(buf);
    debug_assert_eq!(buf.len() - start, RECORD_HEADER + payload_len);
    let crc = crc32(&buf[start + RECORD_HEADER..]);
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// A bounded sliding window over the record region of a log file: at most
/// ~[`REPLAY_CHUNK`] bytes buffered (more only while a single record is
/// larger than that), refilled on demand as the parse cursor advances.
struct Window<'a> {
    file: &'a File,
    file_len: u64,
    /// File offset of `buf[0]`.
    base: u64,
    buf: Vec<u8>,
    /// Parse cursor within `buf`.
    pos: usize,
}

impl Window<'_> {
    /// File offset of the parse cursor.
    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Makes at least `n` bytes available at the cursor, reading more of
    /// the file if needed; `false` when the file has fewer than `n` bytes
    /// left (a torn tail).
    fn ensure(&mut self, n: usize) -> io::Result<bool> {
        if self.file_len - self.offset() < n as u64 {
            return Ok(false);
        }
        if self.buf.len() - self.pos >= n {
            return Ok(true);
        }
        // Slide: drop parsed bytes, then top the buffer up to the chunk
        // size (or `n`, if one record overflows it).
        self.buf.drain(..self.pos);
        self.base += self.pos as u64;
        self.pos = 0;
        let have = self.buf.len();
        let tail = (self.file_len - self.base) as usize - have;
        let add = n.max(REPLAY_CHUNK).saturating_sub(have).min(tail);
        self.buf.resize(have + add, 0);
        self.file
            .read_exact_at(&mut self.buf[have..], self.base + have as u64)?;
        Ok(self.buf.len() >= n)
    }

    /// The next `n` buffered bytes (call [`Window::ensure`] first).
    fn peek(&self, n: usize) -> &[u8] {
        &self.buf[self.pos..self.pos + n]
    }

    /// Consumes `n` parsed bytes.
    fn advance(&mut self, n: usize) {
        self.pos += n;
    }
}

/// Fsyncs the directory containing `path` (rename/create durability).
fn sync_parent(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fsync_dir(parent)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("promips-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.wal"))
    }

    /// [`Wal::open_streaming`] with a closure collecting the replay.
    fn open_collect(path: &Path, d: usize) -> io::Result<(Wal, Vec<WalRecord>)> {
        let mut records = Vec::new();
        let wal = Wal::open_streaming(path, d, SyncPolicy::default(), |rec| {
            records.push(rec);
            Ok(())
        })?;
        Ok((wal, records))
    }

    fn sample_records(d: usize) -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                id: 100,
                vector: (0..d).map(|i| i as f32 * 0.5).collect(),
            },
            WalRecord::Delete { id: 7 },
            WalRecord::Insert {
                id: 101,
                vector: (0..d).map(|i| -(i as f32)).collect(),
            },
            WalRecord::Delete { id: 100 },
        ]
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = temp_path("roundtrip");
        let recs = sample_records(6);
        {
            let mut wal = Wal::create(&path, 6, SyncPolicy::default()).unwrap();
            for r in &recs {
                wal.append(r).unwrap();
            }
            assert_eq!(wal.record_count(), 4);
        }
        let (wal, replayed) = open_collect(&path, 6).unwrap();
        assert_eq!(replayed, recs);
        assert_eq!(wal.record_count(), 4);
        assert_eq!(wal.d(), 6);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_continue_after_reopen() {
        let path = temp_path("continue");
        let recs = sample_records(3);
        {
            let mut wal = Wal::create(&path, 3, SyncPolicy::default()).unwrap();
            for r in &recs[..2] {
                wal.append(r).unwrap();
            }
        }
        {
            let (mut wal, replayed) = open_collect(&path, 3).unwrap();
            assert_eq!(replayed.len(), 2);
            for r in &recs[2..] {
                wal.append(r).unwrap();
            }
        }
        let (_, replayed) = open_collect(&path, 3).unwrap();
        assert_eq!(replayed, recs);
        std::fs::remove_file(&path).unwrap();
    }

    /// The crash-safety torture test of the issue: truncate the log at
    /// every byte offset inside (and around) the final record; replay must
    /// recover exactly the prefix of complete records — never panic, never
    /// invent a record, never lose an earlier one.
    #[test]
    fn torn_tail_truncated_at_every_byte_offset() {
        let path = temp_path("torture");
        let recs = sample_records(5);
        {
            let mut wal = Wal::create(&path, 5, SyncPolicy::default()).unwrap();
            for r in &recs {
                wal.append(r).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        // Byte length of each record as laid out in the file.
        let rec_len = |r: &WalRecord| RECORD_HEADER + r.payload_len(5);
        let last_start = full.len() - rec_len(recs.last().unwrap());
        debug_assert_eq!(
            HEADER_BYTES as usize + recs.iter().map(rec_len).sum::<usize>(),
            full.len()
        );

        for cut in last_start..=full.len() {
            let torn = temp_path(&format!("torture-cut-{cut}"));
            std::fs::write(&torn, &full[..cut]).unwrap();
            let (wal, replayed) = open_collect(&torn, 5).unwrap();
            let expect: &[WalRecord] = if cut == full.len() {
                &recs
            } else {
                &recs[..recs.len() - 1]
            };
            assert_eq!(replayed, expect, "cut at byte {cut}");
            // The torn tail is gone from disk: reopening again replays the
            // same prefix and the file ends exactly at the durable prefix.
            assert_eq!(
                std::fs::metadata(&torn).unwrap().len(),
                wal.size_bytes(),
                "cut at byte {cut} left trailing garbage"
            );
            drop(wal);
            let (_, again) = open_collect(&torn, 5).unwrap();
            assert_eq!(again, expect, "cut at byte {cut} (second open)");
            std::fs::remove_file(&torn).unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_crc_in_tail_is_dropped() {
        let path = temp_path("crc");
        let recs = sample_records(4);
        {
            let mut wal = Wal::create(&path, 4, SyncPolicy::default()).unwrap();
            for r in &recs {
                wal.append(r).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x40; // flip a bit inside the final payload
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed) = open_collect(&path, 4).unwrap();
        assert_eq!(replayed, recs[..recs.len() - 1]);
        std::fs::remove_file(&path).unwrap();
    }

    /// Point-in-time semantics: corruption in the *middle* of the log also
    /// ends recovery there — the records behind it are dropped and
    /// truncated, never skipped over (see the `open` doc for why erroring
    /// instead would brick legitimately crashed group-commit logs).
    #[test]
    fn mid_file_corruption_ends_recovery_there() {
        let path = temp_path("midrot");
        let recs = sample_records(4);
        let rec_len = |r: &WalRecord| RECORD_HEADER + r.payload_len(4);
        {
            let mut wal = Wal::create(&path, 4, SyncPolicy::default()).unwrap();
            for r in &recs {
                wal.append(r).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside record 1's payload (records 2 and 3 intact).
        let off = HEADER_BYTES as usize + rec_len(&recs[0]) + RECORD_HEADER + 2;
        bytes[off] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (wal, replayed) = open_collect(&path, 4).unwrap();
        assert_eq!(replayed, recs[..1]);
        assert_eq!(
            wal.size_bytes(),
            HEADER_BYTES + rec_len(&recs[0]) as u64,
            "everything from the corrupt record on must be truncated"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// The sliding replay window must hand back byte-identical records
    /// when many records straddle chunk boundaries. A tiny dimensionality
    /// with thousands of records exercises dozens of window slides even
    /// with the production chunk size scaled down by the record count.
    #[test]
    fn streaming_replay_across_window_boundaries() {
        let path = temp_path("stream");
        let d = 48; // ~210 bytes per insert record
        let n = 4000u64; // ~840 KB of records ⇒ several 256 KiB windows
        {
            let mut wal = Wal::create(&path, d, SyncPolicy::Never).unwrap();
            for id in 0..n {
                wal.append(&WalRecord::Insert {
                    id,
                    vector: (0..d).map(|j| (id as f32) + (j as f32) * 0.25).collect(),
                })
                .unwrap();
                if id % 7 == 0 {
                    wal.append(&WalRecord::Delete { id }).unwrap();
                }
            }
            wal.sync().unwrap();
        }
        let mut seen = 0u64;
        let mut next_insert = 0u64;
        let wal = Wal::open_streaming(&path, d, SyncPolicy::default(), |rec| {
            match rec {
                WalRecord::Insert { id, vector } => {
                    assert_eq!(id, next_insert);
                    assert_eq!(vector.len(), d);
                    assert_eq!(vector[1], (id as f32) + 0.25);
                    next_insert += 1;
                }
                WalRecord::Delete { id } => assert_eq!(id % 7, 0),
            }
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(next_insert, n);
        assert_eq!(seen, wal.record_count());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_apply_error_aborts_open() {
        let path = temp_path("abort");
        {
            let mut wal = Wal::create(&path, 2, SyncPolicy::default()).unwrap();
            for r in sample_records(2) {
                wal.append(&r).unwrap();
            }
        }
        let mut calls = 0;
        let err = Wal::open_streaming(&path, 2, SyncPolicy::default(), |_| {
            calls += 1;
            if calls == 2 {
                Err(io::Error::other("replay sink failed"))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "replay sink failed");
        assert_eq!(calls, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_empties_the_log() {
        let path = temp_path("trunc");
        let mut wal = Wal::create(&path, 2, SyncPolicy::default()).unwrap();
        for r in sample_records(2) {
            wal.append(&r).unwrap();
        }
        wal.truncate().unwrap();
        assert_eq!(wal.record_count(), 0);
        assert_eq!(wal.size_bytes(), HEADER_BYTES);
        // Appends after truncation land cleanly.
        wal.append(&WalRecord::Delete { id: 3 }).unwrap();
        drop(wal);
        let (_, replayed) = open_collect(&path, 2).unwrap();
        assert_eq!(replayed, vec![WalRecord::Delete { id: 3 }]);
        std::fs::remove_file(&path).unwrap();
    }

    /// `rewrite` swaps the whole log for the given records and keeps the
    /// handle usable: appends continue on the renamed file.
    #[test]
    fn rewrite_replaces_contents_atomically() {
        let path = temp_path("rewrite");
        let recs = sample_records(3);
        let mut wal = Wal::create(&path, 3, SyncPolicy::default()).unwrap();
        for r in &recs {
            wal.append(r).unwrap();
        }
        // Shrink to the suffix, as a compaction commit would.
        wal.rewrite(&recs[2..]).unwrap();
        assert_eq!(wal.record_count(), 2);
        wal.append(&WalRecord::Delete { id: 9 }).unwrap();
        drop(wal);
        let (_, replayed) = open_collect(&path, 3).unwrap();
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[..2], recs[2..]);
        assert_eq!(replayed[2], WalRecord::Delete { id: 9 });
        assert!(
            !tmp_sibling(&path).exists(),
            "tmp log must not survive a successful rewrite"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewrite_to_empty_acts_as_crash_safe_truncate() {
        let path = temp_path("rewrite-empty");
        let mut wal = Wal::create(&path, 2, SyncPolicy::default()).unwrap();
        for r in sample_records(2) {
            wal.append(&r).unwrap();
        }
        wal.rewrite(&[]).unwrap();
        assert_eq!(wal.record_count(), 0);
        assert_eq!(wal.size_bytes(), HEADER_BYTES);
        drop(wal);
        let (_, replayed) = open_collect(&path, 2).unwrap();
        assert!(replayed.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn deferred_append_then_explicit_sync() {
        let path = temp_path("deferred");
        let mut wal = Wal::create(&path, 2, SyncPolicy::default()).unwrap();
        let rec = WalRecord::Delete { id: 1 };
        // SyncPolicy::Always, but the group-commit path defers.
        wal.append_with_sync(&rec, false).unwrap();
        wal.append_with_sync(&rec, false).unwrap();
        assert_eq!(wal.unsynced_appends(), 2);
        wal.sync().unwrap();
        assert_eq!(wal.unsynced_appends(), 0);
        drop(wal);
        let (_, replayed) = open_collect(&path, 2).unwrap();
        assert_eq!(replayed.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_tracks_sync_debt() {
        let path = temp_path("group");
        let mut wal = Wal::create(&path, 2, SyncPolicy::EveryN(3)).unwrap();
        let rec = WalRecord::Delete { id: 1 };
        wal.append(&rec).unwrap();
        wal.append(&rec).unwrap();
        assert_eq!(wal.unsynced_appends(), 2);
        wal.append(&rec).unwrap(); // third append triggers the group sync
        assert_eq!(wal.unsynced_appends(), 0);
        wal.append(&rec).unwrap();
        assert_eq!(wal.unsynced_appends(), 1);
        wal.sync().unwrap();
        assert_eq!(wal.unsynced_appends(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// Fault plans are process-global; tests arming them must not overlap.
    static FAULT_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn transient_write_fault_is_retried_and_append_lands() {
        use promips_storage::durability::faults::{FaultPlan, Recurrence};
        let _g = FAULT_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let path = temp_path("retry-append");
        let mut wal = Wal::create(&path, 2, SyncPolicy::default()).unwrap();
        let before = faults::counters();
        faults::arm_with(
            FaultPlan {
                op: IoOp::Write,
                nth: 1,
                path_contains: Some("retry-append.wal".into()),
            },
            Recurrence::Once,
            io::ErrorKind::Interrupted,
        );
        // The injected transient failure is absorbed by the retry loop:
        // the caller sees a clean append and the record is durable.
        wal.append(&WalRecord::Delete { id: 1 }).unwrap();
        assert!(!faults::disarm(), "the fault fired (and was retried)");
        assert_eq!(faults::counters().injected - before.injected, 1);
        assert_eq!(wal.record_count(), 1);
        drop(wal);
        let (_, replayed) = open_collect(&path, 2).unwrap();
        assert_eq!(replayed, vec![WalRecord::Delete { id: 1 }]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_read_fault_fails_replay_then_recovers() {
        use promips_storage::durability::faults::{FaultPlan, Recurrence};
        let _g = FAULT_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let path = temp_path("read-fault");
        {
            let mut wal = Wal::create(&path, 2, SyncPolicy::default()).unwrap();
            wal.append(&WalRecord::Delete { id: 4 }).unwrap();
        }
        faults::arm_with(
            FaultPlan {
                op: IoOp::Read,
                nth: 1,
                path_contains: Some("read-fault.wal".into()),
            },
            Recurrence::Once,
            io::ErrorKind::Other,
        );
        let err = open_collect(&path, 2).unwrap_err();
        assert!(faults::is_injected(&err), "unexpected error: {err}");
        // The one-shot plan self-disarmed: the log opens intact.
        let (_, replayed) = open_collect(&path, 2).unwrap();
        assert_eq!(replayed, vec![WalRecord::Delete { id: 4 }]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_insert_dimension_panics() {
        let path = temp_path("dim");
        let mut wal = Wal::create(&path, 4, SyncPolicy::default()).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = wal.append(&WalRecord::Insert {
                id: 0,
                vector: vec![0.0; 3],
            });
        }));
        assert!(r.is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
