//! # Per-shard write-ahead log
//!
//! The paper motivates the lightweight index with mutable workloads — "a
//! huge amount of data will be frequently inserted or deleted in a short
//! time" on resource-constrained devices — but an in-memory delta segment
//! alone is volatile: every mutation dies with the process. This crate is
//! the durability layer underneath the mutation lifecycle: each shard of a
//! sharded index owns one append-only log file, every
//! [`WalRecord::Insert`]/[`WalRecord::Delete`] is written (length-prefixed
//! and CRC32-checksummed) **before** it is applied to the in-memory delta,
//! and reopening a crashed index replays the log to reconstruct exactly the
//! mutations that reached disk.
//!
//! ## File format
//!
//! ```text
//! header (24 bytes): magic u64 | version u64 | dimensionality u64
//! record:            len u32 | crc32(payload) u32 | payload (len bytes)
//! payload:           tag u8 (1 = insert, 2 = delete) | id u64 | [d × f32]
//! ```
//!
//! All integers little-endian. The trailing vector is present only for
//! inserts and must hold exactly `d` floats (`d` from the header), so a
//! record's length is fully determined by its tag — a mismatch is treated
//! as corruption, not trusted.
//!
//! ## Crash model
//!
//! [`Wal::open_streaming`] scans records sequentially and stops at the first
//! *incomplete or corrupt* record: a torn tail (partial length prefix,
//! partial payload, or a CRC mismatch from a half-flushed sector) is
//! **truncated away** so the next append starts at a clean boundary. Replay
//! therefore yields exactly the prefix of complete records — no panic, no
//! phantom point — which the torture test pins down by truncating a log at
//! every byte offset of its final record.
//!
//! ## Group commit
//!
//! `fsync` per record is correct but slow; [`SyncPolicy`] trades a bounded
//! number of most-recent mutations for throughput: [`SyncPolicy::Always`]
//! syncs every append, [`SyncPolicy::EveryN`] syncs once per `n` appends
//! (the classic group-commit knob), [`SyncPolicy::Never`] leaves flushing
//! to the OS. Whatever the policy, [`Wal::sync`] forces the log down
//! before, e.g., acknowledging a batch.

pub mod crc;
pub mod log;
pub mod record;

pub use crc::crc32;
pub use log::{SyncPolicy, Wal};
pub use record::WalRecord;
