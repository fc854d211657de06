//! A log is opened for one dimensionality: a log whose header names
//! another is refused before it is replayed or repaired.

use std::io;

use promips_wal::{SyncPolicy, Wal, WalRecord};

/// A log of another dimensionality is refused as `InvalidData` before
/// replay: no record reaches `apply`, and its torn tail is not truncated.
#[test]
fn a_wrong_dimension_is_refused_before_replay_touches_anything() {
    let dir = std::env::temp_dir().join(format!("promips-wal-dim-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wrong-d.wal");
    {
        let mut wal = Wal::create(&path, 3, SyncPolicy::default()).unwrap();
        wal.append(&WalRecord::Delete { id: 5 }).unwrap();
    }
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0xAB; 3]); // a torn tail
    std::fs::write(&path, &bytes).unwrap();

    let mut applied = 0;
    let err = Wal::open_streaming(&path, 4, SyncPolicy::default(), |_| {
        applied += 1;
        Ok(())
    })
    .unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    assert_eq!(applied, 0, "a record was replayed into the wrong index");
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "the log was changed");

    // At its own dimensionality the same log replays its one record and
    // drops the torn tail.
    let wal = Wal::open_streaming(&path, 3, SyncPolicy::default(), |rec| {
        assert_eq!(rec, WalRecord::Delete { id: 5 });
        applied += 1;
        Ok(())
    })
    .unwrap();
    assert_eq!((applied, wal.size_bytes()), (1, bytes.len() as u64 - 3));
    std::fs::remove_dir_all(&dir).unwrap();
}
