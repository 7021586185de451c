//! The append-only sketch log: file format, appends, and its one scan.
//!
//! ## File format
//!
//! ```text
//! header   := magic u32 ("IFSL") | version u16 | reserved u16 (zero)
//! record   := op u8 | id varint | frame_len varint | frame bytes | checksum u64
//! ```
//!
//! All integers little-endian; varints are the codec's LEB128. The
//! checksum is FNV-1a-64 over the record's bytes from `op` through the
//! end of `frame`, with the same "judged before trust" discipline as the
//! §10 snapshot frames. It stays FNV-1a-64 although "IFSX" frames now
//! carry XXH64: a new record checksum changes the log format, so it waits
//! for the log's next [`LOG_VERSION`] bump (DESIGN.md §14). The frame
//! bytes are themselves
//! a complete §10 frame (validated at append *and* at scan via
//! [`peek_frame`]), so a log record is checksummed twice over: once by
//! the record, once by the frame it carries. That redundancy is what lets
//! the recovery scan distinguish "torn tail" from "foreign file".
//!
//! ## One scan, two policies
//!
//! Both readers run the same scan: the header, then records until the
//! first invalid one. They differ only in what they do where it stops.
//!
//! * **Recovery** ([`SketchLog::open`]) truncates the file there and
//!   reports what was dropped. This is the WAL posture: a crashed writer
//!   loses at most its in-flight suffix, never the prefix. The header is
//!   never recovered *from*: a wrong magic refuses with
//!   [`StoreError::NotALog`] — the store does not truncate files it did
//!   not write.
//! * **Strict** ([`SketchLog::records`]) refuses there with a typed error
//!   naming the byte offset. This is the read everything downstream
//!   (materialize, compact, migrate) uses: after a recovering `open`, the
//!   file has no invalid suffix left, so strictness costs nothing and
//!   catches corruption that appears *after* open (a concurrent writer, a
//!   failing disk).
//!
//! Appends are durable at the OS level (`write_all` on an append-mode
//! handle); the crash model tested in `tests/sketch_store.rs` is
//! truncation — a record is either fully present or cut, which is what
//! POSIX appends of this size give in practice.

use crate::compact::{CompactStats, MigrateStats};
use crate::materialize::materialize;
use crate::StoreError;
use ifs_database::codec::{self, peek_frame, Reader, Writer};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// First four bytes of every sketch log: `IFSL` as a little-endian u32.
pub const LOG_MAGIC: u32 = 0x4C53_4649;

/// Newest log-container version this build reads and the one it writes.
/// This versions the *record framing* only; the frames inside carry their
/// own kind/version tags and migrate independently.
pub const LOG_VERSION: u16 = 1;

/// Bytes of the file header: magic, version, reserved.
pub const LOG_HEADER_LEN: usize = 8;

const OP_PUT: u8 = 1;
const OP_MERGE: u8 = 2;

/// What an appended record does to its id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogOp {
    /// Replace the id's sketch with this frame (initial load or reload).
    Put,
    /// Fold this frame into the id's sketch via §9 [`merge`]. The first
    /// record of an id may be a `Merge`: it then supplies the initial
    /// value, exactly as the first partial of a sharded build does.
    ///
    /// [`merge`]: ifs_core::MergeableSketch::merge
    Merge,
}

impl LogOp {
    fn to_byte(self) -> u8 {
        match self {
            LogOp::Put => OP_PUT,
            LogOp::Merge => OP_MERGE,
        }
    }
}

/// One validated log record, with the byte offset it was read from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// What the record does to `id`.
    pub op: LogOp,
    /// The sketch id the record addresses.
    pub id: u64,
    /// The complete §10 snapshot frame the record carries.
    pub frame: Vec<u8>,
    /// Byte offset of the record's first byte (`op`) in the file.
    pub offset: u64,
}

/// What [`SketchLog::open`]'s recovery scan found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid records retained.
    pub records: u64,
    /// File length after recovery (header plus retained records).
    pub valid_bytes: u64,
    /// Bytes truncated off the tail (zero for a clean file).
    pub truncated_bytes: u64,
    /// Why the tail was cut, when it was.
    pub reason: Option<String>,
}

impl RecoveryReport {
    /// True iff the file was already fully valid.
    pub fn clean(&self) -> bool {
        self.truncated_bytes == 0
    }
}

/// An open append-only sketch log. See the module docs for the format.
#[derive(Debug)]
pub struct SketchLog {
    path: PathBuf,
    file: File,
    len: u64,
    records: u64,
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io { path: path.to_path_buf(), source }
}

fn header_bytes() -> [u8; LOG_HEADER_LEN] {
    let mut h = [0u8; LOG_HEADER_LEN];
    h[0..4].copy_from_slice(&LOG_MAGIC.to_le_bytes());
    h[4..6].copy_from_slice(&LOG_VERSION.to_le_bytes());
    h
}

/// Decodes the record starting at `offset`, judging everything before
/// trusting anything: structure first, record checksum second, and the
/// carried frame's own validation last. `Ok(None)` means `bytes` ends
/// cleanly at `offset`; `Err` says why the bytes there are not a record.
fn scan_record(bytes: &[u8], offset: u64) -> Result<Option<(LogRecord, u64)>, String> {
    let rest = &bytes[offset as usize..];
    if rest.is_empty() {
        return Ok(None);
    }
    let mut r = Reader::new(rest);
    let op = match r.u8().map_err(|e| e.to_string())? {
        OP_PUT => LogOp::Put,
        OP_MERGE => LogOp::Merge,
        other => return Err(format!("unknown record op {other:#04x}")),
    };
    let id = r.varint().map_err(|e| format!("record id: {e}"))?;
    let frame_len = r.varint_usize().map_err(|e| format!("frame length: {e}"))?;
    let frame = r.bytes(frame_len).map_err(|e| format!("frame bytes: {e}"))?.to_vec();
    let hashed = r.consumed();
    let stored = r.u64().map_err(|e| format!("record checksum: {e}"))?;
    let computed = codec::fnv1a64(&rest[..hashed]);
    if stored != computed {
        return Err(format!(
            "record checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        ));
    }
    // The carried frame must itself be one complete, valid snapshot frame.
    let info = peek_frame(&frame).map_err(|e| format!("carried frame: {e}"))?;
    if info.frame_len() != frame.len() {
        return Err(format!(
            "record carries {} bytes beyond its snapshot frame",
            frame.len() - info.frame_len()
        ));
    }
    let end = offset + r.consumed() as u64;
    Ok(Some((LogRecord { op, id, frame, offset }, end)))
}

/// What [`scan`] found: the valid prefix of a log file and why it ends.
struct Scan {
    /// Every valid record, in file order.
    records: Vec<LogRecord>,
    /// Byte offset where the valid prefix ends: `0` when the header is
    /// torn, otherwise the end of the last valid record (or the header).
    end: u64,
    /// Why the bytes at `end` are not a record (or a whole header), when
    /// the scan stopped short of a clean end of file.
    stop: Option<String>,
}

/// The one scan behind both policies: the header, then records until the
/// first invalid one. A foreign or future-version header refuses typed;
/// everything else is reported as the valid prefix plus the reason it
/// ends, and the caller truncates there ([`SketchLog::open`]) or refuses
/// there ([`SketchLog::records`]).
fn scan(path: &Path, bytes: &[u8]) -> Result<Scan, StoreError> {
    if let Some(torn) = check_header(path, bytes)? {
        return Ok(Scan { records: Vec::new(), end: 0, stop: Some(torn) });
    }
    let mut records = Vec::new();
    let mut end = LOG_HEADER_LEN as u64;
    let stop = loop {
        match scan_record(bytes, end) {
            Ok(Some((record, next))) => {
                records.push(record);
                end = next;
            }
            Ok(None) => break None,
            Err(why) => break Some(why),
        }
    };
    Ok(Scan { records, end, stop })
}

/// Validates the header of `bytes`, distinguishing "foreign file" (refuse,
/// never truncate) from "torn header" (recoverable: the file is a prefix
/// of a valid empty log).
fn check_header(path: &Path, bytes: &[u8]) -> Result<Option<String>, StoreError> {
    let expected = header_bytes();
    if bytes.len() < LOG_HEADER_LEN {
        return if *bytes == expected[..bytes.len()] {
            Ok(Some(format!("torn {}-byte header", bytes.len())))
        } else {
            Err(StoreError::NotALog { path: path.to_path_buf(), found_magic: partial_magic(bytes) })
        };
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    if magic != LOG_MAGIC {
        return Err(StoreError::NotALog { path: path.to_path_buf(), found_magic: magic });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version == 0 || version > LOG_VERSION {
        return Err(StoreError::UnsupportedLogVersion { got: version, supported: LOG_VERSION });
    }
    Ok(None)
}

fn partial_magic(bytes: &[u8]) -> u32 {
    let mut m = [0u8; 4];
    let n = bytes.len().min(4);
    m[..n].copy_from_slice(&bytes[..n]);
    u32::from_le_bytes(m)
}

impl SketchLog {
    /// Creates an empty log at `path`, truncating anything already there.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        file.write_all(&header_bytes()).map_err(|e| io_err(path, e))?;
        Ok(Self { path: path.to_path_buf(), file, len: LOG_HEADER_LEN as u64, records: 0 })
    }

    /// Opens the log at `path` — creating it when absent — after a
    /// recovery scan: a torn or corrupt tail is truncated off the file and
    /// reported, so subsequent appends land after the last valid record.
    ///
    /// A file that does not start with the log magic refuses with
    /// [`StoreError::NotALog`]: recovery truncates only files this store
    /// wrote, never a file mistakenly offered as one.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, RecoveryReport), StoreError> {
        let path = path.as_ref();
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(path, e)),
        };
        let Scan { records, end, stop } = scan(path, &bytes)?;
        let truncated_bytes = bytes.len() as u64 - end;
        // A missing or empty file stops at a zero-byte "torn header" but
        // loses nothing, so only a cut reports a reason.
        let reason = stop.filter(|_| truncated_bytes > 0).map(|why| match end {
            0 => why,
            _ => format!("record {} at byte offset {end}: {why}", records.len()),
        });
        let log = if end == 0 {
            // Missing, empty, or torn inside the header: stamp a fresh one.
            Self::create(path)?
        } else {
            if truncated_bytes > 0 {
                let file =
                    OpenOptions::new().write(true).open(path).map_err(|e| io_err(path, e))?;
                file.set_len(end).map_err(|e| io_err(path, e))?;
            }
            let file = OpenOptions::new().append(true).open(path).map_err(|e| io_err(path, e))?;
            Self { path: path.to_path_buf(), file, len: end, records: records.len() as u64 }
        };
        let report =
            RecoveryReport { records: log.records, valid_bytes: log.len, truncated_bytes, reason };
        Ok((log, report))
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current file length in bytes (header plus records).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Records appended or recovered so far.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Appends one record. The frame is judged before it is written: it
    /// must be exactly one valid §10 snapshot frame (any kind), or the
    /// append refuses with [`StoreError::Frame`] at the would-be offset
    /// and the file is untouched.
    pub fn append(&mut self, op: LogOp, id: u64, frame: &[u8]) -> Result<(), StoreError> {
        let offset = self.len;
        let frame_err = |source| StoreError::Frame { offset, id, source };
        let info = peek_frame(frame).map_err(frame_err)?;
        if info.frame_len() != frame.len() {
            return Err(frame_err(ifs_database::codec::DecodeError::TrailingBytes {
                extra: frame.len() - info.frame_len(),
            }));
        }
        let mut w = Writer::new();
        w.u8(op.to_byte());
        w.varint(id);
        w.varint(frame.len() as u64);
        w.bytes(frame);
        let checksum = codec::fnv1a64(w.as_slice());
        w.u64(checksum);
        let record = w.into_bytes();
        self.file.write_all(&record).map_err(|e| io_err(&self.path, e))?;
        self.len += record.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Strict scan: every record in the file, or a typed error naming the
    /// byte offset of the first invalid one. After a recovering
    /// [`open`](Self::open) this only fails if the file changed underneath
    /// the store.
    pub fn records(&self) -> Result<Vec<LogRecord>, StoreError> {
        let bytes = std::fs::read(&self.path).map_err(|e| io_err(&self.path, e))?;
        let Scan { records, end, stop } = scan(&self.path, &bytes)?;
        match stop {
            None => Ok(records),
            Some(detail) => Err(StoreError::BadRecord { offset: end, detail }),
        }
    }

    /// Folds the whole log into its served state: for every live id, the
    /// single snapshot frame the log's `Put`s and `Merge`s amount to, in
    /// id order. See [`materialize`] for the fold's contract.
    pub fn materialize(&self) -> Result<BTreeMap<u64, Vec<u8>>, StoreError> {
        materialize(&self.records()?)
    }

    /// Compacts this log into a fresh one at `dst`: one `Put` per live id,
    /// shadowed records dropped, merge runs collapsed. The identity
    /// argument: compacted and uncompacted logs [`materialize`](Self::materialize)
    /// to the same frames, so compaction is invisible to every query.
    pub fn compact_into(
        &self,
        dst: impl AsRef<Path>,
    ) -> Result<(SketchLog, CompactStats), StoreError> {
        crate::compact::compact(self, dst.as_ref())
    }

    /// Rewrites superseded-version frames at their current version into a
    /// fresh log at `dst`, preserving record structure (ops, ids, order).
    pub fn migrate_into(
        &self,
        dst: impl AsRef<Path>,
    ) -> Result<(SketchLog, MigrateStats), StoreError> {
        crate::compact::migrate(self, dst.as_ref())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ifs_core::{ReleaseDb, Snapshot};
    use ifs_database::Database;

    /// A unique scratch path per test, cleaned up by the returned guard.
    pub(crate) struct Scratch(pub PathBuf);

    impl Scratch {
        pub(crate) fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!("ifs-store-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_file(&path);
            Self(path)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn demo_frame(rows: &[Vec<u32>]) -> Vec<u8> {
        ReleaseDb::build(&Database::from_rows(8, rows), 0.25).snapshot_bytes()
    }

    #[test]
    fn append_then_reopen_roundtrips_records() {
        let scratch = Scratch::new("roundtrip");
        let f0 = demo_frame(&[vec![0, 1]]);
        let f1 = demo_frame(&[vec![2]]);
        let mut log = SketchLog::create(&scratch.0).expect("create");
        log.append(LogOp::Put, 7, &f0).expect("append");
        log.append(LogOp::Merge, 7, &f1).expect("append");
        log.append(LogOp::Put, 3, &f1).expect("append");
        assert_eq!(log.record_count(), 3);
        let (reopened, report) = SketchLog::open(&scratch.0).expect("reopen");
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.records, 3);
        let records = reopened.records().expect("strict scan");
        assert_eq!(
            records.iter().map(|r| (r.op, r.id)).collect::<Vec<_>>(),
            vec![(LogOp::Put, 7), (LogOp::Merge, 7), (LogOp::Put, 3)]
        );
        assert_eq!(records[0].frame, f0, "frames come back byte-for-byte");
        assert_eq!(records[0].offset, LOG_HEADER_LEN as u64);
        // Appends after a reopen land after the recovered tail.
        let mut reopened = reopened;
        reopened.append(LogOp::Put, 9, &f0).expect("append after reopen");
        assert_eq!(reopened.records().expect("scan").len(), 4);
    }

    #[test]
    fn open_creates_missing_and_refuses_foreign_files() {
        let scratch = Scratch::new("foreign");
        let (log, report) = SketchLog::open(&scratch.0).expect("create via open");
        assert!(report.clean());
        assert_eq!(log.len_bytes(), LOG_HEADER_LEN as u64);
        drop(log);
        // A file that is not a log is refused, not truncated.
        std::fs::write(&scratch.0, b"definitely not a sketch log").expect("write");
        let err = SketchLog::open(&scratch.0).expect_err("foreign file");
        assert!(matches!(err, StoreError::NotALog { .. }), "{err}");
        assert_eq!(
            std::fs::read(&scratch.0).expect("still there"),
            b"definitely not a sketch log",
            "refusal must not modify the file"
        );
        // A future log version refuses typed too.
        let mut header = header_bytes().to_vec();
        header[4] = 0xFF;
        std::fs::write(&scratch.0, &header).expect("write");
        assert!(matches!(
            SketchLog::open(&scratch.0),
            Err(StoreError::UnsupportedLogVersion { .. })
        ));
    }

    #[test]
    fn recovery_truncates_torn_tails_and_keeps_the_prefix() {
        let scratch = Scratch::new("torn");
        let f0 = demo_frame(&[vec![0, 1], vec![3]]);
        let f1 = demo_frame(&[vec![5]]);
        let mut writer = SketchLog::create(&scratch.0).expect("create");
        writer.append(LogOp::Put, 0, &f0).expect("append");
        let keep = writer.len_bytes();
        writer.append(LogOp::Put, 1, &f1).expect("append");
        let full = std::fs::read(&scratch.0).expect("read");
        // Every torn prefix of the second record recovers to exactly the
        // first record, cut exactly where the strict read refuses; a
        // complete file recovers clean.
        for cut in keep as usize..full.len() {
            std::fs::write(&scratch.0, &full[..cut]).expect("write");
            if cut > keep as usize {
                match writer.records().expect_err("torn tail") {
                    StoreError::BadRecord { offset, .. } => assert_eq!(offset, keep, "cut={cut}"),
                    other => panic!("expected BadRecord, got {other}"),
                }
            }
            let (log, report) = SketchLog::open(&scratch.0).expect("recover");
            assert_eq!(report.records, 1, "cut={cut}");
            assert_eq!(report.truncated_bytes, cut as u64 - keep, "cut={cut}");
            assert_eq!(report.clean(), cut == keep as usize);
            assert_eq!(log.len_bytes(), keep);
            let records = log.records().expect("strict scan after recovery");
            assert_eq!(records.len(), 1);
            assert_eq!(records[0].frame, f0);
        }
    }

    #[test]
    fn recovery_truncates_from_a_corrupt_record_onward() {
        let scratch = Scratch::new("bitflip");
        let f = demo_frame(&[vec![1]]);
        let mut log = SketchLog::create(&scratch.0).expect("create");
        for id in 0..3 {
            log.append(LogOp::Put, id, &f).expect("append");
        }
        let record_len = (log.len_bytes() as usize - LOG_HEADER_LEN) / 3;
        let full = std::fs::read(&scratch.0).expect("read");
        drop(log);
        // Flip a byte inside the second record: recovery keeps record 0
        // and drops records 1 and 2 (prefix recovery, like a WAL).
        let mut bytes = full;
        bytes[LOG_HEADER_LEN + record_len + record_len / 2] ^= 0x40;
        std::fs::write(&scratch.0, &bytes).expect("write");
        let (log, report) = SketchLog::open(&scratch.0).expect("recover");
        assert_eq!(report.records, 1);
        assert_eq!(report.truncated_bytes, 2 * record_len as u64);
        assert!(report.reason.as_deref().expect("reason").contains("byte offset"));
        assert_eq!(log.records().expect("scan").len(), 1);
    }

    #[test]
    fn append_judges_the_frame_before_writing() {
        let scratch = Scratch::new("badframe");
        let mut log = SketchLog::create(&scratch.0).expect("create");
        let err = log.append(LogOp::Put, 0, b"not a frame").expect_err("bad frame");
        assert!(matches!(err, StoreError::Frame { .. }), "{err}");
        let mut trailing = demo_frame(&[vec![0]]);
        trailing.push(0xEE);
        let err = log.append(LogOp::Put, 0, &trailing).expect_err("trailing byte");
        assert!(matches!(err, StoreError::Frame { .. }), "{err}");
        assert_eq!(log.len_bytes(), LOG_HEADER_LEN as u64, "refused appends write nothing");
        assert_eq!(log.record_count(), 0);
    }

    #[test]
    fn strict_scan_refuses_where_recovery_truncates() {
        let scratch = Scratch::new("strict");
        let f = demo_frame(&[vec![2]]);
        let mut log = SketchLog::create(&scratch.0).expect("create");
        log.append(LogOp::Put, 0, &f).expect("append");
        let valid_len = log.len_bytes();
        // Corrupt the file *after* open: strict scan names the offset.
        let mut bytes = std::fs::read(&scratch.0).expect("read");
        bytes.push(0xFF); // an op byte no record starts with
        std::fs::write(&scratch.0, &bytes).expect("write");
        let err = log.records().expect_err("garbage tail");
        match err {
            StoreError::BadRecord { offset, .. } => assert_eq!(offset, valid_len),
            other => panic!("expected BadRecord, got {other}"),
        }
    }
}
