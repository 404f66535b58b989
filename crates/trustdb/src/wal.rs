//! Append-only, CRC-framed write-ahead log.
//!
//! Every mutation of the object store and catalog is first appended here.
//! Frames are individually checksummed (CRC-32C) so torn writes and bit rot
//! are detected at replay time; recovery truncates at the first damaged
//! frame, which is the standard contract for a redo log.
//!
//! Frame layout (little-endian):
//!
//! ```text
//! +--------------+--------------+------------------+
//! | len: u32     | crc32c: u32  | payload: len × u8|
//! +--------------+--------------+------------------+
//! ```
//!
//! The [`SyncPolicy`] controls the durability/throughput trade-off; the
//! Table 1 harness (`bin/table1`) measures the group-commit win as
//! `table1.wal_sync.*_ms` in `table1.json`.

use crate::errors::{Error, Result};
use crate::hash::crc32c;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Maximum accepted frame payload (64 MiB). Anything larger is assumed to be
/// a corrupt length field rather than a legitimate record.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// When the log forces data to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every single append. Maximum durability, lowest
    /// throughput.
    Always,
    /// `fsync` once per batch (`append_batch`). The archival default:
    /// accessions arrive as batches, and a receipt is only issued after the
    /// batch commit.
    GroupCommit,
    /// Never `fsync` explicitly (OS decides). Only for benchmarks and tests.
    Never,
}

/// Minimal file surface the log writes through. Abstracted so tests can
/// inject mid-write failures and verify the partial-write recovery path;
/// production always uses a real [`File`].
trait WalFile: Send {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    fn sync_data(&mut self) -> io::Result<()>;
    /// Cut the file back to `len` bytes (drops a torn tail). Subsequent
    /// appends continue from the new end.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

impl WalFile for File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        Write::write_all(self, buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)?;
        // The file is opened in append mode, so writes always land at the
        // (now shorter) end; the seek just keeps the cursor honest.
        self.seek(SeekFrom::End(0))?;
        Ok(())
    }
}

struct WalInner {
    file: Box<dyn WalFile>,
    /// Reusable batch encode buffer; frames are staged here and written
    /// with a single `write_all`, so a failed append leaves at most one
    /// torn region that `truncate` removes.
    batch: Vec<u8>,
    /// Byte offset of the end of the last durable frame.
    len: u64,
    frames: u64,
    /// Set when a failed append may have left torn bytes past `len` AND the
    /// recovery truncate also failed; the next append must re-truncate
    /// before writing or its frames would land after junk.
    torn: bool,
}

/// An append-only write-ahead log backed by a single file.
pub struct Wal {
    path: PathBuf,
    policy: SyncPolicy,
    obs: itrust_obs::ObsCtx,
    inner: Mutex<WalInner>,
}

/// Outcome of [`Wal::replay`]: the decoded frames plus whether a corrupt
/// tail was detected (and where).
#[derive(Debug)]
pub struct Replay {
    /// Every intact frame, in append order.
    pub frames: Vec<Vec<u8>>,
    /// If the log ended with a damaged/torn frame, the byte offset at which
    /// valid data stops. Recovery should truncate here.
    pub corrupt_tail_at: Option<u64>,
}

impl Wal {
    /// Open (or create) the log at `path`, positioning new appends after the
    /// last intact frame. The log records no telemetry until
    /// [`Wal::with_obs`] attaches a context.
    pub fn open(path: impl AsRef<Path>, policy: SyncPolicy) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        // Determine the durable prefix so a previously-torn tail is not
        // extended (appending after garbage would orphan the new frames).
        let log = read_log(&mut file)?;
        let mut frames = 0u64;
        let durable_len = match scan(&log, |_| frames += 1) {
            Some(torn_at) => {
                file.set_len(torn_at)?;
                torn_at
            }
            None => log.len() as u64,
        };
        file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            path,
            policy,
            obs: itrust_obs::ObsCtx::null(),
            inner: Mutex::new(WalInner {
                file: Box::new(file),
                batch: Vec::new(),
                len: durable_len,
                frames,
                torn: false,
            }),
        })
    }

    /// Record append/replay telemetry into `obs`.
    pub fn with_obs(mut self, obs: itrust_obs::ObsCtx) -> Self {
        self.obs = obs;
        self
    }

    /// Filesystem path of the log.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of frames appended over the log's lifetime (including those
    /// recovered at open).
    pub fn frame_count(&self) -> u64 {
        self.inner.lock().frames
    }

    /// Current log length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.inner.lock().len
    }

    /// Append a single frame. With [`SyncPolicy::Always`] this also fsyncs.
    pub fn append(&self, payload: &[u8]) -> Result<u64> {
        self.append_batch(std::iter::once(payload))
    }

    /// Append a batch of frames with a single flush (+fsync under
    /// `Always`/`GroupCommit`). Returns the byte offset of the end of the
    /// batch. The batch is atomic at the replay level only in the sense that
    /// a torn tail truncates cleanly; callers needing all-or-nothing batch
    /// semantics should frame the batch as one payload.
    pub fn append_batch<'a, I>(&self, payloads: I) -> Result<u64>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let _span = itrust_obs::span!(self.obs, "trustdb.wal.append");
        let inner = &mut *self.inner.lock();
        if inner.torn {
            // A previous append failed AND its recovery truncate failed;
            // retry the truncate before writing anything new.
            let durable = inner.len;
            inner.file.truncate(durable)?;
            inner.torn = false;
        }
        // Stage the whole batch in memory first: frame-size validation
        // happens before a single byte touches the file, and the file sees
        // exactly one write per batch.
        inner.batch.clear();
        let mut n = 0u64;
        for payload in payloads {
            if payload.len() as u64 > MAX_FRAME_LEN as u64 {
                inner.batch.clear();
                return Err(Error::InvariantViolation(format!(
                    "frame of {} bytes exceeds MAX_FRAME_LEN",
                    payload.len()
                )));
            }
            let len = payload.len() as u32;
            let crc = crc32c(payload);
            inner.batch.extend_from_slice(&len.to_le_bytes());
            inner.batch.extend_from_slice(&crc.to_le_bytes());
            inner.batch.extend_from_slice(payload);
            n += 1;
        }
        let sync = matches!(self.policy, SyncPolicy::Always | SyncPolicy::GroupCommit);
        let written = inner.file.write_all(&inner.batch).and_then(|()| {
            if sync {
                inner.file.sync_data()
            } else {
                Ok(())
            }
        });
        if let Err(e) = written {
            // The file may hold a torn frame beyond the durable prefix. Cut
            // it back so the next append does not land after junk (which
            // would orphan every later frame at replay). If the truncate
            // itself fails, remember that so the next append retries it;
            // open-time recovery covers the crash case either way.
            let durable = inner.len;
            inner.torn = inner.file.truncate(durable).is_err();
            itrust_obs::counter_inc!(self.obs, "trustdb.wal.append_failures");
            return Err(e.into());
        }
        inner.len += inner.batch.len() as u64;
        inner.frames += n;
        itrust_obs::counter_add!(self.obs, "trustdb.wal.frames_appended", n);
        itrust_obs::counter_add!(self.obs, "trustdb.wal.bytes_appended", inner.batch.len() as u64);
        Ok(inner.len)
    }

    /// Discard every frame and reset the log to empty. Used by intent logs
    /// whose records have been fully reconciled into the quorum store: the
    /// frames' content is now durable elsewhere, so keeping them would only
    /// make the next replay re-apply (idempotent but wasteful) work.
    pub fn reset(&self) -> Result<()> {
        let _span = itrust_obs::span!(self.obs, "trustdb.wal.reset");
        let inner = &mut *self.inner.lock();
        inner.file.truncate(0)?;
        inner.len = 0;
        inner.frames = 0;
        inner.torn = false;
        itrust_obs::counter_inc!(self.obs, "trustdb.wal.resets");
        Ok(())
    }

    /// Read back every intact frame from the start of the log.
    pub fn replay(&self) -> Result<Replay> {
        let _span = itrust_obs::span!(self.obs, "trustdb.wal.replay");
        // Hold the lock so a concurrent append cannot interleave with the
        // read (appends write whole batches, but a half-written batch would
        // otherwise show up as a torn tail).
        let _inner = self.inner.lock();
        let mut file = File::open(&self.path)?;
        Self::replay_file(&mut file)
    }

    fn replay_file(file: &mut File) -> Result<Replay> {
        let log = read_log(file)?;
        let mut frames = Vec::new();
        let corrupt_tail_at = scan(&log, |payload| frames.push(payload.to_vec()));
        Ok(Replay { frames, corrupt_tail_at })
    }
}

/// The whole log file, from its first byte.
fn read_log(file: &mut File) -> Result<Vec<u8>> {
    file.seek(SeekFrom::Start(0))?;
    let mut log = Vec::new();
    file.read_to_end(&mut log)?;
    Ok(log)
}

/// Walk the frames of `log` in order, handing each intact payload to
/// `each`. Returns the offset of the first torn or damaged frame, where
/// valid data stops, or `None` when the log ends on a frame boundary.
fn scan(log: &[u8], mut each: impl FnMut(&[u8])) -> Option<u64> {
    let mut rest = log;
    while !rest.is_empty() {
        let Some((payload, after)) = split_frame(rest) else {
            return Some((log.len() - rest.len()) as u64);
        };
        each(payload);
        rest = after;
    }
    None
}

/// Split the first frame off `bytes`: its payload and what follows it.
/// `None` when the header or payload is torn, the length is implausible
/// (over [`MAX_FRAME_LEN`]) or the payload fails its CRC.
fn split_frame(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let (&[l0, l1, l2, l3, c0, c1, c2, c3], body) = bytes.split_first_chunk::<8>()?;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_FRAME_LEN {
        return None;
    }
    let (payload, after) = body.split_at_checked(len as usize)?;
    (crc32c(payload) == u32::from_le_bytes([c0, c1, c2, c3])).then_some((payload, after))
}

/// Test-only writer that forwards to the real file but fails once after
/// writing `budget` bytes of the offending call — leaving a genuinely torn
/// frame on disk, exactly what a mid-write power cut or ENOSPC produces.
#[cfg(test)]
struct FailingFile {
    inner: Box<dyn WalFile>,
    budget: usize,
    tripped: bool,
}

#[cfg(test)]
impl WalFile for FailingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if self.tripped {
            return self.inner.write_all(buf);
        }
        if buf.len() <= self.budget {
            self.budget -= buf.len();
            return self.inner.write_all(buf);
        }
        // Partial write, then fail.
        self.inner.write_all(&buf[..self.budget])?;
        self.tripped = true;
        Err(io::Error::new(io::ErrorKind::WriteZero, "injected write failure"))
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.inner.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
}

#[cfg(test)]
impl Wal {
    /// Wrap the current file so the next write fails after `budget` bytes.
    fn inject_failing_writes(&self, budget: usize) {
        struct NullFile;
        impl WalFile for NullFile {
            fn write_all(&mut self, _: &[u8]) -> io::Result<()> {
                unreachable!("placeholder file must never be used")
            }
            fn sync_data(&mut self) -> io::Result<()> {
                unreachable!("placeholder file must never be used")
            }
            fn truncate(&mut self, _: u64) -> io::Result<()> {
                unreachable!("placeholder file must never be used")
            }
        }
        let mut inner = self.inner.lock();
        let real = std::mem::replace(&mut inner.file, Box::new(NullFile));
        inner.file = Box::new(FailingFile { inner: real, budget, tripped: false });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("trustdb-wal-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = tmp("roundtrip");
        let wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        wal.append(b"alpha").unwrap();
        wal.append(b"beta").unwrap();
        wal.append(b"").unwrap(); // empty frames are legal
        let replay = wal.replay().unwrap();
        assert_eq!(replay.frames, vec![b"alpha".to_vec(), b"beta".to_vec(), vec![]]);
        assert!(replay.corrupt_tail_at.is_none());
        assert_eq!(wal.frame_count(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_append_counts_frames() {
        let path = tmp("batch");
        let wal = Wal::open(&path, SyncPolicy::GroupCommit).unwrap();
        let items: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8; i]).collect();
        wal.append_batch(items.iter().map(|v| v.as_slice())).unwrap();
        assert_eq!(wal.frame_count(), 10);
        let replay = wal.replay().unwrap();
        assert_eq!(replay.frames, items);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_continues_after_durable_frames() {
        let path = tmp("reopen");
        {
            let wal = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(b"persisted").unwrap();
        }
        let wal = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(wal.frame_count(), 1);
        wal.append(b"more").unwrap();
        let replay = wal.replay().unwrap();
        assert_eq!(replay.frames.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_on_open() {
        let path = tmp("torn");
        {
            let wal = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(b"good frame").unwrap();
        }
        // Simulate a torn write: append half a header.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            std::io::Write::write_all(&mut f, &[0xde, 0xad, 0xbe]).unwrap();
        }
        let wal = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(wal.frame_count(), 1);
        // The torn bytes were truncated, so new appends replay cleanly.
        wal.append(b"after recovery").unwrap();
        let replay = wal.replay().unwrap();
        assert_eq!(replay.frames.len(), 2);
        assert!(replay.corrupt_tail_at.is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_in_payload_detected() {
        let path = tmp("bitflip");
        {
            let wal = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(b"frame one is long enough to flip").unwrap();
            wal.append(b"frame two").unwrap();
        }
        // Flip a byte inside the first payload.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut f = File::open(&path).unwrap();
        let replay = Wal::replay_file(&mut f).unwrap();
        assert_eq!(replay.frames.len(), 0, "corruption stops replay at the damaged frame");
        assert_eq!(replay.corrupt_tail_at, Some(0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn implausible_length_field_is_corruption() {
        let path = tmp("len");
        {
            let mut f = File::create(&path).unwrap();
            std::io::Write::write_all(&mut f, &u32::MAX.to_le_bytes()).unwrap();
            std::io::Write::write_all(&mut f, &0u32.to_le_bytes()).unwrap();
        }
        let wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(wal.frame_count(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_frame_rejected() {
        let path = tmp("oversize");
        let wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        let huge = vec![0u8; MAX_FRAME_LEN as usize + 1];
        assert!(matches!(
            wal.append(&huge),
            Err(Error::InvariantViolation(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_append_truncates_torn_frame_and_recovers() {
        let path = tmp("failwrite");
        let wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        wal.append(b"durable frame").unwrap();
        let durable = wal.len_bytes();

        // Fail mid-frame: 5 bytes of the new frame reach the file, then the
        // device errors.
        wal.inject_failing_writes(5);
        let err = wal.append(b"this frame tears").unwrap_err();
        assert!(matches!(err, Error::Io(_)));

        // The torn bytes were cut back to the durable prefix immediately:
        // the on-disk file ends exactly at the last durable frame.
        assert_eq!(wal.len_bytes(), durable);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), durable);

        // Subsequent appends land at the durable offset and replay cleanly —
        // nothing is orphaned behind junk.
        wal.append(b"after recovery").unwrap();
        let replay = wal.replay().unwrap();
        assert_eq!(replay.frames, vec![b"durable frame".to_vec(), b"after recovery".to_vec()]);
        assert!(replay.corrupt_tail_at.is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_batch_is_all_or_nothing() {
        let path = tmp("failbatch");
        let wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        wal.append(b"base").unwrap();
        // Budget admits the first frame of the batch but tears the second:
        // the whole batch must be rolled back, not half-committed.
        wal.inject_failing_writes(8 + 5 + 3);
        let batch: Vec<&[u8]> = vec![b"five5", b"seven77"];
        assert!(wal.append_batch(batch).is_err());
        assert_eq!(wal.frame_count(), 1);
        let replay = wal.replay().unwrap();
        assert_eq!(replay.frames, vec![b"base".to_vec()]);
        assert!(replay.corrupt_tail_at.is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reset_empties_the_log_and_accepts_new_frames() {
        let path = tmp("reset");
        let wal = Wal::open(&path, SyncPolicy::GroupCommit).unwrap();
        wal.append(b"stale intent one").unwrap();
        wal.append(b"stale intent two").unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.frame_count(), 0);
        assert_eq!(wal.len_bytes(), 0);
        assert!(wal.replay().unwrap().frames.is_empty());
        // The log is fully usable after a reset, across reopen too.
        wal.append(b"fresh").unwrap();
        drop(wal);
        let wal = Wal::open(&path, SyncPolicy::GroupCommit).unwrap();
        assert_eq!(wal.replay().unwrap().frames, vec![b"fresh".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_appends_all_survive() {
        let path = tmp("concurrent");
        let wal = std::sync::Arc::new(Wal::open(&path, SyncPolicy::Never).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let wal = wal.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u8 {
                    wal.append(&[t, i]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let replay = wal.replay().unwrap();
        assert_eq!(replay.frames.len(), 200);
        // Every (thread, seq) pair appears exactly once.
        let mut seen = std::collections::HashSet::new();
        for f in &replay.frames {
            assert!(seen.insert((f[0], f[1])));
        }
        std::fs::remove_file(&path).unwrap();
    }
}
