//! Content-addressed object store.
//!
//! Every object's identity is the SHA-256 digest of its content. This gives
//! the preservation layer three properties for free:
//!
//! * **Immutability** — an object can never change without changing its
//!   address, so "stable content" (a defining property of a record) is
//!   enforced structurally.
//! * **Deduplication** — identical digitised masters stored twice occupy one
//!   slot.
//! * **Verifiability** — fixity checking is re-hashing; no side-channel
//!   checksum database can drift out of sync with the data.
//!
//! [`MemoryBackend`] is the one leaf backend. Durable bytes live in the
//! shard write-ahead log (`itrust-service`), which replays into a
//! `MemoryBackend` on open. [`crate::replica`], [`crate::fault`] and
//! [`crate::antientropy`] wrap any [`Backend`] for replication, fault
//! injection and network partitions.

use crate::errors::{Error, Result};
use crate::hash::{sha256, Digest};
use bytes::Bytes;
use itrust_obs::ObsCtx;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Storage backend abstraction: a flat digest → bytes map.
///
/// Implementations must be safe for concurrent use; `ObjectStore` performs
/// hashing and verification above this trait.
pub trait Backend: Send + Sync {
    /// Store `bytes` under `digest`. Must be idempotent for identical
    /// content; implementations need not re-verify the digest.
    fn put_raw(&self, digest: &Digest, bytes: Bytes) -> Result<()>;
    /// Fetch the bytes stored under `digest`.
    fn get_raw(&self, digest: &Digest) -> Result<Bytes>;
    /// Whether an object exists.
    fn contains(&self, digest: &Digest) -> bool;
    /// Remove an object (used only by sanctioned disposition, see
    /// `archival-core::retention`). Returns `true` if it existed.
    fn delete_raw(&self, digest: &Digest) -> Result<bool>;
    /// Enumerate all stored digests in sorted order.
    fn list(&self) -> Vec<Digest>;
    /// Number of stored objects.
    fn object_count(&self) -> usize;
    /// Total stored payload bytes.
    fn payload_bytes(&self) -> u64;
}

/// In-memory backend for tests and benchmarks.
#[derive(Default)]
pub struct MemoryBackend {
    map: RwLock<BTreeMap<Digest, Bytes>>,
    bytes: AtomicU64,
}

impl MemoryBackend {
    /// Create an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fault injection for tests and the D5 tamper-detection experiment:
    /// mutate the stored bytes of `digest` in place, bypassing all integrity
    /// machinery (as a decaying disk or malicious actor would).
    pub fn tamper(&self, digest: &Digest, f: impl FnOnce(&mut Vec<u8>)) -> bool {
        let mut map = self.map.write();
        if let Some(b) = map.get_mut(digest) {
            let mut v = b.to_vec();
            let before = v.len() as u64;
            f(&mut v);
            let after = v.len() as u64;
            *b = Bytes::from(v);
            if after >= before {
                self.bytes.fetch_add(after - before, Ordering::Relaxed);
            } else {
                self.bytes.fetch_sub(before - after, Ordering::Relaxed);
            }
            true
        } else {
            false
        }
    }
}

impl Backend for MemoryBackend {
    fn put_raw(&self, digest: &Digest, bytes: Bytes) -> Result<()> {
        let mut map = self.map.write();
        if map.insert(*digest, bytes.clone()).is_none() {
            self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    fn get_raw(&self, digest: &Digest) -> Result<Bytes> {
        self.map
            .read()
            .get(digest)
            .cloned()
            .ok_or_else(|| Error::NotFound(digest.to_hex()))
    }

    fn contains(&self, digest: &Digest) -> bool {
        self.map.read().contains_key(digest)
    }

    fn delete_raw(&self, digest: &Digest) -> Result<bool> {
        let mut map = self.map.write();
        if let Some(b) = map.remove(digest) {
            self.bytes.fetch_sub(b.len() as u64, Ordering::Relaxed);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn list(&self) -> Vec<Digest> {
        self.map.read().keys().copied().collect()
    }

    fn object_count(&self) -> usize {
        self.map.read().len()
    }

    fn payload_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// Content-addressed object store over any [`Backend`].
pub struct ObjectStore<B: Backend> {
    backend: B,
    verify_on_read: bool,
    obs: ObsCtx,
}

impl<B: Backend> ObjectStore<B> {
    /// Wrap a backend. Reads are *not* verified by default (fixity audits
    /// cover that); enable [`ObjectStore::with_verify_on_read`] for paranoid
    /// deployments.
    pub fn new(backend: B) -> Self {
        ObjectStore { backend, verify_on_read: false, obs: ObsCtx::null() }
    }

    /// Attach a telemetry context; store operations (and components built
    /// on this store, e.g. `FixityAuditor` and `archival-core`'s
    /// `Repository`) record into it.
    pub fn with_obs(mut self, obs: ObsCtx) -> Self {
        self.obs = obs;
        self
    }

    /// The store's telemetry context (null unless attached).
    pub fn obs(&self) -> &ObsCtx {
        &self.obs
    }

    /// Verify the digest of every object as it is read, turning silent
    /// corruption into an immediate [`Error::DigestMismatch`].
    pub fn with_verify_on_read(mut self) -> Self {
        self.verify_on_read = true;
        self
    }

    /// Store `bytes`, returning the content address. Idempotent.
    pub fn put(&self, bytes: impl Into<Bytes>) -> Result<Digest> {
        let _span = itrust_obs::span!(self.obs, "trustdb.store.put");
        let bytes = bytes.into();
        itrust_obs::counter_add!(self.obs, "trustdb.store.put_bytes", bytes.len() as u64);
        let digest = sha256(&bytes);
        self.backend.put_raw(&digest, bytes)?;
        Ok(digest)
    }

    /// Store a batch of objects, returning their content addresses in input
    /// order. Digests are computed in parallel over the batch while the
    /// backend writes proceed serially in submission order (hash-while-copy:
    /// on ingest the expensive hashing overlaps across items instead of
    /// alternating hash/write per item). Idempotent per item; stops at the
    /// first backend error.
    pub fn put_many(&self, items: Vec<impl Into<Bytes>>) -> Result<Vec<Digest>> {
        let _span = itrust_obs::span!(self.obs, "trustdb.store.put_many");
        let items: Vec<Bytes> = items.into_iter().map(Into::into).collect();
        let digests: Vec<Digest> = itrust_par::par_map(&items, |b| sha256(b));
        for (digest, bytes) in digests.iter().zip(items) {
            itrust_obs::counter_add!(self.obs, "trustdb.store.put_bytes", bytes.len() as u64);
            self.backend.put_raw(digest, bytes)?;
        }
        Ok(digests)
    }

    /// Fetch the object at `digest`.
    pub fn get(&self, digest: &Digest) -> Result<Bytes> {
        let _span = itrust_obs::span!(self.obs, "trustdb.store.get");
        let bytes = self.backend.get_raw(digest)?;
        if self.verify_on_read {
            let actual = sha256(&bytes);
            if actual != *digest {
                return Err(Error::DigestMismatch {
                    expected: digest.to_hex(),
                    actual: actual.to_hex(),
                });
            }
        }
        Ok(bytes)
    }

    /// Re-hash the object at `digest` and report whether it is intact.
    /// `Err(NotFound)` if absent.
    pub fn verify(&self, digest: &Digest) -> Result<bool> {
        let bytes = self.backend.get_raw(digest)?;
        Ok(sha256(&bytes) == *digest)
    }

    /// Whether the object exists (no integrity check).
    pub fn contains(&self, digest: &Digest) -> bool {
        self.backend.contains(digest)
    }

    /// Sanctioned removal (disposition). Returns whether it existed.
    pub fn delete(&self, digest: &Digest) -> Result<bool> {
        self.backend.delete_raw(digest)
    }

    /// All stored digests, sorted.
    pub fn list(&self) -> Vec<Digest> {
        self.backend.list()
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.backend.object_count()
    }

    /// Total payload bytes across all objects.
    pub fn payload_bytes(&self) -> u64 {
        self.backend.payload_bytes()
    }

    /// Borrow the backend (e.g. for fault injection in tests).
    pub fn backend(&self) -> &B {
        &self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let store = ObjectStore::new(MemoryBackend::new());
        let id = store.put(b"content".as_slice()).unwrap();
        assert_eq!(&store.get(&id).unwrap()[..], b"content");
        assert!(store.contains(&id));
        assert!(store.verify(&id).unwrap());
    }

    #[test]
    fn put_is_idempotent_and_deduplicates() {
        let store = ObjectStore::new(MemoryBackend::new());
        let a = store.put(b"same".as_slice()).unwrap();
        let b = store.put(b"same".as_slice()).unwrap();
        assert_eq!(a, b);
        assert_eq!(store.object_count(), 1);
        assert_eq!(store.payload_bytes(), 4);
    }

    #[test]
    fn put_many_matches_individual_puts_in_order() {
        let batch = ObjectStore::new(MemoryBackend::new());
        let single = ObjectStore::new(MemoryBackend::new());
        let items: Vec<Bytes> =
            (0..10u8).map(|i| Bytes::from(vec![i; 100 * (i as usize + 1)])).collect();
        let got = batch.put_many(items.clone()).unwrap();
        let want: Vec<Digest> =
            items.iter().map(|b| single.put(b.clone()).unwrap()).collect();
        assert_eq!(got, want);
        assert_eq!(batch.object_count(), 10);
        for (d, b) in got.iter().zip(&items) {
            assert_eq!(&batch.get(d).unwrap(), b);
        }
    }

    #[test]
    fn large_object_digest_invariant_across_thread_counts() {
        // The content address must not depend on the thread count.
        let payload: Vec<u8> = (0..64 * 1024 + 12_345).map(|i| (i % 251) as u8).collect();
        let want = sha256(&payload);
        for threads in [1, 2, 4] {
            let digest = itrust_par::with_threads(threads, || {
                let store = ObjectStore::new(MemoryBackend::new());
                store.put(payload.clone()).unwrap()
            });
            assert_eq!(digest, want, "threads={threads}");
        }
    }

    #[test]
    fn get_missing_is_not_found() {
        let store = ObjectStore::new(MemoryBackend::new());
        let err = store.get(&Digest::zero()).unwrap_err();
        assert!(matches!(err, Error::NotFound(_)));
    }

    #[test]
    fn tamper_is_caught_by_verify() {
        let store = ObjectStore::new(MemoryBackend::new());
        let id = store.put(b"pristine archival master".as_slice()).unwrap();
        assert!(store.backend().tamper(&id, |v| v[0] ^= 0x80));
        assert!(!store.verify(&id).unwrap());
    }

    #[test]
    fn verify_on_read_rejects_tampered() {
        let store = ObjectStore::new(MemoryBackend::new()).with_verify_on_read();
        let id = store.put(b"pristine".as_slice()).unwrap();
        store.get(&id).unwrap();
        store.backend().tamper(&id, |v| v.truncate(3));
        assert!(matches!(store.get(&id), Err(Error::DigestMismatch { .. })));
    }

    #[test]
    fn delete_removes_and_reports() {
        let store = ObjectStore::new(MemoryBackend::new());
        let id = store.put(b"to be disposed".as_slice()).unwrap();
        assert!(store.delete(&id).unwrap());
        assert!(!store.delete(&id).unwrap());
        assert!(!store.contains(&id));
        assert_eq!(store.payload_bytes(), 0);
    }

    #[test]
    fn list_is_sorted_and_complete() {
        let store = ObjectStore::new(MemoryBackend::new());
        let mut ids: Vec<Digest> =
            (0..20).map(|i| store.put(vec![i as u8; 10]).unwrap()).collect();
        ids.sort();
        assert_eq!(store.list(), ids);
    }
}
