//! Hash-partitioned sharded store.
//!
//! One [`ShardedStore`] fans a multi-tenant key space out over N
//! [`Shard`]s. Each shard is a complete, self-contained preservation unit:
//! its own content-addressed [`ObjectStore`], its own write-ahead log, its
//! own tamper-evident audit chain, and its own catalog mapping scoped
//! `(tenant, key)` names to content digests. Routing is the deterministic
//! [`shard_of`] hash, so the same `(tenant, key)` always lands on the same
//! shard regardless of thread count, process, or machine — the property
//! that lets the D10 load experiment produce byte-identical reports at any
//! `ITRUST_THREADS`.
//!
//! Concurrency contract: a shard's mutating operations are internally
//! locked and safe to call from any thread. A put is one critical section
//! under the shard's catalog lock, from the existence check through the
//! audit append, so a record is written at most once. *Deterministic
//! ordering* across puts (WAL frame order, audit chain order) is the
//! caller's job — the
//! [`crate::executor::ServiceExecutor`] serializes each shard's operations
//! within a tick while running distinct shards in parallel over
//! `itrust-par`.

use crate::tenant::{Quota, Tenant};
use bytes::Bytes;
use itrust_obs::ObsCtx;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use trustdb::audit::AuditLog;
use trustdb::event::EventKind;
use trustdb::errors::{Error, Result};
use trustdb::fixity::{FixityAuditor, FixityReport};
use trustdb::hash::{sha256, Digest};
use trustdb::merkle::MerkleTree;
use trustdb::store::{Hashed, MemoryBackend, ObjectStore};
use trustdb::wal::{SyncPolicy, Wal};

/// Deterministic shard routing: SHA-256 over the length-prefixed tenant
/// and key, reduced mod `shards`. Length prefixes keep `("ab","c")` and
/// `("a","bc")` on independent routes.
pub fn shard_of(shards: usize, tenant: &str, key: &str) -> usize {
    let mut msg = Vec::with_capacity(8 + tenant.len() + key.len());
    msg.extend_from_slice(&(tenant.len() as u32).to_le_bytes());
    msg.extend_from_slice(tenant.as_bytes());
    msg.extend_from_slice(&(key.len() as u32).to_le_bytes());
    msg.extend_from_slice(key.as_bytes());
    let h = sha256(&msg);
    let mut word = [0u8; 8];
    word.copy_from_slice(&h.0[..8]);
    (u64::from_le_bytes(word) % shards.max(1) as u64) as usize
}

/// Durability configuration for the per-shard write-ahead logs.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding one `shard-<i>.wal` file per shard.
    pub dir: PathBuf,
    /// Sync policy for appends.
    pub sync: SyncPolicy,
}

/// Configuration for a [`ShardedStore`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// Optional WAL durability; `None` keeps shards purely in memory.
    pub wal: Option<WalConfig>,
}

impl ShardedConfig {
    /// In-memory store with `shards` partitions and no WAL.
    pub fn in_memory(shards: usize) -> Self {
        ShardedConfig { shards, wal: None }
    }

    /// Durable store: per-shard WALs under `dir`.
    pub fn durable(shards: usize, dir: impl Into<PathBuf>, sync: SyncPolicy) -> Self {
        ShardedConfig { shards, wal: Some(WalConfig { dir: dir.into(), sync }) }
    }
}

/// Outcome of one shard put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutOutcome {
    /// Content address of the stored payload.
    pub digest: Digest,
    /// True when the `(tenant, key)` already held identical content; the
    /// write was a no-op and any quota reservation should be returned.
    pub deduplicated: bool,
}

/// One partition: object store + WAL + audit chain + scoped catalog.
pub struct Shard {
    index: usize,
    store: ObjectStore<MemoryBackend>,
    wal: Option<Wal>,
    audit: AuditLog,
    /// `(tenant, key) → digest`. BTreeMap so catalog walks (fixity roots,
    /// listings) are deterministically ordered.
    catalog: RwLock<BTreeMap<(String, String), Digest>>,
}

/// Encode one WAL frame: `[tenant][key][digest][payload]`, strings
/// length-prefixed.
fn encode_frame(tenant: &str, key: &str, digest: &Digest, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + tenant.len() + key.len() + 32 + payload.len());
    buf.extend_from_slice(&(tenant.len() as u32).to_le_bytes());
    buf.extend_from_slice(tenant.as_bytes());
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(key.as_bytes());
    buf.extend_from_slice(&digest.0);
    buf.extend_from_slice(payload);
    buf
}

/// Decode a frame produced by [`encode_frame`], borrowing from it. The
/// bytes come from disk at recovery, so every read is checked.
fn decode_frame(frame: &[u8]) -> Result<(&str, &str, Digest, &[u8])> {
    fn corrupt(detail: &str) -> Error {
        Error::Codec(format!("service WAL frame: {detail}"))
    }
    fn take_str(buf: &[u8]) -> Result<(&str, &[u8])> {
        let (len, rest) =
            buf.split_first_chunk::<4>().ok_or_else(|| corrupt("truncated length"))?;
        let (name, rest) = rest
            .split_at_checked(u32::from_le_bytes(*len) as usize)
            .ok_or_else(|| corrupt("truncated string"))?;
        let name = std::str::from_utf8(name).map_err(|_| corrupt("non-utf8 name"))?;
        Ok((name, rest))
    }
    let (tenant, rest) = take_str(frame)?;
    let (key, rest) = take_str(rest)?;
    let (digest, payload) =
        rest.split_first_chunk::<32>().ok_or_else(|| corrupt("truncated digest"))?;
    Ok((tenant, key, Digest(*digest), payload))
}

impl Shard {
    fn open(index: usize, wal: Option<&WalConfig>, obs: &ObsCtx) -> Result<Self> {
        // The shard's store is deliberately *not* wired to the service
        // ObsCtx: per-object spans would dominate the trace at load-test
        // volumes (tens of thousands of ops). The service layer records
        // its own counters per put/get instead.
        let store = ObjectStore::new(MemoryBackend::new());
        let mut catalog = BTreeMap::new();
        let wal = match wal {
            None => None,
            Some(cfg) => {
                let _span = itrust_obs::span!(obs, "service.shard.replay");
                std::fs::create_dir_all(&cfg.dir)?;
                // Recovery: the log's single read-and-CRC pass hands every
                // intact frame here, to go into the store and catalog. Each
                // payload is copied once and hashed once; a frame whose
                // bytes no longer match their recorded digest is an
                // integrity incident, not a recoverable tail.
                let path = cfg.dir.join(format!("shard-{index}.wal"));
                let wal = Wal::open_replaying(path, cfg.sync, |frame| {
                    let (tenant, key, digest, payload) = decode_frame(frame)?;
                    let object = Hashed::new(payload);
                    if object.digest() != digest {
                        return Err(Error::DigestMismatch {
                            expected: digest.to_hex(),
                            actual: object.digest().to_hex(),
                        });
                    }
                    store.put_hashed(object)?;
                    catalog.insert((tenant.to_string(), key.to_string()), digest);
                    Ok(())
                })?;
                Some(wal.with_obs(obs.clone()))
            }
        };
        Ok(Shard { index, store, wal, audit: AuditLog::new(), catalog: RwLock::new(catalog) })
    }

    /// This shard's position in the ring.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Store `payload` under the scoped `(tenant, key)`.
    ///
    /// * Existing key, identical content → idempotent
    ///   ([`PutOutcome::deduplicated`]).
    /// * Existing key, different content → [`Error::InvariantViolation`]:
    ///   records are immutable; updates are new keys.
    ///
    /// The WAL frame is appended before the store write (redo-log
    /// discipline) and the ingest lands in the shard's audit chain at
    /// `now_ms`. The catalog write lock is held from the existence check
    /// through the audit append, so two racing puts of one key cannot both
    /// pass the check. The catalog is the shard's outermost lock: `get`,
    /// `fixity_root` and `object_count` take it alone, `verify` never.
    pub fn put(&self, tenant: &str, key: &str, payload: Bytes, now_ms: u64) -> Result<PutOutcome> {
        let object = Hashed::new(payload);
        let digest = object.digest();
        let scoped = (tenant.to_string(), key.to_string());
        let mut catalog = self.catalog.write();
        if let Some(existing) = catalog.get(&scoped) {
            if *existing == digest {
                return Ok(PutOutcome { digest, deduplicated: true });
            }
            return Err(Error::InvariantViolation(format!(
                "key {tenant}/{key} already holds different content (records are immutable)"
            )));
        }
        if let Some(wal) = &self.wal {
            wal.append(&encode_frame(tenant, key, &digest, object.bytes()))?;
        }
        self.store.put_hashed(object)?;
        catalog.insert(scoped, digest);
        self.audit.append(
            now_ms,
            format!("tenant:{tenant}"),
            EventKind::Ingest,
            format!("{tenant}/{key}"),
            digest.to_hex(),
        )?;
        Ok(PutOutcome { digest, deduplicated: false })
    }

    /// Fetch the payload at the scoped `(tenant, key)`. A key owned by a
    /// different tenant is indistinguishable from an absent one —
    /// [`Error::NotFound`] either way, so the namespace cannot be probed.
    pub fn get(&self, tenant: &str, key: &str) -> Result<Bytes> {
        let digest = {
            let catalog = self.catalog.read();
            match catalog.get(&(tenant.to_string(), key.to_string())) {
                Some(d) => *d,
                None => return Err(Error::NotFound(format!("{tenant}/{key}"))),
            }
        };
        self.store.get(&digest)
    }

    /// Number of cataloged objects.
    pub fn object_count(&self) -> usize {
        self.catalog.read().len()
    }

    /// Total payload bytes stored (post-dedup).
    pub fn payload_bytes(&self) -> u64 {
        self.store.payload_bytes()
    }

    /// WAL frames appended over this shard's lifetime (0 without a WAL).
    pub fn wal_frames(&self) -> u64 {
        self.wal.as_ref().map(|w| w.frame_count()).unwrap_or(0)
    }

    /// Length of the shard's audit chain.
    pub fn audit_len(&self) -> usize {
        self.audit.len()
    }

    /// The shard's audit chain (ingests + fixity sweeps, hash-linked).
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// The shard's fixity root: a Merkle root over the catalog in
    /// deterministic `(tenant, key)` order, each leaf committing to the
    /// scoped name *and* the content digest. Two shards with identical
    /// holdings-and-names share a root; any divergence in membership,
    /// naming, or content changes it. [`Digest::zero`] for an empty shard.
    pub fn fixity_root(&self) -> Digest {
        let catalog = self.catalog.read();
        let leaves: Vec<Vec<u8>> = catalog
            .iter()
            .map(|((tenant, key), digest)| encode_frame(tenant, key, digest, &[]))
            .collect();
        match MerkleTree::from_leaves(leaves.iter().map(|l| l.as_slice()), &ObsCtx::null()) {
            Some(tree) => tree.root(),
            None => Digest::zero(),
        }
    }

    /// Re-hash every object, record the sweep in the audit chain, and
    /// verify the chain itself.
    pub fn verify(&self, now_ms: u64) -> Result<FixityReport> {
        let auditor = FixityAuditor::new(&self.store, &self.audit, format!("shard-{}", self.index));
        let report = auditor.sweep(now_ms)?;
        self.audit.verify_chain()?;
        Ok(report)
    }
}

/// Hash-partitioned, multi-tenant store: N independent [`Shard`]s plus the
/// tenant registry. See the module docs for the concurrency contract.
pub struct ShardedStore {
    shards: Vec<Shard>,
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
    obs: ObsCtx,
}

impl ShardedStore {
    /// Open a store per `config`, replaying any existing per-shard WALs.
    ///
    /// Shards open in parallel over `itrust-par`, each thread taking one
    /// contiguous, equal share of the shard indices. Equal shares, rather
    /// than one shard per task, keep each thread's replay allocations
    /// balanced across the allocator's per-thread arenas, which holds peak
    /// memory where a serial open had it. When shards fail to open, the
    /// error of the lowest-numbered one is returned.
    pub fn open(config: &ShardedConfig, obs: ObsCtx) -> Result<Self> {
        if config.shards == 0 {
            return Err(Error::InvariantViolation("shard count must be ≥ 1".into()));
        }
        let indices: Vec<usize> = (0..config.shards).collect();
        let share = config.shards.div_ceil(itrust_par::current_threads());
        let shards = itrust_par::par_map_chunks(&indices, share, |_, chunk| {
            chunk.iter().map(|&i| Shard::open(i, config.wal.as_ref(), &obs)).collect()
        })
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        Ok(ShardedStore { shards, tenants: RwLock::new(BTreeMap::new()), obs })
    }

    /// In-memory store with `shards` partitions and a null telemetry
    /// context (tests, examples).
    pub fn in_memory(shards: usize) -> Result<Self> {
        Self::open(&ShardedConfig::in_memory(shards), ObsCtx::null())
    }

    /// The service-level telemetry context shared by all shards.
    pub fn obs(&self) -> &ObsCtx {
        &self.obs
    }

    /// Register a tenant namespace. Rejects duplicates.
    pub fn register_tenant(&self, name: impl Into<String>, quota: Quota) -> Result<Arc<Tenant>> {
        let name = name.into();
        let mut tenants = self.tenants.write();
        if tenants.contains_key(&name) {
            return Err(Error::InvariantViolation(format!("tenant {name} already registered")));
        }
        let tenant = Arc::new(Tenant::new(name.clone(), quota));
        tenants.insert(name, tenant.clone());
        Ok(tenant)
    }

    /// Look up a tenant, or [`Error::NotFound`].
    pub fn tenant(&self, name: &str) -> Result<Arc<Tenant>> {
        self.tenants
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("tenant:{name}")))
    }

    /// Registered tenants, in name order.
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        self.tenants.read().values().cloned().collect()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Borrow shard `i` (panics never: returns `None` out of range).
    pub fn shard(&self, i: usize) -> Option<&Shard> {
        self.shards.get(i)
    }

    /// All shards, in ring order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Route a scoped key to its shard index.
    pub fn route(&self, tenant: &str, key: &str) -> usize {
        shard_of(self.shards.len(), tenant, key)
    }

    /// Store `payload` for `tenant` under `key`: reserves quota, routes,
    /// writes. Dedup hands the reservation back.
    pub fn put(&self, tenant: &str, key: &str, payload: Bytes, now_ms: u64) -> Result<Digest> {
        let t = self.tenant(tenant)?;
        t.reserve(payload.len() as u64)?;
        match self.put_prereserved(&t, key, payload, now_ms) {
            Ok(outcome) => Ok(outcome.digest),
            Err(e) => Err(e),
        }
    }

    /// [`ShardedStore::put`] for callers that already hold a quota
    /// reservation (the admission executor reserves at submit time so
    /// queued work can never overrun a budget). Releases the reservation on
    /// dedup or failure.
    pub fn put_prereserved(
        &self,
        tenant: &Arc<Tenant>,
        key: &str,
        payload: Bytes,
        now_ms: u64,
    ) -> Result<PutOutcome> {
        let bytes = payload.len() as u64;
        // itrust-lint: allow(panic-reachable) — shard slots are selected modulo the shard count
        let shard = &self.shards[self.route(tenant.name(), key)];
        match shard.put(tenant.name(), key, payload, now_ms) {
            Ok(outcome) => {
                if outcome.deduplicated {
                    tenant.release(bytes);
                    itrust_obs::counter_inc!(self.obs, "service.store.dedup_hits");
                } else {
                    itrust_obs::counter_inc!(self.obs, "service.store.puts");
                    itrust_obs::counter_add!(self.obs, "service.store.put_bytes", bytes);
                    itrust_obs::counter_inc!(tenant.obs(), "service.tenant.puts");
                    itrust_obs::counter_add!(tenant.obs(), "service.tenant.bytes_in", bytes);
                }
                Ok(outcome)
            }
            Err(e) => {
                tenant.release(bytes);
                Err(e)
            }
        }
    }

    /// Fetch `tenant`'s object at `key`.
    pub fn get(&self, tenant: &str, key: &str) -> Result<Bytes> {
        let t = self.tenant(tenant)?;
        // itrust-lint: allow(panic-reachable) — shard slots are selected modulo the shard count
        let shard = &self.shards[self.route(tenant, key)];
        let bytes = shard.get(tenant, key)?;
        itrust_obs::counter_inc!(self.obs, "service.store.gets");
        itrust_obs::counter_inc!(t.obs(), "service.tenant.gets");
        itrust_obs::counter_add!(t.obs(), "service.tenant.bytes_out", bytes.len() as u64);
        Ok(bytes)
    }

    /// Per-shard fixity roots, in ring order.
    pub fn fixity_roots(&self) -> Vec<Digest> {
        self.shards.iter().map(|s| s.fixity_root()).collect()
    }

    /// Sweep every shard (in parallel over `itrust-par`; each shard's sweep
    /// appends exactly one audit entry so chains stay deterministic) and
    /// verify every audit chain.
    pub fn verify_all(&self, now_ms: u64) -> Result<Vec<FixityReport>> {
        let _span = itrust_obs::span!(self.obs, "service.store.verify_all");
        itrust_par::par_map(&self.shards, |s| s.verify(now_ms)).into_iter().collect()
    }

    /// Total cataloged objects across shards.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.object_count()).sum()
    }

    /// Total payload bytes across shards.
    pub fn payload_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.payload_bytes()).sum()
    }

    /// Export the per-shard audit chains into a provenance ledger as one
    /// merged history. Entries are ordered by `(timestamp_ms, shard,
    /// seq)` — a deterministic total order that respects each chain's
    /// internal order — so the merged stream satisfies the ledger's
    /// monotone-timestamp invariant regardless of shard count or thread
    /// schedule. Pass a tenant name to export only that tenant's events
    /// (scoped-subject prefix match); `None` exports everything,
    /// including shard-level fixity sweeps. Returns the number of events
    /// appended.
    pub fn export_to_ledger(
        &self,
        ledger: &itrust_ledger::Ledger,
        tenant: Option<&str>,
    ) -> Result<u64> {
        let _span = itrust_obs::span!(self.obs, "service.store.export_to_ledger");
        let prefix = tenant.map(|t| format!("{t}/"));
        let mut merged: Vec<(u64, usize, u64, trustdb::event::LedgerEvent)> = Vec::new();
        for shard in &self.shards {
            for e in shard.audit().export() {
                if let Some(p) = &prefix {
                    if !e.subject.starts_with(p.as_str()) {
                        continue;
                    }
                }
                merged.push((e.timestamp_ms, shard.index(), e.seq, e));
            }
        }
        merged.sort_by_key(|a| (a.0, a.1, a.2));
        let n = ledger.ingest(merged.iter().map(|(_, _, _, e)| e))?;
        itrust_obs::counter_add!(self.obs, "service.store.ledger_exports", n);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_tenants(shards: usize) -> ShardedStore {
        let store = ShardedStore::in_memory(shards).unwrap();
        store.register_tenant("alpha", Quota::unlimited()).unwrap();
        store.register_tenant("beta", Quota::unlimited()).unwrap();
        store
    }

    #[test]
    fn routing_is_deterministic_and_spreads() {
        let mut hit = [0usize; 8];
        for i in 0..800 {
            let s = shard_of(8, "tenant", &format!("key-{i}"));
            assert_eq!(s, shard_of(8, "tenant", &format!("key-{i}")));
            hit[s] += 1;
        }
        for (i, n) in hit.iter().enumerate() {
            assert!(*n > 40, "shard {i} starved: {n} of 800");
        }
        // Length prefixing separates ("ab","c") routing from ("a","bc").
        let a = shard_of(1024, "ab", "c");
        let b = shard_of(1024, "a", "bc");
        assert!(a < 1024 && b < 1024);
    }

    #[test]
    fn put_get_round_trip_and_cross_tenant_isolation() {
        let store = store_with_tenants(4);
        let d = store.put("alpha", "doc-1", Bytes::from_static(b"alpha master"), 10).unwrap();
        assert_eq!(&store.get("alpha", "doc-1").unwrap()[..], b"alpha master");
        assert_eq!(d, sha256(b"alpha master"));
        // beta cannot see (or probe) alpha's key.
        assert!(matches!(store.get("beta", "doc-1"), Err(Error::NotFound(_))));
        // Unknown tenants are rejected outright.
        assert!(matches!(store.get("gamma", "doc-1"), Err(Error::NotFound(_))));
        assert!(matches!(
            store.put("gamma", "k", Bytes::from_static(b"x"), 11),
            Err(Error::NotFound(_))
        ));
    }

    #[test]
    fn same_key_same_content_dedups_and_returns_quota() {
        let store = ShardedStore::in_memory(4).unwrap();
        let t = store.register_tenant("alpha", Quota { max_objects: 10, max_bytes: 100 }).unwrap();
        store.put("alpha", "k", Bytes::from_static(b"same"), 1).unwrap();
        store.put("alpha", "k", Bytes::from_static(b"same"), 2).unwrap();
        assert_eq!(t.usage().objects, 1, "dedup must not double-charge the quota");
        assert_eq!(store.object_count(), 1);
        // Same key, different content: immutability violation.
        let err = store.put("alpha", "k", Bytes::from_static(b"other"), 3).unwrap_err();
        assert!(matches!(err, Error::InvariantViolation(_)));
        assert_eq!(t.usage().objects, 1, "failed put must hand its reservation back");
    }

    #[test]
    fn quota_rejection_charges_nothing() {
        let store = ShardedStore::in_memory(2).unwrap();
        let t = store.register_tenant("small", Quota { max_objects: 1, max_bytes: 1024 }).unwrap();
        store.put("small", "a", Bytes::from_static(b"one"), 1).unwrap();
        let err = store.put("small", "b", Bytes::from_static(b"two"), 2).unwrap_err();
        assert!(matches!(err, Error::QuotaExceeded { .. }));
        assert_eq!(t.usage().objects, 1);
        assert_eq!(store.object_count(), 1);
    }

    #[test]
    fn per_shard_chains_and_roots_track_ingest() {
        let store = store_with_tenants(4);
        let before: Vec<Digest> = store.fixity_roots();
        assert!(before.iter().all(|r| *r == Digest::zero()));
        for i in 0..40 {
            store.put("alpha", &format!("k{i}"), Bytes::from(vec![i as u8; 64]), i as u64).unwrap();
        }
        let roots = store.fixity_roots();
        assert_ne!(roots, before);
        let mut total_audit = 0;
        for shard in store.shards() {
            assert_eq!(shard.audit_len(), shard.object_count());
            shard.audit().verify_chain().unwrap();
            total_audit += shard.audit_len();
        }
        assert_eq!(total_audit, 40);
        for report in store.verify_all(100).unwrap() {
            assert!(report.is_clean());
        }
    }

    #[test]
    fn fixity_root_commits_to_names_not_just_content() {
        // Same payload under two different keys on the same shard must
        // change the root: the root covers the namespace mapping.
        let store = ShardedStore::in_memory(1).unwrap();
        store.register_tenant("alpha", Quota::unlimited()).unwrap();
        store.put("alpha", "k1", Bytes::from_static(b"payload"), 1).unwrap();
        let r1 = store.fixity_roots()[0];
        store.put("alpha", "k2", Bytes::from_static(b"payload"), 2).unwrap();
        let r2 = store.fixity_roots()[0];
        assert_ne!(r1, r2);
    }

    #[test]
    fn wal_replay_recovers_catalog_and_store() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("itrust-service-walrec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ShardedConfig::durable(3, &dir, SyncPolicy::Never);
        let digests: Vec<Digest>;
        {
            let store = ShardedStore::open(&config, ObsCtx::null()).unwrap();
            store.register_tenant("alpha", Quota::unlimited()).unwrap();
            digests = (0..12)
                .map(|i| {
                    store
                        .put("alpha", &format!("k{i}"), Bytes::from(vec![i as u8 ^ 0x5A; 100]), i)
                        .unwrap()
                })
                .collect();
        }
        // "Crash" and reopen: catalog and payloads come back from the WALs.
        let store = ShardedStore::open(&config, ObsCtx::null()).unwrap();
        store.register_tenant("alpha", Quota::unlimited()).unwrap();
        assert_eq!(store.object_count(), 12);
        for (i, d) in digests.iter().enumerate() {
            let bytes = store.get("alpha", &format!("k{i}")).unwrap();
            assert_eq!(sha256(&bytes), *d);
        }
        assert!(store.shards().iter().any(|s| s.wal_frames() > 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_rejects_a_payload_its_digest_does_not_name() {
        // Frames with valid CRCs whose payloads differ from their recorded
        // digests, in shards 1 and 3: an integrity incident at any thread
        // count, reported for the lowest shard, with every log untouched.
        let mut dir = std::env::temp_dir();
        dir.push(format!("itrust-service-forged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ShardedConfig::durable(4, &dir, SyncPolicy::Never);
        {
            let store = ShardedStore::open(&config, ObsCtx::null()).unwrap();
            store.register_tenant("alpha", Quota::unlimited()).unwrap();
            for i in 0..16u8 {
                store.put("alpha", &format!("k{i}"), Bytes::from(vec![i; 50]), 0).unwrap();
            }
        }
        for (shard, claimed) in [(3, b"three".as_slice()), (1, b"one")] {
            let wal = Wal::open(dir.join(format!("shard-{shard}.wal")), SyncPolicy::Never).unwrap();
            wal.append(&encode_frame("alpha", "forged", &sha256(claimed), b"forged")).unwrap();
        }
        let logs = || -> Vec<Vec<u8>> {
            (0..4).map(|i| std::fs::read(dir.join(format!("shard-{i}.wal"))).unwrap()).collect()
        };
        let before = logs();
        for threads in [1, 2, 4] {
            let opened = itrust_par::with_threads(threads, || {
                ShardedStore::open(&config, ObsCtx::null()).map(|_| ())
            });
            match opened {
                Err(Error::DigestMismatch { expected, actual }) => {
                    assert_eq!(expected, sha256(b"one").to_hex(), "threads={threads}");
                    assert_eq!(actual, sha256(b"forged").to_hex(), "threads={threads}");
                }
                other => panic!("threads={threads}: expected DigestMismatch, got {other:?}"),
            }
        }
        assert_eq!(logs(), before, "a failed replay must leave every log as it was");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn racing_puts_of_one_key_admit_exactly_one() {
        // Two writers put the same keys with their own bytes. Records are
        // immutable, so exactly one put per key may succeed, the audit
        // chain holds one ingest per object, and a reopen serves the bytes
        // and fixity root the live store served.
        const KEYS: usize = 2_000;
        let mut dir = std::env::temp_dir();
        dir.push(format!("itrust-service-putrace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ShardedConfig::durable(1, &dir, SyncPolicy::Never);
        let payload = |writer: usize, i: usize| Bytes::from(format!("writer {writer} key {i}"));
        let (live, live_roots) = {
            let store = ShardedStore::open(&config, ObsCtx::null()).unwrap();
            store.register_tenant("alpha", Quota::unlimited()).unwrap();
            let barrier = std::sync::Barrier::new(2);
            let wins: Vec<Vec<bool>> = std::thread::scope(|s| {
                let writers: Vec<_> = (0..2)
                    .map(|writer| {
                        let (store, barrier) = (&store, &barrier);
                        s.spawn(move || {
                            barrier.wait();
                            (0..KEYS)
                                .map(|i| {
                                    let key = format!("k{i}");
                                    store.put("alpha", &key, payload(writer, i), 0).is_ok()
                                })
                                .collect()
                        })
                    })
                    .collect();
                writers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            for (i, (a, b)) in wins[0].iter().zip(&wins[1]).enumerate() {
                assert!(a ^ b, "key k{i}: exactly one put may succeed");
            }
            assert_eq!(store.object_count(), KEYS);
            assert_eq!(store.shards()[0].audit_len(), store.object_count());
            let live: Vec<Bytes> =
                (0..KEYS).map(|i| store.get("alpha", &format!("k{i}")).unwrap()).collect();
            (live, store.fixity_roots())
        };
        let store = ShardedStore::open(&config, ObsCtx::null()).unwrap();
        store.register_tenant("alpha", Quota::unlimited()).unwrap();
        for (i, bytes) in live.iter().enumerate() {
            assert_eq!(&store.get("alpha", &format!("k{i}")).unwrap(), bytes, "key k{i}");
        }
        assert_eq!(store.fixity_roots(), live_roots);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frame_codec_round_trips_and_rejects_truncation() {
        let d = sha256(b"payload");
        let frame = encode_frame("tenant-x", "key/17", &d, b"payload");
        let decoded = decode_frame(&frame).unwrap();
        assert_eq!(decoded, ("tenant-x", "key/17", d, b"payload".as_slice()));
        for cut in [0, 3, 10, frame.len() - 40] {
            assert!(matches!(decode_frame(&frame[..cut]), Err(Error::Codec(_))));
        }
    }

    #[test]
    fn duplicate_tenant_registration_rejected() {
        let store = ShardedStore::in_memory(2).unwrap();
        store.register_tenant("alpha", Quota::unlimited()).unwrap();
        assert!(matches!(
            store.register_tenant("alpha", Quota::unlimited()),
            Err(Error::InvariantViolation(_))
        ));
        assert_eq!(store.tenants().len(), 1);
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(matches!(
            ShardedStore::open(&ShardedConfig::in_memory(0), ObsCtx::null()),
            Err(Error::InvariantViolation(_))
        ));
    }

    #[test]
    fn export_to_ledger_merges_shards_deterministically() {
        use itrust_ledger::{Keyring, Ledger, SecretKey};

        let ring = Keyring::new().with("svc", SecretKey::derive("svc"));
        let store = store_with_tenants(4);
        for i in 0..12u64 {
            let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
            store
                .put(tenant, &format!("doc-{i}"), Bytes::from(format!("payload {i}")), 10 + i)
                .unwrap();
        }
        store.verify_all(100).unwrap();

        // Tenant-scoped export: only alpha's ingests, in timestamp order.
        let alpha = Ledger::new("alpha", "svc", ring.clone());
        let n = store.export_to_ledger(&alpha, Some("alpha")).unwrap();
        assert_eq!(n, 6);
        assert_eq!(alpha.len(), 6);
        let events: Vec<_> = (0..6).map(|s| alpha.event(s).unwrap()).collect();
        assert!(events.iter().all(|e| e.subject.starts_with("alpha/")));
        assert!(events.windows(2).all(|w| w[0].timestamp_ms <= w[1].timestamp_ms));
        alpha.verify().unwrap();

        // Full export also carries the per-shard fixity sweeps and is
        // identical across runs (same merge order).
        let all_a = Ledger::new("svc", "svc", ring.clone());
        let all_b = Ledger::new("svc", "svc", ring);
        assert_eq!(
            store.export_to_ledger(&all_a, None).unwrap(),
            store.export_to_ledger(&all_b, None).unwrap()
        );
        assert_eq!(all_a.head(), all_b.head());
        assert_eq!(all_a.len(), 12 + 4, "12 ingests + one sweep per shard");
        all_a.checkpoint(200).unwrap();
        all_a.prove(0).unwrap().verify("svc", all_a.keyring(), 0).unwrap();
    }
}
