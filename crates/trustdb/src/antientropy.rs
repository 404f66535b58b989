//! Decentralized anti-entropy and delay-tolerant ingest.
//!
//! `replica::ReplicatedBackend` heals on read and via the centrally driven
//! `fixity::FixityAuditor::sweep_and_repair`, both of which assume every
//! replica is reachable. Real archives partition: links drop, sites go
//! offline for days, replicas flap. This module adds the two mechanisms
//! that keep "trusted data forever" credible under that threat model:
//!
//! * **Gossip anti-entropy** ([`AntiEntropy`]): each replica summarizes its
//!   object set as a fixed-shape merkle tree over 256 digest-prefix buckets
//!   ([`SetSummary`]). Pairwise sweeps compare summaries top-down
//!   ([`crate::merkle::MerkleTree::diff_leaves`]), pruning identical
//!   subtrees, so two mostly-converged replicas locate their divergent
//!   buckets in O(d · log n) node comparisons instead of a full scan. Every
//!   transferred copy is recorded through the audit chain as an
//!   [`EventKind::Repair`] entry, keeping custody tamper-evident.
//! * **Delay-tolerant ingest** ([`DelayTolerantIngest`]): a
//!   [`PartitionedBackend`] wrapper severs a replica's link on a schedule
//!   driven by [`FaultPlan::net_events`] and the injected [`Clock`]. Writes
//!   that cannot reach quorum during a partition land in a per-replica
//!   durable intent log (a [`Wal`]) and are reconciled deterministically on
//!   heal: epoch-ordered, digest-keyed, with a seeded tie-break — so the
//!   same storm replayed at 1 or 4 threads converges to byte-identical
//!   stores and audit chains.
//!
//! **Scope note:** anti-entropy reconciles *membership* (which digests a
//! replica holds); corrupt bytes under a correct digest are repaired by
//! `sweep_and_repair`. Like `ReplicatedBackend::delete_raw`, there are no
//! tombstones: an object deleted on only some replicas while others are
//! unreachable is resurrected by the next sweep, so disposition must be
//! retried until fully clean.

use crate::audit::AuditLog;
use crate::event::EventKind;
use crate::errors::{Error, Result};
use crate::fault::{FaultPlan, NetEvent};
use crate::hash::{sha256, Digest, Sha256};
use crate::merkle::MerkleTree;
use crate::replica::{Clock, ReplicatedBackend, SelfHealing};
use crate::store::{Backend, ObjectStore};
use crate::wal::{SyncPolicy, Wal};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{BTreeSet, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// PartitionedBackend
// ---------------------------------------------------------------------------

/// A [`Backend`] decorator that models a replica's *network link*.
///
/// While the link is severed, quorum-path operations fail with
/// [`Error::Partitioned`] and the replica is invisible to `contains`/`list`
/// — but the wrapped backend itself stays healthy and writable through
/// [`PartitionedBackend::local`], which is what a co-located delay-tolerant
/// writer uses. Connectivity changes on a deterministic schedule
/// ([`FaultPlan::net_events`], keyed by the injected [`Clock`]) or manually
/// via [`PartitionedBackend::sever`] / [`PartitionedBackend::rejoin`].
///
/// Each transition bumps a per-replica **epoch** counter; intents recorded
/// during a partition are tagged with the epoch, which orders them during
/// reconciliation.
pub struct PartitionedBackend<B: Backend> {
    inner: B,
    replica_id: usize,
    clock: Arc<dyn Clock>,
    severed: AtomicBool,
    /// Set by a [`NetEvent::Flap`]: the next gated op fails once.
    flap_pending: AtomicBool,
    epoch: AtomicU64,
    schedule: Mutex<VecDeque<(u64, NetEvent)>>,
    obs: itrust_obs::ObsCtx,
}

impl<B: Backend> PartitionedBackend<B> {
    /// Wrap `inner` as replica `replica_id` with a connected link and an
    /// empty schedule.
    pub fn new(inner: B, replica_id: usize, clock: Arc<dyn Clock>) -> Self {
        PartitionedBackend {
            inner,
            replica_id,
            clock,
            severed: AtomicBool::new(false),
            flap_pending: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            schedule: Mutex::new(VecDeque::new()),
            obs: itrust_obs::ObsCtx::null(),
        }
    }

    /// Adopt the connectivity schedule of `plan` (its
    /// [`FaultPlan::net_events`], already sorted by timestamp).
    pub fn with_plan(self, plan: &FaultPlan) -> Self {
        self.with_schedule(&plan.net_events)
    }

    /// Adopt an explicit `(at_ms, event)` schedule (sorted by the caller).
    pub fn with_schedule(self, events: &[(u64, NetEvent)]) -> Self {
        *self.schedule.lock() = events.iter().copied().collect();
        self
    }

    /// Attach a telemetry context for partition/epoch counters.
    pub fn with_obs(mut self, obs: itrust_obs::ObsCtx) -> Self {
        self.obs = obs;
        self
    }

    /// The wrapped backend, reachable regardless of link state. This is the
    /// replica's *local* surface: a writer co-located with the replica (the
    /// delay-tolerant ingest path) keeps working through a partition.
    pub fn local(&self) -> &B {
        &self.inner
    }

    /// Which replica slot this link belongs to.
    pub fn replica_id(&self) -> usize {
        self.replica_id
    }

    /// Whether the link is currently severed (after applying due events).
    pub fn is_severed(&self) -> bool {
        self.poll();
        self.severed.load(Ordering::Relaxed)
    }

    /// Current epoch (transitions seen so far).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Manually sever the link (no-op if already severed).
    pub fn sever(&self) {
        if !self.severed.swap(true, Ordering::Relaxed) {
            self.epoch.fetch_add(1, Ordering::Relaxed);
            itrust_obs::counter_inc!(self.obs, "trustdb.antientropy.partitions");
        }
    }

    /// Manually restore the link (no-op if already connected).
    pub fn rejoin(&self) {
        if self.severed.swap(false, Ordering::Relaxed) {
            self.epoch.fetch_add(1, Ordering::Relaxed);
            itrust_obs::counter_inc!(self.obs, "trustdb.antientropy.rejoins");
        }
    }

    /// Apply every scheduled event whose timestamp has been reached on the
    /// injected clock. Called implicitly by every gated operation; call it
    /// explicitly to advance link state without issuing an op.
    pub fn poll(&self) {
        let now = self.clock.now_ms();
        // Fast path: nothing due. The lock is uncontended in the common case
        // but keeps event application atomic under concurrent ops.
        let mut schedule = self.schedule.lock();
        while let Some(&(at_ms, event)) = schedule.front() {
            if at_ms > now {
                break;
            }
            schedule.pop_front();
            match event {
                NetEvent::Partition => self.sever(),
                NetEvent::Rejoin => self.rejoin(),
                NetEvent::Flap => {
                    // Down and straight back up: two transitions, and the
                    // next op through the link lands exactly in the gap.
                    self.epoch.fetch_add(2, Ordering::Relaxed);
                    self.flap_pending.store(true, Ordering::Relaxed);
                    itrust_obs::counter_inc!(self.obs, "trustdb.antientropy.flaps");
                }
            }
        }
    }

    /// Run a request/response exchange with the replica over its link:
    /// fails with [`Error::Partitioned`] while the link is severed (or a
    /// flap is pending), otherwise runs `op` against the replica. This is
    /// the primitive non-storage protocols ride on — the provenance
    /// ledger's witness countersignature collection uses it so checkpoint
    /// anchoring sees exactly the same partition schedule as the data
    /// plane.
    pub fn exchange<T>(&self, op: impl FnOnce() -> T) -> Result<T> {
        self.gate()?;
        Ok(op())
    }

    /// Fail the op if the link is severed or a flap is pending.
    fn gate(&self) -> Result<()> {
        self.poll();
        if self.flap_pending.swap(false, Ordering::Relaxed)
            || self.severed.load(Ordering::Relaxed)
        {
            itrust_obs::counter_inc!(self.obs, "trustdb.antientropy.severed_ops");
            return Err(Error::Partitioned { replica: self.replica_id });
        }
        Ok(())
    }
}

impl<B: Backend> Backend for PartitionedBackend<B> {
    fn put_raw(&self, digest: &Digest, bytes: Bytes) -> Result<()> {
        self.gate()?;
        self.inner.put_raw(digest, bytes)
    }

    fn get_raw(&self, digest: &Digest) -> Result<Bytes> {
        self.gate()?;
        self.inner.get_raw(digest)
    }

    fn contains(&self, digest: &Digest) -> bool {
        !self.is_severed() && self.inner.contains(digest)
    }

    fn delete_raw(&self, digest: &Digest) -> Result<bool> {
        self.gate()?;
        self.inner.delete_raw(digest)
    }

    fn list(&self) -> Vec<Digest> {
        if self.is_severed() {
            return Vec::new();
        }
        self.inner.list()
    }

    fn object_count(&self) -> usize {
        if self.is_severed() {
            return 0;
        }
        self.inner.object_count()
    }

    fn payload_bytes(&self) -> u64 {
        if self.is_severed() {
            return 0;
        }
        self.inner.payload_bytes()
    }
}

// ---------------------------------------------------------------------------
// Intent log
// ---------------------------------------------------------------------------

/// One write accepted during a partition, waiting to be reconciled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentRecord {
    /// Link epoch at the time the intent was accepted.
    pub epoch: u64,
    /// Per-log append sequence (orders intents within one replica's log).
    pub seq: u64,
    /// Content address of the payload.
    pub digest: Digest,
    /// The payload itself (store-and-forward: the bytes travel with the
    /// intent so reconciliation needs nothing from the severed quorum).
    pub bytes: Vec<u8>,
}

impl IntentRecord {
    /// `[epoch u64][seq u64][digest 32][len u32][bytes]`, little-endian.
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + 8 + 32 + 4 + self.bytes.len());
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.digest.0);
        buf.extend_from_slice(&(self.bytes.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.bytes);
        buf
    }

    fn decode(frame: &[u8]) -> Result<Self> {
        if frame.len() < 52 {
            return Err(Error::Codec(format!(
                "intent frame too short: {} bytes, need at least 52",
                frame.len()
            )));
        }
        let fixed = |r: std::ops::Range<usize>| -> [u8; 8] {
            // itrust-lint: allow(panic-reachable) — 8-byte slices of a length-checked frame always convert
            frame[r].try_into().unwrap()
        };
        let epoch = u64::from_le_bytes(fixed(0..8));
        let seq = u64::from_le_bytes(fixed(8..16));
        let mut digest = Digest::zero();
        digest.0.copy_from_slice(&frame[16..48]);
        // itrust-lint: allow(panic-reachable) — 4-byte slice of a length-checked frame always converts
        let len = u32::from_le_bytes(frame[48..52].try_into().unwrap()) as usize;
        if frame.len() != 52 + len {
            return Err(Error::Codec(format!(
                "intent frame length mismatch: header says {len} payload bytes, frame has {}",
                frame.len() - 52
            )));
        }
        Ok(IntentRecord { epoch, seq, digest, bytes: frame[52..].to_vec() })
    }
}

/// A per-replica durable queue of writes accepted during partitions.
///
/// Backed by a [`Wal`] under [`SyncPolicy::GroupCommit`], so intents survive
/// a crash of the severed site and a torn tail truncates cleanly.
pub struct IntentLog {
    wal: Wal,
    seq: AtomicU64,
}

impl IntentLog {
    /// Open (or create) the intent log at `path`, resuming the sequence
    /// counter after any frames already on disk.
    pub fn open(path: impl AsRef<Path>, obs: itrust_obs::ObsCtx) -> Result<Self> {
        let wal = Wal::open(path, SyncPolicy::GroupCommit)?.with_obs(obs);
        let seq = wal.frame_count();
        Ok(IntentLog { wal, seq: AtomicU64::new(seq) })
    }

    /// Durably record one deferred write. Returns the intent's sequence.
    pub fn append(&self, epoch: u64, digest: &Digest, bytes: &[u8]) -> Result<u64> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let record =
            IntentRecord { epoch, seq, digest: *digest, bytes: bytes.to_vec() };
        self.wal.append(&record.encode())?;
        Ok(seq)
    }

    /// Decode every intent currently on disk, in append order.
    pub fn pending(&self) -> Result<Vec<IntentRecord>> {
        let replay = self.wal.replay()?;
        replay.frames.iter().map(|f| IntentRecord::decode(f)).collect()
    }

    /// Number of intents on disk.
    pub fn len(&self) -> u64 {
        self.wal.frame_count()
    }

    /// Whether the log holds no intents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every intent (call only after all of them reconciled).
    pub fn clear(&self) -> Result<()> {
        self.wal.reset()
    }
}

// ---------------------------------------------------------------------------
// Delay-tolerant ingest
// ---------------------------------------------------------------------------

/// How a [`DelayTolerantIngest::put`] was accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The write reached its replica quorum normally.
    Quorum {
        /// Content address of the stored object.
        digest: Digest,
    },
    /// Quorum was unreachable; the write landed in `replica`'s durable
    /// intent log (and its local store) for later reconciliation.
    Deferred {
        /// Content address of the deferred object.
        digest: Digest,
        /// Replica whose intent log accepted the write.
        replica: usize,
        /// Link epoch the intent was tagged with.
        epoch: u64,
    },
}

impl IngestOutcome {
    /// Content address of the accepted object either way.
    pub fn digest(&self) -> Digest {
        match self {
            IngestOutcome::Quorum { digest } | IngestOutcome::Deferred { digest, .. } => {
                *digest
            }
        }
    }
}

/// Outcome of one [`DelayTolerantIngest::reconcile`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Intents replayed into the quorum store.
    pub applied: usize,
    /// Intents skipped because an earlier-ordered intent carried the same
    /// digest (content-addressed writes are idempotent).
    pub duplicates: usize,
    /// Intents whose payload no longer hashed to its digest (rot inside the
    /// intent log); skipped and counted, never written.
    pub corrupt: usize,
    /// Intents whose quorum write still failed; they remain logged for the
    /// next pass.
    pub failed: usize,
}

/// Store-and-forward front end over an [`ObjectStore<ReplicatedBackend>`].
///
/// A put first tries the normal quorum path. If quorum is unreachable (for
/// instance because [`PartitionedBackend`] links are severed), the write is
/// *accepted anyway*: the payload lands durably in the first replica intent
/// log that takes it, plus best-effort in that replica's local store. On
/// heal, [`DelayTolerantIngest::reconcile`] replays all pending intents in a
/// deterministic global order — `(epoch, digest, seeded tie-break, replica,
/// seq)` — so reconciliation produces identical stores and audit chains
/// regardless of thread count or which replica logged what first.
pub struct DelayTolerantIngest<'a, B: Backend> {
    store: &'a ObjectStore<ReplicatedBackend>,
    links: Vec<(Arc<PartitionedBackend<B>>, IntentLog)>,
    seed: u64,
    accepted_quorum: AtomicU64,
    accepted_deferred: AtomicU64,
    rejected: AtomicU64,
}

impl<'a, B: Backend> DelayTolerantIngest<'a, B> {
    /// Wrap `store`, whose replicas must be exactly the [`PartitionedBackend`]s
    /// in `links` (same order); each link pairs with its durable intent log.
    /// `seed` drives the reconciliation tie-break.
    pub fn new(
        store: &'a ObjectStore<ReplicatedBackend>,
        links: Vec<(Arc<PartitionedBackend<B>>, IntentLog)>,
        seed: u64,
    ) -> Self {
        DelayTolerantIngest {
            store,
            links,
            seed,
            accepted_quorum: AtomicU64::new(0),
            accepted_deferred: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Ingest `bytes`: quorum if possible, deferred if not. Errors only when
    /// the quorum path failed *and* no replica could log the intent.
    pub fn put(&self, bytes: impl Into<Bytes>) -> Result<IngestOutcome> {
        let obs = self.store.obs();
        let _span = itrust_obs::span!(obs, "trustdb.antientropy.dtn_put");
        let bytes = bytes.into();
        let digest = sha256(&bytes);
        match self.store.backend().put_raw(&digest, bytes.clone()) {
            Ok(()) => {
                self.accepted_quorum.fetch_add(1, Ordering::Relaxed);
                itrust_obs::counter_inc!(obs, "trustdb.antientropy.dtn_quorum_puts");
                Ok(IngestOutcome::Quorum { digest })
            }
            Err(quorum_err) => self.defer(&digest, &bytes, quorum_err),
        }
    }

    fn defer(&self, digest: &Digest, bytes: &Bytes, quorum_err: Error) -> Result<IngestOutcome> {
        let obs = self.store.obs();
        for (link, intents) in &self.links {
            link.poll();
            let epoch = link.epoch();
            if intents.append(epoch, digest, bytes).is_err() {
                continue;
            }
            // Best-effort local landing so the severed site can serve its
            // own reads; the durable copy of record is the intent frame.
            let _ = link.local().put_raw(digest, bytes.clone());
            self.accepted_deferred.fetch_add(1, Ordering::Relaxed);
            itrust_obs::counter_inc!(obs, "trustdb.antientropy.dtn_deferred_puts");
            return Ok(IngestOutcome::Deferred { digest: *digest, replica: link.replica_id(), epoch });
        }
        self.rejected.fetch_add(1, Ordering::Relaxed);
        itrust_obs::counter_inc!(obs, "trustdb.antientropy.dtn_rejected_puts");
        Err(quorum_err)
    }

    /// Writes accepted so far (quorum + deferred).
    pub fn accepted(&self) -> u64 {
        self.accepted_quorum.load(Ordering::Relaxed)
            + self.accepted_deferred.load(Ordering::Relaxed)
    }

    /// Writes accepted on the deferred path.
    pub fn deferred(&self) -> u64 {
        self.accepted_deferred.load(Ordering::Relaxed)
    }

    /// Writes rejected outright (no quorum *and* no loggable intent).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Fraction of attempted writes accepted (1.0 before any write).
    pub fn availability(&self) -> f64 {
        let accepted = self.accepted();
        let total = accepted + self.rejected.load(Ordering::Relaxed);
        if total == 0 {
            1.0
        } else {
            accepted as f64 / total as f64
        }
    }

    /// Total intents currently pending across all replica logs.
    pub fn pending_total(&self) -> u64 {
        self.links.iter().map(|(_, l)| l.len()).sum()
    }

    /// Replay every pending intent into the quorum store in deterministic
    /// global order, recording one [`EventKind::Ingest`] entry per applied
    /// intent. Logs are cleared only when every intent either applied, was a
    /// duplicate, or was corrupt — a failed quorum write keeps all logs
    /// intact so the next pass retries (replays are idempotent: writes are
    /// content-addressed).
    pub fn reconcile(
        &self,
        audit: &AuditLog,
        actor: &str,
        timestamp_ms: u64,
    ) -> Result<ReconcileReport> {
        let obs = self.store.obs();
        let _span = itrust_obs::span!(obs, "trustdb.antientropy.reconcile");
        let mut pending: Vec<(usize, IntentRecord)> = Vec::new();
        for (link, intents) in &self.links {
            for record in intents.pending()? {
                pending.push((link.replica_id(), record));
            }
        }
        // The deterministic merge order: epochs first (older partitions
        // reconcile before newer ones), then digest, then the seeded
        // tie-break so ties between replicas resolve identically for every
        // run with the same seed, independent of log-drain order.
        pending.sort_by_key(|(replica, r)| {
            (r.epoch, r.digest, tie_break(self.seed, &r.digest, *replica), *replica, r.seq)
        });

        let mut report = ReconcileReport::default();
        let mut applied_digests: BTreeSet<Digest> = BTreeSet::new();
        for (replica, record) in &pending {
            if applied_digests.contains(&record.digest) {
                report.duplicates += 1;
                continue;
            }
            if sha256(&record.bytes) != record.digest {
                report.corrupt += 1;
                itrust_obs::counter_inc!(obs, "trustdb.antientropy.corrupt_intents");
                continue;
            }
            match self
                .store
                .backend()
                .put_raw(&record.digest, Bytes::from(record.bytes.clone()))
            {
                Ok(()) => {
                    applied_digests.insert(record.digest);
                    report.applied += 1;
                    audit.append(
                        timestamp_ms,
                        actor,
                        EventKind::Ingest,
                        record.digest.to_hex(),
                        format!(
                            "deferred intent reconciled from replica {replica} (epoch {})",
                            record.epoch
                        ),
                    )?;
                }
                Err(_) => report.failed += 1,
            }
        }
        itrust_obs::counter_add!(
            obs,
            "trustdb.antientropy.intents_applied",
            report.applied as u64
        );
        if report.failed == 0 {
            for (_, intents) in &self.links {
                intents.clear()?;
            }
        }
        Ok(report)
    }
}

/// Seeded tie-break for reconciliation ordering: the first 8 bytes of
/// `sha256(seed ‖ digest ‖ replica)`. Deterministic per seed, uncorrelated
/// with replica index, so no replica systematically wins ties.
fn tie_break(seed: u64, digest: &Digest, replica: usize) -> u64 {
    let mut h = Sha256::new();
    h.update(&seed.to_le_bytes());
    h.update(&digest.0);
    h.update(&(replica as u64).to_le_bytes());
    let d = h.finalize();
    // itrust-lint: allow(panic-reachable) — an 8-byte slice of a 32-byte digest always converts
    u64::from_le_bytes(d.0[..8].try_into().unwrap())
}

// ---------------------------------------------------------------------------
// Set summaries and gossip anti-entropy
// ---------------------------------------------------------------------------

/// Number of digest-prefix buckets a [`SetSummary`] partitions a replica's
/// holdings into (one per value of the first digest byte). Fixing the leaf
/// universe gives every summary the same tree shape, so summaries of
/// different replicas are always diffable.
pub const SUMMARY_BUCKETS: usize = 256;

/// A merkle summary of one replica's object set.
///
/// Holdings are partitioned by their first digest byte into
/// [`SUMMARY_BUCKETS`] sorted buckets; each bucket hashes (count-prefixed)
/// to a leaf, and the 256 leaves build a fixed-shape [`MerkleTree`]. Two
/// replicas hold identical object sets iff their summary roots are equal.
pub struct SetSummary {
    tree: MerkleTree,
    buckets: Vec<Vec<Digest>>,
}

impl SetSummary {
    /// Summarize the current holdings of `backend`.
    pub fn of_backend(backend: &dyn Backend) -> Self {
        let mut buckets: Vec<Vec<Digest>> = vec![Vec::new(); SUMMARY_BUCKETS];
        // `Backend::list` returns sorted digests, so each bucket stays
        // sorted and the summary is a pure function of the object set.
        for d in backend.list() {
            // itrust-lint: allow(panic-reachable) — pair indices are generated below the replica count by the scheduler
            buckets[d.0[0] as usize].push(d);
        }
        let leaves: Vec<Digest> = buckets
            .iter()
            .map(|bucket| {
                let mut h = Sha256::new();
                h.update(&[0x00]); // leaf domain, as sha256_leaf does
                h.update(&(bucket.len() as u64).to_le_bytes());
                for d in bucket {
                    h.update(&d.0);
                }
                h.finalize()
            })
            .collect();
        // itrust-lint: allow(panic-reachable) — the leaf set has exactly SUMMARY_BUCKETS entries, never zero
        let tree = MerkleTree::from_leaf_digests(leaves, &itrust_obs::ObsCtx::null()).unwrap();
        SetSummary { tree, buckets }
    }

    /// Root committing to the whole object set.
    pub fn root(&self) -> Digest {
        self.tree.root()
    }

    /// The sorted digests in bucket `i`.
    pub fn bucket(&self, i: usize) -> &[Digest] {
        // itrust-lint: allow(panic-reachable) — pair indices are generated below the replica count by the scheduler
        &self.buckets[i]
    }

    /// Diff against another summary: `(divergent bucket indices, node
    /// comparisons performed)`.
    pub fn diff(&self, other: &SetSummary) -> Result<(Vec<usize>, usize)> {
        self.tree.diff_leaves(&other.tree)
    }
}

/// What one pairwise sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairOutcome {
    /// Merkle node comparisons spent locating divergent buckets.
    pub comparisons: usize,
    /// Copies transferred (in either direction).
    pub transferred: usize,
    /// Transfers that failed to write (e.g. the receiving link severed
    /// again); retried on a later round.
    pub failed: usize,
    /// Objects neither the pair nor any other replica could supply verified
    /// bytes for.
    pub unrecoverable: usize,
}

/// Outcome of an anti-entropy run ([`AntiEntropy::run`]).
#[derive(Debug, Clone)]
pub struct GossipReport {
    /// Gossip rounds executed.
    pub rounds: usize,
    /// Whether every replica ended on the same summary root.
    pub converged: bool,
    /// Total merkle node comparisons across all pairwise sweeps.
    pub comparisons: usize,
    /// Total copies transferred.
    pub transferred: usize,
    /// Transfers that failed to write.
    pub failed: usize,
    /// Objects with no verified source anywhere.
    pub unrecoverable: usize,
    /// Final summary root per replica.
    pub roots: Vec<Digest>,
}

/// Pairwise merkle-diff anti-entropy over the replicas of a
/// [`ReplicatedBackend`].
///
/// Each round sweeps a ring of replica pairs; each sweep diffs the pair's
/// [`SetSummary`] trees, walks only the divergent buckets, and copies the
/// missing objects in both directions, reading through verified sources
/// ([`SelfHealing::fetch_verified`] as fallback). Every transferred copy is
/// logged as an [`EventKind::Repair`] entry, and each run closes with a
/// `FixityCheck` summary entry — so convergence itself is part of the
/// tamper-evident history.
pub struct AntiEntropy<'a> {
    store: &'a ObjectStore<ReplicatedBackend>,
    audit: &'a AuditLog,
    actor: String,
}

impl<'a> AntiEntropy<'a> {
    /// Create an engine acting as `actor` (recorded in audit entries).
    pub fn new(
        store: &'a ObjectStore<ReplicatedBackend>,
        audit: &'a AuditLog,
        actor: impl Into<String>,
    ) -> Self {
        AntiEntropy { store, audit, actor: actor.into() }
    }

    /// Summary roots of every replica right now.
    pub fn roots(&self) -> Vec<Digest> {
        let backend = self.store.backend();
        (0..backend.replica_count())
            .map(|i| SetSummary::of_backend(backend.replica(i).as_ref()).root())
            .collect()
    }

    /// Whether every replica currently summarizes to the same root.
    pub fn converged(&self) -> bool {
        let roots = self.roots();
        // itrust-lint: allow(panic-reachable) — pair indices are generated below the replica count by the scheduler
        roots.windows(2).all(|w| w[0] == w[1])
    }

    /// One pairwise sweep between replicas `a` and `b`: locate divergent
    /// buckets via merkle diff, then copy missing objects both ways.
    pub fn sync_pair(&self, a: usize, b: usize, timestamp_ms: u64) -> Result<PairOutcome> {
        let obs = self.store.obs();
        let _span = itrust_obs::span!(obs, "trustdb.antientropy.sync_pair");
        let backend = self.store.backend();
        let sa = SetSummary::of_backend(backend.replica(a).as_ref());
        let sb = SetSummary::of_backend(backend.replica(b).as_ref());
        let (divergent, comparisons) = sa.diff(&sb)?;
        itrust_obs::hist_record!(
            obs,
            "trustdb.antientropy.pair_comparisons",
            comparisons as u64
        );
        let mut outcome = PairOutcome { comparisons, ..PairOutcome::default() };
        for bucket in divergent {
            // Both bucket lists are sorted: a linear merge yields each
            // side's missing digests.
            let (left, right) = (sa.bucket(bucket), sb.bucket(bucket));
            let (mut i, mut j) = (0usize, 0usize);
            while i < left.len() || j < right.len() {
                match (left.get(i), right.get(j)) {
                    (Some(x), Some(y)) if x == y => {
                        i += 1;
                        j += 1;
                    }
                    (Some(x), Some(y)) => {
                        if x < y {
                            self.transfer(a, b, x, timestamp_ms, &mut outcome)?;
                            i += 1;
                        } else {
                            self.transfer(b, a, y, timestamp_ms, &mut outcome)?;
                            j += 1;
                        }
                    }
                    (Some(x), None) => {
                        self.transfer(a, b, x, timestamp_ms, &mut outcome)?;
                        i += 1;
                    }
                    (None, Some(y)) => {
                        self.transfer(b, a, y, timestamp_ms, &mut outcome)?;
                        j += 1;
                    }
                    (None, None) => break,
                }
            }
        }
        Ok(outcome)
    }

    /// Copy `digest` from replica `from` to replica `to`, verifying the
    /// bytes before they travel and auditing the repair.
    fn transfer(
        &self,
        from: usize,
        to: usize,
        digest: &Digest,
        timestamp_ms: u64,
        outcome: &mut PairOutcome,
    ) -> Result<()> {
        let obs = self.store.obs();
        let backend = self.store.backend();
        // Prefer the pair peer; if its copy is unreadable or rotten, any
        // verified copy in the cluster will do.
        let bytes = match backend.replica(from).get_raw(digest) {
            Ok(b) if sha256(&b) == *digest => b,
            _ => match backend.fetch_verified(digest) {
                Ok(b) => b,
                Err(_) => {
                    outcome.unrecoverable += 1;
                    itrust_obs::counter_inc!(obs, "trustdb.antientropy.unrecoverable");
                    return Ok(());
                }
            },
        };
        match backend.replica(to).put_raw(digest, bytes) {
            Ok(()) => {
                outcome.transferred += 1;
                itrust_obs::counter_inc!(obs, "trustdb.antientropy.transfers");
                self.audit.append(
                    timestamp_ms,
                    self.actor.clone(),
                    EventKind::Repair,
                    digest.to_hex(),
                    format!("anti-entropy: copied to replica {to} from replica {from}"),
                )?;
            }
            Err(_) => {
                outcome.failed += 1;
                itrust_obs::counter_inc!(obs, "trustdb.antientropy.transfer_failures");
            }
        }
        Ok(())
    }

    /// One gossip round over the replica ring: pairs `(0,1), (1,2), …,
    /// (n-2,n-1)` plus the wrap-around `(n-1,0)` when `n > 2`.
    pub fn gossip_round(&self, timestamp_ms: u64) -> Result<PairOutcome> {
        let n = self.store.backend().replica_count();
        let mut total = PairOutcome::default();
        let mut pairs: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        if n > 2 {
            pairs.push((n - 1, 0));
        }
        for (a, b) in pairs {
            let o = self.sync_pair(a, b, timestamp_ms)?;
            total.comparisons += o.comparisons;
            total.transferred += o.transferred;
            total.failed += o.failed;
            total.unrecoverable += o.unrecoverable;
        }
        Ok(total)
    }

    /// Run gossip rounds until every replica summarizes to the same root or
    /// `max_rounds` is exhausted, then close the run with a `FixityCheck`
    /// audit entry summarizing what moved.
    pub fn run(&self, timestamp_ms: u64, max_rounds: usize) -> Result<GossipReport> {
        let obs = self.store.obs();
        let _span = itrust_obs::span!(obs, "trustdb.antientropy.run");
        let mut report = GossipReport {
            rounds: 0,
            converged: self.converged(),
            comparisons: 0,
            transferred: 0,
            failed: 0,
            unrecoverable: 0,
            roots: Vec::new(),
        };
        while !report.converged && report.rounds < max_rounds {
            let o = self.gossip_round(timestamp_ms)?;
            report.rounds += 1;
            report.comparisons += o.comparisons;
            report.transferred += o.transferred;
            report.failed += o.failed;
            report.unrecoverable += o.unrecoverable;
            report.converged = self.converged();
        }
        report.roots = self.roots();
        itrust_obs::counter_add!(obs, "trustdb.antientropy.rounds", report.rounds as u64);
        self.audit.append(
            timestamp_ms,
            self.actor.clone(),
            EventKind::FixityCheck,
            "object-store",
            format!(
                "anti-entropy: {} rounds, converged={}, {} transferred, {} comparisons, {} failed, {} unrecoverable",
                report.rounds,
                report.converged,
                report.transferred,
                report.comparisons,
                report.failed,
                report.unrecoverable
            ),
        )?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::ManualClock;
    use crate::store::MemoryBackend;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("trustdb-antientropy-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn digest_of(i: usize) -> (Digest, Bytes) {
        let bytes = Bytes::from(format!("object-{i}").into_bytes());
        (sha256(&bytes), bytes)
    }

    mod partitioned {
        use super::*;

        #[test]
        fn scheduled_window_severs_and_rejoins() {
            let clock = Arc::new(ManualClock::new());
            let link = PartitionedBackend::new(MemoryBackend::new(), 0, clock.clone())
                .with_plan(&FaultPlan::new(1).partition_between(10, 30));
            let (d, b) = digest_of(0);
            link.put_raw(&d, b.clone()).unwrap();
            assert_eq!(link.epoch(), 0);

            clock.advance_ms(10);
            let err = link.put_raw(&d, b.clone()).unwrap_err();
            assert!(matches!(err, Error::Partitioned { replica: 0 }));
            assert!(link.is_severed());
            assert_eq!(link.epoch(), 1);
            // Severed replicas are invisible to the quorum view…
            assert!(!link.contains(&d));
            assert!(link.list().is_empty());
            assert_eq!(link.object_count(), 0);
            // …but the local surface still works (co-located writer).
            assert!(link.local().contains(&d));

            clock.advance_ms(20);
            link.put_raw(&d, b).unwrap();
            assert!(!link.is_severed());
            assert_eq!(link.epoch(), 2);
        }

        #[test]
        fn flap_fails_exactly_one_op_and_bumps_epoch_twice() {
            let clock = Arc::new(ManualClock::new());
            let link = PartitionedBackend::new(MemoryBackend::new(), 3, clock.clone())
                .with_plan(&FaultPlan::new(1).flap_at(5));
            let (d, b) = digest_of(1);
            link.put_raw(&d, b.clone()).unwrap();
            clock.advance_ms(5);
            assert!(matches!(
                link.put_raw(&d, b.clone()).unwrap_err(),
                Error::Partitioned { replica: 3 }
            ));
            // The very next op sails through: the link flapped, not parted.
            link.put_raw(&d, b).unwrap();
            assert_eq!(link.epoch(), 2);
        }

        #[test]
        fn manual_sever_is_idempotent_per_transition() {
            let link =
                PartitionedBackend::new(MemoryBackend::new(), 0, Arc::new(ManualClock::new()));
            link.sever();
            link.sever();
            assert_eq!(link.epoch(), 1, "re-severing an already severed link is not a transition");
            link.rejoin();
            link.rejoin();
            assert_eq!(link.epoch(), 2);
            assert!(!link.is_severed());
        }
    }

    mod intent_log {
        use super::*;

        #[test]
        fn round_trips_records_in_append_order() {
            let path = tmp("intent-roundtrip");
            let log = IntentLog::open(&path, itrust_obs::ObsCtx::null()).unwrap();
            let (d0, b0) = digest_of(0);
            let (d1, b1) = digest_of(1);
            log.append(2, &d0, &b0).unwrap();
            log.append(5, &d1, &b1).unwrap();
            let pending = log.pending().unwrap();
            assert_eq!(pending.len(), 2);
            assert_eq!(pending[0], IntentRecord { epoch: 2, seq: 0, digest: d0, bytes: b0.to_vec() });
            assert_eq!(pending[1].epoch, 5);
            assert_eq!(pending[1].seq, 1);
            // Clear empties durably.
            log.clear().unwrap();
            assert!(log.is_empty());
            assert!(log.pending().unwrap().is_empty());
            std::fs::remove_file(&path).unwrap();
        }

        #[test]
        fn sequence_resumes_across_reopen() {
            let path = tmp("intent-reopen");
            let (d, b) = digest_of(7);
            {
                let log = IntentLog::open(&path, itrust_obs::ObsCtx::null()).unwrap();
                assert_eq!(log.append(1, &d, &b).unwrap(), 0);
            }
            let log = IntentLog::open(&path, itrust_obs::ObsCtx::null()).unwrap();
            assert_eq!(log.append(1, &d, &b).unwrap(), 1, "seq continues after the durable frames");
            assert_eq!(log.len(), 2);
            std::fs::remove_file(&path).unwrap();
        }

        #[test]
        fn decode_rejects_malformed_frames() {
            assert!(matches!(IntentRecord::decode(&[0u8; 10]), Err(Error::Codec(_))));
            // Length field inconsistent with frame size.
            let (d, b) = digest_of(0);
            let mut frame = IntentRecord { epoch: 0, seq: 0, digest: d, bytes: b.to_vec() }.encode();
            frame.pop();
            assert!(matches!(IntentRecord::decode(&frame), Err(Error::Codec(_))));
        }
    }

    /// Build a 3-replica partition-aware store:
    /// Memory → Partitioned links, replicated with a shared manual clock.
    type DtnFixture = (
        ObjectStore<ReplicatedBackend>,
        Vec<Arc<PartitionedBackend<MemoryBackend>>>,
        Vec<IntentLog>,
        Arc<ManualClock>,
    );

    fn dtn_store(name: &str) -> DtnFixture {
        let clock = Arc::new(ManualClock::new());
        let links: Vec<Arc<PartitionedBackend<MemoryBackend>>> = (0..3)
            .map(|i| Arc::new(PartitionedBackend::new(MemoryBackend::new(), i, clock.clone())))
            .collect();
        let dyns: Vec<Arc<dyn Backend>> =
            links.iter().map(|l| l.clone() as Arc<dyn Backend>).collect();
        let backend = ReplicatedBackend::new(dyns)
            .with_clock(clock.clone())
            .with_retry(crate::replica::RetryPolicy {
                max_attempts: 2,
                base_backoff_ms: 1,
                max_backoff_ms: 4,
            })
            .with_seed(11);
        let store = ObjectStore::new(backend);
        let logs: Vec<IntentLog> = (0..3)
            .map(|i| {
                IntentLog::open(tmp(&format!("{name}-r{i}")), itrust_obs::ObsCtx::null()).unwrap()
            })
            .collect();
        (store, links, logs, clock)
    }

    mod dtn {
        use super::*;

        #[test]
        fn writes_defer_during_partition_and_reconcile_on_heal() {
            let (store, links, logs, _clock) = dtn_store("defer");
            let dti = DelayTolerantIngest::new(
                &store,
                links.iter().cloned().zip(logs).collect(),
                42,
            );
            // Healthy: quorum.
            assert!(matches!(dti.put(b"pre-partition".as_slice()).unwrap(), IngestOutcome::Quorum { .. }));
            // Majority severed: quorum impossible, writes defer.
            links[0].sever();
            links[1].sever();
            let outcome = dti.put(b"during-partition".as_slice()).unwrap();
            let IngestOutcome::Deferred { digest, replica, epoch } = outcome else {
                panic!("expected a deferred outcome, got {outcome:?}");
            };
            assert_eq!(replica, 0, "first replica's intent log takes the write");
            assert_eq!(epoch, 1);
            assert_eq!(dti.pending_total(), 1);
            assert!((dti.availability() - 1.0).abs() < 1e-12, "all writes accepted");
            // The severed site serves its own read locally.
            assert!(links[0].local().contains(&digest));
            // The other severed replica never received a copy (the failed
            // quorum attempt may still have landed one on the healthy
            // minority — partial writes are what reconciliation repairs).
            assert!(!links[1].local().contains(&digest));

            // Heal and reconcile.
            links[0].rejoin();
            links[1].rejoin();
            let audit = AuditLog::new();
            let report = dti.reconcile(&audit, "dtn-daemon", 1_000).unwrap();
            assert_eq!(report, ReconcileReport { applied: 1, ..Default::default() });
            assert_eq!(dti.pending_total(), 0, "logs cleared after a full reconcile");
            assert!(store.backend().contains(&digest));
            audit.verify_chain().unwrap();
            let ingests = audit.query(|e| e.kind == EventKind::Ingest);
            assert_eq!(ingests.len(), 1);
            assert_eq!(ingests[0].subject, digest.to_hex());
        }

        #[test]
        fn reconcile_order_is_deterministic_and_digest_keyed() {
            let run = || {
                let (store, links, logs, clock) = dtn_store("order");
                let dti = DelayTolerantIngest::new(
                    &store,
                    links.iter().cloned().zip(logs).collect(),
                    42,
                );
                for l in &links {
                    l.sever();
                }
                // All three severed: even quorum of 2 fails; every write defers.
                for i in 0..20 {
                    dti.put(format!("storm-{i}").into_bytes()).unwrap();
                }
                // The same digest deferred twice: second is a duplicate.
                dti.put(b"storm-0".as_slice()).unwrap();
                for l in &links {
                    l.rejoin();
                }
                // The storm tripped every breaker; healing happens later in
                // virtual time, after the cooldowns expire.
                clock.advance_ms(5_000);
                let audit = AuditLog::new();
                let report = dti.reconcile(&audit, "dtn-daemon", 500).unwrap();
                assert_eq!(report.applied, 20);
                assert_eq!(report.duplicates, 1);
                audit.verify_chain().unwrap();
                let subjects: Vec<String> =
                    audit.export().into_iter().map(|e| e.subject).collect();
                (subjects, store.list())
            };
            let (subjects_a, list_a) = run();
            let (subjects_b, list_b) = run();
            assert_eq!(subjects_a, subjects_b, "audit order identical across runs");
            assert_eq!(list_a, list_b);
            assert_eq!(list_a.len(), 20);
        }

        #[test]
        fn corrupt_intent_is_skipped_and_counted() {
            let (store, links, logs, _clock) = dtn_store("corrupt");
            // Forge an intent whose payload does not hash to its digest.
            let (d, _) = digest_of(0);
            logs[1].append(3, &d, b"not the real bytes").unwrap();
            let dti =
                DelayTolerantIngest::new(&store, links.iter().cloned().zip(logs).collect(), 42);
            let audit = AuditLog::new();
            let report = dti.reconcile(&audit, "dtn-daemon", 9).unwrap();
            assert_eq!(report, ReconcileReport { corrupt: 1, ..Default::default() });
            assert!(!store.backend().contains(&d), "rotten intents never reach the store");
        }
    }

    mod gossip {
        use super::*;

        fn seeded(n: usize) -> (ObjectStore<ReplicatedBackend>, Vec<Arc<PartitionedBackend<MemoryBackend>>>, Vec<Digest>) {
            let clock = Arc::new(ManualClock::new());
            let links: Vec<Arc<PartitionedBackend<MemoryBackend>>> = (0..3)
                .map(|i| Arc::new(PartitionedBackend::new(MemoryBackend::new(), i, clock.clone())))
                .collect();
            let dyns: Vec<Arc<dyn Backend>> =
                links.iter().map(|l| l.clone() as Arc<dyn Backend>).collect();
            let backend =
                ReplicatedBackend::new(dyns).with_clock(clock).with_seed(23);
            let store = ObjectStore::new(backend);
            let ids =
                (0..n).map(|i| store.put(format!("holding-{i}").into_bytes()).unwrap()).collect();
            (store, links, ids)
        }

        #[test]
        fn summary_roots_commit_to_the_object_set() {
            let (store, links, ids) = seeded(50);
            let s0 = SetSummary::of_backend(links[0].as_ref());
            let s1 = SetSummary::of_backend(links[1].as_ref());
            assert_eq!(s0.root(), s1.root());
            assert_eq!(s0.diff(&s1).unwrap().0, Vec::<usize>::new());
            // Removing one object moves exactly its prefix bucket.
            links[1].local().delete_raw(&ids[7]).unwrap();
            let s1 = SetSummary::of_backend(links[1].as_ref());
            let (buckets, comparisons) = s0.diff(&s1).unwrap();
            assert_eq!(buckets, vec![ids[7].0[0] as usize]);
            assert!(
                comparisons <= 17,
                "256-leaf diff must prune: {comparisons} comparisons"
            );
            drop(store);
        }

        #[test]
        fn sync_pair_restores_missing_objects_both_ways() {
            let (store, links, ids) = seeded(30);
            links[0].local().delete_raw(&ids[3]).unwrap();
            links[1].local().delete_raw(&ids[8]).unwrap();
            links[1].local().delete_raw(&ids[9]).unwrap();
            let audit = AuditLog::new();
            let engine = AntiEntropy::new(&store, &audit, "gossip-bot");
            let outcome = engine.sync_pair(0, 1, 100).unwrap();
            assert_eq!(outcome.transferred, 3);
            assert_eq!(outcome.failed, 0);
            assert_eq!(outcome.unrecoverable, 0);
            for id in [&ids[3], &ids[8], &ids[9]] {
                assert!(links[0].local().contains(id));
                assert!(links[1].local().contains(id));
            }
            let repairs = audit.query(|e| e.kind == EventKind::Repair);
            assert_eq!(repairs.len(), 3);
            audit.verify_chain().unwrap();
        }

        #[test]
        fn run_converges_three_diverged_replicas() {
            let (store, links, ids) = seeded(60);
            // Different damage on every replica.
            links[0].local().delete_raw(&ids[0]).unwrap();
            links[1].local().delete_raw(&ids[1]).unwrap();
            links[1].local().delete_raw(&ids[2]).unwrap();
            links[2].local().delete_raw(&ids[3]).unwrap();
            let audit = AuditLog::new();
            let engine = AntiEntropy::new(&store, &audit, "gossip-bot");
            assert!(!engine.converged());
            let report = engine.run(200, 8).unwrap();
            assert!(report.converged, "gossip must converge: {report:?}");
            assert!(report.rounds >= 1 && report.rounds <= 3);
            assert!(report.roots.windows(2).all(|w| w[0] == w[1]));
            for id in &ids {
                for l in &links {
                    assert!(l.local().contains(id));
                }
            }
            audit.verify_chain().unwrap();
            // One Repair entry per transferred copy plus the closing summary.
            let repairs = audit.query(|e| e.kind == EventKind::Repair);
            assert_eq!(repairs.len(), report.transferred);
            assert_eq!(audit.len(), report.transferred + 1);
        }

        #[test]
        fn run_on_converged_replicas_is_free() {
            let (store, _links, _ids) = seeded(20);
            let audit = AuditLog::new();
            let engine = AntiEntropy::new(&store, &audit, "gossip-bot");
            let report = engine.run(300, 8).unwrap();
            assert!(report.converged);
            assert_eq!(report.rounds, 0);
            assert_eq!(report.transferred, 0);
            assert_eq!(audit.len(), 1, "only the closing FixityCheck entry");
        }

        #[test]
        fn object_missing_everywhere_is_not_resurrectable() {
            let (store, links, ids) = seeded(10);
            // Gone from every replica but still listed nowhere — membership
            // agrees, so anti-entropy sees nothing to do.
            for l in &links {
                l.local().delete_raw(&ids[5]).unwrap();
            }
            let audit = AuditLog::new();
            let engine = AntiEntropy::new(&store, &audit, "gossip-bot");
            let report = engine.run(400, 8).unwrap();
            assert!(report.converged);
            assert_eq!(report.transferred, 0);
            assert_eq!(report.unrecoverable, 0);
            assert!(!store.backend().contains(&ids[5]));
        }

        #[test]
        fn severed_replica_blocks_convergence_until_heal() {
            let (store, links, ids) = seeded(12);
            links[2].local().delete_raw(&ids[0]).unwrap();
            links[2].sever();
            let audit = AuditLog::new();
            let engine = AntiEntropy::new(&store, &audit, "gossip-bot");
            let report = engine.run(500, 2).unwrap();
            assert!(!report.converged, "a severed replica cannot be reconciled");
            links[2].rejoin();
            let report = engine.run(600, 8).unwrap();
            assert!(report.converged);
            assert!(links[2].local().contains(&ids[0]));
        }
    }
}
