//! Deterministic fault injection for storage backends.
//!
//! Preservation claims ("the data are unchanged and unchangeable") are only
//! credible if the system is exercised against the failures it promises to
//! survive. [`FaultyBackend`] wraps any [`Backend`] and injects four fault
//! classes from a seeded [`FaultPlan`]:
//!
//! * **transient I/O errors** — the op fails with a retryable
//!   [`Error::Io`] (`TimedOut`), as a saturated or flaky device would;
//! * **permanent replica death** — once triggered (by probability or
//!   [`FaultyBackend::kill`]), every subsequent op fails non-transiently;
//! * **silent at-rest bit rot** — a write lands with a flipped bit, so the
//!   stored bytes no longer match their digest (the store is not told);
//! * **read-path flips** — the stored bytes are intact but a read returns a
//!   corrupted copy once (a bad cable, a failing controller).
//!
//! All randomness comes from one PRNG seeded by [`FaultPlan::seed`], so a
//! fault storm is exactly reproducible: same seed, same faults, same ops.
//! This module is the fault-injection front door for tests and the D9
//! experiment; `MemoryBackend::tamper` remains only as a low-level helper
//! for single-object corruption in unit tests.

use crate::errors::{Error, Result};
use crate::hash::Digest;
use crate::store::Backend;
use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A scheduled network-connectivity event on a replica's link, keyed by
/// virtual clock milliseconds in [`FaultPlan::net_events`]. Unlike the
/// probabilistic fault classes these are *deterministic by construction*:
/// the schedule itself is data, so a partition storm replays identically
/// regardless of thread count or op interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// Sever the replica's link: quorum-path ops fail with
    /// [`Error::Partitioned`] until a [`NetEvent::Rejoin`].
    Partition,
    /// Restore the replica's link.
    Rejoin,
    /// A momentary flap: the link drops for exactly one operation and comes
    /// straight back, bumping the epoch twice. This is the adversarial case
    /// for half-open circuit breakers — the probe op lands exactly in the
    /// gap.
    Flap,
}

/// Per-operation fault probabilities, all default 0 (a [`FaultyBackend`]
/// with the default plan behaves identically to its inner backend).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// PRNG seed; every probabilistic decision derives from it.
    pub seed: u64,
    /// Probability that a put/get/delete fails with a retryable I/O error.
    pub transient_io: f64,
    /// Probability per op that the replica dies permanently.
    pub death: f64,
    /// Probability that a put silently stores bit-rotted bytes.
    pub write_rot: f64,
    /// Probability that a get returns a flipped copy (at-rest data intact).
    pub read_flip: f64,
    /// Scheduled connectivity events as `(at_ms, event)` pairs against the
    /// injected clock, consumed in timestamp order by
    /// [`crate::antientropy::PartitionedBackend`]. Kept sorted by the
    /// builders.
    pub net_events: Vec<(u64, NetEvent)>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults; chain the builder methods
    /// to arm individual fault classes.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_io: 0.0,
            death: 0.0,
            write_rot: 0.0,
            read_flip: 0.0,
            net_events: Vec::new(),
        }
    }

    /// Set the transient I/O error probability.
    pub fn transient_io(mut self, p: f64) -> Self {
        self.transient_io = p;
        self
    }

    /// Set the per-op permanent-death probability.
    pub fn death(mut self, p: f64) -> Self {
        self.death = p;
        self
    }

    /// Set the silent write bit-rot probability.
    pub fn write_rot(mut self, p: f64) -> Self {
        self.write_rot = p;
        self
    }

    /// Set the read-path flip probability.
    pub fn read_flip(mut self, p: f64) -> Self {
        self.read_flip = p;
        self
    }

    /// Schedule one connectivity event at virtual time `at_ms`. Events are
    /// kept sorted by timestamp; ties preserve insertion order.
    pub fn net_event(mut self, at_ms: u64, event: NetEvent) -> Self {
        let pos = self.net_events.partition_point(|(t, _)| *t <= at_ms);
        self.net_events.insert(pos, (at_ms, event));
        self
    }

    /// Schedule a partition window: sever the link at `from_ms` and restore
    /// it at `to_ms`.
    pub fn partition_between(self, from_ms: u64, to_ms: u64) -> Self {
        self.net_event(from_ms, NetEvent::Partition).net_event(to_ms, NetEvent::Rejoin)
    }

    /// Schedule a one-op link flap at `at_ms`.
    pub fn flap_at(self, at_ms: u64) -> Self {
        self.net_event(at_ms, NetEvent::Flap)
    }
}

/// Counts of injected faults by class (monotonic, cheap atomics).
#[derive(Debug, Default)]
struct FaultCounters {
    transient: AtomicU64,
    rot_writes: AtomicU64,
    read_flips: AtomicU64,
}

/// Snapshot of the faults a [`FaultyBackend`] has injected so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultCounts {
    /// Transient I/O errors returned.
    pub transient: u64,
    /// Puts whose stored bytes were silently corrupted.
    pub rot_writes: u64,
    /// Gets that returned a corrupted copy.
    pub read_flips: u64,
}

/// A [`Backend`] decorator injecting deterministic faults per a [`FaultPlan`].
pub struct FaultyBackend<B: Backend> {
    inner: B,
    plan: FaultPlan,
    rng: Mutex<StdRng>,
    dead: AtomicBool,
    counts: FaultCounters,
    obs: itrust_obs::ObsCtx,
}

impl<B: Backend> FaultyBackend<B> {
    /// Wrap `inner` with the fault behavior described by `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        FaultyBackend {
            inner,
            rng: Mutex::new(StdRng::seed_from_u64(plan.seed)),
            plan,
            dead: AtomicBool::new(false),
            counts: FaultCounters::default(),
            obs: itrust_obs::ObsCtx::null(),
        }
    }

    /// Attach a telemetry context for fault-injection counters.
    pub fn with_obs(mut self, obs: itrust_obs::ObsCtx) -> Self {
        self.obs = obs;
        self
    }

    /// Borrow the wrapped backend (bypasses fault injection).
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Kill the replica permanently: every subsequent op fails with a
    /// non-transient error until [`FaultyBackend::revive`].
    pub fn kill(&self) {
        if !self.dead.swap(true, Ordering::Relaxed) {
            itrust_obs::counter_inc!(self.obs, "trustdb.fault.deaths");
        }
    }

    /// Bring a killed replica back (its data is whatever survived).
    pub fn revive(&self) {
        self.dead.store(false, Ordering::Relaxed);
    }

    /// Whether the replica is currently dead.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Faults injected so far, by class.
    pub fn fault_counts(&self) -> FaultCounts {
        FaultCounts {
            transient: self.counts.transient.load(Ordering::Relaxed),
            rot_writes: self.counts.rot_writes.load(Ordering::Relaxed),
            read_flips: self.counts.read_flips.load(Ordering::Relaxed),
        }
    }

    /// Deterministic at-rest fault storm: corrupt `ceil(fraction · n)` of
    /// the currently stored objects (chosen and damaged by the plan's PRNG),
    /// flipping one bit in each victim's stored bytes. Returns the digests
    /// corrupted. Works over any inner backend because it rewrites through
    /// the raw `Backend` interface — this is the generic replacement for
    /// `MemoryBackend::tamper` storms.
    pub fn corrupt_fraction(&self, fraction: f64) -> Vec<Digest> {
        let all = self.inner.list();
        let victims = ((all.len() as f64) * fraction).ceil() as usize;
        let mut order: Vec<usize> = (0..all.len()).collect();
        {
            let mut rng = self.rng.lock();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
        }
        let mut corrupted = Vec::with_capacity(victims.min(all.len()));
        for &idx in order.iter().take(victims) {
            // itrust-lint: allow(panic-reachable) — corruption offsets are drawn modulo the buffer length
            if self.corrupt_object(&all[idx]) {
                corrupted.push(all[idx]);
            }
        }
        corrupted.sort();
        corrupted
    }

    /// Flip one PRNG-chosen bit in the stored bytes of `digest` (silent
    /// at-rest corruption). Returns `false` if the object is absent or
    /// unreadable. Empty objects are extended by a junk byte instead, so
    /// corruption is always representable.
    pub fn corrupt_object(&self, digest: &Digest) -> bool {
        let Ok(bytes) = self.inner.get_raw(digest) else {
            return false;
        };
        let mut v = bytes.to_vec();
        {
            let mut rng = self.rng.lock();
            if v.is_empty() {
                v.push(0xAA);
            } else {
                let pos = rng.gen_range(0..v.len());
                let bit = rng.gen_range(0..8u8);
                // itrust-lint: allow(panic-reachable) — corruption offsets are drawn modulo the buffer length
                v[pos] ^= 1 << bit;
            }
        }
        // Rewrite through the raw interface: delete then put, because a
        // deduplicating backend may skip puts for digests it already holds.
        let _ = self.inner.delete_raw(digest);
        self.inner.put_raw(digest, Bytes::from(v)).is_ok()
    }

    /// Fail the op if the replica is dead or the plan rolls a fault.
    fn gate(&self, op: &'static str) -> Result<()> {
        if self.dead.load(Ordering::Relaxed) {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                format!("replica dead ({op})"),
            )));
        }
        let mut rng = self.rng.lock();
        if self.plan.death > 0.0 && rng.gen_bool(self.plan.death) {
            drop(rng);
            self.kill();
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                format!("replica died ({op})"),
            )));
        }
        if self.plan.transient_io > 0.0 && rng.gen_bool(self.plan.transient_io) {
            self.counts.transient.fetch_add(1, Ordering::Relaxed);
            itrust_obs::counter_inc!(self.obs, "trustdb.fault.transient_errors");
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("injected transient fault ({op})"),
            )));
        }
        Ok(())
    }

    fn flip_one_bit(v: &mut [u8], rng: &mut StdRng) {
        if v.is_empty() {
            return;
        }
        let pos = rng.gen_range(0..v.len());
        let bit = rng.gen_range(0..8u8);
        // itrust-lint: allow(panic-reachable) — corruption offsets are drawn modulo the buffer length
        v[pos] ^= 1 << bit;
    }
}

impl<B: Backend> Backend for FaultyBackend<B> {
    fn put_raw(&self, digest: &Digest, bytes: Bytes) -> Result<()> {
        self.gate("put")?;
        let rot = {
            let mut rng = self.rng.lock();
            self.plan.write_rot > 0.0 && rng.gen_bool(self.plan.write_rot)
        };
        if rot {
            let mut v = bytes.to_vec();
            {
                let mut rng = self.rng.lock();
                if v.is_empty() {
                    v.push(0xAA);
                } else {
                    Self::flip_one_bit(&mut v, &mut rng);
                }
            }
            self.counts.rot_writes.fetch_add(1, Ordering::Relaxed);
            itrust_obs::counter_inc!(self.obs, "trustdb.fault.rot_writes");
            // Deduplicating backends would silently skip the rotted bytes if
            // the digest is already present; that is fine — rot only lands
            // on first write, exactly like real media decay at ingest.
            return self.inner.put_raw(digest, Bytes::from(v));
        }
        self.inner.put_raw(digest, bytes)
    }

    fn get_raw(&self, digest: &Digest) -> Result<Bytes> {
        self.gate("get")?;
        let bytes = self.inner.get_raw(digest)?;
        let flip = {
            let mut rng = self.rng.lock();
            self.plan.read_flip > 0.0 && rng.gen_bool(self.plan.read_flip)
        };
        if flip {
            let mut v = bytes.to_vec();
            {
                let mut rng = self.rng.lock();
                if v.is_empty() {
                    v.push(0xAA);
                } else {
                    Self::flip_one_bit(&mut v, &mut rng);
                }
            }
            self.counts.read_flips.fetch_add(1, Ordering::Relaxed);
            itrust_obs::counter_inc!(self.obs, "trustdb.fault.read_flips");
            return Ok(Bytes::from(v));
        }
        Ok(bytes)
    }

    fn contains(&self, digest: &Digest) -> bool {
        !self.is_dead() && self.inner.contains(digest)
    }

    fn delete_raw(&self, digest: &Digest) -> Result<bool> {
        self.gate("delete")?;
        self.inner.delete_raw(digest)
    }

    fn list(&self) -> Vec<Digest> {
        if self.is_dead() {
            return Vec::new();
        }
        self.inner.list()
    }

    fn object_count(&self) -> usize {
        if self.is_dead() {
            return 0;
        }
        self.inner.object_count()
    }

    fn payload_bytes(&self) -> u64 {
        if self.is_dead() {
            return 0;
        }
        self.inner.payload_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::sha256;
    use crate::store::{MemoryBackend, ObjectStore};

    fn seeded_store(n: usize, plan: FaultPlan) -> (ObjectStore<FaultyBackend<MemoryBackend>>, Vec<Digest>) {
        let store = ObjectStore::new(FaultyBackend::new(MemoryBackend::new(), plan));
        let ids = (0..n).map(|i| store.put(format!("object-{i}").into_bytes()).unwrap()).collect();
        (store, ids)
    }

    #[test]
    fn no_faults_is_transparent() {
        let (store, ids) = seeded_store(20, FaultPlan::new(1));
        for id in &ids {
            assert!(store.verify(id).unwrap());
        }
        assert_eq!(store.backend().fault_counts(), FaultCounts {
            transient: 0,
            rot_writes: 0,
            read_flips: 0
        });
    }

    #[test]
    fn fault_storm_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let (store, _) = seeded_store(50, FaultPlan::new(seed));
            store.backend().corrupt_fraction(0.3)
        };
        assert_eq!(run(42), run(42), "same seed, same victims");
        assert_ne!(run(42), run(43), "different seed, different victims");
    }

    #[test]
    fn corrupt_fraction_damages_exactly_the_requested_share() {
        let (store, ids) = seeded_store(40, FaultPlan::new(7));
        let corrupted = store.backend().corrupt_fraction(0.25);
        assert_eq!(corrupted.len(), 10);
        let bad: usize = ids.iter().filter(|id| !store.verify(id).unwrap()).count();
        assert_eq!(bad, 10, "exactly the chosen victims fail verification");
    }

    #[test]
    fn write_rot_is_silent_until_verified() {
        let plan = FaultPlan::new(9).write_rot(1.0);
        let store = ObjectStore::new(FaultyBackend::new(MemoryBackend::new(), plan));
        let id = store.put(b"pristine master".as_slice()).unwrap();
        // The put "succeeded" — silent corruption by definition.
        assert!(store.contains(&id));
        assert!(!store.verify(&id).unwrap());
        assert_eq!(store.backend().fault_counts().rot_writes, 1);
    }

    #[test]
    fn read_flip_leaves_at_rest_data_intact() {
        let plan = FaultPlan::new(11).read_flip(1.0);
        let store = ObjectStore::new(FaultyBackend::new(MemoryBackend::new(), plan));
        let id = store.put(b"intact at rest".as_slice()).unwrap();
        let read = store.get(&id).unwrap();
        assert_ne!(sha256(&read), id, "read path returned a flipped copy");
        // Bypass the fault layer: the stored bytes never changed.
        let raw = store.backend().inner().get_raw(&id).unwrap();
        assert_eq!(sha256(&raw), id);
    }

    #[test]
    fn transient_errors_are_transient_class() {
        let plan = FaultPlan::new(13).transient_io(1.0);
        let store = ObjectStore::new(FaultyBackend::new(MemoryBackend::new(), plan));
        let err = store.put(b"never lands".as_slice()).unwrap_err();
        assert!(err.is_transient());
        assert!(!err.is_integrity_incident());
    }

    #[test]
    fn death_is_permanent_and_non_transient() {
        let (store, ids) = seeded_store(3, FaultPlan::new(17));
        store.backend().kill();
        let err = store.get(&ids[0]).unwrap_err();
        assert!(!err.is_transient(), "death must not be retried");
        assert!(!store.contains(&ids[0]));
        assert_eq!(store.object_count(), 0);
        store.backend().revive();
        assert!(store.verify(&ids[0]).unwrap(), "data survives a revive");
    }

    #[test]
    fn net_event_schedule_stays_sorted() {
        let plan = FaultPlan::new(1)
            .flap_at(50)
            .partition_between(10, 90)
            .partition_between(10, 20);
        let times: Vec<u64> = plan.net_events.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![10, 10, 20, 50, 90]);
        // Ties preserve insertion order: the first window's Partition at 10
        // was inserted before the second window's.
        assert_eq!(plan.net_events[0], (10, NetEvent::Partition));
        assert_eq!(plan.net_events[3], (50, NetEvent::Flap));
    }

    #[test]
    fn probabilistic_death_eventually_triggers() {
        let plan = FaultPlan::new(19).death(0.2);
        let store = ObjectStore::new(FaultyBackend::new(MemoryBackend::new(), plan));
        let mut died = false;
        for i in 0..200 {
            if store.put(format!("obj-{i}").into_bytes()).is_err() {
                died = true;
                break;
            }
        }
        assert!(died, "p=0.2 over 200 ops must trigger");
        assert!(store.backend().is_dead());
    }
}
