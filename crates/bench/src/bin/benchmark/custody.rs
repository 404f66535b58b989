//! `custody`: a provenance `Ledger` with witness-countersigned checkpoints,
//! appended to by its custodian while auditors ask for custody proofs.
//!
//! The work is SHA-256 over 64-byte pairs, HMAC and the merkle
//! accumulator: no bulk data and no thread pool, so ledger and merkle
//! changes show here while bulk-hash and pool changes do not. Appends and
//! proofs share the ledger lock and the one caller thread. Each round of
//! load ends with a full `Ledger::verify`, the auditor's check.

use crate::openloop::{Arrivals, Pacer};
use crate::{call, mix64, stats, Env, Outcome};
use itrust_ledger::{CustodyProof, EventKind, Keyring, Ledger, LedgerEvent, SecretKey, Witness};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const NAME: &str = "custody";
pub const CUSTODIAN: &str = "custodian";
pub const WITNESSES: [&str; 3] = ["w1", "w2", "w3"];
/// Distinct witness endorsements a proof must carry to verify.
pub const QUORUM: usize = 2;

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Events in the history each set-up builds.
    pub history: u64,
    /// A checkpoint (countersigned by every witness) per this many events.
    pub checkpoint_every: u64,
    /// The load runs in `rounds`, each an open-loop slice of `slice_ms`
    /// with appends and proof requests at their rates, then
    /// `closed_windows` windows of `window_proofs` back-to-back proofs,
    /// then a full `Ledger::verify`.
    pub rounds: u64,
    pub append_rate: u64,
    pub proof_rate: u64,
    pub slice_ms: u64,
    pub closed_windows: u64,
    pub window_proofs: u64,
    /// Consecutive open-loop proof latencies per `p50_us` window.
    pub window: usize,
    /// One proof in this many is tampered with and must be rejected.
    pub tamper_every: u64,
}

impl Size {
    /// A 100k-event history, then 20 rounds of a 0.3 s open slice (20,000
    /// appends/s, 5,000 proofs/s), 5 closed windows of 300 proofs and an
    /// audit at `--seconds 10`.
    pub fn for_seconds(seconds: u64) -> Size {
        Size {
            history: 10_000 * seconds,
            checkpoint_every: 10_000,
            rounds: 2 * seconds,
            append_rate: 20_000,
            proof_rate: 5_000,
            slice_ms: 300,
            closed_windows: 5,
            window_proofs: 300,
            window: 500,
            tamper_every: 1_000,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            history: 300,
            checkpoint_every: 100,
            rounds: 2,
            append_rate: 2_000,
            proof_rate: 1_000,
            slice_ms: 50,
            closed_windows: 2,
            window_proofs: 20,
            window: 10,
            tamper_every: 7,
        }
    }
}

pub fn keyring() -> Keyring {
    let mut ring = Keyring::new().with(CUSTODIAN, SecretKey::derive(CUSTODIAN));
    for w in WITNESSES {
        ring.insert(w, SecretKey::derive(w));
    }
    ring
}

/// The ledger plus what the caller knows about its checkpoints.
struct Custody {
    ledger: Ledger,
    witnesses: Vec<Witness>,
    /// Events covered by the newest and the previous checkpoint.
    upto: u64,
    prev_upto: u64,
    proofs: u64,
    /// A checkpoint per this many events.
    every: u64,
    /// Duration of each checkpoint cut, µs.
    checkpoint_us: Vec<f64>,
}

impl Custody {
    /// Append event `i` of the seeded history (its timestamp is `i`, so the
    /// history is independent of wall time); every `every`-th append also
    /// cuts a checkpoint and collects every witness's countersignature.
    fn append(&mut self, env: &Env, seed: u64) -> bool {
        const KINDS: [EventKind; 5] = [
            EventKind::Ingest,
            EventKind::FixityCheck,
            EventKind::Access,
            EventKind::Migration,
            EventKind::Repair,
        ];
        const ACTORS: [&str; 3] = ["ingestd", "auditor", "migrator"];
        let i = self.ledger.len() as u64;
        let h = mix64(seed ^ mix64(i));
        let event = LedgerEvent::builder(KINDS[(i % 5) as usize])
            .at(i)
            .actor(ACTORS[(i % 3) as usize])
            .subject(format!("rec-{}", h % 997))
            .outcome("success")
            .detail(format!("{h:016x}"));
        let mut ok = self.ledger.append(event).is_ok();
        if (i + 1).is_multiple_of(self.every) {
            ok &= self.seal(env, i);
        }
        ok
    }

    fn seal(&mut self, env: &Env, ts: u64) -> bool {
        let (cp, us) = call(&env.bench, "bench.custody.checkpoint", || {
            self.ledger.checkpoint(ts)
        });
        self.checkpoint_us.push(us);
        let Ok(cp) = cp else { return false };
        for w in &self.witnesses {
            let (cert, _) = call(&env.bench, "bench.custody.countersign", || {
                w.countersign(NAME, &cp)
            });
            let Ok(cert) = cert else { return false };
            let (added, _) = call(&env.bench, "bench.custody.add_witness", || {
                self.ledger.add_witness(cert)
            });
            if added.is_err() {
                return false;
            }
        }
        self.prev_upto = self.upto;
        self.upto = cp.upto;
        true
    }

    /// Build and verify one custody proof. Targets are 80% uniform over
    /// the checkpointed history and 20% inside the newest checkpoint; one
    /// proof in `tamper_every` is altered and must fail to verify.
    fn prove(&mut self, env: &Env, out: &mut Outcome, rng: &mut StdRng, tamper_every: u64) {
        let seq = if rng.gen_range(0..5u32) == 0 {
            rng.gen_range(self.prev_upto..self.upto)
        } else {
            rng.gen_range(0..self.upto)
        };
        self.proofs += 1;
        let tamper = self.proofs.is_multiple_of(tamper_every);
        let (proof, _) = call(&env.bench, "bench.custody.prove", || self.ledger.prove(seq));
        let Ok(mut proof) = proof else {
            out.op(false, || format!("no custody proof for event {seq}"));
            return;
        };
        if tamper {
            proof.event.outcome = "altered".into();
        }
        let (verdict, _) = call(&env.bench, "bench.custody.verify_proof", || {
            CustodyProof::verify(&proof, NAME, self.ledger.keyring(), QUORUM)
        });
        out.op(verdict.is_ok() != tamper, || {
            format!("proof of event {seq} (tampered: {tamper}): {verdict:?}")
        });
        out.count("custody.proof_path_len", proof.inclusion.path.len() as f64);
        if tamper && verdict.is_err() {
            out.count("custody.tampered_rejected", 1.0);
        }
    }
}

/// Build the history: `size.history` events, sealed every
/// `checkpoint_every`.
fn build(env: &Env, out: &mut Outcome, seed: u64, size: &Size) -> Custody {
    let ring = keyring();
    let mut custody = Custody {
        ledger: Ledger::new(NAME, CUSTODIAN, ring.clone()).with_obs(env.obs.clone()),
        witnesses: WITNESSES
            .iter()
            .map(|w| Witness::new(*w, ring.clone()))
            .collect(),
        upto: 0,
        prev_upto: 0,
        proofs: 0,
        every: size.checkpoint_every,
        checkpoint_us: Vec::new(),
    };
    let every = size.checkpoint_every;
    for start in (0..size.history).step_by(every as usize) {
        // One span per checkpoint interval rather than per append: a
        // million spans would cost more memory than the ledger.
        let _span = env.bench.span("bench.custody.append_batch");
        let ok = (start..(start + every).min(size.history)).all(|_| custody.append(env, seed));
        out.op(ok, || format!("history append near event {start} failed"));
    }
    custody
}

pub fn run(seed: u64, size: &Size, env: &Env) -> Outcome {
    let mut out = Outcome {
        window: size.window,
        ..Outcome::default()
    };
    let mut custody = None;
    for _ in 0..env.setups {
        let _phase = env.bench.span("bench.custody.setup");
        env.bench
            .time("bench.custody.drop", || drop(custody.take()));
        let (built, us) = call(&env.bench, "bench.custody.build", || {
            build(env, &mut out, seed, size)
        });
        out.setup_s.push(us / 1e6);
        custody = Some(built);
    }
    let Some(mut custody) = custody else {
        return out;
    };
    custody.checkpoint_us.clear();

    let mut rng = StdRng::seed_from_stream(seed, 2);
    let (mut append_us, mut late_us) = (Vec::new(), Vec::new());
    for _ in 0..size.rounds {
        let _phase = env.bench.span("bench.custody.open");
        let mut pacer = Pacer::start();
        let rates = [size.append_rate, size.proof_rate];
        for a in Arrivals::new(&rates, size.slice_ms) {
            // One span per request keeps the cost of recording its inner
            // spans inside the request it belongs to.
            let _step = env.bench.span("bench.custody.step");
            if pacer.now_ns() < a.due_ns {
                env.bench
                    .time("bench.custody.idle", || pacer.wait_until(a.due_ns));
            }
            pacer.issued(a.due_ns);
            if a.stream == 0 {
                let ok = env
                    .bench
                    .time("bench.custody.append", || custody.append(env, seed));
                out.op(ok, || "append failed".into());
                append_us.push(pacer.since_us(a.due_ns));
            } else {
                custody.prove(env, &mut out, &mut rng, size.tamper_every);
                out.latencies_us.push(pacer.since_us(a.due_ns));
            }
        }
        late_us.extend_from_slice(pacer.lateness_us());
        drop(_phase);

        let _phase = env.bench.span("bench.custody.closed");
        for _ in 0..size.closed_windows {
            let _step = env.bench.span("bench.custody.step");
            let start = Instant::now();
            for _ in 0..size.window_proofs {
                custody.prove(env, &mut out, &mut rng, size.tamper_every);
            }
            let window = (size.window_proofs as f64, start.elapsed().as_secs_f64());
            out.rate_windows.push(window);
        }
        drop(_phase);

        let _phase = env.bench.span("bench.custody.audit");
        let (verified, us) = call(&env.bench, "bench.custody.verify", || {
            custody.ledger.verify()
        });
        out.op(verified.is_ok(), || {
            format!("full ledger audit: {verified:?}")
        });
        out.audits.push((custody.ledger.len() as f64, us / 1e6));
    }
    out.line(
        "custody.gen_late_p99_us",
        stats::percentile_of(&late_us, 99.0),
        "us",
    );
    out.line("custody.append_p50_us", stats::median(&append_us), "us");
    out.line(
        "custody.append_p99_us",
        stats::percentile_of(&append_us, 99.0),
        "us",
    );
    out.line(
        "custody.proof_p99_us",
        stats::percentile_of(&out.latencies_us, 99.0),
        "us",
    );
    out.line(
        "custody.checkpoint_p50_us",
        stats::median(&custody.checkpoint_us),
        "us",
    );
    let events = custody.ledger.len() as f64;
    out.count("custody.events", events);
    out.count(
        "custody.checkpoints",
        custody.ledger.checkpoint_count() as f64,
    );
    out.count("custody.proofs", custody.proofs as f64);
    out.mix(&custody.ledger.head().0);
    if let Some(sealed) = custody.ledger.latest_checkpoint() {
        out.mix(&sealed.checkpoint.events_root.0);
    }
    out.fingerprint("custody.fingerprint");
    out
}
