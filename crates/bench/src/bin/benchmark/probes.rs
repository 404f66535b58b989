//! Per-layer probes, run in every workload's traced pass: each layer's key
//! public calls timed on small seeded inputs, so every per-layer metric is
//! measured on every workload. Stage times inside `Repository::ingest` and
//! `PergaNet::analyze` come from the program's own spans; everything else
//! is timed from outside. Every value is a median over its samples.

use crate::trace::{durations_us, Collector, Span};
use crate::{accession, call, custody, metric, stats, Metric, Outcome, WorkDir};
use archival_core::ingest::Repository;
use itrust_ledger::sign::hmac_sha256;
use itrust_ledger::{EventKind, Ledger, LedgerEvent, SecretKey, Witness};
use itrust_obs::ObsCtx;
use itrust_service::{
    ExecutorConfig, Quota, Request, ServiceExecutor, ShardedConfig, ShardedStore,
};
use perganet::pipeline::{PergaNet, TrainConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use trustdb::hash::{crc32c, par_sha256, sha256, sha256_pair};
use trustdb::store::{MemoryBackend, ObjectStore};
use trustdb::wal::{SyncPolicy, Wal};

/// How much each probe does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Timing samples per small primitive (a tenth of that for 1 MiB).
    pub samples: usize,
    pub sips: usize,
    pub wal_frames: usize,
    pub objects: u64,
    pub events: u64,
    pub proofs: usize,
    pub train_per_damage: usize,
    pub epochs: usize,
    pub images: usize,
}

impl Size {
    pub fn full() -> Size {
        Size {
            samples: 200,
            sips: 4,
            wal_frames: 20_000,
            objects: 20_000,
            events: 50_000,
            proofs: 2_000,
            train_per_damage: 20,
            epochs: 2,
            images: 300,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            samples: 10,
            sips: 1,
            wal_frames: 100,
            objects: 200,
            events: 500,
            proofs: 20,
            train_per_damage: 3,
            epochs: 1,
            images: 6,
        }
    }
}

/// Median nanoseconds per call of `f`, over `samples` timed batches of
/// `batch` calls (after one warm-up call). Results go through `black_box`
/// so the calls cannot be optimised away.
fn per_call_ns<T>(samples: usize, batch: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let v: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    stats::median(&v)
}

fn mib_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / (ns / 1e9)
}

/// Microseconds of one call of `f`.
fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64 / 1e3)
}

fn hash(rng: &mut StdRng, size: &Size) -> Vec<Metric> {
    let mut data = vec![0u8; 1 << 20];
    rng.fill(&mut data[..]);
    let (n, big) = (size.samples, size.samples.div_ceil(10));
    let sha = |len: usize, samples: usize, batch: usize| {
        mib_s(
            len,
            per_call_ns(samples, batch, || sha256(black_box(&data[..len]))),
        )
    };
    let pair = (sha256(&data[..32]), sha256(&data[32..64]));
    vec![
        metric("trustdb.hash.sha256_1k_mib_s", sha(1024, n, 100), "MiB/s"),
        metric(
            "trustdb.hash.sha256_32k_mib_s",
            sha(32 * 1024, n, 4),
            "MiB/s",
        ),
        metric(
            "trustdb.hash.sha256_1m_mib_s",
            sha(1 << 20, big, 1),
            "MiB/s",
        ),
        metric(
            "trustdb.hash.par_sha256_1m_mib_s",
            mib_s(
                1 << 20,
                per_call_ns(big, 1, || par_sha256(black_box(&data))),
            ),
            "MiB/s",
        ),
        metric(
            "trustdb.hash.crc32c_1k_mib_s",
            mib_s(
                1024,
                per_call_ns(n, 100, || crc32c(black_box(&data[..1024]))),
            ),
            "MiB/s",
        ),
        metric(
            "trustdb.hash.sha256_pair_ns",
            per_call_ns(n, 1_000, || {
                sha256_pair(black_box(&pair.0), black_box(&pair.1))
            }),
            "ns",
        ),
    ]
}

/// Ingest SIP-shaped accessions under the trace; stage times come from the
/// program's `archival.ingest.*` and `trustdb.merkle.build` spans.
fn archival(
    seed: u64,
    size: &Size,
    ctx: &ObsCtx,
    collector: &Collector,
    all: &mut Vec<Span>,
    out: &mut Outcome,
) -> Vec<Metric> {
    let sip = accession::Size::for_seconds(1);
    let repo = Repository::new(ObjectStore::new(MemoryBackend::new()).with_obs(ctx.clone()));
    let mut manifests = Vec::new();
    for n in 0..size.sips {
        let receipt = repo.ingest(
            accession::make_sip(seed, n, &sip),
            2_000 + n as u64,
            "probe",
        );
        out.op(receipt.is_ok(), || {
            format!("probe ingest {n}: {:?}", receipt.as_ref().err())
        });
        if let Ok(r) = receipt {
            manifests.push(
                repo.store()
                    .get(&r.manifest_digest)
                    .map_or(0.0, |m| m.len() as f64),
            );
        }
    }
    let (report, sweep_us) = time_us(|| repo.fixity_sweep(1_000_000));
    let swept = report.map_or(0, |r| if r.is_clean() { r.bytes_verified } else { 0 });
    out.op(swept > 0, || "probe fixity sweep found damage".into());
    let spans = collector.take();
    let p50 = |name: &str| stats::median(&durations_us(&spans, name));
    let metrics = vec![
        metric("trustdb.merkle.build_us", p50("trustdb.merkle.build"), "us"),
        metric(
            "trustdb.fixity.sweep_mib_s",
            mib_s(swept as usize, sweep_us * 1e3),
            "MiB/s",
        ),
        metric(
            "archival.ingest.validate_us",
            p50("archival.ingest.validate"),
            "us",
        ),
        metric(
            "archival.ingest.persist_us",
            p50("archival.ingest.persist"),
            "us",
        ),
        metric("archival.ingest.seal_us", p50("archival.ingest.seal"), "us"),
        metric("archival.ingest.commit_us", p50("archival.ingest"), "us"),
        metric(
            "archival.oais.manifest_bytes",
            stats::median(&manifests),
            "count",
        ),
    ];
    all.extend(spans);
    metrics
}

fn wal(rng: &mut StdRng, size: &Size, out: &mut Outcome) -> Vec<Metric> {
    let dir = WorkDir::new("probe-wal");
    let opened = dir.as_ref().map_err(|e| e.to_string()).and_then(|d| {
        Wal::open(d.path().join("probe.wal"), SyncPolicy::Never).map_err(|e| e.to_string())
    });
    let Ok(log) = opened else {
        out.op(false, || format!("probe WAL: {:?}", opened.err()));
        return vec![
            metric("trustdb.wal.append_us", f64::NAN, "us"),
            metric("trustdb.wal.replay_mib_s", f64::NAN, "MiB/s"),
        ];
    };
    let mut frame = vec![0u8; 700];
    let mut append = Vec::with_capacity(size.wal_frames);
    for _ in 0..size.wal_frames {
        rng.fill(&mut frame[..]);
        let (r, us) = time_us(|| log.append(&frame));
        out.op(r.is_ok(), || format!("probe WAL append: {r:?}"));
        append.push(us);
    }
    let (replay, us) = time_us(|| log.replay());
    let frames = replay.map_or(0, |r| r.frames.len());
    out.op(frames == size.wal_frames, || {
        format!("probe WAL replayed {frames} of {} frames", size.wal_frames)
    });
    vec![
        metric("trustdb.wal.append_us", stats::median(&append), "us"),
        metric(
            "trustdb.wal.replay_mib_s",
            mib_s(log.len_bytes() as usize, us * 1e3),
            "MiB/s",
        ),
    ]
}

fn service(rng: &mut StdRng, size: &Size, out: &mut Outcome) -> Vec<Metric> {
    let nan = |names: &[(&'static str, &'static str)]| -> Vec<Metric> {
        names.iter().map(|(n, u)| metric(*n, f64::NAN, u)).collect()
    };
    const NAMES: [(&str, &str); 7] = [
        ("service.shard.route_ns", "ns"),
        ("service.store.put_us", "us"),
        ("service.store.get_us", "us"),
        ("service.executor.submit_us", "us"),
        ("service.executor.tick_us", "us"),
        ("service.store.replay_objects_per_s", "1/s"),
        ("service.wal.bytes_per_user_byte", "ratio"),
    ];
    let Ok(dir) = WorkDir::new("probe-service") else {
        out.op(false, || "probe service directory".into());
        return nan(&NAMES);
    };
    let config = ShardedConfig::durable(8, dir.path(), SyncPolicy::Never);
    let open = || {
        let s = ShardedStore::open(&config, ObsCtx::new())?;
        s.register_tenant("probe", Quota::unlimited())?;
        Ok::<_, trustdb::Error>(Arc::new(s))
    };
    let Ok(store) = open() else {
        out.op(false, || "probe service store".into());
        return nan(&NAMES);
    };
    let object = |rng: &mut StdRng| {
        let mut v = vec![0u8; rng.gen_range(128..1152usize)];
        rng.fill(&mut v[..]);
        v
    };
    let keys: Vec<String> = (0..size.objects).map(|j| format!("probe-{j:08}")).collect();
    let route = per_call_ns(size.samples, 100, || {
        for k in keys.iter().take(8) {
            black_box(itrust_service::shard_of(8, "probe", black_box(k)));
        }
    }) / 8.0;
    let (mut put, mut get) = (Vec::new(), Vec::new());
    for k in &keys {
        let v = object(rng);
        let (r, us) = time_us(|| store.put("probe", k, v.clone().into(), 0));
        out.op(r.is_ok(), || format!("probe put {k}: {r:?}"));
        put.push(us);
        let (g, us) = time_us(|| store.get("probe", k));
        out.op(g.is_ok_and(|b| b[..] == v[..]), || {
            format!("probe get {k} returned other bytes")
        });
        get.push(us);
    }
    let exec = ServiceExecutor::new(
        store.clone(),
        Arc::new(trustdb::SystemClock::default()),
        ExecutorConfig::unthrottled(),
    );
    let (mut submit, mut tick) = (Vec::new(), Vec::new());
    for round in 0..(size.objects / 64 / 4).max(1) {
        for i in 0..64 {
            let req = Request::Put {
                tenant: "probe".into(),
                key: format!("exec-{round}-{i}"),
                payload: object(rng).into(),
            };
            let (r, us) = time_us(|| exec.submit(req));
            out.op(r.is_ok(), || format!("probe submit: {r:?}"));
            submit.push(us);
        }
        let (done, us) = time_us(|| exec.tick());
        out.op(done.iter().all(|c| c.outcome.is_ok()), || {
            "probe tick failed a request".into()
        });
        tick.push(us);
    }
    let wal_bytes = dir.bytes();
    let (objects, user_bytes) = (store.object_count(), store.payload_bytes());
    drop(exec);
    drop(store);
    let (reopened, us) = time_us(open);
    out.op(reopened.is_ok_and(|s| s.object_count() == objects), || {
        "probe replay lost objects".into()
    });
    vec![
        metric(NAMES[0].0, route, NAMES[0].1),
        metric(NAMES[1].0, stats::median(&put), NAMES[1].1),
        metric(NAMES[2].0, stats::median(&get), NAMES[2].1),
        metric(NAMES[3].0, stats::median(&submit), NAMES[3].1),
        metric(NAMES[4].0, stats::median(&tick), NAMES[4].1),
        metric(NAMES[5].0, objects as f64 / (us / 1e6), NAMES[5].1),
        metric(NAMES[6].0, wal_bytes as f64 / user_bytes as f64, NAMES[6].1),
    ]
}

fn ledger(seed: u64, size: &Size, out: &mut Outcome) -> Vec<Metric> {
    let ring = custody::keyring();
    let ledger = Ledger::new("probe", custody::CUSTODIAN, ring.clone()).with_obs(ObsCtx::new());
    let witnesses: Vec<Witness> = custody::WITNESSES
        .iter()
        .map(|w| Witness::new(*w, ring.clone()))
        .collect();
    let every = (size.events / 10).max(1);
    let (mut append, mut checkpoint, mut countersign, mut add) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..size.events {
        let event = LedgerEvent::builder(EventKind::Access)
            .at(i)
            .actor("probe")
            .subject(format!("rec-{}", i % 997));
        let (r, us) = time_us(|| ledger.append(event));
        out.op(r.is_ok(), || format!("probe ledger append {i}: {r:?}"));
        append.push(us);
        if (i + 1).is_multiple_of(every) {
            let (cp, us) = time_us(|| ledger.checkpoint(i));
            checkpoint.push(us);
            let Ok(cp) = cp else {
                out.op(false, || format!("probe checkpoint at {i}"));
                continue;
            };
            for w in &witnesses {
                let (cert, us) = time_us(|| w.countersign("probe", &cp));
                countersign.push(us);
                if let Ok(cert) = cert {
                    let (r, us) = time_us(|| ledger.add_witness(cert));
                    out.op(r.is_ok(), || format!("probe add_witness: {r:?}"));
                    add.push(us);
                }
            }
        }
    }
    let covered = size.events / every * every;
    let mut rng = StdRng::seed_from_stream(seed, 3);
    let (mut prove, mut verify, mut path) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..size.proofs {
        let (p, us) = time_us(|| ledger.prove(rng.gen_range(0..covered)));
        prove.push(us);
        let Ok(p) = p else {
            out.op(false, || "probe prove".into());
            continue;
        };
        let (v, us) = time_us(|| p.verify("probe", ledger.keyring(), custody::QUORUM));
        out.op(v.is_ok(), || format!("probe proof verify: {v:?}"));
        verify.push(us);
        path.push(p.inclusion.path.len() as f64);
    }
    let key = SecretKey::derive("probe");
    let hmac = per_call_ns(size.samples, 100, || {
        hmac_sha256(&key, "probe", black_box(&[7u8; 32]))
    });
    let (audit, us) = time_us(|| ledger.verify());
    out.op(audit.is_ok(), || format!("probe ledger audit: {audit:?}"));
    vec![
        metric("ledger.append_us", stats::median(&append), "us"),
        metric("ledger.checkpoint_us", stats::median(&checkpoint), "us"),
        metric(
            "ledger.witness.countersign_us",
            stats::median(&countersign),
            "us",
        ),
        metric("ledger.add_witness_us", stats::median(&add), "us"),
        metric("ledger.prove_us", stats::median(&prove), "us"),
        metric("ledger.proof_verify_us", stats::median(&verify), "us"),
        metric(
            "ledger.proof_path_len",
            path.iter().sum::<f64>() / path.len().max(1) as f64,
            "count",
        ),
        metric("ledger.sign.hmac_ns", hmac, "ns"),
        metric(
            "ledger.verify_events_per_s",
            size.events as f64 / (us / 1e6),
            "1/s",
        ),
    ]
}

/// A small pipeline trained briefly: stage costs depend on the network's
/// shape, not on how well it was trained.
fn perganet(
    seed: u64,
    size: &Size,
    ctx: &ObsCtx,
    collector: &Collector,
    all: &mut Vec<Span>,
) -> Vec<Metric> {
    let train = crate::perganet::corpus(seed, 300, size.train_per_damage);
    let images = crate::perganet::corpus(seed, 400, size.images.div_ceil(3));
    let e = size.epochs;
    let config = TrainConfig {
        classifier_epochs: e,
        text_epochs: e,
        signum_epochs: e,
        ..TrainConfig::default()
    };
    let (net, us) = time_us(|| {
        let mut net = PergaNet::new(11);
        net.train(&train, config);
        net
    });
    let mut net = net.with_obs(ctx.clone());
    for p in &images {
        black_box(net.analyze(&p.image));
    }
    let spans = collector.take();
    let p50 = |name: &str| stats::median(&durations_us(&spans, name));
    let metrics = vec![
        metric("perganet.train_s", us / 1e6, "s"),
        metric(
            "perganet.stage1.classify_us",
            p50("perganet.stage1.classify"),
            "us",
        ),
        metric(
            "perganet.stage2.detect_text_us",
            p50("perganet.stage2.detect_text"),
            "us",
        ),
        metric(
            "perganet.stage3.detect_signum_us",
            p50("perganet.stage3.detect_signum"),
            "us",
        ),
        metric(
            "perganet.analyze_us",
            p50("perganet.pipeline.analyze"),
            "us",
        ),
    ];
    all.extend(spans);
    metrics
}

/// Run every probe under the traced context; spans they leave in the
/// collector are appended to `all`.
pub fn run(
    seed: u64,
    size: &Size,
    ctx: &ObsCtx,
    collector: &Collector,
    all: &mut Vec<Span>,
    out: &mut Outcome,
) -> Vec<Metric> {
    let _root = ctx.span("bench.probe");
    let mut rng = StdRng::seed_from_stream(seed, 4);
    let mut metrics = call(ctx, "bench.probe.hash", || hash(&mut rng, size)).0;
    metrics.extend(
        call(ctx, "bench.probe.archival", || {
            archival(seed, size, ctx, collector, all, out)
        })
        .0,
    );
    metrics.extend(call(ctx, "bench.probe.wal", || wal(&mut rng, size, out)).0);
    metrics.extend(call(ctx, "bench.probe.service", || service(&mut rng, size, out)).0);
    let par = per_call_ns(size.samples, 10, || {
        itrust_par::par_map(black_box(&[0u8, 1]), |x| *x)
    });
    metrics.push(metric("par.par_map_dispatch_us", par / 1e3, "us"));
    let live = ObsCtx::new();
    metrics.push(metric(
        "obs.counter_add_ns",
        per_call_ns(size.samples, 1_000, || {
            live.counter_add("bench.probe.counter", 1)
        }),
        "ns",
    ));
    metrics.push(metric(
        "obs.hist_record_ns",
        per_call_ns(size.samples, 1_000, || {
            live.hist_record("bench.probe.hist", 4_321)
        }),
        "ns",
    ));
    metrics.push(metric(
        "obs.span_ns",
        per_call_ns(size.samples, 1_000, || live.span("bench.probe.span")),
        "ns",
    ));
    metrics.extend(call(ctx, "bench.probe.ledger", || ledger(seed, size, out)).0);
    metrics.extend(
        call(ctx, "bench.probe.perganet", || {
            perganet(seed, size, ctx, collector, all)
        })
        .0,
    );
    metrics
}
