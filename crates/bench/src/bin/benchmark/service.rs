//! `service`: a durable 8-shard `ShardedStore` behind a `ServiceExecutor`,
//! four tenants in D10's mix, small records.
//!
//! Per-operation overhead dominates: routing, WAL framing, the audit
//! append, obs counters and tick dispatch. Payloads (128–1151 B) never
//! reach parallel hashing and gets hash nothing; the closed phase's
//! 256-request ticks span several shards and so go through itrust-par.
//! WALs use `SyncPolicy::Never`: fsync time measures the host's disk, not
//! the program, so no run ever flushes. Each round ends with one shard's
//! fixity sweep, the incremental audit a fixity daemon would run.

use crate::openloop::{Arrivals, Pacer};
use crate::{call, mix64, stats, Env, Outcome, WorkDir};
use itrust_service::{
    Completion, ExecutorConfig, OpOutput, Quota, Request, ServiceExecutor, ShardedConfig,
    ShardedStore,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use trustdb::wal::SyncPolicy;
use trustdb::{Clock, SystemClock};

/// D10's tenants (Table 1 fonds) and their traffic weights, 30:15:15:2.
const TENANTS: [(&str, u64); 4] = [
    ("trademarks", 30),
    ("decrees", 15),
    ("inventories", 15),
    ("photographic", 2),
];

/// The latency limit the open phase is judged against: put p99, µs.
const PUT_LIMIT_US: f64 = 1_000.0;

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub shards: usize,
    /// Objects written before the store is dropped and replayed.
    pub preload: u64,
    /// The load runs in `rounds`, each an open-loop slice of `slice_ms` at
    /// `rate` requests per second, then `closed_windows` windows of
    /// `window_requests` closed-loop requests kept `outstanding` at a time,
    /// then a fixity sweep of one shard.
    pub rounds: u64,
    pub rate: u64,
    pub slice_ms: u64,
    pub closed_windows: u64,
    pub window_requests: u64,
    pub outstanding: usize,
    /// Consecutive open-loop put latencies per `p50_us` window.
    pub window: usize,
    /// How many of the newest objects the "recent" gets and re-puts pick from.
    pub recent: u64,
}

impl Size {
    /// 200k preloaded objects, then 20 rounds of a 0.25 s open slice at
    /// 20,000 req/s and 2 closed windows of 2,560 requests at
    /// `--seconds 10`.
    pub fn for_seconds(seconds: u64) -> Size {
        Size {
            shards: 8,
            preload: 20_000 * seconds,
            rounds: 2 * seconds,
            rate: 20_000,
            slice_ms: 250,
            closed_windows: 2,
            window_requests: 2_560,
            outstanding: 256,
            window: 500,
            recent: 1_000,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            shards: 2,
            preload: 50,
            rounds: 2,
            rate: 2_000,
            slice_ms: 50,
            closed_windows: 2,
            window_requests: 50,
            outstanding: 16,
            window: 20,
            recent: 20,
        }
    }
}

/// Tenant, key and payload seed of object `j`: a pure function of
/// `(seed, j)`, so a get can be checked without keeping what was put.
fn name(seed: u64, j: u64) -> (&'static str, String, u64) {
    let h = mix64(seed ^ mix64(j));
    let total: u64 = TENANTS.iter().map(|t| t.1).sum();
    let mut pick = h % total;
    let mut tenant = TENANTS[0].0;
    for (t, w) in TENANTS {
        if pick < w {
            tenant = t;
            break;
        }
        pick -= w;
    }
    (tenant, format!("obj-{j:09}"), h)
}

fn payload(h: u64) -> Vec<u8> {
    let mut bytes = vec![0u8; 128 + ((h >> 20) % 1024) as usize];
    StdRng::seed_from_u64(h).fill(&mut bytes[..]);
    bytes
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Put(u64),
    /// An identical put of an existing object: a client retry.
    Reput(u64),
    Get(u64),
}

/// The seeded request mix: 78% puts of new objects, 2% re-puts of a recent
/// object, 20% gets (half over the newest objects, half over all).
struct Mix {
    rng: StdRng,
    next: u64,
    recent: u64,
}

impl Mix {
    fn next_op(&mut self) -> Op {
        let recent = self.recent.min(self.next);
        match self.rng.gen_range(0..100u32) {
            0..=77 => {
                self.next += 1;
                Op::Put(self.next - 1)
            }
            78..=79 => Op::Reput(self.next - 1 - self.rng.gen_range(0..recent)),
            80..=89 => Op::Get(self.next - 1 - self.rng.gen_range(0..recent)),
            _ => Op::Get(self.rng.gen_range(0..self.next)),
        }
    }

    fn request(&mut self, seed: u64) -> (Op, Request) {
        let op = self.next_op();
        let req = match op {
            Op::Put(j) | Op::Reput(j) => {
                let (tenant, key, h) = name(seed, j);
                Request::Put {
                    tenant: tenant.into(),
                    key,
                    payload: payload(h).into(),
                }
            }
            Op::Get(j) => {
                let (tenant, key, _) = name(seed, j);
                Request::Get {
                    tenant: tenant.into(),
                    key,
                }
            }
        };
        (op, req)
    }
}

/// Whether a completion is exactly what its request must produce.
fn completed_right(seed: u64, op: Op, c: &Completion) -> bool {
    match (op, &c.outcome) {
        (Op::Put(_), Ok(OpOutput::Put(p))) => !p.deduplicated,
        (Op::Reput(_), Ok(OpOutput::Put(p))) => p.deduplicated,
        (Op::Get(j), Ok(OpOutput::Get(bytes))) => bytes[..] == payload(name(seed, j).2)[..],
        _ => false,
    }
}

fn register(store: &ShardedStore) -> trustdb::Result<()> {
    for (tenant, _) in TENANTS {
        store.register_tenant(tenant, Quota::unlimited())?;
    }
    Ok(())
}

/// Latencies of completed puts (re-puts included) and gets, µs.
#[derive(Default)]
struct Latencies {
    put: Vec<f64>,
    get: Vec<f64>,
}

/// The benchmark's side of the service: one executor for both phases
/// (shard audit chains need timestamps that never run backwards) and the
/// requests it has submitted, indexed by sequence number.
struct Client<'a> {
    env: &'a Env,
    exec: ServiceExecutor,
    mix: Mix,
    seed: u64,
    /// When each request was due (open phase) or submitted (closed phase).
    requests: Vec<(u64, Op)>,
}

impl Client<'_> {
    /// Submit the mix's next request, stamped `issued_ns`.
    fn submit(&mut self, out: &mut Outcome, issued_ns: u64) {
        let (op, req) = self
            .env
            .bench
            .time("bench.service.generate", || self.mix.request(self.seed));
        let (seq, _) = call(&self.env.bench, "bench.service.submit", || {
            self.exec.submit(req)
        });
        match seq {
            Ok(seq) if seq as usize == self.requests.len() => self.requests.push((issued_ns, op)),
            other => out.op(false, || format!("submit of {op:?} refused: {other:?}")),
        }
    }

    /// Run one tick and check its completions against their requests.
    fn tick(&mut self, out: &mut Outcome, clock: impl Fn() -> u64, lat: &mut Latencies) -> usize {
        let (done, _) = call(&self.env.bench, "bench.service.tick", || self.exec.tick());
        let now_ns = clock();
        let _span = self.env.bench.span("bench.service.check");
        for c in &done {
            let (issued_ns, op) = self.requests[c.seq as usize];
            let us = now_ns.saturating_sub(issued_ns) as f64 / 1e3;
            match op {
                Op::Get(_) => lat.get.push(us),
                Op::Put(_) | Op::Reput(_) => lat.put.push(us),
            }
            let ok = completed_right(self.seed, op, c);
            out.op(ok, || {
                format!("{op:?} completed wrongly: {:?}", c.outcome.as_ref().err())
            });
        }
        done.len()
    }
}

/// What the open-phase slices accumulate.
#[derive(Default)]
struct OpenStats {
    lat: Latencies,
    batches: Vec<f64>,
    late_us: Vec<f64>,
    /// Largest queue left when a slice's last request was issued.
    backlog_end: usize,
}

/// A slice of the open phase: requests fall due at `rate` for `ms`; each
/// is issued when due (or as soon after as the generator gets to it) and
/// timed from its due time to the end of the tick that completes it.
fn open_slice(client: &mut Client, out: &mut Outcome, rate: u64, ms: u64, open: &mut OpenStats) {
    let bench = &client.env.bench;
    let _phase = bench.span("bench.service.open");
    let mut arrivals = Arrivals::new(&[rate], ms).peekable();
    let mut pacer = Pacer::start();
    loop {
        // One span per loop turn keeps the cost of recording the many
        // per-request spans inside the turn it belongs to.
        let _step = bench.span("bench.service.step");
        let now = pacer.now_ns();
        while let Some(a) = arrivals.next_if(|a| a.due_ns <= now) {
            pacer.issued(a.due_ns);
            client.submit(out, a.due_ns);
        }
        if arrivals.peek().is_none() {
            open.backlog_end = open.backlog_end.max(client.exec.queue_depth());
        }
        if client.exec.queue_depth() == 0 {
            match arrivals.peek() {
                Some(a) => {
                    let due = a.due_ns;
                    bench.time("bench.service.idle", || pacer.wait_until(due));
                    continue;
                }
                None => break,
            }
        }
        let done = client.tick(out, || pacer.now_ns(), &mut open.lat);
        open.batches.push(done as f64);
    }
    open.late_us.extend_from_slice(pacer.lateness_us());
}

/// A window of the closed phase: `n` requests, `outstanding` of them in
/// flight, refilled after every tick. Returns `(requests, seconds)`.
fn closed_window(
    client: &mut Client,
    out: &mut Outcome,
    n: u64,
    outstanding: usize,
    lat: &mut Latencies,
) -> (f64, f64) {
    let _phase = client.env.bench.span("bench.service.closed");
    let start = Instant::now();
    let clock = || start.elapsed().as_nanos() as u64;
    let mut completed = 0u64;
    while completed < n {
        let _step = client.env.bench.span("bench.service.step");
        for _ in 0..outstanding.min((n - completed) as usize) {
            client.submit(out, clock());
        }
        completed += client.tick(out, clock, lat).max(1) as u64;
    }
    (completed as f64, start.elapsed().as_secs_f64())
}

pub fn run(seed: u64, size: &Size, env: &Env) -> Outcome {
    let mut out = Outcome {
        window: size.window,
        ..Outcome::default()
    };
    let dir = match WorkDir::new("service") {
        Ok(d) => d,
        Err(e) => {
            out.fail(format!("cannot create the WAL directory: {e}"));
            return out;
        }
    };
    let config = ShardedConfig::durable(size.shards, dir.path(), SyncPolicy::Never);

    // Preload (not timed): write the history the set-up replays.
    let expected = {
        let _phase = env.bench.span("bench.service.preload");
        let store = env.bench.time("bench.service.open", || {
            ShardedStore::open(&config, env.obs.clone())
        });
        let store = match store.and_then(|s| register(&s).map(|()| s)) {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("cannot open the store: {e}"));
                return out;
            }
        };
        env.bench.time("bench.service.put", || {
            for j in 0..size.preload {
                let (tenant, key, h) = name(seed, j);
                let put = store.put(tenant, &key, payload(h).into(), j);
                out.op(put.is_ok(), || format!("preload put {j}: {put:?}"));
            }
        });
        let expected = env.bench.time("bench.service.fixity_roots", || {
            (store.fixity_roots(), store.object_count())
        });
        env.bench.time("bench.service.drop", || drop(store));
        expected
    };

    // Set-up: reopen, replaying every shard's WAL; `setups` times.
    let mut store = None;
    for _ in 0..env.setups {
        let _phase = env.bench.span("bench.service.setup");
        env.bench.time("bench.service.drop", || drop(store.take()));
        let (opened, us) = call(&env.bench, "bench.service.open", || {
            let s = ShardedStore::open(&config, env.obs.clone())?;
            register(&s)?;
            Ok::<_, trustdb::Error>(s)
        });
        out.setup_s.push(us / 1e6);
        let Ok(opened) = opened else {
            out.fail(format!("WAL replay failed: {:?}", opened.err()));
            return out;
        };
        let got = env.bench.time("bench.service.fixity_roots", || {
            (opened.fixity_roots(), opened.object_count())
        });
        out.op(got == expected, || {
            "fixity roots or object count changed across WAL replay".into()
        });
        store = Some(Arc::new(opened));
    }
    let Some(store) = store else { return out };

    // Every `Wal::append_batch` call is one span and one `write_all` of its
    // staged frames, however many frames it carries.
    let writes = env.obs.histogram("trustdb.wal.append");
    let writes_before = writes.count();
    let dedup_before = env.obs.counter("service.store.dedup_hits").get();
    // The audits stamp their chain entries from the executor's clock, so
    // every shard's timestamps keep rising.
    let clock = Arc::new(SystemClock::default());
    let mut client = Client {
        env,
        exec: ServiceExecutor::new(store.clone(), clock.clone(), ExecutorConfig::unthrottled()),
        mix: Mix {
            rng: StdRng::seed_from_stream(seed, 1),
            next: size.preload,
            recent: size.recent,
        },
        seed,
        requests: Vec::new(),
    };
    let mut open = OpenStats::default();
    let mut closed_lat = Latencies::default();
    for round in 0..size.rounds {
        open_slice(&mut client, &mut out, size.rate, size.slice_ms, &mut open);
        for _ in 0..size.closed_windows {
            let window = closed_window(
                &mut client,
                &mut out,
                size.window_requests,
                size.outstanding,
                &mut closed_lat,
            );
            out.rate_windows.push(window);
        }
        // An incremental audit: one shard's fixity sweep and chain check.
        let _phase = env.bench.span("bench.service.audit");
        let shard = &store.shards()[(round % size.shards as u64) as usize];
        let (report, us) = call(&env.bench, "bench.service.shard_verify", || {
            shard.verify(clock.now_ms())
        });
        let checked = report.as_ref().map_or(0, |r| r.checked);
        let clean = report.as_ref().is_ok_and(|r| r.is_clean()) && checked == shard.object_count();
        out.op(clean, || {
            format!("shard {} audit: {report:?}", shard.index())
        });
        out.audits.push((checked as f64, us / 1e6));
    }
    let put = stats::summarize(&open.lat.put);
    let batch = stats::summarize(&open.batches);
    let backlog = open.backlog_end as f64;
    out.line(
        "service.put_p99_us",
        stats::percentile_of(&open.lat.put, 99.0),
        "us",
    );
    out.line("service.get_p50_us", stats::median(&open.lat.get), "us");
    out.line(
        "service.open.gen_late_p99_us",
        stats::percentile_of(&open.late_us, 99.0),
        "us",
    );
    out.line("service.open.batch_p50", batch.p50, "count");
    out.line("service.open.backlog_end", backlog, "count");
    let met = put.tail <= PUT_LIMIT_US && backlog <= batch.tail.max(1.0);
    out.line(
        "service.open.limit_met",
        if met { 1.0 } else { 0.0 },
        "bool",
    );
    out.line(
        "service.closed.put_p99_us",
        stats::percentile_of(&closed_lat.put, 99.0),
        "us",
    );
    out.latencies_us = open.lat.put;
    let objects_put = client.mix.next;
    drop(client);

    // The full audit, once, over every shard.
    let objects = store.object_count();
    {
        let _phase = env.bench.span("bench.service.final_audit");
        let (reports, us) = call(&env.bench, "bench.service.verify_all", || {
            store.verify_all(clock.now_ms())
        });
        let clean = reports.as_ref().is_ok_and(|r| {
            r.iter().all(|r| r.is_clean()) && r.iter().map(|r| r.checked).sum::<usize>() == objects
        });
        out.op(clean && objects as u64 == objects_put, || {
            format!("verify_all over {objects} objects: {reports:?}")
        });
        out.line(
            "service.verify_all_objects_per_s",
            objects as f64 / (us / 1e6),
            "1/s",
        );
    }

    let wal_bytes = dir.bytes();
    let frames: u64 = store.shards().iter().map(|s| s.wal_frames()).sum();
    out.line(
        "service.wal.bytes_per_user_byte",
        wal_bytes as f64 / store.payload_bytes() as f64,
        "ratio",
    );
    out.count("service.objects", objects as f64);
    out.count("service.payload_bytes", store.payload_bytes() as f64);
    out.count("service.wal_bytes", wal_bytes as f64);
    out.count("service.wal_frames", frames as f64);
    // Not a deterministic count: a WAL that batched a tick's frames into
    // one write would make it depend on how the ticks fell.
    out.line(
        "service.wal_write_calls",
        (writes.count() - writes_before) as f64,
        "count",
    );
    out.count(
        "service.dedup_hits",
        (env.obs.counter("service.store.dedup_hits").get() - dedup_before) as f64,
    );
    for root in store.fixity_roots() {
        out.mix(&root.0);
    }
    out.fingerprint("service.fingerprint");
    out
}
