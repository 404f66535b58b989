//! The ESCS simulation engine.
//!
//! A nonhomogeneous-Poisson call stream (regional base rates × the external
//! timeline's multipliers, via thinning) drives a queueing network of PSAPs
//! (finite trunks, overflow transfer, caller abandonment) and responder
//! pools (finite units, dispatch queues). Runs are bit-deterministic in
//! `(config, seed)` — the property the preservation/replay experiment
//! depends on.
//!
//! Arrival generation is parallel and the event loop is RNG-free: each
//! region's candidate stream is sampled up front in its own seeded
//! sub-stream (split from the run seed via `SeedableRng::seed_from_stream`),
//! every random quantity a call will ever need is drawn at acceptance time,
//! and the per-region streams are merged by `(time, region)`. The event
//! loop then only consumes pre-sampled values, so [`SimOutput`] is
//! byte-identical for every `ITRUST_THREADS` setting.

use crate::call::{CallCategory, CallOutcome, CallRecord, CallStats};
use crate::event::{EventQueue, SimTime};
use crate::external::ExternalTimeline;
use crate::graph::{PsapId, RegionId, ResponderKind, Topology};
use crate::stats::{exponential, gaussian, log_normal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Engine version string embedded in run provenance (paradata).
pub const ENGINE_VERSION: &str = "escs-sim/0.1.0";

/// Simulation configuration: everything a replay needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Network topology.
    pub topology: Topology,
    /// External (weather/traffic/geopolitical) context.
    pub timeline: ExternalTimeline,
    /// Arrivals are generated for `[0, duration_ms)`.
    pub duration_ms: u64,
    /// RNG seed (full determinism).
    pub seed: u64,
    /// Log-normal (mu, sigma) of call handling time, ms-scale.
    pub handling_lognormal: (f64, f64),
    /// Mean caller patience before abandoning, ms (exponential).
    pub mean_patience_ms: f64,
    /// Log-normal (mu, sigma) of unit travel time, ms-scale.
    pub travel_lognormal: (f64, f64),
    /// Log-normal (mu, sigma) of on-scene time, ms-scale.
    pub on_scene_lognormal: (f64, f64),
}

impl SimConfig {
    /// Sensible defaults over a topology: ~90 s handling, ~45 s patience,
    /// ~6 min travel, ~20 min on scene.
    pub fn with_defaults(topology: Topology, timeline: ExternalTimeline, duration_ms: u64, seed: u64) -> Self {
        SimConfig {
            topology,
            timeline,
            duration_ms,
            seed,
            handling_lognormal: ((90_000.0f64).ln(), 0.35),
            mean_patience_ms: 45_000.0,
            travel_lognormal: ((360_000.0f64).ln(), 0.4),
            on_scene_lognormal: ((1_200_000.0f64).ln(), 0.3),
        }
    }

    /// Content digest of the canonical config encoding — identifies the
    /// scenario in provenance records.
    pub fn digest(&self) -> trustdb::hash::Digest {
        // itrust-lint: allow(panic-reachable) — plain numeric config serializes infallibly; digest() is an identity, not an I/O path
        trustdb::hash::sha256(&serde_json::to_vec(self).expect("config serializable"))
    }
}

/// Artifact provenance of one run ("simulation artifact provenance
/// information as exemplars", §3.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunProvenance {
    /// Engine version.
    pub engine: String,
    /// Digest of the exact configuration.
    pub config_digest: String,
    /// RNG seed.
    pub seed: u64,
    /// Events processed.
    pub events_processed: u64,
    /// Calls generated.
    pub calls_generated: u64,
}

/// Complete output of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimOutput {
    /// Every call's detail record, in call-id order.
    pub calls: Vec<CallRecord>,
    /// Aggregate statistics.
    pub stats: CallStats,
    /// Run provenance / paradata.
    pub provenance: RunProvenance,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Call taker finished handling a call at a PSAP.
    AnswerComplete { psap: usize, call: usize },
    /// A queued caller's patience expires.
    Abandon { call: usize },
    /// A dispatched unit reaches the scene.
    UnitArrive { call: usize, region: usize, kind: ResponderKind, unit: usize },
    /// A unit clears the scene and becomes available.
    UnitClear { region: usize, kind: ResponderKind, unit: usize },
}

/// One accepted call with every random quantity it will ever need,
/// pre-sampled at generation time from its region's dedicated RNG stream.
/// Pre-sampling unconditionally (even `patience_ms` for calls that are
/// never queued, or `travel_ms` for calls that are never dispatched) is
/// what decouples the region streams from queueing dynamics: the values a
/// call draws can never depend on what happened to earlier calls.
#[derive(Debug, Clone)]
struct ArrivalDraw {
    at: SimTime,
    region: usize,
    category: CallCategory,
    phone_suffix: u32,
    gps: (f64, f64),
    handling_ms: SimTime,
    patience_ms: SimTime,
    travel_ms: SimTime,
    on_scene_ms: SimTime,
}

/// Generate one region's accepted arrivals for `[0, duration_ms)`.
///
/// The stream index is `region + 1`: stream 0 of a seed is the base
/// `seed_from_u64` stream, which other (non-regional) consumers of the run
/// seed may already be using.
fn region_arrivals(config: &SimConfig, region: usize, max_multiplier: f64) -> Vec<ArrivalDraw> {
    let mut rng = StdRng::seed_from_stream(config.seed, region as u64 + 1);
    // itrust-lint: allow(panic-reachable) — agent and cell indices are bounded by the grid dims fixed at setup
    let region_cfg = &config.topology.regions[region];
    let envelope = region_cfg.base_rate_per_min * max_multiplier / 60_000.0; // per ms
    let (clat, clon) = region_cfg.centroid;
    let mut draws = Vec::new();
    let mut t = exponential(&mut rng, envelope).ceil() as SimTime;
    while t < config.duration_ms {
        // Thinning: accept with probability rate(t)/envelope-rate.
        let actual =
            region_cfg.base_rate_per_min * config.timeline.multiplier(t, region) / 60_000.0;
        if rng.gen::<f64>() < actual / envelope {
            let category = sample_category(&mut rng);
            let phone_suffix = rng.gen_range(0..10_000u32);
            let gps = (clat + 0.02 * gaussian(&mut rng), clon + 0.02 * gaussian(&mut rng));
            let handling_ms =
                log_normal(&mut rng, config.handling_lognormal.0, config.handling_lognormal.1)
                    .ceil() as SimTime;
            let patience_ms =
                exponential(&mut rng, 1.0 / config.mean_patience_ms).ceil().max(1.0) as SimTime;
            let travel_ms =
                log_normal(&mut rng, config.travel_lognormal.0, config.travel_lognormal.1).ceil()
                    as SimTime;
            let on_scene_ms =
                log_normal(&mut rng, config.on_scene_lognormal.0, config.on_scene_lognormal.1)
                    .ceil() as SimTime;
            draws.push(ArrivalDraw {
                at: t,
                region,
                category,
                phone_suffix,
                gps,
                handling_ms,
                patience_ms,
                travel_ms,
                on_scene_ms,
            });
        }
        // Inter-arrival times are ≥ 1 ms, so within a region arrival times
        // are strictly increasing — (at, region) totally orders the merge.
        t += exponential(&mut rng, envelope).ceil().max(1.0) as SimTime;
    }
    draws
}

struct PsapState {
    busy_trunks: usize,
    queue: VecDeque<usize>,
}

struct PoolState {
    units_busy: Vec<bool>,
    pending: VecDeque<usize>, // call indices awaiting a unit
}

/// Run the simulation to completion (arrivals stop at `duration_ms`; the
/// event list then drains so every accepted call reaches a terminal state),
/// recording telemetry (spans, dispatch counters, queue-depth high-water
/// gauge) into `obs`.
pub fn run(config: &SimConfig, obs: &itrust_obs::ObsCtx) -> SimOutput {
    let _span = itrust_obs::span!(obs, "escs.sim.run");
    let problems = config.topology.validate();
    assert!(problems.is_empty(), "invalid topology: {problems:?}");
    let mut queue: EventQueue<Event> = EventQueue::new();
    let n_regions = config.topology.regions.len();

    // Per-region thinning envelope: base rate × an upper bound on the
    // timeline multiplier (product of all surge multipliers ≥ 1).
    let max_multiplier: f64 = config
        .timeline
        .events
        .iter()
        .map(|e| e.rate_multiplier.max(1.0))
        .product::<f64>()
        .max(1.0);

    // Generate every region's arrival stream (parallel — each region has
    // its own RNG stream), then merge deterministically by (time, region).
    let arrivals: Vec<ArrivalDraw> = obs.time("escs.sim.generate_arrivals", || {
        let per_region: Vec<Vec<ArrivalDraw>> =
            itrust_par::par_map_indices(n_regions, |ri| region_arrivals(config, ri, max_multiplier));
        let mut all: Vec<ArrivalDraw> = per_region.into_iter().flatten().collect();
        all.sort_by_key(|d| (d.at, d.region));
        all
    });

    let mut psaps: Vec<PsapState> = config
        .topology
        .psaps
        .iter()
        .map(|_| PsapState { busy_trunks: 0, queue: VecDeque::new() })
        .collect();
    // Pools indexed by (region, kind).
    let pool_units = |topology: &Topology, region: usize, kind: ResponderKind| -> usize {
        topology
            .pools
            .iter()
            .filter(|p| p.region.0 == region && p.kind == kind)
            .map(|p| p.units)
            .sum()
    };
    let kind_index = |k: ResponderKind| match k {
        ResponderKind::Fire => 0usize,
        ResponderKind::Police => 1,
        ResponderKind::Ems => 2,
    };
    let mut pools: Vec<PoolState> = Vec::with_capacity(n_regions * 3);
    for ri in 0..n_regions {
        for kind in ResponderKind::ALL {
            pools.push(PoolState {
                units_busy: vec![false; pool_units(&config.topology, ri, kind)],
                pending: VecDeque::new(),
            });
        }
    }
    let pool_at = |region: usize, kind: ResponderKind| region * 3 + kind_index(kind);

    let mut calls: Vec<CallRecord> = Vec::new();
    let mut waiting: Vec<bool> = Vec::new(); // call index → still in a queue

    // Handles hoisted out of the event loop: the loop body must stay pure
    // atomics, not per-iteration registry lookups.
    let dispatched = obs.counter("escs.sim.events_dispatched");
    let depth_high_water = obs.gauge("escs.sim.queue_depth_max");

    // Helper closures are avoided where they would need &mut captures;
    // the match below is explicit instead. The pre-generated arrival stream
    // is merged with the scheduled-event queue in time order; an arrival
    // wins ties (any fixed rule works — it just must not depend on the
    // thread count).
    let mut next_arrival = 0usize;
    while next_arrival < arrivals.len() || !queue.is_empty() {
        let take_arrival = match queue.peek_time() {
            // itrust-lint: allow(panic-reachable) — agent and cell indices are bounded by the grid dims fixed at setup
            Some(t) => next_arrival < arrivals.len() && arrivals[next_arrival].at <= t,
            None => next_arrival < arrivals.len(),
        };
        if take_arrival {
            let draw = &arrivals[next_arrival];
            next_arrival += 1;
            dispatched.inc();
            let now = draw.at;
            let region = draw.region;
            let region_cfg = &config.topology.regions[region];
            // Create the call. Every accepted draw becomes exactly one call,
            // so call_id indexes both `calls` and `arrivals`.
            let call_id = calls.len();
            let call = CallRecord {
                call_id: call_id as u64,
                region: RegionId(region),
                answered_by: None,
                transferred: false,
                caller_phone: format!("206-555-{:04}", draw.phone_suffix),
                gps: draw.gps,
                category: draw.category,
                arrived_ms: now,
                answered_ms: None,
                handling_ms: None,
                dispatched: None,
                responder_unit: None,
                on_scene_ms: None,
                outcome: CallOutcome::Abandoned, // until proven otherwise
            };
            calls.push(call);
            waiting.push(false);
            // Route: primary PSAP, with overflow transfer when congested.
            let primary = region_cfg.primary_psap.0;
            let mut target = primary;
            let pcfg = &config.topology.psaps[primary];
            if psaps[primary].queue.len() >= pcfg.overflow_threshold {
                if let Some(partner) = pcfg.overflow_to {
                    target = partner.0;
                    calls[call_id].transferred = true;
                }
            }
            calls[call_id].answered_by = Some(PsapId(target));
            let tcfg = &config.topology.psaps[target];
            if psaps[target].busy_trunks < tcfg.trunks {
                psaps[target].busy_trunks += 1;
                calls[call_id].answered_ms = Some(now);
                calls[call_id].handling_ms = Some(draw.handling_ms);
                queue.schedule(
                    now + draw.handling_ms,
                    Event::AnswerComplete { psap: target, call: call_id },
                );
            } else {
                psaps[target].queue.push_back(call_id);
                waiting[call_id] = true;
                queue.schedule(now + draw.patience_ms, Event::Abandon { call: call_id });
            }
            continue;
        }
        let Some((now, event)) = queue.pop() else {
            // `take_arrival` was false with an empty queue, which the loop
            // condition excludes; treat defensively as a drained simulation
            // instead of panicking mid-run.
            break;
        };
        dispatched.inc();
        depth_high_water.max_of(queue.len() as i64);
        match event {
            Event::Abandon { call } => {
                if waiting[call] {
                    waiting[call] = false;
                    calls[call].outcome = CallOutcome::Abandoned;
                    calls[call].answered_by = None;
                    // Lazy removal: the PSAP queue skips non-waiting entries.
                }
            }
            Event::AnswerComplete { psap, call } => {
                // Dispatch the just-handled call if its category requires it.
                let region = calls[call].region.0;
                match calls[call].category.responder() {
                    None => {
                        calls[call].outcome = CallOutcome::AnsweredNoDispatch;
                    }
                    Some(kind) => {
                        calls[call].dispatched = Some(kind);
                        let pi = pool_at(region, kind);
                        if let Some(unit) =
                            pools[pi].units_busy.iter().position(|&b| !b)
                        {
                            pools[pi].units_busy[unit] = true;
                            dispatch_unit(
                                &mut queue, &mut calls, &arrivals, call, region, kind, unit, now,
                            );
                        } else {
                            pools[pi].pending.push_back(call);
                        }
                    }
                }
                // Free the trunk and serve the next waiting caller.
                psaps[psap].busy_trunks -= 1;
                while let Some(next) = psaps[psap].queue.pop_front() {
                    if !waiting[next] {
                        continue; // abandoned while queued
                    }
                    waiting[next] = false;
                    psaps[psap].busy_trunks += 1;
                    calls[next].answered_ms = Some(now);
                    let handling = arrivals[next].handling_ms;
                    calls[next].handling_ms = Some(handling);
                    queue.schedule(now + handling, Event::AnswerComplete { psap, call: next });
                    break;
                }
            }
            Event::UnitArrive { call, region, kind, unit } => {
                calls[call].on_scene_ms = Some(now);
                calls[call].outcome = CallOutcome::Completed;
                let on_scene = arrivals[call].on_scene_ms;
                queue.schedule(now + on_scene, Event::UnitClear { region, kind, unit });
            }
            Event::UnitClear { region, kind, unit } => {
                let pi = pool_at(region, kind);
                if let Some(next) = pools[pi].pending.pop_front() {
                    dispatch_unit(
                        &mut queue, &mut calls, &arrivals, next, region, kind, unit, now,
                    );
                } else {
                    pools[pi].units_busy[unit] = false;
                }
            }
        }
    }

    let stats = CallStats::from_records(&calls);
    let provenance = RunProvenance {
        engine: ENGINE_VERSION.to_string(),
        config_digest: config.digest().to_hex(),
        seed: config.seed,
        events_processed: queue.processed() + arrivals.len() as u64,
        calls_generated: calls.len() as u64,
    };
    SimOutput { calls, stats, provenance }
}

#[allow(clippy::too_many_arguments)]
fn dispatch_unit(
    queue: &mut EventQueue<Event>,
    calls: &mut [CallRecord],
    arrivals: &[ArrivalDraw],
    call: usize,
    region: usize,
    kind: ResponderKind,
    unit: usize,
    now: SimTime,
) {
    // itrust-lint: allow(panic-reachable) — agent and cell indices are bounded by the grid dims fixed at setup
    calls[call].responder_unit = Some(format!("{kind:?}-{region}-{unit}"));
    queue.schedule(now + arrivals[call].travel_ms, Event::UnitArrive { call, region, kind, unit });
}

fn sample_category(rng: &mut StdRng) -> CallCategory {
    let x: f64 = rng.gen();
    if x < 0.35 {
        CallCategory::Medical
    } else if x < 0.45 {
        CallCategory::Fire
    } else if x < 0.70 {
        CallCategory::Crime
    } else if x < 0.90 {
        CallCategory::Traffic
    } else {
        CallCategory::NonEmergency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Topology;
    use itrust_obs::ObsCtx;

    fn hour_run(seed: u64) -> SimOutput {
        let config = SimConfig::with_defaults(
            Topology::single_city(),
            ExternalTimeline::quiet(),
            3_600_000, // one hour
            seed,
        );
        run(&config, &ObsCtx::null())
    }

    #[test]
    fn generates_plausible_call_volume() {
        let out = hour_run(1);
        // Base rate 2/min over 60 min ≈ 120 calls.
        assert!(
            (80..=160).contains(&out.calls.len()),
            "got {} calls",
            out.calls.len()
        );
        assert_eq!(out.stats.total, out.calls.len());
        assert!(out.provenance.events_processed > 0);
    }

    #[test]
    fn identical_seed_reproduces_bitwise() {
        let a = hour_run(42);
        let b = hour_run(42);
        assert_eq!(a.calls, b.calls);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.provenance, b.provenance);
    }

    #[test]
    fn output_is_byte_identical_across_thread_counts() {
        let serial = itrust_par::with_threads(1, || hour_run(42));
        for threads in [2, 4] {
            let par = itrust_par::with_threads(threads, || hour_run(42));
            assert_eq!(
                serde_json::to_vec(&par).unwrap(),
                serde_json::to_vec(&serial).unwrap(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = hour_run(1);
        let b = hour_run(2);
        assert_ne!(a.calls, b.calls);
    }

    #[test]
    fn every_call_reaches_a_terminal_state() {
        let out = hour_run(7);
        for c in &out.calls {
            match c.outcome {
                CallOutcome::Completed => {
                    assert!(c.answered_ms.is_some());
                    assert!(c.dispatched.is_some());
                    assert!(c.on_scene_ms.is_some());
                    assert!(c.responder_unit.is_some());
                }
                CallOutcome::AnsweredNoDispatch => {
                    assert!(c.answered_ms.is_some());
                    assert_eq!(c.category, CallCategory::NonEmergency);
                    assert!(c.on_scene_ms.is_none());
                }
                CallOutcome::Abandoned => {
                    assert!(c.answered_ms.is_none());
                    assert!(c.on_scene_ms.is_none());
                }
            }
        }
    }

    #[test]
    fn timestamps_are_causally_ordered() {
        let out = hour_run(9);
        for c in &out.calls {
            if let Some(ans) = c.answered_ms {
                assert!(ans >= c.arrived_ms);
                if let Some(scene) = c.on_scene_ms {
                    assert!(scene > ans);
                }
            }
        }
    }

    #[test]
    fn surge_increases_volume_and_delay() {
        let duration = 3_600_000u64;
        let quiet = run(
            &SimConfig::with_defaults(
                Topology::single_city(),
                ExternalTimeline::quiet(),
                duration,
                5,
            ),
            &ObsCtx::null(),
        );
        let disaster = run(
            &SimConfig::with_defaults(
                Topology::single_city(),
                ExternalTimeline::disaster(duration),
                duration,
                5,
            ),
            &ObsCtx::null(),
        );
        assert!(
            disaster.calls.len() as f64 > quiet.calls.len() as f64 * 1.3,
            "disaster {} vs quiet {}",
            disaster.calls.len(),
            quiet.calls.len()
        );
        // Under surge, queueing appears: more abandonment or worse delays.
        assert!(
            disaster.stats.abandonment_rate() >= quiet.stats.abandonment_rate()
                || disaster.stats.p95_answer_delay_ms > quiet.stats.p95_answer_delay_ms,
            "disaster should stress the system: {:?} vs {:?}",
            disaster.stats,
            quiet.stats
        );
    }

    #[test]
    fn overflow_transfers_occur_in_congested_metro() {
        // Tiny PSAPs with low thresholds under a disaster surge.
        let mut topology = Topology::metro(3);
        for p in &mut topology.psaps {
            p.trunks = 1;
            p.overflow_threshold = 1;
        }
        let duration = 3_600_000;
        let out = run(
            &SimConfig::with_defaults(topology, ExternalTimeline::disaster(duration), duration, 11),
            &ObsCtx::null(),
        );
        assert!(
            out.stats.transferred > 0,
            "expected overflow transfers, stats {:?}",
            out.stats
        );
    }

    #[test]
    fn category_mix_roughly_matches_weights() {
        let out = run(
            &SimConfig::with_defaults(
                Topology::single_city(),
                ExternalTimeline::quiet(),
                36_000_000, // 10 hours for volume
                13,
            ),
            &ObsCtx::null(),
        );
        let n = out.calls.len() as f64;
        let frac = |cat: CallCategory| {
            out.calls.iter().filter(|c| c.category == cat).count() as f64 / n
        };
        assert!((frac(CallCategory::Medical) - 0.35).abs() < 0.05);
        assert!((frac(CallCategory::NonEmergency) - 0.10).abs() < 0.04);
    }

    #[test]
    fn provenance_identifies_the_scenario() {
        let config = SimConfig::with_defaults(
            Topology::single_city(),
            ExternalTimeline::quiet(),
            600_000,
            21,
        );
        let out = run(&config, &ObsCtx::null());
        assert_eq!(out.provenance.engine, ENGINE_VERSION);
        assert_eq!(out.provenance.config_digest, config.digest().to_hex());
        assert_eq!(out.provenance.seed, 21);
        assert_eq!(out.provenance.calls_generated as usize, out.calls.len());
    }
}
