//! D1 — ESCS simulator scaling: throughput and service quality versus
//! network size and load (quiet vs disaster), plus replay fidelity.

use escs::external::ExternalTimeline;
use escs::graph::Topology;
use escs::replay::divergence;
use escs::sim::{run as simulate, SimConfig};

/// Result row for one (size, load) cell.
#[derive(Debug, Clone)]
pub struct SimRow {
    /// PSAP count.
    pub psaps: usize,
    /// Scenario label ("quiet" / "disaster").
    pub scenario: &'static str,
    /// Calls generated.
    pub calls: usize,
    /// Simulated calls per wall-clock second.
    pub calls_per_sec: f64,
    /// Abandonment rate.
    pub abandonment: f64,
    /// p95 answer delay (s).
    pub p95_answer_s: f64,
    /// Replay divergence (re-run with the same config).
    pub replay_divergence: usize,
}

/// Sweep {3, 10, 25} PSAPs × {quiet, disaster} over a 2-hour day.
pub fn run(obs: &itrust_obs::ObsCtx) -> (Vec<SimRow>, String) {
    let duration = 2 * 3_600_000u64;
    let mut rows = Vec::new();
    for &n in &[3usize, 10, 25] {
        for (scenario, timeline) in [
            ("quiet", ExternalTimeline::quiet()),
            ("disaster", ExternalTimeline::disaster(duration)),
        ] {
            let config =
                SimConfig::with_defaults(Topology::metro(n), timeline, duration, 7_000 + n as u64);
            let (output, secs) = super::timed(|| simulate(&config, obs));
            let replay = simulate(&config, obs);
            rows.push(SimRow {
                psaps: n,
                scenario,
                calls: output.calls.len(),
                calls_per_sec: output.calls.len() as f64 / secs.max(1e-9),
                abandonment: output.stats.abandonment_rate(),
                p95_answer_s: output.stats.p95_answer_delay_ms / 1000.0,
                replay_divergence: divergence(&output.calls, &replay.calls),
            });
        }
    }
    let mut out = String::from(
        "D1 — ESCS simulator scaling (2 simulated hours per cell)\n\
         PSAPs   scenario    calls   abandon%   p95 answer (s)   replay divergence\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:>5} {:>10} {:>8} {:>9.1} {:>16.1} {:>19}\n",
            r.psaps,
            r.scenario,
            r.calls,
            r.abandonment * 100.0,
            r.p95_answer_s,
            r.replay_divergence
        ));
    }
    (rows, out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn disaster_stresses_and_replay_is_exact() {
        let (rows, _) = super::run(&itrust_obs::ObsCtx::null());
        for pair in rows.chunks(2) {
            let quiet = &pair[0];
            let disaster = &pair[1];
            assert!(disaster.calls > quiet.calls);
            assert_eq!(quiet.replay_divergence, 0);
            assert_eq!(disaster.replay_divergence, 0);
        }
    }
}
