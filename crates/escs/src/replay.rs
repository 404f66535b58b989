//! Replay of preserved scenarios.
//!
//! Section 3.1 motivates preservation by "re-creation of past events (as
//! might be done to support training or to explore the effects of changes
//! in policies and procedures)". Because the simulator is deterministic in
//! `(config, seed)`, a preserved configuration replays to *exactly* the
//! preserved outcome — and [`ReplayReport::divergence`] quantifies any gap
//! on the privacy-invariant fields (sanitization removes phone/GPS detail,
//! so those fields are excluded from the comparison by construction).
//!
//! The same machinery answers the "what if" question: [`replay_modified`]
//! re-runs the preserved scenario under an edited topology (more trunks,
//! different overflow policy) and reports the counterfactual statistics.

use crate::call::{CallRecord, CallStats};
use crate::graph::Topology;
use crate::preserve::{load_run, PreserveError, PreservedRun};
use crate::sim::{run, SimConfig, SimOutput};
use archival_core::ingest::Repository;
use trustdb::store::Backend;

/// Result of replaying a preserved scenario.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Statistics preserved with the original run.
    pub original_stats: CallStats,
    /// Statistics of the replayed run.
    pub replayed_stats: CallStats,
    /// Number of calls whose privacy-invariant fields differ, plus any
    /// count mismatch. 0 = faithful replay.
    pub divergence: usize,
}

impl ReplayReport {
    /// Whether the replay reproduced the preserved run exactly.
    pub fn is_faithful(&self) -> bool {
        self.divergence == 0
    }
}

/// Fields preserved under sanitization, used for divergence comparison.
fn invariant_key(c: &CallRecord) -> (u64, u64, String, Option<u64>, Option<u64>, String) {
    (
        c.call_id,
        c.arrived_ms,
        format!("{:?}", c.category),
        c.answered_ms,
        c.on_scene_ms,
        format!("{:?}", c.outcome),
    )
}

/// Count calls whose invariant fields differ between two runs.
pub fn divergence(a: &[CallRecord], b: &[CallRecord]) -> usize {
    let mismatched = a
        .iter()
        .zip(b)
        .filter(|(x, y)| invariant_key(x) != invariant_key(y))
        .count();
    mismatched + a.len().abs_diff(b.len())
}

/// Replay a preserved AIP and compare against its preserved call log.
pub fn replay_from_archive<B: Backend>(
    repo: &Repository<B>,
    aip_id: &str,
) -> Result<ReplayReport, PreserveError> {
    let preserved = load_run(repo, aip_id)?;
    Ok(replay_preserved(&preserved, repo.obs()))
}

/// Replay an already-loaded preserved run, recording telemetry (including
/// the inner simulation's) into `obs`.
pub fn replay_preserved(preserved: &PreservedRun, obs: &itrust_obs::ObsCtx) -> ReplayReport {
    let _span = itrust_obs::span!(obs, "escs.replay.preserved");
    let replayed = run(&preserved.config, obs);
    let report = ReplayReport {
        original_stats: preserved.stats.clone(),
        replayed_stats: replayed.stats.clone(),
        divergence: divergence(&preserved.calls, &replayed.calls),
    };
    if !report.is_faithful() {
        itrust_obs::counter_inc!(obs, "escs.replay.divergent_runs");
    }
    report
}

/// Re-run a preserved scenario under a modified topology ("investigate how
/// modifications to such a system might produce different outcomes").
/// Returns the counterfactual output.
pub fn replay_modified(preserved: &PreservedRun, new_topology: Topology) -> SimOutput {
    let config = SimConfig { topology: new_topology, ..preserved.config.clone() };
    run(&config, &itrust_obs::ObsCtx::null())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agreement::DataSharingAgreement;
    use crate::external::ExternalTimeline;
    use crate::preserve::preserve_run;
    use crate::privacy::PrivacyProfile;
    use trustdb::store::{MemoryBackend, ObjectStore};

    fn preserved_scenario(surge: bool) -> (Repository<MemoryBackend>, String) {
        let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
        let duration = 1_800_000;
        let timeline = if surge {
            ExternalTimeline::disaster(duration)
        } else {
            ExternalTimeline::quiet()
        };
        let config =
            SimConfig::with_defaults(Topology::single_city(), timeline, duration, 99);
        let output = run(&config, &itrust_obs::ObsCtx::null());
        let dsa = DataSharingAgreement {
            id: "dsa".into(),
            owner: "owner".into(),
            recipient: "lab".into(),
            purpose: "replay".into(),
            jurisdiction: "US-WA".into(),
            privacy: PrivacyProfile::research_default(),
            valid_ms: (0, u64::MAX),
            research_retention_ms: u64::MAX,
        };
        let receipt = preserve_run(&repo, &config, &output, &dsa, &[], 10, "a").unwrap();
        (repo, receipt.aip_id)
    }

    #[test]
    fn replay_is_faithful() {
        let (repo, aip) = preserved_scenario(false);
        let report = replay_from_archive(&repo, &aip).unwrap();
        assert!(report.is_faithful(), "divergence {}", report.divergence);
        assert_eq!(report.original_stats, report.replayed_stats);
    }

    #[test]
    fn disaster_replay_is_faithful_too() {
        let (repo, aip) = preserved_scenario(true);
        let report = replay_from_archive(&repo, &aip).unwrap();
        assert!(report.is_faithful(), "divergence {}", report.divergence);
    }

    #[test]
    fn divergence_counts_mismatches_and_length_gaps() {
        let (repo, aip) = preserved_scenario(false);
        let preserved = load_run(&repo, &aip).unwrap();
        let mut mutated = preserved.calls.clone();
        mutated[0].arrived_ms += 1;
        mutated[3].outcome = crate::call::CallOutcome::Abandoned;
        assert_eq!(divergence(&preserved.calls, &mutated), 2);
        mutated.pop();
        // One fewer call: 2 field mismatches + 1 count mismatch.
        assert_eq!(divergence(&preserved.calls, &mutated), 3);
    }

    #[test]
    fn sanitized_fields_do_not_affect_divergence() {
        let (repo, aip) = preserved_scenario(false);
        let preserved = load_run(&repo, &aip).unwrap();
        let mut masked = preserved.calls.clone();
        for c in &mut masked {
            c.caller_phone = "gone".into();
            c.gps = (0.0, 0.0);
        }
        assert_eq!(divergence(&preserved.calls, &masked), 0);
    }

    #[test]
    fn counterfactual_more_trunks_improves_service() {
        let (repo, aip) = preserved_scenario(true);
        let preserved = load_run(&repo, &aip).unwrap();
        let mut bigger = preserved.config.topology.clone();
        bigger.psaps[0].trunks *= 4;
        let counterfactual = replay_modified(&preserved, bigger);
        // More trunks: abandonment cannot rise, p95 answer delay should not
        // materially worsen.
        assert!(
            counterfactual.stats.abandonment_rate()
                <= preserved.stats.abandonment_rate() + 1e-9,
            "counterfactual {:?} vs original {:?}",
            counterfactual.stats,
            preserved.stats
        );
        assert!(
            counterfactual.stats.p95_answer_delay_ms
                <= preserved.stats.p95_answer_delay_ms + 1.0
        );
    }
}
