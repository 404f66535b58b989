//! Integration: the §3.1 loop — simulate, sanitize under agreement,
//! preserve, replay, and counterfactually modify.

use archival_core::ingest::Repository;
use escs::agreement::{DataSharingAgreement, LegalRestriction, TransferViolation};
use escs::external::ExternalTimeline;
use escs::graph::Topology;
use escs::preserve::{load_run, preserve_run, PreserveError};
use escs::privacy::{verify_no_leakage, PrivacyProfile};
use escs::replay::{replay_from_archive, replay_modified};
use escs::sim::{run, SimConfig};
use trustdb::store::{MemoryBackend, ObjectStore};

fn dsa() -> DataSharingAgreement {
    DataSharingAgreement {
        id: "dsa-it".into(),
        owner: "County E-911".into(),
        recipient: "ESCS Lab".into(),
        purpose: "integration test".into(),
        jurisdiction: "US-WA".into(),
        privacy: PrivacyProfile::research_default(),
        valid_ms: (0, u64::MAX),
        research_retention_ms: u64::MAX,
    }
}

#[test]
fn disaster_run_preserves_and_replays_faithfully() {
    let duration = 2 * 3_600_000;
    let config = SimConfig::with_defaults(
        Topology::metro(2),
        ExternalTimeline::disaster(duration),
        duration,
        31337,
    );
    let output = run(&config, &itrust_obs::ObsCtx::null());
    assert!(output.stats.total > 100, "expected a busy day, got {}", output.stats.total);

    let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
    let receipt =
        preserve_run(&repo, &config, &output, &dsa(), &[], duration + 1, "archivist").unwrap();

    // The preserved call log leaks nothing.
    let preserved = load_run(&repo, &receipt.aip_id).unwrap();
    verify_no_leakage(&dsa().privacy, &preserved.calls).unwrap();

    // Replay is exact on privacy-invariant fields.
    let report = replay_from_archive(&repo, &receipt.aip_id).unwrap();
    assert!(report.is_faithful(), "divergence {}", report.divergence);

    // The AIP itself passes archival verification and fixity.
    repo.manifest(&receipt.aip_id)
        .unwrap()
        .verify_internal_consistency()
        .unwrap();
    assert!(repo.fixity_sweep(duration + 2).unwrap().is_clean());
}

#[test]
fn jurisdictional_restriction_blocks_the_whole_pipeline() {
    let config = SimConfig::with_defaults(
        Topology::single_city(),
        ExternalTimeline::quiet(),
        600_000,
        1,
    );
    let output = run(&config, &itrust_obs::ObsCtx::null());
    let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
    let restrictions = vec![LegalRestriction {
        jurisdiction: "US-WA".into(),
        summary: "no off-site transfer".into(),
        transfer_permitted: false,
    }];
    let err = preserve_run(&repo, &config, &output, &dsa(), &restrictions, 1_000, "a")
        .unwrap_err();
    assert!(matches!(
        err,
        PreserveError::Agreement(TransferViolation::JurisdictionForbids(_))
    ));
    assert!(repo.list_aips().is_empty());
}

#[test]
fn counterfactual_capacity_study_from_the_archive() {
    // Preserve a congested scenario, then ask: what if we doubled trunks?
    let duration = 2 * 3_600_000;
    let mut topology = Topology::single_city();
    topology.psaps[0].trunks = 1; // deliberately undersized
    let config = SimConfig::with_defaults(
        topology,
        ExternalTimeline::disaster(duration),
        duration,
        99,
    );
    let output = run(&config, &itrust_obs::ObsCtx::null());
    assert!(output.stats.abandonment_rate() > 0.05, "undersized PSAP should shed calls");

    let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
    let receipt =
        preserve_run(&repo, &config, &output, &dsa(), &[], duration + 1, "a").unwrap();
    let preserved = load_run(&repo, &receipt.aip_id).unwrap();

    let mut upgraded = preserved.config.topology.clone();
    upgraded.psaps[0].trunks = 8;
    let counterfactual = replay_modified(&preserved, upgraded);
    assert!(
        counterfactual.stats.abandonment_rate() < preserved.stats.abandonment_rate(),
        "more trunks must reduce abandonment: {} → {}",
        preserved.stats.abandonment_rate(),
        counterfactual.stats.abandonment_rate()
    );
}

#[test]
fn preserved_paradata_identifies_engine_and_scenario() {
    let config = SimConfig::with_defaults(
        Topology::single_city(),
        ExternalTimeline::quiet(),
        600_000,
        5,
    );
    let output = run(&config, &itrust_obs::ObsCtx::null());
    let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
    let receipt = preserve_run(&repo, &config, &output, &dsa(), &[], 1_000, "a").unwrap();
    let preserved = load_run(&repo, &receipt.aip_id).unwrap();
    assert_eq!(preserved.provenance.engine, escs::sim::ENGINE_VERSION);
    assert_eq!(preserved.provenance.config_digest, config.digest().to_hex());
    assert_eq!(preserved.provenance.seed, 5);
    // The preserved config digest matches the re-serialized loaded config —
    // the scenario is self-identifying.
    assert_eq!(preserved.config.digest(), config.digest());
}
