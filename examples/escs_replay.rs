//! The ESCS scenario (paper §3.1): simulate a disaster day on a metro
//! 9-1-1 network, preserve the run under a data-sharing agreement, replay
//! it from the archive, and explore a counterfactual ("what if the PSAPs
//! had more trunks?").
//!
//! ```sh
//! cargo run --release --example escs_replay
//! ```

use archival_core::ingest::Repository;
use escs::agreement::DataSharingAgreement;
use escs::external::ExternalTimeline;
use escs::graph::Topology;
use escs::preserve::{load_run, preserve_run};
use escs::privacy::PrivacyProfile;
use escs::replay::{replay_from_archive, replay_modified};
use escs::sim::{run, SimConfig};
use trustdb::store::{MemoryBackend, ObjectStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 3-district metro under a storm + pile-up disaster timeline.
    let duration = 4 * 3_600_000; // four hours
    let config = SimConfig::with_defaults(
        Topology::metro(3),
        ExternalTimeline::disaster(duration),
        duration,
        2022,
    );
    println!("simulating {} PSAPs for {} h…", config.topology.psaps.len(), duration / 3_600_000);
    let output = run(&config, &itrust_obs::ObsCtx::null());
    println!(
        "  {} calls, {} answered, {} abandoned ({:.1}%), {} overflow transfers",
        output.stats.total,
        output.stats.answered,
        output.stats.abandoned,
        output.stats.abandonment_rate() * 100.0,
        output.stats.transferred
    );
    println!(
        "  mean answer delay {:.1}s, p95 {:.1}s",
        output.stats.mean_answer_delay_ms / 1000.0,
        output.stats.p95_answer_delay_ms / 1000.0
    );

    // Preserve under a model data-sharing agreement (phones masked, GPS on
    // a ~1 km grid).
    let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
    let dsa = DataSharingAgreement {
        id: "dsa-metro-2022-01".into(),
        owner: "Metro E-911 Authority".into(),
        recipient: "University ESCS Lab".into(),
        purpose: "replay of past events; policy counterfactuals".into(),
        jurisdiction: "US-WA".into(),
        privacy: PrivacyProfile::research_default(),
        valid_ms: (0, u64::MAX),
        research_retention_ms: u64::MAX,
    };
    let receipt = preserve_run(&repo, &config, &output, &dsa, &[], duration + 1_000, "archivist")?;
    println!(
        "\npreserved as {} ({} records, merkle root {})",
        receipt.aip_id,
        receipt.record_count,
        receipt.merkle_root.short()
    );

    // Replay from the archive: divergence must be zero.
    let report = replay_from_archive(&repo, &receipt.aip_id)?;
    println!(
        "replay divergence: {} call(s) differ → faithful = {}",
        report.divergence,
        report.is_faithful()
    );
    assert!(report.is_faithful());

    // Counterfactual: double every PSAP's trunks and replay the same day.
    let preserved = load_run(&repo, &receipt.aip_id)?;
    let mut upgraded = preserved.config.topology.clone();
    for p in &mut upgraded.psaps {
        p.trunks *= 2;
    }
    let counterfactual = replay_modified(&preserved, upgraded);
    println!("\ncounterfactual (2× trunks):");
    println!(
        "  abandonment {:.1}% → {:.1}%",
        preserved.stats.abandonment_rate() * 100.0,
        counterfactual.stats.abandonment_rate() * 100.0
    );
    println!(
        "  p95 answer delay {:.1}s → {:.1}s",
        preserved.stats.p95_answer_delay_ms / 1000.0,
        counterfactual.stats.p95_answer_delay_ms / 1000.0
    );
    Ok(())
}
