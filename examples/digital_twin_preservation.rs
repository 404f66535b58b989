//! The digital-twin scenario (paper §3.3 / Figure 2): assemble a campus
//! twin (BIM + integrated source databases + IoT telemetry + AMS +
//! paradata), archive it as an AIP, rehydrate it, and verify fidelity.
//!
//! ```sh
//! cargo run --release --example digital_twin_preservation
//! ```

use archival_core::ingest::Repository;
use digital_twin::archive::{archive_twin, DigitalTwin};
use digital_twin::rehydrate::{rehydrate_twin, verify_fidelity};
use trustdb::store::{MemoryBackend, ObjectStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A seven-building campus, mirroring the Carleton study.
    println!("assembling the campus digital twin…");
    let twin =
        DigitalTwin::synthetic("CarletonLike", 7, 2, 6 * 3_600_000, 2022, &itrust_obs::ObsCtx::null());
    println!("  BIM: {} buildings, {} elements", twin.bim.buildings.len(), twin.bim.element_count());
    println!(
        "  sensors: {} deployed, {} readings",
        twin.sensors.sensors.len(),
        twin.sensors.history.len()
    );
    println!("  AMS: {} control actions logged", twin.ams.control_log.len());
    println!("  sync log: {} boundary crossings", twin.sync_log.len());
    println!("  paradata: {} automated tools described", twin.paradata.tools().len());
    for r in &twin.integration_reports {
        println!(
            "  integrated '{}': {} records in, {} unmatched, {} conflicts",
            r.source, r.integrated, r.unmatched, r.conflicts
        );
    }

    // Preservation-readiness: the "what must be captured at creation" check.
    let issues = twin.preservation_readiness();
    println!("\npreservation readiness: {}", if issues.is_empty() { "READY" } else { "BLOCKED" });
    for i in &issues {
        println!("  issue: {i}");
    }

    // Archive → rehydrate → verify.
    let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
    let receipt = archive_twin(&repo, &twin, 1_000, "university-archivist")?;
    println!(
        "\narchived as {} ({} component records, {} bytes)",
        receipt.aip_id, receipt.record_count, receipt.payload_bytes
    );

    let rehydrated = rehydrate_twin(&repo, &receipt.aip_id)?;
    let fidelity = verify_fidelity(&twin, &rehydrated);
    println!("rehydration fidelity:");
    for (component, identical) in &fidelity.bit_identical {
        println!("  {component:<12} bit-identical: {identical}");
    }
    println!(
        "  structural issues: {} → perfect = {}",
        fidelity.structural_issues.len(),
        fidelity.is_perfect()
    );
    assert!(fidelity.is_perfect());

    // The archive's own integrity machinery covers the twin too.
    let sweep = repo.fixity_sweep(2_000)?;
    println!(
        "\nrepository fixity: {}/{} objects intact",
        sweep.intact, sweep.checked
    );
    Ok(())
}
