//! Quickstart: the smallest end-to-end tour of the platform.
//!
//! Ingest a batch of documents, verify fixity, run an AI sensitivity
//! review under the trustworthiness guard, and search the holdings.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use archival_core::record::Classification;
use itrust_core::ai_task::Routing;
use itrust_core::platform::ITrustPlatform;
use itrust_core::sensitivity::{generate_corpus, FitMode, SensitivityModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A platform with an in-memory repository and a 0.8 guard threshold.
    let platform = ITrustPlatform::new(0.8);
    println!("{}", platform.registry().coverage_report());

    // 1. Acquisition: a producer transfers 30 documents.
    let docs: Vec<(String, String, String)> = generate_corpus(30, 0.3, 0.1, 42)
        .into_iter()
        .enumerate()
        .map(|(i, d)| (format!("rec-{i:03}"), format!("Transferred document {i}"), d.text))
        .collect();
    let receipt =
        platform.ingest_documents("Ministry Records Office", &docs, Classification::Public, 1_000)?;
    println!(
        "accessioned {} records as {} (merkle root {})",
        receipt.record_count,
        receipt.aip_id,
        receipt.merkle_root.short()
    );

    // 2. Preservation: fixity sweep over everything just stored.
    let sweep = platform.repo().fixity_sweep(2_000)?;
    println!(
        "fixity sweep: {}/{} intact ({} bytes verified)",
        sweep.intact, sweep.checked, sweep.bytes_verified
    );
    assert!(sweep.is_clean());

    // 3. Appraisal: AI sensitivity review under the guard.
    let training = generate_corpus(400, 0.3, 0.1, 7);
    let model =
        SensitivityModel::fit(&training, &[], FitMode::Supervised, &itrust_obs::ObsCtx::null());
    let (results, guard) = platform.sensitivity_review(&receipt.aip_id, &model, 3_000)?;
    let auto = results.iter().filter(|r| r.routing == Routing::AutoAccepted).count();
    println!(
        "sensitivity review: {} auto-accepted, {} queued for human review",
        auto,
        guard.pending_count()
    );

    // 4. Access: BM25 search over the holdings.
    let index = platform.build_access_index()?;
    let hits = index.search("salary disciplinary complaint", 3);
    println!("top hits for a sensitive-topic query:");
    for h in &hits {
        println!("  {} (score {:.2})", h.doc_id, h.score);
    }

    // The audit chain ties it all together and verifies.
    platform.repo().audit().verify_chain()?;
    println!(
        "audit chain verified: {} entries, head {}",
        platform.repo().audit().len(),
        platform.repo().audit().head().unwrap().short()
    );
    Ok(())
}
