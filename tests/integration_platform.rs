//! Integration: the full I Trust AI platform flow — acquisition, guarded
//! AI appraisal, human review, retrieval, and linking — with the audit
//! chain as the single connective thread.

use archival_core::record::Classification;
use itrust_core::ai_task::{Routing, Verdict};
use itrust_core::platform::ITrustPlatform;
use itrust_core::sensitivity::{generate_corpus, FitMode, SensitivityModel, SENSITIVE};
use itrust_core::tar::{linear_review, tar_review, TarConfig};
use trustdb::event::EventKind;

fn corpus_docs(n: usize, seed: u64) -> (Vec<(String, String, String)>, Vec<usize>) {
    let corpus = generate_corpus(n, 0.25, 0.1, seed);
    let labels: Vec<usize> = corpus.iter().map(|d| d.label).collect();
    let docs = corpus
        .into_iter()
        .enumerate()
        .map(|(i, d)| (format!("doc-{i:04}"), format!("Document {i}"), d.text))
        .collect();
    (docs, labels)
}

#[test]
fn guarded_review_catches_most_sensitive_documents() {
    let platform = ITrustPlatform::new(0.7);
    let (docs, labels) = corpus_docs(80, 11);
    let receipt = platform
        .ingest_documents("Records Office", &docs, Classification::Public, 1_000)
        .unwrap();

    let train = generate_corpus(500, 0.25, 0.1, 12);
    let model =
        SensitivityModel::fit(&train, &[], FitMode::Supervised, &itrust_obs::ObsCtx::null());
    let (results, guard) = platform
        .sensitivity_review(&receipt.aip_id, &model, 2_000)
        .unwrap();

    // Accuracy of the auto-accepted decisions must be high — that is the
    // guard's contract: only confident calls act autonomously.
    let mut auto_correct = 0usize;
    let mut auto_total = 0usize;
    for (r, &truth) in results.iter().zip(&labels) {
        if r.routing == Routing::AutoAccepted {
            auto_total += 1;
            let predicted = usize::from(r.score >= 0.5);
            if predicted == truth {
                auto_correct += 1;
            }
        }
    }
    assert!(auto_total > 0);
    let auto_acc = auto_correct as f64 / auto_total as f64;
    assert!(auto_acc > 0.9, "auto-accepted accuracy {auto_acc}");

    // A human works the queue; afterwards nothing is pending and every
    // action is in the audit chain.
    let tickets: Vec<u64> = guard.pending().iter().map(|p| p.ticket).collect();
    for ticket in tickets {
        // Re-create a provenance chain for the subject (metadata-update
        // packaging is out of scope here).
        let mut chain = archival_core::provenance::ProvenanceChain::new("review");
        guard.resolve(ticket, Verdict::Confirmed, "reviewer", 3_000, &mut chain).unwrap();
    }
    assert_eq!(guard.pending_count(), 0);
    let audit = platform.repo().audit();
    audit.verify_chain().unwrap();
    assert_eq!(audit.query(|e| e.kind == EventKind::AiDecision).len(), 80);
}

#[test]
fn tar_prioritizes_the_same_corpus_the_platform_holds() {
    // TAR over the document set: far fewer reviews to 90% recall than
    // linear order.
    let corpus = generate_corpus(600, 0.1, 0.1, 21);
    let positives = corpus.iter().filter(|d| d.label == SENSITIVE).count();
    assert!(positives > 20);
    let linear = linear_review(&corpus, &itrust_obs::ObsCtx::null());
    let tar = tar_review(&corpus, TarConfig::default(), &itrust_obs::ObsCtx::null());
    let linear_90 = linear.docs_to_recall(0.9).unwrap();
    let tar_90 = tar.docs_to_recall(0.9).unwrap();
    assert!(
        (tar_90 as f64) < linear_90 as f64 * 0.6,
        "TAR {tar_90} vs linear {linear_90}"
    );
}

#[test]
fn retrieval_and_linking_work_over_multiple_accessions() {
    let platform = ITrustPlatform::default();
    let (docs_a, _) = corpus_docs(25, 31);
    let (docs_b, _) = corpus_docs(25, 32);
    // Rename the second batch so ids do not collide.
    let docs_b: Vec<(String, String, String)> = docs_b
        .into_iter()
        .map(|(id, t, x)| (format!("b/{id}"), t, x))
        .collect();
    platform
        .ingest_documents("Office A", &docs_a, Classification::Public, 1_000)
        .unwrap();
    platform
        .ingest_documents("Office B", &docs_b, Classification::Public, 2_000)
        .unwrap();

    let index = platform.build_access_index().unwrap();
    assert_eq!(index.len(), 50);
    // A query in the sensitive vocabulary retrieves something.
    let hits = index.search("patient diagnosis medical", 5);
    assert!(!hits.is_empty());

    let linker = platform.build_linker().unwrap();
    assert_eq!(linker.len(), 50);
    let first_id = &docs_a[0].0;
    let similar = linker.similar(first_id, 3).unwrap();
    assert_eq!(similar.len(), 3);
    // Similarity scores are descending and in [0, 1].
    for w in similar.windows(2) {
        assert!(w[0].1 >= w[1].1);
    }
    for (_, s) in &similar {
        assert!((0.0..=1.0001).contains(s));
    }
}

#[test]
fn platform_survives_an_empty_repository() {
    let platform = ITrustPlatform::default();
    assert!(platform.build_access_index().unwrap().is_empty());
    assert!(platform.build_linker().unwrap().is_empty());
    assert!(platform.repo().list_aips().is_empty());
}
