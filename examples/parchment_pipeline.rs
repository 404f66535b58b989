//! The PergaNet scenario (paper §3.2 / Figure 1): train the three-stage
//! pipeline on a synthetic parchment corpus, evaluate every stage, and
//! show the continuous-learning loop improving the classifier with
//! verified annotations.
//!
//! ```sh
//! cargo run --release --example parchment_pipeline
//! ```

use perganet::continuous::{continuous_learning, SimulatedAnnotator};
use perganet::corpus::{generate, CorpusConfig};
use perganet::eval::evaluate;
use perganet::pipeline::{PergaNet, TrainConfig};

fn main() {
    println!("PergaNet — three-stage parchment analysis (Figure 1)\n");

    // Train on a mixed-damage corpus; evaluate per damage level.
    let mut train = generate(CorpusConfig { count: 150, damage: 0, seed: 1 });
    train.extend(generate(CorpusConfig { count: 100, damage: 1, seed: 2 }));
    let mut net = PergaNet::new(7);
    println!("training on {} parchments…", train.len());
    net.train(&train, TrainConfig::default());

    println!("\n{:<22} {:>10} {:>10} {:>10} {:>10} {:>10}", "evaluation corpus", "side acc", "text P", "text R", "signum AP", "signum R");
    for damage in 0u8..=2 {
        let test = generate(CorpusConfig { count: 60, damage, seed: 10 + damage as u64 });
        let eval = evaluate(&mut net, &test);
        println!(
            "{:<22} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            format!("damage level {damage}"),
            eval.side_accuracy,
            eval.text_precision,
            eval.text_recall,
            eval.signum_ap,
            eval.signum_recall
        );
    }

    // One analysis in detail, with its AI paradata (the archival record of
    // the processing).
    let sample = generate(CorpusConfig { count: 1, damage: 0, seed: 99 });
    let analysis = net.analyze(&sample[0].image);
    println!("\nsingle-image analysis:");
    println!("  predicted side: {:?} (confidence {:.3})", analysis.side, analysis.side_confidence);
    println!("  text regions:   {}", analysis.text_boxes.len());
    println!("  signum candidates: {}", analysis.signum_detections.len());
    println!("  paradata:");
    for p in &analysis.paradata {
        println!("    [{}] {} → {} ({:.3})", p.stage, p.model_id, p.decision, p.confidence);
    }

    // Continuous learning with a 5%-error human annotator.
    println!("\ncontinuous learning (annotator error 5%):");
    let seed_set = generate(CorpusConfig { count: 30, damage: 0, seed: 20 });
    let batches: Vec<_> = (0..3)
        .map(|i| generate(CorpusConfig { count: 60, damage: 0, seed: 21 + i }))
        .collect();
    let held_out = generate(CorpusConfig { count: 80, damage: 0, seed: 30 });
    let mut annotator = SimulatedAnnotator::new(0.05, 31);
    let trajectory = continuous_learning(
        32,
        &seed_set,
        &batches,
        &held_out,
        &mut annotator,
        5,
        0.005,
        &itrust_obs::ObsCtx::null(),
    );
    for o in &trajectory {
        println!(
            "  round {}: pool {:>3} → held-out accuracy {:.3}",
            o.round, o.pool_size, o.held_out_accuracy
        );
    }
}
