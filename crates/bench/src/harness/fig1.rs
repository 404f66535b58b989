//! Figure 1 — the PergaNet pipeline: per-stage quality and end-to-end
//! throughput across damage levels, plus the grid-resolution ablation for
//! the signum detector called out in DESIGN.md §4.

use perganet::corpus::{generate, CorpusConfig};
use perganet::eval::{evaluate, PipelineEval};
use perganet::pipeline::{PergaNet, TrainConfig};

/// Result row for one damage level.
#[derive(Debug, Clone)]
pub struct DamageRow {
    /// Damage level 0–2.
    pub damage: u8,
    /// Stage metrics.
    pub eval: PipelineEval,
    /// End-to-end images per second.
    pub images_per_sec: f64,
}

/// Train once on a mixed corpus; evaluate at every damage level. Returns
/// the rows, the training seconds and the report.
pub fn run(obs: &itrust_obs::ObsCtx) -> (Vec<DamageRow>, f64, String) {
    let mut train = generate(CorpusConfig { count: 150, damage: 0, seed: 1 });
    train.extend(generate(CorpusConfig { count: 100, damage: 1, seed: 2 }));
    train.extend(generate(CorpusConfig { count: 50, damage: 2, seed: 3 }));
    let mut net = PergaNet::new(7).with_obs(obs.clone());
    // The harness trains the signum stage longer than the library default:
    // the mixed-damage corpus is harder, and F1's headline is stage quality.
    let config = TrainConfig { signum_epochs: 40, ..TrainConfig::default() };
    let (_, train_s) = super::timed(|| net.train(&train, config));

    let mut rows = Vec::new();
    for damage in 0u8..=2 {
        let test = generate(CorpusConfig { count: 60, damage, seed: 10 + damage as u64 });
        let (eval, eval_s) = super::timed(|| evaluate(&mut net, &test));
        rows.push(DamageRow {
            damage,
            images_per_sec: test.len() as f64 / eval_s.max(1e-9),
            eval,
        });
    }
    let mut out = format!(
        "Figure 1 — PergaNet three-stage pipeline (trained on {} parchments)\n\
         damage   side acc   text P   text R   signum AP   signum R\n",
        train.len()
    );
    for r in &rows {
        out.push_str(&format!(
            "{:>6} {:>10.3} {:>8.3} {:>8.3} {:>11.3} {:>10.3}\n",
            r.damage,
            r.eval.side_accuracy,
            r.eval.text_precision,
            r.eval.text_recall,
            r.eval.signum_ap,
            r.eval.signum_recall
        ));
    }
    (rows, train_s, out)
}
