//! D2 — self-training vs supervised-only as the labeled fraction shrinks
//! (the §2 semi-supervised claim), with the confidence-threshold ablation.

use itrust_core::sensitivity::{generate_corpus, FitMode, LabeledDoc, SensitivityModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Result row for one labeled fraction.
#[derive(Debug, Clone)]
pub struct FractionRow {
    /// Fraction of the pool that is labeled.
    pub labeled_fraction: f64,
    /// Labeled document count.
    pub labeled: usize,
    /// Supervised-only accuracy.
    pub supervised_acc: f64,
    /// Self-training accuracy.
    pub semi_acc: f64,
    /// Fully-supervised (all labels) reference accuracy.
    pub full_acc: f64,
}

fn split(pool: &[LabeledDoc], fraction: f64, seed: u64) -> (Vec<LabeledDoc>, Vec<String>) {
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    let k = ((pool.len() as f64 * fraction).round() as usize).max(4);
    let labeled: Vec<LabeledDoc> = idx[..k].iter().map(|&i| pool[i].clone()).collect();
    let unlabeled: Vec<String> = idx[k..].iter().map(|&i| pool[i].text.clone()).collect();
    (labeled, unlabeled)
}

/// Sweep labeled fraction ∈ {1%, 2%, 5%, 10%} on an 800-document pool.
pub fn run(obs: &itrust_obs::ObsCtx) -> (Vec<FractionRow>, String) {
    let pool = generate_corpus(800, 0.3, 0.2, 1);
    let test = generate_corpus(400, 0.3, 0.2, 2);
    let full = SensitivityModel::fit(&pool, &[], FitMode::Supervised, obs);
    let full_acc = full.accuracy(&test);
    let mut rows = Vec::new();
    for &fraction in &[0.01, 0.02, 0.05, 0.10] {
        let (labeled, unlabeled) = split(&pool, fraction, 42);
        let supervised = SensitivityModel::fit(&labeled, &[], FitMode::Supervised, obs);
        let semi = SensitivityModel::fit(&labeled, &unlabeled, FitMode::SemiSupervised, obs);
        rows.push(FractionRow {
            labeled_fraction: fraction,
            labeled: labeled.len(),
            supervised_acc: supervised.accuracy(&test),
            semi_acc: semi.accuracy(&test),
            full_acc,
        });
    }
    let mut out = String::from(
        "D2 — self-training vs supervised (800-doc pool, 400-doc test)\n\
         labeled%   labeled n   supervised   self-training   full-labels reference\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:>8.0} {:>11} {:>12.3} {:>15.3} {:>22.3}\n",
            r.labeled_fraction * 100.0,
            r.labeled,
            r.supervised_acc,
            r.semi_acc,
            r.full_acc
        ));
    }
    (rows, out)
}

/// Ablation: self-training accuracy vs confidence threshold τ.
pub fn threshold_ablation() -> (Vec<(f32, f64)>, String) {
    let pool = generate_corpus(800, 0.3, 0.2, 3);
    let test = generate_corpus(400, 0.3, 0.2, 4);
    let (labeled, unlabeled) = split(&pool, 0.02, 7);
    let mut rows = Vec::new();
    for &tau in &[0.6f32, 0.8, 0.95] {
        // Rebuild the semi-supervised path with a custom threshold via the
        // neural-level API.
        use itrust_core::text::Vocabulary;
        use neural::classical::{Classifier, MultinomialNb};
        use neural::data::Dataset;
        use neural::semi::SelfTraining;
        let mut texts: Vec<&str> = labeled.iter().map(|d| d.text.as_str()).collect();
        texts.extend(unlabeled.iter().map(|s| s.as_str()));
        let vocab = Vocabulary::fit(&texts, 1);
        let x = vocab.tf_matrix(&labeled.iter().map(|d| d.text.as_str()).collect::<Vec<_>>());
        let y: Vec<usize> = labeled.iter().map(|d| d.label).collect();
        let mut st = SelfTraining::new(MultinomialNb::new(1.0), tau, 10);
        let pool_x = vocab.tf_matrix(&unlabeled.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        st.fit_semi(&Dataset::new(x, y), &pool_x);
        let test_x =
            vocab.tf_matrix(&test.iter().map(|d| d.text.as_str()).collect::<Vec<_>>());
        let preds = st.predict(&test_x);
        let truth: Vec<usize> = test.iter().map(|d| d.label).collect();
        rows.push((tau, neural::metrics::accuracy(&truth, &preds)));
    }
    let mut out = String::from("D2 ablation — self-training confidence threshold τ (2% labels)\n  τ      accuracy\n");
    for (tau, acc) in &rows {
        out.push_str(&format!("  {tau:<5} {acc:.3}\n"));
    }
    (rows, out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn semi_supervised_helps_at_low_fractions() {
        let (rows, _) = super::run(&itrust_obs::ObsCtx::null());
        // At every fraction, self-training must not be materially worse.
        for r in &rows {
            assert!(
                r.semi_acc >= r.supervised_acc - 0.05,
                "at {}%: semi {} vs sup {}",
                r.labeled_fraction * 100.0,
                r.semi_acc,
                r.supervised_acc
            );
        }
        // Both approaches approach the full-label reference at 10%.
        let last = rows.last().unwrap();
        assert!(last.full_acc - last.semi_acc < 0.1);
    }
}
