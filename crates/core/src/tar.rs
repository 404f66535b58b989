//! Technology-assisted review (TAR): active-learning prioritization of
//! human review.
//!
//! The paper's conclusion, impact (2): "classification tools and TAR able
//! to allow a quick review and assessment of vast quantities of records".
//! TAR's value proposition is concrete and measurable: to find (say) 95% of
//! the sensitive documents in a collection, a reviewer following the
//! model's ranking reads far fewer documents than one reading in shelf
//! order. Experiment D3 measures exactly that curve.
//!
//! The protocol here is continuous active learning (CAL): seed with a few
//! reviewed documents (ensuring at least one positive), train, rank the
//! unreviewed pool by predicted sensitivity, review the top batch, retrain,
//! repeat.

use crate::sensitivity::{LabeledDoc, SENSITIVE};
use crate::text::Vocabulary;
use neural::classical::{Classifier, MultinomialNb};
use neural::data::Dataset;
use neural::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// TAR protocol parameters.
#[derive(Debug, Clone, Copy)]
pub struct TarConfig {
    /// Documents reviewed before the first model is trained.
    pub seed_size: usize,
    /// Documents reviewed per round thereafter.
    pub batch_size: usize,
    /// RNG seed for seed-set sampling.
    pub seed: u64,
}

impl Default for TarConfig {
    fn default() -> Self {
        TarConfig { seed_size: 20, batch_size: 20, seed: 7 }
    }
}

/// The outcome of a (simulated) review process: the order documents were
/// reviewed in and the recall curve.
#[derive(Debug, Clone)]
pub struct ReviewOutcome {
    /// Corpus indices in review order.
    pub review_order: Vec<usize>,
    /// `recall_curve[i]` = fraction of all positives found after reviewing
    /// `i + 1` documents.
    pub recall_curve: Vec<f64>,
    /// Total positives in the corpus.
    pub total_positives: usize,
}

impl ReviewOutcome {
    /// Fewest documents reviewed to reach `target` recall, if ever reached.
    pub fn docs_to_recall(&self, target: f64) -> Option<usize> {
        self.recall_curve
            .iter()
            .position(|&r| r >= target)
            .map(|i| i + 1)
    }
}

fn recall_curve(corpus: &[LabeledDoc], order: &[usize]) -> (Vec<f64>, usize) {
    let total: usize = corpus.iter().filter(|d| d.label == SENSITIVE).count();
    let mut found = 0usize;
    let curve = order
        .iter()
        .map(|&i| {
            // itrust-lint: allow(panic-reachable) — review batches are chunked below the collection length
            if corpus[i].label == SENSITIVE {
                found += 1;
            }
            if total == 0 {
                1.0
            } else {
                found as f64 / total as f64
            }
        })
        .collect();
    (curve, total)
}

/// Baseline: review in corpus (shelf) order, timed into `obs`.
pub fn linear_review(corpus: &[LabeledDoc], obs: &itrust_obs::ObsCtx) -> ReviewOutcome {
    let _span = itrust_obs::span!(obs, "core.tar.linear_review");
    let order: Vec<usize> = (0..corpus.len()).collect();
    let (recall_curve, total_positives) = recall_curve(corpus, &order);
    ReviewOutcome { review_order: order, recall_curve, total_positives }
}

/// TAR (continuous active learning) review.
///
/// The oracle is the corpus's own labels — each "review" reveals one true
/// label, exactly as a human reviewer would. The review span and document
/// counter are recorded into `obs`.
pub fn tar_review(
    corpus: &[LabeledDoc],
    config: TarConfig,
    obs: &itrust_obs::ObsCtx,
) -> ReviewOutcome {
    let _span = itrust_obs::span!(obs, "core.tar.review");
    itrust_obs::counter_add!(obs, "core.tar.docs_reviewed", corpus.len() as u64);
    assert!(config.seed_size >= 2 && config.batch_size >= 1);
    let n = corpus.len();
    assert!(n > config.seed_size, "corpus smaller than the seed set");
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Shared vocabulary over the whole collection (texts are available even
    // before labels are).
    let texts: Vec<&str> = corpus.iter().map(|d| d.text.as_str()).collect();
    let vocab = Vocabulary::fit(&texts, 1);
    let features = vocab.tf_matrix(&texts);

    // Seed: random sample; if it contains no positive, keep sampling
    // singletons until one is found (the standard CAL bootstrap).
    let mut unreviewed: Vec<usize> = (0..n).collect();
    unreviewed.shuffle(&mut rng);
    let mut reviewed: Vec<usize> = unreviewed.split_off(n - config.seed_size);
    // itrust-lint: allow(panic-reachable) — review batches are chunked below the collection length
    while !reviewed.iter().any(|&i| corpus[i].label == SENSITIVE) {
        match unreviewed.pop() {
            Some(i) => reviewed.push(i),
            None => break, // no positives exist at all
        }
    }

    let row_tensor = |indices: &[usize]| -> Tensor {
        let d = vocab.len();
        let mut data = Vec::with_capacity(indices.len() * d);
        for &i in indices {
            data.extend_from_slice(features.row(i));
        }
        Tensor::from_vec(&[indices.len(), d], data)
    };

    while !unreviewed.is_empty() {
        // Train on everything reviewed so far.
        let x = row_tensor(&reviewed);
        let y: Vec<usize> = reviewed.iter().map(|&i| corpus[i].label).collect();
        let has_both = y.contains(&SENSITIVE) && y.iter().any(|&l| l != SENSITIVE);
        let scores: Vec<f32> = if has_both {
            let mut nb = MultinomialNb::new(1.0);
            nb.fit(&Dataset::new(x, y));
            let probs = nb.predict_proba(&row_tensor(&unreviewed));
            (0..unreviewed.len()).map(|r| probs.at2(r, SENSITIVE)).collect()
        } else {
            // Degenerate single-class seed: fall back to random order.
            vec![0.5; unreviewed.len()]
        };
        // Review the top batch.
        let mut ranked: Vec<usize> = (0..unreviewed.len()).collect();
        ranked.sort_by(|&a, &b| {
            scores[b].partial_cmp(&scores[a]).unwrap_or(std::cmp::Ordering::Equal)
        });
        let take = config.batch_size.min(unreviewed.len());
        let mut chosen: Vec<usize> = ranked[..take].to_vec();
        chosen.sort_unstable_by(|a, b| b.cmp(a)); // descending for swap_remove
        for pos in chosen {
            reviewed.push(unreviewed.swap_remove(pos));
        }
    }
    let (curve, total_positives) = recall_curve(corpus, &reviewed);
    ReviewOutcome { review_order: reviewed, recall_curve: curve, total_positives }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::generate_corpus;
    use itrust_obs::ObsCtx;

    #[test]
    fn linear_review_reaches_full_recall_at_the_end() {
        let corpus = generate_corpus(300, 0.1, 0.1, 1);
        let outcome = linear_review(&corpus, &ObsCtx::null());
        assert_eq!(outcome.review_order.len(), 300);
        assert!((outcome.recall_curve.last().unwrap() - 1.0).abs() < 1e-12);
        // Linear recall at 50% of docs ≈ 50% of positives (±).
        let mid = outcome.recall_curve[149];
        assert!((0.25..=0.75).contains(&mid), "mid recall {mid}");
    }

    #[test]
    fn tar_beats_linear_review_substantially() {
        // The D3 headline: TAR reaches 95% recall reviewing far fewer docs.
        let corpus = generate_corpus(1000, 0.08, 0.1, 2);
        let linear = linear_review(&corpus, &ObsCtx::null());
        let tar = tar_review(&corpus, TarConfig::default(), &ObsCtx::null());
        let linear_95 = linear.docs_to_recall(0.95).unwrap();
        let tar_95 = tar.docs_to_recall(0.95).unwrap();
        assert!(
            (tar_95 as f64) < linear_95 as f64 * 0.5,
            "TAR {tar_95} docs vs linear {linear_95} docs to 95% recall"
        );
        assert_eq!(tar.review_order.len(), 1000, "everything eventually reviewed");
        assert!((tar.recall_curve.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tar_review_order_is_a_permutation() {
        let corpus = generate_corpus(200, 0.2, 0.1, 3);
        let config = TarConfig { seed_size: 10, batch_size: 25, seed: 4 };
        let tar = tar_review(&corpus, config, &ObsCtx::null());
        let mut order = tar.review_order.clone();
        order.sort_unstable();
        assert_eq!(order, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn recall_curve_is_monotone() {
        let corpus = generate_corpus(300, 0.15, 0.2, 5);
        let tar = tar_review(&corpus, TarConfig::default(), &ObsCtx::null());
        for w in tar.recall_curve.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn docs_to_recall_thresholds() {
        let corpus = generate_corpus(300, 0.1, 0.1, 6);
        let tar = tar_review(&corpus, TarConfig::default(), &ObsCtx::null());
        let d80 = tar.docs_to_recall(0.8).unwrap();
        let d95 = tar.docs_to_recall(0.95).unwrap();
        assert!(d80 <= d95);
        assert!(tar.docs_to_recall(2.0).is_none(), "unreachable target");
    }

    #[test]
    fn corpus_without_positives_is_vacuous() {
        let corpus = generate_corpus(100, 0.0, 0.0, 7);
        let config = TarConfig { seed_size: 5, batch_size: 10, seed: 8 };
        let outcome = tar_review(&corpus, config, &ObsCtx::null());
        assert_eq!(outcome.total_positives, 0);
        assert!(outcome.recall_curve.iter().all(|&r| r == 1.0));
    }

    #[test]
    fn rare_prevalence_still_converges() {
        let corpus = generate_corpus(800, 0.02, 0.1, 9);
        let tar = tar_review(&corpus, TarConfig::default(), &ObsCtx::null());
        assert!((tar.recall_curve.last().unwrap() - 1.0).abs() < 1e-12);
        let tar_95 = tar.docs_to_recall(0.95).unwrap();
        assert!(tar_95 < 800);
    }

    #[test]
    #[should_panic(expected = "seed")]
    fn corpus_smaller_than_seed_rejected() {
        let corpus = generate_corpus(10, 0.5, 0.0, 10);
        tar_review(&corpus, TarConfig { seed_size: 20, batch_size: 5, seed: 1 }, &ObsCtx::null());
    }
}
