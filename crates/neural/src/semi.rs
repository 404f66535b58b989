//! Semi-supervised self-training.
//!
//! Section 2 of the paper singles it out ("training samples can be grown
//! iteratively exploiting unlabeled data based on decisions from an initial
//! model (self-training)"), citing Zhang & Abdul-Mageed's self-training
//! work. The D2 experiment measures how much of the fully-supervised
//! accuracy gap it recovers as the labeled fraction shrinks.

use crate::classical::Classifier;
use crate::data::Dataset;
use crate::tensor::Tensor;

/// Progress of one self-training round, for experiment logging.
#[derive(Debug, Clone)]
pub struct RoundStats {
    /// Round index (0 = initial supervised fit).
    pub round: usize,
    /// Size of the (pseudo-)labeled pool after the round.
    pub labeled_size: usize,
    /// Examples pseudo-labeled this round.
    pub newly_labeled: usize,
    /// Unlabeled examples remaining.
    pub remaining_unlabeled: usize,
}

/// Classic self-training: fit on labeled data, pseudo-label the unlabeled
/// pool where the model is confident, refit, repeat.
pub struct SelfTraining<C: Classifier> {
    base: C,
    /// Confidence threshold τ for accepting a pseudo-label.
    confidence: f32,
    /// Maximum pseudo-labels added per round (0 = unlimited).
    max_per_round: usize,
    /// Maximum rounds.
    max_rounds: usize,
    history: Vec<RoundStats>,
}

impl<C: Classifier> SelfTraining<C> {
    /// Wrap `base` with threshold `confidence` ∈ (0.5, 1.0].
    pub fn new(base: C, confidence: f32, max_rounds: usize) -> Self {
        assert!(
            confidence > 0.0 && confidence <= 1.0,
            "confidence must be in (0,1]"
        );
        assert!(max_rounds >= 1);
        SelfTraining { base, confidence, max_per_round: 0, max_rounds, history: Vec::new() }
    }

    /// Cap the number of pseudo-labels accepted per round (curriculum-style
    /// slow growth).
    pub fn with_max_per_round(mut self, cap: usize) -> Self {
        self.max_per_round = cap;
        self
    }

    /// Per-round statistics of the last `fit_semi` call.
    pub fn history(&self) -> &[RoundStats] {
        &self.history
    }

    /// The fitted underlying classifier.
    pub fn model(&self) -> &C {
        &self.base
    }

    /// Fit using `labeled` plus an `unlabeled` feature pool.
    pub fn fit_semi(&mut self, labeled: &Dataset, unlabeled: &Tensor) {
        self.history.clear();
        let d = labeled.dim();
        // itrust-lint: allow(panic-reachable) — pseudo-label indices come from argmax over the model's own output width
        assert_eq!(unlabeled.shape()[1], d, "feature dims must agree");
        let mut pool_x = labeled.x.clone();
        let mut pool_y = labeled.y.clone();
        let mut remaining: Vec<usize> = (0..unlabeled.shape()[0]).collect();
        self.base.fit(&Dataset::new(pool_x.clone(), pool_y.clone()));
        self.history.push(RoundStats {
            round: 0,
            labeled_size: pool_y.len(),
            newly_labeled: 0,
            remaining_unlabeled: remaining.len(),
        });
        for round in 1..=self.max_rounds {
            if remaining.is_empty() {
                break;
            }
            // Score the remaining pool.
            let mut cand_data = Vec::with_capacity(remaining.len() * d);
            for &i in &remaining {
                let start = i * d;
                cand_data.extend_from_slice(&unlabeled.data()[start..start + d]);
            }
            let cand = Tensor::from_vec(&[remaining.len(), d], cand_data);
            let probs = self.base.predict_proba(&cand);
            // Collect confident predictions, most confident first.
            let mut accepted: Vec<(usize, usize, f32)> = Vec::new(); // (pool pos, class, conf)
            for (pos, _) in remaining.iter().enumerate() {
                let row = probs.row(pos);
                let (class, &conf) = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    // itrust-lint: allow(panic-reachable) — probability rows always have n_classes ≥ 2 entries
                    .unwrap();
                if conf >= self.confidence {
                    accepted.push((pos, class, conf));
                }
            }
            accepted.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
            if self.max_per_round > 0 {
                accepted.truncate(self.max_per_round);
            }
            if accepted.is_empty() {
                break;
            }
            // Move accepted examples into the labeled pool.
            let mut taken: Vec<usize> = accepted.iter().map(|&(pos, _, _)| pos).collect();
            let mut new_x = pool_x.data().to_vec();
            for &(pos, class, _) in &accepted {
                let i = remaining[pos];
                new_x.extend_from_slice(&unlabeled.data()[i * d..(i + 1) * d]);
                pool_y.push(class);
            }
            pool_x = Tensor::from_vec(&[pool_y.len(), d], new_x);
            // Remove from the pool (descending positions keep indices valid).
            taken.sort_unstable_by(|a, b| b.cmp(a));
            for pos in taken {
                remaining.swap_remove(pos);
            }
            self.base.fit(&Dataset::new(pool_x.clone(), pool_y.clone()));
            self.history.push(RoundStats {
                round,
                labeled_size: pool_y.len(),
                newly_labeled: accepted.len(),
                remaining_unlabeled: remaining.len(),
            });
        }
    }
}

impl<C: Classifier> Classifier for SelfTraining<C> {
    fn fit(&mut self, data: &Dataset) {
        self.base.fit(data);
    }

    fn predict_proba(&self, x: &Tensor) -> Tensor {
        self.base.predict_proba(x)
    }

    fn n_classes(&self) -> usize {
        self.base.n_classes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classical::MultinomialNb;
    use crate::metrics::accuracy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two-class term-count vectors over a 6-word vocabulary: each of a
    /// document's `doc_len` tokens comes from its class's half of the
    /// vocabulary with probability 0.8, from the other half otherwise.
    fn counts(n_per_class: usize, doc_len: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n_per_class * 2 * 6);
        let mut y = Vec::with_capacity(n_per_class * 2);
        for class in 0..2usize {
            for _ in 0..n_per_class {
                let mut doc = [0.0f32; 6];
                for _ in 0..doc_len {
                    let half = if rng.gen_bool(0.8) { class } else { 1 - class };
                    doc[half * 3 + rng.gen_range(0..3usize)] += 1.0;
                }
                data.extend_from_slice(&doc);
                y.push(class);
            }
        }
        Dataset::new(Tensor::from_vec(&[n_per_class * 2, 6], data), y)
    }

    #[test]
    fn self_training_uses_unlabeled_data() {
        let mut rng = StdRng::seed_from_u64(40);
        let full = counts(300, 8, 41);
        let (labeled, unlabeled_ds) = full.split_labeled(0.02, &mut rng);
        let test = counts(200, 8, 42);

        // Supervised-only baseline on the tiny labeled set.
        let mut base = MultinomialNb::new(1.0);
        base.fit(&labeled);
        let acc_supervised = accuracy(&test.y, &base.predict(&test.x));

        // Self-training with the unlabeled pool.
        let mut st = SelfTraining::new(MultinomialNb::new(1.0), 0.9, 10);
        st.fit_semi(&labeled, &unlabeled_ds.x);
        let acc_semi = accuracy(&test.y, &st.predict(&test.x));

        assert!(
            acc_semi >= acc_supervised - 0.02,
            "self-training must not be much worse: semi {acc_semi} vs sup {acc_supervised}"
        );
        // History grew the pool.
        let h = st.history();
        assert!(h.len() >= 2, "at least one pseudo-labeling round");
        assert!(h.last().unwrap().labeled_size > labeled.len());
    }

    #[test]
    fn self_training_threshold_gates_growth() {
        let mut rng = StdRng::seed_from_u64(43);
        let full = counts(100, 4, 44);
        let (labeled, unlabeled_ds) = full.split_labeled(0.1, &mut rng);
        // The first round scores the pool with the model fitted on the
        // labeled set alone, so its top confidence decides whether any
        // pseudo-label is accepted.
        let mut base = MultinomialNb::new(1.0);
        base.fit(&labeled);
        let top = base.predict_proba(&unlabeled_ds.x).data().iter().copied().fold(0.0f32, f32::max);
        assert!(top < 1.0, "short documents keep every posterior below 1");

        // A threshold just above the top confidence admits nothing.
        let mut gated = SelfTraining::new(MultinomialNb::new(1.0), top.next_up(), 5);
        gated.fit_semi(&labeled, &unlabeled_ds.x);
        assert_eq!(gated.history().len(), 1, "no round may run past the gate");
        assert_eq!(gated.history()[0].labeled_size, labeled.len());

        // At exactly the top confidence the same pool grows.
        let mut open = SelfTraining::new(MultinomialNb::new(1.0), top, 5);
        open.fit_semi(&labeled, &unlabeled_ds.x);
        assert!(open.history()[1].newly_labeled >= 1);

        // With max_per_round = 1 and a threshold every two-class posterior
        // meets, each of the 3 rounds adds exactly one pseudo-label.
        let mut capped = SelfTraining::new(MultinomialNb::new(1.0), 0.5, 3).with_max_per_round(1);
        capped.fit_semi(&labeled, &unlabeled_ds.x);
        let h = capped.history();
        assert_eq!(h.len(), 4, "initial fit plus 3 rounds");
        assert!(h[1..].iter().all(|s| s.newly_labeled == 1));
        assert_eq!(h[3].labeled_size - labeled.len(), 3, "cap 1/round × 3 rounds");
    }

    #[test]
    fn self_training_history_is_monotone() {
        let mut rng = StdRng::seed_from_u64(45);
        let full = counts(150, 6, 46);
        let (labeled, unlabeled_ds) = full.split_labeled(0.05, &mut rng);
        let mut st = SelfTraining::new(MultinomialNb::new(1.0), 0.8, 8);
        st.fit_semi(&labeled, &unlabeled_ds.x);
        let h = st.history();
        assert!(h.len() >= 2, "at least one pseudo-labeling round");
        for w in h.windows(2) {
            assert!(w[1].labeled_size >= w[0].labeled_size);
            assert!(w[1].remaining_unlabeled <= w[0].remaining_unlabeled);
        }
        // Conservation: labeled + remaining == total.
        let total = labeled.len() + unlabeled_ds.len();
        for s in h {
            assert_eq!(s.labeled_size + s.remaining_unlabeled, total);
        }
    }

    #[test]
    fn self_training_as_classifier_trait() {
        // SelfTraining itself implements Classifier, so it can nest.
        let mut rng = StdRng::seed_from_u64(47);
        let full = counts(100, 8, 48);
        let (labeled, unlabeled_ds) = full.split_labeled(0.1, &mut rng);
        let inner = SelfTraining::new(MultinomialNb::new(1.0), 0.9, 3);
        let mut st = SelfTraining::new(inner, 0.9, 3);
        st.fit_semi(&labeled, &unlabeled_ds.x);
        assert!(st.history().len() >= 2, "the outer wrapper grew its pool");
        let preds = st.predict(&full.x);
        assert!(accuracy(&full.y, &preds) > 0.9);
        assert_eq!(st.n_classes(), 2);
    }
}
