//! Multinomial naive Bayes over count features — the standard baseline for
//! text such as TF vectors.

use super::Classifier;
use crate::data::Dataset;
use crate::tensor::Tensor;

/// Multinomial naive Bayes with Laplace (add-α) smoothing, for non-negative
/// count features (term frequencies).
#[derive(Debug, Clone)]
pub struct MultinomialNb {
    alpha: f64,
    log_prior: Vec<f64>,
    /// log P(feature | class)
    log_likelihood: Vec<Vec<f64>>,
    dim: usize,
}

impl Default for MultinomialNb {
    fn default() -> Self {
        Self::new(1.0)
    }
}

impl MultinomialNb {
    /// `alpha` is the Laplace smoothing constant (1.0 = classic add-one).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0, "smoothing must be positive");
        MultinomialNb { alpha, log_prior: Vec::new(), log_likelihood: Vec::new(), dim: 0 }
    }
}

impl Classifier for MultinomialNb {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty());
        let k = data.n_classes();
        let d = data.dim();
        let mut class_counts = vec![0usize; k];
        let mut feature_counts = vec![vec![0.0f64; d]; k];
        for i in 0..data.len() {
            // itrust-lint: allow(panic-reachable) — row/column loops are bounded by the dataset dims validated in fit
            let c = data.y[i];
            class_counts[c] += 1;
            for (fc, &v) in feature_counts[c].iter_mut().zip(data.x.row(i)) {
                debug_assert!(v >= 0.0, "multinomial NB requires non-negative features");
                *fc += v as f64;
            }
        }
        self.log_prior = class_counts
            .iter()
            .map(|&c| ((c.max(1)) as f64 / data.len() as f64).ln())
            .collect();
        self.log_likelihood = feature_counts
            .iter()
            .map(|counts| {
                let total: f64 = counts.iter().sum::<f64>() + self.alpha * d as f64;
                counts.iter().map(|&c| ((c + self.alpha) / total).ln()).collect()
            })
            .collect();
        self.dim = d;
    }

    fn predict_proba(&self, x: &Tensor) -> Tensor {
        assert!(!self.log_likelihood.is_empty(), "model not fitted");
        // itrust-lint: allow(panic-reachable) — row/column loops are bounded by the dataset dims validated in fit
        assert_eq!(x.shape()[1], self.dim);
        let k = self.log_likelihood.len();
        let n = x.shape()[0];
        let mut out = Tensor::zeros(&[n, k]);
        for r in 0..n {
            let row = x.row(r);
            let mut log_post: Vec<f64> = (0..k)
                .map(|c| {
                    self.log_prior[c]
                        + row
                            .iter()
                            .zip(&self.log_likelihood[c])
                            .map(|(&v, &ll)| v as f64 * ll)
                            .sum::<f64>()
                })
                .collect();
            let max = log_post.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut denom = 0.0;
            for lp in &mut log_post {
                *lp = (*lp - max).exp();
                denom += *lp;
            }
            for (c, lp) in log_post.iter().enumerate() {
                *out.at2_mut(r, c) = (lp / denom) as f32;
            }
        }
        out
    }

    fn n_classes(&self) -> usize {
        self.log_likelihood.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multinomial_nb_classifies_word_counts() {
        // Vocabulary: [archive, record, pixel, image].
        // Class 0 = textual docs, class 1 = imaging docs.
        let x = Tensor::from_vec(&[6, 4], vec![
            3.0, 2.0, 0.0, 0.0,
            4.0, 1.0, 0.0, 1.0,
            2.0, 3.0, 1.0, 0.0,
            0.0, 0.0, 3.0, 2.0,
            0.0, 1.0, 4.0, 4.0,
            1.0, 0.0, 2.0, 3.0,
        ]);
        let data = Dataset::new(x.clone(), vec![0, 0, 0, 1, 1, 1]);
        let mut nb = MultinomialNb::new(1.0);
        nb.fit(&data);
        assert_eq!(nb.predict(&x), vec![0, 0, 0, 1, 1, 1]);
        // Unseen doc heavy on "pixel image" → class 1.
        let probe = Tensor::from_vec(&[1, 4], vec![0.0, 0.0, 5.0, 5.0]);
        assert_eq!(nb.predict(&probe), vec![1]);
    }

    #[test]
    fn multinomial_nb_smoothing_handles_unseen_words() {
        let x = Tensor::from_vec(&[2, 3], vec![5.0, 0.0, 0.0, 0.0, 5.0, 0.0]);
        let data = Dataset::new(x, vec![0, 1]);
        let mut nb = MultinomialNb::new(1.0);
        nb.fit(&data);
        // Feature 2 never appears in training; prediction must stay finite.
        let probe = Tensor::from_vec(&[1, 3], vec![0.0, 0.0, 10.0]);
        let p = nb.predict_proba(&probe);
        assert!(p.all_finite());
    }

    #[test]
    fn class_priors_break_ties() {
        // Identical likelihoods, imbalanced priors → majority class wins.
        let x = Tensor::from_vec(&[4, 1], vec![1.0, 1.0, 1.0, 1.0]);
        let data = Dataset::new(x, vec![0, 0, 0, 1]);
        let mut nb = MultinomialNb::new(1.0);
        nb.fit(&data);
        let probe = Tensor::from_vec(&[1, 1], vec![1.0]);
        assert_eq!(nb.predict(&probe), vec![0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn fitting_empty_dataset_panics() {
        let data = Dataset::new(Tensor::zeros(&[0, 2]), vec![]);
        MultinomialNb::new(1.0).fit(&data);
    }
}
