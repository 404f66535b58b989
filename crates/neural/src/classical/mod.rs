//! Classical (non-deep) machine learning: the multinomial naive Bayes text
//! classifier behind the sensitivity (D2) and technology-assisted review
//! (D3) studies, and the [`Classifier`] trait the semi-supervised wrapper
//! is generic over.

mod bayes;

pub use bayes::MultinomialNb;

use crate::data::Dataset;
use crate::tensor::Tensor;

/// A supervised classifier over dense feature vectors.
///
/// The self-training wrapper in [`crate::semi`] is generic over this trait,
/// so any model implementing it can be self-trained.
pub trait Classifier: Send {
    /// Fit to a labeled dataset, replacing any previous fit.
    fn fit(&mut self, data: &Dataset);

    /// Per-class probabilities, shape `[rows, n_classes]`, rows summing
    /// to 1.
    fn predict_proba(&self, x: &Tensor) -> Tensor;

    /// Number of classes the model was fitted with.
    fn n_classes(&self) -> usize;

    /// Hard class predictions (argmax of probabilities).
    fn predict(&self, x: &Tensor) -> Vec<usize> {
        self.predict_proba(x).argmax_rows()
    }
}
