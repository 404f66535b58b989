//! Stage 1: recto/verso classification ("a VGG16 Network trained on a
//! dataset of scanned parchments is needed to solve a classification task:
//! recto/verso"). `VggLite` keeps VGG's conv→pool→conv→pool→dense shape at
//! a size trainable in seconds on a laptop.

use crate::corpus::{Parchment, Side, IMG};
use crate::image::GrayImage;
use neural::layers::{Conv2d, Dense, Flatten, MaxPool2d, ReLU};
use neural::net::Sequential;
use neural::optim::Adam;
use neural::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Model identifier recorded in AI paradata.
pub const MODEL_ID: &str = "perganet/vgglite-v1";

/// The recto/verso CNN.
pub struct VggLite {
    net: Sequential,
    rng: StdRng,
    trained: bool,
}

impl VggLite {
    /// Fresh, untrained model.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Sequential::new()
            .push(Conv2d::new(1, 6, 3, 1, &mut rng))
            .push(ReLU::new())
            .push(MaxPool2d::new())
            .push(Conv2d::new(6, 12, 3, 1, &mut rng))
            .push(ReLU::new())
            .push(MaxPool2d::new())
            .push(Flatten::new())
            .push(Dense::new(12 * (IMG / 4) * (IMG / 4), 32, &mut rng))
            .push(ReLU::new())
            .push(Dense::new(32, 2, &mut rng));
        VggLite { net, rng, trained: false }
    }

    /// Trainable parameter count (for paradata).
    pub fn param_count(&mut self) -> usize {
        self.net.param_count()
    }

    /// Whether [`VggLite::train`] has run.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Train on a labeled corpus; returns the mean loss per epoch.
    pub fn train(&mut self, corpus: &[Parchment], epochs: usize, lr: f32) -> Vec<f32> {
        assert!(!corpus.is_empty(), "empty training corpus");
        let mut optim = Adam::new(lr);
        let mut order: Vec<&Parchment> = corpus.iter().collect();
        let mut epoch_losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            order.shuffle(&mut self.rng);
            let mut losses = Vec::new();
            for chunk in order.chunks(16) {
                let tensors: Vec<Tensor> = chunk.iter().map(|p| p.image.to_tensor()).collect();
                let x = Tensor::stack_batch(&tensors);
                let y: Vec<usize> = chunk.iter().map(|p| p.truth.side.class()).collect();
                losses.push(self.net.train_step_ce(&x, &y, &mut optim));
            }
            epoch_losses.push(losses.iter().sum::<f32>() / losses.len() as f32);
        }
        self.trained = true;
        epoch_losses
    }

    /// Classify one image, returning the side and the softmax confidence.
    pub fn predict(&mut self, image: &GrayImage) -> (Side, f32) {
        let probs = self.net.predict_proba(&image.to_tensor());
        // itrust-lint: allow(panic-reachable) — `to_tensor` makes a one-image batch, so `argmax_rows` has exactly one entry
        let class = probs.argmax_rows()[0];
        (Side::from_class(class), probs.at2(0, class))
    }

    /// Accuracy over a labeled corpus.
    pub fn evaluate(&mut self, corpus: &[Parchment]) -> f64 {
        if corpus.is_empty() {
            return 1.0;
        }
        let correct = corpus
            .iter()
            .map(|p| {
                let tensors = [p.image.to_tensor()];
                let x = Tensor::stack_batch(&tensors);
                let pred = self.net.predict_classes(&x);
                usize::from(pred == [p.truth.side.class()])
            })
            .sum::<usize>();
        correct as f64 / corpus.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate, CorpusConfig};

    #[test]
    fn learns_recto_verso_on_pristine_corpus() {
        let train = generate(CorpusConfig { count: 120, damage: 0, seed: 1 });
        let test = generate(CorpusConfig { count: 60, damage: 0, seed: 2 });
        let mut model = VggLite::new(7);
        assert!(!model.is_trained());
        let losses = model.train(&train, 6, 0.005);
        assert!(model.is_trained());
        assert!(
            losses.last().unwrap() < &0.3,
            "training did not converge: {losses:?}"
        );
        let acc = model.evaluate(&test);
        assert!(acc > 0.9, "held-out accuracy {acc}");
    }

    #[test]
    fn survives_damage_with_degraded_but_usable_accuracy() {
        let train = generate(CorpusConfig { count: 120, damage: 2, seed: 3 });
        let test = generate(CorpusConfig { count: 60, damage: 2, seed: 4 });
        let mut model = VggLite::new(8);
        model.train(&train, 6, 0.005);
        let acc = model.evaluate(&test);
        assert!(acc > 0.8, "damaged-corpus accuracy {acc}");
    }

    #[test]
    fn predict_reports_confidence_in_unit_interval() {
        let train = generate(CorpusConfig { count: 60, damage: 0, seed: 5 });
        let mut model = VggLite::new(9);
        model.train(&train, 3, 0.005);
        let (side, conf) = model.predict(&train[0].image);
        assert!(matches!(side, Side::Recto | Side::Verso));
        assert!((0.0..=1.0).contains(&conf));
        assert!(conf >= 0.5, "argmax confidence is at least 0.5 for 2 classes");
    }

    #[test]
    fn param_count_is_stable_and_nonzero() {
        let mut model = VggLite::new(1);
        let expected = (6 * 9 + 6)
            + (12 * 6 * 9 + 12)
            + (12 * 8 * 8 * 32 + 32)
            + (32 * 2 + 2);
        assert_eq!(model.param_count(), expected);
    }

    #[test]
    fn training_losses_decrease() {
        let train = generate(CorpusConfig { count: 100, damage: 0, seed: 6 });
        let mut model = VggLite::new(10);
        let losses = model.train(&train, 5, 0.005);
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn training_on_empty_corpus_panics() {
        VggLite::new(1).train(&[], 1, 0.01);
    }
}
