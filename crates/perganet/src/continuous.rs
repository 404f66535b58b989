//! Continuous learning from (simulated) manual annotations.
//!
//! The paper: "the proposed approach aims to reduce hand-operated analysis
//! while using manual annotations as a form of continuous learning …
//! manually verified data will be used as continuous learning and
//! maintained as training datasets." This module implements that loop for
//! the recto/verso classifier with a *simulated annotator* of configurable
//! error rate — Experiment D7 sweeps the error rate and tracks the
//! accuracy trajectory across retraining rounds.

use crate::classifier::VggLite;
use crate::corpus::{Parchment, Side};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A human annotator who verifies model outputs, with an error rate.
#[derive(Debug, Clone)]
pub struct SimulatedAnnotator {
    /// Probability the annotator records the *wrong* label.
    pub error_rate: f64,
    rng: StdRng,
}

impl SimulatedAnnotator {
    /// Annotator with the given error rate.
    pub fn new(error_rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&error_rate));
        SimulatedAnnotator { error_rate, rng: StdRng::seed_from_u64(seed) }
    }

    /// Produce this annotator's label for a parchment (the truth, flipped
    /// with probability `error_rate`).
    pub fn annotate(&mut self, truth: Side) -> Side {
        if self.rng.gen_bool(self.error_rate) {
            match truth {
                Side::Recto => Side::Verso,
                Side::Verso => Side::Recto,
            }
        } else {
            truth
        }
    }
}

/// One round's outcome in the continuous-learning trajectory.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Round index (0 = initial training).
    pub round: usize,
    /// Training-pool size used this round.
    pub pool_size: usize,
    /// Held-out accuracy after this round's (re)training.
    pub held_out_accuracy: f64,
}

/// Run the continuous-learning loop:
///
/// 1. Train on `initial` (with annotator-provided labels).
/// 2. Each round, a new batch arrives; the annotator verifies the model's
///    predictions (simulating "manual tagging"); verified items join the
///    training pool; the model retrains from scratch on the grown pool.
/// 3. Held-out accuracy is recorded after every round.
///
/// Round counters and the loop span are recorded into `obs`.
#[allow(clippy::too_many_arguments)]
pub fn continuous_learning(
    seed: u64,
    initial: &[Parchment],
    incoming_batches: &[Vec<Parchment>],
    held_out: &[Parchment],
    annotator: &mut SimulatedAnnotator,
    epochs: usize,
    lr: f32,
    obs: &itrust_obs::ObsCtx,
) -> Vec<RoundOutcome> {
    let _span = itrust_obs::span!(obs, "perganet.continuous.learn");
    itrust_obs::counter_add!(
        obs,
        "perganet.continuous.rounds",
        incoming_batches.len() as u64 + 1
    );
    // The annotator labels everything that enters the pool (including the
    // seed set — real archives bootstrap from human-tagged data).
    let relabel = |items: &[Parchment], annotator: &mut SimulatedAnnotator| -> Vec<Parchment> {
        items
            .iter()
            .map(|p| {
                let mut q = p.clone();
                q.truth.side = annotator.annotate(p.truth.side);
                q
            })
            .collect()
    };
    let mut pool = relabel(initial, annotator);
    let mut outcomes = Vec::with_capacity(incoming_batches.len() + 1);
    let mut model = VggLite::new(seed);
    model.train(&pool, epochs, lr);
    outcomes.push(RoundOutcome {
        round: 0,
        pool_size: pool.len(),
        held_out_accuracy: model.evaluate(held_out),
    });
    for (i, batch) in incoming_batches.iter().enumerate() {
        pool.extend(relabel(batch, annotator));
        // Retrain from scratch on the grown pool (simple and robust; online
        // fine-tuning is an ablation the bench explores via fewer epochs).
        let mut model = VggLite::new(seed.wrapping_add(i as u64 + 1));
        model.train(&pool, epochs, lr);
        outcomes.push(RoundOutcome {
            round: i + 1,
            pool_size: pool.len(),
            held_out_accuracy: model.evaluate(held_out),
        });
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate, CorpusConfig};

    #[test]
    fn annotator_error_rate_zero_is_truth() {
        let mut a = SimulatedAnnotator::new(0.0, 1);
        for _ in 0..50 {
            assert_eq!(a.annotate(Side::Recto), Side::Recto);
            assert_eq!(a.annotate(Side::Verso), Side::Verso);
        }
    }

    #[test]
    fn annotator_error_rate_one_always_flips() {
        let mut a = SimulatedAnnotator::new(1.0, 2);
        assert_eq!(a.annotate(Side::Recto), Side::Verso);
        assert_eq!(a.annotate(Side::Verso), Side::Recto);
    }

    #[test]
    fn annotator_error_rate_is_statistical() {
        let mut a = SimulatedAnnotator::new(0.2, 3);
        let flips = (0..1000)
            .filter(|_| a.annotate(Side::Recto) == Side::Verso)
            .count();
        assert!((150..=250).contains(&flips), "flips {flips}");
    }

    #[test]
    fn accuracy_grows_with_verified_batches() {
        // Small seed set, two incoming batches, perfect annotator.
        let seed_set = generate(CorpusConfig { count: 30, damage: 0, seed: 41 });
        let batches = vec![
            generate(CorpusConfig { count: 60, damage: 0, seed: 42 }),
            generate(CorpusConfig { count: 60, damage: 0, seed: 43 }),
        ];
        let held_out = generate(CorpusConfig { count: 60, damage: 0, seed: 44 });
        let mut annotator = SimulatedAnnotator::new(0.0, 45);
        let outcomes = continuous_learning(
            46,
            &seed_set,
            &batches,
            &held_out,
            &mut annotator,
            5,
            0.005,
            &itrust_obs::ObsCtx::null(),
        );
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].pool_size, 30);
        assert_eq!(outcomes[2].pool_size, 150);
        let first = outcomes.first().unwrap().held_out_accuracy;
        let last = outcomes.last().unwrap().held_out_accuracy;
        assert!(
            last >= first - 0.05,
            "accuracy should not collapse as the pool grows: {first} → {last}"
        );
        assert!(last > 0.85, "final accuracy {last}");
    }

    #[test]
    fn noisy_annotator_hurts_final_accuracy() {
        let seed_set = generate(CorpusConfig { count: 30, damage: 0, seed: 51 });
        let batches = vec![generate(CorpusConfig { count: 90, damage: 0, seed: 52 })];
        let held_out = generate(CorpusConfig { count: 60, damage: 0, seed: 53 });
        let clean = continuous_learning(
            54,
            &seed_set,
            &batches,
            &held_out,
            &mut SimulatedAnnotator::new(0.0, 55),
            5,
            0.005,
            &itrust_obs::ObsCtx::null(),
        );
        let noisy = continuous_learning(
            54,
            &seed_set,
            &batches,
            &held_out,
            &mut SimulatedAnnotator::new(0.35, 55),
            5,
            0.005,
            &itrust_obs::ObsCtx::null(),
        );
        let clean_final = clean.last().unwrap().held_out_accuracy;
        let noisy_final = noisy.last().unwrap().held_out_accuracy;
        assert!(
            clean_final > noisy_final,
            "35% label noise must hurt: clean {clean_final} vs noisy {noisy_final}"
        );
    }
}
