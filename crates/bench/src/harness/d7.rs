//! D7 — continuous learning under annotator noise: the accuracy trajectory
//! of the PergaNet classifier across retraining rounds as the simulated
//! annotator's error rate varies (§3.2's "manual annotations as a form of
//! continuous learning").

use perganet::continuous::{continuous_learning, RoundOutcome, SimulatedAnnotator};
use perganet::corpus::{generate, CorpusConfig};

/// Trajectory for one annotator error rate.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// Annotator error rate.
    pub error_rate: f64,
    /// Per-round outcomes.
    pub rounds: Vec<RoundOutcome>,
}

/// Sweep annotator error ∈ {0%, 5%, 20%} over 3 feedback rounds.
pub fn run(obs: &itrust_obs::ObsCtx) -> (Vec<Trajectory>, String) {
    let seed_set = generate(CorpusConfig { count: 30, damage: 0, seed: 1 });
    let batches: Vec<_> = (0..3)
        .map(|i| generate(CorpusConfig { count: 50, damage: 0, seed: 2 + i }))
        .collect();
    let held_out = generate(CorpusConfig { count: 80, damage: 0, seed: 10 });
    let mut trajectories = Vec::new();
    for &error_rate in &[0.0, 0.05, 0.20] {
        let mut annotator = SimulatedAnnotator::new(error_rate, 42);
        let rounds = continuous_learning(
            7, &seed_set, &batches, &held_out, &mut annotator, 6, 0.005, obs,
        );
        trajectories.push(Trajectory { error_rate, rounds });
    }
    let mut out = String::from(
        "D7 — continuous learning vs annotator error (held-out accuracy per round)\n\
         error%     round 0    round 1    round 2    round 3   (pool 30→180)\n",
    );
    for t in &trajectories {
        let accs: Vec<String> =
            t.rounds.iter().map(|r| format!("{:>10.3}", r.held_out_accuracy)).collect();
        out.push_str(&format!("{:>6.0} {}\n", t.error_rate * 100.0, accs.join("")));
    }
    (trajectories, out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn clean_annotator_ends_at_least_as_high_as_noisy() {
        let (trajectories, _) = super::run(&itrust_obs::ObsCtx::null());
        let final_acc =
            |t: &super::Trajectory| t.rounds.last().unwrap().held_out_accuracy;
        let clean = final_acc(&trajectories[0]);
        let noisy = final_acc(&trajectories[2]);
        assert!(
            clean >= noisy - 0.02,
            "clean {clean} must not lag 20%-noise {noisy}"
        );
        // Pool growth is identical across error rates.
        for t in &trajectories {
            assert_eq!(t.rounds.last().unwrap().pool_size, 180);
        }
    }
}
