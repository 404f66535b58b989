//! D3 — TAR vs linear review: documents examined to reach 80% / 95%
//! recall across positive-prevalence levels, plus the seed/batch ablation.

use itrust_core::sensitivity::generate_corpus;
use itrust_core::tar::{linear_review, tar_review, TarConfig};

/// Result row for one prevalence level.
#[derive(Debug, Clone)]
pub struct PrevalenceRow {
    /// Fraction of documents that are sensitive.
    pub prevalence: f64,
    /// Corpus size.
    pub corpus: usize,
    /// Positives present.
    pub positives: usize,
    /// Linear docs to 80% recall.
    pub linear_80: usize,
    /// TAR docs to 80% recall.
    pub tar_80: usize,
    /// Linear docs to 95% recall.
    pub linear_95: usize,
    /// TAR docs to 95% recall.
    pub tar_95: usize,
}

/// Sweep prevalence ∈ {2%, 5%, 10%} on 1000-document corpora.
pub fn run(obs: &itrust_obs::ObsCtx) -> (Vec<PrevalenceRow>, String) {
    let mut rows = Vec::new();
    for &prevalence in &[0.02, 0.05, 0.10] {
        let corpus = generate_corpus(1000, prevalence, 0.1, 5_000 + (prevalence * 100.0) as u64);
        let linear = linear_review(&corpus, obs);
        let tar = tar_review(&corpus, TarConfig::default(), obs);
        rows.push(PrevalenceRow {
            prevalence,
            corpus: corpus.len(),
            positives: tar.total_positives,
            linear_80: linear.docs_to_recall(0.8).unwrap_or(corpus.len()),
            tar_80: tar.docs_to_recall(0.8).unwrap_or(corpus.len()),
            linear_95: linear.docs_to_recall(0.95).unwrap_or(corpus.len()),
            tar_95: tar.docs_to_recall(0.95).unwrap_or(corpus.len()),
        });
    }
    let mut out = String::from(
        "D3 — TAR (continuous active learning) vs linear review, 1000 docs\n\
         prevalence%   positives   linear→80%   TAR→80%   linear→95%   TAR→95%   speedup@95%\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:>11.0} {:>11} {:>12} {:>9} {:>12} {:>9} {:>12.1}×\n",
            r.prevalence * 100.0,
            r.positives,
            r.linear_80,
            r.tar_80,
            r.linear_95,
            r.tar_95,
            r.linear_95 as f64 / r.tar_95.max(1) as f64
        ));
    }
    (rows, out)
}

/// Ablation: docs-to-95%-recall vs (seed size, batch size).
pub fn seed_batch_ablation() -> (Vec<(usize, usize, usize)>, String) {
    let corpus = generate_corpus(1000, 0.05, 0.1, 6_000);
    let mut rows = Vec::new();
    for &(seed_size, batch_size) in &[(10usize, 10usize), (20, 20), (50, 50), (20, 100)] {
        let config = TarConfig { seed_size, batch_size, seed: 9 };
        let tar = tar_review(&corpus, config, &itrust_obs::ObsCtx::null());
        rows.push((seed_size, batch_size, tar.docs_to_recall(0.95).unwrap_or(1000)));
    }
    let mut out =
        String::from("D3 ablation — TAR seed/batch size (5% prevalence)\n  seed   batch   docs→95%\n");
    for (s, b, d) in &rows {
        out.push_str(&format!("  {s:<6} {b:<7} {d}\n"));
    }
    (rows, out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tar_wins_at_every_prevalence() {
        let (rows, _) = super::run(&itrust_obs::ObsCtx::null());
        for r in &rows {
            assert!(
                r.tar_95 < r.linear_95,
                "prevalence {}: TAR {} vs linear {}",
                r.prevalence,
                r.tar_95,
                r.linear_95
            );
            assert!(r.tar_80 <= r.tar_95);
        }
        // The speedup is substantial at every prevalence (≥ 1.5×).
        for r in &rows {
            let speedup = r.linear_95 as f64 / r.tar_95.max(1) as f64;
            assert!(speedup >= 1.5, "prevalence {}: speedup {speedup}", r.prevalence);
        }
    }
}
