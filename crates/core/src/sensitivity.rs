//! Sensitive-information classification.
//!
//! Section 2's running example of supervised learning is "a model that
//! detects sensitive information, labels can be from the set {sensitive,
//! not-sensitive}", and the conclusion lists "declassification of personal
//! information using AI tools" among the forty studies. This module
//! provides:
//!
//! * a synthetic document generator with controllable prevalence of
//!   sensitive content (personal data, medical, security vocabulary),
//! * a bag-of-words featurizer over the [`crate::text`] substrate,
//! * [`SensitivityModel`] — a classifier (multinomial naive Bayes by
//!   default) with supervised and self-training (semi-supervised) fit
//!   paths, the subject of Experiment D2.

use crate::text::Vocabulary;
use neural::classical::{Classifier, MultinomialNb};
use neural::data::Dataset;
use neural::semi::SelfTraining;
use neural::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Class index of "not sensitive".
pub const NOT_SENSITIVE: usize = 0;
/// Class index of "sensitive".
pub const SENSITIVE: usize = 1;

/// One generated document with its true label.
#[derive(Debug, Clone)]
pub struct LabeledDoc {
    /// Document text.
    pub text: String,
    /// True class ([`SENSITIVE`] or [`NOT_SENSITIVE`]).
    pub label: usize,
}

const ROUTINE_VOCAB: &[&str] = &[
    "meeting", "agenda", "minutes", "budget", "schedule", "report", "project", "committee",
    "archive", "transfer", "storage", "catalogue", "description", "finding", "aid", "records",
    "annual", "review", "policy", "procedure", "building", "maintenance", "library",
];

const SENSITIVE_VOCAB: &[&str] = &[
    "diagnosis", "patient", "medical", "salary", "disciplinary", "complaint", "informant",
    "classified", "surveillance", "passport", "benefits", "juvenile", "adoption", "asylum",
    "criminal", "conviction", "psychiatric", "hiv", "grievance", "whistleblower",
];

/// Generate `n` documents with the given prevalence of sensitive documents.
/// Sensitive documents mix sensitive and routine vocabulary; routine ones
/// use routine vocabulary only (plus rare noise terms so the task is not
/// trivially separable at damage > 0).
pub fn generate_corpus(n: usize, prevalence: f64, noise: f64, seed: u64) -> Vec<LabeledDoc> {
    assert!((0.0..=1.0).contains(&prevalence) && (0.0..=1.0).contains(&noise));
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let sensitive = rng.gen_bool(prevalence);
            let len = rng.gen_range(20..60);
            let mut words = Vec::with_capacity(len);
            for _ in 0..len {
                let from_sensitive = if sensitive {
                    // Sensitive docs draw ~30% of tokens from the sensitive
                    // vocabulary, less under noise.
                    rng.gen_bool(0.3 * (1.0 - noise))
                } else {
                    // Routine docs leak an occasional sensitive term under
                    // noise (e.g. "criminal" in a history lecture notice).
                    rng.gen_bool(0.03 * noise)
                };
                let pool = if from_sensitive { SENSITIVE_VOCAB } else { ROUTINE_VOCAB };
                // itrust-lint: allow(panic-reachable) — feature indices are bounded by the model width fixed at fit time
                words.push(pool[rng.gen_range(0..pool.len())]);
            }
            LabeledDoc {
                text: words.join(" "),
                label: if sensitive { SENSITIVE } else { NOT_SENSITIVE },
            }
        })
        .collect()
}

/// Fitted sensitivity classifier: vocabulary + model.
pub struct SensitivityModel {
    vocab: Vocabulary,
    model: SelfTraining<MultinomialNb>,
}

/// How the model was fitted (recorded as paradata upstream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitMode {
    /// Labeled data only.
    Supervised,
    /// Labeled data plus an unlabeled pool via self-training.
    SemiSupervised,
}

impl SensitivityModel {
    /// Fit on labeled docs, optionally exploiting an unlabeled pool via
    /// self-training (confidence 0.9, ≤ 10 rounds), timed into `obs`.
    pub fn fit(
        labeled: &[LabeledDoc],
        unlabeled: &[String],
        mode: FitMode,
        obs: &itrust_obs::ObsCtx,
    ) -> SensitivityModel {
        let _span = itrust_obs::span!(obs, "core.sensitivity.fit");
        assert!(!labeled.is_empty(), "need labeled documents");
        let mut all_texts: Vec<&str> = labeled.iter().map(|d| d.text.as_str()).collect();
        all_texts.extend(unlabeled.iter().map(|s| s.as_str()));
        let vocab = Vocabulary::fit(&all_texts, 1);
        let x = vocab.tf_matrix(
            &labeled.iter().map(|d| d.text.as_str()).collect::<Vec<_>>(),
        );
        let y: Vec<usize> = labeled.iter().map(|d| d.label).collect();
        let dataset = Dataset::new(x, y);
        let mut model = SelfTraining::new(MultinomialNb::new(1.0), 0.9, 10);
        match mode {
            FitMode::Supervised => model.fit(&dataset),
            FitMode::SemiSupervised => {
                let pool = vocab.tf_matrix(
                    &unlabeled.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
                );
                model.fit_semi(&dataset, &pool);
            }
        }
        SensitivityModel { vocab, model }
    }

    /// Probability each document is sensitive, in input order.
    pub fn score(&self, docs: &[String]) -> Vec<f32> {
        if docs.is_empty() {
            return Vec::new();
        }
        let x: Tensor =
            self.vocab.tf_matrix(&docs.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        let probs = self.model.predict_proba(&x);
        (0..docs.len()).map(|r| probs.at2(r, SENSITIVE)).collect()
    }

    /// Hard labels at a 0.5 threshold.
    pub fn classify(&self, docs: &[String]) -> Vec<usize> {
        self.score(docs)
            .into_iter()
            .map(|p| usize::from(p >= 0.5))
            .collect()
    }

    /// Accuracy on a labeled set.
    pub fn accuracy(&self, docs: &[LabeledDoc]) -> f64 {
        let texts: Vec<String> = docs.iter().map(|d| d.text.clone()).collect();
        let preds = self.classify(&texts);
        let truth: Vec<usize> = docs.iter().map(|d| d.label).collect();
        neural::metrics::accuracy(&truth, &preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itrust_obs::ObsCtx;

    #[test]
    fn corpus_prevalence_and_determinism() {
        let docs = generate_corpus(1000, 0.2, 0.0, 1);
        let sensitive = docs.iter().filter(|d| d.label == SENSITIVE).count();
        assert!((150..=250).contains(&sensitive), "sensitive count {sensitive}");
        let again = generate_corpus(1000, 0.2, 0.0, 1);
        assert_eq!(docs[0].text, again[0].text);
    }

    #[test]
    fn supervised_model_separates_classes() {
        let train = generate_corpus(400, 0.3, 0.1, 2);
        let test = generate_corpus(200, 0.3, 0.1, 3);
        let model = SensitivityModel::fit(&train, &[], FitMode::Supervised, &ObsCtx::null());
        let acc = model.accuracy(&test);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn scores_are_probabilities_and_ordered_by_content() {
        let train = generate_corpus(300, 0.3, 0.0, 4);
        let model = SensitivityModel::fit(&train, &[], FitMode::Supervised, &ObsCtx::null());
        let scores = model.score(&[
            "patient diagnosis psychiatric classified informant".to_string(),
            "meeting agenda budget schedule committee".to_string(),
        ]);
        assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
        assert!(scores[0] > scores[1], "{scores:?}");
        assert!(model.score(&[]).is_empty());
    }

    #[test]
    fn semi_supervised_helps_with_scarce_labels() {
        // 2% labels; semi-supervised must not be (much) worse and usually
        // better — the D2 claim in miniature.
        let full = generate_corpus(800, 0.3, 0.15, 5);
        let test = generate_corpus(300, 0.3, 0.15, 6);
        let labeled: Vec<LabeledDoc> = full.iter().take(16).cloned().collect();
        let unlabeled: Vec<String> = full.iter().skip(16).map(|d| d.text.clone()).collect();
        let supervised = SensitivityModel::fit(&labeled, &[], FitMode::Supervised, &ObsCtx::null());
        let semi =
            SensitivityModel::fit(&labeled, &unlabeled, FitMode::SemiSupervised, &ObsCtx::null());
        let acc_sup = supervised.accuracy(&test);
        let acc_semi = semi.accuracy(&test);
        assert!(
            acc_semi >= acc_sup - 0.03,
            "semi {acc_semi} must not lag supervised {acc_sup}"
        );
    }

    #[test]
    fn noise_makes_the_task_harder() {
        let clean_train = generate_corpus(400, 0.3, 0.0, 7);
        let clean_test = generate_corpus(200, 0.3, 0.0, 8);
        let noisy_train = generate_corpus(400, 0.3, 0.9, 7);
        let noisy_test = generate_corpus(200, 0.3, 0.9, 8);
        let clean_acc =
            SensitivityModel::fit(&clean_train, &[], FitMode::Supervised, &ObsCtx::null())
            .accuracy(&clean_test);
        let noisy_acc =
            SensitivityModel::fit(&noisy_train, &[], FitMode::Supervised, &ObsCtx::null())
            .accuracy(&noisy_test);
        assert!(clean_acc >= noisy_acc, "clean {clean_acc} vs noisy {noisy_acc}");
    }

    #[test]
    #[should_panic(expected = "labeled")]
    fn fit_requires_labeled_data() {
        SensitivityModel::fit(&[], &[], FitMode::Supervised, &ObsCtx::null());
    }
}
