//! Distant supervision: learning from surrogate cues when high-quality
//! labels are absent.
//!
//! Section 2: "There are other paradigms such as distant supervision where
//! a model attempts to learn from surrogate cues in the data in absence of
//! high-quality labels." For archives the surrogate cues are exactly the
//! kind of metadata that exists before any annotation project: keyword
//! lists from retention schedules, records-class markers, classification
//! stamps. This module turns such cues into labeling functions, combines
//! their votes, and trains a classifier on the weak labels — measured
//! against truth it never saw.

use crate::sensitivity::{LabeledDoc, SensitivityModel, FitMode, NOT_SENSITIVE, SENSITIVE};
use crate::text::tokenize;

/// A voting rule: maps a document's text to a label vote, or abstains.
pub type VoteRule = Box<dyn Fn(&str) -> Option<usize> + Send + Sync>;

/// A labeling function: votes on a document or abstains.
pub struct LabelingFunction {
    /// Name for diagnostics.
    pub name: String,
    /// The voting rule.
    pub rule: VoteRule,
}

impl LabelingFunction {
    /// A keyword-list voter: if any keyword occurs, vote `label`.
    pub fn keywords(
        name: impl Into<String>,
        keywords: Vec<&'static str>,
        label: usize,
    ) -> LabelingFunction {
        LabelingFunction {
            name: name.into(),
            rule: Box::new(move |text| {
                let tokens = tokenize(text);
                if tokens.iter().any(|t| keywords.contains(&t.as_str())) {
                    Some(label)
                } else {
                    None
                }
            }),
        }
    }
}

/// The standard sensitive/routine cue set an archive could assemble from
/// its own retention schedules without any annotation effort.
pub fn default_cues() -> Vec<LabelingFunction> {
    vec![
        LabelingFunction::keywords(
            "medical-terms",
            vec!["diagnosis", "patient", "medical", "psychiatric", "hiv"],
            SENSITIVE,
        ),
        LabelingFunction::keywords(
            "personnel-terms",
            vec!["salary", "disciplinary", "complaint", "grievance"],
            SENSITIVE,
        ),
        LabelingFunction::keywords(
            "security-terms",
            vec!["classified", "surveillance", "informant", "whistleblower"],
            SENSITIVE,
        ),
        LabelingFunction::keywords(
            "routine-admin",
            vec!["agenda", "minutes", "schedule", "catalogue", "maintenance"],
            NOT_SENSITIVE,
        ),
    ]
}

/// Outcome of weak labeling one corpus.
#[derive(Debug, Clone)]
pub struct WeakLabels {
    /// Per-document majority label; `None` when all functions abstained or
    /// tied.
    pub labels: Vec<Option<usize>>,
    /// Documents that received a label.
    pub coverage: usize,
}

/// Apply labeling functions by majority vote (abstentions excluded; ties
/// yield `None`).
pub fn weak_label(texts: &[String], functions: &[LabelingFunction]) -> WeakLabels {
    let labels: Vec<Option<usize>> = texts
        .iter()
        .map(|text| {
            let mut votes = [0usize; 2];
            for f in functions {
                if let Some(l) = (f.rule)(text) {
                    // itrust-lint: allow(panic-reachable) — label votes index the fixed label-function table
                    votes[l] += 1;
                }
            }
            match votes[SENSITIVE].cmp(&votes[NOT_SENSITIVE]) {
                std::cmp::Ordering::Greater => Some(SENSITIVE),
                std::cmp::Ordering::Less => Some(NOT_SENSITIVE),
                std::cmp::Ordering::Equal => None,
            }
        })
        .collect();
    let coverage = labels.iter().filter(|l| l.is_some()).count();
    WeakLabels { labels, coverage }
}

/// Train a sensitivity model from weak labels alone (no human labels).
/// Returns `None` if the weak labels cover fewer than 10 documents or only
/// one class.
pub fn fit_distant(texts: &[String], functions: &[LabelingFunction]) -> Option<SensitivityModel> {
    let weak = weak_label(texts, functions);
    let labeled: Vec<LabeledDoc> = texts
        .iter()
        .zip(&weak.labels)
        .filter_map(|(text, label)| {
            label.map(|label| LabeledDoc { text: text.clone(), label })
        })
        .collect();
    if labeled.len() < 10 {
        return None;
    }
    let classes: std::collections::HashSet<usize> = labeled.iter().map(|d| d.label).collect();
    if classes.len() < 2 {
        return None;
    }
    // Unlabeled remainder feeds self-training on top of the weak seed.
    let unlabeled: Vec<String> = texts
        .iter()
        .zip(&weak.labels)
        .filter(|(_, l)| l.is_none())
        .map(|(t, _)| t.clone())
        .collect();
    Some(SensitivityModel::fit(
        &labeled,
        &unlabeled,
        FitMode::SemiSupervised,
        &itrust_obs::ObsCtx::null(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::generate_corpus;

    #[test]
    fn keyword_functions_vote_and_abstain() {
        let f = LabelingFunction::keywords("medical", vec!["patient"], SENSITIVE);
        assert_eq!((f.rule)("the patient file"), Some(SENSITIVE));
        assert_eq!((f.rule)("the meeting agenda"), None);
        // Token-boundary aware: "outpatients" does not contain token
        // "patient".
        assert_eq!((f.rule)("outpatients listing"), None);
    }

    #[test]
    fn majority_vote_combines_functions() {
        let texts = vec![
            "patient diagnosis salary".to_string(),       // 2× sensitive votes
            "agenda minutes schedule".to_string(),        // routine vote
            "generic text with no cues".to_string(),      // abstain
            "patient agenda".to_string(),                 // 1–1 tie → None
        ];
        let weak = weak_label(&texts, &default_cues());
        assert_eq!(weak.labels[0], Some(SENSITIVE));
        assert_eq!(weak.labels[1], Some(NOT_SENSITIVE));
        assert_eq!(weak.labels[2], None);
        assert_eq!(weak.labels[3], None);
        assert_eq!(weak.coverage, 2);
    }

    #[test]
    fn distant_model_approaches_supervised_quality() {
        let pool = generate_corpus(600, 0.3, 0.1, 1);
        let test = generate_corpus(300, 0.3, 0.1, 2);
        let texts: Vec<String> = pool.iter().map(|d| d.text.clone()).collect();
        let distant = fit_distant(&texts, &default_cues()).expect("enough coverage");
        let acc = distant.accuracy(&test);
        assert!(acc > 0.85, "distant-supervised accuracy {acc}");
    }

    #[test]
    fn refuses_to_fit_on_insufficient_signal() {
        let texts: Vec<String> =
            (0..50).map(|i| format!("neutral text number {i}")).collect();
        assert!(fit_distant(&texts, &default_cues()).is_none());
        // Single-class coverage also refused.
        let routine_only: Vec<String> =
            (0..50).map(|_| "agenda minutes schedule".to_string()).collect();
        assert!(fit_distant(&routine_only, &default_cues()).is_none());
    }
}
