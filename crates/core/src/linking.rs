//! Record linking and connected-item suggestion.
//!
//! The paper's access claims include "helping patrons find connected
//! items". [`RecordLinker`] builds TF-IDF vectors over record descriptions
//! and answers two questions: *what is similar to this record?* (reference
//! service) and *which records are near-duplicates?* (deduplication during
//! appraisal). Duplicate clustering uses single-linkage over a similarity
//! threshold via union-find.

use crate::text::{cosine, Vocabulary};
use neural::Tensor;
use std::collections::BTreeMap;

/// A fitted linker over a set of described records.
pub struct RecordLinker {
    ids: Vec<String>,
    vectors: Tensor,
    by_id: BTreeMap<String, usize>,
    obs: itrust_obs::ObsCtx,
}

impl RecordLinker {
    /// Build from `(record id, descriptive text)` pairs, recording
    /// build/cluster spans into `obs` (the linker keeps the context for
    /// later clustering calls). Duplicate ids are rejected.
    pub fn build(
        records: &[(String, String)],
        obs: itrust_obs::ObsCtx,
    ) -> Result<RecordLinker, String> {
        let _span = itrust_obs::span!(obs, "core.linking.build");
        let mut by_id = BTreeMap::new();
        for (i, (id, _)) in records.iter().enumerate() {
            if by_id.insert(id.clone(), i).is_some() {
                return Err(format!("duplicate record id '{id}'"));
            }
        }
        let texts: Vec<&str> = records.iter().map(|(_, t)| t.as_str()).collect();
        let vocab = Vocabulary::fit(&texts, 1);
        let vectors = vocab.tfidf_matrix(&texts);
        Ok(RecordLinker {
            ids: records.iter().map(|(id, _)| id.clone()).collect(),
            vectors,
            by_id,
            obs,
        })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the linker is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The `k` records most similar to `id` (excluding itself), with
    /// cosine similarities, descending.
    pub fn similar(&self, id: &str, k: usize) -> Option<Vec<(String, f32)>> {
        let &idx = self.by_id.get(id)?;
        let me = self.vectors.row(idx);
        let mut scored: Vec<(usize, f32)> = (0..self.ids.len())
            .filter(|&i| i != idx)
            .map(|i| (i, cosine(me, self.vectors.row(i))))
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(k);
        Some(
            scored
                .into_iter()
                // itrust-lint: allow(panic-reachable) — token windows are clamped to the token count before slicing
                .map(|(i, s)| (self.ids[i].clone(), s))
                .collect(),
        )
    }

    /// Single-linkage clusters of records with pairwise similarity ≥
    /// `threshold`. Singletons are included, so the clusters partition the
    /// whole set. Cluster members are sorted; clusters are sorted by their
    /// first member.
    pub fn duplicate_clusters(&self, threshold: f32) -> Vec<Vec<String>> {
        let _span = itrust_obs::span!(self.obs, "core.linking.cluster");
        let n = self.ids.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            // itrust-lint: allow(panic-reachable) — token windows are clamped to the token count before slicing
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if cosine(self.vectors.row(i), self.vectors.row(j)) >= threshold {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        // itrust-lint: allow(panic-reachable) — token windows are clamped to the token count before slicing
                        parent[ri] = rj;
                    }
                }
            }
        }
        let mut clusters: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            clusters.entry(root).or_default().push(self.ids[i].clone());
        }
        let mut out: Vec<Vec<String>> = clusters
            .into_values()
            .map(|mut members| {
                members.sort();
                members
            })
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itrust_obs::ObsCtx;

    fn records() -> Vec<(String, String)> {
        vec![
            ("war-1".into(), "military report supply lines western front 1916".into()),
            ("war-2".into(), "military report ammunition supply front 1917".into()),
            ("war-2-copy".into(), "military report ammunition supply front 1917".into()),
            ("parch-1".into(), "parchment recto signum tabellionis notary glyph".into()),
            ("permit-1".into(), "building permit renovation approval canal".into()),
        ]
    }

    #[test]
    fn similar_finds_topical_neighbors() {
        let linker = RecordLinker::build(&records(), ObsCtx::null()).unwrap();
        let similar = linker.similar("war-1", 2).unwrap();
        assert_eq!(similar.len(), 2);
        assert!(similar[0].0.starts_with("war-2"));
        assert!(similar[0].1 > 0.3);
        // The parchment record is not in the top-2 for a war report.
        assert!(!similar.iter().any(|(id, _)| id == "parch-1"));
    }

    #[test]
    fn similar_excludes_self_and_handles_unknown() {
        let linker = RecordLinker::build(&records(), ObsCtx::null()).unwrap();
        let similar = linker.similar("war-1", 10).unwrap();
        assert_eq!(similar.len(), 4);
        assert!(!similar.iter().any(|(id, _)| id == "war-1"));
        assert!(linker.similar("ghost", 3).is_none());
    }

    #[test]
    fn identical_texts_have_similarity_one() {
        let linker = RecordLinker::build(&records(), ObsCtx::null()).unwrap();
        let similar = linker.similar("war-2", 1).unwrap();
        assert_eq!(similar[0].0, "war-2-copy");
        assert!((similar[0].1 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn duplicate_clusters_group_near_identical() {
        let linker = RecordLinker::build(&records(), ObsCtx::null()).unwrap();
        let clusters = linker.duplicate_clusters(0.99);
        // war-2 and war-2-copy merge; everything else is a singleton.
        assert_eq!(clusters.len(), 4);
        assert!(clusters.contains(&vec!["war-2".to_string(), "war-2-copy".to_string()]));
    }

    #[test]
    fn low_threshold_merges_topics_high_threshold_isolates() {
        let linker = RecordLinker::build(&records(), ObsCtx::null()).unwrap();
        let loose = linker.duplicate_clusters(0.1);
        let strict = linker.duplicate_clusters(1.1); // impossible threshold
        assert!(loose.len() < 5);
        assert_eq!(strict.len(), 5, "every record isolated");
        // Partition property: all records present exactly once.
        let total: usize = strict.iter().map(|c| c.len()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut recs = records();
        recs.push(("war-1".into(), "something".into()));
        assert!(RecordLinker::build(&recs, ObsCtx::null()).is_err());
    }

    #[test]
    fn empty_linker() {
        let linker = RecordLinker::build(&[], ObsCtx::null()).unwrap();
        assert!(linker.is_empty());
        assert_eq!(linker.duplicate_clusters(0.5).len(), 0);
    }
}
