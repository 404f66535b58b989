//! Merkle trees over ingest batches.
//!
//! When an accession (a batch of records transferred to the archive) is
//! ingested, the archive computes a Merkle root over the batch and records it
//! in the audit log. Later, anyone holding the attested root can verify that
//! a single record belongs to that accession with an O(log n) inclusion
//! proof — without access to the other records. This is the mechanism the
//! `archival-core` crate uses to make accession receipts independently
//! verifiable.
//!
//! Leaf and interior hashing are domain-separated (RFC 6962 style, see
//! [`crate::hash::sha256_leaf`] / [`crate::hash::sha256_pair`]) so a leaf
//! cannot be reinterpreted as an interior node.

use crate::errors::{Error, Result};
use crate::hash::{sha256_leaf, sha256_pair, Digest};
use serde::{Deserialize, Serialize};

/// Side of a sibling hash within a Merkle path step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Side {
    /// Sibling hash is to the left of the running hash.
    Left,
    /// Sibling hash is to the right of the running hash.
    Right,
}

/// One step of an inclusion proof: a sibling digest and which side it is on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProofStep {
    /// The sibling subtree digest.
    pub sibling: Digest,
    /// Which side the sibling sits on when combining.
    pub side: Side,
}

/// An inclusion proof for one leaf against a Merkle root.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InclusionProof {
    /// Index of the proven leaf in the original batch.
    pub leaf_index: usize,
    /// Total number of leaves in the tree the proof was generated from.
    pub leaf_count: usize,
    /// Bottom-up path of sibling hashes.
    pub path: Vec<ProofStep>,
}

impl InclusionProof {
    /// Verify that `leaf_data` is included under `root`.
    ///
    /// Returns `Ok(())` on success, [`Error::ProofInvalid`] otherwise.
    pub fn verify(&self, leaf_data: &[u8], root: &Digest) -> Result<()> {
        let mut running = sha256_leaf(leaf_data);
        for step in &self.path {
            running = match step.side {
                Side::Left => sha256_pair(&step.sibling, &running),
                Side::Right => sha256_pair(&running, &step.sibling),
            };
        }
        if running == *root {
            Ok(())
        } else {
            Err(Error::ProofInvalid(format!(
                "recomputed root {} does not match expected {}",
                running.short(),
                root.short()
            )))
        }
    }
}

/// A Merkle tree built over a batch of leaves.
///
/// The full node set is retained so proofs can be generated for any leaf.
/// Odd nodes at any level are promoted (not duplicated), which avoids the
/// classic duplicate-leaf malleability.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// `levels[0]` is the leaf digests; the last level has exactly one node.
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Build from raw leaf payloads, recording build telemetry into `obs`.
    /// Returns `None` for an empty batch (an empty accession has no
    /// meaningful root).
    pub fn from_leaves<I, B>(leaves: I, obs: &itrust_obs::ObsCtx) -> Option<Self>
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        let leaf_hashes: Vec<Digest> =
            leaves.into_iter().map(|l| sha256_leaf(l.as_ref())).collect();
        Self::from_leaf_digests(leaf_hashes, obs)
    }

    /// Build from already-computed (domain-separated) leaf digests,
    /// recording build telemetry into `obs`.
    pub fn from_leaf_digests(leaf_hashes: Vec<Digest>, obs: &itrust_obs::ObsCtx) -> Option<Self> {
        if leaf_hashes.is_empty() {
            return None;
        }
        let _span = itrust_obs::span!(obs, "trustdb.merkle.build");
        itrust_obs::counter_add!(obs, "trustdb.merkle.leaves", leaf_hashes.len() as u64);
        let mut levels = vec![leaf_hashes];
        while let Some(prev) = levels.last().filter(|l| l.len() > 1) {
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            let mut chunks = prev.chunks_exact(2);
            for pair in &mut chunks {
                // itrust-lint: allow(panic-reachable) — each tree level is ceil(n/2) of the previous, so sibling indices stay in range
                next.push(sha256_pair(&pair[0], &pair[1]));
            }
            if let [odd] = chunks.remainder() {
                next.push(*odd); // promote, do not duplicate
            }
            levels.push(next);
        }
        Some(MerkleTree { levels })
    }

    /// The attested root of the batch.
    pub fn root(&self) -> Digest {
        // itrust-lint: allow(panic-reachable) — construction rejects empty leaf sets and the build loop always leaves a single-entry top level
        self.levels.last().unwrap()[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        // itrust-lint: allow(panic-reachable) — each tree level is ceil(n/2) of the previous, so sibling indices stay in range
        self.levels[0].len()
    }

    /// Number of levels, leaves included (`1` for a single-leaf tree).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The digests at `level` (`0` = leaves, `level_count() - 1` = root).
    pub fn level(&self, level: usize) -> &[Digest] {
        // itrust-lint: allow(panic-reachable) — each tree level is ceil(n/2) of the previous, so sibling indices stay in range
        &self.levels[level]
    }

    /// Compare two same-shape trees top-down and return the indices of
    /// differing leaves plus the number of node comparisons performed.
    ///
    /// Equal subtrees are pruned at their first shared interior node, so two
    /// trees differing in `d` leaves are compared in O(d · log n) node visits
    /// rather than a full O(n) leaf scan — this is the property the
    /// anti-entropy sweep relies on to stay cheap between mostly-converged
    /// replicas. Returns [`Error::InvariantViolation`] if the trees have
    /// different leaf counts (callers align summaries to a fixed bucket
    /// universe first).
    pub fn diff_leaves(&self, other: &MerkleTree) -> Result<(Vec<usize>, usize)> {
        if self.leaf_count() != other.leaf_count() {
            return Err(Error::InvariantViolation(format!(
                "cannot diff merkle trees of different shapes: {} vs {} leaves",
                self.leaf_count(),
                other.leaf_count()
            )));
        }
        let top = self.levels.len() - 1;
        let mut comparisons = 0usize;
        let mut divergent = Vec::new();
        // Stack of (level, index) pairs still to compare. Same leaf count and
        // the same promotion rule give both trees identical shapes, so an
        // index valid in one level of `self` is valid in `other` too.
        let mut stack = vec![(top, 0usize)];
        while let Some((level, idx)) = stack.pop() {
            comparisons += 1;
            // itrust-lint: allow(panic-reachable) — each tree level is ceil(n/2) of the previous, so sibling indices stay in range
            if self.levels[level][idx] == other.levels[level][idx] {
                continue; // identical subtree: prune
            }
            if level == 0 {
                divergent.push(idx);
                continue;
            }
            let below = &self.levels[level - 1];
            let (left, right) = (2 * idx, 2 * idx + 1);
            // A promoted odd node has no right child; its subtree is exactly
            // the left child's subtree.
            if right < below.len() {
                stack.push((level - 1, right));
            }
            if left < below.len() {
                stack.push((level - 1, left));
            }
        }
        divergent.sort_unstable();
        Ok((divergent, comparisons))
    }

    /// Generate an inclusion proof for the leaf at `index`.
    pub fn prove(&self, index: usize) -> Result<InclusionProof> {
        let n = self.leaf_count();
        if index >= n {
            return Err(Error::ProofInvalid(format!(
                "leaf index {index} out of range (leaf count {n})"
            )));
        }
        let mut path = Vec::new();
        let mut idx = index;
        // itrust-lint: allow(panic-reachable) — each tree level is ceil(n/2) of the previous, so sibling indices stay in range
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            if sibling_idx < level.len() {
                let side = if sibling_idx < idx { Side::Left } else { Side::Right };
                path.push(ProofStep { sibling: level[sibling_idx], side });
            }
            // With promotion, an odd node keeps its hash and moves up at the
            // position of its pair slot.
            idx /= 2;
        }
        Ok(InclusionProof { leaf_index: index, leaf_count: n, path })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::sha256_leaf;
    use itrust_obs::ObsCtx;

    fn batch(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("record-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_batch_has_no_tree() {
        assert!(MerkleTree::from_leaves(Vec::<Vec<u8>>::new(), &ObsCtx::null()).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let t = MerkleTree::from_leaves([b"only".to_vec()], &ObsCtx::null()).unwrap();
        assert_eq!(t.root(), sha256_leaf(b"only"));
        assert_eq!(t.leaf_count(), 1);
        let p = t.prove(0).unwrap();
        assert!(p.path.is_empty());
        p.verify(b"only", &t.root()).unwrap();
    }

    #[test]
    fn all_leaves_provable_across_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 100] {
            let leaves = batch(n);
            let t = MerkleTree::from_leaves(leaves.iter(), &ObsCtx::null()).unwrap();
            let root = t.root();
            for (i, leaf) in leaves.iter().enumerate() {
                let proof = t.prove(i).unwrap();
                proof
                    .verify(leaf, &root)
                    .unwrap_or_else(|e| panic!("n={n} leaf={i}: {e}"));
            }
        }
    }

    #[test]
    fn proof_rejects_wrong_leaf() {
        let leaves = batch(8);
        let t = MerkleTree::from_leaves(leaves.iter(), &ObsCtx::null()).unwrap();
        let proof = t.prove(3).unwrap();
        assert!(proof.verify(b"record-4", &t.root()).is_err());
    }

    #[test]
    fn proof_rejects_wrong_root() {
        let leaves = batch(8);
        let t = MerkleTree::from_leaves(leaves.iter(), &ObsCtx::null()).unwrap();
        let other = MerkleTree::from_leaves(batch(9).iter(), &ObsCtx::null()).unwrap();
        let proof = t.prove(3).unwrap();
        assert!(proof.verify(b"record-3", &other.root()).is_err());
    }

    #[test]
    fn proof_index_out_of_range() {
        let t = MerkleTree::from_leaves(batch(4).iter(), &ObsCtx::null()).unwrap();
        assert!(t.prove(4).is_err());
    }

    #[test]
    fn root_changes_with_any_leaf_change() {
        let base = MerkleTree::from_leaves(batch(16).iter(), &ObsCtx::null()).unwrap().root();
        for i in 0..16 {
            let mut leaves = batch(16);
            leaves[i].push(b'!');
            let mutated = MerkleTree::from_leaves(leaves.iter(), &ObsCtx::null()).unwrap().root();
            assert_ne!(base, mutated, "mutating leaf {i} must change the root");
        }
    }

    #[test]
    fn root_depends_on_leaf_order() {
        let obs = ObsCtx::null();
        let a = MerkleTree::from_leaves([b"x".to_vec(), b"y".to_vec()], &obs).unwrap().root();
        let b = MerkleTree::from_leaves([b"y".to_vec(), b"x".to_vec()], &obs).unwrap().root();
        assert_ne!(a, b);
    }

    #[test]
    fn promotion_distinguishes_odd_from_duplicated() {
        // With duplicate-last schemes, [a, b, c] == [a, b, c, c]. Promotion
        // must distinguish them.
        let abc = MerkleTree::from_leaves(batch(3).iter(), &ObsCtx::null()).unwrap().root();
        let mut four = batch(3);
        four.push(batch(3)[2].clone());
        let abcc = MerkleTree::from_leaves(four.iter(), &ObsCtx::null()).unwrap().root();
        assert_ne!(abc, abcc);
    }

    #[test]
    fn diff_identical_trees_is_empty_after_one_comparison() {
        let t = MerkleTree::from_leaves(batch(33).iter(), &ObsCtx::null()).unwrap();
        let u = MerkleTree::from_leaves(batch(33).iter(), &ObsCtx::null()).unwrap();
        let (diverging, comparisons) = t.diff_leaves(&u).unwrap();
        assert!(diverging.is_empty());
        // Equal roots prune the whole comparison at the top node.
        assert_eq!(comparisons, 1);
    }

    #[test]
    fn diff_finds_exactly_the_mutated_leaves() {
        for n in [1usize, 2, 3, 5, 8, 17, 64, 100] {
            for mutated in 0..n {
                let mut leaves = batch(n);
                leaves[mutated].push(b'!');
                let base = MerkleTree::from_leaves(batch(n).iter(), &ObsCtx::null()).unwrap();
                let other = MerkleTree::from_leaves(leaves.iter(), &ObsCtx::null()).unwrap();
                let (diverging, _) = base.diff_leaves(&other).unwrap();
                assert_eq!(diverging, vec![mutated], "n={n} mutated={mutated}");
            }
        }
    }

    #[test]
    fn diff_prunes_equal_subtrees() {
        // One divergent leaf out of 256: the walk must visit one root-to-leaf
        // path plus the pruned siblings along it — far fewer than 2n-1 nodes.
        let n = 256;
        let mut leaves = batch(n);
        leaves[137].push(b'!');
        let base = MerkleTree::from_leaves(batch(n).iter(), &ObsCtx::null()).unwrap();
        let other = MerkleTree::from_leaves(leaves.iter(), &ObsCtx::null()).unwrap();
        let (diverging, comparisons) = base.diff_leaves(&other).unwrap();
        assert_eq!(diverging, vec![137]);
        // Path of 9 levels, each expanding to at most 2 children: ≤ 1 + 2*8.
        assert!(comparisons <= 17, "expected O(log n) comparisons, got {comparisons}");
    }

    #[test]
    fn diff_rejects_shape_mismatch() {
        let a = MerkleTree::from_leaves(batch(8).iter(), &ObsCtx::null()).unwrap();
        let b = MerkleTree::from_leaves(batch(9).iter(), &ObsCtx::null()).unwrap();
        assert!(a.diff_leaves(&b).is_err());
    }

    #[test]
    fn level_accessors_expose_tree_shape() {
        let t = MerkleTree::from_leaves(batch(5).iter(), &ObsCtx::null()).unwrap();
        // 5 -> 3 (2 pairs + promote) -> 2 -> 1
        assert_eq!(t.level_count(), 4);
        assert_eq!(t.level(0).len(), 5);
        assert_eq!(t.level(3), &[t.root()]);
    }

    #[test]
    fn proof_serde_round_trip() {
        let t = MerkleTree::from_leaves(batch(10).iter(), &ObsCtx::null()).unwrap();
        let proof = t.prove(7).unwrap();
        let json = serde_json::to_string(&proof).unwrap();
        let back: InclusionProof = serde_json::from_str(&json).unwrap();
        back.verify(b"record-7", &t.root()).unwrap();
    }
}
