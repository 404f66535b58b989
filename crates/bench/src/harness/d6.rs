//! D6 — access tooling: BM25 index build/query throughput over a synthetic
//! description corpus, and record-linking precision on planted duplicate
//! clusters.

use itrust_core::access::AccessIndex;
use itrust_core::linking::RecordLinker;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOPICS: [&str; 6] = [
    "military report supply front ammunition trench winter",
    "parchment recto verso signum notary glyph ink",
    "building permit renovation approval inspection drawing",
    "photograph negative album portrait exhibition print",
    "court judgment appeal sentence tribunal verdict",
    "inventory shelf list accession register transfer custody",
];

/// Generate `n` synthetic record descriptions drawn from topic vocabularies.
pub fn descriptions(n: usize, seed: u64) -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let topic = TOPICS[rng.gen_range(0..TOPICS.len())];
            let words: Vec<&str> = topic.split(' ').collect();
            let len = rng.gen_range(8..25);
            let text: Vec<&str> =
                (0..len).map(|_| words[rng.gen_range(0..words.len())]).collect();
            (format!("rec-{i:06}"), text.join(" "))
        })
        .collect()
}

/// Index-scale result row.
#[derive(Debug, Clone)]
pub struct IndexRow {
    /// Documents indexed.
    pub docs: usize,
    /// Hits returned by one round of the query set (top 10 per query).
    pub hits: usize,
    /// Build throughput (docs/s).
    pub build_docs_s: f64,
    /// Query throughput (queries/s).
    pub queries_s: f64,
}

/// Linking result.
#[derive(Debug, Clone)]
pub struct LinkingResult {
    /// Planted duplicate pairs.
    pub planted: usize,
    /// Pairs recovered in duplicate clusters at 0.95 similarity.
    pub recovered: usize,
    /// Non-duplicate records wrongly merged with anything.
    pub false_merges: usize,
}

/// BM25 build/query sweep.
pub fn run_index(obs: &itrust_obs::ObsCtx) -> (Vec<IndexRow>, String) {
    let mut rows = Vec::new();
    for &n in &[1_000usize, 10_000, 50_000] {
        let docs = descriptions(n, 5);
        let (index, build_s) = super::timed(|| {
            let mut idx = AccessIndex::default().with_obs(obs.clone());
            for (id, text) in &docs {
                idx.add(id.clone(), text);
            }
            idx
        });
        let queries: Vec<&str> = vec![
            "signum parchment",
            "supply front",
            "court verdict appeal",
            "photograph exhibition",
            "accession register",
        ];
        let rounds = 200;
        let (total, query_s) = super::timed(|| {
            let mut total = 0usize;
            for _ in 0..rounds {
                for q in &queries {
                    total += index.search(q, 10).len();
                }
            }
            total
        });
        rows.push(IndexRow {
            docs: n,
            hits: total / rounds,
            build_docs_s: n as f64 / build_s.max(1e-9),
            queries_s: (rounds * queries.len()) as f64 / query_s.max(1e-9),
        });
    }
    let mut out = String::from("D6 — BM25 access index\n    docs   hits/round\n");
    for r in &rows {
        out.push_str(&format!("{:>8} {:>12}\n", r.docs, r.hits));
    }
    (rows, out)
}

/// Plant duplicate pairs among distinct descriptions; measure recovery.
pub fn run_linking(obs: &itrust_obs::ObsCtx) -> (LinkingResult, String) {
    let mut records = descriptions(400, 9);
    // Plant 40 exact-duplicate pairs.
    let planted = 40;
    for i in 0..planted {
        let (_, text) = records[i].clone();
        records.push((format!("dup-{i:03}"), text));
    }
    let linker = RecordLinker::build(&records, obs.clone()).expect("unique ids");
    let clusters = linker.duplicate_clusters(0.95);
    let mut recovered = 0usize;
    let mut false_merges = 0usize;
    for cluster in &clusters {
        if cluster.len() < 2 {
            continue;
        }
        let dups: Vec<&String> =
            cluster.iter().filter(|id| id.starts_with("dup-")).collect();
        for dup in dups {
            let partner = format!("rec-{:06}", dup[4..].parse::<usize>().unwrap());
            if cluster.contains(&partner) {
                recovered += 1;
            }
        }
        // Over-merging: clusters joining unrelated originals. Same-topic
        // random texts can legitimately collide at 0.95, so count only
        // clusters of > 4 originals as false merges.
        let originals = cluster.iter().filter(|id| id.starts_with("rec-")).count();
        if originals > 4 {
            false_merges += originals - 4;
        }
    }
    let result = LinkingResult { planted, recovered, false_merges };
    let out = format!(
        "D6 — record linking: {}/{} planted duplicate pairs recovered, {} over-merge(s)\n",
        result.recovered, result.planted, result.false_merges
    );
    (result, out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn linking_recovers_most_planted_duplicates() {
        let (result, _) = super::run_linking(&itrust_obs::ObsCtx::null());
        assert!(
            result.recovered as f64 >= result.planted as f64 * 0.9,
            "{}/{}",
            result.recovered,
            result.planted
        );
    }

    #[test]
    fn queries_return_relevant_docs() {
        let docs = super::descriptions(500, 1);
        let mut idx = super::AccessIndex::default();
        for (id, text) in &docs {
            idx.add(id.clone(), text);
        }
        let hits = idx.search("signum notary parchment", 10);
        assert!(!hits.is_empty());
        // Top hit's text is from the parchment topic.
        let top = docs.iter().find(|(id, _)| id == &hits[0].doc_id).unwrap();
        assert!(top.1.contains("signum") || top.1.contains("notary") || top.1.contains("parchment"));
    }
}
