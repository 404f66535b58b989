//! detcheck: determinism witness for the parallel hot paths.
//!
//! Runs every `itrust_par`-backed path (escs simulation, Conv2d
//! forward/backward, batched store hashing) with fixed seeds and writes
//! content digests of the results to `results/detcheck.json`. The file
//! deliberately contains no timing, thread count, or host information, so
//! two runs under different `ITRUST_THREADS` settings must produce
//! byte-identical JSON. CI runs it twice (1 thread, 4 threads) and diffs
//! the outputs.

use escs::external::ExternalTimeline;
use escs::graph::Topology;
use escs::sim::{run, SimConfig};
use itrust_bench::report::results_dir;
use neural::layers::{Conv2d, Layer};
use neural::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use trustdb::hash::sha256;
use trustdb::store::{MemoryBackend, ObjectStore};

fn tensor_digest(t: &Tensor) -> String {
    let bytes: Vec<u8> = t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    sha256(&bytes).to_hex()
}

fn sim_digest(regions: usize, duration_ms: u64, seed: u64) -> String {
    let config = SimConfig::with_defaults(
        Topology::metro(regions),
        ExternalTimeline::disaster(duration_ms),
        duration_ms,
        seed,
    );
    sha256(&serde_json::to_vec(&run(&config)).unwrap()).to_hex()
}

fn conv_digests() -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(77);
    let mut conv = Conv2d::new(3, 6, 3, 1, &mut rng);
    let x = Tensor::rand_uniform(&[4, 3, 12, 12], -1.0, 1.0, &mut rng);
    let y = conv.forward(&x, true);
    let g = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut rng);
    let gi = conv.backward(&g);
    let mut out = vec![
        ("conv.forward".to_string(), tensor_digest(&y)),
        ("conv.grad_in".to_string(), tensor_digest(&gi)),
    ];
    let params = conv.params_mut();
    out.push(("conv.grad_weight".to_string(), tensor_digest(&params[0].grad)));
    out.push(("conv.grad_bias".to_string(), tensor_digest(&params[1].grad)));
    out
}

fn store_digests() -> Vec<(String, String)> {
    let payloads: Vec<Vec<u8>> = (0..3usize)
        .map(|i| (0..64 * 1024 + i * 97 + 13).map(|j| ((i * 7 + j) % 253) as u8).collect())
        .collect();
    let store = ObjectStore::new(MemoryBackend::new());
    store
        .put_many(payloads)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(i, d)| (format!("store.put.{i}"), d.to_hex()))
        .collect()
}

fn main() {
    let mut entries: Vec<(String, String)> = Vec::new();
    entries.push(("escs.sim.metro3_disaster".to_string(), sim_digest(3, 1_800_000, 2024)));
    entries.push(("escs.sim.metro5_disaster".to_string(), sim_digest(5, 900_000, 7)));
    entries.extend(conv_digests());
    entries.extend(store_digests());

    let map: std::collections::BTreeMap<String, String> = entries.into_iter().collect();
    let json = serde_json::to_string_pretty(&map).unwrap();

    let dir = results_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("detcheck.json");
    std::fs::write(&path, format!("{json}\n")).unwrap();
    println!("wrote {}", path.display());
}
