//! `perganet`: Figure 1's three-stage pipeline, trained on Figure 1's
//! corpus and configuration, then run image by image over a seeded stream
//! of parchments at every damage level, with a labelled evaluation after
//! each round of the stream.
//!
//! The only workload where convolution and itrust-par dominate and storage
//! is absent; models and images fit in cache.

use crate::{call, stats, Env, Outcome};
use neural::metrics::{average_precision, BBox, Detection};
use perganet::corpus::{generate, CorpusConfig, Parchment};
use perganet::eval::evaluate;
use perganet::pipeline::{PergaNet, TrainConfig};

/// Input sizes and quality floors.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Training corpus: (parchments, damage level, corpus seed).
    pub train: [(usize, u8, u64); 3],
    pub config: TrainConfig,
    /// The stream is analysed in `rounds` of `round_per_damage` parchments
    /// per damage level; each round ends with an evaluation over the
    /// labelled audit set of `audit_per_damage` per level.
    pub rounds: usize,
    pub round_per_damage: usize,
    pub audit_per_damage: usize,
    /// Consecutive images per latency and throughput window.
    pub window: usize,
    /// The stream's recto/verso accuracy and signum AP must reach these.
    pub min_side_accuracy: f64,
    pub min_signum_ap: f64,
}

impl Size {
    /// Figure 1's training run; 20 rounds of 300 streamed images, each
    /// followed by a 60-image evaluation, at `--seconds 10`.
    pub fn for_seconds(seconds: u64) -> Size {
        Size {
            train: [(150, 0, 1), (100, 1, 2), (50, 2, 3)],
            config: TrainConfig {
                signum_epochs: 40,
                ..TrainConfig::default()
            },
            rounds: 2 * seconds as usize,
            round_per_damage: 100,
            audit_per_damage: 20,
            window: 50,
            min_side_accuracy: 0.99,
            // Streams of seeds 1-8 score 0.22-0.26; the floor leaves room
            // for seed-to-seed spread and still fails a pipeline that has
            // stopped finding signa.
            min_signum_ap: 0.15,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            train: [(8, 0, 1), (6, 1, 2), (4, 2, 3)],
            config: TrainConfig {
                classifier_epochs: 1,
                text_epochs: 1,
                signum_epochs: 1,
                ..TrainConfig::default()
            },
            rounds: 2,
            round_per_damage: 3,
            audit_per_damage: 2,
            window: 3,
            min_side_accuracy: 0.0,
            min_signum_ap: 0.0,
        }
    }
}

/// Figure 1's pipeline seed.
const NET_SEED: u64 = 7;

/// `per_damage` parchments at each damage level, drawn from `seed`.
pub fn corpus(seed: u64, salt: u64, per_damage: usize) -> Vec<Parchment> {
    (0..=2u8)
        .flat_map(|damage| {
            let seed = crate::mix64(seed ^ crate::mix64(salt + damage as u64));
            generate(CorpusConfig {
                count: per_damage,
                damage,
                seed,
            })
        })
        .collect()
}

fn train(env: &Env, out: &mut Outcome, corpus: &[Parchment], size: &Size) -> PergaNet {
    let _phase = env.bench.span("bench.perganet.setup");
    let (trained, us) = call(&env.bench, "bench.perganet.train", || {
        let mut net = PergaNet::new(NET_SEED).with_obs(env.obs.clone());
        net.train(corpus, size.config);
        net
    });
    out.setup_s.push(us / 1e6);
    trained
}

pub fn run(seed: u64, size: &Size, env: &Env) -> Outcome {
    let mut out = Outcome {
        window: size.window,
        ..Outcome::default()
    };
    let (train_set, rounds, audit) = {
        let _phase = env.bench.span("bench.perganet.corpus");
        env.bench.time("bench.perganet.generate", || {
            let train_set: Vec<Parchment> = size
                .train
                .iter()
                .flat_map(|&(count, damage, seed)| {
                    generate(CorpusConfig {
                        count,
                        damage,
                        seed,
                    })
                })
                .collect();
            let rounds: Vec<Vec<Parchment>> = (0..size.rounds)
                .map(|r| corpus(seed, 1_000 + 3 * r as u64, size.round_per_damage))
                .collect();
            (train_set, rounds, corpus(seed, 200, size.audit_per_damage))
        })
    };

    // Every round analyses with the first trained pipeline. The further
    // set-ups retrain from scratch at even intervals between the rounds, so
    // that the rounds are spread over the run instead of all following one
    // long training stretch.
    let mut net = train(env, &mut out, &train_set, size);
    let retrain_at: Vec<usize> = (1..env.setups)
        .map(|k| k * rounds.len() / env.setups)
        .collect();
    let mut side_correct = 0usize;
    let mut signum: Vec<(Vec<Detection>, Vec<BBox>)> = Vec::new();
    let mut audit_accuracy = 0.0;
    for (r, stream) in rounds.iter().enumerate() {
        for _ in retrain_at.iter().filter(|&&at| at == r) {
            drop(train(env, &mut out, &train_set, size));
        }
        {
            let _phase = env.bench.span("bench.perganet.main");
            for p in stream {
                let (analysis, us) = call(&env.bench, "bench.perganet.analyze", || {
                    net.analyze(&p.image)
                });
                out.latencies_us.push(us);
                env.bench.time("bench.perganet.record", || {
                    out.attempted += 1;
                    side_correct += usize::from(analysis.side == p.truth.side);
                    out.mix(&[analysis.side.class() as u8, analysis.text_boxes.len() as u8]);
                    for d in &analysis.signum_detections {
                        for v in [d.bbox.x0, d.bbox.y0, d.bbox.x1, d.bbox.y1, d.score] {
                            out.mix(&v.to_bits().to_le_bytes());
                        }
                    }
                    signum.push((analysis.signum_detections, p.truth.signum_boxes.clone()));
                });
            }
        }
        let _phase = env.bench.span("bench.perganet.audit");
        let (eval, us) = call(&env.bench, "bench.perganet.evaluate", || {
            evaluate(&mut net, &audit)
        });
        out.attempted += audit.len() as u64;
        out.audits.push((audit.len() as f64, us / 1e6));
        audit_accuracy = eval.side_accuracy;
    }
    out.rate_windows = stats::latency_windows(&out.latencies_us, size.window);

    // Quality floors, from the stream's labels, outside every timed region.
    let images = signum.len();
    let side_accuracy = side_correct as f64 / images.max(1) as f64;
    let signum_ap = average_precision(&signum, 0.3);
    if side_accuracy < size.min_side_accuracy || signum_ap < size.min_signum_ap {
        out.fail(format!(
            "quality below floor: side accuracy {side_accuracy:.4} (≥ {}), signum AP {signum_ap:.4} (≥ {})",
            size.min_side_accuracy, size.min_signum_ap
        ));
    }
    out.line("perganet.side_accuracy", side_accuracy, "ratio");
    out.line("perganet.signum_ap", signum_ap, "ratio");
    out.line("perganet.audit_side_accuracy", audit_accuracy, "ratio");
    out.line("perganet.train_s", stats::median(&out.setup_s), "s");
    out.count("perganet.images", images as f64);
    out.fingerprint("perganet.fingerprint");
    out
}
