//! Stage 2: text detection ("the DNN model chosen is EAST for word
//! detection"). EAST's essential decision structure is a dense per-location
//! score map over the image; `EastLite` reproduces that with a small
//! conv+dense network predicting an 8×8 grid of text scores, decoded into
//! boxes by merging adjacent positive cells.
//!
//! In the pipeline the detected regions are *masked out* before signum
//! detection — the paper: "This phase allows for the exclusion of the text
//! on the parchment in the phase of recognition of the signa."

use crate::corpus::{Parchment, IMG};
use crate::image::GrayImage;
use neural::layers::{Conv2d, Dense, Flatten, MaxPool2d, ReLU, Sigmoid};
use neural::loss::weighted_bce;
use neural::metrics::BBox;
use neural::net::Sequential;
use neural::optim::Adam;
use neural::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Model identifier recorded in AI paradata.
pub const MODEL_ID: &str = "perganet/eastlite-v1";

/// Grid resolution (cells per side).
pub const GRID: usize = 8;
/// Pixels per cell.
pub const CELL: usize = IMG / GRID;
/// Positive-cell weight in the BCE loss (text cells are the minority).
const POS_WEIGHT: f32 = 3.0;

/// The text-detection network.
pub struct EastLite {
    net: Sequential,
    rng: StdRng,
    /// Score threshold for decoding (default 0.5).
    pub threshold: f32,
}

impl EastLite {
    /// Fresh, untrained detector.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Sequential::new()
            .push(Conv2d::new(1, 6, 3, 1, &mut rng))
            .push(ReLU::new())
            .push(MaxPool2d::new())
            .push(Conv2d::new(6, 6, 3, 1, &mut rng))
            .push(ReLU::new())
            .push(MaxPool2d::new())
            .push(Flatten::new())
            .push(Dense::new(6 * GRID * GRID, 96, &mut rng))
            .push(ReLU::new())
            .push(Dense::new(96, GRID * GRID, &mut rng))
            .push(Sigmoid::new());
        EastLite { net, rng, threshold: 0.5 }
    }

    /// Ground-truth score map: cell is positive when text covers ≥ 25% of
    /// its area.
    pub fn target_map(truth_boxes: &[BBox]) -> Vec<f32> {
        let mut map = vec![0.0f32; GRID * GRID];
        for (ci, cell_score) in map.iter_mut().enumerate() {
            let cy = ci / GRID;
            let cx = ci % GRID;
            let cell = BBox::new(
                (cx * CELL) as f32,
                (cy * CELL) as f32,
                ((cx + 1) * CELL) as f32,
                ((cy + 1) * CELL) as f32,
            );
            let mut covered = 0.0f32;
            for b in truth_boxes {
                let ix0 = cell.x0.max(b.x0);
                let iy0 = cell.y0.max(b.y0);
                let ix1 = cell.x1.min(b.x1);
                let iy1 = cell.y1.min(b.y1);
                covered += (ix1 - ix0).max(0.0) * (iy1 - iy0).max(0.0);
            }
            if covered >= 0.25 * cell.area() {
                *cell_score = 1.0;
            }
        }
        map
    }

    /// Train on a corpus; returns mean loss per epoch.
    pub fn train(&mut self, corpus: &[Parchment], epochs: usize, lr: f32) -> Vec<f32> {
        assert!(!corpus.is_empty(), "empty training corpus");
        let mut optim = Adam::new(lr);
        let mut order: Vec<&Parchment> = corpus.iter().collect();
        let mut epoch_losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            order.shuffle(&mut self.rng);
            let mut losses = Vec::new();
            for chunk in order.chunks(16) {
                let tensors: Vec<Tensor> = chunk.iter().map(|p| p.image.to_tensor()).collect();
                let x = Tensor::stack_batch(&tensors);
                let mut target = Vec::with_capacity(chunk.len() * GRID * GRID);
                for p in chunk {
                    target.extend(Self::target_map(&p.truth.text_boxes));
                }
                let target = Tensor::from_vec(&[chunk.len(), GRID * GRID], target);
                let weight = target.map(|t| if t > 0.5 { POS_WEIGHT } else { 1.0 });
                let loss = self.net.train_step_custom(
                    &x,
                    &|out| weighted_bce(out, &target, &weight),
                    &mut optim,
                );
                losses.push(loss);
            }
            epoch_losses.push(losses.iter().sum::<f32>() / losses.len() as f32);
        }
        epoch_losses
    }

    /// Raw per-cell scores for one image (row-major `GRID × GRID`).
    pub fn score_map(&mut self, image: &GrayImage) -> Vec<f32> {
        let out = self.net.forward(&image.to_tensor(), false);
        out.data().to_vec()
    }

    /// Detect text boxes: threshold the score map and merge runs of
    /// horizontally adjacent positive cells (text lines are horizontal).
    pub fn detect(&mut self, image: &GrayImage) -> Vec<BBox> {
        let scores = self.score_map(image);
        let mut boxes = Vec::new();
        for (row, cells) in scores.chunks(GRID).enumerate() {
            let positive = |col: usize| cells.get(col).is_some_and(|&s| s > self.threshold);
            let mut col = 0;
            while col < cells.len() {
                if positive(col) {
                    let start = col;
                    while positive(col) {
                        col += 1;
                    }
                    boxes.push(BBox::new(
                        (start * CELL) as f32,
                        (row * CELL) as f32,
                        (col * CELL) as f32,
                        ((row + 1) * CELL) as f32,
                    ));
                } else {
                    col += 1;
                }
            }
        }
        boxes
    }

    /// Cell-level precision and recall against ground truth.
    pub fn cell_metrics(&mut self, corpus: &[Parchment]) -> (f64, f64) {
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut fn_ = 0usize;
        for p in corpus {
            let scores = self.score_map(&p.image);
            let target = Self::target_map(&p.truth.text_boxes);
            for (s, t) in scores.iter().zip(&target) {
                let pred = *s > self.threshold;
                let truth = *t > 0.5;
                match (pred, truth) {
                    (true, true) => tp += 1,
                    (true, false) => fp += 1,
                    (false, true) => fn_ += 1,
                    (false, false) => {}
                }
            }
        }
        let precision = if tp + fp == 0 { 1.0 } else { tp as f64 / (tp + fp) as f64 };
        let recall = if tp + fn_ == 0 { 1.0 } else { tp as f64 / (tp + fn_) as f64 };
        (precision, recall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate, CorpusConfig};

    #[test]
    fn target_map_marks_text_cells() {
        // A full-width strip at rows 4..6 covers half of each row-1 cell.
        let boxes = vec![BBox::new(0.0, 4.0, 32.0, 6.0)];
        let map = EastLite::target_map(&boxes);
        for cx in 0..GRID {
            assert_eq!(map[GRID + cx], 1.0, "cell (1,{cx}) should be positive");
        }
        // Other rows negative.
        assert!(map[0] == 0.0 && map[5 * GRID] == 0.0);
        // Empty truth → all negative.
        assert!(EastLite::target_map(&[]).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn learns_to_detect_text_cells() {
        let train = generate(CorpusConfig { count: 120, damage: 0, seed: 11 });
        let test = generate(CorpusConfig { count: 50, damage: 0, seed: 12 });
        let mut model = EastLite::new(13);
        // 14 epochs: the vendored offline rand (xoshiro256++) yields a
        // different init/shuffle sequence than upstream ChaCha12, and this
        // seed needs the extra epochs to clear the 0.7 precision bar.
        let losses = model.train(&train, 14, 0.005);
        assert!(losses.last().unwrap() < losses.first().unwrap());
        let (precision, recall) = model.cell_metrics(&test);
        assert!(precision > 0.7, "precision {precision}");
        assert!(recall > 0.7, "recall {recall}");
    }

    #[test]
    fn detect_merges_adjacent_cells_into_lines() {
        let train = generate(CorpusConfig { count: 120, damage: 0, seed: 14 });
        let mut model = EastLite::new(15);
        model.train(&train, 8, 0.005);
        // A recto with text lines should produce wide, short boxes.
        let recto = train
            .iter()
            .find(|p| p.truth.text_boxes.len() >= 2)
            .expect("corpus has text-bearing parchments");
        let boxes = model.detect(&recto.image);
        assert!(!boxes.is_empty(), "no text detected on a text-bearing recto");
        for b in &boxes {
            assert!(b.x1 - b.x0 >= CELL as f32);
            assert_eq!(b.y1 - b.y0, CELL as f32, "single-row boxes");
        }
    }

    #[test]
    fn score_map_has_grid_size_and_unit_range() {
        let mut model = EastLite::new(16);
        let img = crate::image::GrayImage::filled(IMG, IMG, 0.5);
        let scores = model.score_map(&img);
        assert_eq!(scores.len(), GRID * GRID);
        assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }

    #[test]
    fn threshold_is_tunable() {
        let mut model = EastLite::new(17);
        let img = crate::image::GrayImage::filled(IMG, IMG, 0.5);
        model.threshold = 0.0; // everything positive → one full-width box per row
        let all = model.detect(&img);
        assert_eq!(all.len(), GRID);
        model.threshold = 1.1; // nothing positive
        assert!(model.detect(&img).is_empty());
    }
}

