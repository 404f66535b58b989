//! Stage 3: detection and recognition of the *signum tabellionis* ("our
//! approach uses YOLOv3 … because of its efficiency in computational terms
//! and for its precision to detect and classify objects").
//!
//! `YoloLite` keeps YOLO's contract — one forward pass predicts, for every
//! grid cell, an objectness score plus a box (center offset, width,
//! height) — and decodes with non-max suppression.

use crate::corpus::{Parchment, IMG};
use crate::image::GrayImage;
use neural::layers::{Conv2d, Dense, Flatten, MaxPool2d, ReLU, Sigmoid};
use neural::loss::LossOutput;
use neural::metrics::{BBox, Detection};
use neural::net::Sequential;
use neural::optim::Adam;
use neural::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Model identifier recorded in AI paradata.
pub const MODEL_ID: &str = "perganet/yololite-v1";

/// Detection grid resolution (cells per side).
pub const GRID: usize = 4;
/// Pixels per detection cell.
pub const CELL: usize = IMG / GRID;
/// Values predicted per cell: objectness, dx, dy, w, h.
pub const PER_CELL: usize = 5;

const OBJ_POS_WEIGHT: f32 = 5.0;
const OBJ_NEG_WEIGHT: f32 = 0.5;
const BOX_WEIGHT: f32 = 5.0;

/// Per-image training target: for each cell, `None` (no object) or the
/// normalized box parameters `(dx, dy, w, h)` in `[0,1]`.
pub type CellTargets = Vec<Option<(f32, f32, f32, f32)>>;

/// Build cell targets from ground-truth boxes: the cell containing a box's
/// center owns it.
pub fn targets_for(boxes: &[BBox]) -> CellTargets {
    let mut cells: CellTargets = vec![None; GRID * GRID];
    for b in boxes {
        let (cx, cy) = b.center();
        let col = ((cx as usize) / CELL).min(GRID - 1);
        let row = ((cy as usize) / CELL).min(GRID - 1);
        let dx = (cx - (col * CELL) as f32) / CELL as f32;
        let dy = (cy - (row * CELL) as f32) / CELL as f32;
        let w = (b.x1 - b.x0) / IMG as f32;
        let h = (b.y1 - b.y0) / IMG as f32;
        if let Some(cell) = cells.get_mut(row * GRID + col) {
            *cell = Some((dx, dy, w, h));
        }
    }
    cells
}

/// YOLO-style fused loss over a `[batch, GRID*GRID*PER_CELL]` post-sigmoid
/// output: weighted BCE on objectness plus MSE on box parameters of
/// positive cells.
pub fn yolo_loss(out: &Tensor, targets: &[CellTargets]) -> LossOutput {
    let batch = targets.len();
    assert_eq!(out.shape(), [batch, GRID * GRID * PER_CELL], "one output row per target");
    let inv_batch = 1.0 / batch as f32;
    let mut loss = 0.0f32;
    let mut grad = Tensor::zeros(out.shape());
    for (b, cells) in targets.iter().enumerate() {
        for (ci, cell) in cells.iter().enumerate() {
            let base = ci * PER_CELL;
            let obj = out.at2(b, base).clamp(1e-6, 1.0 - 1e-6);
            match cell {
                None => {
                    loss -= OBJ_NEG_WEIGHT * (1.0 - obj).ln();
                    *grad.at2_mut(b, base) =
                        OBJ_NEG_WEIGHT * (obj - 0.0) / (obj * (1.0 - obj)) * inv_batch;
                }
                Some((dx, dy, w, h)) => {
                    loss -= OBJ_POS_WEIGHT * obj.ln();
                    *grad.at2_mut(b, base) =
                        OBJ_POS_WEIGHT * (obj - 1.0) / (obj * (1.0 - obj)) * inv_batch;
                    for (k, &t) in [*dx, *dy, *w, *h].iter().enumerate() {
                        let p = out.at2(b, base + 1 + k);
                        loss += BOX_WEIGHT * (p - t) * (p - t);
                        *grad.at2_mut(b, base + 1 + k) =
                            2.0 * BOX_WEIGHT * (p - t) * inv_batch;
                    }
                }
            }
        }
    }
    LossOutput { loss: loss * inv_batch, grad }
}

/// Non-max suppression: keep detections in descending score order,
/// dropping any that overlap a kept box at IoU ≥ `iou_threshold`.
pub fn nms(mut detections: Vec<Detection>, iou_threshold: f32) -> Vec<Detection> {
    detections.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
    let mut kept: Vec<Detection> = Vec::new();
    for d in detections {
        if kept.iter().all(|k| k.bbox.iou(&d.bbox) < iou_threshold) {
            kept.push(d);
        }
    }
    kept
}

/// The signum detector.
pub struct YoloLite {
    net: Sequential,
    rng: StdRng,
    /// Objectness threshold for decoding (default 0.5).
    pub threshold: f32,
    /// NMS IoU threshold (default 0.3).
    pub nms_iou: f32,
}

impl YoloLite {
    /// Fresh, untrained detector.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Sequential::new()
            .push(Conv2d::new(1, 6, 3, 1, &mut rng))
            .push(ReLU::new())
            .push(MaxPool2d::new())
            .push(Conv2d::new(6, 12, 3, 1, &mut rng))
            .push(ReLU::new())
            .push(MaxPool2d::new())
            .push(Flatten::new())
            .push(Dense::new(12 * 8 * 8, 96, &mut rng))
            .push(ReLU::new())
            .push(Dense::new(96, GRID * GRID * PER_CELL, &mut rng))
            .push(Sigmoid::new());
        YoloLite { net, rng, threshold: 0.5, nms_iou: 0.3 }
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
                let targets: Vec<CellTargets> =
                    chunk.iter().map(|p| targets_for(&p.truth.signum_boxes)).collect();
                let loss = self.net.train_step_custom(
                    &x,
                    &|out| yolo_loss(out, &targets),
                    &mut optim,
                );
                losses.push(loss);
            }
            epoch_losses.push(losses.iter().sum::<f32>() / losses.len() as f32);
        }
        epoch_losses
    }

    /// One-pass detection on an image, decoded and NMS-filtered.
    pub fn detect(&mut self, image: &GrayImage) -> Vec<Detection> {
        let out = self.net.forward(&image.to_tensor(), false);
        let mut dets = Vec::new();
        for ci in 0..GRID * GRID {
            let base = ci * PER_CELL;
            let obj = out.at2(0, base);
            if obj <= self.threshold {
                continue;
            }
            let row = ci / GRID;
            let col = ci % GRID;
            let cx = (col * CELL) as f32 + out.at2(0, base + 1) * CELL as f32;
            let cy = (row * CELL) as f32 + out.at2(0, base + 2) * CELL as f32;
            let w = out.at2(0, base + 3) * IMG as f32;
            let h = out.at2(0, base + 4) * IMG as f32;
            dets.push(Detection {
                bbox: BBox::new(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0),
                score: obj,
            });
        }
        nms(dets, self.nms_iou)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate, CorpusConfig};
    use neural::metrics::{average_precision, evaluate_detections};

    #[test]
    fn targets_place_box_in_owning_cell() {
        // Signum at (20..27, 24..31): center (23.5, 27.5) → cell (col 2, row 3).
        let boxes = vec![BBox::new(20.0, 24.0, 27.0, 31.0)];
        let cells = targets_for(&boxes);
        let owner = cells[3 * GRID + 2].expect("owning cell set");
        assert!((owner.0 - (23.5 - 16.0) / 8.0).abs() < 1e-6);
        assert!((owner.1 - (27.5 - 24.0) / 8.0).abs() < 1e-6);
        assert!((owner.2 - 7.0 / 32.0).abs() < 1e-6);
        assert_eq!(cells.iter().filter(|c| c.is_some()).count(), 1);
        assert!(targets_for(&[]).iter().all(|c| c.is_none()));
    }

    #[test]
    fn yolo_loss_gradient_matches_finite_difference() {
        let mut out = Tensor::zeros(&[1, GRID * GRID * PER_CELL]);
        for (i, v) in out.data_mut().iter_mut().enumerate() {
            *v = 0.2 + 0.6 * ((i % 7) as f32 / 7.0);
        }
        let targets = vec![targets_for(&[BBox::new(8.0, 8.0, 15.0, 15.0)])];
        let base = yolo_loss(&out, &targets);
        let eps = 1e-3;
        for idx in (0..out.len()).step_by(3) {
            let mut up = out.clone();
            up.data_mut()[idx] += eps;
            let mut down = out.clone();
            down.data_mut()[idx] -= eps;
            let numeric =
                (yolo_loss(&up, &targets).loss - yolo_loss(&down, &targets).loss) / (2.0 * eps);
            let analytic = base.grad.data()[idx];
            assert!(
                (analytic - numeric).abs() < 0.05,
                "grad[{idx}] analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn nms_suppresses_overlaps_keeps_distinct() {
        let a = Detection { bbox: BBox::new(0.0, 0.0, 10.0, 10.0), score: 0.9 };
        let a2 = Detection { bbox: BBox::new(1.0, 1.0, 11.0, 11.0), score: 0.7 };
        let b = Detection { bbox: BBox::new(20.0, 20.0, 30.0, 30.0), score: 0.8 };
        let kept = nms(vec![a.clone(), a2, b.clone()], 0.3);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].score, 0.9);
        assert_eq!(kept[1].score, 0.8);
        assert!(nms(vec![], 0.3).is_empty());
    }

    #[test]
    fn learns_to_find_the_signum() {
        let train = generate(CorpusConfig { count: 150, damage: 0, seed: 21 });
        let test = generate(CorpusConfig { count: 60, damage: 0, seed: 22 });
        let mut model = YoloLite::new(23);
        let losses = model.train(&train, 30, 0.002);
        assert!(losses.last().unwrap() < losses.first().unwrap());
        // Evaluate detection quality at IoU 0.3 (coarse 4×4 grid).
        let per_image: Vec<(Vec<Detection>, Vec<BBox>)> = test
            .iter()
            .map(|p| (model.detect(&p.image), p.truth.signum_boxes.clone()))
            .collect();
        let ap = average_precision(&per_image, 0.3);
        assert!(ap > 0.7, "signum AP@0.3 = {ap}");
        // Aggregate recall across images with signa.
        let mut tp = 0;
        let mut total = 0;
        for (dets, gts) in &per_image {
            let e = evaluate_detections(dets, gts, 0.3);
            tp += e.tp;
            total += e.tp + e.fn_;
        }
        let recall = tp as f64 / total.max(1) as f64;
        assert!(recall > 0.6, "signum recall {recall}");
    }

    #[test]
    fn detect_threshold_gates_output() {
        let mut model = YoloLite::new(25);
        let img = crate::image::GrayImage::filled(IMG, IMG, 0.5);
        model.threshold = 1.1;
        assert!(model.detect(&img).is_empty());
    }
}
