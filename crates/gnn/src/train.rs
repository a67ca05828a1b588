//! Training configuration, the Adam optimizer, and train/test splitting.
//!
//! Training in this workspace is deliberately simple: full-batch gradient
//! descent with Adam over the cross-entropy of the training nodes. The
//! explanation algorithms never train — they only need a *fixed* model — so
//! the trainer's job is to produce a reasonable deterministic classifier for
//! the synthetic datasets.

use rcw_graph::NodeId;
use rcw_linalg::rng::{Rng, SliceRandom};
use rcw_linalg::Matrix;

/// Hyperparameters for full-batch training.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of epochs (full-batch steps).
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// L2 weight decay added to the gradient.
    pub weight_decay: f64,
    /// Seed controlling any training-time randomness (e.g. dropout, unused here).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 200,
            learning_rate: 0.02,
            weight_decay: 5e-4,
            seed: 0,
        }
    }
}

/// Per-epoch training curve.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Cross-entropy loss per epoch.
    pub losses: Vec<f64>,
    /// Training accuracy per epoch.
    pub accuracies: Vec<f64>,
}

impl TrainReport {
    /// Loss of the final epoch (infinity when no epoch ran).
    pub fn final_loss(&self) -> f64 {
        self.losses.last().copied().unwrap_or(f64::INFINITY)
    }
}

/// Adam optimizer state for one weight matrix.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: usize,
    m: Matrix,
    v: Matrix,
}

impl Adam {
    /// Creates optimizer state for a `rows x cols` parameter matrix.
    pub fn new(rows: usize, cols: usize, lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
        }
    }

    /// Applies one Adam update to `weights` given the gradient `grad`.
    pub fn step(&mut self, weights: &mut Matrix, grad: &Matrix) {
        assert_eq!(weights.shape(), grad.shape(), "Adam::step: shape mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (m, v) = (self.m.data_mut(), self.v.data_mut());
        let w = weights.data_mut();
        for ((wi, gi), (mi, vi)) in w
            .iter_mut()
            .zip(grad.data())
            .zip(m.iter_mut().zip(v.iter_mut()))
        {
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            let m_hat = *mi / bc1;
            let v_hat = *vi / bc2;
            *wi -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

/// Deterministically splits labeled nodes into train and test sets with the
/// given training fraction.
pub fn train_test_split(
    labeled_nodes: &[NodeId],
    train_fraction: f64,
    seed: u64,
) -> (Vec<NodeId>, Vec<NodeId>) {
    let mut nodes = labeled_nodes.to_vec();
    let mut rng = Rng::seed_from_u64(seed);
    nodes.shuffle(&mut rng);
    let cut = ((nodes.len() as f64) * train_fraction.clamp(0.0, 1.0)).round() as usize;
    let cut = cut.min(nodes.len());
    let train = nodes[..cut].to_vec();
    let test = nodes[cut..].to_vec();
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_a_quadratic() {
        // minimize f(w) = 0.5 * ||w - target||^2 ; grad = w - target
        let target = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 3.0]]);
        let mut w = Matrix::zeros(2, 2);
        let mut opt = Adam::new(2, 2, 0.05);
        for _ in 0..500 {
            let grad = w.sub(&target);
            opt.step(&mut w, &grad);
        }
        assert!(w.sub(&target).max_abs() < 1e-2, "Adam failed to converge");
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn adam_rejects_shape_mismatch() {
        let mut w = Matrix::zeros(2, 2);
        let g = Matrix::zeros(1, 2);
        Adam::new(2, 2, 0.1).step(&mut w, &g);
    }

    #[test]
    fn split_is_deterministic_and_partitioning() {
        let nodes: Vec<usize> = (0..100).collect();
        let (tr1, te1) = train_test_split(&nodes, 0.7, 9);
        let (tr2, te2) = train_test_split(&nodes, 0.7, 9);
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
        assert_eq!(tr1.len(), 70);
        assert_eq!(te1.len(), 30);
        let mut all: Vec<usize> = tr1.iter().chain(te1.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, nodes);
    }

    #[test]
    fn split_handles_extreme_fractions() {
        let nodes: Vec<usize> = (0..10).collect();
        let (tr, te) = train_test_split(&nodes, 0.0, 1);
        assert!(tr.is_empty());
        assert_eq!(te.len(), 10);
        let (tr, te) = train_test_split(&nodes, 1.5, 1);
        assert_eq!(tr.len(), 10);
        assert!(te.is_empty());
    }

    #[test]
    fn report_defaults() {
        let r = TrainReport::default();
        assert!(r.final_loss().is_infinite());
        let cfg = TrainConfig::default();
        assert!(cfg.epochs > 0 && cfg.learning_rate > 0.0);
    }
}
