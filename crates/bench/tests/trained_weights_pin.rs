//! Trained-weight pin: the exact bits `Appnp::train` and `Gcn::train`
//! produce on a seeded SBM, folded into one FNV-1a digest per model.
//!
//! `ANSWERS.json` pins served answers, and a weight change that moves no
//! answer slips past it. This test fails on any change to a trained
//! weight's bits: a reordered propagation update, a different
//! normalization, or a changed optimizer step.

use rcw_bench::replay::Fnv;
use rcw_gnn::{Appnp, Gcn, TrainConfig};
use rcw_graph::generators::{ensure_connected, stochastic_block_model};
use rcw_graph::{Graph, GraphView, NodeId};
use rcw_linalg::rng::Rng;
use rcw_linalg::Matrix;

const SEED: u64 = 5;

/// A 60-node, three-block SBM with one-hot block features plus a seeded
/// noise column, labeled by block.
fn sbm() -> Graph {
    let (mut g, blocks) = stochastic_block_model(&[20, 20, 20], 0.2, 0.03, SEED);
    ensure_connected(&mut g, SEED);
    let mut rng = Rng::seed_from_u64(SEED);
    for (v, &b) in blocks.iter().enumerate() {
        let mut feats = vec![0.0; 4];
        feats[b] = 1.0;
        feats[3] = rng.gen_range(0usize..10) as f64 / 10.0;
        g.set_features(v, feats);
        g.set_label(v, b);
    }
    g
}

fn train_nodes(g: &Graph) -> Vec<NodeId> {
    (0..g.num_nodes()).filter(|v| v % 3 != 0).collect()
}

fn cfg() -> TrainConfig {
    TrainConfig {
        epochs: 40,
        ..TrainConfig::default()
    }
}

/// FNV-1a over every weight matrix's shape and its entries' `f64::to_bits`,
/// in layer and row-major order.
fn digest(weights: &[Matrix]) -> u64 {
    let mut h = Fnv::new();
    for w in weights {
        h.write_u64(w.rows() as u64);
        h.write_u64(w.cols() as u64);
        for &x in w.data() {
            h.write_u64(x.to_bits());
        }
    }
    h.finish()
}

#[test]
fn appnp_training_reproduces_the_pinned_weight_bits() {
    let g = sbm();
    let mut m = Appnp::new(&[4, 16, 3], 0.15, 12, SEED);
    m.train(&GraphView::full(&g), &train_nodes(&g), &cfg());
    let got = digest(m.weights());
    assert_eq!(got, APPNP_DIGEST, "weight digest {got:#018x}");
}

#[test]
fn gcn_training_reproduces_the_pinned_weight_bits() {
    let g = sbm();
    let mut m = Gcn::new(&[4, 16, 3], SEED);
    m.train(&GraphView::full(&g), &train_nodes(&g), &cfg());
    let got = digest(m.weights());
    assert_eq!(got, GCN_DIGEST, "weight digest {got:#018x}");
}

/// The digests of the current training code. A change that moves trained
/// weights on purpose regenerates them (the failure message prints the new
/// value) and says so.
const APPNP_DIGEST: u64 = 0x7dbf_77a1_b967_f2ac;
const GCN_DIGEST: u64 = 0x93a2_f5f8_3121_be70;
