//! Compute-kernel microbenchmarks: the SpMM and matmul hot loops behind every
//! forward pass, the localized-ball machinery they feed, and the candidate
//! scoring of witness generation (GCN margins, APPNP walk ranking keys).
//!
//! Each vectorized kernel is benchmarked next to the retained scalar
//! reference (`*_deg_ref`, `matmul_reference`) so kernel-level regressions —
//! or a toolchain change that stops the autovectorizer from firing — show up
//! directly instead of being smeared across the end-to-end numbers. Results
//! land in `BENCH_kernels.json` (name, iters, ns/iter) and are enforced by
//! the CI bench-regression gate next to the other committed records.

use rcw_bench::timing::BenchGroup;
use rcw_datasets::{citeseer, Scale};
use rcw_gnn::{Gcn, GnnModel, KernelScratch};
use rcw_graph::generators::{ensure_connected, stochastic_block_model};
use rcw_graph::traversal::k_hop_neighborhood;
use rcw_graph::{BallScratch, Csr, CsrNorms, GraphView, Locality, NodeId};
use rcw_linalg::matrix::{matmul_packed_rows, matmul_pret_rows};
use rcw_linalg::{Matrix, PackedWeights, Rng};

/// A connected SBM graph with 4-dim features, deterministic in the seed.
fn sbm(blocks: &[usize], seed: u64) -> rcw_graph::Graph {
    let (mut g, membership) = stochastic_block_model(blocks, 0.25, 0.02, seed);
    ensure_connected(&mut g, seed.wrapping_add(3));
    for (v, &b) in membership.iter().enumerate() {
        let mut feats = vec![0.0; 4];
        feats[b % 4] = 1.0;
        g.set_features(v, feats);
        g.set_label(v, b % 3);
    }
    g
}

/// A dense random matrix with a sprinkling of exact zeros (the kernels skip
/// zero multiplicands, so the mix must resemble post-ReLU activations).
fn random_data(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.15) {
                0.0
            } else {
                rng.gen_f64() * 2.0 - 1.0
            }
        })
        .collect()
}

fn main() {
    let samples = 21;
    let mut group = BenchGroup::new("kernels: SpMM / matmul / localized balls", samples);

    // --- SpMM: vectorized cached kernels vs the scalar references ---------
    let g = sbm(&[160, 160, 160], 11);
    let view = GraphView::full(&g);
    let csr = Csr::from_view(&view);
    let norms = CsrNorms::from_csr(&csr);
    let n = csr.num_nodes();
    for dim in [4usize, 24] {
        let x = random_data(n * dim, 29 ^ dim as u64);
        let mut out = vec![0.0; n * dim];
        group.bench(format!("spmm/sym/d{dim}/vectorized"), || {
            csr.spmm_sym_norm_cached(&norms, &x, dim, &mut out, None);
            out[0]
        });
        group.bench(format!("spmm/sym/d{dim}/scalar_ref"), || {
            csr.spmm_sym_norm_deg_ref(norms.degrees(), &x, dim, &mut out, None);
            out[0]
        });
    }
    {
        let dim = 8usize;
        let x = random_data(n * dim, 31);
        let mut out = vec![0.0; n * dim];
        group.bench(format!("spmm/row/d{dim}/vectorized"), || {
            csr.spmm_row_norm_cached(&norms, &x, dim, &mut out, None);
            out[0]
        });
        group.bench(format!("spmm/row/d{dim}/scalar_ref"), || {
            csr.spmm_row_norm_deg_ref(norms.degrees(), &x, dim, &mut out, None);
            out[0]
        });
    }

    // --- Dense matmul: pre-transposed lane kernel vs the strided loop -----
    // The forward-pass shape: tall activation matrix times a small weight.
    let (rows, inner, cols) = (512usize, 24usize, 3usize);
    let a = Matrix::from_vec(rows, inner, random_data(rows * inner, 41));
    let w = Matrix::from_vec(inner, cols, random_data(inner * cols, 43));
    let wt = w.transpose();
    let pw = PackedWeights::pack(&w);
    let mut out = vec![0.0; rows * cols];
    group.bench("matmul/512x24x3/packed", || {
        out.fill(0.0);
        matmul_packed_rows(a.data(), inner, &pw, &mut out, None, false);
        out[0]
    });
    group.bench("matmul/512x24x3/pretransposed", || {
        out.fill(0.0);
        matmul_pret_rows(a.data(), inner, &wt, &mut out, None, false);
        out[0]
    });
    group.bench("matmul/512x24x3/reference", || a.matmul_reference(&w));
    // the models' actual layer-0 shape: wide sparse features into a hidden dim
    let (r2, i2, c2) = (512usize, 48usize, 24usize);
    let a2 = Matrix::from_vec(r2, i2, random_data(r2 * i2, 47));
    let w2 = Matrix::from_vec(i2, c2, random_data(i2 * c2, 49));
    let pw2 = PackedWeights::pack(&w2);
    let mut out2 = vec![0.0; r2 * c2];
    group.bench("matmul/512x48x24/packed", || {
        out2.fill(0.0);
        matmul_packed_rows(a2.data(), i2, &pw2, &mut out2, None, false);
        out2[0]
    });
    group.bench("matmul/512x48x24/reference", || a2.matmul_reference(&w2));

    // --- Localized balls: fresh build vs scratch-reusing rebuild ----------
    let probe: NodeId = n / 2;
    group.bench("locality/build/fresh", || {
        Locality::build(&view, probe, 2).nodes().len()
    });
    let mut ball = Locality::default();
    let mut bfs = BallScratch::default();
    group.bench("locality/rebuild/reused", || {
        ball.rebuild(&view, probe, 2, &mut bfs);
        ball.nodes().len()
    });

    // --- Candidate scoring: the session's expand-verify inner loop --------
    let gcn = Gcn::new(&[4, 16, 3], 5);
    let removals: Vec<(NodeId, NodeId)> = g
        .edge_vec()
        .into_iter()
        .filter(|&(u, v2)| u == probe || v2 == probe || u == probe + 1)
        .take(16)
        .collect();
    assert!(!removals.is_empty(), "probe node must have incident edges");
    let mut scratch = KernelScratch::default();
    group.bench("margin_many_removed/16-candidates", || {
        gcn.margin_many_removed_with(probe, 1, &view, &removals, &mut scratch)
            .len()
    });

    // --- APPNP walk ranking: one removal base, two blocks of candidates ----
    let ds = citeseer::build(Scale::Small, 7);
    let appnp = ds.train_appnp(16, 7);
    let center = ds.test_pool[0];
    let full = GraphView::full(&ds.graph);
    let label = appnp.predict(center, &full).expect("valid node");
    let hood = k_hop_neighborhood(&ds.graph, center, 2);
    let candidates: Vec<(NodeId, NodeId)> = ds
        .graph
        .edge_vec()
        .into_iter()
        .filter(|&(u, v2)| hood.contains(&u) && hood.contains(&v2))
        .take(16)
        .collect();
    assert_eq!(candidates.len(), 16, "probe hood must hold 16 edges");
    appnp.set_removal_base(center, &full, &mut scratch);
    group.bench(
        "removal_ranking_keys/appnp/citeseer-small/16-candidates",
        || {
            appnp
                .removal_ranking_keys(label, &candidates, &mut scratch)
                .len()
        },
    );

    group.finish();
    // anchor at the workspace root so the record is stable across invokers
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    group.write_json(path);
}
