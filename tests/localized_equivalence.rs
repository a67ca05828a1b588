//! Exact-equivalence sweep for the localized inference engine.
//!
//! `predict` and `margin` run an induced receptive-field forward pass; this
//! suite pins them against the full-graph `logits` path with **no tolerance**:
//! the same floats and the same argmax, for all four model families, over
//! random SBM graphs under restricted / removed / flipped views, plus the
//! boundary cases (isolated node, edgeless view, receptive field covering the
//! whole graph).
//!
//! Removal variants of one shared ball (the generator's removal base) and
//! flip variants of one superset ball (the verifier's flip bases: GCN's
//! delta forward, the other families' full forward through the trait
//! default) are pinned against balls built on the explicit views the same
//! way.
//!
//! APPNP's localized path gathers rows of a cached `H = f_theta(X)` instead of
//! running its MLP, so the last three tests pin that cache against the full
//! pass after a feature edit, after retraining a clone of a warmed model, and
//! with one model alternating between two graphs.

use robogexp::gnn::model::{
    localized_logits_row, margin_of_row, removal_logits_into, removal_margins,
};
use robogexp::gnn::{ForwardScratch, Gat, GraphSage, KernelScratch, TrainConfig, VariantBase};
use robogexp::graph::generators::{ensure_connected, stochastic_block_model};
use robogexp::graph::{BallScratch, Locality};
use robogexp::linalg::rng::Rng;
use robogexp::linalg::vector;
use robogexp::prelude::*;

/// A random labeled/featured SBM graph, deterministic in the seed.
fn sbm_graph(seed: u64) -> Graph {
    let per_block = 8 + (seed as usize % 5);
    let (mut g, blocks) =
        stochastic_block_model(&[per_block, per_block, per_block], 0.4, 0.06, seed);
    ensure_connected(&mut g, seed.wrapping_add(77));
    let mut rng = Rng::seed_from_u64(seed ^ 0x51ED);
    for (v, &b) in blocks.iter().enumerate() {
        let mut feats = vec![0.0; 4];
        feats[b] = 1.0;
        feats[3] = rng.gen_range(0usize..10) as f64 / 10.0;
        g.set_features(v, feats);
        g.set_label(v, b);
    }
    g
}

fn models(seed: u64) -> Vec<(&'static str, Box<dyn GnnModel>)> {
    let dims = [4usize, 6, 3];
    vec![
        (
            "GCN",
            Box::new(Gcn::new(&[4, 6, 6, 3], seed)) as Box<dyn GnnModel>,
        ),
        ("APPNP", Box::new(Appnp::new(&dims, 0.2, 7, seed))),
        ("GraphSAGE", Box::new(GraphSage::new(&dims, seed))),
        ("GAT", Box::new(Gat::new(&dims, seed))),
    ]
}

/// Asserts bit-exact agreement between the localized and full paths for one
/// node under one view.
fn assert_node_equivalence(name: &str, model: &dyn GnnModel, v: NodeId, view: &GraphView<'_>) {
    let full = model.logits(view);
    let full_row = full.row(v);
    let local_row = localized_logits_row(model, v, view);
    assert_eq!(
        local_row,
        full_row.to_vec(),
        "{name}: localized logits row differs from the full pass for node {v}"
    );
    assert_eq!(
        model.predict(v, view),
        Some(vector::argmax(full_row)),
        "{name}: predict differs from full-pass argmax for node {v}"
    );
    for label in 0..model.num_classes() {
        let localized = model.margin(v, label, view);
        let reference = margin_of_row(full_row, label);
        assert!(
            localized == reference,
            "{name}: margin({v}, {label}) localized {localized} != full {reference}"
        );
    }
}

#[test]
fn localized_equals_full_over_sbm_views() {
    for seed in 0u64..6 {
        let g = sbm_graph(seed);
        let n = g.num_nodes();
        let edges = g.edge_vec();
        // a witness-sized edge subset and a disturbance-sized pair set
        let witness: EdgeSet = edges.iter().copied().step_by(5).take(8).collect();
        let flips: EdgeSet = edges
            .iter()
            .copied()
            .skip(2)
            .step_by(7)
            .take(3)
            .chain([(0, n - 1)])
            .collect();
        let restricted = GraphView::restricted_to(&g, &witness);
        let removed = GraphView::without(&g, &witness);
        let flipped = GraphView::full(&g).flipped(&flips);
        let probes = [0, n / 3, n / 2, n - 1];
        for (name, model) in models(seed) {
            for view in [&restricted, &removed, &flipped] {
                for &v in &probes {
                    assert_node_equivalence(name, model.as_ref(), v, view);
                }
            }
            // predict_all restricted to the probes must agree with the
            // localized per-node path
            let preds = model.predict_all(&removed);
            for &v in &probes {
                assert_eq!(
                    model.predict(v, &removed),
                    Some(preds[v]),
                    "{name}: predict_all[{v}] disagrees with localized predict"
                );
            }
        }
    }
}

#[test]
fn shared_ball_margin_batch_equals_per_view_margins() {
    // margin_many_removed shares one receptive-field ball across the whole
    // candidate pool; it must be bit-exact against building each
    // single-removal view explicitly and calling margin — for every model
    // family, from base views of all three kinds, including removals far
    // outside the ball.
    for seed in 0u64..4 {
        let g = sbm_graph(seed);
        let edges = g.edge_vec();
        let witness: EdgeSet = edges.iter().copied().step_by(6).take(6).collect();
        let bases = [
            GraphView::full(&g),
            GraphView::without(&g, &witness),
            GraphView::restricted_to(&g, &edges.iter().copied().step_by(2).collect::<EdgeSet>()),
        ];
        for base in &bases {
            let v = edges[0].0;
            // candidates: every base-visible edge (near and far from v)
            let removals: Vec<(NodeId, NodeId)> = edges
                .iter()
                .copied()
                .filter(|&(a, b)| base.has_edge(a, b))
                .step_by(3)
                .take(12)
                .collect();
            if removals.is_empty() {
                continue;
            }
            for (name, model) in models(seed) {
                for label in [0usize, 2] {
                    let batched = model.margin_many_removed(v, label, base, &removals);
                    for (i, &(a, b)) in removals.iter().enumerate() {
                        let mut variant = base.clone();
                        variant.remove_edge(a, b);
                        let reference = model.margin(v, label, &variant);
                        assert!(
                            batched[i] == reference,
                            "{name}: seed {seed}, removal ({a},{b}): shared-ball margin \
                             {} != per-view margin {reference}",
                            batched[i],
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn multi_removal_variants_equal_explicit_views() {
    // The removal base answers every view `base \ removed` from one ball:
    // each variant's center row must equal the row of a ball built on the
    // explicit view, bit for bit, and so must every answer derived from it
    // (predict_with, margin_with, removal_keeps_label, removal_margins) —
    // for all four model families, from base views of all three kinds,
    // with removal sets of every size up to six, near and far from v.
    let mut scratch = KernelScratch::default();
    let mut explicit_scratch = KernelScratch::default();
    for seed in 0u64..4 {
        let g = sbm_graph(seed);
        let edges = g.edge_vec();
        let witness: EdgeSet = edges.iter().copied().step_by(6).take(6).collect();
        let bases = [
            GraphView::full(&g),
            GraphView::without(&g, &witness),
            GraphView::restricted_to(&g, &edges.iter().copied().step_by(2).collect::<EdgeSet>()),
        ];
        for base in &bases {
            let v = edges[1].1;
            let visible: Vec<(NodeId, NodeId)> = edges
                .iter()
                .copied()
                .filter(|&(a, b)| base.has_edge(a, b))
                .collect();
            // incident edges of v first, then the rest in a seeded stride
            let mut pool: Vec<(NodeId, NodeId)> = visible
                .iter()
                .copied()
                .filter(|&(a, b)| a == v || b == v)
                .map(|(a, b)| if a == v { (a, b) } else { (b, a) })
                .collect();
            pool.extend(
                visible
                    .iter()
                    .copied()
                    .filter(|&(a, b)| a != v && b != v)
                    .step_by(3 + seed as usize),
            );
            for (name, model) in models(seed) {
                model.set_removal_base(v, base, &mut scratch);
                let sets = (0..=pool.len().min(6))
                    .flat_map(|size| [&pool[..size], &pool[pool.len() - size..]]);
                for removed in sets {
                    let mut explicit = base.clone();
                    explicit.remove_edges(&removed.iter().copied().collect());
                    let row = removal_logits_into(model.as_ref(), removed, &mut scratch).to_vec();
                    assert_eq!(
                        row,
                        localized_logits_row(model.as_ref(), v, &explicit),
                        "{name}: seed {seed}, without {removed:?}: variant row differs"
                    );
                    let predicted = model.predict_with(v, &explicit, &mut explicit_scratch);
                    assert_eq!(predicted, Some(vector::argmax(&row)), "{name}: predict");
                    for label in 0..model.num_classes() {
                        assert!(
                            model.margin_with(v, label, &explicit, &mut explicit_scratch)
                                == margin_of_row(&row, label),
                            "{name}: seed {seed}, without {removed:?}: margin({label})"
                        );
                        assert_eq!(
                            model.removal_keeps_label(label, removed, &mut scratch),
                            predicted == Some(label),
                            "{name}: seed {seed}, without {removed:?}: keeps label {label}"
                        );
                    }
                }
                // single removals: the exact margins match explicit views
                let margins = removal_margins(model.as_ref(), 1, &pool, &mut scratch);
                for (i, &(a, b)) in pool.iter().enumerate() {
                    let mut explicit = base.clone();
                    explicit.remove_edge(a, b);
                    assert!(
                        margins[i] == model.margin_with(v, 1, &explicit, &mut explicit_scratch),
                        "{name}: seed {seed}, without ({a},{b}): removal margin"
                    );
                }
            }
        }
    }
}

#[test]
fn flip_variants_of_one_superset_ball_equal_explicit_views() {
    // A flip base is one ball per (node, base view), grown over every pair
    // a disturbance may insert; each disturbance is a variant of it. GCN
    // answers variants with its delta forward, the other families with
    // their full forward through the trait default. Every variant row must
    // equal the row of a ball built on the explicitly flipped view, bit for
    // bit, over interleaved sequences that exercise the restore of the last
    // variant's rows: single and multi-edge removals, insertions at the
    // center and at the ball boundary, flips outside the ball, and every
    // mixed set of at most two pool flips.
    let mut build = BallScratch::default();
    let mut fwd = ForwardScratch::default();
    let mut explicit_scratch = KernelScratch::default();
    for seed in 0u64..4 {
        let g = sbm_graph(seed);
        let n = g.num_nodes();
        let edges = g.edge_vec();
        let witness: EdgeSet = edges.iter().copied().step_by(6).take(6).collect();
        let bases = [GraphView::full(&g), GraphView::without(&g, &witness)];
        let v = edges[1].1;
        for (name, model) in models(seed) {
            let hops = model.receptive_hops();
            for base in &bases {
                let visible = |a: NodeId, b: NodeId| base.has_edge(a, b);
                // distance classes of the base view's own ball around v
                let inner = Locality::build(base, v, hops.saturating_sub(1));
                let ball = Locality::build(base, v, hops);
                let boundary: Vec<NodeId> = ball
                    .nodes()
                    .iter()
                    .copied()
                    .filter(|&u| !inner.contains(u))
                    .collect();
                let outside: Vec<NodeId> = (0..n).filter(|&u| !ball.contains(u)).collect();
                let absent = |a: NodeId, b: NodeId| a != b && !g.has_edge(a, b);
                let mut inserts: Vec<(NodeId, NodeId)> = Vec::new();
                // at the center: v to the farthest nodes first
                inserts.extend(
                    outside
                        .iter()
                        .chain(&boundary)
                        .copied()
                        .filter(|&u| absent(v, u))
                        .take(3)
                        .map(|u| (v, u)),
                );
                // at the boundary: boundary to outside, boundary to boundary
                for (i, &b) in boundary.iter().enumerate().take(4) {
                    if let Some(&o) = outside.iter().find(|&&o| absent(b, o)) {
                        inserts.push((b, o));
                    }
                    if let Some(&c) = boundary[i + 1..].iter().find(|&&c| absent(b, c)) {
                        inserts.push((b, c));
                    }
                }
                // outside the ball
                if let [a, b, ..] = outside[..] {
                    if absent(a, b) {
                        inserts.push((a, b));
                    }
                }
                inserts.sort_unstable();
                inserts
                    .dedup_by(|x, y| (x.0.min(x.1), x.0.max(x.1)) == (y.0.min(y.1), y.0.max(y.1)));
                // removals: at the center, near it, at the boundary, outside
                let mut removals: Vec<(NodeId, NodeId)> = edges
                    .iter()
                    .copied()
                    .filter(|&(a, b)| visible(a, b) && !witness.contains(a, b))
                    .filter(|&(a, b)| a == v || b == v)
                    .take(3)
                    .collect();
                removals.extend(
                    edges
                        .iter()
                        .copied()
                        .filter(|&(a, b)| visible(a, b) && !witness.contains(a, b))
                        .filter(|&(a, b)| a != v && b != v)
                        .step_by(4)
                        .take(6),
                );
                let mut base_flips = VariantBase::default();
                base_flips.rebuild(model.as_ref(), v, base, &inserts, &mut build);
                // flip sets: singles, growing removal sets, growing insertion
                // sets, and every mixed pair, interleaved
                let pool: Vec<((NodeId, NodeId), bool)> = removals
                    .iter()
                    .map(|&e| (e, false))
                    .chain(inserts.iter().map(|&e| (e, true)))
                    .collect();
                let mut sets: Vec<Vec<((NodeId, NodeId), bool)>> = vec![vec![]];
                sets.extend(pool.iter().map(|&f| vec![f]));
                sets.extend((2..=removals.len()).map(|k| pool[..k].to_vec()));
                sets.extend((2..=inserts.len()).map(|k| pool[removals.len()..][..k].to_vec()));
                for i in 0..pool.len() {
                    for j in i + 1..pool.len() {
                        sets.push(vec![pool[i], pool[j]]);
                        sets.push(vec![pool[j]]);
                    }
                }
                for set in &sets {
                    let removed: Vec<(NodeId, NodeId)> =
                        set.iter().filter(|f| !f.1).map(|f| f.0).collect();
                    let inserted: Vec<(NodeId, NodeId)> =
                        set.iter().filter(|f| f.1).map(|f| f.0).collect();
                    let mut explicit = base.clone();
                    explicit.remove_edges(&removed.iter().copied().collect());
                    explicit.add_edges(&inserted.iter().copied().collect());
                    let row = model
                        .variant_logits_into(&mut base_flips, &removed, &inserted, &mut fwd)
                        .to_vec();
                    assert_eq!(
                        row,
                        localized_logits_row(model.as_ref(), v, &explicit),
                        "{name}: seed {seed}, -{removed:?} +{inserted:?}: variant row differs"
                    );
                    assert_eq!(
                        model.predict_with(v, &explicit, &mut explicit_scratch),
                        Some(vector::argmax(&row)),
                        "{name}: seed {seed}, -{removed:?} +{inserted:?}: predict"
                    );
                }
                // a flipped view of the plain view equals the same variant
                let d: EdgeSet = pool.iter().take(2).map(|f| f.0).collect();
                if base.is_unmasked() {
                    let flipped = GraphView::full(&g).flipped(&d);
                    let (removed, inserted): (Vec<_>, Vec<_>) =
                        d.iter().partition(|&(a, b)| g.has_edge(a, b));
                    let row = model
                        .variant_logits_into(&mut base_flips, &removed, &inserted, &mut fwd)
                        .to_vec();
                    assert_eq!(
                        row,
                        localized_logits_row(model.as_ref(), v, &flipped),
                        "{name}"
                    );
                }
            }
        }
    }
}

#[test]
fn union_ball_predict_many_equals_per_node_predict() {
    // predict_many_with runs one forward pass over the union receptive-field
    // ball of the whole batch; it must be bit-exact against per-node
    // predict_with for every model family, under all three view kinds,
    // including duplicate centers and batches whose balls overlap.
    let mut batch_scratch = KernelScratch::default();
    let mut single_scratch = KernelScratch::default();
    for seed in 0u64..4 {
        let g = sbm_graph(seed);
        let n = g.num_nodes();
        let edges = g.edge_vec();
        let witness: EdgeSet = edges.iter().copied().step_by(5).take(8).collect();
        let views = [
            GraphView::full(&g),
            GraphView::without(&g, &witness),
            GraphView::restricted_to(&g, &witness),
        ];
        let batches: Vec<Vec<NodeId>> = vec![
            vec![0],
            vec![0, n / 2],
            vec![n - 1, 0, n / 3, n / 2],
            vec![1, 1, 2], // duplicates collapse in the union ball
        ];
        for view in &views {
            for (name, model) in models(seed) {
                for centers in &batches {
                    let batched = model
                        .predict_many_with(centers, view, &mut batch_scratch)
                        .expect("valid centers");
                    for (i, &v) in centers.iter().enumerate() {
                        let single = model.predict_with(v, view, &mut single_scratch);
                        assert_eq!(
                            Some(batched[i]),
                            single,
                            "{name}: seed {seed}, batch {centers:?}, node {v}: \
                             union-ball predict differs from per-node predict"
                        );
                    }
                }
                // invalid center and empty batch edge cases
                assert_eq!(
                    model.predict_many_with(&[n + 5], view, &mut batch_scratch),
                    None
                );
                assert_eq!(
                    model.predict_many_with(&[], view, &mut batch_scratch),
                    Some(Vec::new())
                );
            }
        }
    }
}

#[test]
fn one_scratch_reused_across_models_views_and_nodes_stays_exact() {
    // The zero-allocation entry points thread one KernelScratch through every
    // call; reusing the same scratch across different models, views, nodes
    // and ball sizes must leave no residue — each call's output is bit-exact
    // against the fresh-allocation path.
    let mut scratch = KernelScratch::default();
    for seed in 0u64..3 {
        let g = sbm_graph(seed);
        let n = g.num_nodes();
        let edges = g.edge_vec();
        let witness: EdgeSet = edges.iter().copied().step_by(4).take(7).collect();
        let views = [
            GraphView::full(&g),
            GraphView::without(&g, &witness),
            GraphView::restricted_to(&g, &witness),
        ];
        for (name, model) in models(seed) {
            for view in &views {
                for &v in &[0, n / 2, n - 1] {
                    assert_eq!(
                        model.predict_with(v, view, &mut scratch),
                        model.predict(v, view),
                        "{name}: predict_with over a reused scratch diverged for node {v}"
                    );
                    for label in 0..model.num_classes() {
                        let reused = model.margin_with(v, label, view, &mut scratch);
                        let fresh = model.margin(v, label, view);
                        assert!(
                            reused == fresh,
                            "{name}: margin_with({v}, {label}) reused-scratch {reused} \
                             != fresh {fresh}"
                        );
                    }
                }
                let removals: Vec<(NodeId, NodeId)> = edges
                    .iter()
                    .copied()
                    .filter(|&(a, b)| view.has_edge(a, b))
                    .step_by(5)
                    .take(6)
                    .collect();
                if removals.is_empty() {
                    continue;
                }
                let v = removals[0].0;
                assert_eq!(
                    model.margin_many_removed_with(v, 1, view, &removals, &mut scratch),
                    model.margin_many_removed(v, 1, view, &removals),
                    "{name}: batched margins over a reused scratch diverged"
                );
            }
        }
    }
}

#[test]
fn boundary_cases_stay_exact() {
    let mut g = sbm_graph(1);
    let iso = g.add_labeled_node(vec![0.3, 0.1, 0.0, 0.5], 0);
    let n = g.num_nodes();
    let full_view = GraphView::full(&g);
    let edgeless = GraphView::restricted_to(&g, &EdgeSet::new());
    for (name, model) in models(9) {
        // isolated node under the full view
        assert_node_equivalence(name, model.as_ref(), iso, &full_view);
        // edgeless view: every node classifies from its own features
        for v in [0, n / 2, iso] {
            assert_node_equivalence(name, model.as_ref(), v, &edgeless);
        }
    }
}

#[test]
fn whole_graph_receptive_field_is_exact() {
    // A small path graph: any model with depth >= diameter sees the whole
    // graph from every node, so the induced "ball" is the graph itself.
    let mut g = Graph::with_nodes(6);
    for uv in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)] {
        g.add_edge(uv.0, uv.1);
    }
    for v in 0..6 {
        g.set_features(v, vec![v as f64 / 6.0, 1.0 - v as f64 / 6.0, 0.0, 1.0]);
        g.set_label(v, v % 3);
    }
    let view = GraphView::full(&g);
    // APPNP with 7 propagation rounds and GCN with depth 2 both have
    // receptive fields at or beyond the diameter from the middle nodes.
    for (name, model) in models(4) {
        for v in 0..6 {
            assert_node_equivalence(name, model.as_ref(), v, &view);
        }
    }
}

/// Checks every localized APPNP entry point against the rows of the full
/// `logits(view)` pass, bit for bit, under restricted, removed and flipped
/// views of `g`. One scratch serves every call.
fn assert_appnp_matches_full_pass(case: &str, model: &Appnp, g: &Graph) {
    let n = g.num_nodes();
    let edges = g.edge_vec();
    let witness: EdgeSet = edges.iter().copied().step_by(5).take(8).collect();
    let flips: EdgeSet = edges
        .iter()
        .copied()
        .skip(2)
        .step_by(7)
        .take(3)
        .chain([(0, n - 1)])
        .collect();
    let views = [
        ("restricted", GraphView::restricted_to(g, &witness)),
        ("removed", GraphView::without(g, &witness)),
        ("flipped", GraphView::full(g).flipped(&flips)),
    ];
    let probes = [0, n / 3, n / 2, n - 1];
    let mut scratch = KernelScratch::default();
    for (kind, view) in &views {
        let full = model.logits(view);
        for &v in &probes {
            let row = full.row(v);
            assert_eq!(
                model.predict_with(v, view, &mut scratch),
                Some(vector::argmax(row)),
                "{case}/{kind}: predict_with({v}) differs from the full pass"
            );
            for label in 0..model.num_classes() {
                let local = model.margin_with(v, label, view, &mut scratch);
                assert!(
                    local == margin_of_row(row, label),
                    "{case}/{kind}: margin_with({v}, {label}) differs from the full pass"
                );
            }
        }
        let batched = model
            .predict_many_with(&probes, view, &mut scratch)
            .expect("valid centers");
        for (i, &v) in probes.iter().enumerate() {
            assert_eq!(
                batched[i],
                vector::argmax(full.row(v)),
                "{case}/{kind}: predict_many_with differs from the full pass at node {v}"
            );
        }
        let v = probes[0];
        let removals: Vec<(NodeId, NodeId)> = edges
            .iter()
            .copied()
            .filter(|&(a, b)| view.has_edge(a, b))
            .step_by(3)
            .take(8)
            .collect();
        for label in 0..model.num_classes() {
            let margins = model.margin_many_removed_with(v, label, view, &removals, &mut scratch);
            for (i, &(a, b)) in removals.iter().enumerate() {
                let mut variant = view.clone();
                variant.remove_edge(a, b);
                let reference = margin_of_row(model.logits(&variant).row(v), label);
                assert!(
                    margins[i] == reference,
                    "{case}/{kind}: margin_many_removed_with({v}, {label}) without ({a},{b}) \
                     is {} but the full pass gives {reference}",
                    margins[i]
                );
            }
        }
    }
}

/// Row `v` of the full-graph logits, for checking that a test's mutation
/// really moves the answer (so a stale cached `H` could not pass).
fn full_row(model: &Appnp, g: &Graph, v: NodeId) -> Vec<f64> {
    model.logits(&GraphView::full(g)).row(v).to_vec()
}

#[test]
fn appnp_h_cache_follows_feature_changes() {
    for seed in 0u64..3 {
        let mut g = sbm_graph(seed);
        let model = Appnp::new(&[4, 6, 3], 0.2, 7, seed);
        assert_appnp_matches_full_pass("before set_features", &model, &g);
        // node 0 is a probe center, so it sits in every probed ball
        let before = full_row(&model, &g, 0);
        g.set_features(0, vec![3.0, -2.0, 5.0, 1.5]);
        assert_ne!(full_row(&model, &g, 0), before, "the edit must move node 0");
        assert_appnp_matches_full_pass("after set_features", &model, &g);
    }
}

#[test]
fn appnp_h_cache_is_reset_by_retraining_a_clone() {
    for seed in 0u64..3 {
        let g = sbm_graph(seed);
        let view = GraphView::full(&g);
        let model = Appnp::new(&[4, 6, 3], 0.2, 7, seed);
        // warm the cache, then clone the warmed model and retrain the clone
        assert_appnp_matches_full_pass("original", &model, &g);
        let mut retrained = model.clone();
        let train: Vec<NodeId> = (0..g.num_nodes()).step_by(2).collect();
        retrained.train(
            &view,
            &train,
            &TrainConfig {
                epochs: 10,
                learning_rate: 0.05,
                ..TrainConfig::default()
            },
        );
        assert_ne!(
            full_row(&retrained, &g, 0),
            full_row(&model, &g, 0),
            "training must move the clone"
        );
        assert_appnp_matches_full_pass("retrained clone", &retrained, &g);
        assert_appnp_matches_full_pass("original after the clone trained", &model, &g);
    }
}

#[test]
fn appnp_h_cache_alternates_between_graphs() {
    let model = Appnp::new(&[4, 6, 3], 0.2, 7, 5);
    // same structure, different features: only the feature epoch tells the
    // two graphs' H apart
    let a = sbm_graph(2);
    let mut b = a.clone();
    for v in 0..b.num_nodes() {
        let f: Vec<f64> = b.features(v).iter().map(|x| 1.0 - 2.0 * x).collect();
        b.set_features(v, f);
    }
    assert_ne!(full_row(&model, &a, 0), full_row(&model, &b, 0));
    for round in 0..2 {
        assert_appnp_matches_full_pass(&format!("graph a, round {round}"), &model, &a);
        assert_appnp_matches_full_pass(&format!("graph b, round {round}"), &model, &b);
    }
}
