//! Per-query witness-generation sessions.
//!
//! This module is the query tier of the engine/session split: everything here
//! is *per-call* work — labels, localities, candidate pools, expand–verify
//! scratch — parameterized by the shared immutable tier
//! ([`crate::engine::EngineCaches`]: host CSR, partition, k-hop
//! neighborhoods, PPR rows). The public drivers
//! ([`crate::RoboGExp`], [`crate::ParaRoboGExp`]) and the long-lived
//! [`crate::WitnessEngine`] all run the same session code; they differ only
//! in how long the shared tier lives.
//!
//! Sessions optionally start from a **seed subgraph** (a previous witness):
//! the expand–verify loop then repairs the seed instead of growing from the
//! trivial witness, which is how the engine repairs witnesses after a
//! disturbance — test nodes whose seeded witness still verifies exit the
//! per-node expansion after a couple of localized inference calls.

use crate::config::RcwConfig;
use crate::engine::EngineCaches;
use crate::generate::{GenerationResult, GenerationStats};
use crate::model::VerifiableModel;
use crate::parallel::{ParallelGenerationResult, ParallelStats};
use crate::verify::candidate_pairs_bounded;
use crate::witness::{VerifyOutcome, Witness, WitnessLevel};
use rcw_gnn::{GnnModel, KernelScratch};
use rcw_graph::{
    norm_edge, traversal::k_hop_neighborhood, Edge, EdgeSubgraph, Graph, GraphView, NodeId,
    VerifiedPairBitmap,
};
use std::time::{Duration, Instant};

/// A cooperative cancellation hook for expand–verify sessions.
///
/// Sessions are long-running loops over model inference; a serving layer in
/// front of the engine needs to bound how long a single query may run (a
/// request deadline) without preemption. The budget is checked *between*
/// session phases — before each per-node expansion and at the top of every
/// expand–verify round — so cancellation is cooperative and the engine's
/// shared caches are never left mid-update.
///
/// An unlimited budget (the default) never expires, which is what the
/// one-shot drivers and the engine's un-deadlined entry points use.
///
/// ```
/// use rcw_core::SessionBudget;
/// use std::time::Duration;
///
/// assert!(SessionBudget::unlimited().check().is_ok());
/// let expired = SessionBudget::expiring_in(Duration::ZERO);
/// assert!(expired.check().is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct SessionBudget {
    deadline: Option<Instant>,
}

impl SessionBudget {
    /// A budget that never expires.
    pub fn unlimited() -> Self {
        SessionBudget { deadline: None }
    }

    /// A budget that expires at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        SessionBudget {
            deadline: Some(deadline),
        }
    }

    /// A budget that expires `window` from now.
    pub fn expiring_in(window: Duration) -> Self {
        SessionBudget {
            deadline: Instant::now().checked_add(window),
        }
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The cooperative checkpoint: `Err(BudgetExceeded)` once the deadline
    /// has passed, `Ok(())` otherwise (always `Ok` for unlimited budgets).
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        if self.expired() {
            Err(BudgetExceeded)
        } else {
            Ok(())
        }
    }
}

/// A session hit its [`SessionBudget`] deadline and stopped cooperatively.
/// No partial witness is returned: the caller decides whether to retry with
/// a larger budget or report the overload upstream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExceeded;

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "session budget exceeded before the witness search finished"
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Builds the session's starting subgraph: the trivial witness over the test
/// nodes, extended with a seed witness pruned to pairs that still exist in
/// the (possibly disturbed) host graph.
pub(crate) fn seeded_subgraph(
    graph: &Graph,
    test_nodes: &[NodeId],
    seed: Option<&EdgeSubgraph>,
) -> EdgeSubgraph {
    let mut sg = EdgeSubgraph::from_nodes(test_nodes.iter().copied());
    if let Some(seed) = seed {
        for (u, v) in seed.edges().iter() {
            if graph.has_edge(u, v) {
                sg.add_edge(u, v);
            }
        }
    }
    sg
}

/// One sequential expand–verify session (Algorithm 2 over the shared tier).
/// The budget is checked before each per-node expansion and at the top of
/// every robustness round; an expired budget aborts with [`BudgetExceeded`].
pub(crate) fn run_sequential<M: VerifiableModel + ?Sized>(
    model: &M,
    graph: &Graph,
    caches: &EngineCaches,
    cfg: &RcwConfig,
    test_nodes: &[NodeId],
    seed: Option<&EdgeSubgraph>,
    budget: &SessionBudget,
) -> Result<GenerationResult, BudgetExceeded> {
    assert!(!test_nodes.is_empty(), "witness session: empty test set");
    assert!(
        test_nodes.iter().all(|&v| graph.contains_node(v)),
        "witness session: invalid test node"
    );
    cfg.validate().expect("invalid RcwConfig");
    budget.check()?;
    let start = Instant::now();
    let gnn = model.as_gnn();
    let mut stats = GenerationStats::default();
    // One set of kernel scratch buffers for the whole session: every localized
    // inference below reuses it, so the expand-verify loop stops allocating
    // once the buffers have seen the largest receptive field.
    let mut scratch = KernelScratch::default();

    // M(v, G) for every test node: one forward pass over the union
    // receptive-field ball of the whole test set (bit-exact against
    // per-node prediction; the per-node accounting is preserved).
    let full = GraphView::full(graph);
    stats.inference_calls += test_nodes.len();
    let labels: Vec<usize> = gnn
        .predict_many_with(test_nodes, &full, &mut scratch)
        .expect("valid node");

    let mut subgraph = seeded_subgraph(graph, test_nodes, seed);

    // Phase 1: per-node expansion for factuality and counterfactuality.
    for (i, &v) in test_nodes.iter().enumerate() {
        budget.check()?;
        ensure_factual(
            graph,
            gnn,
            cfg,
            v,
            labels[i],
            &mut subgraph,
            &mut stats,
            &mut scratch,
        );
        ensure_counterfactual(
            graph,
            gnn,
            cfg,
            v,
            labels[i],
            &mut subgraph,
            &mut stats,
            &mut scratch,
        );
    }

    // Phase 2: robustness expand–verify loop.
    let mut witness = Witness::new(subgraph, test_nodes.to_vec(), labels.clone());
    let mut level = WitnessLevel::NotAWitness;
    for round in 0..cfg.max_expand_rounds {
        budget.check()?;
        stats.expand_rounds = round + 1;
        let outcome = model.verify_rcw(graph, &witness, cfg, caches);
        stats.inference_calls += outcome.inference_calls;
        stats.disturbances_verified += outcome.disturbances_checked;
        level = outcome.level;
        match outcome.level {
            WitnessLevel::Robust => break,
            WitnessLevel::Counterfactual => {
                // Absorb the counterexample's existing edges; pairs inside
                // the witness cannot be disturbed any more.
                let Some(ce) = outcome.counterexample else {
                    break;
                };
                let mut grew = false;
                for (u, v) in ce.iter() {
                    if graph.has_edge(u, v) && !witness.subgraph.contains_edge(u, v) {
                        witness.subgraph.add_edge(u, v);
                        grew = true;
                    }
                }
                if !grew {
                    // counterexample consists purely of insertions we
                    // cannot protect against by growing the witness
                    break;
                }
            }
            WitnessLevel::Factual | WitnessLevel::NotAWitness => {
                // Re-run the per-node expansion: some node lost factuality
                // or counterfactuality (e.g. after the witness grew).
                let mut sg = witness.subgraph.clone();
                for (i, &v) in test_nodes.iter().enumerate() {
                    ensure_factual(
                        graph,
                        gnn,
                        cfg,
                        v,
                        labels[i],
                        &mut sg,
                        &mut stats,
                        &mut scratch,
                    );
                    ensure_counterfactual(
                        graph,
                        gnn,
                        cfg,
                        v,
                        labels[i],
                        &mut sg,
                        &mut stats,
                        &mut scratch,
                    );
                }
                if sg == witness.subgraph {
                    // no further progress possible
                    break;
                }
                witness.subgraph = sg;
            }
        }
        if witness.subgraph.num_edges() >= graph.num_edges() {
            // degenerated to the trivial k-RCW `G`
            witness = Witness::trivial_full(graph, test_nodes.to_vec(), labels.clone());
            level = WitnessLevel::Robust;
            break;
        }
    }

    stats.elapsed = start.elapsed();
    let nontrivial = witness.is_nontrivial(graph);
    Ok(GenerationResult {
        witness,
        level,
        nontrivial,
        stale: false,
        stats,
    })
}

/// Expands the witness around `v` until `M(v, Gs) = l`, adding the ego
/// network hop by hop (the L-hop receptive field reproduces the full-graph
/// prediction for message-passing GNNs).
#[allow(clippy::too_many_arguments)]
fn ensure_factual(
    graph: &Graph,
    model: &dyn GnnModel,
    cfg: &RcwConfig,
    v: NodeId,
    label: usize,
    subgraph: &mut EdgeSubgraph,
    stats: &mut GenerationStats,
    scratch: &mut KernelScratch,
) {
    let max_hops = cfg
        .candidate_hops
        .max(model.num_layers())
        .min(graph.num_nodes());
    for hop in 1..=max_hops {
        let view = GraphView::restricted_to(graph, subgraph.edges());
        stats.inference_calls += 1;
        if model.predict_with(v, &view, scratch) == Some(label) {
            return;
        }
        // add all edges with at least one endpoint within `hop - 1` hops of v
        let inner = k_hop_neighborhood(graph, v, hop - 1);
        for &u in &inner {
            for w in graph.neighbors(u) {
                subgraph.add_edge(u, w);
            }
        }
    }
    // final check is implicit; if still not factual the verification
    // rounds will report it
}

/// Expands the witness around `v` until removing it flips the label,
/// absorbing the strongest remaining support edges near `v`.
///
/// Every remainder check below evaluates `G \ Gs` for a witness `Gs` that
/// only grows from the one this call starts with, so each is a removal-only
/// variant of the starting remainder. One receptive-field ball on that
/// remainder ([`GnnModel::set_removal_base`]) answers them all: the quick
/// exit removes nothing more, candidate scoring one candidate edge each,
/// greedy absorption and backward pruning the edges absorbed so far.
#[allow(clippy::too_many_arguments)]
fn ensure_counterfactual(
    graph: &Graph,
    model: &dyn GnnModel,
    cfg: &RcwConfig,
    v: NodeId,
    label: usize,
    subgraph: &mut EdgeSubgraph,
    stats: &mut GenerationStats,
    scratch: &mut KernelScratch,
) {
    model.set_removal_base(v, &GraphView::without(graph, subgraph.edges()), scratch);

    // quick exit: already counterfactual for v
    stats.inference_calls += 1;
    if !model.removal_keeps_label(label, &[], scratch) {
        return;
    }

    // Candidate support edges near v, nearest first: edges incident to v,
    // then edges among its neighborhood, capped so the witness stays concise.
    let hood = k_hop_neighborhood(graph, v, cfg.candidate_hops.min(2));
    let cap = (graph.degree(v) * 3 + 12).min(48);
    let mut candidates: Vec<(NodeId, NodeId)> = Vec::new();
    for u in graph.neighbors(v) {
        candidates.push((v, u));
    }
    'outer: for &u in &hood {
        if u == v {
            continue;
        }
        for w in graph.neighbors(u) {
            if w != v && hood.contains(&w) {
                candidates.push((u, w));
                if candidates.len() >= cap {
                    break 'outer;
                }
            }
        }
    }

    // Score every candidate by how much removing it (together with the
    // current witness) hurts the label's margin — the pairs "most likely
    // to change the label if flipped" that Procedure Expand targets. The
    // pool lists edges among the neighborhood in both orientations, so each
    // distinct edge is ranked once and its key shared; the accounting still
    // charges one check per listed pair.
    let pairs: Vec<(NodeId, NodeId)> = candidates
        .iter()
        .copied()
        .filter(|&(a, b)| !subgraph.contains_edge(a, b) && graph.has_edge(a, b))
        .collect();
    stats.inference_calls += pairs.len();
    let mut distinct: Vec<Edge> = Vec::with_capacity(pairs.len());
    let slots: Vec<usize> = pairs
        .iter()
        .map(|&(a, b)| {
            let e = norm_edge(a, b);
            distinct.iter().position(|&d| d == e).unwrap_or_else(|| {
                distinct.push(e);
                distinct.len() - 1
            })
        })
        .collect();
    let keys = model.removal_ranking_keys(label, &distinct, scratch);
    let mut scored: Vec<(f64, (NodeId, NodeId))> =
        slots.iter().map(|&i| keys[i]).zip(pairs).collect();
    scored.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal));

    // Greedily absorb the most label-critical support edges until the
    // remainder flips, with a hard bound so that an unattainable
    // counterfactual does not blow the witness up. The absorption order is
    // fixed up front (ranked pairs not yet in the witness, each edge once);
    // the model then finds the first prefix whose removal flips the label,
    // and one check is charged per prefix tested, up to that one.
    let max_add = graph.degree(v).max(3) + 6;
    let mut added_edges: Vec<(NodeId, NodeId)> = Vec::new();
    for (_, (a, b)) in scored {
        if added_edges.len() >= max_add {
            break;
        }
        let e = norm_edge(a, b);
        if subgraph.contains_edge(a, b) || added_edges.iter().any(|&(x, y)| norm_edge(x, y) == e) {
            continue;
        }
        added_edges.push((a, b));
    }
    let flip = model.first_flipping_prefix(label, &added_edges, scratch);
    added_edges.truncate(flip.map_or(added_edges.len(), |i| i + 1));
    stats.inference_calls += added_edges.len();
    for &(a, b) in &added_edges {
        subgraph.add_edge(a, b);
    }
    if flip.is_some() {
        // Backward pruning pass: revisit the absorbed edges newest first,
        // skipping the one that completed the flip, and drop each edge whose
        // removal from the witness keeps the remainder flipped and `v`
        // factual on the witness.
        let mut kept = added_edges.clone();
        for &(a, b) in added_edges.iter().rev().skip(1) {
            subgraph.remove_edge(a, b);
            let trial: Vec<(NodeId, NodeId)> =
                kept.iter().copied().filter(|&e| e != (a, b)).collect();
            stats.inference_calls += 1;
            let still_flipped = !model.removal_keeps_label(label, &trial, scratch);
            let view_only = GraphView::restricted_to(graph, subgraph.edges());
            stats.inference_calls += 1;
            let still_factual = model.predict_with(v, &view_only, scratch) == Some(label);
            if still_flipped && still_factual {
                kept = trial;
            } else {
                subgraph.add_edge(a, b);
            }
        }
    }
}

/// One parallel expand–verify session (Algorithm 3 over the shared tier):
/// partition and candidate neighborhood come from the shared caches, so a
/// long-lived engine pays them once per mutation epoch instead of per call.
/// The budget is threaded into the bootstrap workers' sequential sessions and
/// checked at the top of every parallel robustness round.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_parallel<M: VerifiableModel + ?Sized>(
    model: &M,
    graph: &Graph,
    caches: &EngineCaches,
    cfg: &RcwConfig,
    num_workers: usize,
    test_nodes: &[NodeId],
    seed: Option<&EdgeSubgraph>,
    budget: &SessionBudget,
) -> Result<ParallelGenerationResult, BudgetExceeded> {
    assert!(!test_nodes.is_empty(), "witness session: empty test set");
    cfg.validate().expect("invalid RcwConfig");
    budget.check()?;
    let start = Instant::now();
    let gnn = model.as_gnn();
    let mut stats = GenerationStats::default();
    let mut pstats = ParallelStats {
        workers: num_workers,
        ..ParallelStats::default()
    };

    // Shared structures: the verified pairs, and the §VI adjacency bitmap
    // every worker receives (`n` rows of `⌈n/64⌉` words). Workers read the
    // shared graph directly, so the bitmap is only counted, not built.
    let n = graph.num_nodes();
    let mut verified_pairs = VerifiedPairBitmap::new(n);
    pstats.bytes_synchronized += n * n.div_ceil(64) * 8;

    // Inference-preserving partition: replicate the model's receptive field.
    // Cached across calls keyed by the graph's mutation epoch.
    let hops = gnn.num_layers().max(1);
    let partition = caches.partition(graph, num_workers, hops);
    // Surplus workers beyond the fragment count would all re-search the
    // last fragment's candidates; clamp the search fan-out instead.
    let active_workers = num_workers.min(partition.num_fragments()).max(1);
    // The candidate neighborhood depends only on the host graph, the test
    // nodes and the hop budget — cached across rounds *and* calls.
    let hood = caches.hood(graph, test_nodes, cfg.candidate_hops);

    // Full-graph labels of the test nodes, via one union-ball forward pass.
    let full = GraphView::full(graph);
    let mut scratch = KernelScratch::default();
    stats.inference_calls += test_nodes.len();
    let labels: Vec<usize> = gnn
        .predict_many_with(test_nodes, &full, &mut scratch)
        .expect("valid node");

    // Phase 1 (paraExpand): factual / counterfactual bootstrap of every
    // test node, distributed across the workers — each worker runs a
    // sequential session for its chunk of test nodes, the coordinator unions
    // the partial witnesses (the test nodes' expansions are independent) in
    // chunk order.
    let chunk = test_nodes.len().div_ceil(num_workers);
    let boot_start = Instant::now();
    let partial = std::thread::scope(|scope| {
        let handles: Vec<_> = test_nodes
            .chunks(chunk.max(1))
            .map(|nodes| {
                let cfg = bootstrap_config(cfg);
                scope.spawn(move || {
                    run_sequential(model, graph, caches, &cfg, nodes, seed, budget)
                        .map(|result| (result.witness.subgraph, result.stats.inference_calls))
                })
            })
            .collect();
        join_in_order(handles)
    });
    pstats.parallel_time += boot_start.elapsed();
    let mut merged = EdgeSubgraph::from_nodes(test_nodes.iter().copied());
    for outcome in partial {
        let (sub, calls) = outcome?;
        merged.extend(&sub);
        stats.inference_calls += calls;
    }
    let mut witness = Witness::new(merged, test_nodes.to_vec(), labels.clone());

    // Phase 2: parallel robustness rounds.
    let mut level = WitnessLevel::NotAWitness;
    for round in 0..cfg.max_expand_rounds {
        budget.check()?;
        pstats.rounds = round + 1;
        stats.expand_rounds = round + 1;

        // Global candidate pairs not yet verified, split by fragment
        // owner. One active worker per fragment; each pair is handed to
        // the worker(s) owning an endpoint and counted once in the shared
        // bitmap.
        let all_candidates = candidate_pairs_bounded(
            graph,
            witness.edges(),
            test_nodes,
            &hood,
            cfg,
            Some(caches.ppr()),
        );
        let fresh: Vec<Edge> = all_candidates
            .into_iter()
            .filter(|&(u, v)| !verified_pairs.is_marked(u, v))
            .collect();
        // Each pair is searched by exactly one worker. Intra-fragment pairs
        // go to their owner; cross-fragment pairs go to whichever owning
        // worker currently holds fewer pairs. (Giving cross pairs to both
        // owners would duplicate the search, and hood-concentrated
        // candidates would pile every pair onto one worker.)
        let mut per_worker: Vec<Vec<Edge>> = vec![Vec::new(); active_workers];
        for &(u, v) in &fresh {
            let wu = partition.owner.get(u).copied().unwrap_or(0) % active_workers;
            let wv = partition.owner.get(v).copied().unwrap_or(0) % active_workers;
            let w = if per_worker[wu].len() <= per_worker[wv].len() {
                wu
            } else {
                wv
            };
            per_worker[w].push((u, v));
        }
        // Each worker is additionally responsible only for the test nodes
        // its fragment owns (falling back to round-robin so every test
        // node has exactly one responsible worker).
        let nodes_per_worker: Vec<(Vec<NodeId>, Vec<usize>)> = (0..active_workers)
            .map(|w| {
                let mut nodes = Vec::new();
                let mut node_labels = Vec::new();
                for (i, &v) in test_nodes.iter().enumerate() {
                    let frag = &partition.fragments[w];
                    let owner = partition.owner.get(v).copied().unwrap_or(0);
                    let responsible = if owner < partition.num_fragments() {
                        owner == frag.id
                    } else {
                        i % active_workers == w
                    };
                    if responsible {
                        nodes.push(v);
                        node_labels.push(labels[i]);
                    }
                }
                (nodes, node_labels)
            })
            .collect();

        let par_start = Instant::now();
        let reports = std::thread::scope(|scope| {
            let handles: Vec<_> = per_worker
                .iter()
                .enumerate()
                .map(|(wid, cands)| {
                    let witness_ref = &witness;
                    let (own_nodes, own_labels) = &nodes_per_worker[wid];
                    scope.spawn(move || {
                        model.search_disturbance(
                            graph,
                            witness_ref,
                            own_nodes,
                            own_labels,
                            cands,
                            cfg,
                            wid as u64,
                        )
                    })
                })
                .collect();
            join_in_order(handles)
        });
        pstats.parallel_time += par_start.elapsed();

        // Synchronize: mark every candidate pair handed to a worker as
        // examined, merge the reports in worker order, collect
        // counterexamples.
        for cands in &per_worker {
            for &(u, v) in cands {
                verified_pairs.mark(u, v);
            }
        }
        let mut any_counterexample = false;
        let mut grew = false;
        for report in reports {
            stats.inference_calls += report.inference_calls;
            stats.disturbances_verified += report.disturbances_checked;
            if let Some(ce) = report.counterexample {
                any_counterexample = true;
                pstats.local_counterexamples += 1;
                for (u, v) in ce.iter() {
                    if graph.has_edge(u, v) && !witness.subgraph.contains_edge(u, v) {
                        witness.subgraph.add_edge(u, v);
                        grew = true;
                    }
                }
            }
        }
        pstats.bytes_synchronized += verified_pairs.byte_size();
        pstats.pairs_marked = verified_pairs.count();

        // Coordinator-side verification of the merged witness. The
        // per-node checks are independent (Lemma 6), so they are fanned
        // out across the workers for every model family (paraverifyRCW).
        let outcome = parallel_verify(model, graph, &witness, cfg, num_workers, caches);
        stats.inference_calls += outcome.inference_calls;
        stats.disturbances_verified += outcome.disturbances_checked;
        level = outcome.level;
        if outcome.level == WitnessLevel::Robust {
            break;
        }
        if let Some(ce) = outcome.counterexample {
            for (u, v) in ce.iter() {
                if graph.has_edge(u, v) && !witness.subgraph.contains_edge(u, v) {
                    witness.subgraph.add_edge(u, v);
                    grew = true;
                }
            }
        }
        if !any_counterexample && !grew {
            // fixed point: nothing left to explore or absorb
            break;
        }
        if witness.subgraph.num_edges() >= graph.num_edges() {
            witness = Witness::trivial_full(graph, test_nodes.to_vec(), labels.clone());
            level = WitnessLevel::Robust;
            break;
        }
    }

    stats.elapsed = start.elapsed();
    let nontrivial = witness.is_nontrivial(graph);
    Ok(ParallelGenerationResult {
        result: GenerationResult {
            witness,
            level,
            nontrivial,
            stale: false,
            stats,
        },
        parallel: pstats,
    })
}

/// Coordinator verification fanned out over worker threads: each worker
/// verifies a chunk of test nodes, one [`VerifiableModel::verify_rcw`] call
/// on a one-node witness each. The coordinator merges the outcomes in
/// test-node order, keeping the weakest level and the first counterexample
/// (Lemma 6 makes any locally found counterexample globally valid), so the
/// verdict does not depend on which thread finishes first.
pub(crate) fn parallel_verify<M: VerifiableModel + ?Sized>(
    model: &M,
    graph: &Graph,
    witness: &Witness,
    cfg: &RcwConfig,
    num_workers: usize,
    caches: &EngineCaches,
) -> VerifyOutcome {
    let nodes = &witness.test_nodes;
    if nodes.len() <= 1 || num_workers <= 1 {
        return model.verify_rcw(graph, witness, cfg, caches);
    }
    let chunk = nodes.len().div_ceil(num_workers);
    let per_chunk = std::thread::scope(|scope| {
        let handles: Vec<_> = nodes
            .chunks(chunk)
            .zip(witness.labels.chunks(chunk))
            .map(|(part, labels)| {
                scope.spawn(move || {
                    part.iter()
                        .zip(labels)
                        .map(|(&v, &label)| {
                            model.verify_rcw(graph, &witness.single_node(v, label), cfg, caches)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        join_in_order(handles)
    });
    let mut merged = VerifyOutcome::at_level(WitnessLevel::Robust);
    for out in per_chunk.into_iter().flatten() {
        merged.inference_calls += out.inference_calls;
        merged.disturbances_checked += out.disturbances_checked;
        if out.level.rank() < merged.level.rank() {
            merged.level = out.level;
        }
        if merged.counterexample.is_none() {
            merged.counterexample = out.counterexample;
        }
    }
    merged
}

/// Joins scoped worker threads in spawn order, so every coordinator merge is
/// a function of the inputs rather than of thread timing. A worker panic is
/// re-raised on the coordinator.
fn join_in_order<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    handles
        .into_iter()
        .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
        .collect()
}

/// The bootstrap (phase 1) reuses the sequential session with one
/// robustness round: each chunk expands its nodes, runs one verify round and,
/// on its verdict, absorbs the counterexample (Counterfactual) or re-runs the
/// per-node expansion once (Factual or not a witness). Further rounds are the
/// parallel loop's.
fn bootstrap_config(cfg: &RcwConfig) -> RcwConfig {
    RcwConfig {
        max_expand_rounds: 1,
        ..cfg.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcw_gnn::Gcn;
    use rcw_graph::{EdgeSet, ForwardCtx};
    use rcw_linalg::Matrix;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Mutex;

    /// A model whose verifier finishes node `a` only after every other node
    /// has finished, each node returning its own counterexample.
    struct SlowOnA {
        inner: Gcn,
        a: NodeId,
        others_done: (Sender<()>, Mutex<Receiver<()>>),
    }

    impl GnnModel for SlowOnA {
        fn num_classes(&self) -> usize {
            self.inner.num_classes()
        }
        fn num_layers(&self) -> usize {
            self.inner.num_layers()
        }
        fn feature_dim(&self) -> usize {
            self.inner.feature_dim()
        }
        fn forward(&self, ctx: &ForwardCtx<'_>, x: &Matrix) -> Matrix {
            self.inner.forward(ctx, x)
        }
    }

    impl VerifiableModel for SlowOnA {
        fn as_gnn(&self) -> &dyn GnnModel {
            self
        }
        fn verify_rcw(
            &self,
            _: &Graph,
            witness: &Witness,
            _: &RcwConfig,
            _: &EngineCaches,
        ) -> VerifyOutcome {
            let v = witness.test_nodes[0];
            if v == self.a {
                // Wait for the other node's verdict, then give its thread
                // time to hand the verdict over before this one returns.
                let done = self.others_done.1.lock().expect("receiver lock");
                let _ = done.recv_timeout(Duration::from_secs(5));
                std::thread::sleep(Duration::from_millis(50));
            } else {
                let _ = self.others_done.0.send(());
            }
            let mut out = VerifyOutcome::at_level(WitnessLevel::Counterfactual);
            out.counterexample = Some([(v, v + 10)].into_iter().collect::<EdgeSet>());
            out
        }
    }

    /// The coordinator merges per-node verdicts in test-node order: the
    /// first counterexample is `a`'s even though `b`'s thread finishes
    /// first. (Merging in finishing order would keep `b`'s.)
    #[test]
    fn parallel_verify_merges_in_test_node_order() {
        let graph = Graph::with_nodes(16);
        let (a, b) = (1, 2);
        let (tx, rx) = channel();
        let model = SlowOnA {
            inner: Gcn::new(&[2, 4, 2], 1),
            a,
            others_done: (tx, Mutex::new(rx)),
        };
        let witness = Witness::trivial_nodes(vec![a, b], vec![0, 0]);
        let cfg = RcwConfig::with_budgets(1, 1);
        let caches = EngineCaches::new(&cfg);
        let merged = parallel_verify(&model, &graph, &witness, &cfg, 2, &caches);
        assert_eq!(merged.level, WitnessLevel::Counterfactual);
        let expected: EdgeSet = [(a, a + 10)].into_iter().collect();
        assert_eq!(merged.counterexample, Some(expected));
    }
}
