//! The in-process reference: the same dataset, models and engine
//! configuration `rcw_serve` builds, driven directly through `rcw_core`.

use crate::serve::DATASET_SEED;
use rcw_core::{
    DisturbReport, GenerationResult, RcwConfig, VerifiableModel, VerifyOutcome, Witness,
    WitnessEngine,
};
use rcw_datasets::{citeseer, Dataset, Scale};
use rcw_gnn::{Appnp, Gcn, GnnModel};
use rcw_graph::{Disturbance, Graph, NodeId};
use std::sync::Arc;

/// Hidden width `rcw_serve` trains both models with.
const HIDDEN: usize = 16;

/// `rcw_serve`'s engine configuration at its default `--k 2`.
pub fn serve_config() -> RcwConfig {
    RcwConfig {
        k: 2,
        local_budget: 2,
        candidate_hops: 2,
        max_expand_rounds: 3,
        sampled_disturbances: 6,
        pri_rounds: 4,
        ppr_iters: 20,
        ..RcwConfig::default()
    }
}

/// One route's engine behind a model-independent interface.
pub trait Engine: Sync {
    fn generate(&self, nodes: &[NodeId]) -> GenerationResult;
    fn disturb(&self, disturbances: &[Disturbance]) -> DisturbReport;
    fn verify(&self, witness: &Witness) -> VerifyOutcome;
    fn graph(&self) -> Arc<Graph>;
}

impl<M: VerifiableModel + ?Sized> Engine for WitnessEngine<'_, M> {
    fn generate(&self, nodes: &[NodeId]) -> GenerationResult {
        WitnessEngine::generate(self, nodes)
    }
    fn disturb(&self, disturbances: &[Disturbance]) -> DisturbReport {
        WitnessEngine::disturb(self, disturbances)
    }
    fn verify(&self, witness: &Witness) -> VerifyOutcome {
        WitnessEngine::verify(self, witness)
    }
    fn graph(&self) -> Arc<Graph> {
        WitnessEngine::graph(self)
    }
}

/// The trained models and the dataset they were trained on.
pub struct Models {
    pub dataset: Dataset,
    pub gcn: Gcn,
    pub appnp: Appnp,
}

impl Models {
    /// Builds the dataset and trains both models exactly as `rcw_serve` does.
    pub fn train() -> Models {
        let dataset = citeseer::build(Scale::Small, DATASET_SEED);
        let gcn = dataset.train_gcn(HIDDEN, DATASET_SEED);
        let appnp = dataset.train_appnp(HIDDEN, DATASET_SEED);
        Models {
            dataset,
            gcn,
            appnp,
        }
    }

    /// A route's model as a plain GNN.
    pub fn gnn(&self, route: usize) -> &dyn GnnModel {
        match route {
            0 => &self.gcn,
            _ => &self.appnp,
        }
    }

    /// Fresh engines for both routes, configured as `rcw_serve` configures
    /// them: GCN sequential, APPNP with two session workers.
    pub fn engines(&self) -> [Box<dyn Engine + '_>; 2] {
        let graph = || Arc::new(self.dataset.graph.clone());
        [
            Box::new(WitnessEngine::new(graph(), &self.gcn, serve_config())),
            Box::new(WitnessEngine::new(graph(), &self.appnp, serve_config()).with_workers(2)),
        ]
    }
}

/// The fields a served answer must reproduce bit-exactly (run statistics
/// such as elapsed time are excluded).
pub fn same_answer(a: &GenerationResult, b: &GenerationResult) -> bool {
    a.witness == b.witness
        && a.level == b.level
        && a.nontrivial == b.nontrivial
        && a.stale == b.stale
}
