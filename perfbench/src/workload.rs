//! The three workloads: what each generates from its seed, and the fixed
//! search and training settings it runs with.
//!
//! `BENCHMARK.json` lists `search-cora` and `train-cora`. `search-ppi` runs
//! the same way when named on the command line, but is left out of the
//! benchmark so that two workloads can run 60 s each within its time
//! limit: on a shared 2-vCPU host, 40 s runs of all three spread past the
//! 25% bound from run to run.
//!
//! The workload seed enters in exactly one place, [`data_spec`]: it picks
//! the generated graph. Search, sampling and training seeds are constants,
//! so two seeds differ only in their inputs.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sane_autodiff::{Matrix, VarStore};
use sane_core::search::{RandomSearchConfig, SaneSearchConfig};
use sane_core::supernet::{Supernet, SupernetConfig};
use sane_core::train::{Task, TrainConfig};
use sane_data::{CitationConfig, MultiGraphDataset, NodeDataset, PpiConfig};
use sane_gnn::{GraphContext, ModelHyper};

/// Seed of every RNG the library draws from after the inputs exist
/// (supernet init, dropout tapes, candidate sampling and init).
pub const RUN_SEED: u64 = 0;

/// Candidates one `train-cora` unit trains.
pub const CANDIDATES_PER_UNIT: usize = 4;

/// Training epochs per candidate.
pub const CANDIDATE_EPOCHS: usize = 4;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `sane_search` on full-size cora-syn.
    SearchCora,
    /// `sane_search` on 12-graph PPI-syn.
    SearchPpi,
    /// `random_search` over `SaneSpace`, each candidate trained on cora-syn.
    TrainCora,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::SearchCora, Workload::SearchPpi, Workload::TrainCora];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchCora => "search-cora",
            Workload::SearchPpi => "search-ppi",
            Workload::TrainCora => "train-cora",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the two `sane_search` workloads.
    pub fn is_search(self) -> bool {
        !matches!(self, Workload::TrainCora)
    }

    /// Search epochs per timed unit: one `sane_search` call. PPI epochs
    /// step through the training graphs, so its unit covers two of them.
    pub fn epochs_per_unit(self) -> usize {
        match self {
            Workload::SearchCora | Workload::TrainCora => 1,
            Workload::SearchPpi => 2,
        }
    }

    /// Search epochs the traced run replays. `train-cora` runs no search;
    /// its traced run replays one epoch to time the mixed layers on its
    /// graph.
    pub fn traced_epochs(self) -> usize {
        match self {
            Workload::SearchCora | Workload::SearchPpi => 2,
            Workload::TrainCora => 1,
        }
    }
}

/// Generator settings for a workload's inputs: the only thing the seed
/// decides.
#[derive(Clone, Debug)]
pub enum DataSpec {
    /// A transductive citation graph.
    Citation(CitationConfig),
    /// An inductive multi-graph PPI-like dataset.
    Ppi(PpiConfig),
}

/// The inputs of workload `w` under `seed`.
pub fn data_spec(w: Workload, seed: u64) -> DataSpec {
    match w {
        Workload::SearchCora | Workload::TrainCora => {
            DataSpec::Citation(CitationConfig::cora().with_seed(seed))
        }
        Workload::SearchPpi => {
            DataSpec::Ppi(PpiConfig { num_graphs: 12, ..PpiConfig::ppi() }.with_seed(seed))
        }
    }
}

/// Generated data, before task construction.
pub enum Data {
    /// Transductive.
    Node(NodeDataset),
    /// Inductive.
    Multi(MultiGraphDataset),
}

impl DataSpec {
    /// Runs the generator.
    pub fn generate(&self) -> Data {
        match self {
            DataSpec::Citation(c) => Data::Node(c.generate()),
            DataSpec::Ppi(c) => Data::Multi(c.generate()),
        }
    }
}

impl Data {
    /// Builds the task (`Task::node` / `Task::multi`), which derives every
    /// graph context.
    pub fn into_task(self) -> Task {
        match self {
            Data::Node(d) => Task::node(d),
            Data::Multi(d) => Task::multi(d),
        }
    }
}

/// Every graph context of a task.
pub fn contexts(task: &Task) -> Vec<&GraphContext> {
    match task {
        Task::Node(t) => vec![&t.ctx],
        Task::Multi(t) => t.ctxs.iter().collect(),
    }
}

/// The graph the isolated layer timings run on, with its features: the
/// citation graph, or the first PPI training graph.
pub fn probe_graph(task: &Task) -> (&GraphContext, Arc<Matrix>) {
    match task {
        Task::Node(t) => (&t.ctx, Arc::clone(&t.data.features)),
        Task::Multi(t) => {
            let gi = t.data.train_graphs[0];
            (&t.ctxs[gi], Arc::clone(&t.data.graphs[gi].features))
        }
    }
}

/// Paper-default search settings (K=3, hidden 32, dropout 0.6, ξ=0, ε=0)
/// for one timed unit of `w`, with per-epoch checkpoints as timestamps.
pub fn search_config(w: Workload) -> SaneSearchConfig {
    SaneSearchConfig {
        supernet: SupernetConfig::default(),
        epochs: w.epochs_per_unit(),
        checkpoint_every: 1,
        seed: RUN_SEED,
        ..SaneSearchConfig::default()
    }
}

/// Candidate training settings: fixed epochs, early stopping off, as in
/// the Table VII Random baseline.
pub fn train_config() -> TrainConfig {
    TrainConfig { epochs: CANDIDATE_EPOCHS, patience: 0, seed: RUN_SEED, ..TrainConfig::default() }
}

/// Candidate model settings (the search-time hidden width of 32).
pub fn candidate_hyper() -> ModelHyper {
    ModelHyper { hidden: 32, heads: 1, dropout: 0.5, ..ModelHyper::default() }
}

/// Candidate sampling for one `train-cora` unit.
pub fn random_config() -> RandomSearchConfig {
    RandomSearchConfig { samples: CANDIDATES_PER_UNIT, seed: RUN_SEED }
}

/// Builds the supernet `sane_search` builds for `task`, with its weights
/// in a throwaway store.
pub fn build_supernet(task: &Task, cfg: &SaneSearchConfig) -> Supernet {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = VarStore::new();
    Supernet::new(
        cfg.supernet.clone(),
        task.feature_dim(),
        task.num_outputs(),
        &mut store,
        &mut rng,
    )
}

/// A scaled-down stand-in for `w`'s inputs, for the unit tests.
#[cfg(test)]
pub fn tiny_spec(w: Workload) -> DataSpec {
    match data_spec(w, 7) {
        DataSpec::Citation(c) => DataSpec::Citation(c.scaled(0.03)),
        DataSpec::Ppi(c) => DataSpec::Ppi(c.scaled(0.03)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_flows_only_into_input_generation() {
        // Run settings take no seed; every RNG after generation is seeded
        // with the fixed RUN_SEED.
        assert_eq!(train_config().seed, RUN_SEED);
        assert_eq!(random_config().seed, RUN_SEED);
        for w in Workload::ALL {
            assert_eq!(search_config(w).seed, RUN_SEED);
            let a = format!("{:?}", data_spec(w, 1));
            let b = format!("{:?}", data_spec(w, 2));
            assert_ne!(a, b, "{}: the seed must change the inputs", w.name());
            // Apart from the seed itself, the two specs are identical.
            let strip = |s: &str, seed: &str| s.replace(&format!("seed: {seed}"), "seed: _");
            assert_eq!(strip(&a, "1"), strip(&b, "2"), "{}", w.name());
        }
    }

    #[test]
    fn the_same_seed_generates_the_same_inputs() {
        let spec = DataSpec::Citation(CitationConfig::cora().scaled(0.05).with_seed(9));
        let (Data::Node(a), Data::Node(b)) = (spec.generate(), spec.generate()) else {
            unreachable!("citation spec generates node data")
        };
        assert_eq!(a.features.data(), b.features.data());
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
