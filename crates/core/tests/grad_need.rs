//! Gradient-need pruning is bitwise-neutral.
//!
//! The reverse sweep skips every node below which no requested parameter
//! lies, so recording the node features as a constant (`tape.input`, the
//! sweep never differentiates into them) or as a parameter (the sweep
//! does) must give every *other* parameter the same gradient bits. The
//! tests cover the fully-mixed supernet and the discrete model of each of
//! the 11 node aggregators, at 1 and 2 worker threads, plus the α-only
//! sweep the search's architecture step runs.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sane_autodiff::parallel::with_threads;
use sane_autodiff::{Gradients, ParamId, Tape, Tensor, VarStore};
use sane_core::supernet::{Supernet, SupernetConfig};
use sane_core::train::{NodeTask, Task};
use sane_data::CitationConfig;
use sane_gnn::{Architecture, GnnModel, LayerAggKind, ModelHyper, NodeAggKind};

const TAPE_SEED: u64 = 11;

fn task() -> Task {
    Task::node(CitationConfig::cora().scaled(0.05).generate())
}

fn node(task: &Task) -> &NodeTask {
    match task {
        Task::Node(t) => t,
        Task::Multi(_) => unreachable!("cora-syn is a node task"),
    }
}

/// Records `forward` + the training loss with the features as a constant
/// (`features: None`) or as the given parameter, and runs the full sweep.
fn grads_of(
    t: &NodeTask,
    store: &VarStore,
    features: Option<ParamId>,
    forward: &dyn Fn(&mut Tape, &VarStore, Tensor) -> Tensor,
) -> Gradients {
    let mut tape = Tape::new(TAPE_SEED);
    let x = match features {
        Some(id) => tape.param(store, id),
        None => tape.input(Arc::clone(&t.data.features)),
    };
    let logits = forward(&mut tape, store, x);
    let loss = tape.cross_entropy(logits, &t.data.labels, &t.data.train);
    tape.backward(loss)
}

fn bits(g: Option<&sane_autodiff::Matrix>) -> Option<Vec<u32>> {
    g.map(|m| m.data().iter().map(|v| v.to_bits()).collect())
}

/// Adds the features to `store` as a parameter and asserts, at 1 and 2
/// threads, that pruning them changes no other parameter's gradient bits.
fn assert_pruning_neutral(
    what: &str,
    t: &NodeTask,
    store: &mut VarStore,
    forward: &dyn Fn(&mut Tape, &VarStore, Tensor) -> Tensor,
) {
    let fid = store.add("features", (*t.data.features).clone());
    for threads in [1usize, 2] {
        let (pruned, full) = with_threads(threads, || {
            (grads_of(t, store, None, forward), grads_of(t, store, Some(fid), forward))
        });
        assert!(full.get(fid).is_some(), "{what}: the parameter run must reach the features");
        let mut compared = 0;
        for id in store.ids().filter(|&id| id != fid) {
            assert_eq!(
                bits(pruned.get(id)),
                bits(full.get(id)),
                "{what} at {threads} threads: gradient of `{}` changed under pruning",
                store.name(id)
            );
            compared += usize::from(pruned.get(id).is_some());
        }
        assert!(compared > 0, "{what}: no parameter gradients compared");
    }
}

#[test]
fn supernet_mixed_gradients_are_unchanged_by_pruning_the_features() {
    let task = task();
    let t = node(&task);
    let mut store = VarStore::new();
    let mut rng = StdRng::seed_from_u64(5);
    let cfg = SupernetConfig { hidden: 8, ..SupernetConfig::default() };
    let net = Supernet::new(cfg, task.feature_dim(), task.num_outputs(), &mut store, &mut rng);
    let forward = |tape: &mut Tape, store: &VarStore, x: Tensor| {
        net.forward_mixed(tape, store, &t.ctx, x, true)
    };
    assert_pruning_neutral("supernet", t, &mut store, &forward);
}

#[test]
fn every_node_aggregator_model_is_unchanged_by_pruning_the_features() {
    let task = task();
    let t = node(&task);
    let hyper = ModelHyper { hidden: 8, ..ModelHyper::default() };
    for kind in NodeAggKind::ALL {
        let mut store = VarStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let arch = Architecture::uniform(kind, 2, Some(LayerAggKind::Concat));
        let model = GnnModel::new(
            arch,
            task.feature_dim(),
            task.num_outputs(),
            hyper.clone(),
            &mut store,
            &mut rng,
        );
        let forward = |tape: &mut Tape, store: &VarStore, x: Tensor| {
            model.forward(tape, store, &t.ctx, x, true)
        };
        assert_pruning_neutral(&format!("{kind:?}"), t, &mut store, &forward);
    }
}

/// The architecture step's α-only sweep returns exactly the α slots of a
/// full sweep, and nothing else.
#[test]
fn alpha_only_sweep_matches_the_alpha_slots_of_a_full_sweep() {
    let task = task();
    let t = node(&task);
    let mut store = VarStore::new();
    let mut rng = StdRng::seed_from_u64(5);
    let cfg = SupernetConfig { hidden: 8, ..SupernetConfig::default() };
    let net = Supernet::new(cfg, task.feature_dim(), task.num_outputs(), &mut store, &mut rng);
    for threads in [1usize, 2] {
        let (alpha_only, full) = with_threads(threads, || {
            let record = || {
                let mut tape = Tape::new(TAPE_SEED);
                let x = tape.input(Arc::clone(&t.data.features));
                let logits = net.forward_mixed(&mut tape, &store, &t.ctx, x, true);
                let loss = tape.cross_entropy(logits, &t.data.labels, &t.data.val);
                (tape, loss)
            };
            let (tape, loss) = record();
            let alpha_only = tape.backward_for(loss, net.alpha_params());
            let (tape, loss) = record();
            (alpha_only, tape.backward(loss))
        });
        for &id in net.alpha_params() {
            assert!(alpha_only.get(id).is_some(), "α `{}` got no gradient", store.name(id));
            assert_eq!(
                bits(alpha_only.get(id)),
                bits(full.get(id)),
                "α `{}` differs at {threads} threads",
                store.name(id)
            );
        }
        for &id in net.weight_params() {
            assert!(alpha_only.get(id).is_none(), "α-only sweep produced `{}`", store.name(id));
        }
    }
}
