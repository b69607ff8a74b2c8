//! Gradient-need pruning is bitwise-neutral at the tape level.
//!
//! The same message-passing forward is recorded twice: once with the node
//! features as a constant (the sweep prunes everything below them) and
//! once as a parameter (nothing is pruned). Every other parameter must get
//! the same gradient bits, at 1 and 2 worker threads, and
//! `Tape::backward_for` must return exactly the requested slots of a full
//! sweep.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sane_autodiff::parallel::with_threads;
use sane_autodiff::{
    uniform_init, Csr, Gradients, Matrix, ParamId, Segments, Tape, Tensor, VarStore,
};

const N: usize = 10;
const F: usize = 6;
const H: usize = 3;

/// Edges grouped by destination: node `v` receives from `v+1`, `v+3`
/// and `v+4` (mod N).
fn edges() -> (Arc<Vec<u32>>, Arc<Segments>, Arc<Csr>) {
    let mut src = Vec::new();
    let mut triplets = Vec::new();
    for v in 0..N {
        for off in [1, 3, 4] {
            let u = (v + off) % N;
            src.push(u as u32);
            triplets.push((v as u32, u as u32, 1.0 / 3.0));
        }
    }
    let segs = Segments::from_lengths(&[3; N]);
    (Arc::new(src), Arc::new(segs), Arc::new(Csr::from_coo(N, N, &triplets)))
}

struct Fixture {
    store: VarStore,
    features: Arc<Matrix>,
    /// The features registered as a parameter, for the unpruned run.
    features_id: ParamId,
    weights: Vec<ParamId>,
    gate: ParamId,
    attn: ParamId,
}

fn fixture(seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = VarStore::new();
    let weights =
        (0..3).map(|i| store.add(format!("w{i}"), uniform_init(F, H, 0.5, &mut rng))).collect();
    let gate = store.add("gate", Matrix::scalar(0.7));
    let attn = store.add("attn", uniform_init(H, 1, 0.5, &mut rng));
    let features = Arc::new(uniform_init(N, F, 1.0, &mut rng));
    let features_id = store.add("features", (*features).clone());
    Fixture { store, features, features_id, weights, gate, attn }
}

/// One layer in the style of the node aggregators: a projected neighbour
/// mean, a gated self term (GIN), a sparse hop (GCN/MLP), a max over
/// gathered raw features and a fused attention head, mixed and reduced.
fn forward(fx: &Fixture, tape: &mut Tape, x: Tensor) -> Tensor {
    let (src, segs, adj) = edges();
    let w: Vec<Tensor> = fx.weights.iter().map(|&id| tape.param(&fx.store, id)).collect();
    let gate = tape.param(&fx.store, fx.gate);
    let attn = tape.param(&fx.store, fx.attn);

    let d = tape.dropout(x, 0.3);
    let wh = tape.matmul(d, w[0]);
    let msgs = tape.gather_rows(wh, &src);
    let mean = tape.segment_mean(msgs, &segs);

    let gated = tape.mul_scalar_tensor(d, gate);
    let hop = tape.spmm(&adj, d);
    let mixed = tape.add(gated, hop);
    let self_term = tape.matmul(mixed, w[1]);

    let raw = tape.gather_rows(d, &src);
    let raw_max = tape.segment_max(raw, &segs);
    let max_term = tape.matmul(raw_max, w[2]);

    let scores_node = tape.matmul(wh, attn);
    let scores = tape.gather_rows(scores_node, &src);
    let att = tape.gather_attention(scores, wh, &src, &segs);

    let sum = tape.add(mean, self_term);
    let sum = tape.add(sum, max_term);
    let cat = tape.concat_cols(&[sum, att]);
    let act = tape.tanh(cat);
    tape.mean_all(act)
}

fn sweep(fx: &Fixture, as_param: bool, params: Option<&[ParamId]>) -> Gradients {
    let mut tape = Tape::new(21);
    let x = if as_param {
        tape.param(&fx.store, fx.features_id)
    } else {
        tape.input(Arc::clone(&fx.features))
    };
    let loss = forward(fx, &mut tape, x);
    match params {
        Some(ids) => tape.backward_for(loss, ids),
        None => tape.backward(loss),
    }
}

fn bits(g: &Gradients, id: ParamId) -> Option<Vec<u32>> {
    g.get(id).map(|m| m.data().iter().map(|v| v.to_bits()).collect())
}

#[test]
fn pruning_constant_features_leaves_every_other_gradient_bitwise_equal() {
    for seed in 0..4 {
        let fx = fixture(seed);
        for threads in [1usize, 2] {
            let (pruned, full) =
                with_threads(threads, || (sweep(&fx, false, None), sweep(&fx, true, None)));
            assert!(full.get(fx.features_id).is_some());
            assert!(pruned.get(fx.features_id).is_none());
            for id in fx.store.ids().filter(|&id| id != fx.features_id) {
                assert!(pruned.get(id).is_some(), "{} got no gradient", fx.store.name(id));
                assert_eq!(
                    bits(&pruned, id),
                    bits(&full, id),
                    "seed {seed}, {threads} threads: `{}` changed under pruning",
                    fx.store.name(id)
                );
            }
        }
    }
}

#[test]
fn backward_for_matches_the_requested_slots_of_a_full_sweep() {
    let fx = fixture(7);
    let ids: Vec<ParamId> = fx.store.ids().filter(|&id| id != fx.features_id).collect();
    let subsets: Vec<Vec<ParamId>> = vec![
        vec![fx.gate],
        vec![fx.attn, fx.weights[0]],
        fx.weights.clone(),
        vec![fx.weights[2], fx.gate],
        Vec::new(),
    ];
    for threads in [1usize, 2] {
        with_threads(threads, || {
            let full = sweep(&fx, false, None);
            for subset in &subsets {
                let part = sweep(&fx, false, Some(subset));
                for &id in &ids {
                    let expected = if subset.contains(&id) { bits(&full, id) } else { None };
                    assert_eq!(
                        bits(&part, id),
                        expected,
                        "{threads} threads: slot `{}` for {subset:?}",
                        fx.store.name(id)
                    );
                }
            }
        });
    }
}
