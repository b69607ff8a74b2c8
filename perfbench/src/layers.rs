//! The traced run: per-layer metrics from spans around public library
//! calls, all made from this file.
//!
//! Layers are the workspace crates: `data`, `graph` (plus
//! `sane_gnn::GraphContext`), `gnn`, `core` and `autodiff`. The run
//!
//! 1. times set-up (generation, contexts, transposes, supernet build);
//! 2. replays Algorithm 1 from public calls with `sane_search`'s tape
//!    seeds, and on the search workloads checks that the replay derives the
//!    genotype and α an untraced `sane_search` derives;
//! 3. replays candidate training (the derived genotype on a search
//!    workload, the unit's candidates on `train-cora`) and checks each
//!    `TrainOutcome` against `train_architecture`;
//! 4. times every node aggregator and layer aggregator in isolation, at
//!    one supernet step's shapes on the workload's graph;
//! 5. times the GEMM and SpMM kernels at the workload's shapes, at 1 and 2
//!    threads, next to their computed operation and byte counts.
//!
//! Everything but step 5's 2-thread half runs at 1 worker thread. A
//! per-step number is the median over the run's steps (search epochs, or
//! candidate-training epochs).

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sane_autodiff::metrics::accuracy;
use sane_autodiff::optim::Adam;
use sane_autodiff::parallel::with_threads;
use sane_autodiff::{glorot_init, Matrix, Tape, Tensor, VarStore};
use sane_core::search::{random_search, sane_search, GenomeOracle, SaneSearchConfig};
use sane_core::space::SaneSpace;
use sane_core::supernet::{AlphaSnapshot, Supernet};
use sane_core::train::{eval_inductive, train_architecture, Task, TrainConfig, TrainOutcome};
use sane_gnn::{
    build_aggregator, Architecture, GnnModel, LayerAggKind, LayerAggregator, NodeAggKind,
};

use crate::e2e::{alpha_bits, epoch_times_ms};
use crate::report::{Metrics, Outcome};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::workload::{
    build_supernet, candidate_hyper, contexts, probe_graph, random_config, search_config,
    train_config, DataSpec, Workload, RUN_SEED,
};

/// Repetitions of each set-up stage and of each isolated layer call.
const REPS: usize = 3;

/// Training epochs of the derived candidate on a search workload.
const DERIVED_EPOCHS: usize = 2;

/// Gradient-norm clip used by every training loop in `sane-core`.
const CLIP: f32 = 5.0;

/// Runs the traced benchmark of `w` on `spec`; spans go to `tr`.
pub fn run(w: Workload, spec: &DataSpec, tr: &mut Tracer) -> Outcome {
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let cfg = SaneSearchConfig { epochs: w.traced_epochs(), ..search_config(w) };

    let task = time_setup(spec, &cfg, tr, &mut m);

    with_threads(1, || {
        // Algorithm 1: untraced reference, then the traced replay.
        let reference = w.is_search().then(|| sane_search(&task, &cfg));
        let replay = replay_search(&task, &cfg, tr);
        attempted += cfg.epochs as u64;
        if !replay.finite {
            failed += cfg.epochs as u64;
            notes.push("replayed search has a non-finite α or loss".into());
        }
        if let Some(r) = &reference {
            if r.arch != replay.arch || alpha_bits(&r.alphas) != alpha_bits(&replay.alphas) {
                failed += cfg.epochs as u64;
                notes.push(format!(
                    "replay derived {} but sane_search derived {}",
                    replay.arch.describe(),
                    r.arch.describe()
                ));
            } else {
                notes.push(format!("replay and sane_search both derive {}", r.arch.describe()));
            }
        }

        // Candidate training: traced replay against `train_architecture`.
        let candidates: Vec<Architecture> =
            if w.is_search() { vec![replay.arch.clone()] } else { sampled_candidates() };
        let tcfg = if w.is_search() {
            TrainConfig { epochs: DERIVED_EPOCHS, ..train_config() }
        } else {
            train_config()
        };
        let mut train = TrainTrace::default();
        let mut untraced_ms = Vec::new();
        for arch in &candidates {
            let start = Instant::now();
            let want = train_architecture(&task, arch, &candidate_hyper(), &tcfg);
            untraced_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let got = replay_train(&task, arch, &tcfg, tr, &mut train);
            attempted += 1;
            if !same_outcome(&want, &got) {
                failed += 1;
                notes.push(format!(
                    "training replay of {} gave {got:?}, train_architecture {want:?}",
                    arch.describe()
                ));
            }
            if !(got.val_metric.is_finite() && got.test_metric.is_finite()) {
                failed += 1;
                notes.push(format!("candidate {} has a non-finite metric", arch.describe()));
            }
        }

        // One search epoch records two mixed forwards (α step, w step).
        let fwd_mixed = per_step(tr, &replay.epochs, "core.forward_mixed");
        m.put("core.forward_mixed_ms", fwd_mixed, "ms");
        m.put("core.tape_nodes", replay.tape_nodes as f64, "count");
        let traced_cand: Vec<f64> = train.candidates.iter().map(|&c| tr.get(c).ms()).collect();
        m.put("core.train.model_build_ms", median_of(tr, &train.builds), "ms");
        m.put("core.train.forward_ms", per_step(tr, &train.epochs, "train.forward"), "ms");
        m.put("core.train.eval_forward_ms", median_of(tr, &train.evals), "ms");
        m.put("core.train.tape_nodes", train.tape_nodes as f64, "count");

        // The workload's own step: search epochs, or candidate epochs.
        let (steps, hit_rates) = if w.is_search() {
            (&replay.epochs, &replay.pool_hit_rates)
        } else {
            (&train.epochs, &train.pool_hit_rates)
        };
        m.put("autodiff.backward_ms", per_step(tr, steps, "autodiff.backward"), "ms");
        m.put("autodiff.tape_drop_ms", per_step(tr, steps, "autodiff.tape_drop"), "ms");
        m.put("autodiff.optimizer_ms", per_step(tr, steps, "autodiff.optimizer"), "ms");
        m.put("autodiff.pool_hit_rate", median(hit_rates), "ratio");

        // Isolated layers, and what the mixed step spends outside them.
        let (agg_fwd, agg_bwd) = time_node_aggregators(&task, &cfg, tr, &mut m);
        let (la_fwd, la_bwd) = time_layer_aggregators(&task, &cfg, tr, &mut m);
        let bwd_mixed = per_step(tr, &replay.epochs, "autodiff.backward");
        m.put("core.residual.fwd_ms", fwd_mixed - 2.0 * (agg_fwd + la_fwd), "ms");
        m.put("core.residual.bwd_ms", bwd_mixed - 2.0 * (agg_bwd + la_bwd), "ms");

        let (attributed, overhead) = if let Some(r) = &reference {
            let untraced = epoch_times_ms(&r.checkpoints);
            let traced: Vec<f64> = replay.epochs.iter().map(|&e| tr.get(e).ms()).collect();
            let coverage: Vec<f64> =
                replay.epochs.iter().map(|&e| tr.leaf_ms_within(e) / tr.get(e).ms()).collect();
            (median(&coverage), median(&traced) / median(&untraced) - 1.0)
        } else {
            let coverage: Vec<f64> =
                train.candidates.iter().map(|&c| tr.leaf_ms_within(c) / tr.get(c).ms()).collect();
            (median(&coverage), median(&traced_cand) / median(&untraced_ms) - 1.0)
        };
        m.put("bench.attributed_frac", attributed, "ratio");
        m.put("bench.trace_overhead_frac", overhead, "ratio");
    });

    time_kernels(&task, &cfg, tr, &mut m);
    Outcome { metrics: m, attempted, failed, notes }
}

/// Times each set-up stage [`REPS`] times and keeps the last task.
fn time_setup(spec: &DataSpec, cfg: &SaneSearchConfig, tr: &mut Tracer, m: &mut Metrics) -> Task {
    let mut ms: [Vec<f64>; 4] = Default::default();
    let mut task = None;
    for _ in 0..REPS {
        drop(task.take());
        let (data, a) = tr.span("data.generate", |_| spec.generate());
        let (t, b) = tr.span("graph.context", |_| data.into_task());
        let ((), c) = tr.span("graph.warm_backward", |_| {
            contexts(&t).iter().for_each(|ctx| ctx.warm_backward())
        });
        let (net, d) = tr.span("core.supernet_build", |_| build_supernet(&t, cfg));
        drop(net);
        for (slot, id) in [a, b, c, d].into_iter().enumerate() {
            ms[slot].push(tr.get(id).ms());
        }
        task = Some(t);
    }
    m.put("data.generate_ms", median(&ms[0]), "ms");
    m.put("graph.context_ms", median(&ms[1]), "ms");
    m.put("graph.warm_backward_ms", median(&ms[2]), "ms");
    m.put("core.supernet_build_ms", median(&ms[3]), "ms");
    task.expect("REPS >= 1")
}

/// What the Algorithm 1 replay produced.
struct SearchReplay {
    arch: Architecture,
    alphas: AlphaSnapshot,
    /// One `search.epoch` span per epoch.
    epochs: Vec<SpanId>,
    /// Nodes on the first w-step tape.
    tape_nodes: usize,
    /// Buffer-pool hit rate of each w-step tape.
    pool_hit_rates: Vec<f64>,
    /// Every loss and α stayed finite.
    finite: bool,
}

/// Records the mixed forward and loss of one split, as `sane_search` does.
fn mixed_loss(
    task: &Task,
    net: &Supernet,
    store: &VarStore,
    seed: u64,
    epoch: usize,
    train: bool,
) -> (Tape, Tensor) {
    let tape_seed = seed ^ ((epoch as u64) << 1 | u64::from(train));
    let mut tape = Tape::new(tape_seed);
    let loss = match task {
        Task::Node(t) => {
            let x = tape.input(Arc::clone(&t.data.features));
            let logits = net.forward_mixed(&mut tape, store, &t.ctx, x, true);
            let rows = if train { &t.data.train } else { &t.data.val };
            tape.cross_entropy(logits, &t.data.labels, rows)
        }
        Task::Multi(t) => {
            let graphs = if train { &t.data.train_graphs } else { &t.data.val_graphs };
            let gi = graphs[epoch % graphs.len()];
            let g = &t.data.graphs[gi];
            let x = tape.input(Arc::clone(&g.features));
            let logits = net.forward_mixed(&mut tape, store, &t.ctxs[gi], x, true);
            tape.bce_with_logits(logits, &g.targets, &g.all_nodes())
        }
    };
    (tape, loss)
}

/// Algorithm 1 (ξ = 0, ε = 0) from public calls, with `sane_search`'s
/// initialisation order, optimizers and tape seeds.
fn replay_search(task: &Task, cfg: &SaneSearchConfig, tr: &mut Tracer) -> SearchReplay {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = VarStore::new();
    let net = Supernet::new(
        cfg.supernet.clone(),
        task.feature_dim(),
        task.num_outputs(),
        &mut store,
        &mut rng,
    );
    let mut opt_w = Adam::new(cfg.lr_w, cfg.wd_w);
    let mut opt_alpha = Adam::new(cfg.lr_alpha, cfg.wd_alpha);
    let (mut epochs, mut tape_nodes, mut pool_hit_rates, mut finite) =
        (Vec::new(), 0, Vec::new(), true);
    for epoch in 0..cfg.epochs {
        let ((), id) = tr.span("search.epoch", |tr| {
            tr.time("search.alpha_step", |tr| {
                let (tape, loss) = tr.time("core.forward_mixed", |_| {
                    mixed_loss(task, &net, &store, cfg.seed, epoch, false)
                });
                let grads = tr.time("autodiff.backward", |_| tape.backward(loss));
                tr.time("autodiff.optimizer", |_| {
                    opt_alpha.step_subset(&mut store, &grads, net.alpha_params());
                    grads.recycle();
                });
                tr.time("autodiff.tape_drop", |_| drop(tape));
            });
            tr.time("search.weight_step", |tr| {
                let (tape, loss) = tr.time("core.forward_mixed", |_| {
                    mixed_loss(task, &net, &store, cfg.seed, epoch, true)
                });
                finite &= tape.value(loss).as_scalar().is_finite();
                let mut grads = tr.time("autodiff.backward", |_| tape.backward(loss));
                tr.time("autodiff.optimizer", |_| {
                    grads.clip_global_norm(CLIP);
                    opt_w.step_subset(&mut store, &grads, net.weight_params());
                    grads.recycle();
                });
                if epoch == 0 {
                    tape_nodes = tape.len();
                }
                pool_hit_rates.push(tape.pool_activity().hit_rate());
                tr.time("autodiff.tape_drop", |_| drop(tape));
            });
        });
        epochs.push(id);
    }
    let alphas = net.alpha_snapshot(&store);
    finite &= alpha_bits(&alphas).iter().all(|&b| f32::from_bits(b).is_finite());
    SearchReplay { arch: net.derive(&store), alphas, epochs, tape_nodes, pool_hit_rates, finite }
}

/// Spans of the candidate-training replays.
#[derive(Default)]
struct TrainTrace {
    /// One `core.train.candidate` span per candidate.
    candidates: Vec<SpanId>,
    /// `core.train.model_build` spans.
    builds: Vec<SpanId>,
    /// One `train.epoch` span per training epoch.
    epochs: Vec<SpanId>,
    /// `core.train.eval_forward` spans.
    evals: Vec<SpanId>,
    /// Nodes on the first training tape.
    tape_nodes: usize,
    /// Buffer-pool hit rate of each training tape.
    pool_hit_rates: Vec<f64>,
}

/// One training step of `model` on one graph, as `sane-core`'s loops make
/// it: forward, loss, backward, clip, Adam.
#[allow(clippy::too_many_arguments)]
fn train_step(
    tr: &mut Tracer,
    out: &mut TrainTrace,
    model: &GnnModel,
    store: &mut VarStore,
    opt: &mut Adam,
    tape_seed: u64,
    forward: impl FnOnce(&mut Tape, &GnnModel, &VarStore) -> Tensor,
) {
    let (tape, loss) = tr.time("train.forward", |_| {
        let mut tape = Tape::new(tape_seed);
        let loss = forward(&mut tape, model, store);
        (tape, loss)
    });
    let mut grads = tr.time("autodiff.backward", |_| tape.backward(loss));
    tr.time("autodiff.optimizer", |_| {
        grads.clip_global_norm(CLIP);
        opt.step(store, &grads);
        grads.recycle();
    });
    if out.tape_nodes == 0 {
        out.tape_nodes = tape.len();
    }
    out.pool_hit_rates.push(tape.pool_activity().hit_rate());
    tr.time("autodiff.tape_drop", |_| drop(tape));
}

/// `train_architecture` from public calls, traced.
fn replay_train(
    task: &Task,
    arch: &Architecture,
    cfg: &TrainConfig,
    tr: &mut Tracer,
    out: &mut TrainTrace,
) -> TrainOutcome {
    let ((outcome, build), cand) = tr.span("core.train.candidate", |tr| {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = VarStore::new();
        let (model, build) = tr.span("core.train.model_build", |_| {
            GnnModel::new(
                arch.clone(),
                task.feature_dim(),
                task.num_outputs(),
                candidate_hyper(),
                &mut store,
                &mut rng,
            )
        });
        let mut opt = Adam::new(cfg.lr, cfg.weight_decay);
        let (mut best_val, mut test_at_best) = (f64::NEG_INFINITY, 0.0);
        let mut epochs_run = 0;
        for epoch in 0..cfg.epochs {
            epochs_run = epoch + 1;
            let evaluate = epoch % cfg.eval_every == 0 || epoch + 1 == cfg.epochs;
            let ((), id) = tr.span("train.epoch", |tr| {
                let (val, test) = match task {
                    Task::Node(t) => {
                        let seed = cfg.seed.wrapping_add(epoch as u64 + 1);
                        train_step(
                            tr,
                            out,
                            &model,
                            &mut store,
                            &mut opt,
                            seed,
                            |tape, model, store| {
                                let x = tape.input(Arc::clone(&t.data.features));
                                let logits = model.forward(tape, store, &t.ctx, x, true);
                                tape.cross_entropy(logits, &t.data.labels, &t.data.train)
                            },
                        );
                        if !evaluate {
                            return;
                        }
                        let (scores, id) = tr.span("core.train.eval_forward", |_| {
                            let mut eval = Tape::new(0);
                            let x = eval.input(Arc::clone(&t.data.features));
                            let logits = model.forward(&mut eval, &store, &t.ctx, x, false);
                            let lv = eval.value(logits);
                            let val = accuracy(lv, &t.data.labels, &t.data.val);
                            (val, accuracy(lv, &t.data.labels, &t.data.test))
                        });
                        out.evals.push(id);
                        scores
                    }
                    Task::Multi(t) => {
                        for &gi in &t.data.train_graphs {
                            let g = &t.data.graphs[gi];
                            let seed = cfg.seed.wrapping_add((epoch * 131 + gi) as u64);
                            train_step(
                                tr,
                                out,
                                &model,
                                &mut store,
                                &mut opt,
                                seed,
                                |tape, model, store| {
                                    let x = tape.input(Arc::clone(&g.features));
                                    let logits = model.forward(tape, store, &t.ctxs[gi], x, true);
                                    tape.bce_with_logits(logits, &g.targets, &g.all_nodes())
                                },
                            );
                        }
                        if !evaluate {
                            return;
                        }
                        let (val, id) = tr.span("core.train.eval_forward", |_| {
                            eval_inductive(t, &model, &store, &t.data.val_graphs)
                        });
                        out.evals.push(id);
                        let improved = val > best_val;
                        let test = if improved {
                            eval_inductive(t, &model, &store, &t.data.test_graphs)
                        } else {
                            0.0
                        };
                        (val, test)
                    }
                };
                if val > best_val {
                    best_val = val;
                    test_at_best = test;
                }
            });
            out.epochs.push(id);
        }
        (
            TrainOutcome { val_metric: best_val.max(0.0), test_metric: test_at_best, epochs_run },
            build,
        )
    });
    out.candidates.push(cand);
    out.builds.push(build);
    outcome
}

/// The candidates of one `train-cora` unit, in `random_search` order.
fn sampled_candidates() -> Vec<Architecture> {
    let space = SaneSpace::paper();
    let mut genomes = Vec::new();
    let mut oracle = GenomeOracle::new(|g: &[usize]| {
        genomes.push(g.to_vec());
        TrainOutcome { val_metric: 0.0, test_metric: 0.0, epochs_run: 0 }
    });
    random_search(&space.space(), &mut oracle, &random_config());
    drop(oracle);
    genomes.iter().map(|g| space.decode(g)).collect()
}

/// Isolated fwd/bwd of every node aggregator at one supernet step's
/// shapes: layer 1 at `in = F`, then `K - 1` layers at hidden width.
/// Returns the summed fwd and bwd ms over all aggregators.
fn time_node_aggregators(
    task: &Task,
    cfg: &SaneSearchConfig,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> (f64, f64) {
    let (ctx, features) = probe_graph(task);
    let d = cfg.supernet.hidden;
    let hidden = hidden_input(ctx.num_nodes(), d);
    let (mut all_fwd, mut all_bwd) = (0.0, 0.0);
    for kind in NodeAggKind::ALL {
        let mut rng = StdRng::seed_from_u64(RUN_SEED);
        let mut store = VarStore::new();
        let (mut fwd, mut bwd) = (0.0, 0.0);
        for layer in 0..cfg.supernet.k {
            let (input, in_dim) =
                if layer == 0 { (&features, features.cols()) } else { (&hidden, d) };
            let op = build_aggregator(kind, &mut store, &mut rng, in_dim, d, 1);
            let (f, b) = fwd_bwd(tr, kind.name(), REPS, |tape| {
                let x = tape.input(Arc::clone(input));
                op.forward(tape, &store, ctx, x)
            });
            fwd += f;
            bwd += b;
        }
        m.put(format!("gnn.agg.{}.fwd_ms", kind.name()), fwd, "ms");
        m.put(format!("gnn.agg.{}.bwd_ms", kind.name()), bwd, "ms");
        all_fwd += fwd;
        all_bwd += bwd;
    }
    (all_fwd, all_bwd)
}

/// Isolated fwd/bwd of every layer aggregator over `K` hidden-width
/// layer outputs. Returns the summed fwd and bwd ms.
fn time_layer_aggregators(
    task: &Task,
    cfg: &SaneSearchConfig,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> (f64, f64) {
    let (ctx, _) = probe_graph(task);
    let d = cfg.supernet.hidden;
    let layers: Vec<Arc<Matrix>> =
        (0..cfg.supernet.k).map(|_| hidden_input(ctx.num_nodes(), d)).collect();
    let (mut all_fwd, mut all_bwd) = (0.0, 0.0);
    for kind in LayerAggKind::ALL {
        let mut rng = StdRng::seed_from_u64(RUN_SEED);
        let mut store = VarStore::new();
        let agg = LayerAggregator::new(kind, &mut store, &mut rng, d);
        let (f, b) = fwd_bwd(tr, kind.name(), REPS, |tape| {
            let inputs: Vec<Tensor> = layers.iter().map(|l| tape.input(Arc::clone(l))).collect();
            agg.forward(tape, &store, &inputs)
        });
        m.put(format!("gnn.layer_agg.{}.fwd_ms", kind.name()), f, "ms");
        m.put(format!("gnn.layer_agg.{}.bwd_ms", kind.name()), b, "ms");
        all_fwd += f;
        all_bwd += b;
    }
    (all_fwd, all_bwd)
}

/// Median fwd and bwd ms of `reps` runs of `forward` on a fresh tape; the
/// backward starts from the sum of the output.
fn fwd_bwd(
    tr: &mut Tracer,
    label: &str,
    reps: usize,
    forward: impl Fn(&mut Tape) -> Tensor,
) -> (f64, f64) {
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let mut tape = Tape::new(RUN_SEED);
        let (out, f) = tr.span(format!("gnn.{label}.fwd"), |_| forward(&mut tape));
        let loss = tape.sum_all(out);
        let (grads, b) = tr.span(format!("gnn.{label}.bwd"), |_| tape.backward(loss));
        grads.recycle();
        fwd.push(tr.get(f).ms());
        bwd.push(tr.get(b).ms());
    }
    (median(&fwd), median(&bwd))
}

/// A deterministic `n x d` stand-in for a hidden layer's output.
fn hidden_input(n: usize, d: usize) -> Arc<Matrix> {
    let mut rng = StdRng::seed_from_u64(RUN_SEED);
    Arc::new(glorot_init(n, d, &mut rng))
}

/// Times `Matrix::matmul`, `Matrix::matmul_at_b` and `Csr::spmm` at the
/// workload's layer-1 shapes, at 1 and 2 threads.
fn time_kernels(task: &Task, cfg: &SaneSearchConfig, tr: &mut Tracer, m: &mut Metrics) {
    let (ctx, features) = probe_graph(task);
    let (n, f, h) = (features.rows(), features.cols(), cfg.supernet.hidden);
    let mut rng = StdRng::seed_from_u64(RUN_SEED);
    let weight = glorot_init(f, h, &mut rng);
    let grad = glorot_init(n, h, &mut rng);
    let nnz = ctx.gcn.nnz();
    let (nf, fh, nh) = ((n * f) as f64, (f * h) as f64, (n * h) as f64);
    // (name, flops, bytes read, bytes written), all computed from shapes:
    // f32 values, u32 column indices, usize row pointers.
    let kernels: [(&str, f64, f64, f64); 3] = [
        ("gemm", 2.0 * nf * h as f64, 4.0 * (nf + fh), 4.0 * nh),
        ("gemm_at_b", 2.0 * nf * h as f64, 4.0 * (nf + nh), 4.0 * fh),
        (
            "spmm",
            2.0 * nnz as f64 * h as f64,
            8.0 * nnz as f64 + 8.0 * (n + 1) as f64 + 4.0 * nh,
            4.0 * nh,
        ),
    ];
    for (name, flops, read, written) in kernels {
        let call = || match name {
            "gemm" => features.matmul(&weight),
            "gemm_at_b" => features.matmul_at_b(&grad),
            _ => ctx.gcn.spmm(&grad),
        };
        let one = with_threads(1, || kernel_ms(tr, name, &call));
        let two = with_threads(2, || kernel_ms(tr, name, &call));
        m.put(format!("autodiff.{name}.ms"), one, "ms");
        m.put(format!("autodiff.{name}.gflop_per_s"), flops / 1e9 / (one / 1e3), "GFLOP/s");
        m.put(format!("autodiff.{name}.speedup_2t"), one / two, "x");
        m.put(format!("autodiff.{name}.gflop"), flops / 1e9, "GFLOP");
        m.put(format!("autodiff.{name}.computed_bytes_read"), read, "B");
        m.put(format!("autodiff.{name}.computed_bytes_written"), written, "B");
    }
}

/// Median ms of a kernel call: at least 5 calls, more while under 250 ms.
fn kernel_ms(tr: &mut Tracer, name: &str, call: &impl Fn() -> Matrix) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (samples.len() < 200 && start.elapsed().as_millis() < 250) {
        let (out, id) = tr.span(format!("autodiff.{name}"), |_| call());
        std::hint::black_box(out);
        samples.push(tr.get(id).ms());
    }
    median(&samples)
}

/// Median over `steps` of the summed duration of `name` spans in each.
fn per_step(tr: &Tracer, steps: &[SpanId], name: &str) -> f64 {
    let v: Vec<f64> = steps.iter().map(|&s| tr.total_ms_within(s, name)).collect();
    median(&v)
}

/// Median duration of the given spans.
fn median_of(tr: &Tracer, spans: &[SpanId]) -> f64 {
    let v: Vec<f64> = spans.iter().map(|&s| tr.get(s).ms()).collect();
    median(&v)
}

fn same_outcome(a: &TrainOutcome, b: &TrainOutcome) -> bool {
    a.val_metric.to_bits() == b.val_metric.to_bits()
        && a.test_metric.to_bits() == b.test_metric.to_bits()
        && a.epochs_run == b.epochs_run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Section;
    use crate::workload::tiny_spec;

    /// A tiny traced run of each workload prints exactly the catalogue's
    /// per-layer metrics, and its replays match the library's loops.
    #[test]
    fn tiny_traced_runs_report_the_catalogue_and_replay_exactly() {
        for w in Workload::ALL {
            let mut tr = Tracer::new(w.name().into());
            let out = run(w, &tiny_spec(w), &mut tr);
            assert_eq!(out.metrics.check(Section::PerLayer), Ok(()), "{}", w.name());
            assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.notes);
            assert!(out.attempted > 0);
        }
    }
}
