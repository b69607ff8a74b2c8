//! Kernel microbenchmark: times the parallel sparse/segment kernels, the
//! accumulating GEMMs on a dense and a cora-density left operand, and a
//! fully-mixed supernet step at 1, 2 and 4 worker threads, verifies every
//! parallel result is bitwise-identical to the serial one, and reports the
//! tape buffer pool's steady-state behaviour. Emits `BENCH_kernels.json`.
//!
//! Usage: `cargo run --release -p sane-bench --bin kernels -- --quick`

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use sane_autodiff::parallel::with_threads;
use sane_autodiff::{pool, uniform_init, Csr, Segments, Tape, VarStore};
use sane_bench::HarnessArgs;
use sane_core::prelude::*;
use sane_core::search::darts::node_task_of;
use sane_data::CitationConfig;

const THREADS: [usize; 3] = [1, 2, 4];

#[derive(Serialize)]
struct KernelResult {
    name: String,
    shape: String,
    /// Mean milliseconds per iteration, keyed by worker count.
    ms_per_iter: BTreeMap<String, f64>,
    speedup_2t: f64,
    speedup_4t: f64,
    /// True when a benched worker count exceeds the machine's available
    /// parallelism: the multi-thread timings then measure scheduler
    /// contention, not scaling, and the perf gate must ignore them.
    threads_oversubscribed: bool,
    bitwise_equal_to_serial: bool,
}

#[derive(Serialize)]
struct PoolReport {
    warmup_steps: usize,
    measured_steps: usize,
    misses_per_step: f64,
    hit_rate: f64,
    pooled_mib: f64,
}

#[derive(Serialize)]
struct TelemetryOverhead {
    steps: usize,
    ms_per_step_off: f64,
    ms_per_step_on: f64,
    /// Relative slowdown of a full mixed-supernet step with the recorder
    /// installed and kernel timing on (acceptance budget: ≤ 5%).
    overhead_frac: f64,
    ms_per_step_workers_off: f64,
    ms_per_step_workers_on: f64,
    /// Relative slowdown of the same step at 2 worker threads, where
    /// every spawned worker attaches to the run and books its slice
    /// sample (budget: ~2%; the `SANE_OVERHEAD_GATE` check allows ≤ 5%
    /// for shared-runner timing noise).
    worker_overhead_frac: f64,
}

#[derive(Serialize)]
struct MemoryReport {
    /// Static peak predicted by the verified memory plan.
    planned_peak_mb: f64,
    /// Measured peak of the instrumented sweep with no plan.
    actual_baseline_peak_mb: f64,
    /// Measured peak under plan-driven release.
    actual_planned_peak_mb: f64,
    reuse_ratio: f64,
    slots: usize,
    released_values: usize,
}

#[derive(Serialize)]
struct BenchReport {
    preset: String,
    threads: Vec<usize>,
    available_parallelism: usize,
    kernels: Vec<KernelResult>,
    pool: PoolReport,
    telemetry: TelemetryOverhead,
    /// Dataflow memory plan for the `mixed_supernet_fwd_bwd` step.
    memory: MemoryReport,
}

/// One named bench scenario: the closure runs a full forward(+backward)
/// pass and returns a bitwise signature. Scenarios are built once and
/// reused by the timing loops and by the reference-trace pass.
type Scenario<'a> = (&'static str, String, usize, Box<dyn FnMut() -> Vec<f32> + 'a>);

/// Times `f` at every worker count, checking each run's signature against
/// the 1-thread result bit-for-bit.
fn bench_kernel(
    name: &str,
    shape: String,
    iters: usize,
    f: &mut dyn FnMut() -> Vec<f32>,
) -> KernelResult {
    let reference = with_threads(1, &mut *f);
    let mut ms_per_iter = BTreeMap::new();
    let mut bitwise_equal = true;
    for &threads in &THREADS {
        let sig = with_threads(threads, &mut *f); // warm-up + correctness probe
        if sig.len() != reference.len()
            || sig.iter().zip(&reference).any(|(a, b)| a.to_bits() != b.to_bits())
        {
            bitwise_equal = false;
        }
        let start = Instant::now();
        with_threads(threads, || {
            for _ in 0..iters {
                std::hint::black_box(f());
            }
        });
        ms_per_iter.insert(threads, start.elapsed().as_secs_f64() * 1e3 / iters as f64);
    }
    let serial = ms_per_iter[&1];
    let avail = sane_autodiff::parallel::hardware_threads();
    let result = KernelResult {
        name: name.into(),
        shape,
        speedup_2t: serial / ms_per_iter[&2],
        speedup_4t: serial / ms_per_iter[&4],
        threads_oversubscribed: THREADS.iter().any(|&t| t > avail),
        bitwise_equal_to_serial: bitwise_equal,
        ms_per_iter: ms_per_iter.into_iter().map(|(t, ms)| (t.to_string(), ms)).collect(),
    };
    println!(
        "{:<28} {:>9.3} ms serial, x{:.2} @2t, x{:.2} @4t{}, bitwise={}",
        result.name,
        serial,
        result.speedup_2t,
        result.speedup_4t,
        if result.threads_oversubscribed { " (oversubscribed)" } else { "" },
        result.bitwise_equal_to_serial
    );
    result
}

fn random_csr(seed: u64, n: usize, nnz: usize) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let triplets: Vec<(u32, u32, f32)> = (0..nnz)
        .map(|_| {
            (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32), rng.gen_range(0.1f32..1.0))
        })
        .collect();
    Csr::from_coo(n, n, &triplets)
}

fn main() {
    let args = HarnessArgs::from_env();
    let quick = args.scale.name == "quick";
    // Kernel sizes and repeat counts per preset.
    let (n, deg, d, iters) =
        if quick { (4000usize, 8usize, 32usize, 5usize) } else { (20000, 10, 64, 20) };
    let nnz = n * deg;
    let mut rng = StdRng::seed_from_u64(args.scale.seed);

    println!(
        "kernel bench: preset={}, n={n}, nnz~{nnz}, d={d}, {} hardware threads\n",
        args.scale.name,
        sane_autodiff::parallel::hardware_threads(),
    );
    let mut kernels = Vec::new();

    // --- raw sparse kernel fixtures -----------------------------------------
    let a = Arc::new(random_csr(11, n, nnz));
    let h = uniform_init(n, d, 1.0, &mut rng);
    a.t(); // build the lazy transpose outside the timed region

    // --- segment kernel fixtures (forward + backward on a tape) -------------
    let lengths: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * deg)).collect();
    let total: usize = lengths.iter().sum();
    let idx = Arc::new((0..total).map(|_| rng.gen_range(0..n as u32)).collect::<Vec<u32>>());
    let segs = Arc::new(Segments::from_lengths(&lengths));
    let mut seg_store = VarStore::new();
    let seg_p = seg_store.add("x", uniform_init(n, d, 1.0, &mut rng));
    let seg_s = seg_store.add("scores", uniform_init(n, 1, 1.0, &mut rng));

    // --- GEMM fixtures: layer-1 shapes on cora-syn's 1433-word input --------
    // The dense operand is uniform; the sparse one is a binary bag of words
    // at cora-syn's density, so `matmul`/`matmul_at_b` take their
    // zero-skipping path on it and their dense loop on the other.
    let cora = CitationConfig::cora();
    let (gemm_rows, vocab) = (if quick { 1000 } else { cora.num_nodes }, cora.feature_dim);
    let dense_x = uniform_init(gemm_rows, vocab, 1.0, &mut rng);
    let mut bag_x = sane_autodiff::Matrix::zeros(gemm_rows, vocab);
    for r in 0..gemm_rows {
        for _ in 0..cora.words_per_doc {
            bag_x.set(r, rng.gen_range(0..vocab), 1.0);
        }
    }
    let gemm_w = uniform_init(vocab, d, 1.0, &mut rng);
    let gemm_dy = uniform_init(gemm_rows, d, 1.0, &mut rng);

    // --- fully-mixed supernet fixtures (Eq. 3-5 forward + backward) ---------
    let data_scale = if quick { 0.05 } else { 0.25 };
    let ds = CitationConfig::cora().scaled(data_scale).with_seed(args.scale.seed).generate();
    let task = Task::node(ds);
    let Some(t) = node_task_of(&task) else {
        unreachable!("the bench builds a node task");
    };
    let mut net_rng = StdRng::seed_from_u64(args.scale.seed);
    let mut store = VarStore::new();
    let cfg = SupernetConfig { hidden: if quick { 16 } else { 32 }, ..SupernetConfig::default() };
    let net = Supernet::new(cfg, task.feature_dim(), task.num_outputs(), &mut store, &mut net_rng);
    t.ctx.warm_backward();
    let first_w = net.weight_params()[0];
    let mixed_iters = iters.max(3) / 3 + 1;

    // Scenarios are built once and run twice: the timed loops below, then
    // a scoped trace pass that records the reference trace the regression
    // forensics diff against.
    let seg_sum = || {
        let mut tape = Tape::new(0);
        let x = tape.param(&seg_store, seg_p);
        let msgs = tape.gather_rows(x, &idx);
        let s = tape.segment_sum(msgs, &segs);
        let loss = tape.sum_all(s);
        let grads = tape.backward(loss);
        let sig = grads.get(seg_p).map_or_else(Vec::new, |g| g.data().to_vec());
        grads.recycle();
        sig
    };
    // The production attention path: the fused op replaces the old
    // gather → softmax → broadcast → segment_sum chain under the same
    // metric name, so the perf history shows the fusion win directly. The
    // message gather is folded into the op (as in the GAT/GeniePath
    // aggregators); only the narrow score column is still gathered.
    let seg_attention = || {
        let mut tape = Tape::new(0);
        let x = tape.param(&seg_store, seg_p);
        let sc = tape.param(&seg_store, seg_s);
        let scores = tape.gather_rows(sc, &idx);
        let out = tape.gather_attention(scores, x, &idx, &segs);
        let loss = tape.sum_all(out);
        let grads = tape.backward(loss);
        let sig = grads.get(seg_p).map_or_else(Vec::new, |g| g.data().to_vec());
        grads.recycle();
        sig
    };
    // The retired chain, kept benched so the fused-vs-unfused gap stays
    // visible in every report (and regressions in the building blocks the
    // chain still exercises are caught).
    let seg_attention_unfused = || {
        let mut tape = Tape::new(0);
        let x = tape.param(&seg_store, seg_p);
        let sc = tape.param(&seg_store, seg_s);
        let msgs = tape.gather_rows(x, &idx);
        let scores = tape.gather_rows(sc, &idx);
        let alpha = tape.segment_softmax(scores, &segs);
        let weighted = tape.mul_col_broadcast(msgs, alpha);
        let out = tape.segment_sum(weighted, &segs);
        let loss = tape.sum_all(out);
        let grads = tape.backward(loss);
        let sig = grads.get(seg_p).map_or_else(Vec::new, |g| g.data().to_vec());
        grads.recycle();
        sig
    };
    let mixed_supernet = || {
        let mut tape = Tape::new(0);
        let x = tape.input(Arc::clone(&t.data.features));
        let logits = net.forward_mixed(&mut tape, &store, &t.ctx, x, true);
        let loss = tape.cross_entropy(logits, &t.data.labels, &t.data.train);
        let grads = tape.backward(loss);
        let sig = grads.get(first_w).map_or_else(Vec::new, |g| g.data().to_vec());
        grads.recycle();
        sig
    };
    let mut scenarios: Vec<Scenario> = vec![
        (
            "spmm_forward",
            format!("{n}x{n} ({nnz} nnz) * {n}x{d}"),
            iters,
            Box::new(|| a.spmm(&h).data().to_vec()),
        ),
        (
            "spmm_transpose",
            format!("{n}x{n}^T ({nnz} nnz) * {n}x{d}"),
            iters,
            Box::new(|| a.t().spmm(&h).data().to_vec()),
        ),
        (
            "segment_sum_fwd_bwd",
            format!("{total} rows -> {n} segments, d={d}"),
            iters,
            Box::new(seg_sum),
        ),
        (
            "segment_attention_fwd_bwd",
            format!("fused gather+softmax+aggregate over {total} rows, {n} segments, d={d}"),
            iters,
            Box::new(seg_attention),
        ),
        (
            "segment_attention_unfused_fwd_bwd",
            format!("softmax+broadcast+sum over {total} rows, {n} segments, d={d}"),
            iters,
            Box::new(seg_attention_unfused),
        ),
        (
            "gemm_dense_fwd",
            format!("{gemm_rows}x{vocab} (uniform) * {vocab}x{d}"),
            iters,
            Box::new(|| dense_x.matmul(&gemm_w).into_vec()),
        ),
        (
            "gemm_dense_at_b",
            format!("({gemm_rows}x{vocab} uniform)^T * {gemm_rows}x{d}"),
            iters,
            Box::new(|| dense_x.matmul_at_b(&gemm_dy).into_vec()),
        ),
        (
            "gemm_sparse_fwd",
            format!("{gemm_rows}x{vocab} ({} words/row) * {vocab}x{d}", cora.words_per_doc),
            iters,
            Box::new(|| bag_x.matmul(&gemm_w).into_vec()),
        ),
        (
            "gemm_sparse_at_b",
            format!("({gemm_rows}x{vocab}, {} words/row)^T * {gemm_rows}x{d}", cora.words_per_doc),
            iters,
            Box::new(|| bag_x.matmul_at_b(&gemm_dy).into_vec()),
        ),
        (
            "mixed_supernet_fwd_bwd",
            format!(
                "{} nodes, F={}, hidden={}, K=3",
                t.ctx.num_nodes(),
                task.feature_dim(),
                if quick { 16 } else { 32 }
            ),
            mixed_iters,
            Box::new(mixed_supernet),
        ),
    ];
    for (name, shape, iters, f) in &mut scenarios {
        kernels.push(bench_kernel(name, shape.clone(), *iters, f.as_mut()));
    }

    // --- reference trace for regression forensics ---------------------------
    // A scoped pass *after* the timed loops: each scenario reruns a few
    // iterations under a phase-tagged span with kernel timing on,
    // streaming TRACE_kernels.jsonl. `xtask perf --explain` diffs this
    // trace against the retained baseline copy when the gate fails; the
    // timed loops above stay free of recorder overhead.
    let trace_path = args.out_dir.join("TRACE_kernels.jsonl");
    {
        let trace_iters = if quick { 2 } else { 3 };
        std::fs::create_dir_all(&args.out_dir).expect("create results dir"); // lint:allow(expect) -- create results dir
        let recorder = sane_telemetry::Recorder::new("kernels")
            .with_jsonl(&trace_path)
            .expect("open kernels trace") // lint:allow(expect) -- open kernels trace
            .with_kernel_timing(true);
        let _guard = recorder.install();
        let _bench = sane_telemetry::span("bench");
        for (name, _shape, _iters, f) in &mut scenarios {
            let _scenario = sane_telemetry::phase_span(name, name);
            for _ in 0..trace_iters {
                std::hint::black_box(f.as_mut()());
            }
        }
        sane_telemetry::flush_metrics();
    }
    // A malformed reference trace would poison every future diff: fail
    // the bench run immediately instead.
    sane_telemetry::trace::summarize_file(&trace_path).expect("kernels trace validates"); // lint:allow(expect) -- kernels trace validates
    println!("\n[saved {}]", trace_path.display());
    drop(scenarios);

    // --- buffer pool steady state -------------------------------------------
    let step = || {
        let mut tape = Tape::new(0);
        let x = tape.input(Arc::clone(&t.data.features));
        let logits = net.forward_mixed(&mut tape, &store, &t.ctx, x, true);
        let loss = tape.cross_entropy(logits, &t.data.labels, &t.data.train);
        let grads = tape.backward(loss);
        grads.recycle();
    };
    pool::reset();
    let warmup_steps = 6;
    let measured_steps = if quick { 12 } else { 40 };
    for _ in 0..warmup_steps {
        step();
    }
    let before = pool::stats();
    for _ in 0..measured_steps {
        step();
    }
    let after = pool::stats();
    let pool_report = PoolReport {
        warmup_steps,
        measured_steps,
        misses_per_step: (after.misses - before.misses) as f64 / measured_steps as f64,
        hit_rate: after.hit_rate(),
        pooled_mib: after.floats as f64 * 4.0 / (1024.0 * 1024.0),
    };
    println!(
        "\nbuffer pool: {:.2} misses/step after warm-up, {:.1}% hit rate, {:.1} MiB pooled",
        pool_report.misses_per_step,
        pool_report.hit_rate * 100.0,
        pool_report.pooled_mib
    );

    // --- telemetry overhead: recorder + kernel timing vs bare ---------------
    // The recorder-off and recorder-on phases are interleaved in rounds
    // and the *median per-round ratio* reported: a single long phase is at
    // the mercy of environment drift (thermal throttling, a noisy
    // neighbour on a shared runner), which easily dwarfs a few-percent
    // effect; back-to-back rounds see the same environment on both sides
    // and the median discards the worst rounds entirely.
    let rounds = if quick { 5 } else { 8 };
    let steps_per_round = if quick { 3 } else { 5 };
    let overhead_steps = rounds * steps_per_round;
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        (xs[(xs.len() - 1) / 2] + xs[xs.len() / 2]) / 2.0
    };
    let probe = |run_name: &str| -> (f64, f64, f64, f64) {
        let phase_ms = || {
            let start = Instant::now();
            for _ in 0..steps_per_round {
                step();
            }
            start.elapsed().as_secs_f64() * 1e3 / steps_per_round as f64
        };
        phase_ms(); // re-warm after whatever ran before
        let (mut offs, mut ons, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..rounds {
            let off = phase_ms();
            let on = {
                let _guard =
                    sane_telemetry::Recorder::new(run_name).with_kernel_timing(true).install();
                phase_ms()
            };
            ratios.push(on / off);
            offs.push(off);
            ons.push(on);
        }
        // The best round bounds the *systematic* cost: measurement noise
        // only ever adds time, so a budget violation would show in every
        // round. The median is what gets reported and tracked.
        let best = ratios.iter().copied().fold(f64::INFINITY, f64::min) - 1.0;
        (median(offs), median(ons), median(ratios) - 1.0, best)
    };
    let (off, on, overhead_frac, overhead_frac_best) = probe("overhead_probe");
    // Same probe at 2 worker threads: spawned kernel workers now stamp a
    // slice duration the caller books into the run, so on−off isolates
    // the cross-thread sampling cost on top of the spawn cost both sides
    // pay.
    let (workers_off, workers_on, worker_overhead_frac, worker_overhead_frac_best) =
        with_threads(2, || probe("overhead_probe_workers"));
    let telemetry = TelemetryOverhead {
        steps: overhead_steps,
        ms_per_step_off: off,
        ms_per_step_on: on,
        overhead_frac,
        ms_per_step_workers_off: workers_off,
        ms_per_step_workers_on: workers_on,
        worker_overhead_frac,
    };
    println!(
        "telemetry overhead: {:.3} ms/step off, {:.3} ms/step on ({:+.2}%)",
        telemetry.ms_per_step_off,
        telemetry.ms_per_step_on,
        telemetry.overhead_frac * 100.0
    );
    println!(
        "telemetry overhead @2 workers: {:.3} ms/step off, {:.3} ms/step on ({:+.2}%)",
        telemetry.ms_per_step_workers_off,
        telemetry.ms_per_step_workers_on,
        telemetry.worker_overhead_frac * 100.0
    );
    if std::env::var_os("SANE_OVERHEAD_GATE").is_some_and(|v| v != "0") {
        assert!(
            overhead_frac_best <= 0.05,
            "telemetry overhead exceeds the 5% gate in every round (best {:.2}%, median {:.2}%)",
            overhead_frac_best * 100.0,
            telemetry.overhead_frac * 100.0
        );
        assert!(
            worker_overhead_frac_best <= 0.05,
            "worker telemetry overhead exceeds the 5% gate in every round (best {:.2}%, median {:.2}%)",
            worker_overhead_frac_best * 100.0,
            telemetry.worker_overhead_frac * 100.0
        );
        println!("telemetry overhead gate: PASS (≤ 5% in the best round)");
    }

    // --- dataflow memory plan for the mixed step ----------------------------
    // `Tape::memplan` proves the plan with `check_memplan` before
    // returning it, so this section doubles as a fixture-scale soundness
    // check on every bench run.
    let build = || {
        let mut tape = Tape::new(0);
        let x = tape.input(Arc::clone(&t.data.features));
        let logits = net.forward_mixed(&mut tape, &store, &t.ctx, x, true);
        let loss = tape.cross_entropy(logits, &t.data.labels, &t.data.train);
        (tape, loss)
    };
    let (tape, loss) = build();
    let plan = tape.memplan(loss);
    drop(tape);
    let (mut tape, loss) = build();
    let (grads, base_stats) = tape.backward_measured(loss, None);
    grads.recycle();
    drop(tape);
    let (mut tape, loss) = build();
    let (grads, plan_stats) = tape.backward_measured(loss, Some(&plan));
    grads.recycle();
    drop(tape);
    const MIB: f64 = 1024.0 * 1024.0;
    let memory = MemoryReport {
        planned_peak_mb: plan.planned_peak_bytes as f64 / MIB,
        actual_baseline_peak_mb: base_stats.peak_resident_bytes as f64 / MIB,
        actual_planned_peak_mb: plan_stats.peak_resident_bytes as f64 / MIB,
        reuse_ratio: plan.reuse_ratio,
        slots: plan.slots.len(),
        released_values: plan_stats.released_values,
    };
    println!(
        "memory plan: peak {:.2} -> {:.2} MiB (planned {:.2}), {} slots, reuse x{:.2}",
        memory.actual_baseline_peak_mb,
        memory.actual_planned_peak_mb,
        memory.planned_peak_mb,
        memory.slots,
        memory.reuse_ratio
    );

    let report = BenchReport {
        preset: args.scale.name.clone(),
        threads: THREADS.to_vec(),
        available_parallelism: sane_autodiff::parallel::hardware_threads(),
        kernels,
        pool: pool_report,
        telemetry,
        memory,
    };
    std::fs::create_dir_all(&args.out_dir).expect("create results dir"); // lint:allow(expect) -- create results dir
    let path = args.out_dir.join("BENCH_kernels.json");
    let json = serde_json::to_string_pretty(&report).expect("serialise bench report"); // lint:allow(expect) -- serialise bench report
    std::fs::write(&path, json).expect("write bench json"); // lint:allow(expect) -- write bench json
    println!("[saved {}]", path.display());

    // Append to the perf trajectory. Only machine-comparable metrics go
    // in: serial timings always, multi-thread timings and speedups only
    // when the worker count fits the machine (oversubscribed configs
    // measure contention, not the kernels).
    let avail = report.available_parallelism;
    let mut metrics = BTreeMap::new();
    for k in &report.kernels {
        if let Some(&ms) = k.ms_per_iter.get("1") {
            metrics.insert(format!("{}.ms_1t", k.name), ms);
            for t in [2usize, 4] {
                if t > avail {
                    continue;
                }
                if let Some(&ms_t) = k.ms_per_iter.get(&t.to_string()) {
                    metrics.insert(format!("{}.ms_{t}t", k.name), ms_t);
                    metrics.insert(format!("{}.speedup_{t}t", k.name), ms / ms_t);
                }
            }
        }
    }
    metrics.insert("pool.misses_per_step".into(), report.pool.misses_per_step);
    // Overhead fractions are on−off deltas of two noisy timings and dip
    // below zero when the "off" phase drew the slower rounds. A negative
    // sample reads as nonsense in the history (overhead cannot be < 0)
    // and drags window medians below any achievable value, so the tracked
    // metric clamps at 0; the signed measurement is kept in a `_raw` side
    // field for anyone auditing the probe itself.
    metrics.insert("telemetry.overhead_frac".into(), report.telemetry.overhead_frac.max(0.0));
    metrics.insert("telemetry.overhead_frac_raw".into(), report.telemetry.overhead_frac);
    metrics.insert(
        "telemetry.worker_overhead_frac".into(),
        report.telemetry.worker_overhead_frac.max(0.0),
    );
    metrics
        .insert("telemetry.worker_overhead_frac_raw".into(), report.telemetry.worker_overhead_frac);
    metrics.insert("mixed_supernet_fwd_bwd.planned_peak_mb".into(), report.memory.planned_peak_mb);
    metrics.insert("mixed_supernet_fwd_bwd.reuse_ratio".into(), report.memory.reuse_ratio);
    let hist = sane_bench::history::HistoryRecord::new("kernels", &report.preset, metrics);
    let hist_path = hist.append(&args.out_dir).expect("append bench history"); // lint:allow(expect) -- append bench history
    println!("[appended {}]", hist_path.display());

    assert!(
        report.kernels.iter().all(|k| k.bitwise_equal_to_serial),
        "parallel kernel output diverged from the serial reference"
    );
}
