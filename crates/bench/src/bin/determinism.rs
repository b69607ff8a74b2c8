//! Cross-thread determinism gate: runs one full SANE search step (mixed
//! forward + backward + α and w Adam updates) at 1/2/4/`hardware` worker
//! threads and bitwise-compares the resulting
//! [`sane_core::search::StepFingerprint`]s — loss, every gradient, every
//! parameter and every α row. Any divergence fails the process (and CI).
//!
//! On mismatch the report attributes the divergence: each run records
//! per-kernel telemetry samples (`kernel.<name>.ns`), and kernels whose
//! sample counts differ from the serial reference are listed as suspects —
//! a different invocation count means a different code path, which is
//! exactly where a thread-count-dependent kernel hides.
//!
//! The gate also proves it covers the zero-skipping GEMM kernels: every
//! run must take the compacted path (`gemm.sparse_path.calls > 0`), and
//! every multi-thread run must split `matmul_at_b` across workers
//! (`kernel.gemm_at_b.worker.ns` samples), whose partition plans CI proves
//! with `SANE_CHECK_PLANS=1`. A run that misses either fails the gate.
//!
//! A final `simd-lane-drift` case fingerprints the same step on the scalar
//! reference kernels (`sane_autodiff::simd::with_scalar`, the in-process
//! equivalent of `SANE_FORCE_SCALAR=1`) and *reports* — without gating —
//! how many sections drift from the vectorized default.
//!
//! Emits `DETERMINISM.json`. Usage:
//! `cargo run --release -p sane-bench --bin determinism -- --quick`

use std::collections::BTreeMap;

use serde::Serialize;

use sane_autodiff::parallel::{hardware_threads, with_threads};
use sane_bench::HarnessArgs;
use sane_core::prelude::*;
use sane_core::search::{search_step_fingerprint, StepFingerprint};
use sane_data::CitationConfig;
use sane_gnn::Activation;

#[derive(Serialize)]
struct RunReport {
    threads: usize,
    /// Telemetry kernel-sample counts observed during this run.
    kernel_counts: BTreeMap<String, u64>,
    /// GEMM calls that skipped the zero terms of their left operand.
    sparse_path_calls: u64,
    /// Worker slices of `matmul_at_b` (zero when it ran serially).
    gemm_at_b_worker_slices: u64,
}

impl RunReport {
    /// Why this run does not cover the zero-skipping GEMMs, if it does not.
    fn coverage_gap(&self) -> Option<String> {
        if self.sparse_path_calls == 0 {
            return Some(format!(
                "{} thread(s): no GEMM took the zero-skipping path (gemm.sparse_path.calls = 0)",
                self.threads
            ));
        }
        if self.threads > 1 && self.gemm_at_b_worker_slices == 0 {
            return Some(format!(
                "{} thread(s): matmul_at_b never ran across workers",
                self.threads
            ));
        }
        None
    }
}

#[derive(Serialize)]
struct Mismatch {
    threads: usize,
    /// Fingerprint sections that diverged from the 1-thread reference
    /// (e.g. `loss`, `grad:layer0.gcn.w`, `alpha:node[1]`).
    labels: Vec<String>,
    /// Kernels whose telemetry sample count differs from the reference
    /// run — the per-kernel attribution hint for the divergence.
    suspect_kernels: Vec<String>,
}

/// The `simd-lane-drift` case: the same step fingerprinted on the scalar
/// reference kernels (as `SANE_FORCE_SCALAR=1` would select) against the
/// vectorized default. Drift here is *reported, not gated* — the pinned
/// 8-lane `mul_add` tree legitimately rounds differently than the scalar
/// left fold; the determinism contract only binds each mode across thread
/// counts. Keeping the drift observable stops the scalar path from rotting
/// into something that silently computes a different function.
#[derive(Serialize)]
struct SimdLaneDrift {
    /// Fingerprint sections where scalar and vectorized kernels differ
    /// bitwise (expected to be most of them once a GEMM is involved).
    drifted_sections: usize,
    /// Total sections compared.
    total_sections: usize,
    /// First few drifted section labels, for eyeballing the report.
    sample_labels: Vec<String>,
}

#[derive(Serialize)]
struct DeterminismReport {
    preset: String,
    threads: Vec<usize>,
    available_parallelism: usize,
    /// Scalars covered by each fingerprint (loss + grads + params + α).
    fingerprint_scalars: usize,
    passed: bool,
    /// True when the partition plans of every parallel kernel, the
    /// row-parallel `matmul_at_b` included, were proven before spawning
    /// (`SANE_CHECK_PLANS`, or a debug build).
    plans_checked: bool,
    /// Runs that missed a kernel path the gate must cover (see
    /// [`RunReport::coverage_gap`]).
    coverage_gaps: Vec<String>,
    runs: Vec<RunReport>,
    mismatches: Vec<Mismatch>,
    simd_lane_drift: SimdLaneDrift,
}

/// Runs the probe under an installed recorder and returns the fingerprint
/// plus what the flushed metrics record saw of the run.
fn probe(task: &Task, cfg: &SaneSearchConfig, threads: usize) -> (StepFingerprint, RunReport) {
    let buf = sane_telemetry::MemoryBuffer::default();
    let fp = {
        let _guard = sane_telemetry::Recorder::new("determinism")
            .with_memory(buf.clone())
            .with_kernel_timing(true)
            .install();
        let fp = with_threads(threads, || search_step_fingerprint(task, cfg));
        sane_telemetry::flush_metrics();
        fp
    };
    let summary = sane_telemetry::trace::summarize(&buf.borrow()).expect("probe trace validates"); // lint:allow(expect) -- probe trace validates
    let kernel_counts: BTreeMap<String, u64> =
        summary.kernels.iter().map(|(name, count, ..)| (name.clone(), *count)).collect();
    let report = RunReport {
        threads,
        sparse_path_calls: summary.counters.get("gemm.sparse_path.calls").copied().unwrap_or(0),
        gemm_at_b_worker_slices: kernel_counts.get("gemm_at_b.worker").copied().unwrap_or(0),
        kernel_counts,
    };
    (fp, report)
}

fn suspect_kernels(
    reference: &BTreeMap<String, u64>,
    observed: &BTreeMap<String, u64>,
) -> Vec<String> {
    let mut suspects: Vec<String> = reference
        .iter()
        .filter(|(k, v)| observed.get(*k) != Some(v))
        .map(|(k, _)| k.clone())
        .collect();
    suspects.extend(observed.keys().filter(|k| !reference.contains_key(*k)).cloned());
    suspects.sort();
    suspects.dedup();
    suspects
}

fn main() {
    let args = HarnessArgs::from_env();
    let quick = args.scale.name == "quick";
    let data_scale = if quick { 0.025 } else { 0.1 };
    let ds = CitationConfig::cora().scaled(data_scale).with_seed(args.scale.seed).generate();
    let task = Task::node(ds);
    let cfg = SaneSearchConfig {
        supernet: SupernetConfig {
            k: 2,
            hidden: if quick { 8 } else { 16 },
            dropout: 0.2,
            activation: Activation::Relu,
            use_layer_agg: true,
        },
        epochs: 1,
        seed: args.scale.seed,
        ..Default::default()
    };

    let mut threads: Vec<usize> = vec![1, 2, 4, hardware_threads()];
    threads.sort_unstable();
    threads.dedup();
    println!(
        "determinism gate: preset={}, {} fingerprinted thread count(s), {} hardware threads",
        args.scale.name,
        threads.len(),
        hardware_threads(),
    );

    let (reference, ref_run) = probe(&task, &cfg, threads[0]);
    println!(
        "  {} scalars fingerprinted per step ({} kernels sampled)",
        reference.num_scalars(),
        ref_run.kernel_counts.len(),
    );

    let ref_counts = ref_run.kernel_counts.clone();
    let mut runs = vec![ref_run];
    let mut mismatches = Vec::new();
    for &t in &threads[1..] {
        let (fp, run) = probe(&task, &cfg, t);
        let labels = reference.diff(&fp);
        if labels.is_empty() {
            println!("  {t} thread(s): bitwise identical to serial");
        } else {
            let suspects = suspect_kernels(&ref_counts, &run.kernel_counts);
            println!(
                "  {t} thread(s): DIVERGED on {} section(s): {:?} (suspect kernels: {:?})",
                labels.len(),
                &labels[..labels.len().min(8)],
                suspects,
            );
            mismatches.push(Mismatch { threads: t, labels, suspect_kernels: suspects });
        }
        runs.push(run);
    }
    for run in &runs {
        println!(
            "  {} thread(s): {} zero-skipping GEMM call(s), {} matmul_at_b worker slice(s)",
            run.threads, run.sparse_path_calls, run.gemm_at_b_worker_slices,
        );
    }
    let coverage_gaps: Vec<String> = runs.iter().filter_map(RunReport::coverage_gap).collect();
    let plans_checked = sane_autodiff::analysis::checks_enabled();
    println!(
        "  partition plans {}",
        if plans_checked {
            "proven before every spawn"
        } else {
            "not checked (set SANE_CHECK_PLANS=1)"
        }
    );

    // simd-lane-drift case: scalar reference kernels vs the vectorized
    // default, reported but never gated (see `SimdLaneDrift`).
    let (scalar_fp, _) = sane_autodiff::simd::with_scalar(|| probe(&task, &cfg, threads[0]));
    let drift_labels = reference.diff(&scalar_fp);
    let simd_lane_drift = SimdLaneDrift {
        drifted_sections: drift_labels.len(),
        total_sections: reference.num_sections(),
        sample_labels: drift_labels.iter().take(8).cloned().collect(),
    };
    println!(
        "  simd-lane-drift: scalar reference differs on {}/{} section(s) (expected, not gated)",
        simd_lane_drift.drifted_sections, simd_lane_drift.total_sections,
    );

    let report = DeterminismReport {
        preset: args.scale.name.clone(),
        threads,
        available_parallelism: hardware_threads(),
        fingerprint_scalars: reference.num_scalars(),
        passed: mismatches.is_empty() && coverage_gaps.is_empty(),
        plans_checked,
        coverage_gaps,
        runs,
        mismatches,
        simd_lane_drift,
    };
    std::fs::create_dir_all(&args.out_dir).expect("create results dir"); // lint:allow(expect) -- create results dir
    let path = args.out_dir.join("DETERMINISM.json");
    let json = serde_json::to_string_pretty(&report).expect("serialise report"); // lint:allow(expect) -- serialise report
    std::fs::write(&path, json).expect("write determinism json"); // lint:allow(expect) -- write determinism json
    println!("[saved {}]", path.display());

    assert!(
        report.mismatches.is_empty(),
        "search step is not bitwise deterministic across thread counts; see {}",
        path.display()
    );
    assert!(
        report.coverage_gaps.is_empty(),
        "determinism gate does not cover the zero-skipping GEMMs: {:?}",
        report.coverage_gaps
    );
    println!("determinism gate passed: bitwise identical at every thread count");
}
