//! The untraced run: end-to-end metrics and correctness checks.
//!
//! A run repeats rounds until its time budget is spent, at least
//! [`MIN_ROUNDS`] times. A round sets the task up (repeatedly, for
//! [`SETUP_SLICE`]), then runs the workload's unit once at 1 worker thread
//! and once at 2. A unit is one `sane_search` call, or one `random_search`
//! over [`CANDIDATES_PER_UNIT`] candidates. Interleaving keeps every metric
//! sampling the whole run, so a slow spell on a shared machine lands on
//! all of them alike. Every unit must reproduce the first one bit for bit.
//!
//! Each unit gives one epoch-time sample: the mean of its epoch times, or
//! its candidates' training time over their epochs. A unit always runs the
//! same epochs or candidates, so its samples come from one distribution;
//! per-epoch samples would mix graphs or architectures of different cost
//! and put the median in the gap between them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use sane_autodiff::parallel::with_threads;
use sane_core::search::{random_search, sane_search, GenomeOracle};
use sane_core::space::SaneSpace;
use sane_core::supernet::AlphaSnapshot;
use sane_core::train::{train_architecture, Task, TrainOutcome};
use sane_gnn::Architecture;

use crate::report::{Metrics, Outcome};
use crate::stats::{median, tail};
use crate::workload::{
    build_supernet, candidate_hyper, contexts, random_config, search_config, train_config,
    DataSpec, Workload, CANDIDATES_PER_UNIT,
};

/// Rounds each run makes at least, so each thread count keeps a sample
/// after its warm-up unit.
pub const MIN_ROUNDS: usize = 2;

/// Set-up time per round: set-ups repeat until it is spent (at least one).
const SETUP_SLICE: Duration = Duration::from_millis(250);

/// What a unit computed, compared bit for bit across units.
#[derive(Clone, Debug, PartialEq)]
enum UnitOutput {
    /// Derived genotype and the bits of the final softmaxed α.
    Search { arch: Architecture, alpha_bits: Vec<u32> },
    /// Per candidate: genome, bits of val and test metric, epochs run.
    Train { outcomes: Vec<(Vec<usize>, u64, u64, usize)> },
}

/// One timed unit.
struct Unit {
    /// Mean wall time of the unit's epochs (search) or candidate-training
    /// epochs (train), ms.
    epoch_ms: f64,
    /// Per-candidate wall times, s (train only).
    candidate_s: Vec<f64>,
    /// Best validation metric over the unit's candidates (train only).
    best_val: Option<f64>,
    output: UnitOutput,
    /// Every α or metric is finite.
    finite: bool,
}

/// Epochs or candidates one unit of `w` attempts.
fn unit_size(w: Workload) -> u64 {
    if w.is_search() {
        w.epochs_per_unit() as u64
    } else {
        CANDIDATES_PER_UNIT as u64
    }
}

fn run_unit(w: Workload, task: &Task) -> Unit {
    if w.is_search() {
        let cfg = search_config(w);
        let out = sane_search(task, &cfg);
        out.arch.validate();
        let alpha_bits = alpha_bits(&out.alphas);
        let finite = alpha_bits.iter().all(|&b| f32::from_bits(b).is_finite());
        let epochs = epoch_times_ms(&out.checkpoints);
        Unit {
            epoch_ms: epochs.iter().sum::<f64>() / epochs.len() as f64,
            candidate_s: Vec::new(),
            best_val: None,
            output: UnitOutput::Search { arch: out.arch, alpha_bits },
            finite,
        }
    } else {
        let space = SaneSpace::paper();
        let (hyper, cfg) = (candidate_hyper(), train_config());
        let mut timed: Vec<(Vec<usize>, f64, TrainOutcome)> = Vec::new();
        let mut oracle = GenomeOracle::new(|g: &[usize]| {
            let start = Instant::now();
            let o = train_architecture(task, &space.decode(g), &hyper, &cfg);
            timed.push((g.to_vec(), start.elapsed().as_secs_f64(), o.clone()));
            o
        });
        random_search(&space.space(), &mut oracle, &random_config());
        drop(oracle);
        let finite =
            timed.iter().all(|(_, _, o)| o.val_metric.is_finite() && o.test_metric.is_finite());
        Unit {
            epoch_ms: timed.iter().map(|(_, s, _)| s * 1e3).sum::<f64>()
                / timed.iter().map(|(_, _, o)| o.epochs_run).sum::<usize>() as f64,
            candidate_s: timed.iter().map(|(_, s, _)| *s).collect(),
            best_val: timed.iter().map(|(_, _, o)| o.val_metric).reduce(f64::max),
            output: UnitOutput::Train {
                outcomes: timed
                    .into_iter()
                    .map(|(g, _, o)| {
                        (g, o.val_metric.to_bits(), o.test_metric.to_bits(), o.epochs_run)
                    })
                    .collect(),
            },
            finite,
        }
    }
}

/// Runs one unit at `threads` worker threads; `None` if it panicked.
fn timed_unit(w: Workload, task: &Task, threads: usize) -> Option<Unit> {
    with_threads(threads, || catch_unwind(AssertUnwindSafe(|| run_unit(w, task))).ok())
}

/// Generates the inputs and builds the task, its warmed contexts and (for
/// a search) the supernet: everything before the first timed step.
pub fn set_up(w: Workload, spec: &DataSpec) -> Task {
    let task = spec.generate().into_task();
    for ctx in contexts(&task) {
        ctx.warm_backward();
    }
    if w.is_search() {
        drop(build_supernet(&task, &search_config(w)));
    }
    task
}

/// Runs the untraced benchmark of `w` on `spec` for about `seconds`.
pub fn run(w: Workload, spec: &DataSpec, seconds: f64) -> Outcome {
    let mut notes = Vec::new();
    let mut setup_s = Vec::new();
    let mut task: Option<Task> = None;
    // Rounds of set-ups, one 1-thread unit and one 2-thread unit, so every
    // metric samples the whole run rather than one slice of it.
    let mut passes: [(usize, Vec<Option<Unit>>); 2] = [(1, Vec::new()), (2, Vec::new())];
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut peak_rss = f64::NAN;
    for round in 1.. {
        let slice = Instant::now();
        while task.is_none() || slice.elapsed() < SETUP_SLICE {
            drop(task.take()); // free the previous copy before building the next
            let t = Instant::now();
            task = Some(set_up(w, spec));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let task = task.as_ref().expect("a set-up just ran");
        for (threads, units) in &mut passes {
            units.push(timed_unit(w, task, *threads));
        }
        if round == MIN_ROUNDS {
            // Every run gets this far, so the peak covers the same work.
            peak_rss = peak_rss_mb();
        }
        let spent = start.elapsed();
        if round >= MIN_ROUNDS && spent + spent / round as u32 > budget {
            break;
        }
    }

    let per_unit = unit_size(w);
    let mut attempted = 0;
    let mut failed = 0;
    let reference = passes[0].1.iter().flatten().next().map(|u| u.output.clone());
    let mut epoch_ms: [Vec<f64>; 2] = Default::default();
    let mut candidate_s: [Vec<f64>; 2] = Default::default();
    let mut best_val = None;
    for (slot, (threads, units)) in passes.iter().enumerate() {
        for (i, unit) in units.iter().enumerate() {
            attempted += per_unit;
            let Some(unit) = unit else {
                notes.push(format!("{threads}-thread unit {i} panicked"));
                failed += per_unit;
                continue;
            };
            let same = reference.as_ref() == Some(&unit.output);
            if !same {
                notes.push(format!(
                    "{threads}-thread unit {i} differs from the first 1-thread unit"
                ));
            }
            if !unit.finite {
                notes.push(format!("{threads}-thread unit {i} has a non-finite α or metric"));
            }
            if !same || !unit.finite {
                failed += per_unit;
            }
            // The first unit of a pass warms the buffer pool; skip it.
            if i > 0 {
                epoch_ms[slot].push(unit.epoch_ms);
                candidate_s[slot].extend(&unit.candidate_s);
            }
            best_val = best_val.or(unit.best_val);
        }
    }

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setup_s), "s");
    notes.push(describe_samples("setup_s", &setup_s));
    for (slot, name) in [(0, "epoch_ms"), (1, "epoch_ms_2t")] {
        let samples = &epoch_ms[slot];
        if samples.is_empty() {
            notes.push(format!("{name}: no samples"));
            continue;
        }
        metrics.put(name, median(samples), "ms");
        notes.push(describe_samples(name, samples));
    }
    for (slot, name) in [(0, "candidate_s"), (1, "candidate_s_2t")] {
        if !candidate_s[slot].is_empty() {
            notes.push(describe_samples(name, &candidate_s[slot]));
        }
    }
    if let Some(v) = best_val {
        notes.push(format!("best_val_metric: {v} (validation accuracy, best candidate)"));
    }
    metrics.put("peak_rss_mb", peak_rss, "MB");
    notes.push(format!("failed_frac: {failed}/{attempted}"));
    Outcome { metrics, attempted, failed, notes }
}

/// `name: median of n samples`, the tail when the sample count allows one,
/// and the samples.
fn describe_samples(name: &str, samples: &[f64]) -> String {
    let tail = match tail(samples) {
        Some(t) => format!("p{} {:.3} ({} beyond)", t.percentile, t.value, t.beyond),
        None => "no percentile has 10 samples beyond it".to_string(),
    };
    let list: Vec<String> = samples.iter().map(|s| format!("{s:.3}")).collect();
    format!(
        "{name}: median {:.3} of n={}; tail: {tail}; samples [{}]",
        median(samples),
        samples.len(),
        list.join(", ")
    )
}

/// Per-epoch wall times (ms) from `sane_search`'s checkpoint timestamps.
pub fn epoch_times_ms(checkpoints: &[(f64, Architecture)]) -> Vec<f64> {
    let mut prev = 0.0;
    checkpoints
        .iter()
        .map(|(t, _)| {
            let ms = (t - prev) * 1e3;
            prev = *t;
            ms
        })
        .collect()
}

/// The bits of every softmaxed α, for exact comparison.
pub fn alpha_bits(a: &AlphaSnapshot) -> Vec<u32> {
    a.node.iter().chain(&a.skip).flatten().chain(&a.layer).map(|x| x.to_bits()).collect()
}

/// Peak resident memory of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Section;
    use crate::workload::tiny_spec;

    /// A tiny run of each workload prints exactly the catalogue's
    /// end-to-end metrics, and its 1- and 2-thread units agree.
    #[test]
    fn tiny_runs_report_the_catalogue_and_pass_their_checks() {
        for w in Workload::ALL {
            let out = run(w, &tiny_spec(w), 0.01);
            assert_eq!(out.metrics.check(Section::EndToEnd), Ok(()), "{}", w.name());
            assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.notes);
            assert_eq!(out.attempted, 2 * MIN_ROUNDS as u64 * unit_size(w), "{}", w.name());
        }
    }
}
