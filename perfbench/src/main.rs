//! SANE benchmark: end-to-end search and candidate-training cost, and a
//! traced run that splits it by layer.
//!
//! ```text
//! perfbench --workload <search-cora|search-ppi|train-cora> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The seed only picks the generated graph. `--trace 0` prints the
//! end-to-end metrics of `BENCHMARK.json`, `--trace 1` its per-layer
//! metrics and writes the spans to `.bench_trace/<workload>-seed<n>.jsonl`.
//! Report lines start with `#`; the last line is the JSON result.

mod e2e;
mod layers;
mod report;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Section;
use workload::{data_spec, Workload};

/// Checked command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = data_spec(args.workload, args.seed);
    println!("# workload {} seed {}: {spec:?}", args.workload.name(), args.seed);

    let (out, section) = if args.trace {
        let run_id = format!("{}-seed{}", args.workload.name(), args.seed);
        let mut tr = trace::Tracer::new(run_id.clone());
        let out = layers::run(args.workload, &spec, &mut tr);
        let path = PathBuf::from(".bench_trace").join(format!("{run_id}.jsonl"));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# spans written to {}", path.display());
        (out, Section::PerLayer)
    } else {
        (e2e::run(args.workload, &spec, args.seconds), Section::EndToEnd)
    };
    for note in &out.notes {
        println!("# {note}");
    }
    let names_ok = match out.metrics.check(section) {
        Ok(()) => true,
        Err(e) => {
            println!("# metric check failed: {e}");
            false
        }
    };
    let correct = names_ok && out.failed == 0;
    println!("{}", out.metrics.result_line(correct, out.attempted, out.failed));
    ExitCode::SUCCESS
}
