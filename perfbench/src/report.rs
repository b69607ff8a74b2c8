//! Metric collection and the result line, checked against the metric
//! catalogue in `BENCHMARK.json`.

use serde::Value;

/// `BENCHMARK.json`, read at build time from the checkout root.
const CATALOGUE: &str = include_str!("../../BENCHMARK.json");

/// Which catalogue section a run reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// `end_to_end`: the untraced run.
    EndToEnd,
    /// `per_layer`: the traced run.
    PerLayer,
}

impl Section {
    fn key(self) -> &'static str {
        match self {
            Section::EndToEnd => "end_to_end",
            Section::PerLayer => "per_layer",
        }
    }
}

/// `(name, unit)` of every metric in a catalogue section.
pub fn catalogue(section: Section) -> Vec<(String, String)> {
    let root: Value = serde_json::from_str(CATALOGUE).expect("BENCHMARK.json parses");
    let field = |v: &Value, k: &str| -> String {
        let obj = v.as_obj().expect("metric entry is an object");
        let (_, f) = obj.iter().find(|(key, _)| key == k).expect("metric entry has the field");
        f.as_str().expect("field is a string").to_string()
    };
    let obj = root.as_obj().expect("BENCHMARK.json is an object");
    let (_, list) = obj.iter().find(|(k, _)| k == section.key()).expect("section present");
    list.as_arr()
        .expect("section is a list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// True when `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// What a run measured and how many of its epochs or candidates failed.
pub struct Outcome {
    /// Metrics in report order.
    pub metrics: Metrics,
    /// Epochs or candidates attempted.
    pub attempted: u64,
    /// Of those, how many failed a check.
    pub failed: u64,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

/// Metrics of one run, in report order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// The recorded names.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// Checks the metrics against the catalogue: the same names, each
    /// once, with the catalogue's unit and a finite value.
    pub fn check(&self, section: Section) -> Result<(), String> {
        let want = catalogue(section);
        for (name, value, unit) in &self.entries {
            if !valid_name(name) {
                return Err(format!("metric name `{name}` breaks the naming rule"));
            }
            match want.iter().find(|(n, _)| n == name) {
                None => return Err(format!("metric `{name}` is not in BENCHMARK.json")),
                Some((_, u)) if u != unit => {
                    return Err(format!("metric `{name}` has unit `{unit}`, catalogue says `{u}`"))
                }
                Some(_) if !value.is_finite() => {
                    return Err(format!("metric `{name}` is not finite: {value}"))
                }
                Some(_) => {}
            }
            if self.entries.iter().filter(|(n, _, _)| n == name).count() > 1 {
                return Err(format!("metric `{name}` reported twice"));
            }
        }
        if let Some((missing, _)) = want.iter().find(|(n, _)| !self.names().contains(&n.as_str())) {
            return Err(format!("metric `{missing}` was not measured"));
        }
        Ok(())
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        for section in [Section::EndToEnd, Section::PerLayer] {
            let names: Vec<String> = catalogue(section).into_iter().map(|(n, _)| n).collect();
            for n in &names {
                assert!(valid_name(n), "bad metric name `{n}`");
                assert_eq!(names.iter().filter(|m| *m == n).count(), 1, "`{n}` listed twice");
            }
        }
    }

    #[test]
    fn result_line_parses_and_round_trips_values() {
        let mut m = Metrics::default();
        m.put("epoch_ms", 1234.5678901234, "ms");
        m.put("core.tape_nodes", 656.0, "count");
        let line = m.result_line(true, 7, 0);
        let v: Value = serde_json::from_str(&line).expect("result line is JSON");
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"value\": 1234.5678901234"), "{line}");
        assert!(line.contains("\"value\": 656,"), "{line}");
    }

    #[test]
    fn check_rejects_unknown_missing_and_misunited_metrics() {
        let mut m = Metrics::default();
        m.put("no_such_metric", 1.0, "ms");
        assert!(m.check(Section::EndToEnd).is_err());
        let mut m = Metrics::default();
        for (name, _) in catalogue(Section::EndToEnd) {
            m.put(name, 1.0, "wrong-unit");
        }
        assert!(m.check(Section::EndToEnd).is_err());
        assert!(Metrics::default().check(Section::EndToEnd).is_err());
    }

    /// Every per-layer metric names the end-to-end metric and workloads it
    /// should move, in `moves.json`; every benchmarked workload runs.
    #[test]
    fn every_layer_metric_has_a_prediction() {
        let moves: Value =
            serde_json::from_str(include_str!("../moves.json")).expect("moves.json parses");
        let root: Value = serde_json::from_str(CATALOGUE).expect("BENCHMARK.json parses");
        let list = |v: &Value, key: &str| -> Vec<String> {
            let (_, l) = v.as_obj().unwrap().iter().find(|(k, _)| k == key).unwrap().clone();
            l.as_arr()
                .unwrap()
                .iter()
                .map(|e| {
                    let name = e.as_obj().unwrap().iter().find(|(k, _)| k == "name").unwrap();
                    name.1.as_str().unwrap().to_string()
                })
                .collect()
        };
        for w in list(&root, "workloads") {
            assert!(crate::workload::Workload::parse(&w).is_some(), "unknown workload {w}");
        }
        let end_to_end = list(&root, "end_to_end");
        let (_, per_layer) =
            moves.as_obj().unwrap().iter().find(|(k, _)| k == "per_layer").unwrap();
        let per_layer = per_layer.as_obj().unwrap();
        let mapped: Vec<&str> = per_layer.iter().map(|(k, _)| k.as_str()).collect();
        let listed: Vec<String> =
            catalogue(Section::PerLayer).into_iter().map(|(n, _)| n).collect();
        assert_eq!(mapped, listed, "moves.json must follow BENCHMARK.json's per_layer list");
        for (name, entry) in per_layer {
            let field =
                |k: &str| entry.as_obj().unwrap().iter().find(|(f, _)| f == k).unwrap().1.clone();
            let target = field("moves");
            assert!(end_to_end.iter().any(|e| Some(e.as_str()) == target.as_str()), "{name}");
            let wl = field("workloads");
            let wl = wl.as_arr().unwrap();
            assert!(!wl.is_empty(), "{name}");
            for w in wl {
                let w = w.as_str().unwrap();
                assert!(crate::workload::Workload::parse(w).is_some(), "{name}: {w}");
            }
        }
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("gnn.agg.GAT-GEN-LINEAR.fwd_ms"));
        assert!(!valid_name(".lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
    }
}
