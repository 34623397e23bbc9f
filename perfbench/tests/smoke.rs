//! Tiny-size runs of every workload, untraced and traced, must pass their
//! checks and emit exactly the metrics `BENCHMARK.json` declares, with their
//! units, in a JSON line with exactly the result keys.

use perfbench::{run, Config, Kind};
use serde::{Deserialize, Value};
use std::time::Duration;

/// The declared metric lists of `BENCHMARK.json`, as (name, unit) pairs.
struct Declared {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key}")),
        _ => Err(format!("expected an object around {key}")),
    }
}

fn text(v: &Value) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        _ => Err("expected a string".into()),
    }
}

fn metrics(v: &Value) -> Result<Vec<(String, String)>, String> {
    match v {
        Value::Seq(items) => items
            .iter()
            .map(|m| Ok((text(field(m, "name")?)?, text(field(m, "unit")?)?)))
            .collect(),
        _ => Err("expected a list of metrics".into()),
    }
}

impl Deserialize for Declared {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(Self {
            end_to_end: metrics(field(v, "end_to_end")?)?,
            per_layer: metrics(field(v, "per_layer")?)?,
        })
    }
}

fn declared() -> Declared {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> Vec<String> {
    match v {
        Value::Map(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("expected an object"),
    }
}

#[test]
fn tiny_runs_emit_every_declared_metric_with_its_unit() {
    let declared = declared();
    let tiny = [
        (Kind::Fig8Sweep, 16),
        (Kind::LadderStream, 48),
        (Kind::AuditCampaign, 3),
    ];
    for (kind, jobs) in tiny {
        for trace in [false, true] {
            let report = run(&Config {
                kind,
                seed: 3,
                window: Duration::ZERO,
                trace,
                jobs: Some(jobs),
            });
            let label = format!("{} trace={trace}", kind.name());
            assert!(report.correct(), "{label}: {:?}", report.failures);
            let emitted: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            let expected = if trace {
                &declared.per_layer
            } else {
                &declared.end_to_end
            };
            assert_eq!(&emitted, expected, "{label}");

            let line: Value = serde_json::from_str::<Raw>(&report.json())
                .expect("JSON line")
                .0;
            assert_eq!(
                keys(&line),
                ["correct", "attempted", "failed", "metrics"],
                "{label}"
            );
            let names: Vec<String> = keys(field(&line, "metrics").expect("metrics"));
            assert_eq!(names.len(), expected.len(), "{label}");
        }
    }
}

/// Any JSON value, kept as parsed.
struct Raw(Value);

impl Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(Self(v.clone()))
    }
}

#[test]
fn every_timed_metric_is_measured_not_constant() {
    let report = run(&Config {
        kind: Kind::LadderStream,
        seed: 5,
        window: Duration::ZERO,
        trace: false,
        jobs: Some(32),
    });
    for m in &report.metrics {
        assert!(
            m.value > 0.0 && m.value.is_finite(),
            "{} = {}",
            m.name,
            m.value
        );
    }
}
