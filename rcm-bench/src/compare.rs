//! `rcm-bench compare`: two sets of recorded runs, metric by metric.
//!
//! For every workload and end-to-end metric the verdict follows the rules
//! the benchmark's bounds are written for: a change may not worsen a
//! metric's median by more than its bound; where a side's own runs spread
//! wider than the bound the metric is unresolved (unless every run of B
//! beats every run of A); and a gain needs at least ten A/B pairs, B ahead
//! in nine of ten, and a median gap wider than A's interquartile range.

use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of A's median.
    pub bound: f64,
}

/// Reads the end-to-end metrics and their bounds from `BENCHMARK.json`.
///
/// # Errors
///
/// Returns a message when the file is not the expected shape.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let value: Value = serde_json::from_str(benchmark_json).map_err(|err| err.to_string())?;
    let Some(Value::Array(metrics)) = value.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_owned());
    };
    metrics
        .iter()
        .map(|metric| {
            let text = |key: &str| match metric.get(key) {
                Some(Value::Str(text)) => Ok(text.clone()),
                _ => Err(format!("end_to_end entry without {key}")),
            };
            let bound = match metric.get("bound") {
                Some(Value::F64(x)) => *x,
                Some(Value::U64(x)) => *x as f64,
                _ => return Err("end_to_end entry without bound".to_owned()),
            };
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound,
            })
        })
        .collect()
}

/// Untraced run records, `workload → metric → values in run order`, from
/// the JSON lines `rcm-bench run --record` appends.
///
/// # Errors
///
/// Returns a message for a line that is not a run record.
pub fn records(jsonl: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for line in jsonl.lines().filter(|line| !line.trim().is_empty()) {
        let record: Value = serde_json::from_str(line).map_err(|err| err.to_string())?;
        let (Some(Value::Str(workload)), Some(Value::U64(0)), Some(result)) = (
            record.get("workload"),
            record.get("trace"),
            record.get("result"),
        ) else {
            continue;
        };
        let Some(Value::Object(metrics)) = result.get("metrics") else {
            return Err(format!("record without metrics: {line}"));
        };
        let per_metric = out.entry(workload.clone()).or_default();
        for (name, metric) in metrics {
            let value = match metric.get("value") {
                Some(Value::F64(x)) => *x,
                Some(Value::U64(x)) => *x as f64,
                _ => continue,
            };
            per_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(out)
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// B improved by the pairwise rule.
    Gain,
    /// A side's spread exceeds the bound; no claim either way.
    Unresolved,
    /// A side had no runs.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Regression => "REGRESSION",
            Verdict::Gain => "gain",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// Judges B against A for one metric.
#[must_use]
pub fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Missing;
    }
    let better = |x: f64, y: f64| if bound.lower_is_better { x < y } else { x > y };
    let spread = |values: &[f64]| {
        let (q1, q3) = quartiles(values);
        (q3 - q1).abs() / median(values).abs().max(f64::MIN_POSITIVE)
    };
    let (a_median, b_median) = (median(a), median(b));
    let worse_by = if bound.lower_is_better {
        b_median - a_median
    } else {
        a_median - b_median
    } / a_median.abs().max(f64::MIN_POSITIVE);
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    let (q1, q3) = quartiles(a);
    if pairs >= 10
        && wins * 10 >= pairs * 9
        && better(b_median, a_median)
        && (b_median - a_median).abs() > q3 - q1
    {
        return Verdict::Gain;
    }
    if spread(a) > bound.bound || spread(b) > bound.bound {
        let every_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if every_b_better {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound.bound {
        return Verdict::Regression;
    }
    Verdict::WithinBound
}

/// The comparison table, and whether any metric regressed.
#[must_use]
pub fn report(
    bounds: &[Bound],
    a: &BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    b: &BTreeMap<String, BTreeMap<String, Vec<f64>>>,
) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:<15} {:>4} {:>12} {:>12} {:>12} {:>4} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "n_A",
        "A p25",
        "A median",
        "A p75",
        "n_B",
        "B p25",
        "B median",
        "B p75",
        "B-A %",
        "bound"
    );
    let mut regressed = false;
    let workloads: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let empty = BTreeMap::new();
    for workload in workloads {
        let a_metrics = a.get(workload).unwrap_or(&empty);
        let b_metrics = b.get(workload).unwrap_or(&empty);
        for bound in bounds {
            let a_values = a_metrics.get(&bound.name).map_or(&[][..], Vec::as_slice);
            let b_values = b_metrics.get(&bound.name).map_or(&[][..], Vec::as_slice);
            let verdict = judge(bound, a_values, b_values);
            regressed |= verdict == Verdict::Regression;
            let (a1, a3) = quartiles(a_values);
            let (b1, b3) = quartiles(b_values);
            let (am, bm) = (median(a_values), median(b_values));
            let change = 100.0 * (bm - am) / am.abs().max(f64::MIN_POSITIVE);
            let _ = writeln!(
                out,
                "{workload:<15} {:<15} {:>4} {a1:>12.5} {am:>12.5} {a3:>12.5} {:>4} {b1:>12.5} {bm:>12.5} {b3:>12.5} {change:>8.2} {:>5.0}%  {}",
                bound.name,
                a_values.len(),
                b_values.len(),
                100.0 * bound.bound,
                verdict.label()
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall_bound() -> Bound {
        Bound {
            name: "wall_s".to_owned(),
            unit: "s".to_owned(),
            lower_is_better: true,
            bound: 0.1,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_pairwise_rule() {
        let bound = wall_bound();
        let a: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let same: Vec<f64> = a.iter().map(|x| x + 0.001).collect();
        assert_eq!(judge(&bound, &a, &same), Verdict::WithinBound);
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&bound, &a, &slower), Verdict::Regression);
        let faster: Vec<f64> = a.iter().map(|x| x * 0.95).collect();
        assert_eq!(judge(&bound, &a, &faster), Verdict::Gain);
        // Five pairs are too few to claim a gain.
        assert_eq!(judge(&bound, &a[..5], &faster[..5]), Verdict::WithinBound);
        let noisy = vec![5.0, 15.0, 8.0, 12.0, 10.0, 20.0, 4.0, 9.0, 11.0, 10.0];
        assert_eq!(judge(&bound, &a, &noisy), Verdict::Unresolved);
        // Too noisy for a verdict on the median, but no run of B is worse
        // than any run of A, and five pairs cannot claim a gain.
        let noisy_but_faster = [1.0, 5.0, 9.0, 2.0, 8.0];
        assert_eq!(
            judge(&bound, &a[..5], &noisy_but_faster),
            Verdict::WithinBound
        );
        assert_eq!(judge(&bound, &a, &[]), Verdict::Missing);
    }

    #[test]
    fn bounds_and_records_parse() {
        let benchmark =
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#;
        assert_eq!(bounds(benchmark).unwrap(), vec![wall_bound()]);
        let jsonl = concat!(
            r#"{"workload": "paper_batch", "seed": 1, "trace": 0, "result": {"correct": true, "attempted": 5, "failed": 0, "metrics": {"wall_s": {"value": 3.5, "unit": "s"}}}}"#,
            "\n",
            r#"{"workload": "paper_batch", "seed": 2, "trace": 1, "result": {"correct": true, "attempted": 5, "failed": 0, "metrics": {"kernel.route_ms": {"value": 9.0, "unit": "ms"}}}}"#,
            "\n"
        );
        let parsed = records(jsonl).unwrap();
        assert_eq!(parsed["paper_batch"]["wall_s"], vec![3.5]);
        assert!(!parsed["paper_batch"].contains_key("kernel.route_ms"));
    }
}
