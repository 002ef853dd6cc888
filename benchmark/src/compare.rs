//! `compare A.json B.json`: per (workload, end-to-end metric) both
//! medians with quartiles, the ratio with its base, and a verdict.
//! All four end-to-end metrics are better when lower.

use crate::json::Json;
use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges side `b` against its base `a`.
///
/// * *unresolved* — the run-to-run spread (the wider side's
///   interquartile range as a share of the base median) exceeds the
///   bound and the sides' runs overlap: the data cannot tell.
/// * *worse* — `b`'s median is worse than `a`'s by more than the bound.
/// * *better* — `b`'s median is better by more than the spread.
/// * *same* — anything else.
///
/// A base median of 0 (`failed_share`) makes the differences absolute.
pub fn verdict(a: &Summary, b: &Summary, bound: f64) -> Verdict {
    let base = if a.median == 0.0 { 1.0 } else { a.median.abs() };
    let worsening = (b.median - a.median) / base;
    let spread = (a.q3 - a.q1).max(b.q3 - b.q1) / base;
    let overlap = a.min <= b.max && b.min <= a.max;
    if spread > bound && overlap {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -spread {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One side's summary of a metric, from its recorded runs; `None` when
/// the file has the metric as unresolved.
fn side(metric: &Json) -> Option<Summary> {
    let runs: Vec<f64> = metric
        .get("runs")?
        .items()
        .iter()
        .filter_map(Json::num)
        .collect();
    Summary::of(&runs)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn fmt_side(s: &Option<Summary>) -> String {
    match s {
        Some(s) => format!("{:.6} [{:.6}, {:.6}] n={}", s.median, s.q1, s.q3, s.n),
        None => "unresolved".into(),
    }
}

/// Prints the comparison; `Ok(true)` when any verdict is *worse*.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let seed = |doc: &Json| {
        doc.get("provenance")
            .and_then(|p| p.get("seed"))
            .and_then(Json::num)
    };
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    println!("A = {path_a}");
    println!("B = {path_b}");
    println!("workload metric | A median [q1, q3] n | B median [q1, q3] n | B/A | verdict");
    let mut any_worse = false;
    let empty = Json::obj();
    for (name, wa) in a.get("workloads").unwrap_or(&empty).fields() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name}: only in A");
            continue;
        };
        for (metric, ma) in wa.get("end_to_end").unwrap_or(&empty).fields() {
            let Some(mb) = wb.get("end_to_end").and_then(|e| e.get(metric)) else {
                println!("{name} {metric}: only in A");
                continue;
            };
            let bound = ma.num_at("bound")?;
            let (sa, sb) = (side(ma), side(mb));
            let (ratio, verdict) = match (&sa, &sb) {
                (Some(sa), Some(sb)) => {
                    let ratio = if sa.median == 0.0 {
                        "-".to_string()
                    } else {
                        format!("{:.4}", sb.median / sa.median)
                    };
                    (ratio, verdict(sa, sb, bound))
                }
                _ => ("-".to_string(), Verdict::Unresolved),
            };
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{name} {metric} | {} | {} | {ratio} | {} (bound {bound})",
                fmt_side(&sa),
                fmt_side(&sb),
                verdict.name()
            );
        }
        // Simulated statistics and exact counts do not depend on the
        // host: with the same seed any difference is a change in what
        // was simulated, not noise.
        if same_seed {
            let fp = |w: &Json| w.get("fingerprint").and_then(Json::str).map(str::to_string);
            let same = fp(wa) == fp(wb);
            println!(
                "{name} fingerprint | {}",
                if same { "identical" } else { "DIFFERENT" }
            );
            let mut differ = Vec::new();
            for (layer, la) in wa.get("per_layer").unwrap_or(&empty).fields() {
                let is_count = la.get("unit").and_then(Json::str) == Some("count");
                let lb = wb.get("per_layer").and_then(|p| p.get(layer));
                if is_count && lb.and_then(|l| l.get("value")) != la.get("value") {
                    differ.push(layer.as_str());
                }
            }
            if differ.is_empty() {
                println!("{name} exact counts | identical");
            } else {
                println!("{name} exact counts | DIFFERENT: {}", differ.join(", "));
            }
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Summary {
        Summary::of(values).unwrap()
    }

    /// The verdict table, row by row.
    #[test]
    fn verdict_table() {
        let tight = runs(&[100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.0]);
        let shift = |s: &Summary, by: f64| {
            runs(&[s.min + by, s.q1 + by, s.median + by, s.q3 + by, s.max + by])
        };
        // Inside the bound and inside the spread: same.
        assert_eq!(verdict(&tight, &shift(&tight, 0.5), 0.07), Verdict::Same);
        // Median worse by more than the bound: worse.
        assert_eq!(verdict(&tight, &shift(&tight, 10.0), 0.07), Verdict::Worse);
        // Worse, but by less than the bound: same.
        assert_eq!(verdict(&tight, &shift(&tight, 5.0), 0.07), Verdict::Same);
        // Better by more than the spread: better.
        assert_eq!(verdict(&tight, &shift(&tight, -5.0), 0.07), Verdict::Better);

        // Spread wider than the bound and overlapping runs: unresolved,
        // whichever way the medians lean.
        let noisy = runs(&[100.0, 120.0, 90.0, 115.0, 85.0, 100.0, 105.0]);
        assert_eq!(
            verdict(&noisy, &shift(&noisy, 3.0), 0.07),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &shift(&noisy, -3.0), 0.07),
            Verdict::Unresolved
        );
        // Spread wider than the bound but every run of B beyond every
        // run of A: resolved after all.
        assert_eq!(verdict(&noisy, &shift(&noisy, 60.0), 0.07), Verdict::Worse);
        assert_eq!(
            verdict(&noisy, &shift(&noisy, -60.0), 0.07),
            Verdict::Better
        );
    }

    /// `failed_share` has a base of 0 and a bound of 0.
    #[test]
    fn zero_base_compares_absolutely() {
        let clean = runs(&[0.0]);
        assert_eq!(verdict(&clean, &clean, 0.0), Verdict::Same);
        assert_eq!(verdict(&clean, &runs(&[0.125]), 0.0), Verdict::Worse);
        assert_eq!(verdict(&runs(&[0.125]), &clean, 0.0), Verdict::Better);
    }
}
