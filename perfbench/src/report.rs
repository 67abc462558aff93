//! What a run reports: named metrics with units, output checks, and the
//! operation tally that becomes the final `attempted` / `failed` counts.

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Raw samples the value was computed from (`None` for derived values).
    pub samples: Option<usize>,
}

/// Metrics in the order they were produced.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64, samples: Option<usize>) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Everything one pass reports.
#[derive(Default)]
pub struct Record {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub tally: Tally,
}

/// Operations attempted and failed, plus every output check with its result.
/// A failed check counts as a failed operation.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool, String)>,
}

impl Tally {
    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records one output check; a failing check is one failed operation.
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
        }
        self.checks.push((name.to_string(), passed, detail));
    }

    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }
}

/// JSON string literal with the escapes this output can need.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits (NaN/inf become 0, which the
/// output checks already flag).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Human-readable table: metric, value, unit and sample count.
pub fn table(title: &str, metrics: &Metrics) -> String {
    let mut out = format!("== {title}\n");
    for m in &metrics.0 {
        let n = m.samples.map(|n| format!("n={n}")).unwrap_or_default();
        let _ = writeln!(
            out,
            "  {:<34} {:>16.4} {:<8} {}",
            m.name, m.value, m.unit, n
        );
    }
    out
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn final_line(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.all_passed(),
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}
