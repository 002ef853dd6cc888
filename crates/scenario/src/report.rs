//! Result-table formatting.
//!
//! Every experiment produces an [`ExpTable`]; `exp_all` prints it and
//! EXPERIMENTS.md embeds it, so the numbers the repository reports
//! always come from one code path.

use core::fmt;
use std::time::Duration;

/// A titled table of experiment results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpTable {
    /// Experiment identifier and description (e.g. "E3 — PDR vs hops").
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (stringified by the experiment).
    pub rows: Vec<Vec<String>>,
}

impl ExpTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        ExpTable {
            title: title.into(),
            columns: columns.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} != column count {}",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Renders as CSV (header row first) for external plotting tools.
    /// Cells containing commas or quotes are quoted per RFC 4180.
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| cell(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Renders as a GitHub-flavoured markdown table (for EXPERIMENTS.md).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.columns.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

impl fmt::Display for ExpTable {
    /// Renders as an aligned plain-text table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "{}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut parts = Vec::with_capacity(cells.len());
            for (w, cell) in widths.iter().zip(cells) {
                parts.push(format!("{cell:>w$}", w = w));
            }
            writeln!(f, "  {}", parts.join("  "))
        };
        line(f, &self.columns)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        writeln!(f, "  {}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats a duration as fractional seconds, e.g. `12.345 s`.
#[must_use]
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3} s", d.as_secs_f64())
}

/// Formats a duration as milliseconds, e.g. `41.2 ms`.
#[must_use]
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.1} ms", d.as_secs_f64() * 1000.0)
}

/// Formats a ratio as a percentage, e.g. `97.5 %`.
#[must_use]
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1} %", x * 100.0)
}

/// Formats a byte rate, e.g. `123.4 B/s`.
#[must_use]
pub fn fmt_rate(bytes_per_sec: f64) -> String {
    format!("{bytes_per_sec:.1} B/s")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ExpTable {
        let mut t = ExpTable::new("E0 — demo", &["n", "pdr"]);
        t.push_row(vec!["3".into(), "100.0 %".into()]);
        t.push_row(vec!["12".into(), "93.1 %".into()]);
        t
    }

    #[test]
    fn display_aligns_columns() {
        let s = table().to_string();
        assert!(s.starts_with("E0 — demo\n"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[1].contains("n"));
        assert!(lines[3].trim_start().starts_with('3'));
    }

    #[test]
    fn markdown_shape() {
        let md = table().to_markdown();
        assert!(md.contains("### E0 — demo"));
        assert!(md.contains("| n | pdr |"));
        assert!(md.contains("| 12 | 93.1 % |"));
        // 4 table lines (header, separator, 2 rows) × 3 pipes each.
        assert_eq!(md.matches('|').count(), 12);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_rejected() {
        let mut t = ExpTable::new("x", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn csv_shape_and_quoting() {
        let mut t = ExpTable::new("x", &["a", "b"]);
        t.push_row(vec!["1,5".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"1,5\",\"say \"\"hi\"\"\"\n");
        assert_eq!(table().to_csv().lines().count(), 3);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(Duration::from_millis(1500)), "1.500 s");
        assert_eq!(fmt_ms(Duration::from_micros(41200)), "41.2 ms");
        assert_eq!(fmt_pct(0.975), "97.5 %");
        assert_eq!(fmt_rate(123.45), "123.5 B/s");
    }
}
