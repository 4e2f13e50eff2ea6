//! Minimal fixed-width table formatting for experiment output.

use base_simnet::{PhaseBreakdown, PHASES};

/// A simple text table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[impl AsRef<str>]) -> Self {
        Self {
            title: title.to_owned(),
            headers: headers.iter().map(|s| s.as_ref().to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity must match headers");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("{:<width$}  ", c, width = widths[i]));
            }
            line.trim_end().to_owned()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats nanoseconds as milliseconds with two decimals.
fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// A critical-path breakdown table: the `first` column, the p50 of each
/// [`PHASES`] entry (headed `"{phase}{suffix}"`), then the total's p50 and
/// p99.
pub fn phase_table(title: &str, first: &str, suffix: &str) -> Table {
    let phases = PHASES.iter().map(|(phase, _)| format!("{phase}{suffix}"));
    let totals = ["total p50".to_owned(), "total p99".to_owned()];
    let headers: Vec<String> =
        std::iter::once(first.to_owned()).chain(phases).chain(totals).collect();
    Table::new(title, &headers)
}

/// The [`phase_table`] row of `b`, in milliseconds.
pub fn phase_row(label: String, b: &PhaseBreakdown) -> Vec<String> {
    let p50s = b.phases.iter().map(|h| ms(h.quantile(0.5)));
    let totals = [ms(b.total.quantile(0.5)), ms(b.total.quantile(0.99))];
    std::iter::once(label).chain(p50s).chain(totals).collect()
}

/// Formats nanoseconds as seconds with three decimals.
pub fn secs(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e9)
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["short".into(), "1".into()]);
        t.row(&["a-much-longer-name".into(), "23456".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("a-much-longer-name"));
        let lines: Vec<&str> = s.lines().collect();
        // Header and rows aligned: the value column starts at the same
        // offset in the header and in every row.
        // lines: ["", "== demo ==", header, separator, row1, row2].
        let off = lines[2].find("value").unwrap();
        assert_eq!(lines[4].find('1').unwrap(), off);
        assert_eq!(lines[5].find("23456").unwrap(), off);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(1_500_000), "1.50");
        assert_eq!(secs(2_500_000_000), "2.500");
        assert_eq!(pct(0.301), "30.1%");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }
}
