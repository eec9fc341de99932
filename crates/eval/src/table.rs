use std::fmt;

/// Minimal ASCII table renderer for experiment reports.
///
/// Every experiment runner renders through this so `aimq-eval` prints
/// uniform, diff-able output (recorded in `EXPERIMENTS.md`).
#[derive(Debug, Clone)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity must match header"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let sep: String = widths
            .iter()
            .map(|w| format!("+{}", "-".repeat(w + 2)))
            .collect::<String>()
            + "+";

        writeln!(f, "{}", self.title)?;
        writeln!(f, "{sep}")?;
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("| {:width$} ", c, width = widths[i]))
                .collect::<String>()
                + "|"
        };
        writeln!(f, "{}", fmt_row(&self.header))?;
        writeln!(f, "{sep}")?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        write!(f, "{sep}")
    }
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a `Duration` as fractional seconds.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = TextTable::new("Demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "12345".into()]);
        let s = t.to_string();
        assert!(s.starts_with("Demo\n"));
        assert!(s.contains("| name  | value |"));
        assert!(s.contains("| alpha | 1     |"));
        assert!(s.contains("| b     | 12345 |"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new("Demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn helpers_format() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(secs(std::time::Duration::from_millis(2500)), "2.50s");
    }
}
