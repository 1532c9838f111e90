//! Markdown table rendering for experiment reports.
//!
//! The experiment binaries print tables in the same layout as the paper's
//! Tables 1 and 2 (algorithms as rows, graph classes as columns), so a
//! measured table can be read side by side with the paper's.

use std::fmt::Write as _;

/// A simple column-aligned Markdown table builder.
///
/// # Examples
///
/// ```
/// use lb_analysis::Table;
///
/// let mut t = Table::new(vec!["algorithm".into(), "torus".into(), "hypercube".into()]);
/// t.add_row(vec!["alg1".into(), "3.0".into(), "4.0".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("| algorithm"));
/// assert!(rendered.contains("| alg1"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(header: Vec<String>) -> Self {
        assert!(!header.is_empty(), "table requires at least one column");
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Number of data rows added so far.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.header.len()
    }

    /// Appends a row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated.
    pub fn add_row(&mut self, mut row: Vec<String>) -> &mut Self {
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table as column-aligned Markdown.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            out.push('|');
            for (i, cell) in cells.iter().enumerate().take(cols) {
                let _ = write!(out, " {:<width$} |", cell, width = widths[i]);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        out.push('|');
        for width in &widths {
            let _ = write!(&mut out, "{:-<w$}|", "", w = width + 2);
        }
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Formats a float for table cells: two decimals, trimming a trailing ".00".
pub fn format_value(value: f64) -> String {
    let s = format!("{value:.2}");
    match s.strip_suffix(".00") {
        Some(trimmed) => trimmed.to_string(),
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(vec!["a".into(), "long header".into()]);
        t.add_row(vec!["x".into(), "1".into()]);
        t.add_row(vec!["yyyy".into(), "2".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("| a"));
        assert!(lines[1].starts_with("|--"));
        // All lines are equally wide thanks to padding.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.add_row(vec!["only one".into()]);
        t.add_row(vec!["1".into(), "2".into(), "3".into()]);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.column_count(), 2);
        let r = t.render();
        assert!(!r.contains('3'), "extra cell must be dropped");
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_header_rejected() {
        let _ = Table::new(vec![]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(format_value(3.0), "3");
        assert_eq!(format_value(2.46913), "2.47");
        assert_eq!(format_value(0.5), "0.50");
    }
}
