//! Minimal ASCII result tables for the experiment harness.
//!
//! The benchmark binaries print the same rows the paper reports (Table III,
//! the series behind Figs. 3–4). No third-party table/CSV crate is used; this
//! module provides just enough alignment and CSV emission.

/// A simple named-column table of string cells.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title printed above the header.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells; each row should have `columns.len()` entries.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and columns.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row length does not match the column count.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "Table::push_row: expected {} cells, got {}",
            self.columns.len(),
            row.len()
        );
        self.rows.push(row);
    }

    /// Renders the table as aligned ASCII text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join(" | ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Quality", &["Method", "GED", "Fid+"]);
        t.push_row(vec!["RoboGExp".into(), "0.32".into(), "0.79".into()]);
        t.push_row(vec!["CF2".into(), "0.68".into(), "0.47".into()]);
        let s = t.render();
        assert!(s.contains("== Quality =="));
        assert!(s.contains("RoboGExp"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "expected 2 cells")]
    fn row_length_is_validated() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }
}
