//! Fixed-width text tables for terminal experiment reports.

/// A simple right-padded text table.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub(crate) fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub(crate) fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match the header"
        );
        self.rows.push(cells);
        self
    }

    /// Renders the table with a separator under the header.
    pub(crate) fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for i in 0..cols {
                if i > 0 {
                    out.push_str("  ");
                }
                let cell = &cells[i];
                out.push_str(cell);
                for _ in cell.len()..widths[i] {
                    out.push(' ');
                }
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a fraction as a percentage with one decimal, e.g. `0.201` →
/// `"20.1%"`.
pub(crate) fn percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "long_header"]);
        t.row(vec!["wide_cell_here".into(), "x".into()]);
        t.row(vec!["y".into(), "z".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // Column 2 starts at the same offset in every data row.
        let off = lines[2].find('x').unwrap();
        assert_eq!(lines[3].find('z').unwrap(), off);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new(vec!["col"]);
        assert!(t.rows.is_empty());
        let text = t.render();
        assert!(text.starts_with("col\n"));
    }

    #[test]
    fn percent_formats() {
        assert_eq!(percent(0.201), "20.1%");
        assert_eq!(percent(-0.05), "-5.0%");
        assert_eq!(percent(0.0), "0.0%");
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new(vec!["h"]);
        t.row(vec!["v".into()]);
        assert_eq!(t.to_string(), t.render());
    }
}
