//! Minimal CSV writing so experiments leave machine-readable artifacts.
//!
//! Only what the harness needs: quoting of fields containing separators or
//! quotes, header row, and an in-memory builder that callers flush to disk
//! themselves.

/// In-memory CSV document builder.
#[derive(Debug, Clone)]
pub struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    /// Creates a CSV with the given header.
    pub(crate) fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Csv {
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

    /// Appends a row of floats formatted with full precision.
    pub(crate) fn row_f64(&mut self, cells: &[f64]) -> &mut Self {
        self.row(cells.iter().map(|v| format!("{v}")).collect())
    }

    /// Renders the document as a string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        push_row(&mut out, &self.header);
        for r in &self.rows {
            push_row(&mut out, r);
        }
        out
    }

    /// Writes the document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the filesystem.
    pub(crate) fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.render())
    }
}

fn push_row(out: &mut String, cells: &[String]) {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&escape(cell));
    }
    out.push('\n');
}

fn escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut c = Csv::new(vec!["a", "b"]);
        c.row(vec!["1".into(), "2".into()]);
        c.row_f64(&[0.5, 1.25]);
        assert_eq!(c.render(), "a,b\n1,2\n0.5,1.25\n");
        assert_eq!(c.rows.len(), 2);
    }

    #[test]
    fn quotes_fields_with_separators() {
        let mut c = Csv::new(vec!["text"]);
        c.row(vec!["hello, world".into()]);
        c.row(vec!["say \"hi\"".into()]);
        let text = c.render();
        assert!(text.contains("\"hello, world\""));
        assert!(text.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut c = Csv::new(vec!["a", "b"]);
        c.row(vec!["x".into()]);
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join("smrp-metrics-test");
        let path = dir.join("nested").join("out.csv");
        let mut c = Csv::new(vec!["v"]);
        c.row(vec!["42".into()]);
        c.write_to(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, "v\n42\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_document() {
        let c = Csv::new(vec!["only", "header"]);
        assert!(c.rows.is_empty());
        assert_eq!(c.render(), "only,header\n");
    }
}

#[cfg(test)]
mod props {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn csv_escaping_round_trips_simple_fields(
            cells in proptest::collection::vec("[a-z0-9 ,\"]{0,12}", 1..6),
        ) {
            let mut csv = Csv::new(vec!["h".to_string(); cells.len()]);
            csv.row(cells.clone());
            let rendered = csv.render();
            // The rendered document has exactly two lines (header + row) and
            // the number of unquoted commas in the header matches arity.
            let lines: Vec<&str> = rendered.lines().collect();
            prop_assert_eq!(lines.len(), 2);
            prop_assert_eq!(lines[0].split(',').count(), cells.len());
        }
    }
}
