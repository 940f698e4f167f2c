//! Minimal aligned-table printer for the experiment harnesses.

/// Accumulates rows and prints them as an aligned text table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and column names.
    pub fn new<S: Into<String>>(title: &str, header: impl IntoIterator<Item = S>) -> Self {
        Table {
            title: title.to_string(),
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = format!("\n== {} ==\n", self.title);
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats an accuracy as the paper does (4 decimal places).
pub fn acc(a: f32) -> String {
    format!("{a:.4}")
}

/// Formats a cost factor relative to a dense reference (e.g. `0.014x`).
pub fn factor(value: f64, dense: f64) -> String {
    if dense <= 0.0 {
        return "n/a".into();
    }
    format!("{:.3}x", value / dense)
}

/// Formats bytes as MB with two decimals.
pub fn mb(bytes: f64) -> String {
    format!("{:.2}MB", bytes / 1e6)
}

/// Formats FLOPs in scientific notation like the paper's Table II.
pub fn flops(f: f64) -> String {
    format!("{f:.2e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", ["method", "acc"]);
        t.row(vec!["fedtiny".into(), "0.8523".into()]);
        t.row(vec!["snip".into(), "0.72".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("fedtiny"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", ["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(acc(0.85234), "0.8523");
        assert_eq!(factor(14.0, 1000.0), "0.014x");
        assert_eq!(factor(1.0, 0.0), "n/a");
        assert_eq!(mb(2_790_000.0), "2.79MB");
        assert!(flops(9.15e10).contains("e10"));
    }
}
