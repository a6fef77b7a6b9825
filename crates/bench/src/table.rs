//! Minimal aligned-column table printing for harness output.

/// A simple text table with a header row.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header's.
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a row of `labels` followed by `values`, each formatted by
    /// `fmt` (e.g. [`f2`] or [`pct`]).
    pub fn row_fmt(&mut self, labels: &[&str], values: &[f64], fmt: fn(f64) -> String) {
        let mut row: Vec<String> = labels.iter().map(|l| (*l).to_string()).collect();
        row.extend(values.iter().copied().map(fmt));
        self.row(&row);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 2 decimals.
#[must_use]
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a percentage with no decimals.
#[must_use]
pub fn pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.831), "83%");
    }
}
