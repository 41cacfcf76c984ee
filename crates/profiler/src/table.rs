//! Plain-text table rendering for figure output.

use std::fmt;

/// A simple aligned text table with a title, header row and data rows.
///
/// Used by the figure generators to print paper-style tables to the
/// terminal and to export CSV.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            header: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the header row.
    pub fn header<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        self.header = cells.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a data row.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The header cells (empty slice when no header was set).
    pub fn header_cells(&self) -> &[String] {
        &self.header
    }

    /// Number of columns (widest of header and data rows).
    pub fn num_cols(&self) -> usize {
        self.header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0))
    }

    /// Renders as CSV (header first; fields quoted only when needed).
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        if !self.header.is_empty() {
            out.push_str(
                &self
                    .header
                    .iter()
                    .map(|c| escape(c))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths over header + rows.
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, c) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let total: usize = widths.iter().sum::<usize>() + 3 * cols.saturating_sub(1);
        writeln!(f, "{}", self.title)?;
        writeln!(f, "{}", "=".repeat(self.title.len().max(total)))?;
        let render_row = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect();
            writeln!(f, "{}", cells.join(" | ").trim_end())
        };
        if !self.header.is_empty() {
            render_row(f, &self.header)?;
            writeln!(f, "{}", "-".repeat(total))?;
        }
        for row in &self.rows {
            render_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo");
        t.header(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["longer", "22"]);
        let s = t.to_string();
        assert!(s.contains("Demo"));
        assert!(s.contains("name"));
        assert!(s.contains("longer | 22"));
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.title(), "Demo");
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("x");
        t.header(["a,b", "c"]);
        t.row(["v\"q", "2"]);
        let csv = t.to_csv();
        assert!(csv.starts_with("\"a,b\",c\n"));
        assert!(csv.contains("\"v\"\"q\",2"));
    }
}
