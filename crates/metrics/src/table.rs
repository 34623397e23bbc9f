//! A minimal text-table renderer shared by the experiment binaries.
//!
//! Every figure/table of the paper is regenerated as a plain-text table on stdout (and
//! as JSON next to it); keeping the renderer here avoids each experiment binary
//! reinventing column alignment.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.  Rows shorter than the header are padded with empty cells; longer
    /// rows are allowed (the extra cells get their own width).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table.
    pub fn render(&self) -> String {
        let n_cols = self
            .rows
            .iter()
            .map(std::vec::Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; n_cols];
        let all_rows = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String]| {
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map_or("", String::as_str);
                if i == 0 {
                    let _ = write!(out, "{cell:<width$}");
                } else {
                    let _ = write!(out, "  {cell:>width$}");
                }
            }
            out.push('\n');
        };
        if !self.header.is_empty() {
            write_row(&mut out, &self.header);
            let total: usize = widths.iter().sum::<usize>() + 2 * (n_cols.saturating_sub(1));
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["config", "IPC", "relative"]);
        t.row(["unified", "5.12", "1.00"]);
        t.row(["4-cluster/1-bus", "4.87", "0.95"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header, rule, two rows
        assert!(lines[0].starts_with("config"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Numeric columns are right-aligned: both IPC cells end at the same column.
        let pos_a = lines[2].rfind("5.12").unwrap() + 4;
        let pos_b = lines[3].rfind("4.87").unwrap() + 4;
        assert_eq!(pos_a, pos_b);
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = TextTable::new(["x"]);
        t.row(["a", "b", "c"]);
        t.row(["only"]);
        let text = t.render();
        assert!(text.contains('c'));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TextTable::new(["one", "two"]);
        let text = t.render();
        assert!(text.contains("one"));
        assert!(t.is_empty());
    }
}
