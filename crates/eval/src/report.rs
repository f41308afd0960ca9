//! Fixed-width text tables for experiment output.
//!
//! Every table/figure runner renders its result through this module so that
//! `cargo run -p vdb-bench --bin tables` prints rows directly comparable to
//! the paper's.

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-justified (names).
    Left,
    /// Right-justified (numbers).
    Right,
}

/// A simple fixed-width table builder.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with headers; alignment defaults to Left for the first
    /// column and Right for the rest (name + numbers, the common case).
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        let aligns = (0..headers.len())
            .map(|i| if i == 0 { Align::Left } else { Align::Right })
            .collect();
        Table {
            headers,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the cell count does not match the header count.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Append a separator row (rendered as dashes).
    pub fn separator(&mut self) -> &mut Self {
        self.rows
            .push(vec![String::from("\u{0}--"); self.headers.len()]);
        self
    }

    /// Number of data rows (separators included).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let char_len = |s: &String| s.chars().count();
        let mut widths: Vec<usize> = self.headers.iter().map(char_len).collect();
        for row in &self.rows {
            if row[0].starts_with('\u{0}') {
                continue;
            }
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(char_len(cell));
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i].saturating_sub(cell.chars().count());
                match self.aligns[i] {
                    Align::Left => {
                        out.push_str(cell);
                        out.extend(std::iter::repeat(' ').take(pad));
                    }
                    Align::Right => {
                        out.extend(std::iter::repeat(' ').take(pad));
                        out.push_str(cell);
                    }
                }
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.extend(std::iter::repeat('-').take(total));
        out.push('\n');
        for row in &self.rows {
            if row[0].starts_with('\u{0}') {
                out.extend(std::iter::repeat('-').take(total));
                out.push('\n');
            } else {
                render_row(&mut out, row);
            }
        }
        out
    }
}

/// Format a ratio as the paper does (two decimals, e.g. `0.90`).
pub fn ratio(v: f64) -> String {
    format!("{v:.2}")
}

/// Format seconds as the paper's `min:sec`.
pub fn min_sec(total_secs: u32) -> String {
    format!("{}:{:02}", total_secs / 60, total_secs % 60)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["Name", "Recall"]);
        t.row(vec!["Silk Stalkings", "0.97"]);
        t.row(vec!["ATF", "0.94"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Numbers right-aligned under the header.
        assert!(lines[2].ends_with("0.97"));
        assert!(lines[3].ends_with("0.94"));
        // Name column width set by the longest name.
        assert_eq!(lines[2].find("0.97"), lines[3].find("0.94"));
    }

    #[test]
    fn separator_rows() {
        let mut t = Table::new(vec!["A", "B"]);
        t.row(vec!["x", "1"]);
        t.separator();
        t.row(vec!["total", "1"]);
        let s = t.render();
        assert_eq!(s.lines().filter(|l| l.chars().all(|c| c == '-')).count(), 2);
        assert_eq!(t.len(), 3);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        Table::new(vec!["A", "B"]).row(vec!["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(0.896), "0.90");
        assert_eq!(ratio(1.0), "1.00");
        assert_eq!(min_sec(624), "10:24");
        assert_eq!(min_sec(59), "0:59");
        assert_eq!(min_sec(16724), "278:44");
    }
}
