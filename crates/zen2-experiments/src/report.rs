//! Text-table rendering and paper-vs-measured comparison helpers.

use std::fmt::Write as _;
use zen2_sim::Json;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if the row width disagrees with the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch in '{}'", self.title);
        self.rows.push(cells.to_vec());
    }

    /// Appends one row from displayable items.
    pub fn row_display(&mut self, cells: &[&dyn std::fmt::Display]) {
        self.row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, " {cell:>w$} |", w = w);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Writes the table as CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ =
            writeln!(out, "{}", self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// The table as a JSON tree: `{"title", "headers", "rows"}` with
    /// rows as objects keyed by header, so large-grid sweep summaries
    /// are machine-readable without a CSV parser.
    pub fn json(&self) -> Json {
        let row = |cells: &Vec<String>| {
            Json::Obj(self.headers.iter().cloned().zip(cells.iter().map(Json::str)).collect())
        };
        Json::obj([
            ("title", Json::str(&self.title)),
            ("headers", Json::Arr(self.headers.iter().map(Json::str).collect())),
            ("rows", Json::Arr(self.rows.iter().map(row).collect())),
        ])
    }

    /// The table as compact JSON text ([`Table::json`] rendered).
    pub fn to_json(&self) -> String {
        self.json().render()
    }
}

/// Renders a set of tables as one JSON array document — the `--json`
/// output shape shared by every experiment binary.
pub fn tables_to_json(tables: &[Table]) -> String {
    Json::Arr(tables.iter().map(Table::json).collect()).render()
}

/// Formats a paper-vs-measured pair with the relative deviation.
pub fn compare(paper: f64, measured: f64, unit: &str) -> String {
    let err = if paper.abs() > 1e-12 { (measured - paper) / paper * 100.0 } else { 0.0 };
    format!("{paper:.1}{unit} / {measured:.1}{unit} ({err:+.1}%)")
}

/// Formats a measured value with more precision.
pub fn compare_precise(paper: f64, measured: f64, unit: &str) -> String {
    let err = if paper.abs() > 1e-12 { (measured - paper) / paper * 100.0 } else { 0.0 };
    format!("{paper:.3}{unit} / {measured:.3}{unit} ({err:+.1}%)")
}

/// Relative deviation |measured−paper|/paper.
pub fn rel_err(paper: f64, measured: f64) -> f64 {
    assert!(paper.abs() > 1e-12, "relative error against zero reference");
    ((measured - paper) / paper).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "value"]);
        t.row(&["x".into(), "1.5".into()]);
        t.row(&["longer".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("| longer |"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn json_rows_are_keyed_by_header() {
        let mut t = Table::new("demo", &["sku", "value"]);
        t.row(&["EPYC 7502".into(), "1.5".into()]);
        t.row(&["quote\"comma,".into(), "2".into()]);
        assert_eq!(
            t.to_json(),
            "{\"title\":\"demo\",\"headers\":[\"sku\",\"value\"],\"rows\":[\
             {\"sku\":\"EPYC 7502\",\"value\":\"1.5\"},\
             {\"sku\":\"quote\\\"comma,\",\"value\":\"2\"}]}"
        );
    }

    #[test]
    fn json_escapes_control_characters() {
        let mut t = Table::new("t\n\t", &["a"]);
        t.row(&["\u{1}".into()]);
        let json = t.to_json();
        assert!(json.contains("\"t\\n\\t\""));
        assert!(json.contains("\\u0001"));
    }

    #[test]
    fn tables_concatenate_into_a_json_array() {
        let mut a = Table::new("a", &["x"]);
        a.row(&["1".into()]);
        let b = Table::new("b", &["y"]);
        assert_eq!(
            tables_to_json(&[a.clone(), b]),
            format!("[{},{}]", a.to_json(), Table::new("b", &["y"]).to_json())
        );
        assert_eq!(tables_to_json(&[]), "[]");
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("demo", &["a"]);
        t.row(&["x,y".into()]);
        assert!(t.to_csv().contains("\"x,y\""));
    }

    #[test]
    fn comparison_formatting() {
        let s = compare(92.0, 91.5, " ns");
        assert!(s.contains("92.0 ns"));
        assert!(s.contains("-0.5%"));
        assert!((rel_err(100.0, 95.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
