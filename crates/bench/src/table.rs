//! Table rendering: the paper's layout for Tables 1 and 2, and the
//! text-or-CSV [`Table`] every other experiment prints through.

use crate::experiments::{mean_improvement, ComparisonRow};

/// Render rows in the paper's layout:
///
/// ```text
/// B.  Size   S.F.      SCDS  Comm %   LOMCDS Comm %   GOMCDS Comm %
/// ```
pub fn render(title: &str, rows: &[ComparisonRow]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let methods: Vec<String> = rows
        .first()
        .map(|r| r.entries.iter().map(|e| e.0.to_string()).collect())
        .unwrap_or_default();

    out.push_str(&format!("{:<3} {:>7} {:>10}", "B.", "Size", "S.F."));
    for m in &methods {
        out.push_str(&format!(" | {:>12} {:>6}", m, "%"));
    }
    out.push('\n');
    let width = 22 + methods.len() * 23;
    out.push_str(&"-".repeat(width));
    out.push('\n');

    for r in rows {
        out.push_str(&format!(
            "{:<3} {:>4}x{:<3} {:>9}",
            r.bench, r.size, r.size, r.sf
        ));
        for &(_, cost, pct) in &r.entries {
            out.push_str(&format!(" | {cost:>12} {pct:>5.1}%"));
        }
        out.push('\n');
    }

    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!("{:<3} {:>7} {:>10}", "avg", "", ""));
    for i in 0..methods.len() {
        out.push_str(&format!(
            " | {:>12} {:>5.1}%",
            "",
            mean_improvement(rows, i)
        ));
    }
    out.push('\n');
    out
}

/// Render rows as CSV (one line per row-method pair).
pub fn render_csv(rows: &[ComparisonRow]) -> String {
    let mut out = String::from("bench,size,sf,method,comm,improvement_pct\n");
    for r in rows {
        for &(m, cost, pct) in &r.entries {
            out.push_str(&format!(
                "{},{},{},{},{},{:.2}\n",
                r.bench, r.size, r.sf, m, cost, pct
            ));
        }
    }
    out
}

/// One table cell.
#[derive(Debug, Clone)]
pub enum Cell {
    /// Free text, written as is.
    Text(String),
    /// A count or a cost.
    Int(u64),
    /// A percentage: the given number of decimals and a `%` sign in text,
    /// two decimals and no sign in CSV.
    Pct(f64, usize),
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Int(v as u64)
    }
}

/// A one-decimal percentage cell.
pub fn pct(v: f64) -> Cell {
    Cell::Pct(v, 1)
}

/// An experiment table printed to stdout from one column list, either as
/// aligned text (title, header, rows, blank lines between groups, notes)
/// or as CSV (header and rows only).
#[derive(Debug)]
pub struct Table {
    csv: bool,
    /// Per column: CSV name, text name, text width, left-aligned.
    cols: Vec<(&'static str, &'static str, usize, bool)>,
}

impl Table {
    /// Start a table and print its header. `csv_header` names the columns
    /// for CSV (`a,b,c`); `layout` gives their text headers in the same
    /// order as `{name:<width}` (left-aligned) or `{name:>width}` fields.
    /// Text mode prints `title` and a blank line first.
    pub fn new(csv: bool, title: &str, csv_header: &'static str, layout: &'static str) -> Table {
        let cols: Vec<_> = csv_header
            .split(',')
            .zip(layout.split('{').skip(1))
            .map(|(csv_name, field)| {
                let field = field.split('}').next().unwrap_or_default();
                let (text, fmt) = field.rsplit_once(':').expect("a {name:<w} field");
                let width = fmt[1..].parse().expect("a numeric field width");
                (csv_name, text, width, fmt.starts_with('<'))
            })
            .collect();
        let fields = layout.matches('{').count();
        assert!(
            cols.len() == fields && cols.len() == csv_header.split(',').count(),
            "one text field per CSV column"
        );
        let table = Table { csv, cols };
        if !csv {
            println!("{title}\n");
        }
        let header: Vec<Cell> = table
            .cols
            .iter()
            .map(|&(csv_name, text, _, _)| Cell::from(if csv { csv_name } else { text }))
            .collect();
        table.row(&header);
        table
    }

    /// Print one row; `cells` pair up with the columns in order.
    pub fn row(&self, cells: &[Cell]) {
        println!("{}", self.render(cells));
    }

    fn render(&self, cells: &[Cell]) -> String {
        assert_eq!(cells.len(), self.cols.len(), "one cell per column");
        let fields: Vec<String> = cells
            .iter()
            .zip(&self.cols)
            .map(|(cell, &(_, _, width, left))| {
                let s = match (cell, self.csv) {
                    (Cell::Text(s), _) => s.clone(),
                    (Cell::Int(v), _) => v.to_string(),
                    (Cell::Pct(v, digits), false) => format!("{v:.digits$}%"),
                    (Cell::Pct(v, _), true) => format!("{v:.2}"),
                };
                match (self.csv, left) {
                    (true, _) => s,
                    (false, true) => format!("{s:<width$}"),
                    (false, false) => format!("{s:>width$}"),
                }
            })
            .collect();
        fields.join(if self.csv { "," } else { " " })
    }

    /// End a group of rows: a blank line in text mode.
    pub fn gap(&self) {
        self.note("");
    }

    /// A remark under the table, printed in text mode only.
    pub fn note(&self, text: &str) {
        if !self.csv {
            println!("{text}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<ComparisonRow> {
        vec![ComparisonRow {
            bench: "1",
            size: 8,
            sf: 1000,
            entries: vec![("SCDS", 800, 20.0), ("GOMCDS", 600, 40.0)],
        }]
    }

    #[test]
    fn render_contains_everything() {
        let s = render("Table 1", &rows());
        assert!(s.contains("Table 1"));
        assert!(s.contains("S.F."));
        assert!(s.contains("SCDS"));
        assert!(s.contains("GOMCDS"));
        assert!(s.contains("8x8"));
        assert!(s.contains("1000"));
        assert!(s.contains("20.0%"));
        assert!(s.contains("avg"));
    }

    #[test]
    fn csv_shape() {
        let s = render_csv(&rows());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "bench,size,sf,method,comm,improvement_pct");
        assert!(lines[1].starts_with("1,8,1000,SCDS,800,20.00"));
    }

    #[test]
    fn table_renders_text_and_csv_from_one_column_list() {
        let text = Table::new(false, "T", "bench,gain_pct", "{B.:<4} {gain:>7}");
        let csv = Table::new(true, "T", "bench,gain_pct", "{B.:<4} {gain:>7}");
        let row = [Cell::from("1"), Cell::Pct(12.3456, 1)];
        assert_eq!(text.render(&row), "1      12.3%");
        assert_eq!(csv.render(&row), "1,12.35");
        assert_eq!(csv.render(&[Cell::from(3usize), Cell::Int(7)]), "3,7");
    }

    #[test]
    fn render_empty() {
        let s = render("empty", &[]);
        assert!(s.contains("empty"));
    }
}
