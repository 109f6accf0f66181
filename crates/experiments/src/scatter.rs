//! ASCII scatter plots with a `y = x` reference line (Figure 7).
//!
//! Figure 7 of the paper plots, for every member in every topology, the
//! recovery distance via global detour (x) against the local detour (y);
//! the claim is that most points fall below the diagonal. This module
//! renders the same picture in a terminal.

/// Configuration and renderer for an ASCII scatter plot.
#[derive(Debug, Clone)]
pub(crate) struct ScatterPlot {
    title: String,
    x_label: String,
    y_label: String,
    width: usize,
    height: usize,
    diagonal: bool,
    points: Vec<(f64, f64)>,
}

impl ScatterPlot {
    /// Creates an empty plot with default 60×24 character canvas.
    pub(crate) fn new<S: Into<String>>(title: S) -> Self {
        ScatterPlot {
            title: title.into(),
            x_label: "x".to_string(),
            y_label: "y".to_string(),
            width: 60,
            height: 24,
            diagonal: false,
            points: Vec::new(),
        }
    }

    /// Sets the axis labels.
    pub(crate) fn labels<S: Into<String>>(mut self, x: S, y: S) -> Self {
        self.x_label = x.into();
        self.y_label = y.into();
        self
    }

    /// Sets the canvas size in characters.
    pub(crate) fn size(mut self, width: usize, height: usize) -> Self {
        self.width = width.max(10);
        self.height = height.max(5);
        self
    }

    /// Draws the `y = x` reference diagonal.
    pub(crate) fn with_diagonal(mut self) -> Self {
        self.diagonal = true;
        self
    }

    /// Adds many points.
    pub(crate) fn extend<I: IntoIterator<Item = (f64, f64)>>(&mut self, iter: I) {
        self.points.extend(iter);
    }

    /// Fraction of points strictly below the diagonal (`y < x`). The
    /// paper's headline for Figure 7 is that this is well above one half.
    pub(crate) fn below_diagonal_fraction(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let below = self.points.iter().filter(|(x, y)| y < x).count();
        below as f64 / self.points.len() as f64
    }

    /// Renders the plot.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        if self.points.is_empty() {
            out.push_str("(no points)\n");
            return out;
        }
        let max_x = self
            .points
            .iter()
            .map(|p| p.0)
            .fold(f64::NEG_INFINITY, f64::max);
        let max_y = self
            .points
            .iter()
            .map(|p| p.1)
            .fold(f64::NEG_INFINITY, f64::max);
        // Square scale so the diagonal is meaningful.
        let max = max_x.max(max_y).max(f64::MIN_POSITIVE);

        let mut grid = vec![vec![' '; self.width]; self.height];
        if self.diagonal {
            let (w, h) = (self.width, self.height);
            for (col, x) in (0..w).map(|c| (c, c as f64 / (w - 1) as f64)) {
                let row = ((1.0 - x) * (h - 1) as f64).round() as usize;
                grid[row][col] = '.';
            }
        }
        for &(x, y) in &self.points {
            let col = ((x / max) * (self.width - 1) as f64).round() as usize;
            let row = ((1.0 - y / max) * (self.height - 1) as f64).round() as usize;
            let col = col.min(self.width - 1);
            let row = row.min(self.height - 1);
            grid[row][col] = '*';
        }
        for (i, line) in grid.iter().enumerate() {
            let ylab = if i == 0 {
                format!("{max:>8.1} |")
            } else if i == self.height - 1 {
                format!("{:>8.1} |", 0.0)
            } else {
                "         |".to_string()
            };
            out.push_str(&ylab);
            let row: String = line.iter().collect();
            out.push_str(row.trim_end());
            out.push('\n');
        }
        out.push_str("         +");
        out.push_str(&"-".repeat(self.width));
        out.push('\n');
        out.push_str(&format!(
            "          0{:>width$.1}\n",
            max,
            width = self.width - 1
        ));
        out.push_str(&format!(
            "          x: {}, y: {} ({} points, {:.0}% below y = x)\n",
            self.x_label,
            self.y_label,
            self.points.len(),
            self.below_diagonal_fraction() * 100.0
        ));
        out
    }
}

impl std::fmt::Display for ScatterPlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_diagonal_fraction_counts_correctly() {
        let mut p = ScatterPlot::new("t");
        p.extend([
            (1.0, 0.5), // below
            (1.0, 2.0), // above
            (2.0, 1.0), // below
            (1.0, 1.0), // on the line: not below
        ]);
        assert!((p.below_diagonal_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_plot_renders_placeholder() {
        let p = ScatterPlot::new("empty");
        assert!(p.points.is_empty());
        assert!(p.render().contains("(no points)"));
        assert_eq!(p.below_diagonal_fraction(), 0.0);
    }

    #[test]
    fn render_contains_points_and_diagonal() {
        let mut p = ScatterPlot::new("fig7").with_diagonal().size(30, 10);
        p.extend([(1.0, 0.5), (2.0, 1.5), (3.0, 2.0)]);
        let text = p.render();
        assert!(text.contains('*'));
        assert!(text.contains('.'));
        assert!(text.contains("below y = x"));
        assert_eq!(p.points.len(), 3);
    }

    #[test]
    fn labels_appear_in_footer() {
        let mut p = ScatterPlot::new("t").labels("global RD", "local RD");
        p.extend([(1.0, 1.0)]);
        let text = p.render();
        assert!(text.contains("global RD"));
        assert!(text.contains("local RD"));
    }

    #[test]
    fn extreme_points_stay_in_bounds() {
        let mut p = ScatterPlot::new("t").size(20, 8);
        p.extend([(0.0, 0.0), (100.0, 100.0), (100.0, 0.0), (0.0, 100.0)]);
        // Must not panic, and the grid rows (between title and axis) stay
        // within the canvas width plus the y-label margin.
        let text = p.render();
        for line in text.lines().skip(1).take(8) {
            assert!(line.len() <= 20 + 10, "grid row too wide: {line:?}");
        }
        assert!(text.matches('*').count() >= 3);
    }
}
