//! Figure rendering: plain-text tables (the "rows the paper plots") and
//! CSV for external plotting.

use std::fmt::Write as _;

use qolsr_sim::stats::OnlineStats;
use serde::Serialize;

/// One data point of a series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Point {
    /// X coordinate (network density in the paper's figures).
    pub x: f64,
    /// Mean of the measured quantity.
    pub mean: f64,
    /// Half-width of the 95% confidence interval.
    pub ci95: f64,
    /// Number of observations behind the mean.
    pub n: u64,
}

/// A labelled series (one curve of a figure).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Series {
    /// Curve label (selector name).
    pub label: String,
    /// Points, ascending in `x`.
    pub points: Vec<Point>,
}

/// A reproduced figure: several series over a common x-axis.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Figure {
    /// Figure title (e.g. "Fig. 6 — advertised set size (bandwidth)").
    pub title: String,
    /// X-axis label.
    pub xlabel: String,
    /// Y-axis label.
    pub ylabel: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// A figure with one series per `(label, points)` entry, each point
    /// summarising its `(x, stats)` pair by mean, 95% confidence
    /// half-width and count — how every experiment turns its aggregates
    /// into curves.
    pub(crate) fn from_stats<
        'a,
        L: Into<String>,
        P: IntoIterator<Item = (f64, &'a OnlineStats)>,
    >(
        title: &str,
        xlabel: &str,
        ylabel: &str,
        series: impl IntoIterator<Item = (L, P)>,
    ) -> Self {
        Self {
            title: title.to_owned(),
            xlabel: xlabel.to_owned(),
            ylabel: ylabel.to_owned(),
            series: series
                .into_iter()
                .map(|(label, points)| Series {
                    label: label.into(),
                    points: points
                        .into_iter()
                        .map(|(x, s)| Point {
                            x,
                            mean: s.mean(),
                            ci95: s.ci95_half_width(),
                            n: s.count(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Renders an aligned plain-text table, one row per x value and one
    /// column per series.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "# y: {}", self.ylabel);
        let mut header = format!("{:>12}", self.xlabel);
        for s in &self.series {
            let _ = write!(header, " {:>26}", s.label);
        }
        let _ = writeln!(out, "{header}");

        let xs = self.x_values();
        for &x in &xs {
            // Two decimals when needed (e.g. failure fractions), compact
            // integers otherwise (densities).
            let label = if (x - x.round()).abs() < 1e-9 {
                format!("{x:.1}")
            } else {
                format!("{x:.2}")
            };
            let mut row = format!("{label:>12}");
            for s in &self.series {
                match s.points.iter().find(|p| p.x == x) {
                    Some(p) => {
                        let cell = format!("{:.4} ±{:.4}", p.mean, p.ci95);
                        let _ = write!(row, " {cell:>26}");
                    }
                    None => {
                        let _ = write!(row, " {:>26}", "-");
                    }
                }
            }
            let _ = writeln!(out, "{row}");
        }
        out
    }

    /// Renders CSV: `x,label,mean,ci95,n` rows.
    pub fn render_csv(&self) -> String {
        let mut out = String::from("x,series,mean,ci95,n\n");
        for s in &self.series {
            for p in &s.points {
                let _ = writeln!(out, "{},{},{},{},{}", p.x, s.label, p.mean, p.ci95, p.n);
            }
        }
        out
    }

    /// All distinct x values across series, ascending.
    pub fn x_values(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x values"));
        xs.dedup();
        xs
    }

    /// The series with the given label, if present.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        Figure {
            title: "Fig. X".into(),
            xlabel: "density".into(),
            ylabel: "size".into(),
            series: vec![
                Series {
                    label: "fnbp".into(),
                    points: vec![
                        Point {
                            x: 10.0,
                            mean: 2.5,
                            ci95: 0.1,
                            n: 100,
                        },
                        Point {
                            x: 20.0,
                            mean: 2.6,
                            ci95: 0.1,
                            n: 100,
                        },
                    ],
                },
                Series {
                    label: "qolsr".into(),
                    points: vec![Point {
                        x: 10.0,
                        mean: 8.0,
                        ci95: 0.4,
                        n: 100,
                    }],
                },
            ],
        }
    }

    #[test]
    fn text_table_lists_all_rows() {
        let text = sample().render_text();
        assert!(text.contains("Fig. X"));
        assert!(text.contains("10.0"));
        assert!(text.contains("20.0"));
        assert!(text.contains("fnbp"));
        // Missing point renders as a dash.
        assert!(text.contains('-'));
    }

    #[test]
    fn csv_has_one_row_per_point() {
        let csv = sample().render_csv();
        assert_eq!(csv.lines().count(), 1 + 3);
        assert!(csv.starts_with("x,series,mean,ci95,n"));
    }

    #[test]
    fn x_values_deduplicated_and_sorted() {
        assert_eq!(sample().x_values(), vec![10.0, 20.0]);
    }

    #[test]
    fn series_lookup() {
        let f = sample();
        assert!(f.series("fnbp").is_some());
        assert!(f.series("nope").is_none());
    }
}
