//! Render the paper's figures as SVG from the CSV series the experiment
//! binaries emit. Run after `run_all`:
//!
//! ```sh
//! cargo run --release -p saco-bench --bin run_all
//! cargo run --release -p saco-bench --bin plot_figures
//! ```
//!
//! Output: `target/experiments/*.svg`.

use saco_bench::plot::{Chart, Scale};
use saco_bench::{experiments_dir, shown};
use std::path::Path;

/// Minimal CSV reader for the harness's own numeric output.
fn read_csv(path: &Path) -> Option<(Vec<String>, Vec<Vec<String>>)> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    let header: Vec<String> = lines.next()?.split(',').map(String::from).collect();
    let rows = lines
        .map(|l| l.split(',').map(String::from).collect())
        .collect();
    Some((header, rows))
}

fn save(chart: &Chart, name: &str) {
    let path = experiments_dir().join(format!("{name}.svg"));
    std::fs::write(&path, chart.render_svg()).expect("write svg");
    println!("wrote {}", shown(&path));
}

/// Figure 2 / Figure 5 CSVs are wide: first column is the iteration, every
/// other column a method.
fn plot_wide(name: &str, title: &str, y_label: &str, log_y: bool) {
    let path = experiments_dir().join(format!("{name}.csv"));
    let Some((header, rows)) = read_csv(&path) else {
        eprintln!("skipping {name}: run the experiment binaries first");
        return;
    };
    let mut chart = Chart::new(title, &header[0], y_label);
    chart.x_scale = Scale::Linear;
    chart.y_scale = if log_y { Scale::Log } else { Scale::Linear };
    for (col, method) in header.iter().enumerate().skip(1) {
        let pts: Vec<(f64, f64)> = rows
            .iter()
            .filter_map(|r| {
                let x: f64 = r.first()?.parse().ok()?;
                let y: f64 = r.get(col)?.parse().ok()?;
                // log axes cannot show converged-to-machine-zero gaps
                (!log_y || y > 0.0).then_some((x, y))
            })
            .collect();
        chart.add(method, pts);
    }
    save(&chart, name);
}

/// Figure 3 CSVs are long: method,iter,time_s,objective. One panel per
/// method family so the palette never exceeds its slots.
fn plot_fig3(dataset: &str) {
    let path = experiments_dir().join(format!("fig3_{dataset}.csv"));
    let Some((_, rows)) = read_csv(&path) else {
        eprintln!("skipping fig3_{dataset}: run fig3_runtime first");
        return;
    };
    for family in ["CD", "accCD", "BCD", "accBCD"] {
        let mut chart = Chart::new(
            &format!("Fig. 3 — {dataset}: {family} family (simulated time)"),
            "running time (s)",
            "objective",
        );
        chart.y_scale = Scale::Log;
        // stable method order: classical first, then SA variants by s
        let mut methods: Vec<String> = Vec::new();
        for r in &rows {
            let m = &r[0];
            let base = m.strip_prefix("SA-").unwrap_or(m);
            let base = base.split(' ').next().unwrap_or(base);
            if base == family && !methods.contains(m) {
                methods.push(m.clone());
            }
        }
        for m in &methods {
            let pts: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| &r[0] == m)
                .filter_map(|r| {
                    let t: f64 = r[2].parse().ok()?;
                    let y: f64 = r[3].parse().ok()?;
                    (y > 0.0).then_some((t, y))
                })
                .collect();
            chart.add(m, pts);
        }
        if !chart.series.is_empty() {
            save(&chart, &format!("fig3_{dataset}_{family}"));
        }
    }
}

fn plot_fig4(dataset: &str) {
    // (a–d) strong scaling
    let path = experiments_dir().join(format!("fig4_scaling_{dataset}.csv"));
    if let Some((_, rows)) = read_csv(&path) {
        let mut chart = Chart::new(
            &format!("Fig. 4 — {dataset}: strong scaling"),
            "processors P",
            "running time (s)",
        );
        chart.x_scale = Scale::Log;
        chart.y_scale = Scale::Log;
        let col = |idx: usize| -> Vec<(f64, f64)> {
            rows.iter()
                .filter_map(|r| Some((r[0].parse::<f64>().ok()?, r[idx].parse::<f64>().ok()?)))
                .collect()
        };
        chart.add("accCD", col(1));
        chart.add("SA-accCD (best s)", col(2));
        save(&chart, &format!("fig4_scaling_{dataset}"));
    } else {
        eprintln!("skipping fig4_scaling_{dataset}");
    }

    // (e–h) speedup breakdown
    let path = experiments_dir().join(format!("fig4_speedup_{dataset}.csv"));
    if let Some((_, rows)) = read_csv(&path) {
        let mut chart = Chart::new(
            &format!("Fig. 4 — {dataset}: SA-accCD speedup vs s"),
            "s",
            "speedup over accCD",
        );
        chart.x_scale = Scale::Log;
        let col = |idx: usize| -> Vec<(f64, f64)> {
            rows.iter()
                .filter_map(|r| Some((r[0].parse::<f64>().ok()?, r[idx].parse::<f64>().ok()?)))
                .collect()
        };
        chart.add("total", col(1));
        chart.add("communication", col(2));
        chart.add("computation", col(3));
        save(&chart, &format!("fig4_speedup_{dataset}"));
    } else {
        eprintln!("skipping fig4_speedup_{dataset}");
    }
}

fn main() {
    for ds in ["leu", "covtype", "news20"] {
        plot_wide(
            &format!("fig2_{ds}"),
            &format!("Fig. 2 — {ds}: objective vs iteration"),
            "objective",
            true,
        );
    }
    for ds in ["news20", "covtype", "url", "epsilon"] {
        plot_fig3(ds);
        plot_fig4(ds);
    }
    for ds in ["w1a", "leu", "duke"] {
        plot_wide(
            &format!("fig5_{ds}"),
            &format!("Fig. 5 — {ds}: duality gap vs iteration (λ = 1)"),
            "duality gap",
            true,
        );
    }
}
