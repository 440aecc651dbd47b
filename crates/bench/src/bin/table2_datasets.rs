//! Tables II & IV: the dataset inventory — paper dimensions vs the
//! synthetic stand-ins this reproduction generates (see DESIGN.md §3 for
//! the substitution rationale).

use datagen::{PaperDataset, Task};
use saco_bench::row;
use saco_bench::table::{head, Fmt::Plain, Table};

fn main() {
    let cols = [
        "name",
        "paper features",
        "paper points",
        "paper nnz%",
        "repro features",
        "repro points",
        "repro nnz%",
        "structure",
        "note",
    ]
    .map(|name| head(name, Plain));
    let mut lasso = Table::new(
        "Table II — Lasso datasets (paper vs reproduction)",
        cols.clone(),
    );
    let mut svm = Table::new("Table IV — SVM datasets (paper vs reproduction)", cols);
    for ds in PaperDataset::ALL {
        let info = ds.info();
        // Generate at default scale to report the *actual* achieved shape.
        let g = ds.generate(1.0, 12345);
        let note = if info.density_note.is_empty() {
            "—"
        } else {
            info.density_note
        };
        let table = match info.task {
            Task::Regression => &mut lasso,
            Task::Classification => &mut svm,
        };
        table.row(row![
            info.name,
            info.paper_features,
            info.paper_points,
            info.paper_nnz_pct,
            g.dataset.num_features(),
            g.dataset.num_points(),
            format!("{:.4}", 100.0 * g.dataset.a.density()),
            format!("{:?}", info.structure),
            note,
        ]);
    }
    lasso.finish(None);
    svm.finish(None);
    println!("(leu is used for both tables; classification labels are generated on demand)");
}
