//! Table III: final relative objective error of each SA method vs its
//! classical counterpart, `|f_nonSA − f_SA| / f_nonSA`, on leu / covtype /
//! news20. The paper reports values at machine precision (2.2e-16) for
//! s = 1000 — the numerical-stability claim of §IV-A.

use datagen::PaperDataset;
use saco::prox::Lasso;
use saco::seq::{acc_bcd, bcd, sa_accbcd, sa_bcd};
use saco::LassoConfig;
use saco_bench::table::{csv, head, Fmt::*, Table, Value};
use saco_bench::{budget, lambda_quantile, row};

fn main() {
    let setups = [
        (PaperDataset::Leu, 1.0f64, 4000usize, 1000usize),
        (PaperDataset::Covtype, 0.05, 400, 200),
        (PaperDataset::News20, 0.5, 8000, 1000),
    ];
    let methods = ["SA-accCD", "SA-CD", "SA-accBCD", "SA-BCD"];
    let mut rows: Vec<Vec<Value>> = methods.iter().map(|&m| row![m]).collect();
    let mut series = Table::series(
        "table3_relerr",
        [
            csv("dataset", Plain),
            csv("method", Plain),
            csv("rel_err", Sci(6)),
            csv("s", Plain),
        ],
    );
    let mut names = Vec::new();
    for (ds, scale, iters_raw, s_cd) in setups {
        let name = ds.info().name;
        names.push(name);
        let g = ds.generate(scale, 321);
        let lambda = lambda_quantile(&g.dataset, 0.9);
        let iters = budget(iters_raw);
        let s_bcd = (s_cd / 8).max(2);
        let reg = Lasso::new(lambda);
        let cfg = |mu: usize, s: usize| LassoConfig {
            mu,
            s,
            lambda,
            seed: 555,
            max_iters: iters,
            trace_every: 0,
            rel_tol: None,
            ..Default::default()
        };
        eprintln!("table3: {name} (H={iters}, s_cd={s_cd}, s_bcd={s_bcd})");
        let pairs = [
            (
                "SA-accCD",
                acc_bcd(&g.dataset, &reg, &cfg(1, 1)),
                sa_accbcd(&g.dataset, &reg, &cfg(1, s_cd)),
                s_cd,
            ),
            (
                "SA-CD",
                bcd(&g.dataset, &reg, &cfg(1, 1)),
                sa_bcd(&g.dataset, &reg, &cfg(1, s_cd)),
                s_cd,
            ),
            (
                "SA-accBCD",
                acc_bcd(&g.dataset, &reg, &cfg(8, 1)),
                sa_accbcd(&g.dataset, &reg, &cfg(8, s_bcd)),
                s_bcd,
            ),
            (
                "SA-BCD",
                bcd(&g.dataset, &reg, &cfg(8, 1)),
                sa_bcd(&g.dataset, &reg, &cfg(8, s_bcd)),
                s_bcd,
            ),
        ];
        for (k, (method, classic, sa, s)) in pairs.into_iter().enumerate() {
            let rel = sa.relative_error_vs(&classic);
            rows[k].push(rel.into());
            series.row(row![name, method, rel, s]);
            assert!(
                rel < 1e-10,
                "{name}/{method}: relative error {rel} is not at round-off level"
            );
        }
    }
    let title = "Table III — final relative objective error, SA vs non-SA (machine ε = 2.2e-16)";
    let cols = std::iter::once("method")
        .chain(names)
        .map(|n| head(n, Sci(4)));
    let mut table = Table::new(title, cols);
    for r in rows {
        table.row(r);
    }
    table.finish(None);
    series.finish(None);
}
