//! Run every table/figure binary in paper order. Respects `SACO_QUICK=1`.
//!
//! ```sh
//! cargo run --release -p saco-bench --bin run_all
//! ```

use std::process::Command;
use std::time::Instant;

fn main() {
    let bins = [
        "table2_datasets",
        "table1_costs",
        "fig2_convergence",
        "table3_relerr",
        "fig3_runtime",
        "fig4_scaling",
        "fig5_svm_gap",
        "table5_svm_speedup",
        "plot_figures",
    ];
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    let t_all = Instant::now();
    for bin in bins {
        println!("\n================ {bin} ================");
        let t = Instant::now();
        let status = Command::new(exe_dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} exited with {status}");
        println!("[{bin} finished in {:.1} s]", t.elapsed().as_secs_f64());
    }
    println!(
        "\nall experiments regenerated in {:.1} s; CSV series in {}/",
        t_all.elapsed().as_secs_f64(),
        saco_bench::shown(&saco_bench::experiments_dir())
    );
}
