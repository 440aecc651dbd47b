//! End-to-end tests of the `saco` binary: generate → info → train → path,
//! exactly as a user would drive it.

use std::path::PathBuf;
use std::process::Command;

fn saco() -> Command {
    Command::new(env!("CARGO_BIN_EXE_saco"))
}

fn tmpfile(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("saco_cli_test_{}_{name}", std::process::id()));
    p
}

#[test]
fn generate_info_lasso_roundtrip() {
    let data = tmpfile("leu.svm");
    let out = saco()
        .args(["generate", "--dataset", "leu", "--out"])
        .arg(&data)
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("38 × 7129"));

    let out = saco()
        .args(["info", "--data"])
        .arg(&data)
        .output()
        .expect("run info");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("features:  7129"), "{text}");
    assert!(text.contains("σ range"), "σ estimate missing: {text}");

    let weights = tmpfile("w.txt");
    let out = saco()
        .args(["lasso", "--data"])
        .arg(&data)
        .args(["--acc", "--iters", "1500", "--lambda-frac", "0.2", "--out"])
        .arg(&weights)
        .output()
        .expect("run lasso");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let n_weights = std::fs::read_to_string(&weights)
        .expect("weights written")
        .lines()
        .count();
    assert_eq!(n_weights, 7129);

    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&weights);
}

#[test]
fn svm_trains_on_generated_classification_data() {
    let data = generated("w1a.svm", &["w1a"]);
    let out = saco()
        .args(["svm", "--data"])
        .arg(&data)
        .args(["--loss", "l2", "--iters", "20000", "--gap-tol", "0.5"])
        .output()
        .expect("run svm");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("duality gap"), "{text}");
    assert!(text.contains("training accuracy"), "{text}");
    let _ = std::fs::remove_file(&data);
}

#[test]
fn path_lists_lambdas_and_selects_support() {
    let data = generated("path.svm", &["covtype", "--scale", "0.02"]);
    let out = saco()
        .args(["path", "--data"])
        .arg(&data)
        .args([
            "--num",
            "6",
            "--ratio",
            "0.05",
            "--iters",
            "800",
            "--select-support",
            "10",
        ])
        .output()
        .expect("run path");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.matches('\n').count() >= 7, "{text}");
    assert!(text.contains("selected λ"), "{text}");
    let _ = std::fs::remove_file(&data);
}

#[test]
fn simulate_reports_costs() {
    let data = generated("sim.svm", &["news20", "--scale", "0.05"]);
    let out = saco()
        .args(["simulate", "--data"])
        .arg(&data)
        .args(["--p", "512", "--s", "16", "--acc", "--iters", "500"])
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("running time"), "{text}");
    assert!(text.contains("messages"), "{text}");
    let _ = std::fs::remove_file(&data);
}

#[test]
fn simulate_writes_deterministic_metrics_report() {
    let data = generated("simmetrics.svm", &["news20", "--scale", "0.05"]);
    let run = |metrics: &PathBuf| {
        let out = saco()
            .args(["simulate", "--data"])
            .arg(&data)
            .args([
                "--p",
                "64",
                "--s",
                "8",
                "--acc",
                "--iters",
                "200",
                "--metrics",
            ])
            .arg(metrics)
            .output()
            .expect("run simulate");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("metrics written"));
        std::fs::read_to_string(metrics).expect("metrics file written")
    };
    let m1 = tmpfile("metrics1.json");
    let m2 = tmpfile("metrics2.json");
    let a = run(&m1);
    let b = run(&m2);
    assert!(a.contains("\"schema\":\"saco-telemetry/v1\""), "{a}");
    assert!(a.contains("\"critical_rank\""), "{a}");
    assert!(a.contains("\"comm\""), "phase tables missing: {a}");
    assert!(a.contains("\"solver\":\"sim_sa_accbcd\""), "{a}");
    // Byte-identical modulo the par.* host gauges: `par.utilization` is a
    // wall-clock measurement, so it may differ between two runs whenever
    // the kernel pool is engaged (e.g. under SACO_THREADS in CI).
    assert_eq!(
        strip_par_gauges(&a),
        strip_par_gauges(&b),
        "same seed must give a byte-identical report"
    );

    // --metrics is advertised in the usage text
    let help = saco().arg("help").output().expect("help");
    assert!(String::from_utf8_lossy(&help.stderr).contains("--metrics"));

    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&m1);
    let _ = std::fs::remove_file(&m2);
}

/// Remove every `"<prefix>…": <value>` entry (string or number) from a
/// `saco-telemetry/v1` document.
fn strip_entries(report: &str, prefixes: &[&str]) -> String {
    let mut out = report.to_string();
    for prefix in prefixes {
        let pat = format!("\"{prefix}");
        while let Some(i) = out.find(&pat) {
            let colon = i + out[i..].find("\":").expect("a key") + 2;
            let end = if out.as_bytes()[colon] == b'"' {
                colon + 1 + out[colon + 1..].find('"').expect("closing quote") + 1
            } else {
                colon + out[colon..].find([',', '}']).expect("value terminated")
            };
            if out.as_bytes()[end] == b',' {
                out.replace_range(i..=end, "");
            } else {
                let start = if out.as_bytes()[i - 1] == b',' {
                    i - 1
                } else {
                    i
                };
                out.replace_range(start..end, "");
            }
        }
    }
    out
}

/// Drop the `par.*` gauges from a metrics report: they record host pool
/// activity (thread count, wall-clock utilization) and are the only
/// fields allowed to vary with `--threads`.
fn strip_par_gauges(report: &str) -> String {
    strip_entries(report, &["par."])
}

#[test]
fn thread_count_never_changes_the_simulated_report() {
    let data = generated("simthreads.svm", &["news20", "--scale", "0.05"]);
    let run = |threads: &str, metrics: &PathBuf| {
        let out = saco()
            .args(["simulate", "--data"])
            .arg(&data)
            .args([
                "--p",
                "64",
                "--s",
                "8",
                "--acc",
                "--iters",
                "200",
                "--threads",
                threads,
                "--metrics",
            ])
            .arg(metrics)
            .output()
            .expect("run simulate");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(metrics).expect("metrics file written")
    };
    let m1 = tmpfile("metrics_t1.json");
    let m4 = tmpfile("metrics_t4.json");
    let t1 = run("1", &m1);
    let t4 = run("4", &m4);
    // Parallelism is a pure throughput knob: everything in the report —
    // objective, simulated times, phase tables, collective counts — must
    // be byte-identical; only the par.* host gauges may differ.
    assert_eq!(
        strip_par_gauges(&t1),
        strip_par_gauges(&t4),
        "--threads changed a simulated quantity"
    );
    assert!(t1.contains("\"par.threads\":1"), "{t1}");
    assert!(t4.contains("\"par.threads\":4"), "{t4}");
    // The 4-thread run must actually have engaged the pool.
    let regions = t4
        .split("\"par.regions\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("par.regions gauge present");
    assert!(regions > 0.0, "pool never engaged at --threads 4: {t4}");
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&m1);
    let _ = std::fs::remove_file(&m4);
}

/// The `final objective` line of a command's stdout.
fn objective_line(out: &std::process::Output) -> String {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find(|l| l.contains("final objective"))
        .expect("an objective line")
        .trim()
        .to_string()
}

#[test]
fn engine_flag_runs_every_backend_to_the_same_objective() {
    let data = generated("engines.svm", &["news20", "--scale", "0.05"]);
    let run = |engine: &str| {
        objective_line(
            &saco()
                .args(["simulate", "--data"])
                .arg(&data)
                .args([
                    "--p", "4", "--s", "8", "--acc", "--iters", "200", "--engine", engine,
                ])
                .output()
                .expect("run simulate"),
        )
    };
    // seq and sim replicate, and the printed digits hide net's last-ulp
    // reassociation: every engine must print the identical objective.
    let seq = run("seq");
    for engine in ["sim", "net"] {
        assert_eq!(run(engine), seq, "engine {engine} diverged from seq");
    }
    // --chaos is modeled-cluster-only.
    let out = saco()
        .args(["simulate", "--data"])
        .arg(&data)
        .args(["--engine", "net", "--chaos", "seed=1"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--engine sim"));
    let _ = std::fs::remove_file(&data);
}

#[test]
fn launch_spawns_real_rank_processes_and_merges_reports() {
    let data = generated("launch.svm", &["news20", "--scale", "0.05"]);
    // Reference: the same solve on the in-process socket mesh.
    let reference = objective_line(
        &saco()
            .args(["simulate", "--data"])
            .arg(&data)
            .args([
                "--p", "4", "--s", "8", "--acc", "--iters", "200", "--engine", "net",
            ])
            .output()
            .expect("run simulate"),
    );
    let rundir = tmpfile("launchdir");
    let merged = tmpfile("launch_merged.json");
    let out = saco()
        .args(["launch", "--data"])
        .arg(&data)
        .args([
            "--p", "4", "--s", "8", "--acc", "--iters", "200", "--rundir",
        ])
        .arg(&rundir)
        .arg("--metrics")
        .arg(&merged)
        .output()
        .expect("run launch");
    // Real OS processes over the socket mesh land on the same objective.
    assert_eq!(objective_line(&out), reference, "launch diverged");
    for rank in 0..4 {
        assert!(
            rundir.join(format!("rank{rank}.json")).exists(),
            "rank {rank} report missing"
        );
    }
    let report = std::fs::read_to_string(&merged).expect("merged report");
    assert!(
        report.contains("\"schema\":\"saco-telemetry/v1\""),
        "{report}"
    );
    assert!(report.contains("\"cli.engine\":\"net\""), "{report}");
    assert!(report.contains("\"net.rendezvous\":"), "{report}");
    assert!(report.contains("\"net.reconnects\":0"), "{report}");
    assert!(report.contains("\"solver\":\"net_sa_accbcd\""), "{report}");
    // launch is advertised in the usage text
    let help = saco().arg("help").output().expect("help");
    assert!(String::from_utf8_lossy(&help.stderr).contains("launch"));
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&merged);
    let _ = std::fs::remove_dir_all(&rundir);
}

#[test]
fn shard_streaming_lasso_matches_in_memory_bitwise() {
    let data = generated("shardsrc.svm", &["news20", "--scale", "0.05"]);
    // Convert to a CSC shard directory and round-trip bitwise.
    let dir = tmpfile("sharddir_csc");
    let out = saco()
        .args(["shard", "--data"])
        .arg(&data)
        .args(["--shards", "12", "--verify", "--out"])
        .arg(&dir)
        .output()
        .expect("run shard");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("verify: OK"), "{text}");
    assert!(text.contains("nnz imbalance"), "{text}");
    // info understands the store.
    let out = saco()
        .arg("info")
        .arg("--data")
        .arg(format!("shard:{}", dir.display()))
        .output()
        .expect("run info");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("shards:    12"), "{text}");
    assert!(text.contains("labels:    present"), "{text}");
    // The streamed solve writes bit-identical weights under a small
    // resident budget.
    let w_mem = tmpfile("shard_w_mem.txt");
    let w_str = tmpfile("shard_w_stream.txt");
    let solver_args = [
        "--lambda", "0.1", "--iters", "400", "--s", "8", "--mu", "2", "--acc",
    ];
    assert!(saco()
        .args(["lasso", "--data"])
        .arg(&data)
        .args(solver_args)
        .arg("--out")
        .arg(&w_mem)
        .status()
        .expect("lasso mem")
        .success());
    let out = saco()
        .arg("lasso")
        .arg("--data")
        .arg(format!("shard:{}", dir.display()))
        .args(["--mem-budget", "4M"])
        .args(solver_args)
        .arg("--out")
        .arg(&w_str)
        .output()
        .expect("lasso stream");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("io:"), "io summary missing: {text}");
    let mem = std::fs::read_to_string(&w_mem).expect("in-memory weights");
    let streamed = std::fs::read_to_string(&w_str).expect("streamed weights");
    assert_eq!(mem, streamed, "streamed weights diverged from in-memory");
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&w_mem);
    let _ = std::fs::remove_file(&w_str);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_svm_and_streamed_simulate_agree_with_in_memory() {
    let data = generated("shardsvm.svm", &["w1a"]);
    // SVM needs a CSR-axis store.
    let dir = tmpfile("sharddir_csr");
    let out = saco()
        .args(["shard", "--data"])
        .arg(&data)
        .args(["--axis", "csr", "--shards", "10", "--verify", "--out"])
        .arg(&dir)
        .output()
        .expect("run shard");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("verify: OK"));
    let gap_line = |out: &std::process::Output| -> String {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.contains("duality gap"))
            .expect("a gap line")
            .split(';')
            .next()
            .expect("gap fragment")
            .trim()
            .to_string()
    };
    let svm_args = ["--loss", "l2", "--iters", "8000", "--s", "32"];
    let mem = gap_line(
        &saco()
            .args(["svm", "--data"])
            .arg(&data)
            .args(svm_args)
            .output()
            .expect("svm mem"),
    );
    let streamed = gap_line(
        &saco()
            .arg("svm")
            .arg("--data")
            .arg(format!("shard:{}", dir.display()))
            .args(["--mem-budget", "4M"])
            .args(svm_args)
            .output()
            .expect("svm stream"),
    );
    assert_eq!(streamed, mem, "streamed SVM gap diverged");
    // The wrong axis is rejected with re-shard advice, not a panic.
    let out = saco()
        .arg("lasso")
        .arg("--data")
        .arg(format!("shard:{}", dir.display()))
        .args(["--lambda", "0.1"])
        .output()
        .expect("run lasso on csr store");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("saco shard --axis csc"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streamed_simulate_objective_matches_every_engine() {
    let data = generated("shardsim.svm", &["news20", "--scale", "0.05"]);
    let dir = tmpfile("sharddir_sim");
    assert!(saco()
        .args(["shard", "--data"])
        .arg(&data)
        .args(["--shards", "8", "--out"])
        .arg(&dir)
        .status()
        .expect("shard")
        .success());
    let common = [
        "--p", "4", "--s", "8", "--acc", "--iters", "200", "--lambda", "0.1",
    ];
    let mem = objective_line(
        &saco()
            .args(["simulate", "--data"])
            .arg(&data)
            .args(common)
            .args(["--engine", "seq"])
            .output()
            .expect("simulate mem"),
    );
    for engine in ["seq", "sim", "net"] {
        let out = saco()
            .arg("simulate")
            .arg("--data")
            .arg(format!("shard:{}", dir.display()))
            .args(["--mem-budget", "4M"])
            .args(common)
            .args(["--engine", engine])
            .output()
            .expect("simulate stream");
        assert_eq!(
            objective_line(&out),
            mem,
            "streamed engine {engine} diverged"
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("io:"),
            "engine {engine} printed no io summary"
        );
    }
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `saco <args…>` to success and return its stdout.
fn saco_ok(args: &[&str]) -> String {
    let out = saco().args(args).output().expect("run saco");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "saco {args:?}: {err}");
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// `saco generate --dataset <spec…>` into a fresh temp file.
fn generated(name: &str, spec: &[&str]) -> PathBuf {
    let data = tmpfile(name);
    let out = data.display().to_string();
    saco_ok(&[&["generate", "--out", &out, "--dataset"], spec].concat());
    data
}

/// Generate `dataset` and shard it `--axis axis`; returns `(file, dir)`.
fn generated_shards(tag: &str, dataset: &[&str], axis: &str) -> (String, String) {
    let data = generated(&format!("{tag}.svm"), dataset)
        .display()
        .to_string();
    let dir = tmpfile(&format!("{tag}_dir")).display().to_string();
    saco_ok(&[
        "shard", "--data", &data, "--out", &dir, "--axis", axis, "--shards", "6",
    ]);
    (data, dir)
}

/// The streamed virtual-cluster run is the in-memory run: once the
/// source-specific keys are set aside, the two reports are the same
/// document — rank tables, critical rank, collective counts, packed
/// words, solver counters, objective and modeled time included.
#[test]
fn streamed_sim_report_is_the_in_memory_report() {
    let (data, dir) = generated_shards("shardrep", &["news20", "--scale", "0.05"], "csc");
    let report = |source: &str, tag: &str| {
        let metrics = tmpfile(tag).display().to_string();
        let run = "--engine sim --p 4 --s 8 --acc --iters 200 --lambda 0.1 --balanced";
        let mut args = vec!["simulate", "--mem-budget", "4M", "--metrics", &metrics];
        args.extend(["--data", source]);
        args.extend(run.split(' '));
        saco_ok(&args);
        let doc = std::fs::read_to_string(&metrics).expect("metrics file written");
        let _ = std::fs::remove_file(&metrics);
        doc
    };
    let mem = report(&data, "rep_mem.json");
    let streamed = report(&format!("shard:{dir}"), "rep_st.json");
    for key in [
        "\"ranks\":\"4\"",
        "\"critical_rank\":",
        "\"collectives.allreduce\":",
        "\"comm.words_packed\":",
        "\"solver.iterations\":200",
        "\"solver.trace_points\":",
        "\"data.source\":\"shard\"",
        "\"shard.reads\":",
        "\"io.bytes_read\":",
    ] {
        assert!(streamed.contains(key), "{key} missing: {streamed}");
    }
    let source_keys = ["shard.", "io.", "data.source", "dataset", "par."];
    let streamed =
        strip_entries(&streamed, &source_keys).replace("\"solver\":\"stream_", "\"solver\":\"");
    assert_eq!(streamed, strip_entries(&mem, &source_keys));
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `ksvm`/`kridge --data shard:<dir> --metrics` writes the report (it
/// used to exit 0 with no file): source, kernel-method and I/O blocks.
#[test]
fn streamed_kernel_methods_write_their_report() {
    let (data, dir) = generated_shards("shardk", &["duke"], "csr");
    for (cmd, solver) in [("ksvm", "stream_seq_ksvm"), ("kridge", "stream_seq_kridge")] {
        let metrics = tmpfile(&format!("{cmd}_stream.json")).display().to_string();
        let text = saco_ok(&[
            cmd,
            "--data",
            &format!("shard:{dir}"),
            "--metrics",
            &metrics,
            "--s",
            "8",
            "--iters",
            "128",
            "--kernel",
            "rbf:gamma=0.05",
        ]);
        assert!(text.contains("dual objective"), "{text}");
        assert!(text.contains("io:"), "{text}");
        let report = std::fs::read_to_string(&metrics).expect("report written");
        for key in [
            "\"data.source\":\"shard\"".to_string(),
            format!("\"solver\":\"{solver}\""),
            "\"kmethod.cache.hits\":".to_string(),
            "\"kmethod.exchange.skipped\":".to_string(),
            "\"shard.reads\":".to_string(),
            "\"io.bytes_read\":".to_string(),
        ] {
            assert!(report.contains(&key), "{cmd}: {key} missing: {report}");
        }
        let _ = std::fs::remove_file(&metrics);
    }
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn helpful_errors() {
    // unknown subcommand
    let out = saco().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
    // missing required option
    let out = saco().arg("lasso").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data"));
    // unknown dataset lists choices
    let out = saco()
        .args(["generate", "--dataset", "nope", "--out", "/tmp/x"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("choose from"));
    // Zero counts are typed errors naming the flag at the one place the
    // run surface is parsed — never a partitioner or solver panic.
    let data = generated("errors.svm", &["duke"]);
    for (cmd, engine, flag) in [
        ("simulate", &["--engine", "sim"][..], "--p"),
        ("simulate", &["--engine", "net"], "--p"),
        ("ksvm", &["--engine", "net"], "--p"),
        ("simulate", &["--engine", "seq"], "--s"),
        ("simulate", &["--engine", "sim"], "--mu"),
        ("simulate", &["--engine", "net"], "--iters"),
        ("lasso", &[], "--mu"),
        ("svm", &[], "--s"),
        ("kridge", &["--engine", "seq"], "--iters"),
    ] {
        let out = saco()
            .args([cmd, "--data"])
            .arg(&data)
            .args(engine)
            .args([flag, "0"])
            .output()
            .expect("run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{cmd} {engine:?} {flag} 0: {err}"
        );
        assert!(
            err.contains(&format!("{flag} must be")),
            "{cmd} {engine:?} {flag} 0: {err}"
        );
        assert!(!err.contains("panicked"), "{err}");
    }
    // The retired thread engine is an engine-name error naming the two
    // that replace it: sim prices, net executes.
    let out = saco()
        .args(["simulate", "--data"])
        .arg(&data)
        .args(["--engine", "dist"])
        .output()
        .expect("run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("sim") && err.contains("net"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    // An option the subcommand does not read — retired (`--algo`,
    // `--overlap`, serve's `--batch-max`), misspelt (`--itres`) or another subcommand's
    // (`--engine` on lasso) — is an error naming it, raised before `--data`
    // is opened (the file named here does not exist) and before anything
    // is written.
    let written = tmpfile("never_written.json");
    for (cmd, option, value) in [
        ("simulate", "--algo", "ring"),
        ("launch", "--algo", "ring"),
        ("simulate", "--overlap", "off"),
        ("lasso", "--itres", "5"),
        ("lasso", "--engine", "net"),
        ("serve", "--batch-max", "64"),
    ] {
        let out = saco()
            .args([cmd, "--data", "/nonexistent/f.svm", "--metrics"])
            .arg(&written)
            .args([option, value])
            .output()
            .expect("run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd} {option}: {err}");
        assert!(
            err.contains(&format!("unknown option {option} for {cmd}")),
            "{cmd} {option}: {err}"
        );
        assert!(!err.contains("nonexistent"), "{cmd} opened --data: {err}");
        assert!(!written.exists(), "{cmd} {option} wrote a report");
    }
    // A serve default budget above the per-request bound is refused
    // before the model or the data is opened.
    let too_many = (saco::serve::MAX_REQUEST_ITERS + 1).to_string();
    let out = saco()
        .args(["serve", "--model", "/nonexistent/m.model", "--data"])
        .args(["/nonexistent/f.svm", "--listen", "unix:/nonexistent/s.sock"])
        .args(["--train-iters", &too_many])
        .output()
        .expect("run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains(&format!("--train-iters {too_many} exceeds")),
        "{err}"
    );
    assert!(!err.contains("nonexistent"), "serve opened a file: {err}");
    // Non-finite data is rejected at the door, naming line and token — and
    // so is a feature index repeated within a line, which would otherwise
    // be summed (here into `inf`).
    let poisoned = tmpfile("poisoned.svm");
    for (cmd, text, want) in [
        (
            "lasso",
            "1 1:1 2:0.5\n-1 3:nan\n",
            "line 2: non-finite feature value \"nan\"",
        ),
        (
            "info",
            "1 1:1e308 1:1e308\n",
            "line 1: feature index 1 repeated",
        ),
    ] {
        std::fs::write(&poisoned, text).expect("write");
        let out = saco()
            .args([cmd, "--data"])
            .arg(&poisoned)
            .output()
            .expect("run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {err}");
        assert!(err.contains(want), "{cmd}: {err}");
    }
    let _ = std::fs::remove_file(&poisoned);
    // A block wider than the data is the library's typed config error.
    let out = saco()
        .args(["lasso", "--mu", "100000", "--data"])
        .arg(&data)
        .output()
        .expect("run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("exceeds feature count"), "{err}");
    let _ = std::fs::remove_file(&data);
}

/// `launch` forwards its own command line to the rank children, so an
/// option the parent accepts reaches every rank: with `--rel-tol` the
/// launched solve and the in-process mesh print the same objective.
#[test]
fn launch_forwards_rel_tol_like_the_in_process_mesh() {
    let data = generated("launch_reltol.svm", &["news20", "--scale", "0.05"])
        .display()
        .to_string();
    let rundir = tmpfile("launch_reltol_dir").display().to_string();
    let solve = "--p 4 --balanced --lambda-frac 0.2 --rel-tol 1e-3 --trace-every 20 --iters 400";
    let line = |cmd: &[&str]| {
        let mut args = cmd.to_vec();
        args.extend(["--data", &data]);
        args.extend(solve.split(' '));
        objective_line(&saco().args(&args).output().expect("run"))
    };
    let launched = line(&["launch", "--rundir", &rundir]);
    assert_eq!(launched, line(&["simulate", "--engine", "net"]));
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_dir_all(&rundir);
}

/// `lasso --model-out` without `--acc` trains the resumable artifact and
/// still writes its `--metrics` report; `--rel-tol` cannot stop that
/// solve, so asking for both is a typed error, not a silently full run.
#[test]
fn resumable_model_out_writes_metrics_and_rejects_rel_tol() {
    let data = generated("modelout.svm", &["news20", "--scale", "0.02"])
        .display()
        .to_string();
    let (model, metrics) = (tmpfile("modelout.saco"), tmpfile("modelout.json"));
    let (model, metrics) = (model.display().to_string(), metrics.display().to_string());
    let train = [
        "lasso",
        "--data",
        &data,
        "--iters",
        "64",
        "--model-out",
        &model,
    ];
    let text = saco_ok(&[&train[..], &["--metrics", &metrics]].concat());
    assert!(
        text.contains("model artifact (resumable, 64 iters)"),
        "{text}"
    );
    assert!(text.contains("metrics written"), "{text}");
    let report = std::fs::read_to_string(&metrics).expect("metrics written");
    for key in [
        "\"solver\":\"sa_bcd\"",
        "\"objective.final\":",
        "\"solver.iterations\":64",
        "\"dataset\":",
    ] {
        assert!(report.contains(key), "{key} missing: {report}");
    }
    let _ = std::fs::remove_file(&model);
    let out = saco()
        .args(train)
        .args(["--rel-tol", "1e-3"])
        .output()
        .expect("run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("--rel-tol") && err.contains("exactly --iters"),
        "{err}"
    );
    assert!(
        !std::path::Path::new(&model).exists(),
        "artifact written: {err}"
    );
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&metrics);
}

/// The `--engine` paragraph of `saco help` names every subcommand whose
/// synopsis takes `--engine`.
#[test]
fn help_names_every_subcommand_that_takes_engine() {
    let help = saco().arg("help").output().expect("help");
    let help = String::from_utf8_lossy(&help.stderr).to_string();
    let (synopses, notes) = help
        .split_once("\n\n`")
        .expect("notes follow the synopsis block");
    let mut with_engine = Vec::new();
    for row in synopses.split("\n  saco ").skip(1) {
        let name = row.split_whitespace().next().expect("a name");
        if row.contains("--engine") {
            with_engine.push(name);
        }
    }
    assert!(with_engine.contains(&"simulate") && with_engine.contains(&"ksvm"));
    let paragraph = notes
        .split("\n\n")
        .find(|p| p.starts_with("--engine") || p.starts_with("`--engine"))
        .expect("an --engine paragraph");
    for name in with_engine {
        assert!(paragraph.contains(name), "{name} missing: {paragraph}");
    }
}

#[test]
fn cv_prints_lambda_table() {
    let data = generated("cv.svm", &["covtype", "--scale", "0.02"]);
    let out = saco()
        .args(["cv", "--data"])
        .arg(&data)
        .args(["--folds", "3", "--num", "5", "--iters", "400"])
        .output()
        .expect("run cv");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("best λ"), "{text}");
    assert!(text.contains("1-SE λ"), "{text}");
    let _ = std::fs::remove_file(&data);
}
