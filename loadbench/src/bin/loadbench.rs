//! The benchmark command:
//! `loadbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`.
//!
//! `--trace 0` runs the workload in this process, which has no counting
//! allocator and no spans, and prints the end-to-end metrics.
//! `--trace 1` does the same, then runs `loadbench-traced` on the same
//! workload and seed and prints the per-layer metrics: the traced run's,
//! the untraced run's unbounded end-to-end figures as `e2e.*`, and
//! `obs.trace_overhead_pct` from the two runs' quote p50. Either way the
//! last line of standard output is the result object, and the exit
//! code is non-zero if any check failed.

use qbdp_loadbench::manifest::{self, Json, END_TO_END, PER_LAYER};
use qbdp_loadbench::run::{self, Args};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("loadbench: {e}");
            std::process::exit(2);
        }
    }
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(argv.clone())?;
    let m = manifest::load()?;
    manifest::check_declared(&m, "end_to_end", END_TO_END)?;
    manifest::check_declared(&m, "per_layer", PER_LAYER)?;

    let o = run::run(&args, false)?;
    qbdp_loadbench::report(&o);
    if !args.trace {
        println!(
            "{}",
            manifest::result_line(o.correct, o.attempted, o.failed, END_TO_END, &o.e2e)?
        );
        return Ok(o.correct);
    }

    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let traced = exe.with_file_name("loadbench-traced");
    let child = Command::new(&traced)
        .args(&argv)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run {}: {e}", traced.display()))?;
    let text = String::from_utf8_lossy(&child.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines {
        println!("{l}");
    }
    if !child.status.success() && !last.starts_with('{') {
        return Err(format!("traced run failed: {}", child.status));
    }
    let r = Json::parse(last).map_err(|e| format!("traced result line: {e}"))?;
    let num = |k: &str| {
        r.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("traced result lacks {k}"))
    };
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    if let Some(Json::Obj(ms)) = r.get("metrics") {
        for (k, v) in ms {
            if let Some(x) = v.get("value").and_then(Json::as_f64) {
                values.insert(k.clone(), x);
            }
        }
    }
    for (name, _) in manifest::UNBOUNDED_E2E {
        let v = o
            .e2e
            .get(*name)
            .copied()
            .ok_or(format!("{name} was not measured"))?;
        values.insert(format!("e2e.{name}"), v);
    }
    let traced_p50 = values
        .remove("quote_p50_us")
        .ok_or("traced result lacks quote_p50_us")?;
    values.insert(
        "obs.trace_overhead_pct".into(),
        100.0 * (traced_p50 - o.quote_p50_us) / o.quote_p50_us,
    );
    let correct = o.correct && r.get("correct") == Some(&Json::Bool(true));
    println!(
        "{}",
        manifest::result_line(
            correct,
            o.attempted + num("attempted")? as u64,
            o.failed + num("failed")? as u64,
            PER_LAYER,
            &values,
        )?
    );
    Ok(correct)
}
