//! The traced run, started by `loadbench --trace 1`: the same workload
//! and seed under the counting allocator, with spans kept in memory and
//! written as JSON lines to `.bench_out/traces/` when the run ends. It
//! prints the per-layer self-time table and, as its last line, the
//! per-layer metrics (all but `obs.trace_overhead_pct` and `e2e.*`,
//! which the parent adds) plus its own `quote_p50_us`.

use qbdp_loadbench::alloc::Counting;
use qbdp_loadbench::manifest::{self, PER_LAYER};
use qbdp_loadbench::run::{self, Args, OUT_DIR};
use qbdp_loadbench::trace;

#[global_allocator]
static ALLOC: Counting = Counting;

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("loadbench-traced: {e}");
            std::process::exit(2);
        }
    }
}

fn real_main() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let o = run::run(&args, true)?;
    println!("traced {}", o.validity);
    for e in &o.errors {
        println!("traced check failed: {e}");
    }
    let b = trace::breakdown(&o.observed, args.seed, o.quote_p50_us)?;
    let dir = std::path::Path::new(OUT_DIR).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name, args.seed));
    std::fs::write(&path, trace::to_jsonl(&b.spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "self time by span ({}; {} spans in {})",
        args.workload.name,
        b.spans.len(),
        path.display()
    );
    print!("{}", b.table);
    let mut values = b.metrics;
    values.insert("quote_p50_us".into(), o.quote_p50_us);
    let catalogue: Vec<(&str, &str)> = PER_LAYER
        .iter()
        .copied()
        .filter(|(n, _)| *n != "obs.trace_overhead_pct" && !n.starts_with("e2e."))
        .chain([("quote_p50_us", "us")])
        .collect();
    println!(
        "{}",
        manifest::result_line(o.correct, o.attempted, o.failed, &catalogue, &values)?
    );
    Ok(o.correct)
}
