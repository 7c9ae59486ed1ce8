//! `qbdp-loadbench`: the repository's benchmark. One command drives the
//! production serving stack through three workloads over real loopback
//! sockets, checks every answer, and prints the end-to-end metrics; a
//! traced run of the same workload adds the per-crate breakdown. See
//! `README.md` in this directory for the workloads and metrics.

pub mod alloc;
pub mod load;
pub mod manifest;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;

/// Print a run's validity record, failures and end-to-end metrics.
pub fn report(o: &run::Outcome) {
    println!("{}", o.validity);
    for e in &o.errors {
        println!("check failed: {e}");
    }
    for (name, unit) in manifest::END_TO_END.iter().chain(manifest::UNBOUNDED_E2E) {
        if let Some(v) = o.e2e.get(*name) {
            println!("{name:<16} {v:>14.3} {unit}");
        }
    }
}
