//! `perfbench` — the repository benchmark's Rust side.
//!
//! ```text
//! perfbench sweep --workload W --seed S [--first] [--serial] [--hosts A,B]
//! perfbench trace --workload W --seed S --spans FILE
//! ```
//!
//! `sweep` runs one workload sweep through the product engine (the dispatch
//! of `sweep --plan` in summary report mode) in this fresh process and
//! prints one JSON line: wall time, the output digest and exact counts, and
//! the process's peak resident memory. `--first` runs the one-episode
//! sweep of the workload's first cell (the set-up probe); `--serial` forces
//! the serial reference engine. `trace` runs the traced replay and prints
//! its per-layer metrics; `perfbench/run.py` drives both.

mod engine;
mod replay;
mod trace;
mod tracer;
mod workload;

use std::time::Instant;
use workload::Workload;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    first: bool,
    serial: bool,
    hosts: Vec<String>,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command (sweep | trace)")?;
    let (mut workload, mut seed) = (None, None);
    let (mut first, mut serial, mut hosts, mut spans) = (false, false, Vec::new(), None);
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--hosts" => hosts = value()?.split(',').map(str::to_owned).collect(),
            "--spans" => spans = Some(value()?),
            "--first" => first = true,
            "--serial" => serial = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        first,
        serial,
        hosts,
        spans,
    })
}

fn counts_json(counts: &engine::Counts) -> String {
    let issued = counts
        .offloads_issued
        .map_or_else(|| "null".to_owned(), |n| n.to_string());
    format!(
        "\"episodes\": {}, \"steps\": {}, \"corrections\": {}, \"offloads_issued\": {issued}",
        counts.episodes, counts.steps, counts.corrections
    )
}

fn sweep(args: &Args) -> Result<String, String> {
    let text = args
        .workload
        .plan_text(args.seed, args.first, args.serial, &args.hosts)?;
    let start = Instant::now();
    let plan = seo_core::plan::SweepPlan::parse(&text).map_err(|e| e.to_string())?;
    let outcome = engine::run(&plan)?;
    let digest = engine::digest(&engine::summary_text(&outcome.summary));
    let wall_s = start.elapsed().as_secs_f64();
    let leases = outcome.remote.map_or(0, |r| r.jobs);
    Ok(format!(
        "{{\"wall_s\": {wall_s}, \"digest\": \"{digest}\", {}, \"leases\": {leases}, \
         \"peak_rss_kib\": {}}}",
        counts_json(&outcome.counts),
        engine::peak_rss_kib()
    ))
}

fn trace(args: &Args) -> Result<String, String> {
    let spans = args.spans.as_deref().ok_or("trace needs --spans FILE")?;
    let run = trace::run(args.workload, args.seed, std::path::Path::new(spans))?;
    Ok(format!(
        "{{\"digest\": \"{}\", {}, \"replayed\": {}, \"mismatches\": {}, \"metrics\": {}}}",
        run.digest,
        counts_json(&run.counts),
        run.replayed,
        run.mismatches,
        run.metrics.to_json()
    ))
}

fn main() {
    let result = parse_args().and_then(|args| match args.command.as_str() {
        "sweep" => sweep(&args),
        "trace" => trace(&args),
        other => Err(format!("unknown command '{other}'")),
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
