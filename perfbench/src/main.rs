//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <spec_ingest|networked_batched|history_query> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Repeats fixed-size units of the workload
//! until `--seconds` have passed (at least one), checks every unit's
//! output, and prints a report line, then the result line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Each value is the median over the run's units.
//! See `perfbench/README.md`.

mod history;
mod layers;
mod probes;
mod report;
mod trace;
mod workloads;

use layers::PER_LAYER;
use report::{json_num, json_str, result_line};
use simkit::rng::derive_seed;
use std::time::{Duration, Instant};
use workloads::{Scratch, Unit, Workload};

/// The end-to-end metrics every workload reports, by name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("iotps", "kvps/s"),
    ("insert_p50_us", "us"),
    ("insert_tail_us", "us"),
    ("query_p50_us", "us"),
    ("queries_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("space_amp", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or_else(|| {
                        bad("one of spec_ingest, networked_batched, history_query")
                    })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(|| bad("1..=3600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One run: units while the next one is expected to end no later than
/// half a unit past the time budget (at least one unit), so a run lasts
/// about `--seconds` however fast the host is. Untraced, each unit is one
/// run of the workload. Traced, each unit is an untraced reference run, a
/// traced run and the probes.
fn run(args: &Args, scratch: &mut Scratch) -> Result<(Unit, usize), String> {
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut total = Unit::default();
    let mut units = 0usize;
    while units == 0 || started.elapsed() * (2 * units as u32 + 1) / (2 * units as u32) <= budget {
        let seed = derive_seed(args.seed, units as u64);
        if args.trace {
            let plain = workloads::run_reference_unit(args.workload, scratch, seed)?;
            let traced = workloads::run_unit(args.workload, scratch, seed, true)?;
            let probe = workloads::probe(args.workload, scratch, seed)?;
            let inputs = traced.layers.as_ref().ok_or("traced unit without layers")?;
            let mut unit = Unit::default();
            for (name, value) in layers::layer_metrics(inputs, &probe) {
                unit.samples.add(name, value);
            }
            unit.samples.add(
                "trace.overhead",
                (plain.throughput - traced.throughput) / plain.throughput,
            );
            for u in [plain.unit, traced.unit] {
                unit.attempted += u.attempted;
                unit.failed += u.failed;
                unit.errors.extend(u.errors);
            }
            total.absorb(unit);
        } else {
            let run = workloads::run_unit(args.workload, scratch, seed, false)?;
            eprintln!(
                "perfbench: unit {units}: throughput {:.1} after {:.1} s",
                run.throughput,
                started.elapsed().as_secs_f64()
            );
            total.absorb(run.unit);
        }
        if units == 0 {
            // After a fixed amount of work: later units inherit the
            // allocator's retained heap, so a whole-run peak would grow
            // with the number of units a fast build fits in.
            total.samples.add("peak_rss_mb", report::peak_rss_mb());
        }
        units += 1;
    }
    Ok((total, units))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(cwd) => {
            cwd.join(".bench_data")
                .join(format!("{}-{}", args.workload.name(), std::process::id()))
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut scratch = Scratch::new(root.clone());
    let ticks = report::cpu_ticks();
    let outcome = run(&args, &mut scratch);
    let steal = report::steal_share(&ticks, &report::cpu_ticks());
    let _ = std::fs::remove_dir_all(&root);
    if let Some(parent) = root.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    let (unit, units) = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };

    let wanted: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut metrics = Vec::new();
    let mut correct = unit.errors.is_empty() && unit.failed == 0;
    for (name, unit_name) in &wanted {
        match unit.samples.median(name) {
            Some(v) if v.is_finite() => metrics.push((*name, v, *unit_name)),
            _ => {
                eprintln!("perfbench: no value for {name}");
                correct = false;
            }
        }
    }
    for e in unit.errors.iter().take(10) {
        eprintln!("perfbench: check failed: {e}");
    }

    let facts: Vec<String> = report::host_facts()
        .into_iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(&v)))
        .collect();
    // Which percentile each tail is (the highest with at least ten
    // samples beyond it), and the query tail, which not every workload has.
    let mut tails = Vec::new();
    for (name, label) in [
        ("insert_tail_us", unit.insert_tail),
        ("query_tail_us", unit.query_tail),
    ] {
        if let (Some(label), Some(v)) = (label, unit.samples.median(name)) {
            tails.push(format!(
                "{}: {{\"percentile\": {}, \"value\": {}}}",
                json_str(name),
                json_str(label),
                json_num(v)
            ));
        }
    }
    println!(
        "{{\"perfbench\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"units\": {units}, \
         \"host\": {{{}}}, \"steal_share\": {}, \"cluster\": {}, \"load\": {}, \
         \"percentile_samples\": {{\"insert\": {}, \"query\": {}}}, \"tails\": {{{}}}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        facts.join(", "),
        json_num(steal),
        json_str("3 nodes, replication 3, iotkv Options::default (8 MiB memtable, 32 MiB block cache per node, SyncMode::None, background compaction)"),
        json_str("closed loop, 2 client threads, no pacing"),
        unit.insert_n,
        unit.query_n,
        tails.join(", "),
    );
    println!(
        "{}",
        result_line(correct, unit.attempted.max(1), unit.failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics the benchmark prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
        for w in Workload::ALL {
            assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}
