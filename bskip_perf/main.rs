//! `bskip_perf`: one repeatable end-to-end + per-layer benchmark for the
//! whole stack (B-skiplist → LSM engine → wire).
//!
//! ```text
//! bskip_perf --seed 1                  # four workloads untraced, then the traced pass
//! bskip_perf --workload lsm_read --seed 7 --seconds 20 --trace 0   # one driver run
//! bskip_perf --selfcheck 5             # run-to-run spread of every end-to-end metric
//! bskip_perf --quick                   # smoke run, results not comparable
//! ```
//!
//! It claims no gain; it is the ruler later claims are measured with.
//! `README.md` next to this file has the design, the sizes and the noise
//! findings behind them.

mod affinity;
mod alloc;
mod gen;
mod harness;
mod hostref;
mod metrics;
mod scratch;
mod stats;
mod trace;
mod workloads;
mod wrappers;

use std::fmt::Write as _;
use std::process::ExitCode;

use gen::{Class, CLASSES};
use metrics::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use stats::{iqr_frac, median};
use workloads::{Outcome, RunCfg};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: bskip_perf [--seed N] [--workload NAME] [--trace 0|1] [--seconds 20] \
                     [--quick] [--selfcheck N]";

/// How far the ladder's top rung may sit from the phase's per-operation
/// time for the per-layer deltas to count as accounting for it.
const LADDER_GAP_MAX: f64 = 0.25;

#[derive(Debug, PartialEq, Eq)]
struct Args {
    seed: u64,
    /// Restrict the run to one workload.
    workload: Option<String>,
    /// `--trace 0|1`: that pass only; without it, both.
    trace: Option<bool>,
    quick: bool,
    selfcheck: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 1,
        workload: None,
        trace: None,
        quick: false,
        selfcheck: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: {text:?} is not a whole number\n{USAGE}"))
        };
        match flag.as_str() {
            "--seed" => parsed.seed = number(value("a number")?)?,
            // The driver says how long a run measures; the op counts that
            // make it so are frozen, so there is one right answer.
            "--seconds" => {
                if number(value("a number")?)? != RUN_SECONDS {
                    return Err(format!(
                        "--seconds must be {RUN_SECONDS}: the op counts are fixed, \
                         and runs of different length measure differently aged structures"
                    ));
                }
            }
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?}; known: {known:?}"));
                }
                parsed.workload = Some(name.clone());
            }
            "--trace" => {
                parsed.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--quick" => parsed.quick = true,
            "--selfcheck" => {
                let runs = number(value("a run count")?)? as usize;
                if runs < 2 {
                    return Err("--selfcheck needs at least 2 runs".into());
                }
                parsed.selfcheck = Some(runs);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// The `[profile.release]` table of a manifest, as sorted `key=value`
/// strings without blanks or comments.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut settings: Vec<String> = manifest
        .lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty())
        .map(|line| line.split_whitespace().collect())
        .collect();
    settings.sort_unstable();
    settings
}

/// This package is its own workspace root, so its manifest's release
/// profile is the one the product crates were compiled with.  Refuses to
/// measure unless it is the repository's.
fn check_profile() -> Result<(), String> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
    let shipped = std::fs::read_to_string(root).map_err(|error| format!("{root}: {error}"))?;
    let (ours, theirs) = (
        release_profile(include_str!("Cargo.toml")),
        release_profile(&shipped),
    );
    if ours == theirs {
        Ok(())
    } else {
        Err(format!(
            "bskip_perf/Cargo.toml builds with [profile.release] {ours:?}, \
             the repository with {theirs:?}: make them equal"
        ))
    }
}

/// `(name, unit, value)`.
type Metric = (&'static str, &'static str, f64);

/// What the clock saw, and how fast the host was while it did.
struct WallClock {
    host_index: f64,
    /// `(end-to-end metric, its value before the host correction)`.
    timings: Vec<(&'static str, f64)>,
}

/// One run of one workload, reduced to named numbers.
struct Report {
    workload: &'static str,
    traced: bool,
    attempted: u64,
    failed: u64,
    /// What this run measured of the contract's list for its mode
    /// (end-to-end or per-layer), in table order.
    metrics: Vec<Metric>,
    /// `write_amp` and `read_bytes_per_get` of an untraced LSM run: not on
    /// the end-to-end list, so not in a driver run's result.
    ungated: Vec<Metric>,
    /// An untraced run's timings before the host correction.
    wall_clock: Option<WallClock>,
    /// Measurements that came out unusable; any makes the run a failure.
    broken: Vec<String>,
    text: String,
}

/// Self time and call counts per traced operation, by the layer the span
/// sits on; read before the trace is drained.
fn trace_layers() -> Vec<(&'static str, f64)> {
    let totals = trace::aggregate();
    let sum = |prefix: &str, pick: fn(&trace::Agg) -> u64| -> f64 {
        totals
            .iter()
            .filter(|(name, _)| name.text().starts_with(prefix))
            .map(|(_, agg)| pick(agg))
            .sum::<u64>() as f64
    };
    let ops = sum("op.", |agg| agg.calls);
    let mut layers = vec![("trace.op_self_ns", sum("op.", |a| a.self_ns) / ops)];
    // A boundary no span of this workload crossed is not measured here.
    for (prefix, self_ns, calls, bytes) in [
        (
            "backend.",
            "trace.backend_self_ns",
            "trace.backend_calls_per_op",
            None,
        ),
        (
            "shard.",
            "trace.shard_self_ns",
            "trace.shard_calls_per_op",
            None,
        ),
        (
            "storage.",
            "trace.storage_self_ns",
            "trace.storage_calls_per_op",
            Some("trace.storage_bytes_per_op"),
        ),
    ] {
        if sum(prefix, |a| a.calls) > 0.0 {
            layers.push((self_ns, sum(prefix, |a| a.self_ns) / ops));
            layers.push((calls, sum(prefix, |a| a.calls) / ops));
            layers.extend(bytes.map(|name| (name, sum(prefix, |a| a.count) / ops)));
        }
    }
    layers
}

fn run_one(workload: &Workload, cfg: &RunCfg, trace_json: &mut Vec<String>) -> Report {
    let outcome: Outcome = (workload.run)(cfg);
    let failed = outcome.phase.failed + outcome.oracle_mismatches;
    let phase = &outcome.phase;

    let mut text = String::new();
    let _ = writeln!(
        text,
        "== {} ({}) — {}",
        workload.name,
        if cfg.traced { "traced" } else { "untraced" },
        workload.why
    );
    let mut metrics = Vec::new();
    let mut ungated = Vec::new();
    let mut broken = Vec::new();
    let mut wall_clock = None;
    if cfg.traced {
        let mut measured = outcome.layers.clone();
        measured.extend(metrics::common_layers(&outcome, failed));
        measured.extend(trace_layers());
        let mut json = String::new();
        trace::drain_json(workload.name, &mut json);
        trace_json.push(json);
        for (name, _) in &measured {
            assert!(
                PER_LAYER.iter().any(|layer| layer.name == *name),
                "{name} is measured but not in the per-layer table"
            );
        }
        for layer in &PER_LAYER {
            let Some(&(_, value)) = measured.iter().find(|(name, _)| *name == layer.name) else {
                continue;
            };
            let _ = writeln!(
                text,
                "  {:<36} {:>16.4} {:<6} ({} is better)",
                layer.name,
                value,
                layer.unit,
                layer.better.text()
            );
            if !value.is_finite() {
                broken.push(format!("{}/{} is {value}", workload.name, layer.name));
            }
            metrics.push((layer.name, layer.unit, value));
        }
    } else {
        for metric in &END_TO_END {
            let value = (metric.value)(&outcome);
            let _ = writeln!(
                text,
                "  {:<36} {:>16.4} {:<6} ({} is better, bound {:.0} %)",
                metric.name,
                value,
                metric.unit,
                metric.better.text(),
                metric.bound * 100.0
            );
            // A ratio to the parent's median has to exist.
            if !(value.is_finite() && value > 0.0) {
                broken.push(format!("{}/{} is {value}", workload.name, metric.name));
            }
            metrics.push((metric.name, metric.unit, value));
        }
        for (name, value) in metrics::storage_layers(&outcome) {
            let layer = PER_LAYER
                .iter()
                .find(|layer| layer.name == name)
                .expect("listed per layer");
            let _ = writeln!(
                text,
                "  {:<36} {:>16.4} {:<6} ({} is better, no bound)",
                name,
                value,
                layer.unit,
                layer.better.text()
            );
            ungated.push((name, layer.unit, value));
        }
        let host = outcome.host();
        let _ = writeln!(
            text,
            "  host index {:.3} (mem {:.0} ns/step, sys {:.0} ns/call, {} samples), this \
             workload's sensitivity {}: the times above are the clock's ÷ {:.3}, the rate × it; \
             the clock's were",
            host.index(),
            host.mem_ns,
            host.sys_ns,
            outcome.setup.host.len() + phase.host.len(),
            outcome.host_sensitivity,
            outcome.host_factor(),
        );
        let raw_us = |class| phase.raw_lat_us(class, |l| l.p50_ns).unwrap_or(f64::NAN);
        wall_clock = Some(WallClock {
            host_index: host.index(),
            timings: vec![
                ("setup_s", outcome.setup.raw_s()),
                ("ops_per_s", phase.raw_ops_per_s()),
                ("get_p50_us", raw_us(Class::Get)),
                ("put_p50_us", raw_us(Class::Put)),
                ("scan_p50_us", raw_us(Class::Scan)),
            ],
        });
        for (name, value) in wall_clock.iter().flat_map(|clock| &clock.timings) {
            let _ = write!(text, "    {name} {value:.4}");
        }
        let _ = writeln!(
            text,
            "\n  set-ups {:.3?} s; {} throughput slices, iqr {:.1} % of median",
            outcome.setup.seconds,
            phase.throughput.len(),
            iqr_frac(&phase.throughput) * 100.0,
        );
        for class in CLASSES {
            let hist = &phase.hist[class as usize];
            if let Some((label, ns)) = hist.highest_supported() {
                let _ = writeln!(
                    text,
                    "  {:<5} {:>9} samples over {} latency slices, {} = {:.1} us",
                    class.name(),
                    hist.count,
                    phase.latency.len(),
                    label,
                    ns / 1e3
                );
            }
        }
    }
    let _ = writeln!(
        text,
        "  attempted {} failed {} (oracle mismatches {}) live keys {} phase {:.1} s",
        phase.attempted, failed, outcome.oracle_mismatches, outcome.live_keys, phase.wall_s
    );
    Report {
        workload: workload.name,
        traced: cfg.traced,
        attempted: phase.attempted,
        failed,
        metrics,
        ungated,
        wall_clock,
        broken,
        text,
    }
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
///
/// One report is a driver run: bare names, and every name of the
/// contract's list for its mode — a per-layer metric the workload does not
/// measure reads 0 there, because the driver takes no other answer (the
/// report above the result says which were measured).  Several reports
/// are a developer's run: `<workload>/<name>`, measured metrics only.
fn result_json(reports: &[Report]) -> String {
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failed == 0,
        attempted.max(1),
        failed
    );
    let mut entries = Vec::new();
    if let [report] = reports {
        if report.traced {
            for layer in &PER_LAYER {
                let measured = report.metrics.iter().find(|(name, ..)| *name == layer.name);
                entries.push((
                    layer.name.to_string(),
                    layer.unit,
                    measured.map_or(0.0, |&(.., value)| value),
                ));
            }
        } else {
            entries.extend(
                report
                    .metrics
                    .iter()
                    .map(|&(n, u, v)| (n.to_string(), u, v)),
            );
        }
    } else {
        for report in reports {
            for &(name, unit, value) in report.metrics.iter().chain(&report.ungated) {
                entries.push((format!("{}/{name}", report.workload), unit, value));
            }
        }
    }
    for (at, (name, unit, value)) in entries.iter().enumerate() {
        assert!(value.is_finite(), "{name} is {value}");
        // Rust's shortest round-trip form: every digit measured.
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if at == 0 { "" } else { ", " },
        );
    }
    out.push_str("}}");
    out
}

fn selected(args: &Args) -> Vec<&'static Workload> {
    WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == w.name))
        .collect()
}

fn write_trace(trace_json: &[String]) {
    if trace_json.is_empty() {
        return;
    }
    let path = std::path::Path::new(scratch::OUTPUT_ROOT).join("trace.json");
    let body = format!("[{}]\n", trace_json.join(",\n"));
    match std::fs::create_dir_all(scratch::OUTPUT_ROOT).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
}

/// Least-squares slope of `ln y` over `ln x`: by how many percent `y`
/// moves when `x` moves by one.
fn log_log_slope(x: &[f64], y: &[f64]) -> f64 {
    let mean = |values: &[f64]| values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64;
    let (mean_x, mean_y) = (mean(x), mean(y));
    let (mut covariance, mut variance) = (0.0, 0.0);
    for (x, y) in x.iter().zip(y) {
        covariance += (x.ln() - mean_x) * (y.ln() - mean_y);
        variance += (x.ln() - mean_x).powi(2);
    }
    covariance / variance
}

/// `--selfcheck N`: the untraced pass N times (seeds `seed..seed+N`, as
/// the acceptance runs vary the seed) and, per metric, its min, median,
/// max, (max − min)/median and quartile spread against the bound; then
/// how the clock's timings followed the host index over those runs, which
/// is how each workload's `HOST_SENSITIVITY` was fitted.
fn selfcheck(args: &Args, runs: usize) -> bool {
    let mut all_ok = true;
    for workload in selected(args) {
        // Per metric of a report, in its order: the value of every run.
        let mut values: Vec<Vec<f64>> = Vec::new();
        let mut names: Vec<&str> = Vec::new();
        let mut clocks: Vec<WallClock> = Vec::new();
        for run in 0..runs {
            let cfg = RunCfg {
                seed: args.seed + run as u64,
                traced: false,
                quick: args.quick,
            };
            let report = run_one(workload, &cfg, &mut Vec::new());
            all_ok &= report.failed == 0 && report.broken.is_empty();
            let measured = report.metrics.iter().chain(&report.ungated);
            names = measured.clone().map(|&(name, ..)| name).collect();
            values.resize(names.len(), Vec::new());
            for (slot, &(.., value)) in values.iter_mut().zip(measured) {
                slot.push(value);
            }
            clocks.extend(report.wall_clock);
            eprintln!("selfcheck {} run {}/{runs} done", workload.name, run + 1);
        }
        println!("== selfcheck {} ({runs} runs)", workload.name);
        println!(
            "  {:<18} {:>14} {:>14} {:>14} {:>10} {:>9} {:>7}",
            "metric", "min", "median", "max", "range/med", "iqr/med", "bound"
        );
        for (name, values) in names.iter().zip(&values) {
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mid = median(values);
            let bound = END_TO_END
                .iter()
                .find(|metric| metric.name == *name)
                .map_or("none".to_string(), |m| format!("{:.0}%", m.bound * 100.0));
            println!(
                "  {:<18} {:>14.4} {:>14.4} {:>14.4} {:>9.2}% {:>8.2}% {:>7}",
                name,
                min,
                mid,
                max,
                (max - min) / mid * 100.0,
                iqr_frac(values) * 100.0,
                bound
            );
        }
        let index: Vec<f64> = clocks.iter().map(|clock| clock.host_index).collect();
        println!(
            "  host index {:.3} to {:.3}; log-log slope of the clock's timings over it \
             (a fit needs the index to have moved):",
            index.iter().copied().fold(f64::INFINITY, f64::min),
            index.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        for (at, &(name, _)) in clocks.first().iter().flat_map(|c| &c.timings).enumerate() {
            // Time per operation, so every slope has the same sign.
            let timing: Vec<f64> = clocks
                .iter()
                .map(|clock| clock.timings[at].1)
                .map(|value| {
                    if name == "ops_per_s" {
                        1.0 / value
                    } else {
                        value
                    }
                })
                .collect();
            println!("  {:<18} {:>14.2}", name, log_log_slope(&index, &timing));
        }
    }
    all_ok
}

/// Whether the per-layer deltas account for the end-to-end number: the
/// ladder's top rung against the per-operation time of the same run's
/// untraced slices, for the workloads that have a top rung.
fn ladder_accounts(traced: &Report) -> bool {
    let Some(&(.., gap)) = traced
        .metrics
        .iter()
        .find(|(name, ..)| *name == "bench.ladder_gap_frac")
    else {
        return true;
    };
    let ok = gap.abs() <= LADDER_GAP_MAX;
    println!(
        "ladder check {}: top rung {:+.0} % off the phase's per-operation time ({})",
        traced.workload,
        gap * 100.0,
        if ok {
            "accounts for it"
        } else {
            "FAILED: beyond 25 %"
        }
    );
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv).and_then(|args| check_profile().map(|()| args)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    scratch::remove_stale();
    println!(
        "bskip_perf seed={} benchmark_threads={} host_cores={}{}",
        args.seed,
        workloads::threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if args.quick {
            " QUICK (sizes cut down: results are not comparable with a full run)"
        } else {
            ""
        }
    );
    if let Some(runs) = args.selfcheck {
        return if selfcheck(&args, runs) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let passes: &[bool] = match args.trace {
        Some(traced) => &[traced],
        None => &[false, true],
    };
    let mut trace_json = Vec::new();
    let mut reports = Vec::new();
    for &traced in passes {
        for workload in selected(&args) {
            let cfg = RunCfg {
                seed: args.seed,
                traced,
                quick: args.quick,
            };
            let report = run_one(workload, &cfg, &mut trace_json);
            print!("{}", report.text);
            reports.push(report);
        }
    }
    write_trace(&trace_json);

    let broken: Vec<&String> = reports.iter().flat_map(|r| &r.broken).collect();
    if !broken.is_empty() {
        eprintln!("broken measurements, no result: {broken:?}");
        return ExitCode::FAILURE;
    }
    // The acceptance check of the one-command run; a single driver run
    // only reports the gap.
    let mut ok = reports.iter().all(|r| r.failed == 0);
    if reports.len() > 1 {
        for traced in reports.iter().filter(|r| r.traced) {
            ok &= ladder_accounts(traced);
        }
    }
    println!("{}", result_json(&reports));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let parsed = args(&[
            "--workload",
            "lsm_read",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("lsm_read"));
        assert_eq!((parsed.seed, parsed.trace), (9, Some(true)));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "10"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert_eq!(args(&[]).unwrap().trace, None);
    }

    #[test]
    fn release_profiles_compare_by_setting() {
        let ours = "[package]\nname = \"x\"\n\n# why\n[profile.release]\ndebug = true\n\
                    lto = \"thin\"  # cross-crate inlining\n\n[workspace]\n";
        let theirs = "[profile.release]\nlto=\"thin\"\ndebug   = true\n";
        assert_eq!(release_profile(ours), ["debug=true", "lto=\"thin\""]);
        assert_eq!(release_profile(ours), release_profile(theirs));
        assert_ne!(
            release_profile(ours),
            release_profile("[profile.release]\nlto = \"fat\"\ndebug = true\n")
        );
        assert!(release_profile("[package]\n").is_empty());
        check_profile().expect("this package builds the way the repository does");
    }

    fn report(traced: bool, failed: u64, metrics: Vec<Metric>) -> Report {
        Report {
            workload: "lsm_read",
            traced,
            attempted: 1000,
            failed,
            metrics,
            ungated: vec![("write_amp", "ratio", 1.5)],
            wall_clock: None,
            broken: Vec::new(),
            text: String::new(),
        }
    }

    #[test]
    fn result_json_is_well_formed() {
        // A driver run, untraced: bare names, the end-to-end list only.
        let bare = result_json(&[report(false, 0, vec![("ops_per_s", "ops/s", 1234.5678)])]);
        assert_eq!(
            bare,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"ops_per_s\": {\"value\": 1234.5678, \"unit\": \"ops/s\"}}}"
        );
        // A driver run, traced: every per-layer name, measured or not.
        let layers = vec![
            ("fail_frac", "ratio", 0.0),
            ("lsm.scan100_ns", "ns", 0.1 + 0.2),
        ];
        let traced = result_json(&[report(true, 0, layers.clone())]);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(traced.contains("\"lsm.scan100_ns\": {\"value\": 0.30000000000000004,"));
        assert!(traced.contains("\"net.mean_batch\": {\"value\": 0,"));
        // Several runs: prefixed names, failures add up, and only what was
        // measured — a measured 0 stays, an unmeasured metric is left out.
        let both = result_json(&[
            report(false, 0, vec![("ops_per_s", "ops/s", 1.0)]),
            report(true, 3, layers),
        ]);
        assert!(both.starts_with("{\"correct\": false, \"attempted\": 2000, \"failed\": 3,"));
        assert!(both.contains("\"lsm_read/fail_frac\": {\"value\": 0,"));
        assert!(!both.contains("net.mean_batch"));
        assert_eq!(both.matches("lsm_read/write_amp").count(), 2);
        assert_eq!(both.matches('{').count(), both.matches('}').count());
    }

    #[test]
    fn log_log_slope_recovers_a_power_law() {
        let x = [1.0, 1.1, 1.25, 1.4, 1.9];
        let y: Vec<f64> = x.iter().map(|x: &f64| 3.0 * x.powf(1.5)).collect();
        assert!((log_log_slope(&x, &y) - 1.5).abs() < 1e-9);
        let flat = [7.0; 5];
        assert!(log_log_slope(&x, &flat).abs() < 1e-9);
    }

    #[test]
    fn the_ladder_check_reads_the_traced_gap() {
        let gap = |gap: f64| report(true, 0, vec![("bench.ladder_gap_frac", "ratio", gap)]);
        assert!(ladder_accounts(&gap(-0.21)));
        assert!(!ladder_accounts(&gap(0.3)));
        assert!(ladder_accounts(&report(true, 0, Vec::new())), "no ladder");
    }
}
