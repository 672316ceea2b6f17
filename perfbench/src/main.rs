//! The pipeline benchmark. One invocation runs one workload in its own
//! process:
//!
//! ```text
//! perfbench --workload <cegis-deep|one-shot|vc-frontier> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the untraced
//! `pipeline::Refactoring` facade; `--trace 1` runs the facade once for
//! reference and then the traced stage driver, and reports the per-layer
//! metrics. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `NOTES.md` explains
//! the workloads and how to read the numbers.

mod facade;
mod machine;
mod stages;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use obs::Trace;

use crate::facade::SpeculationCounter;
use crate::stages::{Layer, Tracer};
use crate::workload::{Input, Record, Workload};

/// Set-up repetitions at the start of a run and again after every pass;
/// `setup_s` is the median of them all. The box's speed drifts over
/// seconds, so repetitions spread over the run sample more of that drift
/// than one block of them at the start would.
const SETUP_REPS: usize = 9;

/// In the traced run, layer self times plus `layers.unattributed_s` must
/// cover the traced wall time, and the unattributed rest may be at most
/// this share of it.
const UNATTRIBUTED_TOLERANCE: f64 = 0.02;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag:?}"));
        };
        let value = args
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        values.insert(name.to_string(), value);
    }
    let take = |name: &str| {
        values
            .get(name)
            .cloned()
            .ok_or_else(|| format!("--{name} is required"))
    };
    let workload_name = take("workload")?;
    let workload = workload::workload_by_name(&workload_name)
        .ok_or_else(|| format!("unknown workload {workload_name:?}"))?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let out_dir = values
        .get("out-dir")
        .map_or_else(|| PathBuf::from(".bench_build/perfbench"), PathBuf::from);
    if let Some(unknown) = values
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace", "out-dir"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{unknown}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

/// The metrics of one run, in report order, with their units.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What a run found besides its metrics.
struct Verdict {
    attempted: usize,
    failed: usize,
    /// Determinism or fidelity violations; any one makes the run incorrect.
    problems: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]",
                workload::WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(error) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!(
            "perfbench: cannot create {}: {error}",
            args.out_dir.display()
        );
        return ExitCode::from(2);
    }
    let fingerprint = machine::Fingerprint::read();
    let load_start = machine::load_average();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.threads
    );

    let mut setup_seconds = Vec::new();
    let inputs = timed_setup(&args, &mut setup_seconds);
    println!(
        "order {}",
        inputs
            .iter()
            .map(|i| i.name.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    );

    let (metrics, verdict) = if args.trace {
        traced_run(&args, &inputs)
    } else {
        let (mut metrics, verdict) = facade_run(&args, &inputs, &mut setup_seconds);
        metrics.insert(0, ("setup_s", stats::median(&setup_seconds), "s"));
        (metrics, verdict)
    };

    println!(
        "machine nproc={} cpu_model={:?} hypervisor={} load_start=\"{load_start}\" load_end=\"{}\"",
        fingerprint.nproc,
        fingerprint.cpu_model,
        fingerprint.hypervisor,
        machine::load_average()
    );
    for problem in &verdict.problems {
        println!("PROBLEM {problem}");
    }
    let correct = verdict.failed == 0 && verdict.problems.is_empty();
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        verdict.attempted, verdict.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let separator = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{separator}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the set-up step `SETUP_REPS` times, adding each duration to
/// `seconds`, and returns the inputs of the last repetition.
fn timed_setup(args: &Args, seconds: &mut Vec<f64>) -> Vec<Input> {
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        inputs = workload::setup(args.workload, args.seed);
        seconds.push(start.elapsed().as_secs_f64());
    }
    inputs
}

/// Checks every record of a pass against its input's expected outcome and
/// prints one row per benchmark.
fn tally_pass(inputs: &[Input], pass: &facade::Pass, label: &str, verdict: &mut Verdict) {
    for (input, run) in inputs.iter().zip(&pass.runs) {
        verdict.attempted += 1;
        let expected = run.record.expected_for(input);
        if !expected {
            verdict.failed += 1;
        }
        println!(
            "{label} {:<16} {} seconds={} {}",
            input.name,
            run.record.render(),
            run.seconds,
            if expected { "ok" } else { "UNEXPECTED" }
        );
    }
    println!(
        "{label} wall_s={} cpu_s={}",
        pass.wall_seconds, pass.cpu_seconds
    );
}

/// Names the benchmarks whose records differ between two passes.
fn compare_passes(
    inputs: &[Input],
    a: &facade::Pass,
    b: &facade::Pass,
    what: &str,
    verdict: &mut Verdict,
) {
    for ((input, x), y) in inputs.iter().zip(&a.runs).zip(&b.runs) {
        if x.record != y.record {
            verdict.problems.push(format!(
                "{what}: {} differs: {} vs {}",
                input.name,
                x.record.render(),
                y.record.render()
            ));
        }
    }
}

/// The end-to-end run: timed facade passes until `--seconds` is used up,
/// then the determinism checks. More set-up repetitions run after every
/// pass and add to `setup_seconds`.
fn facade_run(args: &Args, inputs: &[Input], setup_seconds: &mut Vec<f64>) -> (Metrics, Verdict) {
    let mut verdict = Verdict {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    // `peak_rss_mb` is read after set-up and the first pass at a thread
    // budget of one: a fixed amount of single-threaded work. At two threads
    // the peak depends on which speculative completions happen to overlap,
    // so a multi-threaded workload runs its untimed budget-one pass (the
    // determinism check) first. That pass counts against `--seconds`, so
    // every run of a workload takes about as long.
    let window = Instant::now();
    let mut peak_rss = None;
    let single = (args.workload.threads > 1).then(|| {
        parpool::set_thread_limit(1);
        let pass = facade::pass(inputs, None);
        tally_pass(inputs, &pass, "threads1", &mut verdict);
        peak_rss = Some(machine::peak_rss_mb());
        timed_setup(args, setup_seconds);
        pass
    });
    parpool::set_thread_limit(args.workload.threads);
    let mut passes: Vec<facade::Pass> = Vec::new();
    loop {
        let pass = facade::pass(inputs, None);
        tally_pass(
            inputs,
            &pass,
            &format!("pass{}", passes.len()),
            &mut verdict,
        );
        peak_rss.get_or_insert_with(machine::peak_rss_mb);
        passes.push(pass);
        timed_setup(args, setup_seconds);
        // Start another pass only if a typical one still fits the window.
        let typical = stats::median(&passes.iter().map(|p| p.wall_seconds).collect::<Vec<_>>());
        if window.elapsed().as_secs_f64() + typical > args.seconds {
            break;
        }
    }
    let first = &passes[0];
    for pass in &passes[1..] {
        compare_passes(inputs, first, pass, "repeat pass", &mut verdict);
    }
    if let Some(single) = &single {
        // The determinism contract: the same counters at any thread budget.
        compare_passes(inputs, first, single, "thread budget 2 vs 1", &mut verdict);
    }
    check_ledger(args, inputs, first, &mut verdict);

    let per_benchmark: Vec<f64> = (0..inputs.len())
        .map(|i| stats::median(&passes.iter().map(|p| p.runs[i].seconds).collect::<Vec<_>>()))
        .collect();
    let solved = passes
        .iter()
        .flat_map(|p| &p.runs)
        .filter(|r| r.record.solved_and_validated())
        .count();
    let runs = passes.len() * inputs.len();
    let mut metrics: Metrics = vec![
        (
            "total_s",
            stats::median(&passes.iter().map(|p| p.wall_seconds).collect::<Vec<_>>()),
            "s",
        ),
        ("geomean_s", stats::geomean(&per_benchmark), "s"),
        (
            "cpu_s",
            stats::median(&passes.iter().map(|p| p.cpu_seconds).collect::<Vec<_>>()),
            "s",
        ),
        ("solved_share", stats::solved_share(solved, runs), "ratio"),
        (
            "peak_rss_mb",
            peak_rss.expect("read after the first pass"),
            "MiB",
        ),
    ];
    if verdict.problems.is_empty() {
        let sequences: i128 = first
            .runs
            .iter()
            .map(|r| r.record.counter("sequences_tested"))
            .sum();
        metrics.push(("sequences", sequences as f64, "count"));
    } else {
        println!("sequences not reported: the counters did not repeat");
    }
    println!(
        "passes {} setup_samples {}",
        passes.len(),
        setup_seconds.len()
    );
    (metrics, verdict)
}

/// Compares this run's records with those an earlier run of the same
/// executable left behind, so the counters must repeat across processes,
/// not only within one. The first run of a build writes the ledger.
fn check_ledger(args: &Args, inputs: &[Input], pass: &facade::Pass, verdict: &mut Verdict) {
    let mut rows: Vec<String> = inputs
        .iter()
        .zip(&pass.runs)
        .map(|(input, run)| format!("{} {}\n", input.name, run.record.render()))
        .collect();
    rows.sort();
    let text: String = rows.concat();
    let path = ledger_path(&args.out_dir, args.workload.name);
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier == text => println!("ledger matches {}", path.display()),
        Ok(earlier) => {
            for (old, new) in earlier.lines().zip(text.lines()) {
                if old != new {
                    verdict
                        .problems
                        .push(format!("differs from an earlier run: {old} vs {new}"));
                }
            }
            if earlier.lines().count() != text.lines().count() {
                verdict
                    .problems
                    .push("ledger lists other benchmarks".to_string());
            }
        }
        // Written under a temporary name and renamed, so an interrupted run
        // never leaves a partial ledger behind.
        Err(_) => match std::fs::write(path.with_extension("tmp"), &text)
            .and_then(|()| std::fs::rename(path.with_extension("tmp"), &path))
        {
            Ok(()) => println!("ledger written {}", path.display()),
            Err(error) => verdict
                .problems
                .push(format!("cannot write {}: {error}", path.display())),
        },
    }
}

/// The ledger file for this build of the benchmark: keyed by a hash of the
/// running executable, so a rebuilt program starts a fresh ledger.
fn ledger_path(out_dir: &Path, workload: &str) -> PathBuf {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .expect("the running executable is readable");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in exe {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    out_dir.join(format!("ledger-{workload}-{hash:016x}.txt"))
}

/// The traced run: one facade pass at the workload's thread budget for
/// reference (and the speculation counts), then the stage driver at a
/// budget of one with a span around every layer call.
fn traced_run(args: &Args, inputs: &[Input]) -> (Metrics, Verdict) {
    let mut verdict = Verdict {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    parpool::set_thread_limit(args.workload.threads);
    let speculation = Arc::new(SpeculationCounter::default());
    let reference = facade::pass(inputs, Some(speculation.clone()));
    tally_pass(inputs, &reference, "facade", &mut verdict);
    check_ledger(args, inputs, &reference, &mut verdict);

    parpool::set_thread_limit(1);
    let trace = Trace::new();
    let mut tracer = Tracer {
        trace: &trace,
        tally: stages::Tally::default(),
    };
    let start = Instant::now();
    let records: Vec<Record> = inputs
        .iter()
        .zip(&reference.runs)
        .map(|(input, run)| stages::run(input, run.synthesized.as_ref(), &mut tracer))
        .collect();
    let wall = start.elapsed().as_secs_f64();
    let tally = tracer.tally;

    for ((input, record), run) in inputs.iter().zip(&records).zip(&reference.runs) {
        verdict.attempted += 1;
        let expected = record.expected_for(input);
        if !expected {
            verdict.failed += 1;
        }
        let agrees = *record == run.record;
        if !agrees {
            verdict.problems.push(format!(
                "stage driver diverges from the facade on {}: {} vs {}",
                input.name,
                record.render(),
                run.record.render()
            ));
        }
        println!(
            "stages {:<16} {} {}",
            input.name,
            record.render(),
            if expected && agrees { "ok" } else { "MISMATCH" }
        );
    }

    let self_seconds: Vec<f64> = tally.self_time.iter().map(|d| d.as_secs_f64()).collect();
    let attributed: f64 = self_seconds.iter().sum();
    let unattributed = wall - attributed;
    println!(
        "coverage layers={attributed} wall={wall} unattributed={unattributed} tolerance={UNATTRIBUTED_TOLERANCE}"
    );
    if !(0.0..=UNATTRIBUTED_TOLERANCE * wall).contains(&unattributed) {
        verdict.problems.push(format!(
            "layer self times {attributed}s leave {unattributed}s of {wall}s traced wall time unattributed (tolerance {:.0}%)",
            UNATTRIBUTED_TOLERANCE * 100.0
        ));
    }
    check_chrome_trace(args, &trace, &mut verdict);

    let layer_s = |layer: Layer| self_seconds[layer as usize];
    let speculated = speculation.speculated.load(Ordering::Relaxed);
    let cancelled = speculation.cancelled.load(Ordering::Relaxed);
    let metrics: Metrics = vec![
        ("ingest.s", layer_s(Layer::Ingest), "s"),
        ("value_corr.s", layer_s(Layer::ValueCorr), "s"),
        ("value_corr.produced", tally.correspondences as f64, "count"),
        ("sketch_gen.s", layer_s(Layer::SketchGen), "s"),
        ("sketch_gen.calls", tally.sketch_calls as f64, "count"),
        (
            "sketch_gen.useful_ratio",
            stats::ratio(tally.sketches, tally.correspondences, 0.0),
            "ratio",
        ),
        ("completion.s", layer_s(Layer::Completion), "s"),
        ("completion.candidates", tally.candidates as f64, "count"),
        (
            "completion.sequences",
            tally.completion_sequences as f64,
            "count",
        ),
        (
            "completion.blocking_clauses",
            tally.blocking_clauses as f64,
            "count",
        ),
        ("verify.s", layer_s(Layer::Verify), "s"),
        ("verify.sequences", tally.verify_sequences as f64, "count"),
        (
            "equiv.oracle_hit_ratio",
            stats::ratio(
                tally.oracle_hits,
                tally.oracle_hits + tally.oracle_computes,
                0.0,
            ),
            "ratio",
        ),
        (
            "equiv.prefix_cache_hits",
            tally.check.prefix_cache_hits as f64,
            "count",
        ),
        (
            "equiv.plans_compiled",
            tally.check.plans_compiled as f64,
            "count",
        ),
        ("equiv.undo_frames", tally.check.undo_frames as f64, "count"),
        ("emit.s", layer_s(Layer::Emit), "s"),
        ("validate.s", layer_s(Layer::Validate), "s"),
        ("parpool.speculated", speculated as f64, "count"),
        (
            // With nothing speculated, nothing was wasted.
            "parpool.useful_ratio",
            stats::ratio(speculated - cancelled.min(speculated), speculated, 1.0),
            "ratio",
        ),
        ("layers.unattributed_s", unattributed, "s"),
        ("trace.overhead_s", tally.trace_overhead.as_secs_f64(), "s"),
    ];
    (metrics, verdict)
}

/// Writes the traced run's Chrome trace and validates it with the
/// project's `tracecheck`, built next to this executable.
fn check_chrome_trace(args: &Args, trace: &Trace, verdict: &mut Verdict) {
    let path = args.out_dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name, args.seed
    ));
    if let Err(error) = std::fs::write(&path, trace.to_chrome_json().to_compact_string()) {
        verdict
            .problems
            .push(format!("cannot write {}: {error}", path.display()));
        return;
    }
    let tracecheck = std::env::current_exe()
        .expect("the running executable has a path")
        .with_file_name("tracecheck");
    let mut command = std::process::Command::new(&tracecheck);
    command
        .arg(&path)
        .args(["benchmark", "ingest", "value_corr"]);
    match command.output() {
        Ok(output) if output.status.success() => print!(
            "trace {} {}",
            path.display(),
            String::from_utf8_lossy(&output.stdout)
        ),
        Ok(output) => verdict.problems.push(format!(
            "tracecheck rejected {}: {}",
            path.display(),
            String::from_utf8_lossy(&output.stderr).trim()
        )),
        Err(error) => verdict
            .problems
            .push(format!("cannot run {}: {error}", tracecheck.display())),
    }
}
