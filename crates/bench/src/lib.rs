//! Shared harness code for the experiment binary and the Criterion benches:
//! per-benchmark synthesis configuration and result-row formatting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use benchmarks::{Benchmark, Category};
use dbir::equiv::TestConfig;
use migrator::baselines::CegisConfig;
use migrator::{SketchSolverKind, SynthesisConfig, SynthesisOutcome, SynthesisStats};
use pipeline::{RefactorError, Refactoring};

/// The synthesis configuration used for a benchmark in the experiments:
/// textbook benchmarks use the standard configuration; application-scale
/// benchmarks use a leaner bounded-testing configuration (fewer argument
/// combinations per function); see README, "Substitutions for the paper's
/// artifacts".
pub fn config_for(benchmark: &Benchmark, solver: SketchSolverKind) -> SynthesisConfig {
    let mut config = SynthesisConfig {
        solver,
        ..SynthesisConfig::standard()
    };
    lean_testing_for(benchmark, &mut config);
    config
}

/// The widened-space configuration ([`SynthesisConfig::widened`]) with the
/// same per-category bounded-testing adjustments as [`config_for`] — the
/// configuration the known-red gate uses to attack the frontier benchmarks.
pub fn widened_config_for(benchmark: &Benchmark) -> SynthesisConfig {
    let mut config = SynthesisConfig::widened();
    lean_testing_for(benchmark, &mut config);
    config
}

fn lean_testing_for(benchmark: &Benchmark, config: &mut SynthesisConfig) {
    if benchmark.category == Category::RealWorld {
        config.testing = TestConfig {
            max_arg_combinations: Some(4),
            ..TestConfig::default()
        };
        config.verification = TestConfig {
            max_arg_combinations: Some(4),
            ..TestConfig::default()
        };
    }
}

/// One entry in a deterministic-field allowlist: the JSON field name and
/// the extractor that reads its value from a fresh run.
pub type DeterministicField<T> = (&'static str, fn(&T) -> i128);

/// The deterministic trajectory contract: the top-level `BENCH_results.json`
/// fields `experiments check` compares against a fresh run, with their
/// extractors. Everything not listed here (wall time, snapshot and
/// oracle-hit counters, interner sizes) is machine- or scheduling-dependent
/// and deliberately excluded.
pub const DETERMINISTIC_TOP_FIELDS: &[DeterministicField<Table1Row>] = &[
    ("value_correspondences", |row| row.value_corr as i128),
    ("iterations", |row| row.iters as i128),
    ("sequences_tested", |row| row.sequences_tested as i128),
];

/// The deterministic phase counters nested under `phases` in
/// `BENCH_results.json` — the other half of the trajectory contract (see
/// [`DETERMINISTIC_TOP_FIELDS`]). These are merged from the winning
/// trajectory in enumeration order, so they are identical at any thread
/// count.
pub const DETERMINISTIC_PHASE_FIELDS: &[DeterministicField<migrator::PhaseBreakdown>] = &[
    ("sat_blocking_clauses", |p| p.sat_blocking_clauses as i128),
    ("plans_compiled", |p| p.plans_compiled as i128),
    ("solver_reuses", |p| p.solver_reuses as i128),
    ("learned_clauses_kept", |p| p.learned_clauses_kept as i128),
    ("prefix_cache_hits", |p| p.prefix_cache_hits as i128),
    ("undo_frames", |p| p.undo_frames as i128),
    ("undo_ops_rolled_back", |p| p.undo_ops_rolled_back as i128),
];

/// The CEGIS (Sketch stand-in) configuration used in Table 2 runs.
pub fn cegis_config_for(benchmark: &Benchmark, time_limit: Duration) -> CegisConfig {
    let testing = config_for(benchmark, SketchSolverKind::MfiGuided).testing;
    CegisConfig {
        max_candidates: 0,
        time_limit,
        testing,
    }
}

/// One measured row of Table 1, plus the underlying search statistics.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Whether synthesis succeeded.
    pub succeeded: bool,
    /// Value correspondences considered.
    pub value_corr: usize,
    /// Candidate programs explored.
    pub iters: usize,
    /// Synthesis time (seconds).
    pub synth_time: f64,
    /// Total time including verification (seconds).
    pub total_time: f64,
    /// Sketches generated (one per productive value correspondence).
    pub sketches_generated: usize,
    /// Structurally invalid hole assignments encountered.
    pub invalid_instantiations: usize,
    /// Completion count of the largest sketch explored.
    pub largest_search_space: u128,
    /// Invocation sequences executed during testing.
    pub sequences_tested: usize,
    /// Equivalence checks that accepted a candidate without enumerating
    /// their whole bound (their verdicts are optimistic).
    pub truncated_checks: usize,
    /// `true` when every accepting equivalence check exhausted its bound
    /// (i.e. `truncated_checks == 0`).
    pub bound_exhausted: bool,
    /// Source-side sequences served from the memoized source oracle.
    pub oracle_hits: usize,
    /// Largest single physical snapshot copy (bytes) performed by the
    /// bounded-testing engine during this run — a COW clone's pointer
    /// overhead or one copy-on-write table copy — an allocation proxy that
    /// makes snapshot-cost regressions visible independent of wall time.
    pub peak_snapshot_bytes: usize,
    /// Total payload bytes held by the process-wide value interner after
    /// this run (cumulative across runs in one process).
    pub interned_bytes: usize,
    /// Whether the emitted data-migration script, executed end-to-end on
    /// the in-memory SQL backend over a seeded source instance, produced
    /// exactly the dbir-predicted target instance (`None` when synthesis
    /// failed, so there is no migration to validate).
    pub validated: Option<bool>,
    /// How the run ended (`solved`, `no_solution`, `timeout`, `cancelled`).
    pub outcome: &'static str,
    /// Per-phase breakdown of the run: wall-clock times (never compared
    /// across runs) plus the deterministic counters
    /// (`sat_blocking_clauses`, `plans_compiled`, `solver_reuses`,
    /// `learned_clauses_kept`, `prefix_cache_hits`, `undo_frames`,
    /// `undo_ops_rolled_back`) that `experiments check` verifies.
    pub phases: migrator::PhaseBreakdown,
}

/// Builds the facade session the harness runs a benchmark through — the
/// same `Refactoring` pipeline every other client uses.
pub fn session_for(benchmark: &Benchmark, solver: SketchSolverKind) -> Refactoring {
    session_with(benchmark, config_for(benchmark, solver))
}

/// Builds the facade session for a benchmark with an explicit synthesis
/// configuration (e.g. the widened-space preset).
pub fn session_with(benchmark: &Benchmark, config: SynthesisConfig) -> Refactoring {
    Refactoring::new(
        benchmark.source_schema.clone(),
        benchmark.target_schema.clone(),
    )
    .program(benchmark.source_program.clone())
    .config(config)
}

/// Runs the full synthesis pipeline on a benchmark — through the
/// [`Refactoring`] facade — and returns the measured Table 1 row.
pub fn run_table1(benchmark: &Benchmark, solver: SketchSolverKind) -> Table1Row {
    run_table1_with(benchmark, config_for(benchmark, solver))
}

/// [`run_table1`] with an explicit synthesis configuration.
pub fn run_table1_with(benchmark: &Benchmark, config: SynthesisConfig) -> Table1Row {
    dbir::equiv::reset_snapshot_peak();
    let (outcome, stats, validated) = match session_with(benchmark, config).synthesize() {
        Ok(synthesized) => {
            // Every successful synthesis also validates its emitted
            // migration end-to-end through the in-memory SQL backend, so a
            // benchmark row is an emitter test, not just a synthesizer
            // test. This is deterministic (seeded instance, no wall time),
            // so `experiments check` compares it.
            let validated = synthesized
                .emit(Box::new(sqlbridge::Sqlite))
                .validate(
                    &mut sqlexec::MemoryBackend::new(),
                    VALIDATION_ROWS_PER_TABLE,
                )
                .map(|validated| validated.ok())
                .unwrap_or(false);
            (synthesized.outcome, synthesized.stats, Some(validated))
        }
        Err(RefactorError::Unsolved { outcome, stats }) => (outcome, *stats, None),
        Err(error) => unreachable!("benchmark inputs are pre-parsed: {error}"),
    };
    row_from_stats(benchmark, outcome, &stats, validated)
}

fn row_from_stats(
    benchmark: &Benchmark,
    outcome: SynthesisOutcome,
    stats: &SynthesisStats,
    validated: Option<bool>,
) -> Table1Row {
    Table1Row {
        name: benchmark.name.clone(),
        succeeded: outcome == SynthesisOutcome::Solved,
        value_corr: stats.value_correspondences,
        iters: stats.iterations,
        synth_time: stats.synthesis_time.as_secs_f64(),
        total_time: stats.total_time().as_secs_f64(),
        sketches_generated: stats.sketches_generated,
        invalid_instantiations: stats.invalid_instantiations,
        largest_search_space: stats.largest_search_space,
        sequences_tested: stats.sequences_tested,
        truncated_checks: stats.truncated_checks,
        bound_exhausted: stats.truncated_checks == 0,
        oracle_hits: stats.oracle_hits,
        peak_snapshot_bytes: dbir::equiv::snapshot_peak_bytes(),
        interned_bytes: dbir::intern::stats().total_bytes(),
        validated,
        outcome: outcome.as_str(),
        phases: stats.phases.clone(),
    }
}

/// Rows seeded per source table when validating an emitted migration
/// (shared with the `migrate` CLI via `sqlexec`, so CI validates the same
/// instance a user's `--validate` run does).
pub use sqlexec::DEFAULT_ROWS_PER_TABLE as VALIDATION_ROWS_PER_TABLE;

/// Renders a measured row (plus its benchmark's metadata) as one entry of
/// the machine-readable `BENCH_results.json`.
pub fn row_to_json(benchmark: &Benchmark, row: &Table1Row) -> sqlbridge::Json {
    use sqlbridge::Json;
    Json::object()
        .with("name", Json::str(&row.name))
        .with(
            "category",
            Json::str(match benchmark.category {
                Category::Textbook => "textbook",
                Category::RealWorld => "realworld",
            }),
        )
        .with("succeeded", Json::Bool(row.succeeded))
        .with("value_correspondences", row.value_corr.into())
        .with("iterations", row.iters.into())
        .with("sketches_generated", row.sketches_generated.into())
        .with("invalid_instantiations", row.invalid_instantiations.into())
        .with("largest_search_space", row.largest_search_space.into())
        .with("sequences_tested", row.sequences_tested.into())
        .with("truncated_checks", row.truncated_checks.into())
        .with("bound_exhausted", Json::Bool(row.bound_exhausted))
        .with("oracle_hits", row.oracle_hits.into())
        .with("peak_snapshot_bytes", row.peak_snapshot_bytes.into())
        .with("interned_bytes", row.interned_bytes.into())
        .with(
            "validated",
            match row.validated {
                Some(ok) => Json::Bool(ok),
                None => Json::Null,
            },
        )
        .with("outcome", Json::str(row.outcome))
        .with("synth_time_secs", row.synth_time.into())
        .with("total_time_secs", row.total_time.into())
        .with("phases", pipeline::report::phases_json(&row.phases))
        .with(
            "paper",
            Json::object()
                .with("value_correspondences", benchmark.paper.value_corr.into())
                .with("iterations", benchmark.paper.iters.into())
                .with("synth_time_secs", benchmark.paper.synth_time_secs.into())
                .with("total_time_secs", benchmark.paper.total_time_secs.into()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchmarks::benchmark_by_name;

    #[test]
    fn real_world_benchmarks_get_leaner_testing_configs() {
        let textbook = benchmark_by_name("Ambler-4").unwrap();
        let realworld = benchmark_by_name("coachup").unwrap();
        let textbook_config = config_for(&textbook, SketchSolverKind::MfiGuided);
        let realworld_config = config_for(&realworld, SketchSolverKind::MfiGuided);
        assert!(
            realworld_config.testing.max_arg_combinations.unwrap()
                < textbook_config.testing.max_arg_combinations.unwrap()
        );
    }

    #[test]
    fn deterministic_allowlists_are_distinct_and_json_backed() {
        // Every allowlisted field must exist (under its exact name) in the
        // JSON a row renders to, or `check` would report spurious "absent"
        // mismatches forever.
        let benchmark = benchmark_by_name("Ambler-4").unwrap();
        let row = run_table1(&benchmark, SketchSolverKind::MfiGuided);
        let json = row_to_json(&benchmark, &row);
        for (name, extract) in DETERMINISTIC_TOP_FIELDS {
            assert_eq!(
                json.get(name).and_then(|v| v.as_i128()),
                Some(extract(&row)),
                "top-level field {name}"
            );
        }
        let phases = json.get("phases").unwrap();
        for (name, extract) in DETERMINISTIC_PHASE_FIELDS {
            assert_eq!(
                phases.get(name).and_then(|v| v.as_i128()),
                Some(extract(&row.phases)),
                "phase field {name}"
            );
        }
    }

    #[test]
    fn widened_config_keeps_lean_testing_for_realworld() {
        let realworld = benchmark_by_name("coachup").unwrap();
        let widened = widened_config_for(&realworld);
        assert_eq!(widened.testing.max_arg_combinations, Some(4));
        assert!(widened.sketch.relax_delete_coverage);
        let textbook = benchmark_by_name("Ambler-4").unwrap();
        let widened = widened_config_for(&textbook);
        assert_eq!(
            widened.testing.max_arg_combinations,
            SynthesisConfig::standard().testing.max_arg_combinations
        );
    }

    #[test]
    fn table1_row_for_the_smallest_benchmark() {
        let benchmark = benchmark_by_name("Ambler-4").unwrap();
        let row = run_table1(&benchmark, SketchSolverKind::MfiGuided);
        assert!(row.succeeded);
        assert!(row.value_corr >= 1);
        assert!(row.total_time >= row.synth_time);
    }
}
