//! The workloads, their inputs and the per-benchmark outcome record that
//! both the facade run and the traced stage run produce.

use std::fmt::Write as _;

use benchmarks::Benchmark;
use migrator::{SketchSolverKind, SynthesisConfig, SynthesisStats};

/// One named workload: a fixed set of benchmarks at a fixed thread budget.
/// `NOTES.md` records why each exists.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub benchmarks: &'static [&'static str],
    pub threads: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "cegis-deep",
        benchmarks: &["Oracle-2", "Ambler-7", "Ambler-8", "royk"],
        threads: 1,
    },
    Workload {
        name: "one-shot",
        benchmarks: &[
            "Oracle-1",
            "Ambler-1",
            "Ambler-2",
            "Ambler-4",
            "Ambler-6",
            "cdx",
            "coachup",
            "2030Club",
            "rails-ecomm",
            "gallery",
            "DeeJBase",
            "visible-closet",
        ],
        threads: 1,
    },
    Workload {
        name: "vc-frontier",
        benchmarks: &["MathHotSpot", "probable-engine", "Ambler-3", "Ambler-5"],
        threads: 2,
    },
];

/// The known-red pair: under the standard configuration these end
/// `no_solution`. That is an expected outcome, not a failed operation, but
/// it counts against `solved_share`. Solving one (and validating it) is
/// also accepted, so fixing a known-red benchmark never fails the run.
pub const KNOWN_RED: &[&str] = &["MathHotSpot", "probable-engine"];

pub fn workload_by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One benchmark rendered to the text a user would hand the pipeline:
/// SQL DDL for both schemas and the source program in `dbir` syntax.
#[derive(Debug, Clone)]
pub struct Input {
    pub name: String,
    pub source_ddl: String,
    pub target_ddl: String,
    pub program: String,
    pub config: SynthesisConfig,
}

impl Input {
    fn render(benchmark: &Benchmark) -> Input {
        let dialect = sqlbridge::Sqlite;
        Input {
            name: benchmark.name.clone(),
            source_ddl: sqlbridge::schema_to_ddl(&benchmark.source_schema, &dialect),
            target_ddl: sqlbridge::schema_to_ddl(&benchmark.target_schema, &dialect),
            program: dbir::pretty::program_to_string(&benchmark.source_program),
            config: bench::config_for(benchmark, SketchSolverKind::MfiGuided),
        }
    }

    pub fn known_red(&self) -> bool {
        KNOWN_RED.contains(&self.name.as_str())
    }
}

/// The set-up step: generates the benchmark suite, keeps the workload's
/// benchmarks and renders them to text, in the order `seed` selects.
pub fn setup(workload: &Workload, seed: u64) -> Vec<Input> {
    let mut inputs: Vec<Input> = benchmarks::all_benchmarks()
        .iter()
        .filter(|b| workload.benchmarks.contains(&b.name.as_str()))
        .map(Input::render)
        .collect();
    assert_eq!(
        inputs.len(),
        workload.benchmarks.len(),
        "every benchmark of {} exists",
        workload.name
    );
    shuffle(&mut inputs, seed);
    inputs
}

/// Fisher–Yates with a SplitMix64 stream: the same seed always gives the
/// same order.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// What one benchmark run produced: its outcome, whether the emitted
/// migration validated, and the deterministic search counters. Two runs of
/// the same code on the same input must produce equal records at any
/// thread budget; wall and CPU times live elsewhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub outcome: String,
    pub validated: Option<bool>,
    pub counters: Vec<(&'static str, i128)>,
}

impl Record {
    pub fn new(outcome: &str, stats: &SynthesisStats, validated: Option<bool>) -> Record {
        let mut counters: Vec<(&'static str, i128)> = vec![
            ("value_correspondences", stats.value_correspondences as i128),
            ("iterations", stats.iterations as i128),
            ("sequences_tested", stats.sequences_tested as i128),
            ("sketches_generated", stats.sketches_generated as i128),
            (
                "invalid_instantiations",
                stats.invalid_instantiations as i128,
            ),
            ("truncated_checks", stats.truncated_checks as i128),
        ];
        counters.extend(
            bench::DETERMINISTIC_PHASE_FIELDS
                .iter()
                .map(|(name, extract)| (*name, extract(&stats.phases))),
        );
        Record {
            outcome: outcome.to_string(),
            validated,
            counters,
        }
    }

    /// A record for a benchmark whose run did not finish (an error or a
    /// panic): it never matches an expected outcome.
    pub fn broken(reason: &str) -> Record {
        Record {
            outcome: format!("error: {reason}"),
            validated: None,
            counters: Vec::new(),
        }
    }

    pub fn counter(&self, name: &str) -> i128 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    pub fn solved_and_validated(&self) -> bool {
        self.outcome == "solved" && self.validated == Some(true)
    }

    /// Whether the outcome is acceptable for this input: every benchmark
    /// must solve and validate, except that a known-red one may end
    /// `no_solution`. Anything else (timeout, a solved program that fails
    /// validation, an error, a panic) fails the run.
    pub fn expected_for(&self, input: &Input) -> bool {
        self.solved_and_validated() || (input.known_red() && self.outcome == "no_solution")
    }

    /// One line: outcome, validation and every counter, in a fixed order.
    pub fn render(&self) -> String {
        let validated = match self.validated {
            Some(ok) => ok.to_string(),
            None => "null".to_string(),
        };
        let mut line = format!("outcome={} validated={validated}", self.outcome);
        for (name, value) in &self.counters {
            let _ = write!(line, " {name}={value}");
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_fixes_the_order() {
        let mut a: Vec<u32> = (0..12).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..12).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
        c.sort_unstable();
        assert_eq!(c, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn workloads_name_existing_benchmarks() {
        let all: Vec<String> = benchmarks::all_benchmarks()
            .into_iter()
            .map(|b| b.name)
            .collect();
        for workload in WORKLOADS {
            for name in workload.benchmarks {
                assert!(all.iter().any(|n| n == name), "{name}");
            }
        }
    }
}
