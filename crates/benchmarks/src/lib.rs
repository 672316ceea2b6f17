//! # benchmarks — the 20 schema-refactoring benchmarks of the Migrator
//! evaluation
//!
//! The paper evaluates Migrator on 20 benchmarks taken from the Mediator
//! artifact: ten textbook refactoring scenarios (Oracle and Ambler) and ten
//! programs extracted from real-world Ruby-on-Rails applications on GitHub.
//! The textbook scenarios are re-created faithfully in [`textbook`]; the
//! real-world applications are not redistributable, so [`realworld`]
//! generates CRUD-style programs whose function, table and attribute counts
//! match the published per-benchmark metadata (see README, "Substitutions
//! for the paper's artifacts", for the substitution rationale).
//!
//! Every benchmark carries the numbers the paper reports for it
//! ([`PaperNumbers`]), so the experiment harness can print paper-vs-measured
//! tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod realworld;
pub mod textbook;
pub mod util;

use dbir::{Program, Schema};

/// Whether a benchmark is a textbook scenario or a real-world application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Adapted from database refactoring textbooks and tutorials.
    Textbook,
    /// Shaped after a real-world Ruby-on-Rails application.
    RealWorld,
}

/// The numbers the paper reports for one benchmark (Tables 1–3).
#[derive(Debug, Clone, PartialEq)]
pub struct PaperNumbers {
    /// Table 1: number of functions.
    pub funcs: usize,
    /// Table 1: source schema table count.
    pub source_tables: usize,
    /// Table 1: source schema attribute count.
    pub source_attrs: usize,
    /// Table 1: target schema table count.
    pub target_tables: usize,
    /// Table 1: target schema attribute count.
    pub target_attrs: usize,
    /// Table 1: number of value correspondences considered.
    pub value_corr: usize,
    /// Table 1: number of candidate programs explored.
    pub iters: usize,
    /// Table 1: synthesis time in seconds (excluding verification).
    pub synth_time_secs: f64,
    /// Table 1: total time in seconds (including verification).
    pub total_time_secs: f64,
    /// Table 2: the Sketch tool's synthesis time in seconds
    /// (`None` = timeout after 24 hours).
    pub sketch_time_secs: Option<f64>,
    /// Table 3: iterations of the symbolic enumerative baseline
    /// (`None` = timeout).
    pub enumerative_iters: Option<usize>,
    /// Table 3: synthesis time of the symbolic enumerative baseline in
    /// seconds (`None` = timeout).
    pub enumerative_time_secs: Option<f64>,
}

/// One schema-refactoring benchmark: a source program and schema plus the
/// target schema it must be migrated to.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name as it appears in the paper's tables.
    pub name: String,
    /// The paper's description of the refactoring.
    pub description: String,
    /// Textbook or real-world.
    pub category: Category,
    /// The source schema.
    pub source_schema: Schema,
    /// The target schema.
    pub target_schema: Schema,
    /// The source program to be migrated.
    pub source_program: Program,
    /// The numbers the paper reports for this benchmark.
    pub paper: PaperNumbers,
}

impl Benchmark {
    /// The benchmark's own measured metadata (function and schema counts),
    /// for comparison against [`PaperNumbers`].
    pub fn measured_shape(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.source_program.functions.len(),
            self.source_schema.table_count(),
            self.source_schema.attr_count(),
            self.target_schema.table_count(),
            self.target_schema.attr_count(),
        )
    }
}

/// All ten textbook benchmarks, in the order of Table 1.
pub fn textbook_benchmarks() -> Vec<Benchmark> {
    textbook::all()
}

/// All ten real-world benchmarks, in the order of Table 1.
pub fn real_world_benchmarks() -> Vec<Benchmark> {
    realworld::all()
}

/// All twenty benchmarks, in the order of Table 1.
pub fn all_benchmarks() -> Vec<Benchmark> {
    let mut benchmarks = textbook_benchmarks();
    benchmarks.extend(real_world_benchmarks());
    benchmarks
}

/// Looks up a benchmark by its (case-insensitive) name.
pub fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    all_benchmarks()
        .into_iter()
        .find(|b| b.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_twenty_benchmarks() {
        let benchmarks = all_benchmarks();
        assert_eq!(benchmarks.len(), 20);
        assert_eq!(textbook_benchmarks().len(), 10);
        assert_eq!(real_world_benchmarks().len(), 10);
    }

    #[test]
    fn benchmark_names_are_unique_and_resolvable() {
        let benchmarks = all_benchmarks();
        let names: std::collections::BTreeSet<&str> =
            benchmarks.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names.len(), benchmarks.len());
        assert!(benchmark_by_name("Oracle-1").is_some());
        assert!(benchmark_by_name("oracle-1").is_some());
        assert!(benchmark_by_name("visible-closet").is_some());
        assert!(benchmark_by_name("nonexistent").is_none());
    }

    #[test]
    fn source_programs_are_well_formed() {
        for benchmark in all_benchmarks() {
            assert!(
                benchmark
                    .source_program
                    .validate(&benchmark.source_schema)
                    .is_ok(),
                "benchmark {} has an ill-formed source program",
                benchmark.name
            );
        }
    }

    #[test]
    fn function_counts_match_the_paper() {
        for benchmark in all_benchmarks() {
            let (funcs, ..) = benchmark.measured_shape();
            assert_eq!(
                funcs, benchmark.paper.funcs,
                "benchmark {} should have {} functions, found {funcs}",
                benchmark.name, benchmark.paper.funcs
            );
        }
    }

    #[test]
    fn table_counts_match_the_paper() {
        for benchmark in all_benchmarks() {
            let (_, st, _, tt, _) = benchmark.measured_shape();
            assert_eq!(
                (st, tt),
                (benchmark.paper.source_tables, benchmark.paper.target_tables),
                "benchmark {} table counts diverge from the paper",
                benchmark.name
            );
        }
    }

    #[test]
    fn attr_counts_are_close_to_the_paper() {
        // Attribute counts of the synthetic real-world benchmarks are allowed
        // to deviate slightly (see README, "Substitutions for the paper's
        // artifacts"); textbook benchmarks are exact.
        for benchmark in all_benchmarks() {
            let (_, _, sa, _, ta) = benchmark.measured_shape();
            let (psa, pta) = (benchmark.paper.source_attrs, benchmark.paper.target_attrs);
            match benchmark.category {
                Category::Textbook => {
                    assert_eq!(
                        (sa, ta),
                        (psa, pta),
                        "benchmark {} attribute counts diverge from the paper",
                        benchmark.name
                    );
                }
                Category::RealWorld => {
                    let close = |a: usize, b: usize| a.abs_diff(b) * 10 <= b.max(10);
                    assert!(
                        close(sa, psa) && close(ta, pta),
                        "benchmark {} attribute counts ({sa}, {ta}) too far from paper ({psa}, {pta})",
                        benchmark.name
                    );
                }
            }
        }
    }
}
