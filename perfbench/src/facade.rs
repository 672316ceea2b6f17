//! The untraced end-to-end path: every benchmark goes through the public
//! `pipeline::Refactoring` facade exactly as a library user drives it —
//! DDL and program text in, `synthesize`, `emit(Sqlite)`,
//! `validate(MemoryBackend)`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use migrator::{SynthesisEvent, SynthesisObserver};
use pipeline::{RefactorError, Refactoring, Synthesized};

use crate::machine;
use crate::workload::{Input, Record};

/// One benchmark's facade run.
#[derive(Debug)]
pub struct Run {
    pub record: Record,
    pub seconds: f64,
    /// The solved stage output, kept for the traced run's emit/validate.
    pub synthesized: Option<Synthesized>,
}

/// Runs one benchmark through the facade. A panic anywhere in the pipeline
/// becomes a broken record instead of aborting the benchmark.
fn run(input: &Input, observer: Option<Arc<dyn SynthesisObserver>>) -> Run {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| run_inner(input, observer)));
    let seconds = start.elapsed().as_secs_f64();
    let (record, synthesized) = match result {
        Ok(Ok(pair)) => pair,
        Ok(Err(error)) => (Record::broken(&error.to_string()), None),
        Err(_) => (Record::broken("panicked"), None),
    };
    Run {
        record,
        seconds,
        synthesized,
    }
}

fn run_inner(
    input: &Input,
    observer: Option<Arc<dyn SynthesisObserver>>,
) -> Result<(Record, Option<Synthesized>), RefactorError> {
    let mut session = Refactoring::from_ddl(&input.source_ddl, &input.target_ddl)?
        .program_text(&input.program)?
        .config(input.config.clone());
    if let Some(observer) = observer {
        session = session.observer(observer);
    }
    match session.synthesize() {
        Ok(synthesized) => {
            let validated = synthesized
                .emit(Box::new(sqlbridge::Sqlite))
                .validate(
                    &mut sqlexec::MemoryBackend::new(),
                    bench::VALIDATION_ROWS_PER_TABLE,
                )?
                .ok();
            let record = Record::new(
                synthesized.outcome.as_str(),
                &synthesized.stats,
                Some(validated),
            );
            Ok((record, Some(synthesized)))
        }
        Err(RefactorError::Unsolved { outcome, stats }) => {
            Ok((Record::new(outcome.as_str(), &stats, None), None))
        }
        Err(error) => Err(error),
    }
}

/// One pass over every input of a workload.
#[derive(Debug)]
pub struct Pass {
    pub runs: Vec<Run>,
    pub wall_seconds: f64,
    pub cpu_seconds: f64,
}

pub fn pass(inputs: &[Input], observer: Option<Arc<dyn SynthesisObserver>>) -> Pass {
    let cpu_start = machine::cpu_seconds();
    let start = Instant::now();
    let runs = inputs
        .iter()
        .map(|input| run(input, observer.clone()))
        .collect();
    Pass {
        runs,
        wall_seconds: start.elapsed().as_secs_f64(),
        cpu_seconds: machine::cpu_seconds() - cpu_start,
    }
}

/// Counts the scheduling-dependent speculation notices the synthesizer
/// sends on the observer's side channel: correspondences started ahead of
/// their enumeration turn, and those whose result was thrown away.
#[derive(Debug, Default)]
pub struct SpeculationCounter {
    pub speculated: AtomicU64,
    pub cancelled: AtomicU64,
}

impl SynthesisObserver for SpeculationCounter {
    fn event(&self, _event: &SynthesisEvent) {}

    fn speculation(&self, event: &SynthesisEvent) {
        match event {
            SynthesisEvent::CorrespondenceSpeculated { .. } => {
                self.speculated.fetch_add(1, Ordering::Relaxed);
            }
            SynthesisEvent::CorrespondenceCancelled { .. } => {
                self.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}
