//! The traced run: a sequential driver that calls each layer's public
//! entry point in the order `Synthesizer::synthesize` does at a thread
//! budget of one, and records a span around every call.
//!
//! 1. `VcEnumerator::new` / `next_correspondence` (value_corr);
//! 2. `generate_sketch` (sketch_gen);
//! 3. `complete_sketch` with one shared `SourceOracle` (completion);
//! 4. on success, the final `check_candidate_cached` with a fresh
//!    `PrefixCache` (verify);
//! 5. `Synthesized::emit` and `Emitted::validate` (emit, validate).
//!
//! The driver keeps its own `SynthesisStats` with the same folds the
//! synthesizer uses, so its per-benchmark record can be compared with the
//! facade run's: any divergence means the stage split no longer describes
//! what the facade does.

use std::time::{Duration, Instant};

use dbir::equiv::{CheckProfile, PrefixCache, SourceOracle};
use dbir::Program;
use migrator::completion::{complete_sketch, BlockingStrategy, CompletionControls};
use migrator::sketch_gen::generate_sketch;
use migrator::verify::{check_candidate_cached, CheckOutcome};
use migrator::{CancelToken, SketchSolverKind, SynthesisStats, VcEnumerator};
use obs::Trace;
use pipeline::{Json, RefactorError, Refactoring, Synthesized};

use crate::workload::{Input, Record};

/// The timed layers, in pipeline order.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    Ingest,
    ValueCorr,
    SketchGen,
    Completion,
    Verify,
    Emit,
    Validate,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Ingest => "ingest",
            Layer::ValueCorr => "value_corr",
            Layer::SketchGen => "sketch_gen",
            Layer::Completion => "completion",
            Layer::Verify => "verify",
            Layer::Emit => "emit",
            Layer::Validate => "validate",
        }
    }
}

/// Per-layer time and work, summed over every benchmark of the run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Self time per layer, indexed by `Layer as usize`. Layer spans are
    /// leaves, so a span's duration is its self time.
    pub self_time: [Duration; 7],
    /// Time spent opening and closing spans.
    pub trace_overhead: Duration,
    pub correspondences: u64,
    pub sketch_calls: u64,
    pub sketches: u64,
    pub candidates: u64,
    pub completion_sequences: u64,
    pub blocking_clauses: u64,
    pub verify_sequences: u64,
    pub oracle_hits: u64,
    pub oracle_computes: u64,
    pub check: CheckProfile,
}

/// Records a span around each layer call and charges its duration to the
/// layer.
pub struct Tracer<'t> {
    pub trace: &'t Trace,
    pub tally: Tally,
}

impl Tracer<'_> {
    fn layer<R>(&mut self, layer: Layer, call: impl FnOnce() -> R) -> R {
        let opening = Instant::now();
        let span = self.trace.begin(layer.name());
        let start = Instant::now();
        let result = call();
        let end = Instant::now();
        self.trace.end(span);
        self.tally.self_time[layer as usize] += end - start;
        self.tally.trace_overhead += (start - opening) + end.elapsed();
        result
    }
}

/// The traced stage run of one benchmark. `reference` is the facade run's
/// solved output: emit and validate run on it, after checking that the
/// stage driver found the same program from the same correspondence.
pub fn run(input: &Input, reference: Option<&Synthesized>, tracer: &mut Tracer) -> Record {
    let opening = Instant::now();
    let span = tracer.trace.begin("benchmark");
    tracer.trace.set_arg(span, "name", Json::str(&input.name));
    tracer.tally.trace_overhead += opening.elapsed();
    let record = match run_inner(input, reference, tracer) {
        Ok(record) => record,
        Err(error) => Record::broken(&error.to_string()),
    };
    let closing = Instant::now();
    tracer
        .trace
        .set_arg(span, "outcome", Json::str(&record.outcome));
    tracer.trace.end(span);
    tracer.tally.trace_overhead += closing.elapsed();
    record
}

fn run_inner(
    input: &Input,
    reference: Option<&Synthesized>,
    tracer: &mut Tracer,
) -> Result<Record, RefactorError> {
    let (session, program) = tracer.layer(Layer::Ingest, || {
        let session = Refactoring::from_ddl(&input.source_ddl, &input.target_ddl)?;
        // The parser `Refactoring::program_text` wraps; the driver needs the
        // parsed program itself, which the session does not hand out.
        let program = dbir::parser::parse_program(&input.program, session.source_schema())
            .map_err(|source| RefactorError::Program {
                origin: input.name.clone(),
                source,
            })?;
        Ok::<_, RefactorError>((session, program))
    })?;
    let (source_schema, target_schema) = (session.source_schema(), session.target_schema());
    let config = &input.config;
    let strategy = match config.solver {
        SketchSolverKind::MfiGuided => BlockingStrategy::MinimumFailingInput,
        SketchSolverKind::Enumerative => BlockingStrategy::FullModel,
    };
    let token = CancelToken::new();
    let mut stats = SynthesisStats::default();
    let mut enumerator = tracer.layer(Layer::ValueCorr, || {
        VcEnumerator::new(&program, source_schema, target_schema, &config.vc)
    });
    // The memoized source oracle serves every check of the run; building
    // and dropping its cache is charged to completion, its main client.
    let oracle = tracer.layer(Layer::Completion, || {
        SourceOracle::new(&program, source_schema)
    });
    let mut solved: Option<(Program, migrator::ValueCorrespondence)> = None;
    while config.max_value_correspondences == 0
        || stats.value_correspondences < config.max_value_correspondences
    {
        let Some(phi) = tracer.layer(Layer::ValueCorr, || enumerator.next_correspondence()) else {
            break;
        };
        let index = stats.value_correspondences;
        stats.value_correspondences += 1;
        tracer.tally.correspondences += 1;
        tracer.tally.sketch_calls += 1;
        let sketch = tracer.layer(Layer::SketchGen, || {
            generate_sketch(&program, &phi, target_schema, &config.sketch)
        });
        let Some(sketch) = sketch else {
            continue;
        };
        stats.sketches_generated += 1;
        tracer.tally.sketches += 1;
        let mut profile = CheckProfile::default();
        let outcome = tracer.layer(Layer::Completion, || {
            complete_sketch(
                &sketch,
                &oracle,
                target_schema,
                &config.testing,
                &config.verification,
                strategy,
                config.max_iterations_per_sketch,
                CompletionControls {
                    token: Some(&token),
                    index,
                    profile: Some(&mut profile),
                    ..CompletionControls::default()
                },
            )
        });
        stats.phases.absorb_check(&profile);
        stats.absorb_sketch_run(&outcome.stats);
        tracer.tally.check.merge(&profile);
        tracer.tally.candidates += outcome.stats.iterations as u64;
        tracer.tally.completion_sequences += outcome.stats.sequences_tested as u64;
        tracer.tally.blocking_clauses += outcome.stats.blocking_clauses as u64;
        let Some(candidate) = outcome.program else {
            continue;
        };
        let mut profile = CheckProfile::default();
        let verified = tracer.layer(Layer::Verify, || {
            // The cache lives (and is freed) inside the span.
            let mut cache = PrefixCache::new();
            check_candidate_cached(
                &oracle,
                &candidate,
                target_schema,
                &config.verification,
                Some(&token),
                Some(&mut profile),
                Some(&mut cache),
            )
        });
        stats.phases.absorb_check(&profile);
        tracer.tally.check.merge(&profile);
        if let CheckOutcome::Equivalent {
            sequences_tested,
            bound_exhausted,
        } = verified
        {
            stats.sequences_tested += sequences_tested;
            stats.truncated_checks += usize::from(!bound_exhausted);
            tracer.tally.verify_sequences += sequences_tested as u64;
            solved = Some((candidate, phi));
            break;
        }
    }
    tracer.tally.oracle_hits += oracle.hits() as u64;
    tracer.tally.oracle_computes += oracle.computes() as u64;
    tracer.layer(Layer::Completion, || drop(oracle));

    let Some((candidate, phi)) = solved else {
        return Ok(Record::new("no_solution", &stats, None));
    };
    // Emit and validate run on the facade's output, so they only count if
    // the stage driver reproduced it exactly.
    let validated = match reference {
        Some(reference) if reference.program == candidate && reference.correspondence == phi => {
            let emitted = tracer.layer(Layer::Emit, || reference.emit(Box::new(sqlbridge::Sqlite)));
            let validated = tracer.layer(Layer::Validate, || {
                emitted.validate(
                    &mut sqlexec::MemoryBackend::new(),
                    bench::VALIDATION_ROWS_PER_TABLE,
                )
            })?;
            Some(validated.ok())
        }
        _ => None,
    };
    Ok(Record::new("solved", &stats, validated))
}
