//! Configuration of the synthesizer.

use dbir::equiv::TestConfig;

use crate::sketch_gen::SketchGenConfig;
use crate::value_corr::VcConfig;

/// Which sketch-completion algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SketchSolverKind {
    /// The paper's algorithm: SAT-based enumeration with blocking clauses
    /// derived from minimum failing inputs (Algorithm 2).
    #[default]
    MfiGuided,
    /// The Table 3 baseline: the same SAT encoding, but each failing
    /// candidate blocks only its own full model.
    Enumerative,
}

/// Configuration of a [`crate::Synthesizer`].
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// Value-correspondence enumeration parameters.
    pub vc: VcConfig,
    /// Sketch-generation parameters.
    pub sketch: SketchGenConfig,
    /// Bounded-testing parameters used to find minimum failing inputs during
    /// sketch completion.
    pub testing: TestConfig,
    /// Bounded-testing parameters used for the final verification pass
    /// (the stand-in for the Mediator verifier; see README, "Substitutions
    /// for the paper's artifacts").
    pub verification: TestConfig,
    /// Which sketch solver to use.
    pub solver: SketchSolverKind,
    /// Give up after this many value correspondences (0 means unlimited).
    pub max_value_correspondences: usize,
    /// Give up on a single sketch after this many candidate programs
    /// (0 means unlimited).
    pub max_iterations_per_sketch: usize,
}

impl Default for SynthesisConfig {
    fn default() -> SynthesisConfig {
        SynthesisConfig::standard()
    }
}

impl SynthesisConfig {
    /// The default configuration used throughout the evaluation: MFI-guided
    /// completion, testing depth 2, verification depth 3.
    pub fn standard() -> SynthesisConfig {
        SynthesisConfig {
            vc: VcConfig::default(),
            sketch: SketchGenConfig::default(),
            testing: TestConfig::default(),
            verification: TestConfig::thorough(),
            solver: SketchSolverKind::MfiGuided,
            max_value_correspondences: 64,
            max_iterations_per_sketch: 500_000,
        }
    }

    /// The Table 3 baseline configuration: identical to [`standard`], but
    /// blocking one full model per failing candidate.
    ///
    /// [`standard`]: SynthesisConfig::standard
    pub fn enumerative_baseline() -> SynthesisConfig {
        SynthesisConfig {
            solver: SketchSolverKind::Enumerative,
            ..SynthesisConfig::standard()
        }
    }

    /// The widened-space configuration used to attack the benchmarks that
    /// [`standard`] cannot crack: more value-correspondence candidates and
    /// local options per attribute, an unmapped bonus for attributes the
    /// program never references (so vestigial columns — e.g. ones the
    /// refactoring drops — stop poisoning delete coverage), deeper join
    /// chains, more image combinations, relaxed delete coverage, and a
    /// larger correspondence budget.
    ///
    /// [`standard`]: SynthesisConfig::standard
    pub fn widened() -> SynthesisConfig {
        let mut config = SynthesisConfig::standard();
        config.vc.max_candidates_per_attr = 12;
        config.vc.max_options_per_attr = 48;
        // Above `pair_penalty`, hence above every singleton and pair score:
        // unreferenced attributes rank "unmapped" first.
        config.vc.unmapped_unreferenced_bonus = config.vc.pair_penalty() + 1;
        config.sketch.max_steiner_extra = 3;
        config.sketch.max_image_combinations = 64;
        config.sketch.relax_delete_coverage = true;
        config.max_value_correspondences = 256;
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_standard_solver_choice() {
        let config = SynthesisConfig::standard();
        assert_eq!(config.solver, SketchSolverKind::MfiGuided);
        assert_eq!(SketchSolverKind::default(), SketchSolverKind::MfiGuided);
        assert!(config.verification.max_updates >= config.testing.max_updates);
    }

    #[test]
    fn widened_preset_strictly_widens_the_search_space() {
        let standard = SynthesisConfig::standard();
        let widened = SynthesisConfig::widened();
        assert!(widened.vc.max_candidates_per_attr > standard.vc.max_candidates_per_attr);
        assert!(widened.vc.max_options_per_attr > standard.vc.max_options_per_attr);
        assert!(widened.vc.unmapped_unreferenced_bonus > widened.vc.pair_penalty());
        assert!(widened.sketch.max_steiner_extra > standard.sketch.max_steiner_extra);
        assert!(widened.sketch.max_image_combinations > standard.sketch.max_image_combinations);
        assert!(widened.sketch.relax_delete_coverage);
        assert!(widened.max_value_correspondences > standard.max_value_correspondences);
        assert_eq!(widened.solver, SketchSolverKind::MfiGuided);
    }

    #[test]
    fn enumerative_baseline_differs_only_in_solver() {
        let standard = SynthesisConfig::standard();
        let baseline = SynthesisConfig::enumerative_baseline();
        assert_eq!(baseline.solver, SketchSolverKind::Enumerative);
        assert_eq!(
            baseline.max_value_correspondences,
            standard.max_value_correspondences
        );
    }
}
