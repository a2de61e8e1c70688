"""probterm: almost-sure termination proofs for linear probabilistic
programs, via exact-arithmetic synthesis of lexicographic
ranking-supermartingale certificates, an independent checker, and a
Monte-Carlo validation harness."""

from .linear import (EncodingBlowup, LinConstraint, LinExpr, Polyhedron,
                     Predicate, Rel, negate_predicate)
from .distributions import DistKind, DistributionSpec, register_sampler
from .model import (Certificate, CertificateMode, Diagnostic, ExprUpdate,
                    GuardedStep, Invariant, LevelMap, LinExprMap, NoUpdate,
                    NondetUpdate, PCFG, ProbBranch, Transition, check_bsp,
                    check_linpp_star, validate_pcfg)
from .source import (MultipleSamplesInAssignment, NonLinearExpression,
                     ProgramSyntaxError, SampleInPredicate, SourceProgram,
                     parse_program)
from .lowering import lower_to_pcfg, run_ast
from .pcfg_io import FormatError, load_certificate, load_invariant, load_pcfg
from .preexp import max_pre, min_pre, pre_pb_restricted
from .farkas import (LPProblem, check_feasible, encode_implication, entails,
                     solve_lp)
from .synthesis import (IterationRecord, MissingBoundedSupport, NotLinPPStar,
                        SynthesisResult, TemplateRestriction, build_lp,
                        extract_level_map, synthesize_bsp, synthesize_general)
from .checker import CheckReport, StructuralMismatch, check_certificate
from .simulate import (Adversarial, FixedPriority, Scheduler, TrajectoryReport,
                       UniformRandom, audit_invariant, counterexample_process,
                       estimate_termination, run_trajectory, wilson_interval)

__version__ = "0.1.0"
