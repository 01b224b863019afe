"""Exact verifier for rational blow-down constructions of 4-manifolds.

Blow-up calculus on curve configurations, Wahl-chain recognition via
Hirzebruch-Jung continued fractions, intersection-lattice checks, rational
blow-down invariant bookkeeping, cyclic Van Kampen derivations, and
double-cover lifting, behind a declarative scenario format and CLI.
"""

from .configuration import (AdjunctionError, BlowupError, ChainSearch,
                            Configuration, Curve, InvariantSet, PointSpec,
                            adjunction_audit, blow_up, find_chains, preset,
                            run_program)
from .cover import (CoverError, SplittingDecl, lift_configuration,
                    lift_violations, lifted_pairings, pullback_violations)
from .fundgroup import (CyclicGroup, CyclicHom, Derivation, DerivationTrace,
                        TraceStep, kill_rule, minus_one_sphere_witness,
                        pi1_after_blowdown, pushout_cyclic, replay_trace)
from .hjcf import (Chain, WahlParams, dual_chain, hj_eval, hj_expand,
                   tchain_children, wahl_chain, wahl_closure, wahl_family,
                   wahl_recognize)
from .lattice import (GramMatrix, boundary_group_order, chain_gram, det_exact,
                      gram, is_negative_definite)
from .report import Report, emit
from .scenario import Scenario, ScenarioError, parse_scenario
from .surgery import (Assumption, ChainFacts, SurgeryError, SurgeryResult,
                      chain_facts, rational_blowdown, smoothing_ledger)
from .verify import verify

__version__ = "0.1.0"
