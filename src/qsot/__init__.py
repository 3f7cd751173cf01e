"""States over time, time reversal, and quantum Bayes maps on multi-matrix
algebras: block-diagonal operator algebra, superoperators with channel-state
calculus, a family of state-over-time assignments with randomized property
certification, closed-form and generic Bayes solvers, and physics scenarios
(measurement reversal, state update, weak values, correlators)."""
from . import algebra, axioms, bayes, errors, io, maps, sampling, scenarios, sot
from .algebra import (AlgebraElement, AlgebraShape, classical_algebra,
                      matrix_algebra, partial_trace, power, tensor)
from .axioms import CertifyConfig, PropertyVerdict, certify, check_associativity, table_report
from .bayes import (BayesSolution, bayes_residual, closed_form_bayes, gce_solve,
                    generic_bayes, petz, rotated_petz, sth_inverse)
from .maps import LinearMap, channel_state, channel_from_state, time_reversal_tau
from .scenarios import (InstrumentScenario, PemScenario, fuchs_rule,
                        jeffrey_update, ls_linearization_check, pem_reverse,
                        state_update, two_state, two_time_correlator)
from .sot import (STH, LeiferSpekkens, LeftBloom, OhyaCompound, RSFamily,
                  RightBloom, SotFamily, StateOverTime, SymmetricBloom,
                  ThetaDerived, TRotated, Uncorrelated, evaluate)

__version__ = "0.1.0"
