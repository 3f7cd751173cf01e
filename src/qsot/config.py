"""Numerical tolerances: the one module that decides how close is close enough.

One constant per role, named in its comment; library functions read them and
take no tolerance arguments, except ``AlgebraElement.is_hermitian(tol)`` (its
callers test at different scales) and ``spectral_decompose(group_tol)`` (an
Ohya wire parameter).  Values suit double precision at block dimensions <= 16.
"""

ATOL = 1e-9  # identity / equality tests; the scale of the state tests
HERM_TOL = 1e-10  # entrywise hermiticity of an element; also of D[E]'s blocks in P2
FAITHFULNESS_TOL = 1e-10  # eigenvalues, outcome probabilities at or below it: off the support
GROUP_TOL = 1e-8  # eigenvalues closer than this share one spectral projector
CP_TOL = 1e-9  # a map is CP when no blockwise Choi eigenvalue is below −CP_TOL

# Certification fails a property on a violation above FAIL_THRESHOLD and holds
# it when the worst residual stays below PASS_THRESHOLD (the gap keeps verdicts
# from flapping); the generic Bayes solver finds no solution above FAIL_THRESHOLD.
FAIL_THRESHOLD = 1e-6
PASS_THRESHOLD = 1e-8

MAP_TOL = 1e3 * HERM_TOL  # a map's TP (each constructor's test), †-preserving, unital tests
POWER_HERM_TOL = 1e2 * HERM_TOL  # hermiticity of an element raised to a power
STATE_HERM_TOL = 1e3 * HERM_TOL  # hermiticity of a density matrix
STATE_TOL = 1e3 * ATOL  # a density matrix's trace and lowest eigenvalue; a direction's trace
SOT_ARG_TOL = 1e4 * ATOL  # hermiticity and unit trace of a state over time's second argument
STEP_TOL = 10 * ATOL  # lowest eigenvalue a finite-difference step may leave

RANK_TOL = 1e-8  # generic Bayes: singular values <= RANK_TOL·max(1, s_max) are null
LOCALITY_TOL = 1e-10  # generic Bayes: its locality premise, relative to the probe
COMM_TOL = 1e-12  # classical-limit pairs: ‖[D[E], ρ⊗1]‖ at most this
SPECTRAL_GAP = 1e-3  # a non-degenerate prior: eigenvalues and their gaps above this

OVERLAP_TOL = 1e-9  # two-state: pre/post-selection of lower overlap is undefined
RANK_ONE_TOL = 1e-10  # two-state: an effect is rank one when its other eigenvalues are below
SCENARIO_TOL = 1e-10  # a scenario check passes below this (PEM and Jeffrey weights: ATOL)
