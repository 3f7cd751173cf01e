"""Randomized certification of state-over-time properties.

Each property of a family (hermiticity, local positivity, positivity,
linearity in either argument, the classical limit, associativity, marginals)
is checked on a stream of random instances; failures are recorded as
replayable counterexamples found by random search plus a short local-ascent
refinement.  ``table_report`` assembles the full family × property matrix.
"""
from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from typing import Iterator, Sequence

import numpy as np

from . import algebra as alg, io, maps, sampling, sot
from .algebra import AlgebraElement, AlgebraShape
from .config import FAIL_THRESHOLD, HERM_TOL, PASS_THRESHOLD
from .errors import (ConstraintError, ExtensionError, InapplicableError,
                     UnsupportedFamilyError)
from .maps import LinearMap

PROPERTIES = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "A", "M")
TABLE_PROPERTIES = ("P1", "P2", "P3", "P4", "P5", "P7", "A")

# exceptions that skip a trial: the instance is outside the family's domain
SKIPS = (InapplicableError, ExtensionError, UnsupportedFamilyError)

STARTS = 20         # start vectors of each product-vector search
ASCENT_STEPS = 50   # most perturbation steps that sharpen an ambiguous candidate
CHUNK_TRIALS = 256  # most trials of one stack after a cell's first trial

GLYPHS = {"holds": "✓", "fails": "✗", "holds-restricted": "∗",
          "empirical": "?", "inapplicable": "n/a", "insufficient": "n/a",
          "undecided": "?"}


def _witness_json(value):
    """JSON form of one witness entry."""
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value) if isinstance(value, (float, np.floating)) else int(value)
    if isinstance(value, (complex, np.complexfloating)):
        return io.serialize_complex(value)
    if isinstance(value, (list, tuple)):
        return [_witness_json(v) for v in value]
    if isinstance(value, np.ndarray):
        return _witness_json(value.tolist())
    if isinstance(value, AlgebraElement):
        return io.serialize_element(value)
    if isinstance(value, LinearMap):
        return io.serialize_map(value)
    raise TypeError(f"a witness entry of type {type(value).__name__} has no wire form")


@dataclass(frozen=True)
class CertifyConfig:
    trials: int = 200
    dims: tuple[int, int] = (2, 2)
    seed: int = 0


@dataclass(frozen=True)
class PropertyVerdict:
    family: str
    property: str
    status: str  # holds | fails | holds-restricted | empirical | inapplicable | insufficient | undecided
    trials: int
    seed: int
    max_residual: float = 0.0
    violation: float | None = None
    counterexample: dict | None = None
    note: str = ""
    skipped: dict[str, int] = field(default_factory=dict)  # sweep trials, by exception class
    ascent_steps: int = 0

    @property
    def glyph(self) -> str:
        return GLYPHS[self.status]

    @property
    def holds(self) -> bool:
        return self.status in ("holds", "holds-restricted")

    def to_json(self) -> dict:
        out = {"family": self.family, "property": self.property,
               "status": self.status, "glyph": self.glyph,
               "trials": self.trials, "seed": self.seed,
               "max_residual": self.max_residual, "skipped": dict(sorted(self.skipped.items())),
               "ascent_steps": self.ascent_steps}
        if self.violation is not None:
            out["violation"] = self.violation
        if self.counterexample is not None:
            out["witness"] = {k: _witness_json(v) for k, v in self.counterexample.items()}
        if self.note:
            out["note"] = self.note
        return out


def _cell_index(family_tag: str, prop: str) -> int:
    return zlib.crc32(f"{family_tag}:{prop}".encode())


# ------------------------------------------------------------------- sampling
@cache
def _interned_shapes(d_a: int, d_b: int) -> tuple[AlgebraShape, ...]:
    """The certification shapes A = M_{d_a}, B = M_{d_b}, C = M_{d_b} and
    the block sums A ⊕ M_1, B ⊕ M_1, built once, so the tensor shapes kept
    on them are built once too."""
    return (AlgebraShape((("a", d_a),)), AlgebraShape((("b", d_b),)),
            AlgebraShape((("c", d_b),)), AlgebraShape((("a0", d_a), ("a1", 1))),
            AlgebraShape((("b0", d_b), ("b1", 1))))


def _shapes(family: sot.SotFamily, trial: int,
            dims: tuple[int, int]) -> tuple[AlgebraShape, AlgebraShape]:
    """Alternate single-block and block-sum shapes; compound-family sources
    stay single-block."""
    a, b, _, blocky_a, blocky_b = _interned_shapes(*dims)
    if trial % 2 == 0:
        return a, b
    return (a if family.compound else blocky_a), blocky_b


# -------------------------------------------------------- product-vector search
def _unit_starts(rng: np.random.Generator, starts: int, m: int,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Start vectors a (starts, m) and b (starts, n), not yet normalised."""
    # one draw: the real, then imaginary parts of a, then those of b
    z = rng.normal(size=2 * starts * (m + n))
    a, b = z[:2 * starts * m].reshape(2, starts, m), z[2 * starts * m:].reshape(2, starts, n)
    return a[0] + 1j * a[1], b[0] + 1j * b[1]


def _form_maps(blocks: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (m·n)×(m·n) blocks as the maps from v̄⊗v in one factor to the
    form ⟨v|block|v⟩ in the other: (jobs, m², n, n) and (jobs, n², m, m)."""
    t5 = blocks.reshape(-1, m, n, m, n)  # [job, i, k, j, l] for ⟨i k|block|j l⟩
    return (t5.transpose(0, 1, 3, 2, 4).reshape(-1, m * m, n, n),
            t5.transpose(0, 2, 4, 1, 3).reshape(-1, n * n, m, m))


def _product_forms(form_map: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The forms (jobs, starts, d, d) a ``_form_maps`` map leaves in the free
    factor for fixed vectors v (jobs, starts, e): one batched matmul."""
    jobs, e2, d, _ = form_map.shape
    outer = (v.conj()[..., :, None] * v[..., None, :]).reshape(jobs, -1, e2)
    return (outer @ form_map.reshape(jobs, e2, d * d)).reshape(*outer.shape[:2], d, d)


def _extreme_eigvecs(q: np.ndarray, mode: str) -> np.ndarray:
    """A unit eigenvector of the hermitian part of each form q (..., d, d)
    for its lowest eigenvalue ('min'), or for its eigenvalue of largest
    modulus, the lower one on a tie ('absmax').  d = 1 gives 1 exactly;
    d = 2 is closed-form and elementwise, from the row of H − λ with the
    larger diagonal entry, and gives e₁ on a multiple of the identity;
    larger d takes a stacked ``eigh``."""
    d = q.shape[-1]
    if d == 1:
        return np.ones(q.shape[:-1], dtype=complex)
    if d > 2:
        w, v = np.linalg.eigh((q + q.conj().swapaxes(-1, -2)) / 2)
        idx = (np.argmax(np.abs(w), axis=-1) if mode == "absmax"
               else np.zeros(w.shape[:-1], dtype=int))
        return np.take_along_axis(v, idx[..., None, None], axis=-1)[..., 0]
    top, bottom = q[..., 0, 0].real, q[..., 1, 1].real
    off = (q[..., 1, 0] + q[..., 0, 1].conj()) / 2
    mean, half, size = (top + bottom) / 2, (top - bottom) / 2, np.abs(off)
    radius = np.hypot(half, size)  # λ = mean + sign·radius
    sign = (np.where(np.abs(mean + radius) > np.abs(mean - radius), 1.0, -1.0)
            if mode == "absmax" else -1.0)
    pivot = radius + np.abs(half)  # the larger of |top − λ| and |bottom − λ|
    identity = pivot == 0          # pivot and norm become 1, so v = e₁
    pivot, norm = pivot + identity, np.hypot(pivot, size) + identity
    first_row = sign * half < 0    # top − λ = −sign·pivot there
    other = sign * off.conj()
    return np.stack([np.where(first_row, other, pivot),
                     np.where(first_row, pivot, other.conj())], axis=-1) / norm[..., None]


def _product_extremum(blocks: np.ndarray, a: np.ndarray, b: np.ndarray,
                      mode: str) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Optimize ⟨a⊗b|block|a⊗b⟩ over unit product vectors by eight rounds of
    alternating eigensolves (fixing one factor leaves a hermitian form in
    the other), for a stack of (m·n)×(m·n) blocks from start vectors a
    (jobs, starts, m) and b (jobs, starts, n).  Returns each block's best
    value and vectors.

    ``mode`` 'min' minimizes the (real) pairing of a hermitian block;
    'absmax' maximizes |pairing| of a hermitian block.

    ``_extreme_eigvecs`` returns the eigenvector 1 of a 1×1 form exactly,
    so with a one-dimensional factor every start reaches the same vectors
    within two rounds; the first start, run for two rounds, then gives
    every bit of the eight-round search over all starts.
    """
    rounds, m, n = 8, a.shape[2], b.shape[2]
    if min(m, n) == 1:
        rounds, a, b = 2, a[:, :1], b[:, :1]
    to_b, to_a = _form_maps(blocks, m, n)
    for _ in range(rounds):
        b = _extreme_eigvecs(_product_forms(to_b, a), mode)
        a = _extreme_eigvecs(_product_forms(to_a, b), mode)
    jobs = len(blocks)
    t4 = blocks.reshape(jobs, m, n, m, n)
    vals = np.einsum("rsi,rsk,rikjl,rsj,rsl->rs", a.conj(), b.conj(), t4, a, b).real
    pick = np.argmax(np.abs(vals), axis=1) if mode == "absmax" else np.argmin(vals, axis=1)
    best = (np.arange(jobs), pick)
    return vals[best].tolist(), a[best], b[best]


def _factors(t: AlgebraElement) -> tuple[AlgebraShape, AlgebraShape]:
    if t.shape.factors is None:
        raise InapplicableError("local positivity needs a tensor-shaped element")
    return t.shape.factors


def block_positivity_violation(ts: Sequence[AlgebraElement], starts: int,
                               rngs: Sequence[np.random.Generator]
                               ) -> list[tuple[float, dict]]:
    """For each element, the largest found violation of ⟨a⊗b|T|a⊗b⟩ being
    real and non-negative, with its witness.

    A non-hermitian block is probed for product vectors with a non-real
    pairing first; the hermitian part is then minimized over product
    vectors.  Each element draws its start vectors from its own generator,
    block by block; the searches of all elements run as stacks, one per
    (mode, m, n), each stack's start vectors normalised at once, and every
    stacked entry is computed as it would be alone, so an element's result
    does not depend on the others in the call.
    """
    jobs = []  # (element, block label, mode, block, start vectors a, b)
    for k, (t, rng) in enumerate(zip(ts, rngs)):
        factor_a, factor_b = _factors(t)
        for label, (i, j), mat in zip(t.shape.labels, t.shape.pairs, t.data):
            m, n = factor_a.dims[i], factor_b.dims[j]
            skew = (mat - mat.conj().T) / 2j
            if np.linalg.norm(skew) > HERM_TOL:
                jobs.append((k, label, "absmax", skew, *_unit_starts(rng, starts, m, n)))
            herm = (mat + mat.conj().T) / 2
            jobs.append((k, label, "min", herm, *_unit_starts(rng, starts, m, n)))
    groups: dict[tuple, list[int]] = {}
    for index, (_, _, mode, _, a, b) in enumerate(jobs):
        groups.setdefault((mode, a.shape[1], b.shape[1]), []).append(index)
    found = [None] * len(jobs)
    for (mode, _, _), indices in groups.items():
        blocks, a, b = (np.stack([jobs[i][f] for i in indices]) for f in (3, 4, 5))
        a, b = (v / np.linalg.norm(v, axis=-1, keepdims=True) for v in (a, b))
        for i, result in zip(indices, zip(*_product_extremum(blocks, a, b, mode))):
            found[i] = result
    out = [(0.0, {}) for _ in ts]
    for (k, label, mode, *_), (val, a, b) in zip(jobs, found):
        size, kind = ((abs(val), "non-real pairing") if mode == "absmax"
                      else (-val, "negative pairing"))
        if size > out[k][0]:
            out[k] = (size, {"block": str(label), "kind": kind, "value": val,
                             "vector_a": a, "vector_b": b})
    return out


# ---------------------------------------------------------------- associativity
def check_associativity(family: sot.SotFamily, e: LinearMap, f: LinearMap,
                        rho: AlgebraElement) -> float:
    """Residual of the two-step composition identity for E: A→B, F: B→C.

    Compares the chained evaluation recovered from the A⊗B stage against the
    direct evaluation of (F∘tr_A) on E⋆ρ, after reassociating both to
    A⊗(B⊗C).  Raises InapplicableError when the family cannot evaluate the
    intermediate arguments (a non-PSD normalized channel state, say).
    Stacks of E, F and ρ of one length give one residual per member, each
    as that member gives alone; one that raises fails the stack.
    """
    if e.target != f.source:
        raise ConstraintError("maps do not compose: need E: A→B, F: B→C")
    shape_a, shape_b, shape_c = e.source, e.target, f.target
    tr_a = maps.partial_trace_channel(shape_a.tensor(shape_b), "A")
    lifted_f = f.compose(tr_a)  # A⊗B → C
    dim_a = float(shape_a.total_dim)
    d_state = (1.0 / dim_a) * maps.channel_state(e)

    def star(channel: LinearMap, arg: AlgebraElement) -> AlgebraElement:
        # State-linear families extend linearly to arbitrary second
        # arguments; the others must pass full domain validation.
        if family.state_linear:
            if not np.all(channel.is_tp):
                raise InapplicableError("intermediate map is not trace-preserving")
            return family.value(channel, arg)
        return sot.evaluate(family, channel, arg).value

    try:
        inner = star(lifted_f, d_state)  # on (A⊗B)⊗C
        chained = alg.reassociate_left_to_right(dim_a * inner)
        recovered = maps.channel_from_state(chained, shape_a, shape_b.tensor(shape_c))
        lhs = star(recovered, rho)
        rhs = star(lifted_f, star(e, rho))
    except (ExtensionError, UnsupportedFamilyError, ConstraintError) as exc:
        raise InapplicableError(f"associativity check not evaluable: {exc}") from exc
    return (alg.reassociate_left_to_right(rhs) - lhs).norm()


# ----------------------------------------------------------------- trials
# The second map or state each mixing property draws, in draw order.
MIXED = {"P4": ("rho2",), "P5": ("e2",), "P6": ("rho2", "e2")}


def _draw(family: sot.SotFamily, prop: str, trial: int, config: CertifyConfig,
          rng: np.random.Generator) -> tuple[tuple, dict]:
    """The group key and raw inputs of one trial, drawn from ``rng`` in a
    fixed order: the raw Gaussians and Dirichlet weights of its maps and
    states.  The key holds what they are finished on: the shapes A, B (and
    C for A's second map) and, for P7, the construction and the prior
    filter.  Raises if the trial has no instance."""
    if prop == "A":
        a, b, c = _interned_shapes(*config.dims)[:3]
        # Entanglement-breaking first legs keep every intermediate second
        # argument PSD, so non-state-linear families stay evaluable.
        e = (sampling.draw_cptp(a, b, rng) if family.state_linear
             else sampling.random_measure_prepare(a, b, config.dims[0] ** 2, rng))
        return (a, b, c), {"e": e, "f": sampling.draw_cptp(b, c, rng),
                           "rho": sampling.draw_state(a, rng)}
    sa, sb = _shapes(family, trial, config.dims)
    if prop == "P7":
        kind, draws = sot.draw_classical_limit(sa, sb, rng, trial // 2,
                                               nondegenerate_prior=family.compound)
        return (sa, sb, kind, family.compound), {"pair": draws}
    raw = {"e": sampling.draw_cptp(sa, sb, rng), "rho": sampling.draw_state(sa, rng)}
    if prop in MIXED:
        raw["lambda"] = rng.uniform(0.2, 0.8)
        for key in MIXED[prop]:
            raw[key] = (sampling.draw_state(sa, rng) if key == "rho2"
                        else sampling.draw_cptp(sa, sb, rng))
    if prop == "P2":
        raw["search_seed"] = int(rng.integers(2 ** 32))
    return (sa, sb), raw


def _finish(raws: list[dict], group: tuple = ()) -> tuple[dict, list[Exception | None]]:
    """The stacked instance of the unrefused trials of one group key, and each
    trial's refusal (None if it has none; only P7's classical-limit pairs can
    be refused): maps and states are stacked, raw draws finished as stacks on
    what the key holds, and other inputs kept as lists."""
    out, refusals = {}, [None] * len(raws)
    for name in raws[0]:
        column = [raw[name] for raw in raws]
        if isinstance(column[0], LinearMap):
            out[name] = maps.stack(column)
        elif isinstance(column[0], AlgebraElement):
            out[name] = alg.stack(column)
        elif name in ("e", "e2", "f", "rho", "rho2", "pair"):
            draws = tuple(map(np.stack, zip(*column)))
            if name == "pair":
                sa, sb, kind, nondegenerate = group
                e, rho, refusals = sot.classical_limits(sa, sb, kind, draws, nondegenerate)
                kept = [refusal is None for refusal in refusals]
                out["e"] = LinearMap._of(e.source, e.target, e.matrix[kept])
                out["rho"] = AlgebraElement._of(rho.shape, (block[kept] for block in rho.data))
            elif name in ("rho", "rho2"):
                out[name] = sampling.state(group[0], draws)
            else:
                out[name] = sampling.cptp(*(group[1:3] if name == "f" else group[:2]), draws)
        else:
            out[name] = column
    return out, refusals


def _unstack(instance: dict) -> list[dict]:
    """The instances of a stacked instance, their arrays views of its stacks."""
    columns = {key: (maps.unstack(value) if isinstance(value, LinearMap)
                     else alg.unstack(value) if isinstance(value, AlgebraElement) else value)
               for key, value in instance.items()}
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def _violations(family: sot.SotFamily, prop: str, instance: dict) -> list[tuple[float, dict]]:
    """(violation, extra witness data) of each trial of a stacked instance;
    a pure function of the instance, which holds every random input.  Every
    property evaluates the whole stack at once.  Raises if any trial does."""
    e, rho = instance["e"], instance["rho"]
    if prop == "A":
        return [(value, {}) for value in
                check_associativity(family, e, instance["f"], rho).tolist()]
    if prop == "M":
        res_a, res_b = sot.evaluate(family, e, rho).marginal_residuals()
        return [(max(pair), {}) for pair in zip(res_a.tolist(), res_b.tolist())]
    if prop in MIXED:
        lam, residuals = np.array(instance["lambda"])[:, None, None], []
        for key in MIXED[prop]:
            other = instance[key]
            if key == "rho2":
                mixed, alt = (e, lam * rho + (1.0 - lam) * other), (e, other)
            else:
                mixed = (lam * e + (1.0 - lam) * other, rho)
                alt = (other, rho)
            residuals.append((sot.evaluate(family, *mixed).value
                              - lam * sot.evaluate(family, e, rho).value
                              - (1.0 - lam) * sot.evaluate(family, *alt).value).norm())
        return [(max(values), {}) for values in zip(*(r.tolist() for r in residuals))]
    t = sot.evaluate(family, e, rho).value
    if prop == "P1":
        return [(value, {}) for value in (t - t.dagger()).norm().tolist()]
    if prop == "P2":
        return block_positivity_violation(
            alg.unstack(t), STARTS,
            [np.random.default_rng(seed) for seed in instance["search_seed"]])
    if prop == "P3":
        return [(max(0.0, -value), {}) for value in t.min_eigenvalue().tolist()]
    if prop != "P7":
        raise InapplicableError(f"unknown property {prop}")
    target = maps.channel_state(e) @ alg.tensor(rho, alg.identity(e.target))
    return [(value, {}) for value in (t - target).norm().tolist()]


def _violation(family: sot.SotFamily, prop: str, instance: dict) -> tuple[float, dict]:
    """Return (violation, extra-witness-data) for one instance: the
    violations of its stack of one."""
    return _violations(family, prop, _finish([instance])[0])[0]


def _perturb(instance: dict, scale: float, rng: np.random.Generator) -> dict:
    """Mix fresh draws into ``e``/``f``/``rho``; the other inputs stay."""
    out = dict(instance)
    rho = instance["rho"]
    out["rho"] = (1.0 - scale) * rho + scale * sampling.random_state(rho.shape, rng)
    for key in ("e", "f"):
        if key in instance:
            m = instance[key]
            other = sampling.random_cptp(m.source, m.target, rng)
            out[key] = (1.0 - scale) * m + scale * other
    return out


def replay_violation(family: sot.SotFamily, prop: str, counterexample: dict,
                     config: CertifyConfig | None = None) -> float:
    """Recompute the violation of a stored counterexample.  The witness holds
    every input of the trial, so ``config`` is not read."""
    return _violation(family, prop, counterexample)[0]


# ----------------------------------------------------------------- certification
def _chunk(family: sot.SotFamily, prop: str, trials: range, config: CertifyConfig,
           keys: list[list[int]]) -> list[tuple[float, dict] | Exception]:
    """The outcome of each trial of a chunk.

    Each trial draws from its own generator; a draw that raises is that
    trial's outcome.  The trials of one group key are then finished as one
    stack, and a refused trial's refusal is its outcome.  The other trials
    of one shape pair (for P7, of every construction) are evaluated as one
    stack.  If that raises, each finished member is evaluated alone: it
    equals its trial drawn alone, so every trial gets the outcome it has
    alone, exception included.
    """
    outcomes: list = [None] * len(keys)
    groups: dict[tuple, list[tuple[int, dict]]] = {}
    for index, (trial, key) in enumerate(zip(trials, keys)):
        try:
            group, raw = _draw(family, prop, trial, config, np.random.default_rng(key))
        except Exception as exc:  # settled when the sweep reaches the trial
            outcomes[index] = exc
            continue
        groups.setdefault(group, []).append((index, raw))
    stacks: dict[tuple, list[tuple[list[int], dict]]] = {}
    for group, members in groups.items():
        instance, refusals = _finish([raw for _, raw in members], group)
        for (index, _), refusal in zip(members, refusals):
            outcomes[index] = refusal
        if indices := [index for index, _ in members if outcomes[index] is None]:
            stacks.setdefault(group[:2], []).append((indices, instance))
    for parts in stacks.values():
        indices = [index for part, _ in parts for index in part]
        instance = (parts[0][1] if len(parts) == 1 else
                    _finish([trial for _, part in parts for trial in _unstack(part)])[0])
        try:
            found = _violations(family, prop, instance)
        except Exception:  # some trial raises: evaluate each member alone
            for index, member in zip(indices, _unstack(instance)):
                try:
                    value, extra = _violation(family, prop, member)
                    outcomes[index] = value, {**member, **extra}
                except Exception as exc:  # settled when the sweep reaches the trial
                    outcomes[index] = exc
            continue
        for index, trial_instance, (value, extra) in zip(indices, _unstack(instance), found):
            outcomes[index] = value, {**trial_instance, **extra}
    return outcomes


def _sweep(family: sot.SotFamily, prop: str, config: CertifyConfig,
           cell: int) -> Iterator[tuple[int, list[int], tuple[float, dict] | str]]:
    """(trial, key, outcome) for every sweep trial in trial order, each
    drawn from the generator keyed ``key`` = [seed, cell, trial].

    ``outcome`` is (violation, witness data holding the instance), or the
    exception class name of a skipped trial; any other exception of a trial
    is raised when the sweep reaches that trial.  Trial 0 comes alone, so a
    cell that fails at once draws one trial; the rest come in chunks of
    ``CHUNK_TRIALS``, each drawn and evaluated as a whole.
    """
    start, size = 0, 1
    while start < config.trials:
        trials = range(start, min(start + size, config.trials))
        keys = [[config.seed, cell, trial] for trial in trials]
        for trial, key, outcome in zip(trials, keys, _chunk(family, prop, trials, config, keys)):
            if isinstance(outcome, SKIPS):
                outcome = type(outcome).__name__
            elif isinstance(outcome, Exception):
                raise outcome
            yield trial, key, outcome
        start, size = start + size, CHUNK_TRIALS


def certify(family: sot.SotFamily, prop: str,
            config: CertifyConfig | None = None) -> PropertyVerdict:
    """Randomized verdict for one family/property cell.

    Samples ``config.trials`` instances; a violation above the fail threshold
    (refined by local perturbation ascent when random search alone stays
    below it) yields a replayable ``fails`` verdict, and a clean sweep below
    the pass threshold yields ``holds``.  The compound family's classical
    limit holds on non-degenerate faithful priors only ("∗"), and its
    associativity is an open question reported as ``empirical`` ("?").
    The sweep stops at the first trial above the fail threshold; trials it
    walked and skipped are counted by exception class.
    """
    config = config or CertifyConfig()
    tag = family.tag
    if prop not in PROPERTIES:
        raise InapplicableError(f"unknown property {prop}")
    if config.trials <= 0:
        return PropertyVerdict(tag, prop, "insufficient", 0, config.seed)
    cell = _cell_index(tag, prop)

    max_residual, best, evaluated, skipped = 0.0, None, 0, Counter()
    for trial, key, outcome in _sweep(family, prop, config, cell):
        if isinstance(outcome, str):
            skipped[outcome] += 1
            continue
        evaluated += 1
        max_residual = max(max_residual, outcome[0])
        if best is None or outcome[0] > best[0]:
            best = (outcome[0], trial, key, outcome[1])
        if outcome[0] > FAIL_THRESHOLD:
            break
    if best is None:
        return PropertyVerdict(tag, prop, "inapplicable", 0, config.seed,
                               skipped=dict(skipped))

    value, best_trial, key, data = best
    witness, steps = {**data, "replay_seed": key}, 0
    if PASS_THRESHOLD < value <= FAIL_THRESHOLD:
        # Ambiguous: sharpen the best candidate by local perturbation ascent.
        for step in range(ASCENT_STEPS):
            steps, scale = step + 1, 0.3 * (0.9 ** step)
            key = [config.seed, cell, config.trials + best_trial, step]
            try:
                instance = _perturb(witness, scale, np.random.default_rng(key))
                result, extra = _violation(family, prop, instance)
            except SKIPS:
                continue
            if result > value:
                value, witness = result, {**instance, **extra, "replay_seed": key}
                if value > FAIL_THRESHOLD:
                    break
        max_residual = max(max_residual, value)

    failed = value > FAIL_THRESHOLD
    status = "fails" if failed else "holds" if max_residual < PASS_THRESHOLD else "undecided"
    note = ""
    if family.compound and prop == "A" and status != "undecided":
        status, note = "empirical", f"open question; observed: {status}"
    elif family.compound and prop == "P7" and status == "holds":
        status, note = "holds-restricted", "verified on non-degenerate faithful priors only"
    return PropertyVerdict(tag, prop, status, evaluated, config.seed,
                           max_residual=max_residual,
                           violation=value if failed else None,
                           counterexample=witness if failed else None, note=note,
                           skipped=dict(skipped), ascent_steps=steps)


# ------------------------------------------------------------------ the table
EXPECTED_TABLE: dict[str, dict[str, str]] = {
    "uncorrelated":    dict(zip(TABLE_PROPERTIES, "✓✓✓✗✓✗✗")),
    "ohya":            dict(zip(TABLE_PROPERTIES, "✓✓✓✗✓∗?")),
    "leifer-spekkens": dict(zip(TABLE_PROPERTIES, "✓✓✗✗✓✓✗")),
    "t-rotated":       dict(zip(TABLE_PROPERTIES, "✓✓✗✗✓✓✗")),
    "sth":             dict(zip(TABLE_PROPERTIES, "✓✓✗✗✓✓✗")),
    "symmetric-bloom": dict(zip(TABLE_PROPERTIES, "✓✗✗✓✓✓✓")),
    "right-bloom":     dict(zip(TABLE_PROPERTIES, "✗✗✗✓✓✓✓")),
    "left-bloom":      dict(zip(TABLE_PROPERTIES, "✗✗✗✓✓✓✓")),
}


@dataclass(frozen=True)
class TableReport:
    verdicts: dict[str, dict[str, PropertyVerdict]]
    config: CertifyConfig

    def glyphs(self) -> dict[str, dict[str, str]]:
        return {fam: {p: v.glyph for p, v in row.items()}
                for fam, row in self.verdicts.items()}

    def mismatches(self, expected: dict[str, dict[str, str]] | None = None
                   ) -> list[tuple[str, str, str, str]]:
        """Decided (✓/✗) cells whose verdict differs from the expected glyph."""
        expected = expected or EXPECTED_TABLE
        out = []
        for fam, row in self.verdicts.items():
            for prop, verdict in row.items():
                want = expected.get(fam, {}).get(prop)
                if want not in ("✓", "✗"):
                    continue
                if verdict.glyph != want:
                    out.append((fam, prop, want, verdict.glyph))
        return out

    def render_text(self) -> str:
        width = max(len(f) for f in self.verdicts) + 2
        props = list(next(iter(self.verdicts.values())))
        lines = ["family".ljust(width) + "  ".join(p.ljust(3) for p in props)]
        for fam, row in self.verdicts.items():
            cells = "  ".join(row[p].glyph.ljust(3) for p in props)
            lines.append(fam.ljust(width) + cells)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"trials": self.config.trials, "seed": self.config.seed,
                "cells": [v.to_json() for row in self.verdicts.values()
                          for v in row.values()]}


def table_report(config: CertifyConfig | None = None,
                 families: dict[str, sot.SotFamily] | None = None,
                 properties: tuple[str, ...] = TABLE_PROPERTIES) -> TableReport:
    """Certify every family × property cell and collect the matrix."""
    config = config or CertifyConfig()
    families = families or sot.TABLE_FAMILIES
    return TableReport({tag: {prop: certify(family, prop, config) for prop in properties}
                        for tag, family in families.items()}, config)
