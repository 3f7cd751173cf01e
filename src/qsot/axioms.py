"""Randomized certification of state-over-time properties.

Each property of a family (hermiticity, local positivity, positivity,
linearity in either argument, the classical limit, associativity, marginals)
is checked on a stream of random instances, walked in stacked chunks;
failures are recorded as replayable counterexamples found by random search
plus a short local-ascent refinement.  ``table_report`` assembles the full
family × property matrix.
"""
from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from typing import Sequence

import numpy as np

from . import algebra as alg, io, maps, sampling, sot
from .algebra import AlgebraElement, AlgebraShape
from .config import FAIL_THRESHOLD, HERM_TOL, PASS_THRESHOLD
from .errors import (ConstraintError, ExtensionError, InapplicableError,
                     UnsupportedFamilyError, ValidationError)
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

    def __post_init__(self):  # stores plain ints and a tuple: the config hashes, writes as JSON
        for name, value in (("trials", self.trials), ("seed", self.seed)):
            if not _is_count(value, 0):
                raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not (isinstance(self.dims, (tuple, list)) and len(self.dims) == 2
                and all(_is_count(d, 1) for d in self.dims)):
            raise ValidationError(f"dims must be a pair of positive integers, got {self.dims!r}")
        object.__setattr__(self, "dims", tuple(map(int, self.dims)))


def _is_count(value, least: int) -> bool:  # an integer, not a bool, of at least ``least``
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


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
    skipped: dict[str, int] = field(default_factory=dict)  # walked trials, by exception class
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


def _group(family: sot.SotFamily, prop: str, trial: int, config: CertifyConfig) -> tuple:
    """A trial's group key, from its index alone: its source and target, for
    every family alike M_{d_a} → M_{d_b} on even trials and M_{d_a} ⊕ M_1 →
    M_{d_b} ⊕ M_1 on odd ones (A's legs A → B → C on single blocks), and for
    P7 the construction and the prior filter."""
    a, b, c, blocky_a, blocky_b = _interned_shapes(*config.dims)
    if prop == "A":
        return a, b, c
    sa, sb = (a, b) if trial % 2 == 0 else (blocky_a, blocky_b)
    if prop == "P7":
        return sa, sb, sot.classical_limit_kind(sa, trial // 2, family.compound), family.compound
    return sa, sb


# -------------------------------------------------------- product-vector search
@cache
def _starts(d: int) -> np.ndarray:
    """The ``STARTS`` unit start vectors (STARTS, d) of every search whose
    first factor has dimension d, built once and read-only: the real, then
    the imaginary parts ``default_rng([d, STARTS]).normal(size=(2, STARTS, d))``."""
    z = np.random.default_rng([d, STARTS]).normal(size=(2, STARTS, d))
    v = z[0] + 1j * z[1]
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    v.flags.writeable = False
    return v


def _form_maps(blocks: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (m·n)×(m·n) blocks as the maps from a flattened projector v̄vᵀ in
    one factor to the form ⟨v|block|v⟩ in the other: (jobs, m², n²), (jobs, n², m²)."""
    t5 = blocks.reshape(-1, m, n, m, n)  # [job, i, k, j, l] for ⟨i k|block|j l⟩
    return (t5.transpose(0, 1, 3, 2, 4).reshape(-1, m * m, n * n),
            t5.transpose(0, 2, 4, 1, 3).reshape(-1, n * n, m * m))


def _extreme_projectors(q: np.ndarray, mode: str) -> np.ndarray:
    """The projector v̄vᵀ (..., d, d) of a unit eigenvector v of the hermitian
    part H of each form q (..., d, d) for its lowest eigenvalue ('min'), or
    for its eigenvalue of largest modulus, the lower one on a tie ('absmax').
    d = 1 gives 1 exactly; d = 2 is elementwise, ½(1 ± (H − mean·1)/radius)ᵀ,
    e₁'s projector on a multiple of 1; larger d takes a stacked ``eigh``."""
    d = q.shape[-1]
    if d == 1:
        return np.ones(q.shape, dtype=complex)
    if d > 2:
        w, v = np.linalg.eigh((q + q.conj().swapaxes(-1, -2)) / 2)
        idx = (np.argmax(np.abs(w), axis=-1) if mode == "absmax"
               else np.zeros(w.shape[:-1], dtype=int))
        v = np.take_along_axis(v, idx[..., None, None], axis=-1)[..., 0]
        return v.conj()[..., :, None] * v[..., None, :]
    top, bottom = q[..., 0, 0].real, q[..., 1, 1].real
    off = (q[..., 1, 0] + q[..., 0, 1].conj()) / 2  # H's lower off-diagonal entry
    mean, half = (top + bottom) / 2, (top - bottom) / 2
    radius = np.hypot(half, np.abs(off))  # λ = mean ± radius
    sign = (np.where(np.abs(mean + radius) > np.abs(mean - radius), 0.5, -0.5)
            if mode == "absmax" else -0.5)
    identity = radius == 0  # H − mean·1 = 0: take e₁'s projector
    scale = sign / (radius + identity)
    first, off = 0.5 + np.where(identity, 0.5, scale * half), scale * off  # O's first row
    return np.stack([first, off, off.conj(), 1 - first], axis=-1).reshape(q.shape)


def _projector_vectors(o: np.ndarray) -> np.ndarray:
    """The unit vector v (..., d) of each rank-one projector o = v̄vᵀ, read
    from its row with the largest diagonal entry, so that v's entry of
    largest modulus is real and positive."""
    row = np.argmax(np.diagonal(o, axis1=-2, axis2=-1).real, axis=-1)[..., None, None]
    at = np.take_along_axis(o, row, axis=-2)[..., 0, :]  # conj(v_i)·v for that row i
    return at / np.sqrt(np.take_along_axis(at, row[..., 0], axis=-1).real)


def _pairings(blocks: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re ⟨a⊗b|block|a⊗b⟩ (jobs, starts) for blocks (jobs, m·n, m·n) and
    vectors a (jobs, starts, m), b (jobs, starts, n), summed term by term in
    a fixed order, so each entry's bits do not depend on how many jobs or
    starts share the call (a reduction's order can follow the shapes)."""
    v = (a[..., :, None] * b[..., None, :]).reshape(*a.shape[:-1], -1)  # a⊗b
    tv = sum(blocks[:, None, :, q] * v[..., q, None] for q in range(v.shape[-1]))
    return sum((v[..., p].conj() * tv[..., p]).real for p in range(v.shape[-1]))


def _product_extremum(blocks: np.ndarray, starts: np.ndarray,
                      mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimize ⟨a⊗b|block|a⊗b⟩ over unit product vectors by eight rounds of
    alternating eigensolves (fixing one factor leaves a hermitian form in
    the other) on the projectors v̄vᵀ, for a stack of (m·n)×(m·n) blocks
    from unit start vectors (starts, m) shared by every block.  Returns each
    block's best value (jobs,) and vectors (jobs, m) and (jobs, n).

    ``mode`` 'min' minimizes the (real) pairing of a hermitian block;
    'absmax' maximizes |pairing| of a hermitian block.

    ``_extreme_projectors`` returns the projector 1 of a 1×1 form exactly, so
    with a one-dimensional factor every start reaches the same projectors
    within two rounds, and the first start run for two rounds gives every
    bit of the eight-round search over all starts.
    """
    rounds, jobs, m = 8, len(blocks), starts.shape[1]
    n = blocks.shape[-1] // m
    if min(m, n) == 1:
        rounds, starts = 2, starts[:1]
    to_b, to_a = _form_maps(blocks, m, n)
    forms = lambda o, to, d: (o.reshape(*o.shape[:-2], -1) @ to).reshape(jobs, -1, d, d)
    o_a = starts.conj()[:, :, None] * starts[:, None, :]
    for _ in range(rounds):
        o_b = _extreme_projectors(forms(o_a, to_b, n), mode)
        o_a = _extreme_projectors(forms(o_b, to_a, m), mode)
    a, b = _projector_vectors(o_a), _projector_vectors(o_b)
    vals = _pairings(blocks, a, b)
    best = np.arange(jobs), np.argmax(np.abs(vals) if mode == "absmax" else -vals, axis=1)
    return vals[best], a[best], b[best]


def block_positivity_violation(t: AlgebraElement) -> list[tuple[float, dict]]:
    """For each member of the stack t, the largest found violation of
    ⟨a⊗b|T|a⊗b⟩ being real and non-negative, with its witness.

    Each block has two searches, in order, each one ``_product_extremum``
    call on the members that need it: its skew part is probed for product
    vectors with a non-real pairing where it is nonzero, then its hermitian
    part is minimized.  A search from an m-dimensional first factor starts
    from ``_starts(m)``.  A member's witness is its first search of the
    largest positive size.
    """
    if t.shape.factors is None:
        raise InapplicableError("local positivity needs a tensor-shaped element")
    factor_a = t.shape.factors[0]
    searches = [(str(label), mode, factor_a.dims[i], part)
                for label, (i, _), mat in zip(t.shape.labels, t.shape.pairs, t.data)
                for mode, part in (("absmax", (mat - mat.conj().swapaxes(-1, -2)) / 2j),
                                   ("min", (mat + mat.conj().swapaxes(-1, -2)) / 2))]
    sizes, found = np.zeros((len(t.data[0]), len(searches))), {}
    for s, (_, mode, m, part) in enumerate(searches):
        runs = (np.linalg.norm(part, axis=(-2, -1)) > HERM_TOL if mode == "absmax"
                else np.ones(len(part), bool))
        if runs.any():
            values, a, b = _product_extremum(part[runs], _starts(m), mode)
            sizes[runs, s] = np.abs(values) if mode == "absmax" else -values
            found[s] = np.cumsum(runs) - 1, values, a, b  # each member's row, the result
    out = []  # argmax takes the first largest, as the sizes are finite
    for k, (s, size) in enumerate(zip(np.argmax(sizes, axis=1).tolist(),
                                      sizes.max(axis=1).tolist())):
        if not size > 0:
            out.append((0.0, {}))
            continue
        (label, mode, *_), (rows, values, a, b) = searches[s], found[s]
        kind = "non-real pairing" if mode == "absmax" else "negative pairing"
        out.append((size, {"block": label, "kind": kind, "value": values[rows[k]].item(),
                           "vector_a": a[rows[k]], "vector_b": b[rows[k]]}))
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


def _draw(family: sot.SotFamily, prop: str, group: tuple, config: CertifyConfig,
          rng: np.random.Generator, members: int) -> tuple[dict, list]:
    """The stacked instance of ``members`` trials of one group key, and each
    trial's refusal (None if it has none; only P7's classical-limit pairs
    can be refused).  Each input is drawn for the whole group from ``rng``
    by its sampler, in draw order, member k from row k of each call."""
    sa, sb = group[:2]
    if prop == "P7":
        e, rho, refusals = sot.classical_limits(*group[:3], rng, members, group[3])
        return {"e": e, "rho": rho}, refusals
    if prop == "A":
        # Entanglement-breaking first legs keep every intermediate second
        # argument PSD, so non-state-linear families stay evaluable.
        e = (sampling.random_cptp(sa, sb, rng, members) if family.state_linear else
             sampling.random_measure_prepare(sa, sb, config.dims[0] ** 2, rng, members))
        return {"e": e, "f": sampling.random_cptp(sb, group[2], rng, members),
                "rho": sampling.random_state(sa, rng, members)}, [None] * members
    out = {"e": sampling.random_cptp(sa, sb, rng, members),
           "rho": sampling.random_state(sa, rng, members)}
    if prop in MIXED:
        out["lambda"] = rng.uniform(0.2, 0.8, size=members).tolist()
        for key in MIXED[prop]:
            out[key] = (sampling.random_state(sa, rng, members) if key == "rho2"
                        else sampling.random_cptp(sa, sb, rng, members))
    return out, [None] * members


def _member(instance: dict, position: int) -> dict:
    """The instance at ``position`` of a stacked instance, its arrays views
    of the stacks."""
    return {key: (LinearMap._of(value.source, value.target, value.matrix[position])
                  if isinstance(value, LinearMap) else
                  AlgebraElement._of(value.shape, (block[position] for block in value.data))
                  if isinstance(value, AlgebraElement) else value[position])
            for key, value in instance.items()}


def _concat(stacks: Sequence):
    """Stacks of one kind, shape and source and target (maps, elements or
    lists) as one stack, end to end along the first axis: the inverse of
    ``_member``'s slicing.  One stack is returned as it is."""
    first = stacks[0]
    if len(stacks) == 1:
        return first
    if isinstance(first, LinearMap):
        return LinearMap._of(first.source, first.target,
                             np.concatenate([s.matrix for s in stacks]))
    if isinstance(first, AlgebraElement):
        return AlgebraElement._of(first.shape, (np.concatenate(blocks) for blocks in
                                                zip(*(s.data for s in stacks))))
    return [value for s in stacks for value in s]


def _violations(family: sot.SotFamily, prop: str, instance: dict) -> list[tuple[float, dict]]:
    """(violation, extra witness data) of each trial of a stacked instance;
    a pure function of the instance, which holds every random input.  Every
    property evaluates the whole stack at once, P4–P6 every pair of it in
    one stack.  Raises if any trial does."""
    e, rho = instance["e"], instance["rho"]
    if prop == "A":
        return [(value, {}) for value in
                check_associativity(family, e, instance["f"], rho).tolist()]
    if prop == "M":
        res_a, res_b = sot.evaluate(family, e, rho).marginal_residuals()
        return [(max(pair), {}) for pair in zip(res_a.tolist(), res_b.tolist())]
    if prop in MIXED:
        lam, pairs = np.array(instance["lambda"])[:, None, None], [(e, rho)]
        for key in MIXED[prop]:  # each key's mixed pair, then its alternative pair
            other = instance[key]
            pairs += ([(e, lam * rho + (1.0 - lam) * other), (e, other)] if key == "rho2"
                      else [(lam * e + (1.0 - lam) * other, rho), (other, rho)])
        t = sot.evaluate(family, *map(_concat, zip(*pairs))).value  # one stack of every pair
        plain, *others = (AlgebraElement._of(t.shape, blocks) for blocks in
                          zip(*(np.split(block, len(pairs)) for block in t.data)))
        residuals = [(mixed - lam * plain - (1.0 - lam) * alt).norm().tolist()
                     for mixed, alt in zip(others[::2], others[1::2])]
        return [(max(values), {}) for values in zip(*residuals)]
    t = sot.evaluate(family, e, rho).value
    if prop == "P1":
        return [(value, {}) for value in (t - t.dagger()).norm().tolist()]
    if prop == "P2":
        return block_positivity_violation(t)
    if prop == "P3":
        return [(max(0.0, -value), {}) for value in t.min_eigenvalue().tolist()]
    if prop != "P7":
        raise InapplicableError(f"unknown property {prop}")
    target = maps.channel_state(e) @ alg.tensor(rho, alg.identity(e.target))
    return [(value, {}) for value in (t - target).norm().tolist()]


def _violation(family: sot.SotFamily, prop: str, instance: dict) -> tuple[float, dict]:
    """Return (violation, extra-witness-data) for one instance: the
    violations of its stack of one, its other inputs as lists."""
    return _violations(family, prop, {
        name: maps.stack([value]) if isinstance(value, LinearMap) else
        alg.stack([value]) if isinstance(value, AlgebraElement) else [value]
        for name, value in instance.items()})[0]


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
           cell: int) -> list[tuple[list[int], tuple[float, dict, dict, int] | Exception]]:
    """The replay key and the outcome of each trial of a chunk.  An outcome
    is (violation, extra witness data, the stacked instance that holds the
    trial, its position there), or an exception.

    Groups are for drawing, shape pairs for evaluating.  The trials are
    grouped by key before anything is drawn, the groups in the order of
    their first trials.  Group g of the chunk that starts at trial s draws
    all its members at once (``_draw``) from ``np.random.default_rng([seed,
    cell, s, g])``; a trial's replay key is the group's key and its row in
    the group's draws.  Both are functions of the trial indices alone.  A
    refused trial's refusal is its outcome.  The members of every group of
    one shape pair (P7's constructions; every other property has one group
    per pair) are evaluated as one stack, the groups end to end in order.
    If that raises, each member is evaluated alone: it equals its trial
    drawn alone from its row, so every trial gets the outcome it has alone,
    exception included.
    """
    keys, outcomes = [None] * len(trials), [None] * len(trials)
    groups: dict[tuple, list[int]] = {}
    for index, trial in enumerate(trials):
        groups.setdefault(_group(family, prop, trial, config), []).append(index)
    stacks: dict[tuple, tuple[list, list[int]]] = {}  # by shape pair: instances, trial indices
    for ordinal, (group, indices) in enumerate(groups.items()):
        key = [config.seed, cell, trials.start, ordinal]
        instance, refusals = _draw(family, prop, group, config, np.random.default_rng(key),
                                   len(indices))
        for row, (index, refusal) in enumerate(zip(indices, refusals)):
            keys[index], outcomes[index] = [*key, row], refusal
        if kept := [index for index in indices if outcomes[index] is None]:
            instances, evaluated = stacks.setdefault(group[:2], ([], []))
            instances.append(instance)
            evaluated += kept
    for instances, indices in stacks.values():
        instance = {name: _concat([part[name] for part in instances]) for name in instances[0]}
        try:
            found = _violations(family, prop, instance)
        except Exception:  # some trial raises: evaluate each member alone
            for position, index in enumerate(indices):
                try:
                    outcomes[index] = (*_violation(family, prop, _member(instance, position)),
                                       instance, position)
                except Exception as exc:  # settled when certify reaches the trial
                    outcomes[index] = exc
            continue
        for position, (index, (value, extra)) in enumerate(zip(indices, found)):
            outcomes[index] = value, extra, instance, position
    return list(zip(keys, outcomes))


def certify(family: sot.SotFamily, prop: str,
            config: CertifyConfig | None = None) -> PropertyVerdict:
    """Randomized verdict for one family/property cell.

    Samples ``config.trials`` instances; a violation above the fail threshold
    (refined by local perturbation ascent when random search alone stays
    below it) yields a replayable ``fails`` verdict, and a clean walk below
    the pass threshold yields ``holds``.  The compound family's classical
    limit holds on non-degenerate faithful priors only ("∗"), and its
    associativity is an open question reported as ``empirical`` ("?").
    The walk takes trial 0 alone, so a cell that fails at once draws one
    trial, then chunks of ``CHUNK_TRIALS`` (``_chunk``), up to the first
    trial above the fail threshold.  Skipped trials it walked are counted by
    exception class; any other exception is raised when it reaches its trial.
    """
    config = config or CertifyConfig()
    tag = family.tag
    if prop not in PROPERTIES:
        raise InapplicableError(f"unknown property {prop}")
    if config.trials <= 0:
        return PropertyVerdict(tag, prop, "insufficient", 0, config.seed)
    cell = _cell_index(tag, prop)

    max_residual, best, evaluated, skipped = 0.0, None, 0, Counter()
    start, size, stop = 0, 1, False
    while start < config.trials and not stop:
        trials = range(start, min(start + size, config.trials))
        for trial, (key, outcome) in zip(trials, _chunk(family, prop, trials, config, cell)):
            if isinstance(outcome, SKIPS):
                skipped[type(outcome).__name__] += 1
                continue
            if isinstance(outcome, Exception):
                raise outcome
            evaluated += 1
            max_residual = max(max_residual, outcome[0])
            if best is None or outcome[0] > best[2][0]:
                best = trial, key, outcome
            if stop := outcome[0] > FAIL_THRESHOLD:
                break
        start, size = start + size, CHUNK_TRIALS
    if best is None:
        return PropertyVerdict(tag, prop, "inapplicable", 0, config.seed,
                               skipped=dict(skipped))

    best_trial, key, (value, extra, instance, position) = best
    witness, steps = {**_member(instance, position), **extra, "replay_seed": key}, 0
    if PASS_THRESHOLD < value <= FAIL_THRESHOLD:
        # Ambiguous: sharpen the best candidate by local perturbation ascent,
        # every step drawn from one generator; a witness names its step.
        key = [config.seed, cell, config.trials + best_trial]
        rng = np.random.default_rng(key)
        for step in range(ASCENT_STEPS):
            steps, scale = step + 1, 0.3 * (0.9 ** step)
            try:
                instance = _perturb(witness, scale, rng)
                result, extra = _violation(family, prop, instance)
            except SKIPS:
                continue
            if result > value:
                value, witness = result, {**instance, **extra, "replay_seed": [*key, step]}
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
        expected = EXPECTED_TABLE if expected is None else expected
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
        width = max(map(len, self.verdicts), default=0) + 2
        props = list(next(iter(self.verdicts.values()), ()))
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
    families = sot.TABLE_FAMILIES if families is None else families
    return TableReport({tag: {prop: certify(family, prop, config) for prop in properties}
                        for tag, family in families.items()}, config)
