"""Randomized certification of state-over-time properties.

Each property of a family (hermiticity, local positivity, positivity,
linearity in either argument, the classical limit, associativity, marginals)
is checked on a stream of random instances; failures are recorded as
replayable counterexamples found by random search plus a short local-ascent
refinement.  ``table_report`` assembles the full family × property matrix.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import algebra as alg, maps, sampling, sot
from .algebra import AlgebraElement, AlgebraShape
from .config import FAIL_THRESHOLD, HERM_TOL, PASS_THRESHOLD
from .errors import (ConstraintError, ExtensionError, InapplicableError,
                     UnsupportedFamilyError)
from .maps import LinearMap

PROPERTIES = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "A", "M")
TABLE_PROPERTIES = ("P1", "P2", "P3", "P4", "P5", "P7", "A")

GLYPHS = {"holds": "✓", "fails": "✗", "holds-restricted": "∗",
          "empirical": "?", "inapplicable": "n/a", "insufficient": "n/a",
          "undecided": "?"}


def _witness_json(value):
    """JSON form of one witness entry; None for values with no wire form."""
    from . import io  # deferred: io itself imports the model modules
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
    return None


@dataclass(frozen=True)
class CertifyConfig:
    trials: int = 200
    dims: tuple[int, int] = (2, 2)
    seed: int = 0
    ascent_steps: int = 50
    starts: int = 20


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
               "max_residual": self.max_residual}
        if self.violation is not None:
            out["violation"] = self.violation
        if self.counterexample is not None:
            witness = {k: _witness_json(v) for k, v in self.counterexample.items()}
            out["witness"] = {k: v for k, v in witness.items() if v is not None}
        if self.note:
            out["note"] = self.note
        return out


def _cell_index(family_tag: str, prop: str) -> int:
    return zlib.crc32(f"{family_tag}:{prop}".encode())


def _trial_rng(seed: int, family_tag: str, prop: str, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, _cell_index(family_tag, prop), trial])


# ------------------------------------------------------------------- sampling
def _shapes(family: sot.SotFamily, trial: int, d: int) -> tuple[AlgebraShape, AlgebraShape]:
    """Alternate single-block and block-sum shapes; compound-family sources
    stay single-block."""
    single_a = AlgebraShape((("a", d),))
    single_b = AlgebraShape((("b", d),))
    if trial % 2 == 0:
        return single_a, single_b
    blocky_a = AlgebraShape((("a0", d), ("a1", 1)))
    blocky_b = AlgebraShape((("b0", d), ("b1", 1)))
    if family.compound:
        return single_a, blocky_b
    return blocky_a, blocky_b


# -------------------------------------------------------- product-vector search
def _product_extremum(block: np.ndarray, m: int, n: int, starts: int,
                      rng: np.random.Generator, mode: str,
                      iters: int = 8) -> tuple[float, np.ndarray, np.ndarray]:
    """Optimize ⟨a⊗b|block|a⊗b⟩ over unit product vectors by alternating
    eigensolves (fixing one factor leaves a hermitian form in the other).

    ``mode`` 'min' minimizes the (real) pairing of a hermitian block;
    'absmax' maximizes |pairing| of a hermitian block.
    """
    t4 = block.reshape(m, n, m, n)
    a = rng.normal(size=(starts, m)) + 1j * rng.normal(size=(starts, m))
    b = rng.normal(size=(starts, n)) + 1j * rng.normal(size=(starts, n))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    for _ in range(iters):
        q_b = np.einsum("si,ikjl,sj->skl", a.conj(), t4, a)
        w, v = np.linalg.eigh((q_b + q_b.conj().transpose(0, 2, 1)) / 2)
        idx = (np.argmax(np.abs(w), axis=1) if mode == "absmax"
               else np.zeros(starts, dtype=int))
        b = v[np.arange(starts), :, idx]
        q_a = np.einsum("sk,ikjl,sl->sij", b.conj(), t4, b)
        w, v = np.linalg.eigh((q_a + q_a.conj().transpose(0, 2, 1)) / 2)
        idx = (np.argmax(np.abs(w), axis=1) if mode == "absmax"
               else np.zeros(starts, dtype=int))
        a = v[np.arange(starts), :, idx]
    vals = np.einsum("si,sk,ikjl,sj,sl->s", a.conj(), b.conj(), t4, a, b).real
    pick = np.argmax(np.abs(vals)) if mode == "absmax" else np.argmin(vals)
    return float(vals[pick]), a[pick], b[pick]


def block_positivity_violation(t: AlgebraElement, starts: int,
                               rng: np.random.Generator) -> tuple[float, dict]:
    """Largest found violation of ⟨a⊗b|T|a⊗b⟩ being real and non-negative.

    A non-hermitian T is probed for product vectors with a non-real pairing
    first; the hermitian part is then minimized over product vectors.
    """
    tshape = t.shape
    if tshape.factors is None:
        raise InapplicableError("local positivity needs a tensor-shaped element")
    factor_a, factor_b = tshape.factors
    violation, witness = 0.0, {}
    for label, (i, j), mat in zip(tshape.labels, tshape.pairs, t.data):
        m, n = factor_a.dims[i], factor_b.dims[j]
        skew = (mat - mat.conj().T) / 2j
        if np.linalg.norm(skew) > HERM_TOL:
            val, a, b = _product_extremum(skew, m, n, starts, rng, "absmax")
            if abs(val) > violation:
                violation = abs(val)
                witness = {"block": str(label), "kind": "non-real pairing",
                           "value": val, "vector_a": a, "vector_b": b}
        herm = (mat + mat.conj().T) / 2
        val, a, b = _product_extremum(herm, m, n, starts, rng, "min")
        if -val > violation:
            violation = -val
            witness = {"block": str(label), "kind": "negative pairing",
                       "value": val, "vector_a": a, "vector_b": b}
    return violation, witness


# ---------------------------------------------------------------- associativity
def check_associativity(family: sot.SotFamily, e: LinearMap, f: LinearMap,
                        rho: AlgebraElement) -> float:
    """Residual of the two-step composition identity for E: A→B, F: B→C.

    Compares the chained evaluation recovered from the A⊗B stage against the
    direct evaluation of (F∘tr_A) on E⋆ρ, after reassociating both to
    A⊗(B⊗C).  Raises InapplicableError when the family cannot evaluate the
    intermediate arguments (a non-PSD normalized channel state, say).
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
            if not channel.is_tp:
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


def _sample_associativity(family: sot.SotFamily, d: int,
                          rng: np.random.Generator) -> dict:
    shape_a = AlgebraShape((("a", d),))
    shape_b = AlgebraShape((("b", d),))
    shape_c = AlgebraShape((("c", d),))
    if not family.state_linear:
        # Entanglement-breaking first legs keep every intermediate second
        # argument PSD, so non-state-linear families stay evaluable.
        e = sampling.random_measure_prepare(shape_a, shape_b, d * d, rng)
    else:
        e = sampling.random_cptp(shape_a, shape_b, rng)
    f = sampling.random_cptp(shape_b, shape_c, rng)
    return {"e": e, "f": f, "rho": sampling.random_state(shape_a, rng)}


# ----------------------------------------------------------- violation functions
def _violation(family: sot.SotFamily, prop: str, instance: dict,
               config: CertifyConfig, rng: np.random.Generator) -> tuple[float, dict]:
    """Return (violation, extra-witness-data) for one sampled instance."""
    if prop == "A":
        res = check_associativity(family, instance["e"], instance["f"], instance["rho"])
        return res, {}
    e, rho = instance["e"], instance["rho"]
    if prop == "P1":
        t = sot.evaluate(family, e, rho).value
        return (t - t.dagger()).norm(), {}
    if prop == "P2":
        t = sot.evaluate(family, e, rho).value
        return block_positivity_violation(t, config.starts, rng)
    if prop == "P3":
        t = sot.evaluate(family, e, rho).value
        return max(0.0, -t.min_eigenvalue()), {}
    if prop in ("P4", "P6"):
        lam = instance.get("lambda", rng.uniform(0.2, 0.8))
        rho2 = instance.get("rho2") or sampling.random_state(rho.shape, rng)
        mix = lam * rho + (1.0 - lam) * rho2
        v4 = (sot.evaluate(family, e, mix).value
              - lam * sot.evaluate(family, e, rho).value
              - (1.0 - lam) * sot.evaluate(family, e, rho2).value).norm()
        if prop == "P4":
            return v4, {"lambda": lam, "rho2": rho2}
    if prop in ("P5", "P6"):
        lam = instance.get("lambda", rng.uniform(0.2, 0.8))
        e2 = instance.get("e2") or sampling.random_cptp(e.source, e.target, rng)
        mixed = LinearMap(e.source, e.target, lam * e.matrix + (1.0 - lam) * e2.matrix)
        v5 = (sot.evaluate(family, mixed, rho).value
              - lam * sot.evaluate(family, e, rho).value
              - (1.0 - lam) * sot.evaluate(family, e2, rho).value).norm()
        if prop == "P5":
            return v5, {"lambda": lam, "e2": e2}
        return max(v4, v5), {"lambda": lam, "rho2": rho2, "e2": e2}
    if prop == "P7":
        t = sot.evaluate(family, e, rho).value
        target = maps.channel_state(e) @ alg.tensor(rho, alg.identity(e.target))
        return (t - target).norm(), {}
    if prop == "M":
        res = sot.evaluate(family, e, rho).marginal_residuals()
        return max(res), {}
    raise InapplicableError(f"unknown property {prop}")


def _sample_for(family: sot.SotFamily, prop: str, trial: int,
                config: CertifyConfig, rng: np.random.Generator) -> dict:
    d = config.dims[0]
    if prop == "A":
        return _sample_associativity(family, d, rng)
    sa, sb = _shapes(family, trial, d)
    if prop == "P7":
        stream = sot.classical_limit_pairs(sa, sb, rng,
                                           nondegenerate_prior=family.compound)
        for _ in range(trial % 4):
            next(stream)
        e, rho = next(stream)
        return {"e": e, "rho": rho}
    return {"e": sampling.random_cptp(sa, sb, rng), "rho": sampling.random_state(sa, rng)}


def _perturb(instance: dict, scale: float, rng: np.random.Generator) -> dict:
    out = dict(instance)
    rho = instance["rho"]
    out["rho"] = (1.0 - scale) * rho + scale * sampling.random_state(rho.shape, rng)
    for key in ("e", "f"):
        if key in instance:
            m = instance[key]
            other = sampling.random_cptp(m.source, m.target, rng)
            out[key] = LinearMap(m.source, m.target,
                                 (1.0 - scale) * m.matrix + scale * other.matrix)
    return out


def replay_violation(family: sot.SotFamily, prop: str, counterexample: dict,
                     config: CertifyConfig | None = None) -> float:
    """Recompute the violation of a stored counterexample."""
    config = config or CertifyConfig()
    rng = np.random.default_rng(counterexample.get("replay_seed", 0))
    value, _ = _violation(family, prop, counterexample, config, rng)
    return value


# ----------------------------------------------------------------- certification
def certify(family: sot.SotFamily, prop: str,
            config: CertifyConfig | None = None) -> PropertyVerdict:
    """Randomized verdict for one family/property cell.

    Samples ``config.trials`` instances; a violation above the fail threshold
    (refined by local perturbation ascent when random search alone stays
    below it) yields a replayable ``fails`` verdict, and a clean sweep below
    the pass threshold yields ``holds``.
    """
    config = config or CertifyConfig()
    tag = family.tag
    if prop not in PROPERTIES:
        raise InapplicableError(f"unknown property {prop}")
    if config.trials <= 0:
        return PropertyVerdict(tag, prop, "insufficient", 0, config.seed)

    max_residual = 0.0
    best: tuple[float, dict, int] | None = None
    evaluated = 0
    for trial in range(config.trials):
        rng = _trial_rng(config.seed, tag, prop, trial)
        try:
            instance = _sample_for(family, prop, trial, config, rng)
            value, extra = _violation(family, prop, instance, config, rng)
        except (InapplicableError, ExtensionError, UnsupportedFamilyError):
            continue
        evaluated += 1
        max_residual = max(max_residual, value)
        if best is None or value > best[0]:
            witness = dict(instance)
            witness.update(extra)
            witness["replay_seed"] = [config.seed, _cell_index(tag, prop), trial]
            best = (value, witness, trial)
        if value > FAIL_THRESHOLD:
            break

    if evaluated == 0:
        return PropertyVerdict(tag, prop, "inapplicable", 0, config.seed)

    if best is not None and best[0] <= FAIL_THRESHOLD and best[0] > PASS_THRESHOLD:
        # Ambiguous: sharpen the best candidate by local perturbation ascent.
        value, witness, trial = best
        rng = _trial_rng(config.seed, tag, prop, config.trials + trial)
        instance = {k: witness[k] for k in ("e", "f", "rho") if k in witness}
        for step in range(config.ascent_steps):
            scale = 0.3 * (0.9 ** step)
            candidate = _perturb(instance, scale, rng)
            try:
                cand_value, extra = _violation(family, prop, candidate, config, rng)
            except (InapplicableError, ExtensionError, UnsupportedFamilyError):
                continue
            if cand_value > value:
                value, instance = cand_value, candidate
                witness = dict(candidate)
                witness.update(extra)
                witness["replay_seed"] = [config.seed, _cell_index(tag, prop),
                                          config.trials + trial]
            if value > FAIL_THRESHOLD:
                break
        best = (value, witness, trial)
        max_residual = max(max_residual, value)

    if best is not None and best[0] > FAIL_THRESHOLD:
        return PropertyVerdict(tag, prop, "fails", evaluated, config.seed,
                               max_residual=max_residual, violation=best[0],
                               counterexample=best[1])
    if max_residual < PASS_THRESHOLD:
        status = "holds"
        note = ""
        if prop == "P7" and family.compound:
            status, note = "holds-restricted", "verified on non-degenerate faithful priors only"
        return PropertyVerdict(tag, prop, status, evaluated, config.seed,
                               max_residual=max_residual, note=note)
    return PropertyVerdict(tag, prop, "undecided", evaluated, config.seed,
                           max_residual=max_residual)


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
        props = [p for p in TABLE_PROPERTIES
                 if all(p in row for row in self.verdicts.values())]
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
    """Certify every family × property cell and collect the matrix.

    The compound family's classical-limit cell runs on non-degenerate
    faithful priors only and reports "∗"; its associativity cell is recorded
    as an empirical observation with a "?" glyph.
    """
    config = config or CertifyConfig()
    families = families or sot.TABLE_FAMILIES
    verdicts: dict[str, dict[str, PropertyVerdict]] = {}
    for tag, family in families.items():
        row = {}
        for prop in properties:
            verdict = certify(family, prop, config)
            if prop == "A" and family.compound and \
                    verdict.status in ("holds", "fails"):
                observed = verdict.status
                verdict = PropertyVerdict(
                    verdict.family, prop, "empirical", verdict.trials,
                    verdict.seed, max_residual=verdict.max_residual,
                    violation=verdict.violation,
                    counterexample=verdict.counterexample,
                    note=f"open question; observed: {observed}")
            row[prop] = verdict
        verdicts[tag] = row
    return TableReport(verdicts, config)
