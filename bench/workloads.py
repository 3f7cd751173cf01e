"""The benchmark's workloads.

A workload turns a seed into inputs (``generate``), warms the code paths it
times (``warmup``) and lists its ops: one op is one table cell, one solve
plus its verification, one generic solve, or one CLI command.  ``Op.run``
is the timed library work; ``Op.check`` verifies its result afterwards,
outside the timed region, and returns a failure reason or ``None``.

Every workload is a closed loop with a single caller: the harness issues
one op after another from one process.
"""
from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qsot import algebra as alg, axioms, bayes, cli, io, maps, sampling, sot
from qsot.algebra import AlgebraElement, AlgebraShape
from qsot.config import FAIL_THRESHOLD, PASS_THRESHOLD
from qsot.maps import LinearMap

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # Ops on deliberately ill-conditioned inputs: a failure there is counted
    # and reported like any other, but does not make the run incorrect.
    stress: bool = False


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, size: str = "full", workdir: str | None = None):
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}")
        self.seed, self.size, self.workdir = seed, size, workdir

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def generate(self) -> None:
        """Build every input from the seed; the harness times this as set-up."""

    def warmup(self) -> None:
        """Run each code path once on small inputs before anything is timed."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever the workload wrote."""


# ------------------------------------------------------------------ cert-table
class CertTable(Workload):
    name = "cert-table"
    why = ("the acceptance-gate certification table (8 families x 7 properties, "
           "d=2, 200 trials): per-object Python overhead in axioms, sampling, sot "
           "and algebra")

    def generate(self):
        trials = 200 if self.size == "full" else 3
        self.config = axioms.CertifyConfig(trials=trials, seed=self.seed)
        self.cells = [(tag, family, prop)
                      for tag, family in sot.TABLE_FAMILIES.items()
                      for prop in axioms.TABLE_PROPERTIES]

    def warmup(self):
        axioms.table_report(axioms.CertifyConfig(trials=1, seed=self.seed + 1))

    def ops(self):
        return [Op(f"{tag}:{prop}", self._cell(tag, family, prop),
                   self._check(tag, prop))
                for tag, family, prop in self.cells]

    def _cell(self, tag, family, prop):
        config = self.config

        def run():
            report = axioms.table_report(config, families={tag: family},
                                         properties=(prop,))
            verdict = report.verdicts[tag][prop]
            replayed = None
            if verdict.status == "fails":
                replayed = axioms.replay_violation(
                    family, prop, verdict.counterexample, config)
            return verdict, replayed
        return run

    @staticmethod
    def _check(tag, prop):
        def check(result):
            verdict, replayed = result
            want = axioms.EXPECTED_TABLE[tag][prop]
            if verdict.glyph != want:
                return f"glyph {verdict.glyph} where {want} is expected"
            if verdict.status == "fails" and not (
                    verdict.violation > FAIL_THRESHOLD and replayed > FAIL_THRESHOLD):
                return f"witness replays at {replayed}, not above {FAIL_THRESHOLD}"
            return None
        return check


# ----------------------------------------------------------------- bayes-large
CLOSED_FORM_FAMILIES = (
    sot.LeiferSpekkens(), sot.TRotated(0.3), sot.STH(0.3), sot.SymmetricBloom(),
    sot.RightBloom(), sot.LeftBloom(), sot.RSFamily(0.3, 0.7))


def _shapes(d: int, blocky: bool) -> tuple[AlgebraShape, AlgebraShape]:
    if blocky:
        return (AlgebraShape((("a0", d), ("a1", 2))),
                AlgebraShape((("b0", d), ("b1", 2))))
    return AlgebraShape((("a", d),)), AlgebraShape((("b", d),))


def _instance(source: AlgebraShape, target: AlgebraShape,
              rng: np.random.Generator, rho: AlgebraElement | None = None) -> tuple:
    """A random channel and prior, kept as raw arrays so that every op builds
    fresh library objects and no per-object cache carries across passes."""
    e = sampling.random_cptp(source, target, rng)
    rho = rho if rho is not None else sampling.random_state(source, rng)
    return source, target, np.array(e.matrix), tuple(np.array(b) for b in rho.data)


def _build(inst: tuple) -> tuple[LinearMap, AlgebraElement]:
    source, target, matrix, blocks = inst
    return LinearMap(source, target, matrix), AlgebraElement(source, blocks)


def near_singular_prior(d: int, rng: np.random.Generator, tiny: float = 1e-9) -> AlgebraElement:
    """A prior on M_d whose d-1 smallest eigenvalues are ``tiny``."""
    u = sampling.random_unitary(rng, d)
    vals = np.full(d, tiny)
    vals[0] = 1.0 - (d - 1) * tiny
    return AlgebraElement(AlgebraShape((("a", d),)), ((u * vals) @ u.conj().T,))


class BayesLarge(Workload):
    name = "bayes-large"
    why = ("closed-form Bayes maps of the 7 closed-form families at block dims "
           "12-24 plus near-singular d=4 priors: dense linear algebra in bayes "
           "and maps")
    NEAR_SINGULAR_PER_FAMILY = 2
    # The near-singular panel is drawn from this fixed key, not from the
    # seed: how many of its solves fail is then a property of the code alone,
    # the same for every seed, and a change in it shows in ``failed``.
    NEAR_SINGULAR_KEY = 2212

    def generate(self):
        dims = (12, 16, 20, 24) if self.size == "full" else (3, 4)
        self.dims = dims
        self.instances = {}
        for i, d in enumerate(dims):
            for blocky in (False, True):
                self.instances[d, blocky] = _instance(*_shapes(d, blocky),
                                                      self.rng(1, i, blocky))
        self.near_singular = []
        for k in range(len(CLOSED_FORM_FAMILIES) * self.NEAR_SINGULAR_PER_FAMILY):
            rng = np.random.default_rng([self.NEAR_SINGULAR_KEY, k])
            rho = near_singular_prior(4, rng)
            self.near_singular.append(_instance(rho.shape, AlgebraShape((("b", 4),)),
                                                rng, rho))

    def warmup(self):
        inst = _instance(*_shapes(3, True), self.rng(3))
        for family in CLOSED_FORM_FAMILIES:
            self._solve(family, inst)()

    def plan(self, index: int) -> list[tuple[int, bool]]:
        """(dim, blocky) pairs for the family at ``index``: both shapes at the
        two smaller dims, one shape (alternating by family) at the larger."""
        small, large = self.dims[:len(self.dims) // 2], self.dims[len(self.dims) // 2:]
        pairs = [(d, blocky) for d in small for blocky in (False, True)]
        pairs += [(d, (index + j) % 2 == 1) for j, d in enumerate(large)]
        return pairs

    def ops(self):
        out = []
        for i, family in enumerate(CLOSED_FORM_FAMILIES):
            for d, blocky in self.plan(i):
                out.append(Op(f"{family.tag}:d{d}:{'blocky' if blocky else 'single'}",
                              self._solve(family, self.instances[d, blocky]),
                              _check_bayes))
            for k in range(self.NEAR_SINGULAR_PER_FAMILY):
                inst = self.near_singular[i * self.NEAR_SINGULAR_PER_FAMILY + k]
                out.append(Op(f"{family.tag}:d4:near-singular:{k}",
                              self._solve(family, inst), _check_bayes, stress=True))
        return out

    @staticmethod
    def _solve(family, inst):
        def run():
            e, rho = _build(inst)
            x = bayes.closed_form_bayes(family, e, rho)
            return bayes.bayes_residual(family, x, e, rho), x.is_tp
        return run


def _check_bayes(result):
    residual, tp = result
    if not residual < PASS_THRESHOLD:
        return f"Bayes residual {residual:.3e} >= {PASS_THRESHOLD:.0e}"
    if not tp:
        return "Bayes map is not trace-preserving"
    return None


# -------------------------------------------------------------- generic-oracle
# (family, expected uniqueness verdict, closed form or None)
GENERIC_CASES = (
    (sot.LeiferSpekkens(), "unique", bayes.petz),
    (sot.SymmetricBloom(), "unique", bayes.symmetric_bloom_bayes),
    (sot.Uncorrelated(), "non-unique-witness", None),
)
# Agreement of the generic least-squares solution with the closed form: the
# bound the acceptance gate uses at d=2, applied here up to d=5.
AGREEMENT_TOL = 1e-8


class GenericOracle(Workload):
    name = "generic-oracle"
    why = ("generic_bayes at d=3,4,5 for Leifer-Spekkens, symmetric-bloom and "
           "the non-unique uncorrelated family: n_A*n_B SOT evaluations on one sigma")

    def generate(self):
        counts = ((3, 4), (4, 4), (5, 2)) if self.size == "full" else ((2, 2), (3, 1))
        self.instances = []
        for f, _ in enumerate(GENERIC_CASES):
            for d, count in counts:
                for k in range(count):
                    shape_a, shape_b = _shapes(d, False)
                    self.instances.append((f, d, k, _instance(shape_a, shape_b,
                                                              self.rng(1, f, d, k))))

    def warmup(self):
        inst = _instance(*_shapes(2, False), self.rng(3))
        for f, _ in enumerate(GENERIC_CASES):
            self._op(f, 2, 0, inst).run()

    def ops(self):
        return [self._op(f, d, k, inst) for f, d, k, inst in self.instances]

    @staticmethod
    def _op(f, d, k, inst):
        family, uniqueness, closed_form = GENERIC_CASES[f]

        def run():
            e, rho = _build(inst)
            return bayes.generic_bayes(family, e, rho)

        def check(solution):
            if not solution.residual < PASS_THRESHOLD:
                return f"residual {solution.residual:.3e} >= {PASS_THRESHOLD:.0e}"
            if solution.uniqueness != uniqueness:
                return f"uniqueness {solution.uniqueness}, expected {uniqueness}"
            e, rho = _build(inst)
            if closed_form is not None:
                gap = float(np.max(np.abs(solution.map.matrix - closed_form(e, rho).matrix)))
                if not gap < AGREEMENT_TOL:
                    return f"differs from the closed form by {gap:.3e}"
            else:
                alt = solution.witnesses[0]
                if not np.max(np.abs(alt.matrix - solution.map.matrix)) > 1e-6:
                    return "non-uniqueness witness equals the solution"
                if not bayes.bayes_residual(family, alt, e, rho) < 1e-6:
                    return "non-uniqueness witness does not solve the condition"
            return None

        return Op(f"{family.tag}:d{d}:{k}", run, check)


# -------------------------------------------------------------------- cli-docs
def _schema_validator(name: str):
    """A validator for a shipped schema.  The schemas' ``$id`` and ``$ref``
    values are relative ("qsot/defs.schema.json") and so resolve to nested
    URIs such as "qsot/qsot/defs.schema.json"; every reference is therefore
    looked up by its file name among the shipped schemas."""
    import jsonschema
    from referencing import Registry, Resource

    def retrieve(uri: str) -> Resource:
        schema = uri.rsplit("/", 1)[-1].removesuffix(".schema.json")
        return Resource.from_contents(io.load_schema(schema))

    return jsonschema.Draft202012Validator(io.load_schema(name),
                                           registry=Registry(retrieve=retrieve))


def _scenario_docs(d: int, rng: np.random.Generator) -> dict[str, dict]:
    shape = alg.matrix_algebra(d)
    outcomes = 3
    # prepare-evolve-measure with classical ends
    prep = maps.ensemble([sampling.random_state(shape, rng) for _ in range(outcomes)])
    evo = sampling.random_cptp(shape, alg.matrix_algebra(d, "q1"), rng)
    meas = sampling.random_povm(evo.target, outcomes, rng)
    pem = {"p": [float(v) for v in rng.dirichlet(np.ones(outcomes))],
           "prep": io.serialize_map(prep), "evo": io.serialize_map(evo),
           "meas": io.serialize_map(meas)}
    # an instrument split into its CP outcome parts
    channel = sampling.random_cptp(shape, shape.tensor(alg.classical_algebra(2)), rng)
    parts = []
    for label in channel.target.labels:
        def part(x, label=label):
            return AlgebraElement(shape, (channel(x).block(label),))
        parts.append(io.serialize_map(maps.from_action(shape, shape, part)))
    update = {"sigma": io.serialize_element(sampling.random_state(shape, rng), "state"),
              "cp_parts": parts}
    correlator = {"t": float(rng.uniform(0.1, 1.0)),
                  "rho": io.serialize_element(sampling.random_state(shape, rng), "state"),
                  "h": io.serialize_element(sampling.random_hermitian(shape, rng)),
                  "a": io.serialize_element(sampling.random_hermitian(shape, rng)),
                  "b": io.serialize_element(sampling.random_hermitian(shape, rng))}
    basis = sampling.random_unitary(rng, d)
    two_state = {"psi": [io.serialize_complex(z) for z in sampling.ginibre(rng, d, 1)[:, 0]],
                 "effects": [io.serialize_matrix(np.outer(basis[:, k], basis[:, k].conj()))
                             for k in range(d)],
                 "u10": io.serialize_matrix(sampling.random_unitary(rng, d)),
                 "u21": io.serialize_matrix(sampling.random_unitary(rng, d)),
                 "observable": io.serialize_matrix(
                     sampling.random_hermitian(shape, rng).data[0])}
    docs = {"pem": pem, "state-update": update, "correlator": correlator,
            "two-state": two_state}
    return {name: {"kind": "scenario", "name": name, "schema_version": 1, **doc}
            for name, doc in docs.items()}


def _family_args(family) -> list[str]:
    """CLI flags that select ``family``."""
    doc = io.serialize_family(family)
    args = ["--family", doc["tag"]]
    for key in ("t", "r", "s", "theta"):
        if key in doc:
            args += [f"--{key}", str(doc[key])]
    return args


class CliDocs(Workload):
    name = "cli-docs"
    why = ("in-process cli.main for sot, bayes --verify and four scenarios on "
           "JSON documents at d=2,6,12: the only workload through io, cli and "
           "scenarios")
    SOT_FAMILIES = (sot.LeiferSpekkens(), sot.RSFamily(0.3, 0.7))
    BAYES_FAMILIES = (sot.TRotated(0.3), sot.ThetaDerived(bayes.theta_jordan()))
    SCENARIOS = ("pem", "state-update", "correlator", "two-state")

    def generate(self):
        if self.workdir is None:
            raise ValueError("cli-docs needs a work directory")
        self.dims = (2, 6, 12) if self.size == "full" else (2,)
        self._verified: dict[str, bytes] = {}
        self._validators: dict = {}
        shutil.rmtree(self.workdir, ignore_errors=True)
        for i, d in enumerate(self.dims):
            os.makedirs(self._dir(d))
            rng = self.rng(1, i)
            e = sampling.random_cptp(alg.matrix_algebra(d, "a"),
                                     alg.matrix_algebra(d, "b"), rng)
            rho = sampling.random_state(e.source, rng)
            io.dump(io.serialize_map(e), self._path(d, "channel"))
            io.dump(io.serialize_element(rho, kind="state"), self._path(d, "state"))
            for name, doc in _scenario_docs(d, rng).items():
                io.dump(doc, self._path(d, name))

    def _dir(self, d: int) -> str:
        return os.path.join(self.workdir, f"d{d}")

    def _path(self, d: int, name: str) -> str:
        return os.path.join(self._dir(d), f"{name}.json")

    def warmup(self):
        for op in self.ops():
            if op.label.endswith(":d2"):
                op.run()

    def ops(self):
        out = []
        for d in self.dims:
            channel, state = self._path(d, "channel"), self._path(d, "state")
            for family in self.SOT_FAMILIES:
                dest = self._path(d, f"out-sot-{family.tag}")
                out.append(self._op(f"sot:{family.tag}:d{d}",
                                    ["sot", *_family_args(family), channel, state, dest],
                                    dest, self._check_sot(family, channel, state)))
            for family in self.BAYES_FAMILIES:
                dest = self._path(d, f"out-bayes-{family.tag}")
                out.append(self._op(f"bayes:{family.tag}:d{d}",
                                    ["bayes", *_family_args(family), "--verify",
                                     channel, state, dest],
                                    dest, self._check_bayes()))
            for name in self.SCENARIOS:
                dest = self._path(d, f"out-{name}")
                out.append(self._op(f"scenario:{name}:d{d}",
                                    ["scenario", name, self._path(d, name), "-o", dest],
                                    dest, self._check_scenario(name)))
        return out

    def _op(self, label, argv, dest, check_output):
        def run():
            with contextlib.redirect_stderr(_stdio.StringIO()) as err:
                code = cli.main(argv)
            return code, err.getvalue()

        def check(result):
            code, err = result
            if code != cli.EXIT_OK:
                return f"exit code {code}: {err.strip()[-200:]}"
            with open(dest, "rb") as fh:
                data = fh.read()
            # A full check walks every matrix entry; an output byte-identical
            # to one already verified in this run needs no second one.
            digest = hashlib.sha256(data).digest()
            if self._verified.get(dest) == digest:
                return None
            reason = check_output(json.loads(data))
            if reason is None:
                self._verified[dest] = digest
            return reason

        return Op(label, run, check)

    def _schema_errors(self, schema: str, doc: dict) -> str | None:
        if schema not in self._validators:
            self._validators[schema] = _schema_validator(schema)
        error = next(self._validators[schema].iter_errors(doc), None)
        return None if error is None else f"{schema} schema: {error.message}"

    def _check_sot(self, family, channel_path, state_path):
        def check(doc):
            error = self._schema_errors("sot_result", doc)
            if error:
                return error
            value = io.parse_document(doc["value"])
            want = sot.evaluate(family, io.load(channel_path), io.load(state_path)).value
            gap = float(np.max(np.abs(np.concatenate(
                [(a - b).ravel() for a, b in zip(value.data, want.data)]))))
            if not gap <= 1e-12:
                return f"parsed value differs from direct evaluation by {gap:.3e}"
            return None
        return check

    def _check_bayes(self):
        def check(doc):
            error = self._schema_errors("bayes_solution", doc)
            if error:
                return error
            if not isinstance(io.parse_document(doc["map"]), LinearMap):
                return "map does not parse back as a map"
            if not doc["residual"] < PASS_THRESHOLD:
                return f"reported residual {doc['residual']:.3e}"
            return None
        return check

    @staticmethod
    def _check_scenario(name):
        def check(doc):
            if doc.get("passed") is not True:
                return f"scenario {name} reports failed checks"
            if name == "correlator":
                io.parse_complex(doc["direct"])
                io.parse_complex(doc["via_sot"])
            return None
        return check

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CertTable, BayesLarge, GenericOracle, CliDocs)}
