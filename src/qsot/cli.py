"""Command-line front end: evaluate states over time, solve Bayes maps, run
the certification table, and replay scenario documents.

Exit codes: 0 success, 2 validation failure, 3 parse failure, 4 numerical
failure (singularities, faithfulness, verification misses), 5 internal error.
Each ``QsotError`` class carries its code and stderr label (``qsot.errors``).
"""
from __future__ import annotations

import argparse
import os
import sys
from functools import cache

import numpy as np

from . import algebra as alg, axioms, bayes, io, maps, scenarios, sot
from .algebra import AlgebraElement
from .config import ATOL, PASS_THRESHOLD, SCENARIO_TOL
from .errors import (EXIT_INTERNAL, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                     ParseError, QsotError, SingularityError,
                     UnsupportedFamilyError, ValidationError)
from .maps import LinearMap

EXIT_PARSE = ParseError.exit_code  # so that cli.EXIT_* names every exit code


def _seed(arg: int | None) -> int:
    """The `certify` seed: `--seed`, else `QSOT_SEED`, else 0."""
    name, raw = (("--seed", str(arg)) if arg is not None
                 else ("QSOT_SEED", os.environ.get("QSOT_SEED", "0")))
    try:
        if (seed := int(raw)) >= 0:
            return seed
    except ValueError:
        pass
    raise ValidationError(f"{name} must be a non-negative integer, got {raw!r}")


def _family_from_args(args) -> sot.SotFamily:
    doc = {"tag": args.family}
    for key in ("t", "r", "s", "theta"):
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    return io.parse_family(doc)


def _typed(obj, kind: type, where: str):
    """``obj`` if it is a ``kind``, a map or an element; else a ValidationError."""
    if not isinstance(obj, kind):
        what = "a channel" if kind is LinearMap else "an element"
        raise ValidationError(f"{where} does not contain {what} document")
    return obj


def _sot_inputs(args) -> tuple[sot.SotFamily, LinearMap, AlgebraElement]:
    """The family, channel and state that `sot` and `bayes` act on."""
    return (_family_from_args(args),
            _typed(io.load(args.channel_file), LinearMap, args.channel_file),
            _typed(io.load(args.state_file), AlgebraElement, args.state_file))


def _emit(doc: dict, out_file: str | None) -> None:
    if out_file:
        io.dump(doc, out_file)
    else:
        io.write_json(doc, sys.stdout)


# ------------------------------------------------------------------ commands
def cmd_sot(args) -> int:
    family, channel, state = _sot_inputs(args)
    result = sot.evaluate(family, channel, state)
    res_a, res_b = result.marginal_residuals()
    doc = {"kind": "sot_result", "schema_version": io.SCHEMA_VERSION,
           "family": io.serialize_family(family),
           "value": io.serialize_element(result.value),
           "marginal_residuals": [res_a, res_b]}
    _emit(doc, args.out_file)
    print(f"state over time computed: marginal residuals "
          f"{res_a:.3e} / {res_b:.3e}", file=sys.stderr)
    return EXIT_OK


def cmd_bayes(args) -> int:
    family, channel, state = _sot_inputs(args)
    uniqueness = None
    try:
        solution_map = bayes.closed_form_bayes(family, channel, state,
                                               strict=args.strict)
    except UnsupportedFamilyError:
        generic = bayes.generic_bayes(family, channel, state)
        solution_map, uniqueness = generic.map, generic.uniqueness
    if not solution_map.is_tp:  # a numerical failure of the solver, not of the input
        raise SingularityError(f"the computed Bayes map is not trace-preserving "
                               f"(TP defect {solution_map.tp_defect():.2e})")
    residual = bayes.bayes_residual(family, solution_map, channel, state)
    classification = bayes.classify_solution(solution_map)
    doc = {"kind": "bayes_solution", "schema_version": io.SCHEMA_VERSION,
           "family": io.serialize_family(family),
           "map": io.serialize_map(solution_map, kind="map"),
           "residual": residual, "classification": classification}
    if uniqueness is not None:
        doc["uniqueness"] = uniqueness
    _emit(doc, args.out_file)
    if args.verify and not residual < PASS_THRESHOLD:
        print(f"verification failed: Bayes map residual {residual:.3e} >= "
              f"{PASS_THRESHOLD:.0e}, {classification}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"Bayes map: residual {residual:.3e}, {classification}", file=sys.stderr)
    return EXIT_OK


def cmd_certify(args) -> int:
    family_tags = (args.families.split(",") if args.families is not None
                   else list(sot.TABLE_FAMILIES))
    unknown = [t for t in family_tags if t not in sot.TABLE_FAMILIES]
    if unknown:
        raise ValidationError(f"unknown families: {', '.join(map(repr, unknown))}")
    properties = (tuple(args.properties.split(",")) if args.properties is not None
                  else axioms.TABLE_PROPERTIES)
    unknown = [p for p in properties if p not in axioms.PROPERTIES]
    if unknown:
        raise ValidationError(f"unknown properties: {', '.join(map(repr, unknown))}")
    families = {t: sot.TABLE_FAMILIES[t] for t in family_tags}
    config = axioms.CertifyConfig(trials=args.trials, seed=_seed(args.seed))
    report = axioms.table_report(config, families=families, properties=properties)
    mismatches = report.mismatches()
    if args.format == "json":
        doc = {"kind": "certify_report", "schema_version": io.SCHEMA_VERSION}
        doc.update(report.to_json())
        if args.expect_paper:
            doc["matches_expected"] = not mismatches
        _emit(doc, args.out_file)
    else:
        text = "\n".join([report.render_text()] + [
            f"  note [{fam} {prop}]: {verdict.note}"
            for fam, row in report.verdicts.items() for prop, verdict in row.items()
            if verdict.note])
        if args.out_file:
            io.write_text(text + "\n", args.out_file)
        else:
            print(text)
    if args.expect_paper:
        if mismatches:
            for fam, prop, want, got in mismatches:
                print(f"mismatch: {fam} {prop} expected {want} got {got}",
                      file=sys.stderr)
            return EXIT_VALIDATION
        print("verdict matrix matches the expected pattern", file=sys.stderr)
    return EXIT_OK


# ------------------------------------------------------------- scenario runs
def _parse_sub(doc: dict, key: str, kind: type = AlgebraElement):
    """The nested document at ``key``, which must parse to a ``kind``."""
    if key not in doc:
        raise ParseError(f"scenario document is missing {key!r}")
    return _typed(io.parse_document(doc[key]), kind, f"scenario field {key!r}")


def _scenario_pem(doc: dict) -> tuple[dict, bool]:
    prep = _parse_sub(doc, "prep", LinearMap)
    evo = _parse_sub(doc, "evo", LinearMap)
    meas = _parse_sub(doc, "meas", LinearMap)
    p = alg.diagonal_element(prep.source, io.parse_real(doc["p"], "p", listed=True))
    scenario = scenarios.PemScenario(p, prep, evo, meas)
    strict = doc.get("strict", True)
    if not isinstance(strict, bool):
        raise ParseError(f"strict must be a JSON boolean, got {strict!r}")
    _, residuals = scenarios.pem_reverse(scenario, strict=strict)
    ok = residuals["classical_inverse"] < ATOL and residuals["leifer_pairing"] < ATOL
    return {"scenario": "pem", "residuals": residuals}, ok


def _listed(doc: dict, key: str) -> list:
    if not isinstance(doc.get(key), list) or not doc[key]:
        raise ParseError(f"{key} must be a non-empty list, got {doc.get(key)!r}")
    return doc[key]


def _instrument_from_doc(doc: dict) -> scenarios.InstrumentScenario:
    sigma = _parse_sub(doc, "sigma")
    parts = tuple(_typed(io.parse_document(part), LinearMap, f"scenario field 'cp_parts[{i}]'")
                  for i, part in enumerate(_listed(doc, "cp_parts")))
    return scenarios.InstrumentScenario(sigma, parts)


def _scenario_state_update(doc: dict) -> tuple[dict, bool]:
    s = _instrument_from_doc(doc)
    family = io.parse_family(doc["family"]) if "family" in doc else None
    _, checks = scenarios.state_update(s, family)
    return ({"scenario": "state-update", "checks": checks},
            all(v < SCENARIO_TOL for v in checks.values()))


def _scenario_jeffrey(doc: dict) -> tuple[dict, bool]:
    s = _instrument_from_doc(doc)
    posterior = scenarios.jeffrey_update(s, io.parse_real(doc["r"], "r", listed=True))
    try:
        alg.assert_state(posterior)
        ok = True
    except QsotError:
        ok = False
    return ({"scenario": "jeffrey",
             "posterior": io.serialize_element(posterior, kind="state")}, ok)


def _scenario_two_state(doc: dict) -> tuple[dict, bool]:
    effects = [io.parse_matrix(m) for m in _listed(doc, "effects")]
    povm = maps.povm(effects)
    psi = np.array([io.parse_complex(v) for v in _listed(doc, "psi")])
    unitaries = None
    if "u10" in doc or "u21" in doc:
        dim = povm.source.dims[0]
        eye = np.eye(dim, dtype=complex)
        unitaries = (io.parse_matrix(doc["u10"]) if "u10" in doc else eye,
                     io.parse_matrix(doc["u21"]) if "u21" in doc else eye)
    entries = scenarios.two_state(psi, povm, unitaries)
    observable = io.parse_matrix(doc["observable"]) if "observable" in doc else None
    report = []
    ok = True
    for entry in entries:
        item: dict = {"outcome": str(entry.outcome),
                      "probability": entry.probability,
                      "defined": entry.defined}
        if entry.propagated_residual is not None:
            item["propagated_residual"] = entry.propagated_residual
            ok = ok and entry.propagated_residual < SCENARIO_TOL
        if entry.defined and observable is not None:
            item["weak_value"] = io.serialize_complex(entry.weak_value(observable))
        report.append(item)
    return {"scenario": "two-state", "entries": report}, ok


def _scenario_correlator(doc: dict) -> tuple[dict, bool]:
    rho = _parse_sub(doc, "rho")
    h = _parse_sub(doc, "h")
    a = _parse_sub(doc, "a")
    b = _parse_sub(doc, "b")
    t = io.parse_real(doc.get("t", 0.0), "t")
    direct = scenarios.two_time_correlator(rho, h, t, a, b)
    via_sot = scenarios.two_time_correlator(rho, h, t, a, b, via="sot")
    gap = abs(direct - via_sot)
    return ({"scenario": "correlator", "t": t,
             "direct": io.serialize_complex(direct),
             "via_sot": io.serialize_complex(via_sot),
             "difference": gap}, gap < SCENARIO_TOL)


def _scenario_linearization(doc: dict) -> tuple[dict, bool]:
    channel = _parse_sub(doc, "channel", LinearMap)
    direction = _parse_sub(doc, "direction")
    epsilons = (io.parse_real(_listed(doc, "epsilons"), "epsilons", listed=True)
                if "epsilons" in doc else [1e-2, 5e-3, 2.5e-3])
    report = scenarios.ls_linearization_check(channel, direction, epsilons)
    ok = all(3.5 <= r <= 4.5 for r in report.ratios)
    return ({"scenario": "ls-linearization", "epsilons": list(report.epsilons),
             "errors": list(report.errors), "ratios": list(report.ratios)}, ok)


_SCENARIOS = {"pem": _scenario_pem, "state-update": _scenario_state_update,
              "jeffrey": _scenario_jeffrey, "two-state": _scenario_two_state,
              "correlator": _scenario_correlator,
              "ls-linearization": _scenario_linearization}


def cmd_scenario(args) -> int:
    doc = io.load(args.input_file)
    if not isinstance(doc, dict) or doc.get("name") != args.name:
        raise ValidationError(
            f"{args.input_file} is not a {args.name!r} scenario document")
    try:
        report, ok = _SCENARIOS[args.name](doc)
    except KeyError as exc:
        raise ParseError(f"scenario document is missing field {exc}") from exc
    report["passed"] = ok
    _emit(report, args.out_file)
    print(f"scenario {args.name}: {'all checks passed' if ok else 'CHECKS FAILED'}",
          file=sys.stderr)
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------- entry point
@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``main`` picks the
    subcommand's ``cmd_*`` function when it is called."""
    parser = argparse.ArgumentParser(
        prog="qsot",
        description="states over time, time reversal, and quantum Bayes maps")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_options(p):
        p.add_argument("--family", required=True,
                       help="family tag (e.g. leifer-spekkens, rs, theta)")
        p.add_argument("--t", type=float, default=None, help="rotation parameter")
        p.add_argument("--r", type=float, default=None, help="(r,s) exponent")
        p.add_argument("--s", type=float, default=None, help="(r,s) mixing weight")
        p.add_argument("--theta", default=None,
                       help="state-rendering recipe: " + "|".join(sot.THETA_RECIPES))

    p_sot = sub.add_parser("sot", help="evaluate a state over time")
    add_family_options(p_sot)
    p_sot.add_argument("channel_file")
    p_sot.add_argument("state_file")
    p_sot.add_argument("out_file", nargs="?", default=None)

    p_bayes = sub.add_parser("bayes", help="solve for the Bayes map")
    add_family_options(p_bayes)
    p_bayes.add_argument("channel_file")
    p_bayes.add_argument("state_file")
    p_bayes.add_argument("out_file", nargs="?", default=None)
    p_bayes.add_argument("--verify", action="store_true",
                         help="exit nonzero unless the residual passes")
    p_bayes.add_argument("--strict", action="store_true",
                         help="refuse rank-deficient outputs instead of "
                              "using support pseudo-inverses")

    p_cert = sub.add_parser("certify", help="run the property certification table")
    p_cert.add_argument("--families", default=None,
                        help="comma-separated family tags (default: all)")
    p_cert.add_argument("--properties", default=None,
                        help="comma-separated properties (default: table set)")
    p_cert.add_argument("--trials", type=int, default=200)
    p_cert.add_argument("--seed", type=int, default=None,
                        help="trial seed (default: $QSOT_SEED, else 0)")
    p_cert.add_argument("--format", choices=("json", "table"), default="table")
    p_cert.add_argument("--expect-paper", action="store_true",
                        help="exit nonzero unless the matrix matches the "
                             "reference pattern")
    p_cert.add_argument("-o", "--out-file", default=None)

    p_scen = sub.add_parser("scenario", help="run a scenario document")
    p_scen.add_argument("name", choices=sorted(_SCENARIOS))
    p_scen.add_argument("input_file")
    p_scen.add_argument("-o", "--out-file", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # A document's numbers may overflow: the inf or NaN that results fails a
    # NaN-safe check with one stderr line, and numpy adds none.  certify reads
    # no document and keeps numpy's warnings, which -W error turns into failures.
    quiet = {} if args.command == "certify" else {"all": "ignore"}
    # the cmd_* functions as the module holds them now (tests replace them)
    command = {"sot": cmd_sot, "bayes": cmd_bayes, "certify": cmd_certify,
               "scenario": cmd_scenario}[args.command]
    try:
        with np.errstate(**quiet):
            return command(args)
    except QsotError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
