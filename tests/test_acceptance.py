"""Acceptance gate: twelve end-to-end criteria at desk scale (block dims <= 4,
fixed seeds).  Each test prints a one-line pass summary with the worst
residual it observed."""
import time

import numpy as np
import pytest

from qsot import algebra as alg, axioms, bayes, maps, sampling, scenarios, sot
from qsot.algebra import AlgebraElement, AlgebraShape
from qsot.maps import LinearMap

from conftest import (dense_embedding, dense_gce, dense_multiplier, fuchs_posterior,
                      random_traceless_direction)

SEED = 0

CLOSED_FORM_FAMILIES = (
    sot.LeiferSpekkens(), sot.TRotated(0.3), sot.STH(0.3),
    sot.SymmetricBloom(), sot.RightBloom(), sot.LeftBloom(),
    sot.RSFamily(0.2, 0.4), sot.RSFamily(0.3, 0.7), sot.RSFamily(0.8, 0.1),
)


def _rng(tag: int) -> np.random.Generator:
    return np.random.default_rng([SEED, tag])


def _qd_pair(rng, dim_a, dim_b):
    e = sampling.random_cptp(alg.matrix_algebra(dim_a, "a"),
                             alg.matrix_algebra(dim_b, "b"), rng)
    rho = sampling.random_state(e.source, rng)
    return e, rho


def _report(name: str, detail: str):
    print(f"[acceptance] {name}: PASS ({detail})")


# 1 ------------------------------------------------------------------------
def test_01_certification_table_reproduction():
    config = axioms.CertifyConfig(trials=200, seed=SEED)
    start = time.time()
    report = axioms.table_report(config)
    elapsed = time.time() - start
    assert elapsed < 120.0, f"table took {elapsed:.1f}s"
    assert report.mismatches() == [], report.mismatches()
    replays = 0
    for fam_tag, row in report.verdicts.items():
        for prop, verdict in row.items():
            if verdict.status != "fails":
                continue
            assert verdict.violation is not None and verdict.violation > 1e-6, \
                (fam_tag, prop, verdict.violation)
            replayed = axioms.replay_violation(
                sot.TABLE_FAMILIES[fam_tag], prop, verdict.counterexample, config)
            assert replayed == verdict.violation, (fam_tag, prop, replayed)
            replays += 1
    _report("table reproduction",
            f"{elapsed:.1f}s, all cells as expected, {replays} witnesses replayed")


# 2 ------------------------------------------------------------------------
def test_02_classical_recovery():
    rng = _rng(2)
    worst = 0.0
    for trial in range(100):
        nx = int(rng.integers(2, 6))
        ny = int(rng.integers(2, 6))
        f = rng.dirichlet(np.ones(ny), size=nx).T  # columns sum to 1
        p = rng.dirichlet(np.ones(nx))
        q = f @ p
        g = (f.T * p[:, None]) / q[None, :]
        e = maps.classical_channel(f)
        rho = alg.classical_state(list(p))
        g_map = maps.classical_channel(g, source_prefix="y", target_prefix="x")
        for family in CLOSED_FORM_FAMILIES:
            x = bayes.closed_form_bayes(family, e, rho)
            worst = max(worst, float(np.max(np.abs(x.matrix - g_map.matrix))))
        # the product family admits the same classical inverse as a solution
        worst = max(worst, bayes.bayes_residual(sot.Uncorrelated(), g_map, e, rho))
    assert worst < 1e-12, worst
    _report("classical recovery", f"100 pairs, max deviation {worst:.2e}")


# 3 ------------------------------------------------------------------------
def test_03_bistochastic_theorem():
    rng = _rng(3)
    worst = 0.0
    for trial in range(100):
        dim = 2 + trial % 2
        shape = alg.matrix_algebra(dim)
        e = sampling.random_unital_channel(shape, rng)
        rho = (1.0 / dim) * alg.identity(shape)
        adjoint = e.hs_adjoint()
        for family in CLOSED_FORM_FAMILIES:
            x = bayes.closed_form_bayes(family, e, rho)
            worst = max(worst, float(np.max(np.abs(x.matrix - adjoint.matrix))))
    assert worst < 1e-10, worst
    _report("bistochastic theorem", f"100 channels, max deviation {worst:.2e}")


# 4 ------------------------------------------------------------------------
def test_04_petz_suite():
    rng = _rng(4)
    worst = {"formula": 0.0, "residual": 0.0, "recovery": 0.0, "compose": 0.0}
    for trial in range(100):
        dim = 2 + trial % 2
        e, rho = _qd_pair(rng, dim, dim)
        x = bayes.closed_form_bayes(sot.LeiferSpekkens(), e, rho)
        worst["formula"] = max(worst["formula"], float(np.max(np.abs(
            x.matrix - bayes.petz(e, rho).matrix))))
        worst["residual"] = max(worst["residual"],
                                bayes.bayes_residual(sot.LeiferSpekkens(), x, e, rho))
        worst["recovery"] = max(worst["recovery"], (x(e(rho)) - rho).norm())
        f = sampling.random_cptp(e.target, alg.matrix_algebra(dim, "c"), rng)
        composed = bayes.petz(f.compose(e), rho)
        chained = bayes.petz(e, rho).compose(bayes.petz(f, e(rho)))
        worst["compose"] = max(worst["compose"], float(np.max(np.abs(
            composed.matrix - chained.matrix))))
    assert worst["formula"] < 1e-12
    assert worst["residual"] < 1e-10, worst
    assert worst["recovery"] < 1e-10, worst
    assert worst["compose"] < 1e-9, worst
    _report("Petz suite", f"100 trials, residual {worst['residual']:.2e}, "
            f"recovery {worst['recovery']:.2e}, composition {worst['compose']:.2e}")


# 5 ------------------------------------------------------------------------
def test_05_generic_vs_closed_form():
    rng = _rng(5)
    worst = 0.0
    for family in CLOSED_FORM_FAMILIES:
        for trial in range(50):
            e, rho = _qd_pair(rng, 2, 2)
            closed = bayes.closed_form_bayes(family, e, rho)
            generic = bayes.generic_bayes(family, e, rho)
            assert generic.uniqueness == "unique", (family.tag, trial)
            worst = max(worst, float(np.max(np.abs(
                generic.map.matrix - closed.matrix))))
    assert worst < 1e-8, worst
    for trial in range(50):
        e, rho = _qd_pair(rng, 2, 2)
        solution = bayes.generic_bayes(sot.Uncorrelated(), e, rho)
        assert solution.uniqueness == "non-unique-witness"
        assert solution.residual < 1e-8
        alt = solution.witnesses[0]
        assert np.max(np.abs(alt.matrix - solution.map.matrix)) > 1e-6
        assert bayes.bayes_residual(sot.Uncorrelated(), alt, e, rho) < 1e-6
    _report("generic vs closed form",
            f"{len(CLOSED_FORM_FAMILIES)}x50 unique matches (max {worst:.2e}), "
            "50 non-unique product-family instances with two solutions")


# 6 ------------------------------------------------------------------------
def test_06_gce_equivalence():
    rng = _rng(6)
    theta_pairs = (
        (sot.ThetaDerived(sot.LeiferSpekkens()), lambda e, r: bayes.petz(e, r)),
        (sot.ThetaDerived(sot.SymmetricBloom()),
         lambda e, r: bayes.symmetric_bloom_bayes(e, r)),
        (sot.ThetaDerived(sot.RightBloom()), lambda e, r: bayes.bloom_bayes("right", e, r)),
        (sot.ThetaDerived(sot.LeftBloom()), lambda e, r: bayes.bloom_bayes("left", e, r)),
        (sot.ThetaDerived(sot.RSFamily(0.3, 0.7)),
         lambda e, r: bayes.rs_bayes(0.3, 0.7, e, r)),
    )
    worst = 0.0
    for theta, closed in theta_pairs:
        for trial in range(50):
            e, rho = _qd_pair(rng, 2, 2)
            got = dense_gce(theta, e, rho)
            worst = max(worst, float(np.max(np.abs(
                got.matrix - closed(e, rho).matrix))))
    assert worst < 1e-9, worst
    worst_inv = 0.0
    for trial in range(20):
        dim = 2 + trial % 2
        shape = alg.matrix_algebra(dim)
        u = sampling.random_unitary_element(shape, rng)
        e = maps.unitary_channel(u)
        inverse = maps.unitary_channel(u.dagger())
        rho = sampling.random_state(shape, rng)
        for theta, _ in theta_pairs:
            got = dense_gce(theta, e, rho)
            worst_inv = max(worst_inv, float(np.max(np.abs(
                got.matrix - inverse.matrix))))
    assert worst_inv < 1e-10, worst_inv
    _report("conditional-expectation equivalence",
            f"5x50 recipe matches (max {worst:.2e}), "
            f"20 unitary inversions (max {worst_inv:.2e})")


# 7 ------------------------------------------------------------------------
def _random_instrument(rng, dim, outcomes):
    shape = alg.matrix_algebra(dim)
    channel = sampling.random_cptp(
        shape, shape.tensor(alg.classical_algebra(outcomes)), rng)
    parts = []
    for k in range(outcomes):
        label = channel.target.labels[k]

        def part(x, label=label):
            return AlgebraElement(shape, (channel(x).block(label),))

        parts.append(maps.from_action(shape, shape, part))
    return scenarios.InstrumentScenario(sampling.random_state(shape, rng),
                                        tuple(parts))


def test_07_state_update_theorem():
    rng = _rng(7)
    worst = 0.0
    for trial in range(50):
        dim = 2 + trial % 2
        outcomes = 2 + trial % 2
        s = _random_instrument(rng, dim, outcomes)
        _, checks = scenarios.state_update(s)
        worst = max(worst, max(checks.values()))
    assert worst < 1e-10, worst
    _report("state-update theorem", f"50 instruments, worst check {worst:.2e}")


# 8 ------------------------------------------------------------------------
def test_08_weak_values():
    rng = _rng(8)
    worst = 0.0
    worst_prop = 0.0
    for trial in range(100):
        dim = 2 + trial % 2
        shape = alg.matrix_algebra(dim)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        phi /= np.linalg.norm(phi)
        a = sampling.random_hermitian(shape, rng).data[0]
        povm = maps.povm([np.outer(phi, phi.conj()),
                          np.eye(dim) - np.outer(phi, phi.conj())])
        unitaries = (sampling.random_unitary(rng, dim),
                     sampling.random_unitary(rng, dim))
        for us in (None, unitaries):
            entries = scenarios.two_state(psi, povm, us)
            entry = entries[0]
            u20 = np.eye(dim) if us is None else us[1] @ us[0]
            phi_eff = u20.conj().T @ phi  # effect pulled back to t0
            overlap = psi.conj() @ phi_eff
            if abs(overlap) ** 2 < 1e-9:
                continue
            assert entry.defined
            want = (psi.conj() @ (u20.conj().T @ a @ u20) @ phi_eff) / overlap
            worst = max(worst, abs(entry.weak_value(
                u20.conj().T @ a @ u20) - want))
            assert entry.propagated_residual is not None
            worst_prop = max(worst_prop, entry.propagated_residual)
    assert worst < 1e-10, worst
    assert worst_prop < 1e-10, worst_prop
    _report("weak values", f"100 triples, value deviation {worst:.2e}, "
            f"propagated residual {worst_prop:.2e}")


# 9 ------------------------------------------------------------------------
def test_09_correlator_identity():
    rng = _rng(9)
    worst = 0.0
    for trial in range(100):
        dim = 2 + trial % 2
        shape = alg.matrix_algebra(dim)
        rho = sampling.random_state(shape, rng)
        h = sampling.random_hermitian(shape, rng)
        a = sampling.random_hermitian(shape, rng)
        b = sampling.random_hermitian(shape, rng)
        t = float(rng.normal())
        vals, vecs = np.linalg.eigh(h.data[0])
        u = (vecs * np.exp(1j * t * vals)) @ vecs.conj().T
        dense = np.trace(u @ b.data[0] @ u.conj().T @ a.data[0] @ rho.data[0])
        via_sot = scenarios.two_time_correlator(rho, h, t, a, b, via="sot")
        worst = max(worst, abs(via_sot - dense))
    assert worst < 1e-10, worst
    _report("correlator identity", f"100 instances, max deviation {worst:.2e}")


# 10 -----------------------------------------------------------------------
def test_10_ls_linearization():
    rng = _rng(10)
    epsilons = (1e-2, 5e-3, 2.5e-3)
    ratios = []
    for trial in range(20):
        shape = alg.matrix_algebra(3)
        e = sampling.random_cptp(shape, alg.matrix_algebra(3, "b"), rng)
        a = random_traceless_direction(shape, rng)
        report = scenarios.ls_linearization_check(e, a, epsilons)
        ratios.extend(report.ratios)
        for ratio in report.ratios:
            assert 3.5 <= ratio <= 4.5, (trial, report.ratios)
    _report("square-root linearization",
            f"20 instances x {len(epsilons)} steps, ratios in "
            f"[{min(ratios):.2f}, {max(ratios):.2f}]")


# 11 -----------------------------------------------------------------------
def _random_linear_map(source, target, rng):
    matrix = (rng.normal(size=(target.vector_dim, source.vector_dim))
              + 1j * rng.normal(size=(target.vector_dim, source.vector_dim)))
    return LinearMap(source, target, matrix)


def test_11_channel_state_lemmas():
    rng = _rng(11)
    tol = 1e-11
    worst = {"rearrange": 0.0, "swap_cp": 0.0, "swap_general": 0.0,
             "sandwich": 0.0, "decompose": 0.0}
    for trial in range(100):
        # matrix-unit rearrangement: sum_ij E_ij (x) C E_ji B equals
        # sum_kl B E_kl C (x) E_lk for rectangular B (m x n), C (n x m)
        m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        b = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        c = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        lhs = sum(np.kron(np.eye(m)[:, [i]] @ np.eye(m)[[j], :],
                          c @ np.outer(np.eye(m)[j], np.eye(m)[i]) @ b)
                  for i in range(m) for j in range(m))
        rhs = sum(np.kron(b @ np.outer(np.eye(n)[k], np.eye(n)[l]) @ c,
                          np.eye(n)[:, [l]] @ np.eye(n)[[k], :])
                  for k in range(n) for l in range(n))
        worst["rearrange"] = max(worst["rearrange"], float(np.max(np.abs(lhs - rhs))))

        source = (alg.matrix_algebra(2, "a") if trial % 2 == 0
                  else AlgebraShape([("a", 2), ("x", 1)]))
        target = (alg.matrix_algebra(2, "b") if trial % 2 == 0
                  else AlgebraShape([("b", 2), ("y", 1)]))
        e_cp = sampling.random_cptp(source, target, rng)
        swapped = maps.swap_gamma(maps.channel_state(e_cp))
        worst["swap_cp"] = max(worst["swap_cp"], (
            swapped - maps.channel_state(e_cp.hs_adjoint())).norm())

        e_lin = _random_linear_map(source, target, rng)
        swapped = maps.swap_gamma(maps.channel_state(e_lin))
        want = maps.channel_state(e_lin.hs_adjoint()).dagger()
        worst["swap_general"] = max(worst["swap_general"], (swapped - want).norm())

        a_el = sampling.random_hermitian(source, rng)
        a2_el = sampling.random_hermitian(source, rng)
        b_el = sampling.random_hermitian(target, rng)
        b2_el = sampling.random_hermitian(target, rng)
        lhs_el = (alg.tensor(a_el, b_el) @ maps.channel_state(e_lin)
                  @ alg.tensor(a2_el, b2_el))
        composed = LinearMap(source, target,
                             dense_multiplier(((1.0, b_el, b2_el),), target)
                             @ e_lin.matrix @ dense_multiplier(((1.0, a2_el, a_el),), source))
        worst["sandwich"] = max(worst["sandwich"], (
            lhs_el - maps.channel_state(composed)).norm())

        c1, c2, c3, c4 = maps.cp_decompose(e_lin)
        recombined = c1.matrix - c2.matrix + 1j * (c3.matrix - c4.matrix)
        worst["decompose"] = max(worst["decompose"], float(np.max(np.abs(
            recombined - e_lin.matrix))))
        assert all(part.is_cp for part in (c1, c2, c3, c4))
    assert all(v < tol for v in worst.values()), worst
    _report("channel-state identities",
            "100 instances each, worst residuals "
            + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


# 12 -----------------------------------------------------------------------
def test_12_pipeline_reversal_suite():
    rng = _rng(12)
    worst = {"diagram": 0.0, "pairing": 0.0, "eigenbasis": 0.0, "fuchs": 0.0}
    for trial in range(50):
        dim = 2 + trial % 2
        shape = alg.matrix_algebra(dim)
        prep = maps.ensemble([sampling.random_state(shape, rng)
                              for _ in range(int(rng.integers(2, 5)))])
        evo = sampling.random_cptp(shape, alg.matrix_algebra(dim, "q1"), rng)
        meas = sampling.random_povm(evo.target, int(rng.integers(2, 5)), rng)
        p = alg.diagonal_element(prep.source,
                                 rng.dirichlet(np.ones(len(prep.source.blocks))))
        s = scenarios.PemScenario(p, prep, evo, meas)
        _, residuals = scenarios.pem_reverse(s)
        worst["diagram"] = max(worst["diagram"], residuals["classical_inverse"])
        worst["pairing"] = max(worst["pairing"], residuals["leifer_pairing"])

        rho = sampling.random_state(shape, rng)
        res = scenarios.eigenbasis_identities(scenarios.eigenbasis_pem(evo, rho))
        worst["eigenbasis"] = max(worst["eigenbasis"], max(res.values()))

        entries, _ = scenarios.fuchs_rule(meas, s.sigma)
        effects = {label: m for label, m in zip(meas.target.labels, maps.povm_effects(meas))}
        for label, _, rho_x in entries:
            want = fuchs_posterior(dense_embedding(s.sigma), dense_embedding(effects[label]))
            worst["fuchs"] = max(worst["fuchs"], np.linalg.norm(dense_embedding(rho_x) - want))
    assert worst["diagram"] < 1e-9, worst
    assert worst["pairing"] < 1e-9, worst
    assert worst["eigenbasis"] < 1e-10, worst
    assert worst["fuchs"] < 1e-10, worst
    _report("pipeline reversal suite",
            "50 scenarios, worst residuals "
            + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))
