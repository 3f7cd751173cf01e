"""State-over-time families: closed formulas against dense kron oracles,
marginal laws, linearity properties, and the classical-limit sampler."""
import numpy as np
import pytest

from qsot import algebra as alg, maps, sampling, sot
from qsot.algebra import AlgebraElement, AlgebraShape
from qsot.config import GROUP_TOL
from qsot.errors import ConstraintError, ExtensionError

from conftest import (classical_limit_pair, dense_channel_state, dense_embedding,
                      element_from_dense, random_traceless_direction, rng_for)

ATOL = 1e-10

ALL_FAMILIES = tuple(sot.TABLE_FAMILIES.values()) + (
    sot.RSFamily(0.3, 0.7),
    sot.ThetaDerived(sot.SymmetricBloom()),
)


def qubit_pair(rng):
    shape_a, shape_b = alg.matrix_algebra(2, "a"), alg.matrix_algebra(2, "b")
    e = sampling.random_cptp(shape_a, shape_b, rng)
    rho = sampling.random_state(shape_a, rng)
    return e, rho


# ------------------------------------------------------------------ marginals
@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.tag)
def test_marginals_are_rho_and_e_rho(family, rng):
    e, rho = qubit_pair(rng)
    result = sot.evaluate(family, e, rho)
    res_a, res_b = result.marginal_residuals()
    assert res_a < ATOL and res_b < ATOL


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.tag)
def test_blocky_shapes_supported(family, rng):
    source = AlgebraShape([("a", 2), ("x", 1)])
    target = AlgebraShape([("b", 2), ("y", 1)])
    e = sampling.random_cptp(source, target, rng)
    rho = sampling.random_state(source, rng)
    result = sot.evaluate(family, e, rho)
    assert max(result.marginal_residuals()) < ATOL


# ----------------------------------------------------------- dense closed forms
def test_uncorrelated_is_product(rng):
    e, rho = qubit_pair(rng)
    value = sot.evaluate(sot.Uncorrelated(), e, rho).value
    assert (value - alg.tensor(rho, e(rho))).norm() < ATOL


def test_bloom_formulas_match_dense_oracle(rng):
    e, rho = qubit_pair(rng)
    d = dense_channel_state(e)
    lifted = np.kron(rho.data[0], np.eye(2))
    cases = {
        sot.RightBloom(): lifted @ d,
        sot.LeftBloom(): d @ lifted,
        sot.SymmetricBloom(): (lifted @ d + d @ lifted) / 2,
    }
    for family, want in cases.items():
        got = sot.evaluate(family, e, rho).value.data[0]
        np.testing.assert_allclose(got, want, atol=ATOL)


def test_leifer_spekkens_matches_dense_oracle(rng):
    e, rho = qubit_pair(rng)
    d = dense_channel_state(e)
    root = np.kron(alg.power(rho, 0.5).data[0], np.eye(2))
    got = sot.evaluate(sot.LeiferSpekkens(), e, rho).value.data[0]
    np.testing.assert_allclose(got, root @ d @ root, atol=ATOL)


def test_t_rotated_matches_dense_oracle_and_t0_is_ls(rng):
    e, rho = qubit_pair(rng)
    d = dense_channel_state(e)
    t = 0.45
    lft = np.kron(alg.power(rho, 0.5 - 1j * t).data[0], np.eye(2))
    rgt = np.kron(alg.power(rho, 0.5 + 1j * t).data[0], np.eye(2))
    got = sot.evaluate(sot.TRotated(t), e, rho).value.data[0]
    np.testing.assert_allclose(got, lft @ d @ rgt, atol=ATOL)
    at_zero = sot.evaluate(sot.TRotated(0.0), e, rho).value
    ls = sot.evaluate(sot.LeiferSpekkens(), e, rho).value
    assert (at_zero - ls).norm() < ATOL


def test_sth_matches_dense_oracle(rng):
    e, rho = qubit_pair(rng)
    family = sot.STH(t=0.3)
    u = alg.support_unitary(rho, family.t).data[0]
    root = alg.power(rho, 0.5).data[0]
    d = dense_channel_state(e)
    want = (np.kron(u.conj().T @ root, np.eye(2)) @ d
            @ np.kron(root @ u, np.eye(2)))
    got = sot.evaluate(family, e, rho).value.data[0]
    np.testing.assert_allclose(got, want, atol=ATOL)


def dense_block_channel_state(e, xi: int, yi: int) -> np.ndarray:
    """Kron-sum oracle for the (x, y) block of D[E]: Σ_ij E_ij ⊗ E(E_ji)_y."""
    m, n = e.source.dims[xi], e.target.dims[yi]
    out = np.zeros((m * n, m * n), dtype=complex)
    for i in range(m):
        for j in range(m):
            mats = [np.zeros((d, d), dtype=complex) for d in e.source.dims]
            mats[xi][j, i] = 1.0
            image = e(AlgebraElement(e.source, tuple(mats))).data[yi]
            unit = np.zeros((m, m))
            unit[i, j] = 1.0
            out += np.kron(unit, image)
    return out


def dense_sides(family, rho, xi):
    """Weighted sides (w, f, g) of the sandwich on source block x, spelled
    out per family from alg.power."""
    p = lambda r: alg.power(rho, r).data[xi]
    rx, eye = rho.data[xi], np.eye(rho.shape.dims[xi])
    if family.tag == "sth":
        u = alg.support_unitary(rho, family.t).data[xi]
        return [(1.0, u.conj().T @ p(0.5), p(0.5) @ u)]
    return {
        "leifer-spekkens": lambda: [(1.0, p(0.5), p(0.5))],
        "t-rotated": lambda: [(1.0, p(0.5 - 1j * family.t), p(0.5 + 1j * family.t))],
        "symmetric-bloom": lambda: [(0.5, rx, eye), (0.5, eye, rx)],
        "right-bloom": lambda: [(1.0, rx, eye)],
        "left-bloom": lambda: [(1.0, eye, rx)],
        "rs": lambda: [(family.s, p(family.r), p(1 - family.r)),
                       (1 - family.s, p(1 - family.r), p(family.r))],
    }[family.tag]()


SANDWICH_FAMILIES = (sot.LeiferSpekkens(), sot.TRotated(0.45), sot.STH(0.3),
                     sot.SymmetricBloom(), sot.RightBloom(), sot.LeftBloom(),
                     sot.RSFamily(0.3, 0.7))


@pytest.mark.parametrize("family", SANDWICH_FAMILIES, ids=lambda f: f.tag)
def test_sandwich_families_match_dense_oracle_on_blocky_shapes(family, rng):
    source = AlgebraShape([("a0", 3), ("a1", 1)])
    target = AlgebraShape([("b0", 2), ("b1", 1)])
    e = sampling.random_cptp(source, target, rng)
    rho = sampling.random_state(source, rng)
    value = sot.evaluate(family, e, rho).value
    for xi, (la, _) in enumerate(source.blocks):
        for yi, (lb, n) in enumerate(target.blocks):
            d = dense_block_channel_state(e, xi, yi)
            eye = np.eye(n)
            want = sum(w * np.kron(f, eye) @ d @ np.kron(g, eye)
                       for w, f, g in dense_sides(family, rho, xi))
            np.testing.assert_allclose(value.block((la, lb)), want, atol=ATOL)


def test_rs_family_interpolates_the_blooms(rng):
    e, rho = qubit_pair(rng)
    pure = AlgebraElement(rho.shape, (np.diag([1.0, 0.0]),))
    for prior in (rho, pure):  # a faithful prior and a rank-deficient one
        for (r, s), bloom in [((1.0, 1.0), sot.RightBloom()), ((1.0, 0.0), sot.LeftBloom()),
                              ((0.0, 1.0), sot.LeftBloom()), ((0.0, 0.0), sot.RightBloom())]:
            got = sot.evaluate(sot.RSFamily(r, s), e, prior).value
            assert (got - sot.evaluate(bloom, e, prior).value).norm() < ATOL, (r, s)
    half = sot.evaluate(sot.RSFamily(0.5, 0.5), e, rho).value
    ls = sot.evaluate(sot.LeiferSpekkens(), e, rho).value
    assert (half - ls).norm() < ATOL


def test_rs_family_rejects_out_of_range_parameters():
    with pytest.raises(ConstraintError):
        sot.RSFamily(1.5, 0.5)


def test_ohya_matches_spectral_formula(rng):
    e, rho = qubit_pair(rng)
    sd = alg.spectral_decompose(rho)
    want = sum((lam * alg.tensor(p, e((1.0 / p.trace().real) * p))
                for lam, p in zip(sd.eigenvalues, sd.projectors)),
               alg.zero(e.source.tensor(e.target)))
    got = sot.evaluate(sot.OhyaCompound(), e, rho).value
    assert (got - want).norm() < ATOL


def rotated_prior(shape: AlgebraShape, spectra, rng) -> AlgebraElement:
    """⊕ U_x diag(spectrum_x) U_x† for random unitaries U_x, one spectrum
    per block, exactly hermitian."""
    blocks = []
    for d, spectrum in zip(shape.dims, spectra, strict=True):
        u = sampling.random_isometry(rng, d, d)
        rho = (u * np.asarray(spectrum, dtype=float)) @ u.conj().T
        blocks.append((rho + rho.conj().T) / 2)
    return AlgebraElement(shape, tuple(blocks))


def stack_priors(shape: AlgebraShape, rng) -> list[AlgebraElement]:
    """Random, maximally mixed, pure and two-fold degenerate priors, and
    priors with two eigenvalues just inside and just outside GROUP_TOL."""
    m = shape.dims[0]
    spectra = [np.full(m, 1.0 / m), np.eye(m)[0]]
    if m > 2:
        spectra.append(np.r_[0.3, 0.3, np.full(m - 2, 0.4 / (m - 2))])
    for gap in (0.5 * GROUP_TOL, 2.0 * GROUP_TOL):
        w = rng.dirichlet(np.ones(m))
        pair = w[0] + w[1]
        w[0], w[1] = (pair - gap) / 2, (pair + gap) / 2
        spectra.append(w)
    return ([sampling.random_state(shape, rng) for _ in range(3)]
            + [rotated_prior(shape, [spectrum], rng) for spectrum in spectra])


# Every library family and parameter kind: the table, Ohya at a coarse
# group_tol, the rs family inside and at the ends of r, and every Θ recipe.
STACKED_FAMILIES = {
    **sot.TABLE_FAMILIES,
    "ohya-1e-3": sot.OhyaCompound(group_tol=1e-3),
    "rs": sot.RSFamily(0.3, 0.7), "rs-r0": sot.RSFamily(0.0, 0.3),
    "rs-r1": sot.RSFamily(1.0, 0.3),
    **{f"theta-{name}": sot.ThetaDerived(cls()) for name, cls in sot.THETA_RECIPES.items()}}


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (4, 3)])
@pytest.mark.parametrize("family", STACKED_FAMILIES.values(), ids=STACKED_FAMILIES.keys())
def test_stacked_ohya_and_uncorrelated_equal_their_pairs(family, m, n):
    """``value`` takes stacks: one stacked evaluation equals the pairs' own,
    bit for bit, for every library family.  On M_m → M_n the priors are
    degenerate, pure and with eigenvalue gaps either side of group_tol; on
    M_m ⊕ M_1 → M_n ⊕ M_1 random."""
    rng = rng_for(f"stacked-{family.tag}-{m}-{n}")
    shape_a, shape_b = alg.matrix_algebra(m, "a"), alg.matrix_algebra(n, "b")
    blocky = AlgebraShape([("a", m), ("x", 1)])
    cases = [(shape_a, shape_b, stack_priors(shape_a, rng)),
             (blocky, AlgebraShape([("b", n), ("y", 1)]),
              [sampling.random_state(blocky, rng) for _ in range(5)])]
    for source, target, rhos in cases:
        es = [sampling.random_cptp(source, target, rng) for _ in rhos]
        stacked = sot.evaluate(family, maps.stack(es), alg.stack(rhos)).value
        for got, e, rho in zip(alg.unstack(stacked), es, rhos, strict=True):
            want = sot.evaluate(family, e, rho).value
            assert all(np.array_equal(g, w) for g, w in zip(got.data, want.data, strict=True))


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.tag)
def test_stacked_marginal_residuals_equal_the_pairs(family):
    """A stacked evaluation's marginal residuals are one per pair, each the
    pair's own bit for bit, on single-block and block-sum sources."""
    rng = rng_for(f"stacked-marginals-{family.tag}")
    for source in (alg.matrix_algebra(2, "a"), AlgebraShape([("a", 2), ("x", 1)])):
        target = AlgebraShape([("b", 3), ("y", 1)])
        es = [sampling.random_cptp(source, target, rng) for _ in range(5)]
        rhos = [sampling.random_state(source, rng) for _ in es]
        res_a, res_b = sot.evaluate(family, maps.stack(es), alg.stack(rhos)).marginal_residuals()
        assert res_a.shape == res_b.shape == (5,)
        alone = [sot.evaluate(family, e, rho).marginal_residuals() for e, rho in zip(es, rhos)]
        assert list(zip(res_a.tolist(), res_b.tolist())) == alone


def test_library_families_evaluate_stacks_in_one_pass(monkeypatch):
    """Every library family evaluates a stack in one pass: with unstacking
    disabled, each still evaluates one."""
    rng = rng_for("stacks-in-one-pass")
    shape_a, shape_b = alg.matrix_algebra(2, "a"), alg.matrix_algebra(3, "b")
    rhos = [sampling.random_state(shape_a, rng) for _ in range(4)]
    es = maps.stack([sampling.random_cptp(shape_a, shape_b, rng) for _ in rhos])

    def refuse(_):
        raise AssertionError("a library family was evaluated pair by pair")

    monkeypatch.setattr(maps, "unstack", refuse)
    monkeypatch.setattr(alg, "unstack", refuse)
    for family in ALL_FAMILIES + (sot.OhyaCompound(group_tol=1e-3),):
        value = sot.evaluate(family, es, alg.stack(rhos)).value
        assert value.data[0].shape == (4, 6, 6), family.tag


def dense_ohya(e, rho) -> np.ndarray:
    """Σ λ P_λ ⊗ E(P_λ / tr P_λ) with ρ embedded in M_n: one ``eigh`` there,
    ascending eigenvalues within GROUP_TOL of the one before sharing their
    projector, wherever their eigenvectors lie.  Each P_λ must lie in the
    source algebra."""
    vals, vecs = np.linalg.eigh(dense_embedding(rho))
    cuts = np.r_[0, np.nonzero(np.diff(vals) > GROUP_TOL)[0] + 1, len(vals)]
    out = 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        proj = vecs[:, lo:hi] @ vecs[:, lo:hi].conj().T
        p = element_from_dense(e.source, proj)
        np.testing.assert_allclose(dense_embedding(p), proj, atol=1e-14)
        image = dense_embedding(e((1.0 / (hi - lo)) * p))
        out = out + np.mean(vals[lo:hi]) * np.kron(proj, image)
    return out


@pytest.mark.parametrize("dims, spectra", [
    ((2, 1), None), ((2, 1), [(2, 1), (2,)]),  # 2/5 in both blocks
    ((3, 2, 1), None), ((3, 2, 1), [(3, 2, 1), (3, 1), (1,)]),  # 3/11 in two, 1/11 in three
    ((2, 2), None), ((2, 2), [(1, 2), (2, 1)]),  # a doubly degenerate pair across blocks
], ids=["m2+m1", "m2+m1-shared", "m3+m2+m1", "m3+m2+m1-shared", "m2+m2", "m2+m2-shared"])
def test_ohya_on_block_sums_matches_the_dense_grouped_oracle(dims, spectra):
    """Ohya on a multi-matrix source is the M_n formula restricted to it:
    equal eigenvalues are grouped across blocks, as in ρ's spectral
    decomposition in M_n, on random priors and on priors whose repeated
    eigenvalue spans two or three blocks."""
    rng = rng_for(f"ohya-dense-{dims}-{spectra is None}")
    source = AlgebraShape([(f"a{x}", d) for x, d in enumerate(dims)])
    target = AlgebraShape([("b", 2), ("y", 1)])
    e = sampling.random_cptp(source, target, rng)
    total = sum(map(sum, spectra or ()))
    rho = (sampling.random_state(source, rng) if spectra is None
           else rotated_prior(source, [np.divide(s, total) for s in spectra], rng))
    result = sot.evaluate(sot.OhyaCompound(), e, rho)
    assert max(result.marginal_residuals()) < 1e-12
    np.testing.assert_allclose(dense_embedding(result.value), dense_ohya(e, rho), atol=1e-12)


def test_theta_derived_recovers_named_families(rng):
    e, rho = qubit_pair(rng)
    for family in (sot.LeiferSpekkens(), sot.RightBloom(), sot.LeftBloom(),
                   sot.SymmetricBloom(), sot.RSFamily(0.3, 0.7)):
        via_theta = sot.evaluate(sot.ThetaDerived(family), e, rho).value
        direct = sot.evaluate(family, e, rho).value
        assert (via_theta - direct).norm() < ATOL, family.tag


# ------------------------------------------------------------- argument checks
def test_evaluate_rejects_non_tp_maps(rng):
    e, rho = qubit_pair(rng)
    with pytest.raises(ConstraintError):
        sot.evaluate(sot.LeiferSpekkens(), 0.5 * e, rho)


def test_evaluate_rejects_wrong_source(rng):
    e, _ = qubit_pair(rng)
    rho = sampling.random_state(alg.matrix_algebra(3, "c"), rng)
    with pytest.raises(ConstraintError):
        sot.evaluate(sot.LeiferSpekkens(), e, rho)


def test_state_linear_families_extend_past_density_matrices(rng):
    e, rho = qubit_pair(rng)
    direction = random_traceless_direction(e.source, rng, norm=2.0)
    arg = rho + direction  # hermitian, unit trace, not PSD
    assert arg.min_eigenvalue() < -1e-3
    for family in (sot.SymmetricBloom(), sot.RightBloom(), sot.LeftBloom()):
        value = sot.evaluate(family, e, arg).value
        assert (alg.partial_trace(value, "B") - arg).norm() < ATOL
    with pytest.raises(ExtensionError):
        sot.evaluate(sot.LeiferSpekkens(), e, arg)


def test_state_linearity_of_the_blooms(rng):
    e, rho1 = qubit_pair(rng)
    rho2 = sampling.random_state(e.source, rng)
    lam = 0.3
    for family in (sot.SymmetricBloom(), sot.RightBloom(), sot.LeftBloom()):
        mixed = sot.evaluate(family, e, lam * rho1 + (1 - lam) * rho2).value
        split = (lam * sot.evaluate(family, e, rho1).value
                 + (1 - lam) * sot.evaluate(family, e, rho2).value)
        assert (mixed - split).norm() < ATOL


def test_process_linearity_everywhere(rng):
    shape_a, shape_b = alg.matrix_algebra(2, "a"), alg.matrix_algebra(2, "b")
    e1 = sampling.random_cptp(shape_a, shape_b, rng)
    e2 = sampling.random_cptp(shape_a, shape_b, rng)
    rho = sampling.random_state(shape_a, rng)
    lam = 0.4
    mixed_map = lam * e1 + (1 - lam) * e2
    for family in ALL_FAMILIES:
        combined = sot.evaluate(family, mixed_map, rho).value
        split = (lam * sot.evaluate(family, e1, rho).value
                 + (1 - lam) * sot.evaluate(family, e2, rho).value)
        assert (combined - split).norm() < ATOL, family.tag


def test_reverse_orientation_agrees_for_hermitian_families(rng):
    e, rho = qubit_pair(rng)
    for family in (sot.LeiferSpekkens(), sot.SymmetricBloom(), sot.Uncorrelated()):
        fwd = sot.evaluate(family, e, rho).value
        rev = sot.reverse_orientation(family, e, rho)
        assert (fwd - rev).norm() < ATOL, family.tag


def test_right_and_left_bloom_are_mutual_reverses(rng):
    e, rho = qubit_pair(rng)
    rev = sot.reverse_orientation(sot.RightBloom(), e, rho)
    left = sot.evaluate(sot.LeftBloom(), e, rho).value
    assert (rev - left).norm() < ATOL


# --------------------------------------------------------- classical limits
def test_classical_limit_pairs_commute_and_agree_across_families(rng):
    shape_a, shape_b = alg.matrix_algebra(2, "a"), alg.matrix_algebra(2, "b")
    for index in range(6):
        e, rho = classical_limit_pair(shape_a, shape_b, rng, index)
        assert sot.commutation_residual(e, rho) < 1e-12
        target = maps.channel_state(e) @ alg.tensor(rho, alg.identity(e.target))
        for family in ALL_FAMILIES:
            if isinstance(family, (sot.Uncorrelated, sot.OhyaCompound)):
                continue  # these do not satisfy the classical limit here
            value = sot.evaluate(family, e, rho).value
            assert (value - target).norm() < 1e-8, family.tag


def test_classical_limit_pairs_nondegenerate_prior_filter(rng):
    shape_a, shape_b = alg.matrix_algebra(2, "a"), alg.matrix_algebra(2, "b")
    for index in range(4):
        e, rho = classical_limit_pair(shape_a, shape_b, rng, index,
                                      nondegenerate_prior=True)
        vals = np.linalg.eigvalsh(rho.data[0])
        assert vals[0] > 1e-3 and np.min(np.diff(vals)) > 1e-3
        value = sot.evaluate(sot.OhyaCompound(), e, rho).value
        reference = sot.evaluate(sot.LeiferSpekkens(), e, rho).value
        assert (value - reference).norm() < 1e-8


def _construction(e, rho) -> str:
    """Which classical-limit construction drew a qubit pair."""
    if np.linalg.matrix_rank(e.matrix, tol=1e-10) == 1:
        return "replacement"
    if np.allclose(rho.data[0], np.eye(2) / 2, atol=1e-12):
        return "central"
    assert np.allclose(rho.data[0], np.diag(np.diag(rho.data[0])), atol=1e-12)
    return "decohering"


@pytest.mark.parametrize("nondegenerate_prior, kinds", [
    (False, ["replacement", "decohering", "central"]),
    (True, ["replacement", "decohering"])])
def test_classical_limit_pair_cycles_through_the_applicable_constructions(
        rng, nondegenerate_prior, kinds):
    shape_a, shape_b = alg.matrix_algebra(2, "a"), alg.matrix_algebra(2, "b")
    drawn = [_construction(*classical_limit_pair(
        shape_a, shape_b, rng, index, nondegenerate_prior=nondegenerate_prior))
        for index in range(6)]
    assert drawn == [kinds[i % len(kinds)] for i in range(6)]


def pair_from_samplers(shape_a, shape_b, rng, kind):
    """A classical-limit construction from the finished samplers, drawn from
    ``rng`` in the order ``classical_limit_pair`` draws."""
    if kind == "replacement":
        e = maps.replace_channel(sampling.random_state(shape_b, rng), shape_a)
        return e, sampling.random_state(shape_a, rng)
    if kind == "decohering":
        e = sampling.decohering_channel(shape_a, shape_b, rng.dirichlet(
            np.ones(shape_b.total_dim), size=shape_a.total_dim))
        return e, alg.diagonal_element(shape_a, rng.dirichlet(np.ones(shape_a.total_dim)))
    e = sampling.random_cptp(shape_a, shape_b, rng)
    weights = rng.dirichlet(np.ones(len(shape_a.blocks)))
    return e, AlgebraElement(shape_a, tuple(w / d * np.eye(d, dtype=complex)
                                            for w, d in zip(weights, shape_a.dims)))


@pytest.mark.parametrize("shape_a, shape_b", [
    (alg.matrix_algebra(2, "a"), alg.matrix_algebra(2, "b")),
    (AlgebraShape([("a0", 2), ("a1", 1)]), AlgebraShape([("b0", 2), ("b1", 1)]))])
def test_classical_limit_pair_equals_the_finished_samplers(shape_a, shape_b):
    kinds = ["replacement", "decohering", "central"]
    for index in range(6):
        e, rho = classical_limit_pair(shape_a, shape_b, rng_for("limit", index), index)
        want_e, want_rho = pair_from_samplers(shape_a, shape_b, rng_for("limit", index),
                                              kinds[index % 3])
        assert np.array_equal(e.matrix, want_e.matrix)
        assert all(np.array_equal(g, w) for g, w in zip(rho.data, want_rho.data))
