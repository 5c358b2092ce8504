"""pair_integral against the full pairing it replaces in the actions.

`pair_integral(form, w, m)` reads Int beta(w ^ m) from the zero mode of
each component product; the reference is `integrate(beta_pair(...))`,
which builds the whole scalar top-form first.  Both must give the same
Fraction on every algebra, invariant form, degree pair and cutoff, on the
battery's own operands, and on the identity battery's residuals.
"""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cartanforms import actions, cartan, suites
from cartanforms.actions import CouplingConstants, FieldSet, identity_residual
from cartanforms.algebra import (
    ALGEBRA_NAMES,
    AlgebraError,
    build_algebra,
    invariant_form,
    killing_form,
    star_form,
    _per_algebra,
)
from cartanforms.calculus import (
    DegreeError,
    beta_pair,
    exterior_d,
    integrate,
    lie_bracket_forms,
    pair_integral,
    random_form,
    _PairingMatrix,
)
from cartanforms.cartan import CartanConnection, curvature

from connection_operands import ConnectionOperands


def reference(form, w, m):
    return integrate(beta_pair(form, w, m))


def _unit_forms(alg):
    """{(alpha, beta): the form whose gram is 1 there and 0 elsewhere}."""
    killing = killing_form(alg)
    return {(alpha, beta): dataclasses.replace(killing, gram=tuple(
        tuple(Fraction(int((i, j) == (alpha, beta))) for j in range(alg.dim))
        for i in range(alg.dim)))
        for alpha in range(alg.dim) for beta in range(alg.dim)}


def reference_matrix(w, m):
    """The pairing matrix of w and m entry by entry: entry (alpha, beta) is
    the full pairing with the unit form at (alpha, beta)."""
    units = _per_algebra(_unit_forms, w.algebra)
    values = {key: reference(units[key], w, m) for key in {
        (alpha, beta) for alpha, _ in w.comps for beta, _ in m.comps}}
    den = math.lcm(*(value.denominator for value in values.values()))
    return _PairingMatrix(w.algebra, den, {
        key: int(value * den) for key, value in values.items()})


def reference_bracket_matrix(w, u, v):
    return reference_matrix(w, lie_bracket_forms(u, v))


def reference_d_matrix(w, m):
    return reference_matrix(w, exterior_d(m))


def _use_reference_matrices(monkeypatch):
    """Have the battery pair through the full-pairing reference matrices."""
    monkeypatch.setattr(cartan, "_d_pairing_matrix", reference_d_matrix)
    monkeypatch.setattr(cartan, "_bracket_pairing_matrix",
                        reference_bracket_matrix)


def forms_of(alg):
    """Killing, star, generic members and the degenerate ones of the family."""
    couplings = [(2, 3), (Fraction(1, 2), Fraction(-2, 3)), (0, 0),
                 *suites.DEFAULT_COUPLINGS[alg.name]]
    return [killing_form(alg), star_form(alg)] + [
        invariant_form(alg, c0, c1) for c0, c1 in couplings]


def degree_pairs(dim):
    return [(1, 2), (2, 1)] if dim == 3 else [(2, 2), (1, 3), (3, 1)]


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
@pytest.mark.parametrize("cutoff", [1, 2])
def test_matches_full_pairing_on_random_forms(name, cutoff):
    alg = build_algebra(name)
    dim = alg.spacetime_dim
    forms = forms_of(alg)
    assert any(f.degenerate for f in forms) and any(not f.degenerate for f in forms)
    # enough harmonics per component that w and m share frequencies
    terms = 4 ** cutoff
    nonzero = 0
    for seed in range(3):
        for p, q in degree_pairs(dim):
            w = random_form(seed, p, alg, cutoff=cutoff, terms=terms)
            m = random_form(seed + 50, q, alg, cutoff=cutoff, terms=terms)
            for form in forms:
                got = pair_integral(form, w, m)
                assert isinstance(got, Fraction)
                assert got == reference(form, w, m)
                nonzero += got != 0
    assert nonzero > 0


@pytest.mark.parametrize("name", ["so31", "iso21", "so22", "so4", "iso3"])
@pytest.mark.parametrize("cutoff", [1, 2])
def test_matches_full_pairing_on_3d_battery_operands(name, cutoff):
    alg = build_algebra(name)
    forms = forms_of(alg)
    for seed in range(3):
        f = ConnectionOperands(FieldSet(alg, seed, cutoff).connection)
        pairs = [(f.a, f.da), (f.a, f.aa), (f.a_t, f.da_t), (f.a_t, f.aa_t),
                 (f.omega, f.dw), (f.omega, f.ww), (f.e, f.r), (f.e, f.ee),
                 (f.e, f.dwe), (f.da, f.a)]
        for form in forms:
            for w, m in pairs:
                assert pair_integral(form, w, m) == reference(form, w, m)


@pytest.mark.parametrize("name", ["so41", "so32"])
def test_matches_full_pairing_on_4d_operands(name):
    alg = build_algebra(name)
    forms = forms_of(alg)
    for seed in range(2):
        fields = FieldSet(alg, seed)
        conn = CartanConnection(fields.random_form(1, "h", 0.35, dim=4),
                                fields.random_form(1, "p", 0.5, dim=4))
        f_h = curvature(conn).F_h
        ee = lie_bracket_forms(conn.coframe, conn.coframe)
        operands = [(f_h, f_h), (ee, ee), (ee, ee.h_block_star()),
                    (ee, f_h.h_block_star()), (f_h, f_h.h_block_star())]
        for form in forms:
            for w, m in operands:
                assert pair_integral(form, w, m) == reference(form, w, m)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["so31", "iso21", "so22", "so4", "iso3"]),
       seed=st.integers(0, 10 ** 6), cutoff=st.integers(1, 2),
       density=st.floats(0.05, 1.0), p=st.sampled_from([1, 2]),
       terms=st.integers(1, 12),
       c0=st.fractions(-3, 3, max_denominator=4),
       c1=st.fractions(-3, 3, max_denominator=4))
def test_property_matches_full_pairing(name, seed, cutoff, density, p, terms,
                                       c0, c1):
    alg = build_algebra(name)
    form = invariant_form(alg, c0, c1)
    w = random_form(seed, p, alg, cutoff=cutoff, density=density, terms=terms)
    m = random_form(seed + 1, 3 - p, alg, cutoff=cutoff, density=density,
                    terms=terms)
    assert pair_integral(form, w, m) == reference(form, w, m)


def test_non_top_degree_raises():
    alg = build_algebra("so31")
    form = killing_form(alg)
    one = random_form(0, 1, alg)
    two = random_form(1, 2, alg)
    with pytest.raises(DegreeError):
        pair_integral(form, one, one)
    with pytest.raises(DegreeError):
        pair_integral(form, two, two)


def test_mismatched_algebra_raises():
    so31, so22 = build_algebra("so31"), build_algebra("so22")
    w = random_form(0, 1, so31)
    m = random_form(1, 2, so31)
    with pytest.raises(AlgebraError):
        pair_integral(killing_form(so22), w, m)
    with pytest.raises(AlgebraError):
        pair_integral(killing_form(so31), w, random_form(1, 2, so22))


def _battery_residuals():
    rows = []
    for identity_id in suites.EXACT_3D_IDENTITIES:
        for name in ("so31", "iso21", "so22"):
            alg = build_algebra(name)
            for base in suites._couplings_for(suites.default_config(), name):
                cc = suites._identity_couplings(identity_id, base)
                for seed in range(6):
                    rep = identity_residual(identity_id, alg, seed, cc)
                    rows.append((rep.inputs_digest, rep.residual))
    return rows


def test_battery_residuals_match_full_pairing(monkeypatch):
    got = _battery_residuals()
    assert len(got) == 5 * 3 * 3 * 6
    assert all(r == 0 for _, r in got)
    _use_reference_matrices(monkeypatch)
    assert _battery_residuals() == got


def test_battery_on_corrupted_algebra_matches_full_pairing(monkeypatch):
    """Nonzero residuals, too, are the ones the full pairing gives."""
    real = build_algebra("so31")
    structure = [[list(row) for row in plane] for plane in real.structure]
    structure[0][3][4] += 1       # damage [M01, P0], keep antisymmetry
    structure[3][0][4] -= 1
    table = tuple(
        tuple(tuple((c, Fraction(x)) for c, x in enumerate(structure[a][b])
                    if x != 0) for b in range(real.dim))
        for a in range(real.dim))
    bad = dataclasses.replace(
        real, structure=tuple(tuple(tuple(r) for r in p) for p in structure),
        bracket_table=table)
    cc = CouplingConstants(c0=2, c1=3)

    def residuals():
        return [identity_residual(i, bad, seed, cc).residual
                for i in ("EINSTEIN_CS", "TWO_CS_SUM", "TWO_CS_DIFF")
                for seed in range(6)]

    got = residuals()
    assert any(r != 0 for r in got)
    _use_reference_matrices(monkeypatch)
    assert residuals() == got


@pytest.mark.parametrize("name", ["so41", "so32"])
def test_4d_residuals_match_full_pairing(name, monkeypatch):
    alg = build_algebra(name)
    cc = CouplingConstants(c0=1, c1=Fraction(1, 3))

    def residuals():
        return [identity_residual(i, alg, seed, cc).residual
                for i in ("QUARTIC_ZERO", "MM_EXPANSION") for seed in range(2)]

    got = residuals()
    assert got == [0] * 4
    monkeypatch.setattr(actions, "pair_integral", reference)
    assert residuals() == got
