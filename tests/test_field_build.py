"""Differential tests of the integer field-set builders against the paths
they replaced.

A self-bracket [w, w] of degree >= 1 walks each unordered pair of
components once with the table D = C + (-1)^deg C^T; `d` accumulates
integer numerators per output component; random forms add each
harmonic's integer numerators straight into the component.  The previous
paths are kept here, in this file only, as the reference: the ordered
walk through `_contract` on a copy of w, the per-term `deriv` / `scale` /
`+` differential, and the sum of `Fraction` harmonics.  Every result must
be equal (==, the same canonical components); for `d` and the random
forms the modes are also stored in the same order, so float evaluation
sums them in the same order.
"""

import dataclasses
import hashlib
from fractions import Fraction

import pytest

from cartanforms import calculus, cli
from cartanforms.algebra import ALGEBRA_NAMES, build_algebra
from cartanforms.calculus import (
    DegreeError,
    LieForm,
    ScalarForm,
    TrigPoly,
    exterior_d,
    lie_bracket_forms,
    multi_indices,
    random_form,
    random_scalar_form,
    _COEFF_POOL,
    _contract,
    _merge_indices,
    _rng_for,
)

DEFAULT_REPORT_SHA256 = \
    "2886db08974e7e01c2bbf2380dc14eac5a8039b6597851ab13d1aa05a48587c4"


# ---------------------------------------------------------------------------
# the reference paths
# ---------------------------------------------------------------------------

def ref_self_bracket(w):
    """[w, w] by the ordered walk: every ordered pair, the table C."""
    copy = LieForm(w.algebra, w.dim, w.degree, dict(w.comps))
    return _contract(w, copy, w.algebra.bracket_table, w)


def ref_d(w):
    """d as one TrigPoly per term: deriv, scale by the sign, then +."""
    comps = {}
    for (alpha, idx), poly in w.comps.items():
        for j in range(w.dim):
            sign, new_idx = _merge_indices((j,), idx)
            if sign == 0:
                continue
            term = poly.deriv(j).scale(sign)
            if term.is_zero():
                continue
            key = (alpha, new_idx)
            cur = comps.get(key)
            comps[key] = cur + term if cur else term
    return w._new(w.degree + 1,
                  {k: v for k, v in comps.items() if not v.is_zero()})


def ref_random_comps(rng, keys, dim, cutoff, density, terms):
    comps = {}
    for key in keys:
        if rng.random() > density:
            continue
        poly = TrigPoly.zero(dim)
        for _ in range(terms):
            k = tuple(rng.randint(-cutoff, cutoff) for _ in range(dim))
            re = rng.choice(_COEFF_POOL)
            im = 0 if all(x == 0 for x in k) else rng.choice(_COEFF_POOL)
            poly = poly + TrigPoly.harmonic(dim, k, re, im)
        comps[key] = poly
    return comps


def ref_random_form(seed, degree, algebra, dim=None, cutoff=1, support="full",
                    density=0.6, terms=1):
    dim = algebra.spacetime_dim if dim is None else dim
    lie_indices = {"h": algebra.h_indices, "p": algebra.p_indices,
                   "full": tuple(range(algebra.dim))}[support]
    rng = _rng_for(seed, algebra.name, dim, degree, support, cutoff)
    keys = [(alpha, idx) for alpha in lie_indices
            for idx in multi_indices(dim, degree)]
    return LieForm(algebra, dim, degree,
                   ref_random_comps(rng, keys, dim, cutoff, density, terms))


def ref_random_scalar_form(seed, degree, dim, cutoff=1, density=0.7, terms=1):
    rng = _rng_for(seed, "scalar", dim, degree, cutoff)
    return ScalarForm(dim, degree, ref_random_comps(
        rng, multi_indices(dim, degree), dim, cutoff, density, terms))


def _same_order(a, b):
    """The same components, each with its modes, in the same order."""
    return list(a.comps) == list(b.comps) and all(
        list(a.comps[k].nums) == list(b.comps[k].nums) for k in a.comps)


def _damaged_so31(antisymmetric):
    """so31 with the [M01, P0] constant damaged; one-sided unless
    `antisymmetric`, in which case [P0, M01] is damaged to match."""
    real = build_algebra("so31")
    table = [list(row) for row in real.bracket_table]

    def bump(a, b, c, x):
        coeffs = dict(table[a][b])
        coeffs[c] = coeffs.get(c, 0) + x
        table[a][b] = tuple((g, Fraction(v)) for g, v in sorted(coeffs.items())
                            if v != 0)

    bump(0, 3, 4, 1)
    if antisymmetric:
        bump(3, 0, 4, -1)
    return dataclasses.replace(
        real, bracket_table=tuple(tuple(row) for row in table))


# ---------------------------------------------------------------------------
# self-brackets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cutoff", [1, 2])
@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_self_bracket_matches_ordered_walk(name, cutoff):
    alg = build_algebra(name)
    dim = alg.spacetime_dim
    for degree in range(dim):
        for seed in range(3):
            for support in ("full", "h", "p"):
                w = random_form(seed, degree, alg, cutoff=cutoff,
                                support=support, terms=2)
                if 2 * degree > dim:
                    with pytest.raises(DegreeError):
                        lie_bracket_forms(w, w)
                    with pytest.raises(DegreeError):
                        ref_self_bracket(w)
                    continue
                assert lie_bracket_forms(w, w) == ref_self_bracket(w), \
                    (degree, seed, support)


@pytest.mark.parametrize("antisymmetric", [False, True])
def test_self_bracket_on_a_damaged_table(antisymmetric):
    # so31 values on T^4, so that both parities of D are reached: a 2-form's
    # D = C + C^T vanishes on an antisymmetric table, not on a damaged one
    alg = _damaged_so31(antisymmetric)
    nonzero_even = False
    for degree in (1, 2):
        for seed in range(6):
            w = random_form(seed, degree, alg, dim=4, cutoff=2, terms=2)
            got = lie_bracket_forms(w, w)
            assert got == ref_self_bracket(w), (degree, seed)
            nonzero_even |= degree == 2 and not got.is_zero()
    assert nonzero_even != antisymmetric


def test_self_bracket_table_built_once_per_algebra_object():
    key = (calculus._self_bracket_table, 1)
    damaged, real = _damaged_so31(False), build_algebra("so31")
    w = random_form(0, 1, damaged)
    lie_bracket_forms(w, w)
    table = damaged.derived[key]
    lie_bracket_forms(w, w)
    assert damaged.derived[key] is table
    v = random_form(0, 1, real)
    lie_bracket_forms(v, v)
    assert real.derived[key] != table


def _count_products(monkeypatch):
    calls = []
    real = calculus._mul_nums

    def counting(n1, n2):
        calls.append(1)
        return real(n1, n2)

    monkeypatch.setattr(calculus, "_mul_nums", counting)
    return calls


@pytest.mark.parametrize("name", ["so31", "iso21", "so41"])
def test_self_bracket_forms_each_product_once(monkeypatch, name):
    alg = build_algebra(name)
    w = random_form(0, 1, alg, density=1.0)
    copy = LieForm(alg, w.dim, 1, dict(w.comps))
    n = len(w.comps)
    calls = _count_products(monkeypatch)
    lie_bracket_forms(w, copy)
    ordered = len(calls)
    calls.clear()
    lie_bracket_forms(w, w)
    assert len(calls) <= n * (n - 1) // 2 and ordered <= n * n
    # on an antisymmetric table each unordered pair stands for two
    assert 0 < 2 * len(calls) == ordered


def test_degree_zero_self_bracket_keeps_the_ordered_walk(monkeypatch):
    alg = build_algebra("so31")
    f = random_form(1, 0, alg, density=1.0)
    copy = LieForm(alg, f.dim, 0, dict(f.comps))
    calls = _count_products(monkeypatch)
    same = lie_bracket_forms(f, f)
    ordered = len(calls)
    assert same == lie_bracket_forms(f, copy)
    assert 0 < ordered == len(calls) - ordered


# ---------------------------------------------------------------------------
# d
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_d_matches_per_term_path(name):
    alg = build_algebra(name)
    dim = alg.spacetime_dim
    for degree in range(dim):
        for cutoff in (1, 2):
            for seed in range(3):
                w = random_form(seed, degree, alg, cutoff=cutoff, terms=3)
                got, ref = exterior_d(w), ref_d(w)
                assert got == ref and _same_order(got, ref), (degree, seed)


@pytest.mark.parametrize("dim", [3, 4])
def test_d_of_scalar_forms_matches_per_term_path(dim):
    for degree in range(dim):
        for seed in range(4):
            s = random_scalar_form(seed, degree, dim, cutoff=2, terms=3)
            got, ref = s.d(), ref_d(s)
            assert got == ref and _same_order(got, ref), (degree, seed)


# ---------------------------------------------------------------------------
# random forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,degree", [("so31", 1), ("iso21", 0),
                                         ("so32", 1), ("iso3", 3)])
def test_random_form_matches_fraction_path(name, degree):
    alg = build_algebra(name)
    for seed in range(50):
        for cutoff in (1, 2, 3):
            for terms in (1, 2, 3):
                for support in ("full", "h", "p"):
                    args = (seed, degree, alg)
                    kw = dict(cutoff=cutoff, support=support, terms=terms)
                    got, ref = random_form(*args, **kw), ref_random_form(*args, **kw)
                    assert got == ref and _same_order(got, ref), \
                        (seed, cutoff, terms, support)


@pytest.mark.parametrize("dim", [3, 4])
def test_random_scalar_form_matches_fraction_path(dim):
    for seed in range(50):
        for cutoff in (1, 2, 3):
            for terms in (1, 2, 3):
                degree = seed % (dim + 1)
                got = random_scalar_form(seed, degree, dim, cutoff=cutoff,
                                         terms=terms)
                ref = ref_random_scalar_form(seed, degree, dim, cutoff=cutoff,
                                             terms=terms)
                assert got == ref and _same_order(got, ref), (seed, cutoff, terms)


# ---------------------------------------------------------------------------
# the default report
# ---------------------------------------------------------------------------

def test_default_verify_report_is_pinned(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_REPORT_SHA256
