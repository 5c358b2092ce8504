"""Property tests of the invariants every form representation must keep.

TrigPoly is a commutative ring of real (Hermitian) series kept in one
canonical form; d squares to zero; the bracket and the wedge obey the
graded Leibniz rule; field files round-trip exactly.
"""

import cmath
import os
import tempfile
from fractions import Fraction
from math import gcd

from hypothesis import given, strategies as st

from cartanforms.algebra import ALGEBRA_NAMES, build_algebra
from cartanforms.calculus import (
    LieForm,
    ScalarForm,
    TrigPoly,
    exterior_d,
    lie_bracket_forms,
    load_fields,
    multi_indices,
    save_fields,
    wedge,
)

coeffs = st.fractions(-3, 3, max_denominator=6)


@st.composite
def polys(draw, dim, cutoff=2, max_modes=3):
    poly = TrigPoly.zero(dim)
    for _ in range(draw(st.integers(0, max_modes))):
        k = tuple(draw(st.integers(-cutoff, cutoff)) for _ in range(dim))
        im = 0 if not any(k) else draw(coeffs)
        poly = poly + TrigPoly.harmonic(dim, k, draw(coeffs), im)
    return poly


@st.composite
def forms(draw, algebra, dim, degree, max_comps=4):
    """A LieForm valued in `algebra`, or a ScalarForm when it is None."""
    values = 1 if algebra is None else algebra.dim
    keys = draw(st.lists(st.tuples(st.integers(0, values - 1),
                                   st.sampled_from(multi_indices(dim, degree))),
                         max_size=max_comps, unique=True))
    comps = {key: draw(polys(dim)) for key in keys}
    if algebra is None:
        return ScalarForm(dim, degree, {idx: p for (_, idx), p in comps.items()})
    return LieForm(algebra, dim, degree, comps)


algebras = st.sampled_from(ALGEBRA_NAMES).map(build_algebra)


def assert_canonical(poly):
    """gcd-reduced positive denominator, no stored zero mode, Hermitian."""
    assert poly.den >= 1
    g = poly.den
    for k, (a, b) in poly.nums.items():
        assert (a, b) != (0, 0)
        assert poly.nums.get(tuple(-x for x in k)) == (a, -b)
        g = gcd(g, gcd(a, b))
    assert g == 1


def assert_form_canonical(form):
    for poly in form.comps.values():
        assert not poly.is_zero()
        assert_canonical(poly)


# ---------------------------------------------------------------------------
# TrigPoly
# ---------------------------------------------------------------------------

@given(st.data())
def test_trigpoly_ring_laws(data):
    dim = data.draw(st.integers(1, 4))
    a, b, c = (data.draw(polys(dim)) for _ in range(3))
    zero, one = TrigPoly.zero(dim), TrigPoly.constant(dim, 1)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert (a * zero).is_zero() and (a - a).is_zero()
    assert -a + a == zero
    for p in (a + b, a - b, a * b, a.scale(Fraction(-2, 3)), a.deriv(0)):
        assert_canonical(p)


@given(st.data())
def test_trigpoly_is_real(data):
    dim = data.draw(st.integers(1, 3))
    a = data.draw(polys(dim))
    x = [data.draw(st.floats(-3.0, 3.0)) for _ in range(dim)]
    value = 0j
    for k, (re, im) in a.fraction_coeffs().items():
        assert a.coeff(tuple(-v for v in k)) == (re, -im)
        phase = sum(ki * xi for ki, xi in zip(k, x))
        value += complex(float(re), float(im)) * cmath.exp(1j * phase)
    assert abs(value.imag) < 1e-9
    assert abs(value.real - a.evaluate(x)) < 1e-9


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

@given(st.data())
def test_d_squared_vanishes(data):
    alg = data.draw(st.one_of(st.none(), algebras))
    dim = alg.spacetime_dim if alg else data.draw(st.integers(2, 4))
    degree = data.draw(st.integers(0, dim - 2))
    w = data.draw(forms(alg, dim, degree))
    dw = exterior_d(w)
    assert_form_canonical(dw)
    assert exterior_d(dw).is_zero()


@given(st.data())
def test_d_of_a_function_is_its_gradient(data):
    dim = data.draw(st.integers(1, 4))
    f = data.draw(polys(dim))
    df = exterior_d(ScalarForm(dim, 0, {(): f}))
    assert all(df.component((j,)) == f.deriv(j) for j in range(dim))


@given(st.data())
def test_bracket_obeys_graded_leibniz(data):
    alg = data.draw(algebras)
    dim = alg.spacetime_dim
    p = data.draw(st.integers(0, dim - 1))
    q = data.draw(st.integers(0, dim - 1 - p))
    w = data.draw(forms(alg, dim, p))
    m = data.draw(forms(alg, dim, q))
    lhs = exterior_d(lie_bracket_forms(w, m))
    rhs = lie_bracket_forms(exterior_d(w), m) \
        + lie_bracket_forms(w, exterior_d(m)).scale((-1) ** p)
    assert lhs == rhs
    assert_form_canonical(lie_bracket_forms(w, m))


@given(st.data())
def test_wedge_obeys_graded_leibniz(data):
    dim = data.draw(st.integers(2, 4))
    p = data.draw(st.integers(0, dim - 1))
    q = data.draw(st.integers(0, dim - 1 - p))
    s = data.draw(forms(None, dim, p))
    t = data.draw(forms(None, dim, q))
    lhs = exterior_d(wedge(s, t))
    rhs = wedge(exterior_d(s), t) + wedge(s, exterior_d(t)).scale((-1) ** p)
    assert lhs == rhs
    assert_form_canonical(wedge(s, t))


@given(st.data())
def test_field_file_round_trip(data):
    alg = data.draw(algebras)
    dim = alg.spacetime_dim
    named = {name: data.draw(forms(alg, dim, data.draw(st.integers(0, dim))))
             for name in ("A", "B")}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fields.json")
        save_fields(path, alg, named)
        loaded_alg, loaded = load_fields(path)
    assert loaded_alg is alg
    assert loaded == named
