"""Gravity action functionals and their machine-checkable identities.

Everything polynomial in trig-poly fields evaluates exactly; only the
torsion-free-connection functionals (TMG) need quadrature, because the
spin connection determined by a coframe is a rational function of the
field and leaves the trig-poly ring.

Resolved coefficient conventions (full table in CONVENTIONS.md):

    S_CS^beta(A)      = 1/2 Int beta(A ^ dA) + 1/6 Int beta(A ^ [A,A])
    S_Pal(omega, e)   = Int S(e ^ R) + 1/6 Int S(e ^ [e,e])      (S = star form)
    S_CS(omega)       = S_CS^K on the stabilizer connection alone
    torsion term      = 1/2 Int K(e ^ d_omega e)
    S_TMG(e)          = -S_Pal(omega(e), e) + (1/mu) S_CS(omega(e))

with these, the split identities hold exactly:

    S_CS^beta(A) = c1 S_Pal + c0 S_CS(omega) + c0 * torsion term
    (1/2)(S_CS^beta(A) + S_CS^beta(~A)) = c0 (S_CS(omega) + torsion term)
    (1/2)(S_CS^beta(A) - S_CS^beta(~A)) = c1 S_Pal
    S_TMG(e) = S_CS^beta(A(e))  with  beta = (c0, c1) = (1/mu, -1)
    S_TMG(e) = -1/2 (1 - 1/(mu c0)) S_CS^b'(A(e))
               + 1/2 (1 + 1/(mu c0)) S_CS^b'(~A(e)),   b' = (c0, 1)
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exactla
from .algebra import invariant_form, killing_form, star_form
from .calculus import (
    LieForm,
    TrigPoly,
    covariant_d,
    exterior_d,
    lie_bracket_forms,
    pair_integral,
    random_form,
    _det_on_points,
    _eval_on_points,
    _rng_for,
)
from .cartan import (
    CartanConnection,
    CartanError,
    coframe_check,
    curvature,
    _field_strength,
)

HALF = Fraction(1, 2)
SIXTH = Fraction(1, 6)


class IdentityError(ValueError):
    """Identity requested with an algebra or coupling it does not cover."""


# ---------------------------------------------------------------------------
# value and coupling containers
# ---------------------------------------------------------------------------

@dataclass
class ActionValue:
    """Action value in units of (2 pi)^n.

    `exact` is the rational multiple of (2 pi)^n when the whole pipeline is
    polynomial; `numeric` always carries the float value in the same units.
    """

    torus_dim: int
    mode: str                    # "exact" | "numeric"
    exact: Fraction | None
    numeric: float
    quadrature_grid: int | None = None

    @property
    def absolute(self):
        return self.numeric * (2.0 * math.pi) ** self.torus_dim

    def render(self):
        if self.mode == "exact":
            return f"{self.exact} x (2pi)^{self.torus_dim}"
        return (f"{self.numeric:.15g} x (2pi)^{self.torus_dim} "
                f"(grid {self.quadrature_grid}^{self.torus_dim})")


def _exact_value(dim, fraction):
    return ActionValue(torus_dim=dim, mode="exact", exact=fraction,
                       numeric=float(fraction))


@dataclass(frozen=True)
class CouplingConstants:
    """(c0, c1) of the invariant form plus the TMG and Immirzi couplings."""

    c0: Fraction = Fraction(1)
    c1: Fraction = Fraction(0)
    mu: Fraction | None = None
    gamma: Fraction | None = None
    lambda_sign: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "c0", Fraction(self.c0))
        object.__setattr__(self, "c1", Fraction(self.c1))
        if self.mu is not None:
            object.__setattr__(self, "mu", Fraction(self.mu))
            if self.mu == 0:
                raise ValueError("topological mass mu must be nonzero")
        if self.gamma is not None:
            object.__setattr__(self, "gamma", Fraction(self.gamma))
            if self.gamma == 0:
                raise ValueError("Immirzi parameter gamma must be nonzero")

    def as_dict(self):
        return {
            "c0": str(self.c0),
            "c1": str(self.c1),
            "mu": None if self.mu is None else str(self.mu),
            "gamma": None if self.gamma is None else str(self.gamma),
        }


def couplings_from_immirzi(gamma):
    """The generalized 4d form labeling (c0, c1) = (1, 1/gamma)."""
    gamma = Fraction(gamma)
    return CouplingConstants(c0=Fraction(1), c1=1 / gamma, gamma=gamma)


@dataclass
class IdentityReport:
    identity_id: str
    algebra: str
    seed: int
    couplings: CouplingConstants
    residual: Fraction | float
    passed: bool
    mode: str                   # "exact" | "numeric"
    tolerance: float | None
    inputs_digest: str

    def residual_str(self):
        if self.mode == "exact":
            return str(self.residual)
        return f"{self.residual:.6e}"


EXACT_IDENTITIES = ("CS_NULL", "CS_PERP", "EINSTEIN_CS", "TWO_CS_SUM",
                    "TWO_CS_DIFF", "QUARTIC_ZERO", "MM_EXPANSION")
NUMERIC_IDENTITIES = ("CS_TMG", "TWO_CS_TMG")
IDENTITY_IDS = EXACT_IDENTITIES + NUMERIC_IDENTITIES

_3D_ALGEBRAS = ("so31", "iso21", "so22", "so4", "iso3")
_4D_ALGEBRAS = ("so41", "so32")
_TMG_ALGEBRAS = ("so31", "so22", "so4")


# ---------------------------------------------------------------------------
# shared fields and the run scope
# ---------------------------------------------------------------------------

class ConnectionForms:
    """The beta-independent forms of one Cartan connection omega + e.

    Each is built on first use and kept: A = omega + e, ~A = omega - e,
    their dA and [A,A], d omega, [omega, omega], R, [e,e] and d_omega e.
    No invariant form enters, so every check still does its own pairings.
    """

    def __init__(self, omega, e):
        self.omega, self.e = omega, e

    @cached_property
    def a(self):
        return self.omega + self.e

    @cached_property
    def da(self):
        return exterior_d(self.a)

    @cached_property
    def aa(self):
        return lie_bracket_forms(self.a, self.a)

    @cached_property
    def a_t(self):
        return self.omega - self.e

    @cached_property
    def da_t(self):
        return exterior_d(self.a_t)

    @cached_property
    def aa_t(self):
        return lie_bracket_forms(self.a_t, self.a_t)

    @cached_property
    def dw(self):
        return exterior_d(self.omega)

    @cached_property
    def ww(self):
        return lie_bracket_forms(self.omega, self.omega)

    @cached_property
    def r(self):
        return self.dw + self.ww.scale(HALF)

    @cached_property
    def ee(self):
        return lie_bracket_forms(self.e, self.e)

    @cached_property
    def dwe(self):
        return covariant_d(self.omega, self.e)


# field density of the random connection behind the 3d CS identities
_CS_DENSITY = 0.6


class FieldSet:
    """The seeded fields of one (algebra, seed, cutoff), each built once.

    Holds the random forms by (degree, support, density, dim), the random
    Cartan connection of the 3d CS identities with its derived forms, and
    the torsion-free connection of the analytic coframe (TMG identities).
    """

    def __init__(self, alg, seed, cutoff=1):
        self.alg, self.seed, self.cutoff = alg, seed, cutoff
        self._random = {}

    def matches(self, alg, seed, cutoff):
        return self.alg is alg and self.seed == seed and self.cutoff == cutoff

    def random_form(self, degree, support, density, dim=None):
        key = (degree, support, density, dim)
        if key not in self._random:
            self._random[key] = random_form(
                self.seed, degree, self.alg, dim=dim, cutoff=self.cutoff,
                support=support, density=density)
        return self._random[key]

    @cached_property
    def connection(self):
        """ConnectionForms of the random connection omega + e."""
        return ConnectionForms(self.random_form(1, "h", _CS_DENSITY),
                               self.random_form(1, "p", _CS_DENSITY))

    @cached_property
    def levi_civita(self):
        return levi_civita_connection(
            analytic_coframe(self.alg, seed=self.seed, cutoff=self.cutoff))


class _RunScope:
    """What the identity_residual calls of one run share: invariant forms
    per (algebra object, form, c0, c1) and the one live field set."""

    def __init__(self):
        self.forms = {}
        self.fields = None


_SCOPE = contextvars.ContextVar("cartanforms_run_scope", default=None)


@contextlib.contextmanager
def run_scope():
    """Share fields and invariant forms between the checks run inside.

    Only one field set is kept: a check on another (algebra, seed, cutoff)
    replaces it, so callers group their checks by field set.  Everything
    is dropped when the block exits.
    """
    token = _SCOPE.set(_RunScope())
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _field_set(alg, seed, cutoff):
    scope = _SCOPE.get()
    if scope is None:
        return FieldSet(alg, seed, cutoff)
    if scope.fields is None or not scope.fields.matches(alg, seed, cutoff):
        scope.fields = FieldSet(alg, seed, cutoff)
    return scope.fields


def _scoped_form(build, alg, *args):
    """build(alg, *args), cached per algebra object inside a run scope."""
    scope = _SCOPE.get()
    if scope is None:
        return build(alg, *args)
    # the cached form references alg, so its id stays unique while cached
    key = (build, id(alg)) + args
    if key not in scope.forms:
        scope.forms[key] = build(alg, *args)
    return scope.forms[key]


# ---------------------------------------------------------------------------
# exact action functionals
# ---------------------------------------------------------------------------

def _cs_value(form, a, da, aa):
    """1/2 Int beta(A ^ dA) + 1/6 Int beta(A ^ [A,A]) from A, dA and [A,A]."""
    return (HALF * pair_integral(form, a, da)
            + SIXTH * pair_integral(form, a, aa))


def _palatini_value(form, f):
    """Int beta(e ^ R) + 1/6 Int beta(e ^ [e,e]) of ConnectionForms f."""
    return (pair_integral(form, f.e, f.r)
            + SIXTH * pair_integral(form, f.e, f.ee))


def _torsion_value(form, f):
    """1/2 Int beta(e ^ d_omega e) of ConnectionForms f."""
    return HALF * pair_integral(form, f.e, f.dwe)


def _cs_omega_torsion_value(form, f):
    """S_CS^beta(omega) plus the torsion pairing, of ConnectionForms f."""
    return _cs_value(form, f.omega, f.dw, f.ww) + _torsion_value(form, f)


def cs_action(a, form):
    """S_CS^beta(A) = 1/2 Int beta(A ^ dA) + 1/6 Int beta(A ^ [A,A])."""
    if a.degree != 1:
        raise CartanError("Chern-Simons argument must be a 1-form")
    if a.dim != 3:
        raise CartanError("Chern-Simons action lives on a 3-torus")
    return _exact_value(3, _cs_value(form, a, exterior_d(a),
                                     lie_bracket_forms(a, a)))


def palatini_action(omega, e):
    """Int S(e ^ R) + 1/6 Int S(e ^ [e,e]) with the pure star form S."""
    s = _scoped_form(star_form, omega.algebra)
    return _exact_value(e.dim, _palatini_value(s, ConnectionForms(omega, e)))


def torsion_pairing(omega, e):
    """1/2 Int K(e ^ d_omega e)."""
    k = _scoped_form(killing_form, omega.algebra)
    return _exact_value(e.dim, _torsion_value(k, ConnectionForms(omega, e)))


def cs_omega_torsion_action(omega, e):
    """S_CS(omega) + torsion pairing; the involution-even half of S_CS^K."""
    k = _scoped_form(killing_form, omega.algebra)
    return _exact_value(e.dim,
                        _cs_omega_torsion_value(k, ConnectionForms(omega, e)))


def mm_action(conn, form_h):
    """-1/2 Int beta_h(F_h ^ F_h) on a 4-torus."""
    alg = conn.algebra
    if alg.name not in _4D_ALGEBRAS:
        raise IdentityError(f"the 4d action needs so41 or so32, got {alg.name}")
    if conn.dim != 4:
        raise CartanError("the 4d action lives on a 4-torus")
    if form_h.support != "h_block":
        raise IdentityError("the 4d action takes a stabilizer-block form")
    f_h = curvature(conn).F_h
    val = -HALF * pair_integral(form_h, f_h, f_h)
    return _exact_value(4, val)


def cs_variation(a, da, form, h=Fraction(1, 10000)):
    """Directional derivative of S_CS^beta at A along dA.

    Returns (exact value of Int beta(dA ^ F), central difference at the
    rational step h).  Both are exact rationals; the central difference
    picks up exactly the h^2 cubic remainder.
    """
    exact = pair_integral(form, da, _field_strength(a))
    h = Fraction(h)
    plus = cs_action(a + da.scale(h), form).exact
    minus = cs_action(a - da.scale(h), form).exact
    fd = (plus - minus) / (2 * h)
    return exact, fd


# ---------------------------------------------------------------------------
# 4d topological terms and MM expansion
# ---------------------------------------------------------------------------

def topological_terms(omega):
    """(Int K(R ^ R), Int K(R ^ star R)) for a stabilizer connection on T^4.

    Both are transgressions of exact forms on the torus, so both rationals
    are zero for every omega; they are computed, not assumed.
    """
    alg = omega.algebra
    if alg.name not in _4D_ALGEBRAS:
        raise IdentityError("topological terms are checked on so41/so32")
    k = _scoped_form(killing_form, alg)
    r = _field_strength(omega)
    t1 = pair_integral(k, r, r)
    t2 = pair_integral(k, r, r.h_block_star())
    return t1, t2


def topological_variation_check(omega, delta, h=Fraction(1, 1000)):
    """Exact values and central-difference variations of both invariants."""
    h = Fraction(h)
    t1, t2 = topological_terms(omega)
    p1, p2 = topological_terms(omega + delta.scale(h))
    m1, m2 = topological_terms(omega - delta.scale(h))
    return {
        "tr_RR": t1,
        "tr_RstarR": t2,
        "d_tr_RR": (p1 - m1) / (2 * h),
        "d_tr_RstarR": (p2 - m2) / (2 * h),
    }


def _mm_pieces(conn, couplings):
    """Exact ingredients of the expansion of the generalized 4d action."""
    alg = conn.algebra
    k = _scoped_form(killing_form, alg)
    omega, e = conn.omega, conn.coframe
    r = _field_strength(omega)
    ee = lie_bracket_forms(e, e)
    c0, c1 = couplings.c0, couplings.c1
    t_rr, t_rsr = topological_terms(omega)
    top = -HALF * (c0 * t_rr + c1 * t_rsr)
    expansion = -(c1 * HALF * pair_integral(k, ee, r.h_block_star())
                  + c1 * Fraction(1, 8) * pair_integral(k, ee, ee.h_block_star())
                  + c0 * HALF * pair_integral(k, ee, r))
    return top, expansion


# ---------------------------------------------------------------------------
# pointwise grid machinery (numeric pipeline)
# ---------------------------------------------------------------------------
#
# Pointwise arrays are points-last (see calculus._eval_on_points): a 1-form
# is (3 mu, dim, npts), a 2-form (3 pairs, dim, npts), a density (npts,).

_PAIRS3 = ((0, 1), (0, 2), (1, 2))
_PAIR_MU, _PAIR_NU = [0, 0, 1], [1, 2, 2]
# the top 3-form component of beta(1-form ^ 2-form) pairs direction mu with
# its complementary 2-form component: (0, (1,2), +), (1, (0,2), -), (2, (0,1), +)
_TOP_PAIR = [2, 1, 0]
_TOP_SIGN = np.array([1.0, -1.0, 1.0])[:, None, None]
# (-1)^(p+q) over pairs p, q: the signs of the complementary minors
_MINOR_SIGN = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0],
                        [1.0, -1.0, 1.0]])[:, :, None]

# grid points per block of the TMG quadrature: bounds the pointwise arrays
# (a few MB per block) whatever the grid size
QUADRATURE_BLOCK = 4096


class _Grid3:
    """Uniform tensor grid on T^3 with vectorized pointwise Lie algebra."""

    def __init__(self, alg, n):
        self.alg = alg
        ax = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        mesh = np.meshgrid(ax, ax, ax, indexing="ij")
        self.axes = [m.ravel() for m in mesh]
        self.npts = self.axes[0].size
        d = alg.dim
        # c[c, a*d + b] = C_ab^c: c @ (u_a v_b over a, b) is [u, v]^c
        self.c = np.array([[float(alg.structure[a][b][c])
                            for a in range(d) for b in range(d)]
                           for c in range(d)])

    def blocks(self):
        """The grid axes in consecutive slices of QUADRATURE_BLOCK points."""
        for start in range(0, self.npts, QUADRATURE_BLOCK):
            yield [ax[start:start + QUADRATURE_BLOCK] for ax in self.axes]

    def two_form_bracket(self, u, v):
        """[u, v] for 1-form arrays (3, dim, npts) -> (3 pairs, dim, npts)."""
        d = self.alg.dim
        # C_ab^c = -C_ba^c makes the two terms of [u, u]_{mu nu} equal
        twice = v is u
        out = np.empty(u.shape)
        for row, (mu, nu) in enumerate(_PAIRS3):
            # one (dim, dim, npts) product at a time, contracted by a matmul
            outer = u[mu, :, None] * v[nu]
            if not twice:
                outer -= u[nu, :, None] * v[mu]
            out[row] = self.c @ outer.reshape(d * d, -1)
        return 2.0 * out if twice else out

    def pair_top(self, one, two, gram):
        """beta(1-form ^ 2-form) top component, shape (npts,)."""
        g = np.asarray(gram, dtype=float)
        signed = two[_TOP_PAIR] * _TOP_SIGN
        return ((g.T @ one) * signed).sum(axis=(0, 1))

    def mean(self, vals):
        """Grid quadrature, reported as a multiple of (2 pi)^3."""
        return float(vals.mean())


def _eval_forms_at(forms, axes):
    """Points-first values of LieForms: one (npts, ncomp, dim) array per form."""
    return [np.moveaxis(v, -1, 0) for v in _eval_on_points(forms, axes)]


# ---------------------------------------------------------------------------
# torsion-free spin connection
# ---------------------------------------------------------------------------

class LeviCivitaConnection:
    """Pointwise torsion-free stabilizer connection determined by a coframe.

    At each point the linear system (de)^a_{mu nu} + [w_mu, e_nu]^a
    - [w_nu, e_mu]^a = 0 is solved for the stabilizer coefficients of w;
    derivatives of w come from differentiating the same system, so no
    finite differencing enters anywhere.  A solve refuses points where
    |det e| <= tol.

    The solve is closed-form.  Writing w_mu = e^c_mu W_c turns the system
    matrix into Lambda^2(e) K0, with K0 the constant 9x9 matrix of
    W -> [W_c, P_b] - [W_b, P_c] on pairs c < b (fixed by C_hpp), so

        w = e . K0^-1 . Lambda^2(e^-1) . (-de)

    K0 is built and inverted exactly once per connection; Lambda^2(e^-1)
    comes from the entries of e over det e (complementary minors).
    """

    def __init__(self, e, tol=1e-8):
        alg = e.algebra
        if alg.spacetime_dim != 3 or e.dim != 3:
            raise CartanError("torsion-free solve implemented on T^3")
        if any(k[0] not in set(alg.p_indices) for k in e.comps):
            raise CartanError("coframe must be translation-valued")
        self.e = e
        self.alg = alg
        self.tol = tol
        self.de = exterior_d(e)
        # e, de and their d/dx_sigma (exact spectral derivatives), in the
        # order solve unpacks them
        self._forms = ([e, self.de]
                       + [self._deriv_form(e, s) for s in range(3)]
                       + [self._deriv_form(self.de, s) for s in range(3)])
        # C[h_i, p_b -> p_a], exact
        h, p = alg.h_indices, alg.p_indices
        c_hpp = [[[alg.structure[hi][pb][pa] for pa in p] for pb in p]
                 for hi in h]
        # ad[mu, (b, a)] = sum_i w[mu, i] C[i, b, a] is self._ad @ w
        self._ad = np.array(c_hpp, dtype=float).reshape(3, 9).T
        # K0 rows (pair (c, b), a), columns (c', i):
        # delta_{c'c} C[i, b, a] - delta_{c'b} C[i, c, a]
        k0 = [[0] * 9 for _ in range(9)]
        for row, (c, b) in enumerate(_PAIRS3):
            for a in range(3):
                for i in range(3):
                    k0[3 * row + a][3 * c + i] += c_hpp[i][b][a]
                    k0[3 * row + a][3 * b + i] -= c_hpp[i][c][a]
        try:
            self._k0_inv = np.array(exactla.inverse(k0), dtype=float)
        except ZeroDivisionError:
            raise CartanError(
                f"{alg.name}: the torsion map K0 is singular, so a coframe "
                f"does not determine a unique torsion-free connection") from None

    @staticmethod
    def _deriv_form(w, sigma):
        comps = {}
        for key, poly in w.comps.items():
            d = poly.deriv(sigma)
            if not d.is_zero():
                comps[key] = d
        return w._new(w.degree, comps)

    def _torsion_map(self, w, f):
        """[w_mu, f_nu] - [w_nu, f_mu] in p-coordinates, (..., pair, a, npts).

        w is (3 mu, 3 i, npts); f is (..., 3 mu, 3 b, npts).
        """
        ad = (self._ad @ w).reshape(3, 3, 3, -1)      # (mu, b, a, npts)
        return (np.einsum("...qbn,qban->...qan", f[..., _PAIR_NU, :, :],
                          ad[_PAIR_MU])
                - np.einsum("...qbn,qban->...qan", f[..., _PAIR_MU, :, :],
                            ad[_PAIR_NU]))

    def _apply_inverse(self, e_arr, lam_inv, rhs):
        """x with system(e) x = rhs, for rhs (..., pair, a, npts).

        Returns (..., mu, i, npts): e . K0^-1 . Lambda^2(e^-1) . rhs.
        """
        y = np.einsum("pqn,...qan->...pan", lam_inv, rhs)
        big_w = (self._k0_inv @ y.reshape(y.shape[:-3] + (9, -1))).reshape(y.shape)
        return np.einsum("mcn,...cin->...min", e_arr, big_w)

    def solve(self, axes):
        """Solve for w and its coordinate derivatives on given points.

        Returns dict with points-last arrays E (3 mu, 3 a, npts), dE (3
        pairs, 3 a, npts), w (3 mu, 3 h-coeff, npts) and dw (3 pairs, 3
        h-coeff, npts).
        """
        p = list(self.alg.p_indices)
        vals = [f[:, p] for f in _eval_on_points(self._forms, axes)]
        e_arr, de_arr = vals[0], vals[1]          # (mu, a, npts), (pair, a, npts)
        e_d = np.stack(vals[2:5])                 # (sigma, mu, a, npts)
        de_d = np.stack(vals[5:8])                # (sigma, pair, a, npts)
        det = _det_on_points(e_arr)
        dets = np.abs(det)
        if dets.size and dets.min() <= self.tol:
            k = int(dets.argmin())
            where = ", ".join(f"{float(ax[k]):.6g}" for ax in axes)
            raise CartanError(f"degenerate coframe: min |det e| = "
                              f"{dets[k]:.3e} at x = ({where})")
        # Lambda^2(e^-1)[p, q] = (-1)^(p+q) e[2-q, 2-p] / det e
        lam_inv = e_arr[::-1, ::-1].transpose(1, 0, 2) * (_MINOR_SIGN / det)
        w = self._apply_inverse(e_arr, lam_inv, -de_arr)
        # derivatives: system(e) dw_sigma = -d_sigma(de) - system(d_sigma e) w,
        # the three sigma as one stacked right-hand side
        rhs = -de_d - self._torsion_map(w, e_d)
        dw_sigma = self._apply_inverse(e_arr, lam_inv, rhs)
        # curl -> dw as a 2-form (pair, i)
        dw = dw_sigma[_PAIR_MU, _PAIR_NU] - dw_sigma[_PAIR_NU, _PAIR_MU]
        return {"E": e_arr, "dE": de_arr, "w": w, "dw": dw}

    def omega_at(self, points):
        """Stabilizer coefficients of w at points, shape (npts, 3 mu, 3 i)."""
        axes = [np.asarray(points, dtype=float)[:, j] for j in range(3)]
        return np.moveaxis(self.solve(axes)["w"], -1, 0)

    def torsion_residual(self, points):
        """max |de + [w, e]| over probe points; solver self-check."""
        axes = [np.asarray(points, dtype=float)[:, j] for j in range(3)]
        sol = self.solve(axes)
        return float(np.abs(sol["dE"] + self._torsion_map(sol["w"], sol["E"])).max())


def levi_civita_connection(e, grid=16, tol=1e-8):
    """Torsion-free stabilizer connection for a nondegenerate coframe."""
    check = coframe_check(e, grid_size=grid, tol=tol)
    if not check["nondegenerate"]:
        raise CartanError(
            f"degenerate coframe: min |det e| = {check['min_abs_det']:.3e}")
    return LeviCivitaConnection(e, tol=tol)


# ---------------------------------------------------------------------------
# TMG and the numeric Chern-Simons pipeline
# ---------------------------------------------------------------------------

def _block_fields(lc, axes):
    """w, e, dw, de on the given points, each (3, alg.dim, npts)."""
    sol = lc.solve(axes)
    alg = lc.alg
    out = []
    for key, idx in (("w", alg.h_indices), ("E", alg.p_indices),
                     ("dw", alg.h_indices), ("dE", alg.p_indices)):
        full = np.zeros((3, alg.dim, sol[key].shape[-1]))
        full[:, list(idx)] = sol[key]
        out.append(full)
    return out


def _tmg_grid_data(lc, grid):
    """All pointwise fields entering the TMG-family functionals, whole grid."""
    g3 = _Grid3(lc.alg, grid)
    return (g3, *_block_fields(lc, g3.axes))


def _cs_density(g3, a, da, gram):
    aa = g3.two_form_bracket(a, a)
    return 0.5 * g3.pair_top(a, da, gram) + g3.pair_top(a, aa, gram) / 6.0


def _tmg_quadrature(lc, grid, mu, cs_terms=()):
    """Grid quadrature of S_TMG(e) and of S_CS^beta at A(e) or ~A(e).

    cs_terms lists (s, form) pairs: s = +1 for A(e) = w + e, s = -1 for
    ~A(e) = w - e.  The grid is walked in QUADRATURE_BLOCK-point blocks and
    each block's densities are summed.  Returns (S_TMG, [S_CS per term]),
    each a multiple of (2 pi)^3.
    """
    alg = lc.alg
    g3 = _Grid3(alg, grid)
    s_gram = np.array(_scoped_form(star_form, alg).gram, dtype=float)
    k_gram = np.array(_scoped_form(killing_form, alg).gram, dtype=float)
    cs_grams = [(float(s), np.array(form.gram, dtype=float))
                for s, form in cs_terms]
    inv_mu = float(1 / Fraction(mu))
    sums = np.zeros(1 + len(cs_grams))
    for axes in g3.blocks():
        w, e, dw, de = _block_fields(lc, axes)
        ww = g3.two_form_bracket(w, w)
        ee = g3.two_form_bracket(e, e)
        pal = (g3.pair_top(e, dw + 0.5 * ww, s_gram)
               + g3.pair_top(e, ee, s_gram) / 6.0)
        cs_w = (0.5 * g3.pair_top(w, dw, k_gram)
                + g3.pair_top(w, ww, k_gram) / 6.0)
        sums[0] += (inv_mu * cs_w - pal).sum()
        for i, (s, gram) in enumerate(cs_grams, 1):
            sums[i] += _cs_density(g3, w + s * e, dw + s * de, gram).sum()
    means = sums / g3.npts
    return float(means[0]), [float(m) for m in means[1:]]


def tmg_action(e, mu, grid=32, lc=None):
    """S_TMG(e) by spectral-accuracy quadrature on a uniform grid."""
    mu = Fraction(mu)
    if mu == 0:
        raise ValueError("topological mass mu must be nonzero")
    lc = lc or levi_civita_connection(e)
    val, _ = _tmg_quadrature(lc, grid, mu)
    return ActionValue(torus_dim=3, mode="numeric", exact=None, numeric=val,
                       quadrature_grid=grid)


def tmg_refinement_report(e, mu, grids=(4, 8, 16), reference_grid=48):
    """Quadrature errors against a fine reference; spectral decay expected."""
    lc = levi_civita_connection(e)
    ref = tmg_action(e, mu, grid=reference_grid, lc=lc).numeric
    rows = []
    for g in grids:
        v = tmg_action(e, mu, grid=g, lc=lc).numeric
        rows.append({"grid": g, "value": v, "error": abs(v - ref)})
    return {"reference_grid": reference_grid, "reference": ref, "rows": rows}


def cs_action_numeric(a, form, grid=32):
    """Quadrature evaluation of the exact Chern-Simons pipeline."""
    if a.dim != 3:
        raise CartanError("numeric CS evaluation lives on T^3")
    g3 = _Grid3(a.algebra, grid)
    a_arr, da_arr = _eval_on_points([a, exterior_d(a)], g3.axes)
    val = g3.mean(_cs_density(g3, a_arr, da_arr, form.gram))
    return ActionValue(torus_dim=3, mode="numeric", exact=None, numeric=val,
                       quadrature_grid=grid)


# ---------------------------------------------------------------------------
# bundled analytic coframes
# ---------------------------------------------------------------------------

def analytic_coframe(alg, seed=0, amplitude=Fraction(1, 10), cutoff=1):
    """Identity coframe plus a small seeded harmonic perturbation.

    Perturbation coefficients are bounded by `amplitude`, which keeps every
    grid determinant near 1 and the torsion-free solve well conditioned.
    """
    if alg.spacetime_dim != 3:
        raise CartanError("bundled coframes are 3d")
    rng = _rng_for(seed, "coframe", alg.name, cutoff)
    amplitude = Fraction(amplitude)
    comps = {}
    for a, lie_idx in enumerate(alg.p_indices):
        for mu in range(3):
            poly = TrigPoly.constant(3, 1) if a == mu else TrigPoly.zero(3)
            k = tuple(rng.randint(-cutoff, cutoff) for _ in range(3))
            re = amplitude * Fraction(rng.randint(-3, 3), 3)
            im = 0 if all(x == 0 for x in k) else amplitude * Fraction(rng.randint(-3, 3), 3)
            poly = poly + TrigPoly.harmonic(3, k, re, im)
            if not poly.is_zero():
                comps[(lie_idx, (mu,))] = poly
    return LieForm(alg, 3, 1, comps)


# ---------------------------------------------------------------------------
# identity reports
# ---------------------------------------------------------------------------

def _require(condition, message):
    if not condition:
        raise IdentityError(message)


def _gram_blocks_zero(form, rows, cols):
    return all(form.gram[i][j] == 0 for i in rows for j in cols)


def identity_residual(identity_id, alg, seed, couplings=None, cutoff=1,
                      grid=32):
    """Evaluate both sides of one named identity on seeded random fields.

    Exact identities return the rational residual (pass iff exactly zero);
    the TMG identities return a relative float residual against 1e-8.
    """
    couplings = couplings or CouplingConstants()
    if identity_id not in IDENTITY_IDS:
        raise IdentityError(f"unknown identity {identity_id!r}")
    digest = (f"{identity_id}/{alg.name}/seed={seed}"
              f"/c0={couplings.c0}/c1={couplings.c1}/mu={couplings.mu}"
              f"/K={cutoff}")

    fields = _field_set(alg, seed, cutoff)

    if identity_id in ("CS_NULL", "CS_PERP", "EINSTEIN_CS", "TWO_CS_SUM",
                       "TWO_CS_DIFF"):
        _require(alg.name in _3D_ALGEBRAS,
                 f"{identity_id} needs a 3d algebra, got {alg.name}")
        form = _scoped_form(invariant_form, alg, couplings.c0, couplings.c1)
        h, p = alg.h_indices, alg.p_indices
        if identity_id == "CS_NULL":
            _require(_gram_blocks_zero(form, h, h) and _gram_blocks_zero(form, p, p),
                     f"CS_NULL needs a form with h-h and p-p blocks zero; "
                     f"(c0, c1) = ({couplings.c0}, {couplings.c1}) on "
                     f"{alg.name} fails that hypothesis")
        elif identity_id == "CS_PERP":
            _require(_gram_blocks_zero(form, h, p),
                     f"CS_PERP needs a form with the h-p block zero; "
                     f"(c0, c1) = ({couplings.c0}, {couplings.c1}) on "
                     f"{alg.name} fails that hypothesis")
        f = fields.connection
        cs_a = _cs_value(form, f.a, f.da, f.aa)
        if identity_id in ("TWO_CS_SUM", "TWO_CS_DIFF"):
            cs_at = _cs_value(form, f.a_t, f.da_t, f.aa_t)
        if identity_id == "CS_NULL":
            residual = cs_a - _palatini_value(form, f)
        elif identity_id == "CS_PERP":
            residual = cs_a - _cs_omega_torsion_value(form, f)
        else:
            k = _scoped_form(killing_form, alg)
            s = _scoped_form(star_form, alg)
            if identity_id == "EINSTEIN_CS":
                residual = cs_a - (couplings.c1 * _palatini_value(s, f)
                                   + couplings.c0 * _cs_omega_torsion_value(k, f))
            elif identity_id == "TWO_CS_SUM":
                residual = (HALF * (cs_a + cs_at)
                            - couplings.c0 * _cs_omega_torsion_value(k, f))
            else:  # TWO_CS_DIFF
                residual = (HALF * (cs_a - cs_at)
                            - couplings.c1 * _palatini_value(s, f))
        return IdentityReport(identity_id, alg.name, seed, couplings,
                              residual, residual == 0, "exact", None, digest)

    if identity_id == "QUARTIC_ZERO":
        _require(alg.name in _4D_ALGEBRAS,
                 f"QUARTIC_ZERO needs so41 or so32, got {alg.name}")
        e = fields.random_form(1, "p", 0.5, dim=4)
        ee = lie_bracket_forms(e, e)
        residual = pair_integral(_scoped_form(killing_form, alg), ee, ee)
        return IdentityReport(identity_id, alg.name, seed, couplings,
                              residual, residual == 0, "exact", None, digest)

    if identity_id == "MM_EXPANSION":
        _require(alg.name in _4D_ALGEBRAS,
                 f"MM_EXPANSION needs so41 or so32, got {alg.name}")
        conn = CartanConnection(fields.random_form(1, "h", 0.35, dim=4),
                                fields.random_form(1, "p", 0.5, dim=4))
        form_h = _scoped_form(invariant_form, alg, couplings.c0, couplings.c1)
        lhs = mm_action(conn, form_h).exact
        top, expansion = _mm_pieces(conn, couplings)
        residual = lhs - top - expansion
        return IdentityReport(identity_id, alg.name, seed, couplings,
                              residual, residual == 0, "exact", None, digest)

    # numeric TMG identities
    _require(alg.name in _TMG_ALGEBRAS,
             f"{identity_id} needs so31, so22 or so4, got {alg.name}")
    _require(couplings.mu is not None, f"{identity_id} needs mu")
    mu = couplings.mu
    lc = fields.levi_civita
    digest += f"/grid={grid}"

    if identity_id == "CS_TMG":
        # S_TMG(e) = S_CS^beta(A(e)) for beta = (1/mu) K - S
        form = _scoped_form(invariant_form, alg, 1 / mu, -1)
        tmg, (rhs,) = _tmg_quadrature(lc, grid, mu, [(1, form)])
    else:  # TWO_CS_TMG
        c0 = couplings.c0
        _require(c0 != 0, "TWO_CS_TMG needs c0 != 0 in the normalized form")
        form = _scoped_form(invariant_form, alg, c0, 1)
        tmg, (cs_a, cs_at) = _tmg_quadrature(lc, grid, mu,
                                             [(1, form), (-1, form)])
        coeff = float(1 / (mu * c0))
        rhs = -0.5 * (1.0 - coeff) * cs_a + 0.5 * (1.0 + coeff) * cs_at
    scale = max(abs(tmg), abs(rhs), 1e-12)
    residual = abs(tmg - rhs) / scale
    return IdentityReport(identity_id, alg.name, seed, couplings, residual,
                          residual < 1e-8, "numeric", 1e-8, digest)
