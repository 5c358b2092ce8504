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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exactla
from .algebra import (AlgebraError, _per_algebra, invariant_form,
                      killing_form, star_form)
from .calculus import (
    LieForm,
    exterior_d,
    lie_bracket_forms,
    pair_integral,
    random_form,
    _det_on_points,
    _lattice_axis,
    _point_coefficients,
    _rng_for,
    _trig_table,
    _wrap,
)
from .cartan import (
    CartanConnection,
    CartanError,
    _DET_TOL,
    _field_strength,
    _min_abs_det,
    _pair_sum,
    _require_coframe,
)

HALF = Fraction(1, 2)


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
    A TMG value carries `min_abs_det`, the least |det e| on its quadrature
    grid, as its conditioning.
    """

    torus_dim: int
    mode: str                    # "exact" | "numeric"
    exact: Fraction | None
    numeric: float
    quadrature_grid: int | None = None
    min_abs_det: float | None = None

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
    # {id(alg): (alg, form)}; no part of the value
    _forms: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

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

    def invariant_form(self, alg):
        """The invariant form (c0, c1) of alg, kept per algebra object: a
        battery shares one couplings object among all seeds of an
        (identity, algebra, coupling row), and the lookup key of
        _per_algebra hashes both Fractions on every call."""
        hit = self._forms.get(id(alg))
        if hit is None:     # the entry holds alg, so its id stays valid
            hit = self._forms[id(alg)] = (
                alg, _per_algebra(invariant_form, alg, self.c0, self.c1))
        return hit[1]

    @cached_property
    def digest_tail(self):
        """The couplings part of an identity's inputs digest."""
        return f"/c0={self.c0}/c1={self.c1}/mu={self.mu}"

    @cached_property
    def _strings(self):
        return {
            "c0": str(self.c0),
            "c1": str(self.c1),
            "mu": None if self.mu is None else str(self.mu),
            "gamma": None if self.gamma is None else str(self.gamma),
        }

    def as_dict(self):
        """The couplings as strings (None where unset): a new dict per
        call, formatted once per couplings object."""
        return dict(self._strings)


def couplings_from_immirzi(gamma):
    """The generalized 4d form labeling (c0, c1) = (1, 1/gamma)."""
    gamma = Fraction(gamma)
    if gamma == 0:
        raise ValueError("Immirzi parameter gamma must be nonzero")
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


_3D_ALGEBRAS = ("so31", "iso21", "so22", "so4", "iso3")
_4D_ALGEBRAS = ("so41", "so32")

EXACT_3D_IDENTITIES = ("CS_NULL", "CS_PERP", "EINSTEIN_CS", "TWO_CS_SUM",
                       "TWO_CS_DIFF")
NUMERIC_IDENTITIES = ("CS_TMG", "TWO_CS_TMG")
# identity id -> the algebras it is defined on; the one place that says so
IDENTITY_ALGEBRAS = {
    **dict.fromkeys(EXACT_3D_IDENTITIES, _3D_ALGEBRAS),
    "QUARTIC_ZERO": _4D_ALGEBRAS,
    "MM_EXPANSION": _4D_ALGEBRAS,
    # TMG at every sign of Lambda: iso21 and iso3 are its Lambda = 0 cases
    **dict.fromkeys(NUMERIC_IDENTITIES, _3D_ALGEBRAS),
}
IDENTITY_IDS = tuple(IDENTITY_ALGEBRAS)


# ---------------------------------------------------------------------------
# shared fields, the run scope and the per-algebra cache
# ---------------------------------------------------------------------------

# field density of the random connection behind the 3d CS identities
_CS_DENSITY = 0.6


class FieldSet:
    """The seeded fields of one (algebra, seed, cutoff), each built once.

    Holds the random forms by (degree, support, density, dim), the random
    Cartan connection of the 3d CS identities with its derived forms and
    functional values, and the torsion-free connection of the analytic
    coframe (TMG identities) with, per grid, only its moment matrix M and
    min |det e|: each grid is solved once, block by block, at every size.
    """

    def __init__(self, alg, seed, cutoff=1):
        self.alg, self.seed, self.cutoff = alg, seed, cutoff
        self._random = {}
        self._moments = {}

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
        """The random Cartan connection omega + e."""
        return CartanConnection(self.random_form(1, "h", _CS_DENSITY),
                                self.random_form(1, "p", _CS_DENSITY))

    @cached_property
    def levi_civita(self):
        return levi_civita_connection(
            analytic_coframe(self.alg, seed=self.seed, cutoff=self.cutoff))

    def tmg_moments(self, grid):
        """_tmg_moments of levi_civita solved on the grid: (M, min |det e|),
        kept per grid, so the TMG checks of one grid solve it once and
        then only contract M."""
        if grid not in self._moments:
            self._moments[grid] = _tmg_moments(
                self.alg, _solved_blocks(self.levi_civita, grid))
        return self._moments[grid]


_SCOPE = contextvars.ContextVar("cartanforms_run_scope", default=None)


@contextlib.contextmanager
def run_scope():
    """Share one field set between the checks run inside.

    Only one field set is kept: a check on another (algebra, seed, cutoff)
    replaces it, so callers group their checks by field set.  It is
    dropped when the block exits.
    """
    token = _SCOPE.set([None])          # the one slot of the live field set
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _field_set(alg, seed, cutoff):
    live = _SCOPE.get()
    if live is None:
        return FieldSet(alg, seed, cutoff)
    if live[0] is None or not live[0].matches(alg, seed, cutoff):
        live[0] = FieldSet(alg, seed, cutoff)
    return live[0]


# ---------------------------------------------------------------------------
# exact action functionals
# ---------------------------------------------------------------------------

def cs_action(a, form):
    """S_CS^beta(A) = 1/2 Int beta(A ^ dA) + 1/6 Int beta(A ^ [A,A])."""
    if a.degree != 1:
        raise CartanError("Chern-Simons argument must be a 1-form")
    if a.dim != 3:
        raise CartanError("Chern-Simons action lives on a 3-torus")
    conn = CartanConnection(a.h_part(), a.p_part())
    return _exact_value(3, conn.cs_a(form))


def _connection_3d(omega, e):
    """The CartanConnection omega + e, refused off T^3."""
    conn = CartanConnection(omega, e)
    if conn.dim != 3:
        raise CartanError("the 3d Cartan actions live on a 3-torus")
    return conn


def palatini_action(omega, e):
    """Int S(e ^ R) + 1/6 Int S(e ^ [e,e]) with the pure star form S."""
    f = _connection_3d(omega, e)
    s = _per_algebra(star_form, omega.algebra)
    return _exact_value(3, f.palatini(s))


def torsion_pairing(omega, e):
    """1/2 Int K(e ^ d_omega e)."""
    f = _connection_3d(omega, e)
    k = _per_algebra(killing_form, omega.algebra)
    return _exact_value(3, f.torsion(k))


def cs_omega_torsion_action(omega, e):
    """S_CS(omega) + torsion pairing; the involution-even half of S_CS^K."""
    f = _connection_3d(omega, e)
    k = _per_algebra(killing_form, omega.algebra)
    return _exact_value(3, f.cs_omega_torsion(k))


def mm_action(conn, form_h):
    """-1/2 Int beta_h(F_h ^ F_h) on a 4-torus."""
    alg = conn.algebra
    if alg.name not in _4D_ALGEBRAS:
        raise IdentityError(f"the 4d action needs so41 or so32, got {alg.name}")
    if conn.dim != 4:
        raise CartanError("the 4d action lives on a 4-torus")
    if form_h.support != "h_block":
        raise IdentityError("the 4d action takes a stabilizer-block form")
    f_h = _field_strength(conn.full()).h_part()
    val = -HALF * pair_integral(form_h, f_h, f_h)
    return _exact_value(4, val)


def cs_variation(a, da, form):
    """Directional derivative of S_CS^beta at A along dA.

    Returns (exact value of Int beta(dA ^ F), central difference at the
    rational step h = 1/10000).  Both are exact rationals; the central
    difference picks up exactly the h^2 cubic remainder.
    """
    exact = pair_integral(form, da, _field_strength(a))
    h = Fraction(1, 10000)
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
    if omega.algebra.name not in _4D_ALGEBRAS:
        raise IdentityError("topological terms are checked on so41/so32")
    return _topological_pairings(_field_strength(omega))


def _topological_pairings(r):
    """(Int K(R ^ R), Int K(R ^ star R)) of a curvature R."""
    k = _per_algebra(killing_form, r.algebra)
    return pair_integral(k, r, r), pair_integral(k, r, r.h_block_star())


def topological_variation_check(omega, delta):
    """Exact values and central-difference variations of both invariants,
    at the rational step h = 1/1000."""
    h = Fraction(1, 1000)
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
    k = _per_algebra(killing_form, conn.algebra)
    omega, e = conn.omega, conn.coframe
    r = _field_strength(omega)
    ee = lie_bracket_forms(e, e)
    c0, c1 = couplings.c0, couplings.c1
    t_rr, t_rsr = _topological_pairings(r)
    top = -HALF * (c0 * t_rr + c1 * t_rsr)
    expansion = -(c1 * HALF * pair_integral(k, ee, r.h_block_star())
                  + c1 * Fraction(1, 8) * pair_integral(k, ee, ee.h_block_star())
                  + c0 * HALF * pair_integral(k, ee, r))
    return top, expansion


# ---------------------------------------------------------------------------
# pointwise grid machinery (numeric pipeline)
# ---------------------------------------------------------------------------
#
# Pointwise arrays are points-last (see calculus._trig_table): a 1-form
# is (3 mu, rows, npts), a 2-form (3 pairs, rows, npts).  The rows are the
# Lie coefficients; the quadrature carries the h and p coefficients of its
# fields as separate blocks of rows.

_PAIRS3 = ((0, 1), (0, 2), (1, 2))
_PAIR_MU, _PAIR_NU = [0, 0, 1], [1, 2, 2]
# the top 3-form component of beta(1-form ^ 2-form) pairs direction mu with
# its complementary 2-form component: (0, (1,2), +), (1, (0,2), -), (2, (0,1), +)
_TOP_PAIR = [2, 1, 0]
_TOP_SIGN = np.array([1.0, -1.0, 1.0])[:, None, None]
# (-1)^(p+q) over pairs p, q: the signs of the complementary minors
_MINOR_SIGN = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0],
                        [1.0, -1.0, 1.0]])[:, :, None]

# grid points per block of the lattice quadrature: bounds the working arrays
# of one block (a few MB) whatever the grid size
QUADRATURE_BLOCK = 4096


def _float_tables(alg):
    """The C_hhh, C_pph and C_hpp blocks of the structure table, as floats.

    Each is laid out as t[c, b, a] = C_ab^c, so t @ u_a is ad(u)[c, b]:
    [h,h] -> h, [p,p] -> h and [h,p] -> p, the only nonzero brackets of a
    symmetric pair.
    """
    s = np.array(alg.structure, dtype=float)
    h, p = alg.h_indices, alg.p_indices
    tables = tuple(np.ascontiguousarray(s[np.ix_(x, y, z)].transpose(2, 1, 0))
                   for x, y, z in ((h, h, h), (p, p, h), (h, p, p)))
    for t in tables:
        t.flags.writeable = False       # shared by every caller
    return tables


def _bracket(table, u, v, out=None):
    """[u_mu, v_nu] - [u_nu, v_mu] for 1-form arrays u (3, m, npts) and
    v (..., 3, k, npts), as (..., 3 pairs, r, npts), written into `out`
    when given.

    table is (r, k, m) with table[c, b, a] = C_ab^c.  One matmul gives
    ad(u_mu)[c, b] = C_ab^c u_mu^a for all three mu; each pair is then a
    contraction over b at every point.  When v is u the table must be
    antisymmetric in (a, b), as the [h,h] and [p,p] blocks are, and a pair
    is one contraction.
    """
    r, k, m = table.shape
    ad = (table.reshape(r * k, m) @ u).reshape(3, r, k, -1)
    # C_ab^c = -C_ba^c makes the two terms of [u, u]_{mu nu} equal
    twice = v is u
    if out is None:
        out = np.empty(v.shape[:-3] + (3, r, u.shape[-1]))
    for row, (mu, nu) in enumerate(_PAIRS3):
        pair = out[..., row, :, :]
        np.einsum("cbn,...bn->...cn", ad[mu], v[..., nu, :, :], out=pair)
        if not twice:
            pair -= np.einsum("cbn,...bn->...cn", ad[nu], v[..., mu, :, :])
    if twice:
        out *= 2.0
    return out


# ---------------------------------------------------------------------------
# torsion-free spin connection
# ---------------------------------------------------------------------------

def _torsion_tables(alg):
    """K0^-1 (9, 9) as floats.

    K0 rows (pair (c, b), a), columns (c', i):
    delta_{c'c} C[i, b, a] - delta_{c'b} C[i, c, a], with C[h_i, p_b -> p_a]
    the exact C_hpp; it is inverted exactly.
    """
    c_hpp = np.array(alg.structure)[np.ix_(alg.h_indices, alg.p_indices,
                                           alg.p_indices)]     # [i, b, a]
    k0 = np.zeros((3, 3, 3, 3), dtype=object)   # [pair, a, c', i], exact
    for row, (c, b) in enumerate(_PAIRS3):
        k0[row, :, c] += c_hpp[:, b].T
        k0[row, :, b] -= c_hpp[:, c].T
    try:
        k0_inv = np.array(exactla.inverse(k0.reshape(9, 9).tolist()),
                          dtype=float)
    except ZeroDivisionError:
        raise CartanError(
            f"{alg.name}: the torsion map K0 is singular, so a coframe "
            f"does not determine a unique torsion-free connection") from None
    k0_inv.flags.writeable = False      # shared
    return k0_inv


class LeviCivitaConnection:
    """Pointwise torsion-free stabilizer connection determined by a coframe.

    At each point the linear system (de)^a_{mu nu} + [w_mu, e_nu]^a
    - [w_nu, e_mu]^a = 0 is solved for the stabilizer coefficients of w;
    derivatives of w come from differentiating the same system, so no
    finite differencing enters anywhere.  A solve refuses points where
    |det e| <= _DET_TOL.

    The solve is closed-form.  Writing w_mu = e^c_mu W_c turns the system
    matrix into Lambda^2(e) K0, with K0 the constant 9x9 matrix of
    W -> [W_c, P_b] - [W_b, P_c] on pairs c < b (fixed by C_hpp), so

        w = e . K0^-1 . Lambda^2(e^-1) . (-de)

    K0 is built and inverted exactly once per algebra object;
    Lambda^2(e^-1) comes from the entries of e over det e (complementary
    minors).  The p rows of e, de and their d/dx_sigma are one coefficient
    table over e's cos/sin modes, built once: d/dx_sigma maps the weights
    (A, B) at k to (k_sigma B, -k_sigma A).

    The constructor refuses a coframe off T^3, one that is not a
    translation-valued 1-form, then one with |det e| <= _DET_TOL on the
    16^3 lattice, read from e's rows of the table before K0 or any
    derivative is built.
    """

    def __init__(self, e):
        alg = e.algebra
        if alg.spacetime_dim != 3 or e.dim != 3:
            raise CartanError("torsion-free solve implemented on T^3")
        _require_coframe(e)
        self._freqs, coefs = _point_coefficients([e], list(alg.p_indices))
        min_det = _min_abs_det(self._freqs, coefs, 16)
        if min_det <= _DET_TOL:
            raise CartanError(
                f"degenerate coframe: min |det e| = {min_det:.3e}")
        self.e = e
        self.alg = alg
        self._k0_inv = _per_algebra(_torsion_tables, alg)
        self._c_hpp = _per_algebra(_float_tables, alg)[2]
        (e_c,) = coefs
        nf = len(self._freqs)
        k = self._freqs.T.reshape(3, 1, 1, nf)

        def deriv(c):
            # d/dx_sigma of (..., 2 nf) coefficients, (3 sigma, ..., 2 nf)
            return np.concatenate((k * c[..., nf:], -k * c[..., :nf]), axis=-1)

        e_d = deriv(e_c)
        de_c = e_d[_PAIR_MU, _PAIR_NU] - e_d[_PAIR_NU, _PAIR_MU]
        # (72, 2 nf): e, de, d_sigma e, d_sigma de, as solve splits them
        self._coefs = np.concatenate([c.reshape(-1, 2 * nf) for c in
                                      (e_c, de_c, e_d, deriv(de_c))])

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
        h-coeff, npts), and min_abs_det, the least |det e| on the points.
        Only the p rows of e, de and their derivatives are evaluated.
        """
        vals = self._coefs @ _trig_table(self._freqs, axes)
        e_arr, de_arr = vals[:18].reshape(2, 3, 3, -1)
        e_d, de_d = vals[18:].reshape(2, 3, 3, 3, -1)
        det = _det_on_points(e_arr)
        dets = np.abs(det)
        min_det = float(dets.min()) if dets.size else math.inf
        if min_det <= _DET_TOL:
            k = int(dets.argmin())
            where = ", ".join(f"{float(ax[k]):.6g}" for ax in axes)
            raise CartanError(f"degenerate coframe: min |det e| = "
                              f"{dets[k]:.3e} at x = ({where})")
        # Lambda^2(e^-1)[p, q] = (-1)^(p+q) e[2-q, 2-p] / det e
        lam_inv = e_arr[::-1, ::-1].transpose(1, 0, 2) * (_MINOR_SIGN / det)
        w = self._apply_inverse(e_arr, lam_inv, -de_arr)
        # derivatives: system(e) dw_sigma = -d_sigma(de) - system(d_sigma e) w,
        # the three sigma as one stacked right-hand side
        rhs = -de_d - _bracket(self._c_hpp, w, e_d)
        dw_sigma = self._apply_inverse(e_arr, lam_inv, rhs)
        # curl -> dw as a 2-form (pair, i)
        dw = dw_sigma[_PAIR_MU, _PAIR_NU] - dw_sigma[_PAIR_NU, _PAIR_MU]
        return {"E": e_arr, "dE": de_arr, "w": w, "dw": dw,
                "min_abs_det": min_det}

    def torsion_residual(self, points):
        """max |de + [w, e]| over probe points; solver self-check."""
        axes = [np.asarray(points, dtype=float)[:, j] for j in range(3)]
        sol = self.solve(axes)
        torsion = sol["dE"] + _bracket(self._c_hpp, sol["w"], sol["E"])
        return float(np.abs(torsion).max())


# the exported name of the constructor
levi_civita_connection = LeviCivitaConnection


# ---------------------------------------------------------------------------
# TMG and the numeric Chern-Simons pipeline
# ---------------------------------------------------------------------------

def _lattice_blocks(grid):
    """The grid^3 lattice, QUADRATURE_BLOCK points at a time: per block,
    one coordinate array per axis, from its flat lattice indices, first
    axis slowest, so nothing grid-sized is built.  Every quadrature walks
    these blocks, so a grid that is not a positive int is refused here."""
    if isinstance(grid, bool) or not isinstance(grid, (int, np.integer)) \
            or grid < 1:
        raise ValueError(f"grid must be a positive int, got {grid!r}")
    ax = _lattice_axis(grid)
    shape = (grid,) * 3
    for start in range(0, grid ** 3, QUADRATURE_BLOCK):
        flat = np.arange(start, min(start + QUADRATURE_BLOCK, grid ** 3))
        yield [ax[i] for i in np.unravel_index(flat, shape)]


def _solved_blocks(lc, grid):
    """Solve lc on the _lattice_blocks of the grid: (w, e, dw, de,
    min |det e|) per block, the h blocks w, dw and the p blocks e, de each
    (3, 3, npts); nothing is kept between blocks."""
    for axes in _lattice_blocks(grid):
        sol = lc.solve(axes)
        yield sol["w"], sol["E"], sol["dw"], sol["dE"], sol["min_abs_det"]


# column blocks of the TMG moment matrix
_DW, _WW, _EE, _DE, _WE = (slice(3 * i, 3 * i + 3) for i in range(5))


def _tmg_moments(alg, blocks):
    """(M, min |det e|) over solved blocks, as _solved_blocks yields them.

    M[a, b] is the grid mean of sum_mu sign_mu one_mu^a two_top(mu)^b (the
    top component of one ^ two) for the rows one = (w | e) and the
    columns two = (dw | [w,w] | [e,e] | de | [w,e]).  Each block's
    brackets are written into one (3 pairs, 15, npts) array and each
    direction mu is one matmul, so beta(one ^ two) for any gram over
    these rows and columns is the gram's contraction with a 3x3 block of
    M (see _walk_sums).
    """
    hhh, pph, hpp = _per_algebra(_float_tables, alg)
    moments = np.zeros((6, 15))
    npts, min_det = 0, math.inf
    for w, e, dw, de, block_det in blocks:
        one = np.concatenate((w, e), axis=1)
        two = np.empty((3, 15, w.shape[-1]))
        two[:, _DW] = dw
        _bracket(hhh, w, w, out=two[:, _WW])
        _bracket(pph, e, e, out=two[:, _EE])
        two[:, _DE] = de
        _bracket(hpp, w, e, out=two[:, _WE])
        for mu, top in enumerate(_TOP_PAIR):
            moments += _TOP_SIGN[mu] * (one[mu] @ two[top].T)
        npts += w.shape[-1]
        min_det = min(min_det, block_det)
    return moments / npts, min_det


def _walk_sums(alg, moments, gram):
    """The float (hh, hp, ph, pp) sums of CartanConnection's walks off M:
    the gram contracted with M's 3x3 blocks pairs w | e with dw, [w,w],
    [e,e] (h-valued), de and [w,e] (p-valued; [e, w] = [w, e] for
    1-forms, so (A; w, e) and (A; e, w) both read it).  Blocks the grading
    leaves empty are 0.0."""
    h, p = list(alg.h_indices), list(alg.p_indices)
    tiled = gram[np.ix_(h + p, h * 3 + p * 2)]
    (w_dw, w_ww, w_ee, w_de, w_we), (e_dw, e_ww, e_ee, e_de, e_we) = \
        (tiled * moments).reshape(2, 3, 5, 3).sum(axis=(1, 3)).tolist()
    we = (0.0, w_we, 0.0, e_we)
    return {"a_da": (w_dw, w_de, e_dw, e_de), "a_ww": (w_ww, 0.0, e_ww, 0.0),
            "a_ee": (w_ee, 0.0, e_ee, 0.0), "a_we": we, "a_ew": we}


def _tmg_value(alg, moments, mu):
    """S_TMG(e) = (1/mu) S_CS^K(omega) - S_Pal(omega, e), read off M."""
    read = CartanConnection.float_value
    k = _walk_sums(alg, moments, _per_algebra(killing_form, alg).gram_float)
    s = _walk_sums(alg, moments, _per_algebra(star_form, alg).gram_float)
    return float(1 / Fraction(mu)) * read("cs_omega", k) - read("palatini", s)


def tmg_action(e, mu, grid=32):
    """S_TMG(e) by spectral-accuracy quadrature on a uniform grid."""
    mu = CouplingConstants(mu=mu).mu       # refuses mu = 0
    lc = levi_civita_connection(e)
    moments, min_det = _tmg_moments(lc.alg, _solved_blocks(lc, grid))
    return ActionValue(torus_dim=3, mode="numeric", exact=None,
                       numeric=_tmg_value(lc.alg, moments, mu),
                       quadrature_grid=grid, min_abs_det=min_det)


def _lattice_moments(a, grid):
    """M of a 1-form A = omega + e over the _lattice_blocks of the grid;
    h_indices come first, so A's Lie rows are w | e.  A and dA are one
    coefficient table, evaluated block by block through _trig_table."""
    freqs, coefs = _point_coefficients([a, exterior_d(a)])
    table = np.concatenate([c.reshape(-1, 2 * len(freqs)) for c in coefs])
    vals = ((table @ _trig_table(freqs, axes)).reshape(2, 3, a.algebra.dim, -1)
            for axes in _lattice_blocks(grid))
    blocks = ((v[:, :3], v[:, 3:], dv[:, :3], dv[:, 3:], math.inf)
              for v, dv in vals)
    return _tmg_moments(a.algebra, blocks)[0]


def cs_action_numeric(a, form, grid=32):
    """S_CS^beta(A) by quadrature, for a 3d algebra: cs_a of
    CartanConnection.FUNCTIONALS read off A's moment matrix on the grid^3
    lattice, summed QUADRATURE_BLOCK points at a time."""
    if a.degree != 1:
        raise CartanError("Chern-Simons argument must be a 1-form")
    if a.dim != 3:
        raise CartanError("numeric CS evaluation lives on T^3")
    if a.algebra.spacetime_dim != 3:
        raise CartanError("numeric CS evaluation needs a 3d algebra")
    if form.algebra is not a.algebra:
        raise AlgebraError("bilinear form belongs to a different algebra")
    sums = _walk_sums(a.algebra, _lattice_moments(a, grid), form.gram_float)
    return ActionValue(torus_dim=3, mode="numeric", exact=None,
                       numeric=CartanConnection.float_value("cs_a", sums),
                       quadrature_grid=grid)


# ---------------------------------------------------------------------------
# bundled analytic coframes
# ---------------------------------------------------------------------------

# bound of the analytic coframe's perturbation coefficients
_COFRAME_AMPLITUDE = Fraction(1, 10)


def analytic_coframe(alg, seed=0, cutoff=1):
    """Identity coframe plus a small seeded harmonic perturbation.

    Perturbation coefficients are bounded by _COFRAME_AMPLITUDE, which keeps
    every grid determinant near 1 and the torsion-free solve well
    conditioned.

    Each component is 1 on the diagonal plus re cos(k.x) - im sin(k.x),
    with re = amplitude * rn/3 and im = amplitude * jn/3 for random
    integers rn, jn in [-3, 3].  With amplitude p/q, over the denominator
    6 q that is the integer pair (p rn, p jn) at k and (p rn, -p jn) at -k
    (2 p rn at k = 0), added straight into the component's numerators.
    """
    if alg.spacetime_dim != 3:
        raise CartanError("bundled coframes are 3d")
    rng = _rng_for(seed, "coframe", alg.name, cutoff)
    scale = _COFRAME_AMPLITUDE.numerator
    den = 6 * _COFRAME_AMPLITUDE.denominator
    zero = (0, 0, 0)
    comps = {}
    for a, lie_idx in enumerate(alg.p_indices):
        for mu in range(3):
            nums = {zero: (den, 0)} if a == mu else {}
            k = tuple(rng.randint(-cutoff, cutoff) for _ in range(3))
            rn = scale * rng.randint(-3, 3)
            if k == zero:
                nums[zero] = (nums.get(zero, (0, 0))[0] + 2 * rn, 0)
            else:
                jn = scale * rng.randint(-3, 3)
                nums[k] = (rn, jn)
                nums[tuple(-x for x in k)] = (rn, -jn)
            poly = _wrap(3, den, nums)
            if not poly.is_zero():
                comps[(lie_idx, (mu,))] = poly
    return LieForm(alg, 3, 1, comps)


# ---------------------------------------------------------------------------
# identity reports
# ---------------------------------------------------------------------------

def _require(condition, message):
    if not condition:
        raise IdentityError(message)


def _needs(covered, noun="algebra"):
    """How a refusal names the algebras `covered` of IDENTITY_ALGEBRAS."""
    if covered == _3D_ALGEBRAS:
        return f"a 3d {noun}"
    return ", ".join(covered[:-1]) + " or " + covered[-1]


def _exact_residual(identity_id, fields, couplings):
    """lhs - rhs of an exact identity on the field set, a Fraction."""
    alg, c0, c1 = fields.alg, couplings.c0, couplings.c1
    if identity_id == "QUARTIC_ZERO":
        e = fields.random_form(1, "p", 0.5, dim=4)
        ee = lie_bracket_forms(e, e)
        return pair_integral(_per_algebra(killing_form, alg), ee, ee)
    form = couplings.invariant_form(alg)
    if identity_id == "MM_EXPANSION":
        conn = CartanConnection(fields.random_form(1, "h", 0.35, dim=4),
                                fields.random_form(1, "p", 0.5, dim=4))
        top, expansion = _mm_pieces(conn, couplings)
        return mm_action(conn, form).exact - top - expansion
    # the 3d Chern-Simons splittings
    if identity_id == "CS_NULL" and not form.cs_null:
        raise IdentityError(
            f"CS_NULL needs a form with h-h and p-p blocks zero; "
            f"(c0, c1) = ({c0}, {c1}) on {alg.name} fails that hypothesis")
    if identity_id == "CS_PERP" and not form.cs_perp:
        raise IdentityError(
            f"CS_PERP needs a form with the h-p block zero; "
            f"(c0, c1) = ({c0}, {c1}) on {alg.name} fails that hypothesis")
    # lhs - rhs as (coefficient, functional value) integer pairs
    value = fields.connection.value
    cs_a = value("cs_a", form)
    if identity_id == "CS_NULL":
        terms = (((1, 1), cs_a), ((-1, 1), value("palatini", form)))
    elif identity_id == "CS_PERP":
        terms = (((1, 1), cs_a), ((-1, 1), value("cs_omega_torsion", form)))
    else:
        minus_c0 = (-c0.numerator, c0.denominator)
        minus_c1 = (-c1.numerator, c1.denominator)
        k, s = _per_algebra(killing_form, alg), _per_algebra(star_form, alg)
        if identity_id == "EINSTEIN_CS":
            terms = (((1, 1), cs_a), (minus_c1, value("palatini", s)),
                     (minus_c0, value("cs_omega_torsion", k)))
        elif identity_id == "TWO_CS_SUM":
            terms = (((1, 2), cs_a), ((1, 2), value("cs_a_t", form)),
                     (minus_c0, value("cs_omega_torsion", k)))
        else:   # TWO_CS_DIFF
            terms = (((1, 2), cs_a), ((-1, 2), value("cs_a_t", form)),
                     (minus_c1, value("palatini", s)))
    return Fraction(*_pair_sum(terms))


def _tmg_residual(identity_id, fields, couplings, grid):
    """|S_TMG - rhs| / scale of a TMG identity on the field set's grid."""
    _require(couplings.mu is not None, f"{identity_id} needs mu")
    _require(identity_id == "CS_TMG" or couplings.c0 != 0,
             "TWO_CS_TMG needs c0 != 0 in the normalized form")
    alg, mu, c0 = fields.alg, couplings.mu, couplings.c0
    # checks on one field set in a run scope share the moment matrix
    moments, _ = fields.tmg_moments(grid)
    tmg = _tmg_value(alg, moments, mu)
    read = CartanConnection.float_value
    if identity_id == "CS_TMG":
        # S_TMG(e) = S_CS^beta(A(e)) for beta = (1/mu) K - S
        form = _per_algebra(invariant_form, alg, 1 / mu, -1)
        rhs = read("cs_a", _walk_sums(alg, moments, form.gram_float))
    else:  # TWO_CS_TMG
        form = _per_algebra(invariant_form, alg, c0, 1)
        sums = _walk_sums(alg, moments, form.gram_float)
        coeff = float(1 / (mu * c0))
        rhs = (-0.5 * (1.0 - coeff) * read("cs_a", sums)
               + 0.5 * (1.0 + coeff) * read("cs_a_t", sums))
    scale = max(abs(tmg), abs(rhs), 1e-12)
    return abs(tmg - rhs) / scale


def identity_residual(identity_id, alg, seed, couplings=None, cutoff=1,
                      grid=32):
    """Evaluate both sides of one named identity on seeded random fields.

    Exact identities return the rational residual (pass iff exactly zero);
    the TMG identities return a relative float residual against 1e-8.
    An identity runs only on the algebras IDENTITY_ALGEBRAS gives it.
    """
    couplings = couplings or CouplingConstants()
    if identity_id not in IDENTITY_ALGEBRAS:
        raise IdentityError(f"unknown identity {identity_id!r}")
    covered = IDENTITY_ALGEBRAS[identity_id]
    if alg.name not in covered:
        raise IdentityError(
            f"{identity_id} needs {_needs(covered)}, got {alg.name}")
    digest = (f"{identity_id}/{alg.name}/seed={seed}{couplings.digest_tail}"
              f"/K={cutoff}")
    fields = _field_set(alg, seed, cutoff)
    if identity_id in NUMERIC_IDENTITIES:
        residual = _tmg_residual(identity_id, fields, couplings, grid)
        return IdentityReport(identity_id, alg.name, seed, couplings,
                              residual, residual < 1e-8, "numeric", 1e-8,
                              f"{digest}/grid={grid}")
    residual = _exact_residual(identity_id, fields, couplings)
    return IdentityReport(identity_id, alg.name, seed, couplings, residual,
                          residual == 0, "exact", None, digest)
