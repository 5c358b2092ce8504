"""Cartan connections modeled on symmetric spaces.

Curvature and its stabilizer/translation split, involution equivariance,
Bianchi residuals (all exact on the trig-poly pipeline), plus the numeric
side: coframe nondegeneracy scans, Maurer-Cartan model charts with a
finite-difference flatness certificate, and path holonomy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from .algebra import AlgebraError
from .calculus import (
    CalculusError,
    LieForm,
    covariant_d,
    exterior_d,
    lie_bracket_forms,
    _bracket_pairing_matrix,
    _d_pairing_matrix,
    _det_on_points,
    _gram_blocks,
    _json_int,
    _json_number,
    _lattice_axis,
    _load_json,
    _point_coefficients,
)

HALF = Fraction(1, 2)
# a coframe with |det e| <= _DET_TOL is degenerate: coframe_check reports
# it and the torsion-free solve refuses it
_DET_TOL = 1e-8
# terms of the exponential-derivative series; the factorial tail is far
# below float precision on desk-scale boxes
_MC_TERMS = 26
# step of the finite-difference flatness certificate
_FD_STEP = 4e-3


class CartanError(ValueError):
    pass


def _pair_sum(terms):
    """The sum of c v over (c, v) terms, with c and v integer pairs
    (numerator, denominator > 0), as an unreduced integer pair."""
    num, den = 0, 1
    for (cn, cd), (n, d) in terms:
        d *= cd
        num, den = num * d + cn * n * den, den * d
    return num, den


@dataclass(frozen=True)
class CartanConnection:
    """A = omega + e with omega stabilizer-valued and e translation-valued,
    with its exact Chern-Simons functionals.

    Each functional reads five beta-independent pairing matrices
    (calculus._PairingMatrix) of A, each walked on first use and kept: the
    derivative pairing (A, dA) and the bracket pairings (A; u, v) of
    [u, v] for u, v in {omega, e}.  The constructor checks that omega
    takes values in h and e in p, and h_indices come first, so the h | p
    row and column blocks of a walk are the pairings of omega or e, and
    of d omega or de.  The first time a functional reads a walk with an
    invariant form, the walk is contracted with the form's gram into its
    four block sums (hh, hp, ph, pp) over one denominator, and those are
    kept; each functional is then a short table of (coefficient, walk,
    block signs), ~A = omega - e included, so neither ~A, dA, d omega, de
    nor any bracket is formed.  Each functional value is kept too, once
    per invariant form, as a reduced integer pair (numerator,
    denominator).  Sums and values are keyed by the form object, not by
    (c0, c1), and each entry holds the form, so the id stays valid.  The
    quadrature reads the same table in floats (float_value).  The caches
    are not dataclass fields: equality, hash and repr are those of
    (omega, coframe).
    """

    omega: LieForm
    coframe: LieForm

    # functional -> its terms c Int beta(w ^ m) as (c as an integer pair,
    # walk, signs of its hh, hp, ph and pp blocks).  A bracket walk is read
    # by row blocks: its columns are the value indices of [u, v].  The
    # signs of cs_a_t are (-1) to the number of e among the row's operand,
    # and the column's for (A, dA) or u and v for (A; u, v); on a graded
    # table this is the involution, cs_a with the hp and ph blocks negated.
    FUNCTIONALS = {
        "cs_a": (((1, 2), "a_da", (1, 1, 1, 1)),
                 ((1, 6), "a_ww", (1, 1, 1, 1)),
                 ((1, 6), "a_we", (1, 1, 1, 1)),
                 ((1, 6), "a_ew", (1, 1, 1, 1)),
                 ((1, 6), "a_ee", (1, 1, 1, 1))),
        "cs_a_t": (((1, 2), "a_da", (1, -1, -1, 1)),
                   ((1, 6), "a_ww", (1, 1, -1, -1)),
                   ((1, 6), "a_we", (-1, -1, 1, 1)),
                   ((1, 6), "a_ew", (-1, -1, 1, 1)),
                   ((1, 6), "a_ee", (1, 1, -1, -1))),
        # (e, R) + 1/6 (e, [e,e]) with R = d omega + 1/2 [omega, omega]
        "palatini": (((1, 1), "a_da", (0, 0, 1, 0)),
                     ((1, 2), "a_ww", (0, 0, 1, 1)),
                     ((1, 6), "a_ee", (0, 0, 1, 1))),
        # 1/2 (e, d_omega e) with d_omega e = de + [omega, e]
        "torsion": (((1, 2), "a_da", (0, 0, 0, 1)),
                    ((1, 2), "a_we", (0, 0, 1, 1))),
        # S_CS^beta(omega) plus the torsion pairing
        "cs_omega_torsion": (((1, 2), "a_da", (1, 0, 0, 1)),
                             ((1, 6), "a_ww", (1, 1, 0, 0)),
                             ((1, 2), "a_we", (0, 0, 1, 1))),
        # S_CS^beta(omega) = 1/2 (omega, d omega) + 1/6 (omega, [omega, omega])
        "cs_omega": (((1, 2), "a_da", (1, 0, 0, 0)),
                     ((1, 6), "a_ww", (1, 0, 0, 0))),
    }

    def __post_init__(self):
        w, e = self.omega, self.coframe
        if w.algebra is not e.algebra:
            raise AlgebraError("omega and coframe valued in different algebras")
        if w.dim != e.dim:
            raise CalculusError("omega and coframe live on different tori")
        if w.degree != 1 or e.degree != 1:
            raise CartanError("connection components must be 1-forms")
        pset = set(w.algebra.p_indices)
        if any(key[0] in pset for key in w.comps):
            raise CartanError("omega must vanish on translation indices")
        if any(key[0] not in pset for key in e.comps):
            raise CartanError("coframe must vanish on stabilizer indices")
        object.__setattr__(self, "_sums", {})
        object.__setattr__(self, "_values", {})

    @property
    def algebra(self):
        return self.omega.algebra

    @property
    def dim(self):
        return self.omega.dim

    def full(self):
        """A = omega + coframe, formed once."""
        return self._a

    @cached_property
    def _a(self):
        return self.omega + self.coframe

    def involute(self):
        return CartanConnection(self.omega, -self.coframe)

    # -- the Chern-Simons functionals ---------------------------------------

    def value(self, name, form):
        """Functional `name` of FUNCTIONALS for the invariant form, as a
        reduced integer pair (numerator, denominator > 0), kept per form
        object."""
        key = (name, id(form))
        hit = self._values.get(key)
        if hit is None:
            terms = []
            for c, walk, (s0, s1, s2, s3) in self.FUNCTIONALS[name]:
                d, hh, hp, ph, pp = self._block_sums(walk, form)
                terms.append((c, (s0 * hh + s1 * hp + s2 * ph + s3 * pp, d)))
            num, den = _pair_sum(terms)
            g = math.gcd(num, den)
            hit = self._values[key] = (form, (num // g, den // g))
        return hit[1]

    @classmethod
    def float_value(cls, name, sums):
        """Functional `name` of FUNCTIONALS as a float, from the walks'
        float block sums (see actions._walk_sums), in the order of value."""
        total = 0.0
        for (cn, cd), walk, (s0, s1, s2, s3) in cls.FUNCTIONALS[name]:
            hh, hp, ph, pp = sums[walk]
            total += cn * (s0 * hh + s1 * hp + s2 * ph + s3 * pp) / cd
        return total

    def _block_sums(self, walk, form):
        """_gram_blocks of the walk and the form, kept per form object."""
        key = (walk, id(form))
        hit = self._sums.get(key)
        if hit is None:
            hit = self._sums[key] = (form, _gram_blocks(
                form, getattr(self, walk), len(form.algebra.h_indices)))
        return hit[1]

    def cs_a(self, form):
        """S_CS^beta(A)."""
        return Fraction(*self.value("cs_a", form))

    def cs_a_t(self, form):
        """S_CS^beta(~A)."""
        return Fraction(*self.value("cs_a_t", form))

    def palatini(self, form):
        """Int beta(e ^ R) + 1/6 Int beta(e ^ [e,e])."""
        return Fraction(*self.value("palatini", form))

    def torsion(self, form):
        """1/2 Int beta(e ^ d_omega e)."""
        return Fraction(*self.value("torsion", form))

    def cs_omega_torsion(self, form):
        """S_CS^beta(omega) plus the torsion pairing."""
        return Fraction(*self.value("cs_omega_torsion", form))

    # -- the five walks -----------------------------------------------------

    @cached_property
    def a_da(self):
        """(A, dA); its hh, hp, ph and pp blocks are (omega, d omega),
        (omega, de), (e, d omega) and (e, de)."""
        return _d_pairing_matrix(self._a, self._a)

    @cached_property
    def a_ww(self):
        """(A; omega, omega): the pairing of A with [omega, omega]."""
        return _bracket_pairing_matrix(self._a, self.omega, self.omega)

    @cached_property
    def a_we(self):
        return _bracket_pairing_matrix(self._a, self.omega, self.coframe)

    @cached_property
    def a_ew(self):
        # of 1-forms [e, omega] = [omega, e] only on an antisymmetric
        # table, so it is walked, not derived from a_we
        return _bracket_pairing_matrix(self._a, self.coframe, self.omega)

    @cached_property
    def a_ee(self):
        return _bracket_pairing_matrix(self._a, self.coframe, self.coframe)


@dataclass(frozen=True)
class CurvatureReport:
    """F and its split into corrected curvature (F_h) and torsion (F_p)."""

    F: LieForm
    F_h: LieForm
    F_p: LieForm
    R: LieForm


def _field_strength(a):
    """dA + (1/2)[A, A] for a degree-1 connection form A."""
    return exterior_d(a) + lie_bracket_forms(a, a).scale(HALF)


def curvature(conn):
    """F = dA + (1/2)[A, A], split by algebra indices; R = d omega + ..."""
    f = _field_strength(conn.full())
    return CurvatureReport(F=f, F_h=f.h_part(), F_p=f.p_part(),
                           R=_field_strength(conn.omega))


def involute_connection(conn):
    return conn.involute()


def bianchi_residuals(conn):
    """(d_A F, d_omega R, d_omega^2 e + [e, R]); all exactly zero."""
    rep = curvature(conn)
    a = conn.full()
    d_a_f = covariant_d(a, rep.F)
    d_w_r = covariant_d(conn.omega, rep.R)
    d2e = covariant_d(conn.omega, covariant_d(conn.omega, conn.coframe))
    torsion_bianchi = d2e + lie_bracket_forms(conn.coframe, rep.R)
    return d_a_f, d_w_r, torsion_bianchi


# ---------------------------------------------------------------------------
# coframe nondegeneracy
# ---------------------------------------------------------------------------

def _min_abs_det(freqs, coefs, grid_size):
    """Least |det e| on the grid_size^dim lattice, for e given by the
    coefficients of its p rows, (freqs, [coefficients]) as
    calculus._point_coefficients returns them.

    exp(i k.x) is the product over the axes of exp(i k_j x_j), so the
    cos/sin table of the other axes is outer products of per-axis factors,
    first axis slowest, and no cos/sin is taken per point.  The first axis
    folds into the weights: the value at x is Re sum_k g exp(i k'.x'), with
    g = (A - iB) exp(i k_1 x_1) per x_1, so the weights (A, B) at k become
    (Re g, -Im g) and one matmul with the table gives the values.
    """
    (c,) = coefs
    nf, n = len(freqs), grid_size
    factors = np.exp(1j * np.multiply.outer(freqs.T, _lattice_axis(n)))
    rest = np.ones((nf, 1), dtype=complex)
    for axis in factors[1:]:
        rest = (rest[:, :, None] * axis[:, None, :]).reshape(
            nf, rest.shape[1] * n)
    rest = np.concatenate((rest.real, rest.imag))          # (2 nf, n^(dim-1))
    g = (c[..., None, :nf] - 1j * c[..., None, nf:]) * factors[0].T
    folded = np.concatenate((g.real, -g.imag), axis=-1)    # (..., n, 2 nf)
    vals = (folded @ rest).reshape(c.shape[:-1] + (rest.shape[1] * n,))
    return float(np.abs(_det_on_points(vals)).min())


def _require_coframe(e):
    """Refuse e unless it is a translation-valued 1-form on the torus of
    its algebra's spacetime dimension."""
    if e.dim != e.algebra.spacetime_dim:
        raise CartanError("torus dimension must equal the translation dimension")
    if e.degree != 1:
        raise CartanError(f"a coframe is a 1-form, got a {e.degree}-form")
    if not {k[0] for k in e.comps} <= set(e.algebra.p_indices):
        raise CartanError("coframe must be translation-valued")


def coframe_check(e, grid_size=16):
    """Scan |det e(x)| of a translation-valued 1-form over a uniform grid.

    Returns {"nondegenerate": bool, "min_abs_det": float}.
    """
    _require_coframe(e)
    min_det = _min_abs_det(
        *_point_coefficients([e], list(e.algebra.p_indices)), grid_size)
    return {"nondegenerate": bool(min_det > _DET_TOL),
            "min_abs_det": min_det}


# ---------------------------------------------------------------------------
# model charts (Maurer-Cartan) and pointwise connections
# ---------------------------------------------------------------------------

def _float_basis(alg):
    return np.array([[[float(x) for x in row] for row in b] for b in alg.basis])


class PointConnection:
    """Connection given by matrices A_i(x); the common currency of holonomy.

    `matrices(x)` takes chart points x of shape (..., chart_dim) and returns
    the value of A on each coordinate direction at every point: an array
    that broadcasts to (..., chart_dim, d, d).  A constant connection may
    return a single (chart_dim, d, d) array.  `holonomy` passes all the
    midpoints of a path segment in one call.
    """

    def __init__(self, chart_dim, matrix_dim, matrices, group_defect, name=""):
        self.chart_dim = chart_dim
        self.matrix_dim = matrix_dim
        self.matrices = matrices
        self.group_defect = group_defect
        self.name = name


def _orthogonality_defect(metric):
    m = np.asarray(metric, dtype=float)

    def defect(u):
        return float(np.abs(u.T @ m @ u - m).max())

    return defect


def _iso_defect(eta):
    m = np.diag([float(x) for x in eta])
    n = len(eta)

    def defect(u):
        lam = u[:n, :n]
        d1 = float(np.abs(lam.T @ m @ lam - m).max())
        bottom = u[n, :].copy()
        bottom[n] -= 1.0
        return max(d1, float(np.abs(bottom).max()))

    return defect


def group_defect_for(alg):
    if alg.lambda_sign == 0:
        return _iso_defect(alg.eta)
    metric = np.diag([float(x) for x in alg.eta] + [float(alg.lambda_sign)])
    return _orthogonality_defect(metric)


def connection_on_torus(conn):
    """Wrap a trig-poly CartanConnection for pointwise holonomy use."""
    alg = conn.algebra
    basis = _float_basis(alg)
    a = conn.full()
    comps = [[(alpha, a.component(alpha, (mu,))) for alpha in range(alg.dim)
              if not a.component(alpha, (mu,)).is_zero()] for mu in range(a.dim)]

    def matrices(x):
        x = np.asarray(x, dtype=float)
        axes = [x[..., j] for j in range(a.dim)]
        out = np.zeros(x.shape[:-1] + (a.dim, alg.matrix_dim, alg.matrix_dim))
        for mu in range(a.dim):
            for alpha, poly in comps[mu]:
                out[..., mu, :, :] += (poly.evaluate_mesh(axes)[..., None, None]
                                       * basis[alpha])
        return out

    return PointConnection(a.dim, alg.matrix_dim, matrices,
                           group_defect_for(alg), name=f"torus:{alg.name}")


def _mc_series(x_mat, t_mat):
    """g^{-1} dg along direction T for g = exp(X): sum (-ad_X)^m(T)/(m+1)!.

    X and T are stacks of matrices (..., d, d) that broadcast together.
    """
    acc = np.zeros(np.broadcast_shapes(x_mat.shape, t_mat.shape))
    cur = t_mat
    factorial = 1.0
    for m in range(_MC_TERMS):
        factorial *= (m + 1)
        acc = acc + cur / factorial
        cur = -(x_mat @ cur - cur @ x_mat)
    return acc


def maurer_cartan_connection(alg):
    """Canonical flat chart x -> exp(sum x^i T_i), T_i the translations.

    The connection matrices are evaluated through the exactly-summed
    exponential-derivative series (_MC_TERMS terms).
    """
    gens = _float_basis(alg)[list(alg.p_indices)]
    chart_dim = len(gens)

    def matrices(x):
        x = np.asarray(x, dtype=float)
        x_mat = sum(x[..., i, None, None] * g for i, g in enumerate(gens))
        return _mc_series(x_mat[..., None, :, :], gens)

    return PointConnection(chart_dim, alg.matrix_dim, matrices,
                           group_defect_for(alg), name=f"mc:{alg.name}")


def maurer_cartan_flatness(alg, box=0.15, grid_points=3, perturbation=None):
    """Max pointwise curvature norm of a model chart, by finite differences.

    F_ij = d_i A_j - d_j A_i + [A_i, A_j] is estimated with fourth-order
    central differences at steps h = _FD_STEP and h/2 plus one Richardson
    combination; the commutator term is pointwise-exact.  Returns the
    report dict.
    """
    conn = maurer_cartan_connection(alg)
    n = conn.chart_dim

    def a_at(x):
        mats = conn.matrices(x)
        if perturbation is not None:
            mats = mats + perturbation(x)
        return mats

    def d_a(x, i, h):
        # fourth-order central difference of all A_j along direction i
        xs = []
        for c in (-2, -1, 1, 2):
            xi = list(x)
            xi[i] += c * h
            xs.append(a_at(xi))
        return (xs[0] - 8.0 * xs[1] + 8.0 * xs[2] - xs[3]) / (12.0 * h)

    pts = np.linspace(-box, box, grid_points)
    max_norm = 0.0
    for x in np.array(np.meshgrid(*[pts] * n, indexing="ij")).reshape(n, -1).T:
        a_here = a_at(x)
        d_h = np.array([d_a(x, i, _FD_STEP) for i in range(n)])
        d_h2 = np.array([d_a(x, i, _FD_STEP / 2.0) for i in range(n)])
        d_rich = (16.0 * d_h2 - d_h) / 15.0
        for i in range(n):
            for j in range(i + 1, n):
                comm = a_here[i] @ a_here[j] - a_here[j] @ a_here[i]
                f_ij = d_rich[i][j] - d_rich[j][i] + comm
                max_norm = max(max_norm, float(np.abs(f_ij).max()))
    return {
        "algebra": alg.name,
        "chart_dim": n,
        "box": box,
        "grid_points": grid_points,
        "fd_step": _FD_STEP,
        "max_curvature_norm": max_norm,
        "flat": bool(max_norm < 1e-9),
    }


# ---------------------------------------------------------------------------
# rolling models
# ---------------------------------------------------------------------------

def _so3_gen(i, j):
    m = np.zeros((3, 3))
    m[i, j] = 1.0
    m[j, i] = -1.0
    return m


def sphere_spin_connection():
    """Unit sphere so(3)/so(2) in normal coordinates: the spin-connection part.

    For the stabilizer part of the model chart, the structure equation gives
    d omega = e^1 ^ e^2 L12, so a loop holonomy is a rotation by exactly the
    enclosed metric area (the abelian Gauss-Bonnet law).  That makes this the
    model whose square-loop holonomy realizes the area law.

    The chart is g = exp(X), X = x^1 P1 + x^2 P2.  Along P_i, g^-1 dg is
    sum (-ad_X)^m(P_i)/(m+1)!, whose odd terms are its L12 part.  As
    ad_X^2 = -r^2 on L12 (r = |x|), they sum in closed form to
    -(1 - cos r)/r^2 [X, P_i], with [X, P1] = x^2 L12 and [X, P2] = -x^1 L12.
    (1 - cos r)/r^2 = sinc(r / 2 pi)^2 / 2 (numpy's normalized sinc) is
    stable at r = 0.
    """
    l12 = _so3_gen(0, 1)

    def matrices(x):
        x = np.asarray(x, dtype=float)
        r = np.sqrt(x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1])
        scale = 0.5 * np.sinc(r / (2.0 * np.pi)) ** 2
        coef = np.stack((-x[..., 1], x[..., 0]), axis=-1) * scale[..., None]
        return coef[..., None, None] * l12  # the stabilizer part only

    return PointConnection(2, 3, matrices, _orthogonality_defect(np.eye(3)),
                           name="sphere")


def sphere_rolling_connection():
    """Sphere rolling on the flat plane with a fixed contact frame.

    A = L13 dx + L23 dy is constant, so each straight leg integrates to a
    single exact exponential; the square-loop angle picks up the usual
    higher commutator corrections beyond the enclosed-area term.
    """
    const = np.array([_so3_gen(0, 2), _so3_gen(1, 2)])

    def matrices(x):
        return const

    return PointConnection(2, 3, matrices, _orthogonality_defect(np.eye(3)),
                           name="sphere_rolling")


def zero_connection():
    """The zero connection on a 3d chart, with 4x4 matrices."""
    z = np.zeros((3, 4, 4))

    def matrices(x):
        return z

    return PointConnection(3, 4, matrices, _orthogonality_defect(np.eye(4)),
                           name="zero")


def get_model(name):
    """Named pointwise connections usable from the CLI."""
    from .algebra import build_algebra
    if name == "sphere":
        return sphere_spin_connection()
    if name == "sphere_rolling":
        return sphere_rolling_connection()
    if name == "zero":
        return zero_connection()
    if name.startswith("mc_"):
        alg = build_algebra(name[3:])
        return maurer_cartan_connection(alg)
    raise CartanError(
        f"unknown model {name!r}; expected sphere, sphere_rolling, zero, "
        "or mc_<algebra>")


# ---------------------------------------------------------------------------
# paths and holonomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    kind: str
    data: dict

    # point and velocity take a parameter t in [0, 1] or an array of them;
    # an array of shape (...) gives results of shape (..., chart_dim)

    def point(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "line":
            a = np.asarray(self.data["start"], dtype=float)
            b = np.asarray(self.data["end"], dtype=float)
            return a + t[..., None] * (b - a)
        center = np.asarray(self.data["center"], dtype=float)
        r = float(self.data["radius"])
        i, j = self.data["plane"]
        th = self.data["start_angle"] + t * (self.data["end_angle"]
                                             - self.data["start_angle"])
        x = np.broadcast_to(center, t.shape + center.shape).copy()
        x[..., i] += r * np.cos(th)
        x[..., j] += r * np.sin(th)
        return x

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "line":
            a = np.asarray(self.data["start"], dtype=float)
            b = np.asarray(self.data["end"], dtype=float)
            return np.broadcast_to(b - a, t.shape + a.shape).copy()
        r = float(self.data["radius"])
        i, j = self.data["plane"]
        span = self.data["end_angle"] - self.data["start_angle"]
        th = self.data["start_angle"] + t * span
        v = np.zeros(t.shape + (len(self.data["center"]),))
        v[..., i] = -r * span * np.sin(th)
        v[..., j] = r * span * np.cos(th)
        return v

    def length_estimate(self):
        if self.kind == "line":
            a = np.asarray(self.data["start"], dtype=float)
            b = np.asarray(self.data["end"], dtype=float)
            return float(np.linalg.norm(b - a))
        return abs(float(self.data["radius"])
                   * (self.data["end_angle"] - self.data["start_angle"]))


@dataclass(frozen=True)
class Path:
    segments: tuple

    @classmethod
    def polyline(cls, points):
        segs = []
        for a, b in zip(points, points[1:]):
            segs.append(Segment("line", {"start": list(a), "end": list(b)}))
        return cls(tuple(segs))

    @classmethod
    def square_loop(cls, side):
        """The square of the given side centred on the origin, run
        counterclockwise from its lower left corner."""
        h = side / 2.0
        return cls.polyline([(-h, -h), (h, -h), (h, h), (-h, h), (-h, -h)])


def _arc_plane(plane):
    """An arc's (i, j) chart axes: two distinct non-negative integers."""
    try:
        if isinstance(plane, list) and len(plane) == 2 and plane[0] != plane[1]:
            return tuple(_json_int(i, "plane", 0) for i in plane)
    except CalculusError:
        pass
    raise CartanError(f"arc plane must be two distinct non-negative "
                      f"integers, got {plane!r}")


def _point(entry, key):
    """A segment's coordinate list `key`, each entry a finite number."""
    value = entry[key]
    if not isinstance(value, list):
        raise CartanError(f"{key} must be a list of numbers, got {value!r}")
    return [_json_number(x, f"{key}[{j}]") for j, x in enumerate(value)]


def load_path(path_file):
    """Read a path file; a document of the wrong shape, or a coordinate,
    radius or angle that is not a finite JSON number, is a CartanError
    naming the segment and the key."""
    doc = _load_json(path_file)
    segs = []
    where = ""
    try:
        for i, entry in enumerate(doc["segments"]):
            where = f"segment {i}: "
            kind = entry.get("type", "line")
            if kind == "line":
                start, end = _point(entry, "from"), _point(entry, "to")
                if len(start) != len(end):
                    raise CartanError(
                        f"line from {entry['from']!r} to {entry['to']!r}: "
                        f"the endpoints differ in length")
                segs.append(Segment("line", {"start": start, "end": end}))
            elif kind == "arc":
                segs.append(Segment("arc", {
                    "center": _point(entry, "center"),
                    "radius": _json_number(entry["radius"], "radius"),
                    "plane": _arc_plane(entry.get("plane", [0, 1])),
                    "start_angle": _json_number(entry["start_angle"],
                                                "start_angle"),
                    "end_angle": _json_number(entry["end_angle"],
                                              "end_angle")}))
            else:
                raise CartanError(f"unknown segment type {kind!r}")
    except (CalculusError, CartanError) as exc:
        raise CartanError(f"malformed path file ({where}{exc})") from None
    except (TypeError, AttributeError, KeyError) as exc:
        raise CartanError(f"malformed path file ({where}"
                          f"{type(exc).__name__}: {exc})") from None
    return Path(tuple(segs))


@dataclass
class HolonomyResult:
    matrix: np.ndarray
    drift: float
    steps: int

    def rotation_angle(self):
        """Rotation angle for 3x3 orthogonal holonomies."""
        tr = float(np.trace(self.matrix))
        return math.acos(max(-1.0, min(1.0, (tr - 1.0) / 2.0)))


def _matrices_at(model, x):
    """model.matrices on points x (n, chart_dim), as an (n, chart_dim, d, d) view."""
    name = model.name or "<unnamed>"
    if x.shape[-1] != model.chart_dim:
        raise CartanError(f"path points have {x.shape[-1]} coordinates; model "
                          f"{name} has chart_dim {model.chart_dim}")
    shape = x.shape[:1] + (model.chart_dim, model.matrix_dim, model.matrix_dim)
    mats = np.asarray(model.matrices(x), dtype=float)
    try:
        return np.broadcast_to(mats, shape)
    except ValueError:
        raise CartanError(
            f"model {name}: matrices returned shape "
            f"{mats.shape} for points of shape {x.shape}; expected an array "
            f"that broadcasts to {shape} (points, chart_dim, d, d)") from None


def holonomy(model, path, steps):
    """Path-ordered product of exponentials, midpoint rule, order 2.

    Convention: parallel transport solves U' = -A(gamma') U, so each step
    multiplies exp(-A(x_mid) . v_mid dt) on the left.  Each segment's
    midpoints, connection matrices and step exponentials are computed as
    stacks; only the ordered product runs step by step.
    """
    if isinstance(model, CartanConnection):
        model = connection_on_torus(model)
    if steps < 1:
        raise CartanError("steps must be >= 1")
    if not path.segments:
        return HolonomyResult(np.eye(model.matrix_dim), 0.0, 0)
    for seg in path.segments:
        if seg.kind != "arc":
            continue
        if max(seg.data["plane"]) >= model.chart_dim:
            raise CartanError(
                f"arc plane {list(seg.data['plane'])} needs axes below the "
                f"chart dimension {model.chart_dim} of model "
                f"{model.name or '<unnamed>'}")
        if np.shape(seg.data["center"]) != (model.chart_dim,):
            raise CartanError(f"arc center {seg.data['center']!r} needs "
                              f"the {model.chart_dim} chart coordinates")
    lengths = [s.length_estimate() for s in path.segments]
    total = sum(lengths)
    if total == 0:
        raise CartanError("degenerate path: zero total length")
    d = model.matrix_dim
    u = np.eye(d)
    used = 0
    for seg, ln in zip(path.segments, lengths):
        n_seg = max(1, round(steps * ln / total))
        used += n_seg
        dt = 1.0 / n_seg
        t_mid = (np.arange(n_seg) + 0.5) * dt
        mats = _matrices_at(model, seg.point(t_mid))
        v = seg.velocity(t_mid)
        # one (1, chart_dim) @ (chart_dim, d*d) product per step: the same
        # contraction, in the same order, as a per-step tensordot
        a_v = (v[:, None, :] @ mats.reshape(n_seg, model.chart_dim, d * d))
        for step in expm(-a_v.reshape(n_seg, d, d) * dt):
            u = step @ u
    drift = model.group_defect(u)
    return HolonomyResult(u, drift, used)
