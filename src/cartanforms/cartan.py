"""Cartan connections modeled on symmetric spaces.

Curvature and its stabilizer/translation split, involution equivariance,
Bianchi residuals (all exact on the trig-poly pipeline), plus the numeric
side: coframe nondegeneracy scans, Maurer-Cartan model charts with a
finite-difference flatness certificate, and path holonomy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from .algebra import AlgebraError
from .calculus import (
    CalculusError,
    LieForm,
    covariant_d,
    exterior_d,
    lie_bracket_forms,
    _det_on_points,
    _eval_on_points,
)

HALF = Fraction(1, 2)


class CartanError(ValueError):
    pass


@dataclass(frozen=True)
class CartanConnection:
    """A = omega + e with omega stabilizer-valued and e translation-valued."""

    omega: LieForm
    coframe: LieForm

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

    @property
    def algebra(self):
        return self.omega.algebra

    @property
    def dim(self):
        return self.omega.dim

    def full(self):
        return self.omega + self.coframe

    def involute(self):
        return CartanConnection(self.omega, -self.coframe)


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

def coframe_check(e, grid_size=16, tol=1e-8):
    """Scan |det e(x)| over a uniform grid.

    Accepts a CartanConnection or a translation-valued 1-form.  Returns
    {"nondegenerate": bool, "min_abs_det": float}.
    """
    if isinstance(e, CartanConnection):
        e = e.coframe
    n = e.dim
    if n != e.algebra.spacetime_dim:
        raise CartanError("torus dimension must equal the translation dimension")
    ax = np.linspace(0.0, 2.0 * math.pi, grid_size, endpoint=False)
    axes = [m.ravel() for m in np.meshgrid(*[ax] * n, indexing="ij")]
    (vals,) = _eval_on_points([e], axes)
    dets = np.abs(_det_on_points(vals[:, list(e.algebra.p_indices)]))
    min_det = float(dets.min()) if dets.size else 0.0
    return {"nondegenerate": bool(min_det > tol), "min_abs_det": min_det}


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


def _mc_series(x_mat, t_mat, terms=26):
    """g^{-1} dg along direction T for g = exp(X): sum (-ad_X)^m(T)/(m+1)!.

    X and T are stacks of matrices (..., d, d) that broadcast together.
    """
    acc = np.zeros(np.broadcast_shapes(x_mat.shape, t_mat.shape))
    cur = t_mat
    factorial = 1.0
    for m in range(terms):
        factorial *= (m + 1)
        acc = acc + cur / factorial
        cur = -(x_mat @ cur - cur @ x_mat)
    return acc


def maurer_cartan_connection(alg, generators=None):
    """Canonical flat chart x -> exp(sum x^i T_i); default T_i = translations.

    The connection matrices are evaluated through the exactly-summed
    exponential-derivative series (factorial tail; truncation is far below
    float precision on desk-scale boxes).
    """
    basis = _float_basis(alg)
    if generators is None:
        generators = list(alg.p_indices)
    gens = basis[list(generators)]
    chart_dim = len(gens)

    def matrices(x):
        x = np.asarray(x, dtype=float)
        x_mat = sum(x[..., i, None, None] * g for i, g in enumerate(gens))
        return _mc_series(x_mat[..., None, :, :], gens)

    return PointConnection(chart_dim, alg.matrix_dim, matrices,
                           group_defect_for(alg), name=f"mc:{alg.name}")


def maurer_cartan_flatness(alg, generators=None, box=0.15, grid_points=3,
                           fd_step=4e-3, perturbation=None):
    """Max pointwise curvature norm of a model chart, by finite differences.

    F_ij = d_i A_j - d_j A_i + [A_i, A_j] is estimated with fourth-order
    central differences at steps h and h/2 plus one Richardson combination;
    the commutator term is pointwise-exact.  Returns the report dict.
    """
    conn = maurer_cartan_connection(alg, generators)
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
        d_h = np.array([d_a(x, i, fd_step) for i in range(n)])
        d_h2 = np.array([d_a(x, i, fd_step / 2.0) for i in range(n)])
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
        "fd_step": fd_step,
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
    """
    p1 = _so3_gen(0, 2)
    p2 = _so3_gen(1, 2)
    l12 = _so3_gen(0, 1)
    gens = np.array([p1, p2])

    def matrices(x):
        x = np.asarray(x, dtype=float)
        x_mat = x[..., 0, None, None] * p1 + x[..., 1, None, None] * p2
        full = _mc_series(x_mat[..., None, :, :], gens)
        return full[..., 0, 1, None, None] * l12  # stabilizer projection

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


def zero_connection(chart_dim=3, matrix_dim=4):
    z = np.zeros((chart_dim, matrix_dim, matrix_dim))

    def matrices(x):
        return z

    return PointConnection(chart_dim, matrix_dim, matrices,
                           _orthogonality_defect(np.eye(matrix_dim)),
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
    def square_loop(cls, side, center=(0.0, 0.0)):
        cx, cy = center
        h = side / 2.0
        pts = [(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h),
               (cx - h, cy + h), (cx - h, cy - h)]
        return cls.polyline(pts)


def load_path(path_file):
    """Read a path file; a document of the wrong shape is a CartanError."""
    with open(path_file) as fh:
        doc = json.load(fh)
    segs = []
    try:
        for entry in doc["segments"]:
            kind = entry.get("type", "line")
            if kind == "line":
                segs.append(Segment("line", {"start": entry["from"],
                                             "end": entry["to"]}))
            elif kind == "arc":
                segs.append(Segment("arc", {
                    "center": entry["center"], "radius": entry["radius"],
                    "plane": tuple(entry.get("plane", (0, 1))),
                    "start_angle": float(entry["start_angle"]),
                    "end_angle": float(entry["end_angle"])}))
            else:
                raise CartanError(f"unknown segment type {kind!r}")
    except (TypeError, AttributeError, KeyError) as exc:
        raise CartanError(
            f"malformed path file ({type(exc).__name__}: {exc})") from None
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
