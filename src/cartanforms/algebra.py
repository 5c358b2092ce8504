"""Gauge Lie algebras for constant-curvature geometry, in exact arithmetic.

Seven algebras are supported, each realized in its fundamental matrix
representation with rational entries:

    3d models (4x4 matrices):  so31, iso21, so22   (Lorentzian stabilizer)
                               so4, iso3           (Euclidean stabilizer)
    4d models (5x5 matrices):  so41, so32          (stabilizer so(3,1))

Frozen conventions (see CONVENTIONS.md):
  * stabilizer generators M_ab (a < b) occupy the upper-left n x n block,
    (M_ab)^c_d = delta^c_a eta_bd - delta^c_b eta_ad;
  * translation generators P_a sit in the last column/row,
    (P_a)^b_n = delta^b_a, (P_a)^n_b = -eps * eta_ab, eps = sgn(Lambda);
  * basis order: all M_ab lexicographic, then P_0..P_{n-1};
  * the Killing gram is the raw contraction C^g_{ad} C^d_{bg}, no rescale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from . import exactla

ZERO = Fraction(0)
ONE = Fraction(1)

ALGEBRA_NAMES = ("so31", "iso21", "so22", "so41", "so32", "so4", "iso3")

# (stabilizer metric on the first n coordinates, sign of the cosmological constant)
_SIGNATURES = {
    "so31": ((-1, 1, 1), 1),
    "iso21": ((-1, 1, 1), 0),
    "so22": ((-1, 1, 1), -1),
    "so4": ((1, 1, 1), 1),
    "iso3": ((1, 1, 1), 0),
    "so41": ((-1, 1, 1, 1), 1),
    "so32": ((-1, 1, 1, 1), -1),
}


class AlgebraError(ValueError):
    """Invalid algebra request, or mixing elements of different algebras."""


class UnsupportedStar(AlgebraError):
    """The requested algebra carries no (full) internal Hodge star."""


def _perm_sign(perm):
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
            elif p[i] == p[j]:
                return 0
    return sign


def _freeze(rows):
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Immutable description of one gauge algebra.

    All data is exact; operations on elements are pure functions, so
    descriptors are safe to share across workers.
    """

    name: str
    matrix_dim: int
    spacetime_dim: int
    lambda_sign: int
    eta: tuple
    labels: tuple
    basis: tuple            # basis[i] = matrix_dim x matrix_dim tuple of Fractions
    structure: tuple        # dense C[a][b][c]:  [v_a, v_b] = C[a][b][c] v_c
    bracket_table: tuple    # bracket_table[a][b] = ((c, coeff), ...)  sparse
    h_indices: tuple
    p_indices: tuple
    star_matrix: tuple | None    # column j = star of basis element j
    star_square: int | None
    h_star_matrix: tuple | None  # 4d algebras only: 6x6 on the stabilizer block
    killing: tuple
    star_gram: tuple

    @property
    def dim(self):
        return len(self.basis)

    @cached_property
    def derived(self):
        """Tables other modules derive from this object, by builder.

        It lives and dies with the object and is never shared by name, so
        a damaged table under a real algebra's name gets its own.
        """
        return {}

    def zero(self):
        return AlgebraElement(self, (ZERO,) * self.dim)

    def element(self, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != self.dim:
            raise AlgebraError(
                f"{self.name}: expected {self.dim} coefficients, got {len(coeffs)}")
        return AlgebraElement(self, coeffs)

    def basis_element(self, i):
        coeffs = [ZERO] * self.dim
        coeffs[i] = ONE
        return AlgebraElement(self, tuple(coeffs))

    def basis_index(self, label):
        return self.labels.index(label)

    def __repr__(self):
        return f"AlgebraDescriptor({self.name})"


def _per_algebra(build, alg, *args):
    """build(alg, *args), computed once per algebra object (in alg.derived).

    The key is build itself, or (build, *args) when there are args.  The
    cache lives and dies with the object, so a damaged table under a real
    algebra's name gets its own tables and forms.
    """
    key = (build,) + args if args else build
    if key not in alg.derived:
        alg.derived[key] = build(alg, *args)
    return alg.derived[key]


@dataclass(frozen=True)
class AlgebraElement:
    """Exact coefficient vector in an algebra basis."""

    algebra: AlgebraDescriptor
    coeffs: tuple

    def matrix(self):
        d = self.algebra.matrix_dim
        out = [[ZERO] * d for _ in range(d)]
        for c, b in zip(self.coeffs, self.algebra.basis):
            if c == 0:
                continue
            for i in range(d):
                row = b[i]
                for j in range(d):
                    if row[j] != 0:
                        out[i][j] += c * row[j]
        return _freeze(out)

    def h_part(self):
        coeffs = [c if i in self.algebra.h_indices else ZERO
                  for i, c in enumerate(self.coeffs)]
        return AlgebraElement(self.algebra, tuple(coeffs))

    def p_part(self):
        coeffs = [c if i in self.algebra.p_indices else ZERO
                  for i, c in enumerate(self.coeffs)]
        return AlgebraElement(self.algebra, tuple(coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        _check_same(self, other)
        return AlgebraElement(self.algebra,
                              tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        _check_same(self, other)
        return AlgebraElement(self.algebra,
                              tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return AlgebraElement(self.algebra, tuple(-a for a in self.coeffs))

    def scale(self, s):
        s = Fraction(s)
        return AlgebraElement(self.algebra, tuple(a * s for a in self.coeffs))


def _check_same(x, y):
    if x.algebra is not y.algebra:
        raise AlgebraError(
            f"elements belong to different algebras: "
            f"{x.algebra.name} vs {y.algebra.name}")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _rotation_generator(eta, d, a, b):
    m = [[ZERO] * d for _ in range(d)]
    m[a][b] = Fraction(eta[b])
    m[b][a] = -Fraction(eta[a])
    return _freeze(m)


def _translation_generator(eta, eps, d, a):
    n = len(eta)
    m = [[ZERO] * d for _ in range(d)]
    m[a][n] = ONE
    if eps:
        m[n][a] = -Fraction(eps * eta[a])
    return _freeze(m)


def _coeffs_from_matrix(eta, n, labels, m):
    """Extract basis coefficients from distinguished matrix entries."""
    coeffs = []
    for label in labels:
        if label.startswith("M"):
            a, b = int(label[1]), int(label[2])
            coeffs.append(Fraction(m[a][b], eta[b]))
        else:
            a = int(label[1])
            coeffs.append(Fraction(m[a][n]))
    return coeffs


# integer tables with entries below this bound stay far from int64 overflow
# in every product-sum the checks form (at most 3 * dim * bound^2)
_INT_BOUND = 2 ** 20


def _integer_array(name, table):
    """An exact table as an int64 array.  Every supported algebra has
    integral basis matrices and structure constants in {-1, 0, 1}; any
    other table is refused."""
    flat = np.array(table, dtype=object)
    if not all(x.denominator == 1 and abs(x) < _INT_BOUND for x in flat.flat):
        raise AlgebraError(f"{name}: table entries must be integers "
                           f"below {_INT_BOUND} in magnitude")
    return flat.astype(np.int64)


def _commutators(b):
    """[b_a, b_c] for a stack of integer matrices, shape (dim, dim, d, d)."""
    return b[:, None] @ b[None] - b[None] @ b[:, None]


def _grading_targets(dim, h_indices):
    """target[a][b]: the index set [X_a, X_b] must lie in."""
    hset = set(h_indices)
    pset = set(range(dim)) - hset
    return [[hset if (a in hset) == (b in hset) else pset for b in range(dim)]
            for a in range(dim)]


def _validate(name, b, c, h_indices, labels):
    """Antisymmetry, Jacobi, grading and closure of an integer structure
    table c against the integer basis stack b.

    Closure: each matrix commutator [b_a, b_b] equals sum_c C_ab^c b_c.
    Raises AlgebraError for the first failing check.
    """
    dim = len(c)
    if np.any(c != -c.transpose(1, 0, 2)):
        raise AlgebraError(f"{name}: antisymmetry failure")
    jacobi = (np.einsum("abd,dce->abce", c, c)
              + np.einsum("bcd,dae->abce", c, c)
              + np.einsum("cad,dbe->abce", c, c))
    if np.any(jacobi):
        raise AlgebraError(f"{name}: Jacobi identity failure")
    targets = _grading_targets(dim, h_indices)
    outside = np.array([[[k not in targets[i][j] for k in range(dim)]
                         for j in range(dim)] for i in range(dim)])
    bad = np.argwhere((c != 0) & outside)
    if len(bad):
        i, j, _ = bad[0]
        raise AlgebraError(f"{name}: grading violated by "
                           f"[{labels[i]},{labels[j]}]")
    mismatch = np.argwhere(np.any(
        _commutators(b) != np.einsum("abc,cij->abij", c, b), axis=(2, 3)))
    if len(mismatch):
        i, j = mismatch[0]
        raise AlgebraError(f"{name}: commutator [{labels[i]},{labels[j]}] "
                           "does not match the structure constants")


def _pair_star(metric):
    """Hodge star on 2-form pair coordinates of a 4-dim diagonal metric.

    Orientation: epsilon_{0123} = +1. Returns {pair: (dual_pair, sign)}.
    """
    idx = list(range(4))
    out = {}
    for i, j in combinations(idx, 2):
        a, b = [k for k in idx if k not in (i, j)]
        sign = _perm_sign((a, b, i, j)) * metric[i] * metric[j]
        out[(i, j)] = ((a, b), sign)
    return out


def _star_from_pairs(pairs, c_vals, metric):
    """Star matrix on algebra coordinates from the pair-basis star."""
    dim = len(pairs)
    pos = {p: i for i, p in enumerate(pairs)}
    pstar = _pair_star(metric)
    s = [[ZERO] * dim for _ in range(dim)]
    for alpha, p in enumerate(pairs):
        (dual, sign) = pstar[p]
        beta = pos[dual]
        s[beta][alpha] = Fraction(sign) * c_vals[alpha] / c_vals[beta]
    return s


@lru_cache(maxsize=None)
def build_algebra(name, contraction_star_square=1):
    """Construct one of the supported algebras.

    `contraction_star_square` picks the sign of star^2 on iso3/iso21,
    where the contraction leaves a genuine choice; it is ignored for the
    other algebras.
    """
    if name not in ALGEBRA_NAMES:
        raise AlgebraError(
            f"unsupported algebra {name!r}; expected one of {ALGEBRA_NAMES}")
    if contraction_star_square not in (1, -1):
        raise AlgebraError("contraction_star_square must be +1 or -1")
    eta, eps = _SIGNATURES[name]
    n = len(eta)
    d = n + 1

    labels = []
    basis = []
    pairs = []
    for a, b in combinations(range(n), 2):
        labels.append(f"M{a}{b}")
        basis.append(_rotation_generator(eta, d, a, b))
        pairs.append((a, b))
    h_indices = tuple(range(len(basis)))
    for a in range(n):
        labels.append(f"P{a}")
        basis.append(_translation_generator(eta, eps, d, a))
        pairs.append((a, n))
    dim = len(basis)
    p_indices = tuple(range(len(h_indices), dim))

    basis_int = _integer_array(name, basis)
    comms = _commutators(basis_int).tolist()
    structure = tuple(
        tuple(tuple(_coeffs_from_matrix(eta, n, labels, comms[a][b]))
              for b in range(dim))
        for a in range(dim))
    bracket_table = tuple(
        tuple(tuple((c, coeff) for c, coeff in enumerate(structure[a][b]) if coeff != 0)
              for b in range(dim))
        for a in range(dim))

    structure_int = _integer_array(name, structure)
    _validate(name, basis_int, structure_int, h_indices, labels)

    # internal Hodge star
    star_matrix = None
    star_square = None
    h_star_matrix = None
    if n == 3:
        c_vals = []
        for label in labels:
            if label.startswith("M"):
                a, b = int(label[1]), int(label[2])
                c_vals.append(Fraction(eta[a] * eta[b]))
            else:
                c_vals.append(Fraction(eta[int(label[1])]))
        if eps != 0:
            metric = tuple(eta) + (eps,)
            star = _star_from_pairs(pairs, c_vals, metric)
            star_square = eps * eta[0] * eta[1] * eta[2]
        else:
            # Wigner contraction: inherit the block mapping stabilizer -> p
            # from the eps = +1 parent, then fix star^2 by the configured sign.
            parent = _star_from_pairs(pairs, c_vals, tuple(eta) + (1,))
            u = [[parent[p][h] for h in h_indices] for p in p_indices]
            v = exactla.mat_scale(exactla.inverse(u), contraction_star_square)
            star = [[ZERO] * dim for _ in range(dim)]
            for i, prow in enumerate(p_indices):
                for j, hcol in enumerate(h_indices):
                    star[prow][hcol] = u[i][j]
            for i, hrow in enumerate(h_indices):
                for j, pcol in enumerate(p_indices):
                    star[hrow][pcol] = v[i][j]
            star_square = contraction_star_square
        star_matrix = _freeze(star)
    else:
        # star exists only on the 6-dim stabilizer block; columns/rows in
        # stabilizer coordinates
        c_vals = [Fraction(eta[a] * eta[b]) for a, b in combinations(range(n), 2)]
        h_pairs = list(combinations(range(n), 2))
        h_star_matrix = _freeze(_star_from_pairs(h_pairs, c_vals, tuple(eta)))

    killing = _killing_from_structure(structure_int)
    star_gram = _star_gram(killing, star_matrix, h_star_matrix,
                           h_indices, p_indices, dim)

    return AlgebraDescriptor(
        name=name, matrix_dim=d, spacetime_dim=n, lambda_sign=eps,
        eta=tuple(eta), labels=tuple(labels), basis=tuple(basis),
        structure=structure, bracket_table=bracket_table,
        h_indices=h_indices, p_indices=p_indices,
        star_matrix=star_matrix, star_square=star_square,
        h_star_matrix=h_star_matrix,
        killing=_freeze(killing), star_gram=_freeze(star_gram))


def _killing_from_structure(c):
    """K_ab = sum_{e,c} C[a][e][c] C[b][c][e] on the validated integer
    structure array (entries below _INT_BOUND), as exact Fractions."""
    return [[Fraction(int(x)) for x in row]
            for row in np.einsum("aec,bce->ab", c, c)]


def _star_gram(killing, star_matrix, h_star_matrix, h_indices, p_indices, dim):
    """Gram of the star-twisted invariant form.

    Semisimple algebras: K(X, star Y) directly (already symmetric).
    Contractions: K . star pairs the stabilizer against translations one way
    only, because K annihilates translations; the invariant form is the
    contraction limit, i.e. that pairing symmetrized.
    4d algebras: the star acts inside the stabilizer block and the form is
    supported there.
    """
    if star_matrix is not None:
        raw = exactla.mat_mul([list(r) for r in killing],
                              [list(r) for r in star_matrix])
        if exactla.is_symmetric(raw):
            return raw
        return exactla.mat_add(raw, exactla.transpose(raw))
    embedded = [[ZERO] * dim for _ in range(dim)]
    for j, col in enumerate(h_indices):
        for i, row in enumerate(h_indices):
            embedded[row][col] = h_star_matrix[i][j]
    raw = exactla.mat_mul([list(r) for r in killing], embedded)
    if not exactla.is_symmetric(raw):
        raise AlgebraError("stabilizer-block star form is not symmetric")
    return raw


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def bracket(x, y):
    """Lie bracket via structure constants; agrees with matrix commutators."""
    _check_same(x, y)
    alg = x.algebra
    out = [ZERO] * alg.dim
    table = alg.bracket_table
    for a, xa in enumerate(x.coeffs):
        if xa == 0:
            continue
        row = table[a]
        for b, yb in enumerate(y.coeffs):
            if yb == 0:
                continue
            f = xa * yb
            for c, coeff in row[b]:
                out[c] += f * coeff
    return AlgebraElement(alg, tuple(out))


def killing_gram(alg):
    """Killing form gram K_ab = C^g_{ad} C^d_{bg}, raw normalization."""
    return alg.killing


def star_gram(alg):
    """Gram of the star-twisted invariant form tr(X star Y)."""
    return alg.star_gram


def hodge_star(x):
    alg = x.algebra
    if alg.star_matrix is None:
        raise UnsupportedStar(
            f"{alg.name} has no internal Hodge star on the full algebra; "
            "only the stabilizer block so(3,1) carries one")
    s = alg.star_matrix
    out = [sum((s[i][j] * x.coeffs[j] for j in range(alg.dim)), ZERO)
           for i in range(alg.dim)]
    return AlgebraElement(alg, tuple(out))


def involution(x):
    """Grading involution: fixes the stabilizer part, negates translations."""
    alg = x.algebra
    pset = set(alg.p_indices)
    coeffs = tuple(-c if i in pset else c for i, c in enumerate(x.coeffs))
    return AlgebraElement(alg, coeffs)


@dataclass(frozen=True)
class BilinearForm:
    """Invariant symmetric form beta = c0 * Killing + c1 * (star-twisted)."""

    algebra: AlgebraDescriptor
    c0: Fraction
    c1: Fraction
    gram: tuple
    degenerate: bool
    support: str  # "full" | "h_block"

    @cached_property
    def gram_ints(self):
        """(den, rows): the gram over one denominator den > 0, the lcm of
        its entries' denominators, with per row a the nonzero numerators
        as {b: int}."""
        den = math.lcm(*(c.denominator for row in self.gram for c in row))
        return den, tuple({b: int(c * den) for b, c in enumerate(row)
                           if c != 0} for row in self.gram)

    def _block_zero(self, rows, cols):
        nonzero = self.gram_ints[1]
        return not any(j in nonzero[i] for i in rows for j in cols)

    @cached_property
    def cs_null(self):
        """The CS_NULL hypothesis: the gram's hh and pp blocks are zero."""
        h, p = self.algebra.h_indices, self.algebra.p_indices
        return self._block_zero(h, h) and self._block_zero(p, p)

    @cached_property
    def cs_perp(self):
        """The CS_PERP hypothesis: the gram's hp block is zero."""
        h, p = self.algebra.h_indices, self.algebra.p_indices
        return self._block_zero(h, p)

    @cached_property
    def gram_float(self):
        """The gram as a read-only float array, for the quadrature paths."""
        gram = np.array(self.gram, dtype=float)
        gram.flags.writeable = False
        return gram

    def pair(self, x, y):
        _check_same(x, y)
        if x.algebra is not self.algebra:
            raise AlgebraError("element does not belong to the form's algebra")
        total = ZERO
        for a, xa in enumerate(x.coeffs):
            if xa == 0:
                continue
            row = self.gram[a]
            for b, yb in enumerate(y.coeffs):
                if yb != 0 and row[b] != 0:
                    total += xa * row[b] * yb
        return total


def invariant_form(alg, c0, c1):
    """Member (c0, c1) of the two-parameter family of invariant forms.

    3d algebras get the full gram c0*K + c1*S.  For so41/so32 the form lives
    on the stabilizer block (the star only exists there), so translation
    rows/columns are zero and degeneracy is judged on the 6x6 block.
    """
    c0 = Fraction(c0)
    c1 = Fraction(c1)
    dim = alg.dim
    if alg.star_matrix is not None:
        gram = [[c0 * alg.killing[i][j] + c1 * alg.star_gram[i][j]
                 for j in range(dim)] for i in range(dim)]
        degenerate = exactla.det(gram) == 0
        support = "full"
    elif alg.h_star_matrix is not None:
        gram = [[ZERO] * dim for _ in range(dim)]
        for i in alg.h_indices:
            for j in alg.h_indices:
                gram[i][j] = c0 * alg.killing[i][j] + c1 * alg.star_gram[i][j]
        block = [[gram[i][j] for j in alg.h_indices] for i in alg.h_indices]
        degenerate = exactla.det(block) == 0
        support = "h_block"
    else:
        raise UnsupportedStar(f"{alg.name} supports no invariant star form")
    return BilinearForm(algebra=alg, c0=c0, c1=c1, gram=_freeze(gram),
                        degenerate=degenerate, support=support)


def killing_form(alg):
    """The pure Killing pairing on the full algebra (ad-invariant throughout).

    On the 4d algebras this differs from invariant_form(alg, 1, 0), which is
    the stabilizer-block member of the star family.
    """
    gram = alg.killing
    return BilinearForm(algebra=alg, c0=ONE, c1=Fraction(0), gram=gram,
                        degenerate=exactla.det([list(r) for r in gram]) == 0,
                        support="full")


def star_form(alg):
    """The pure star-twisted member (c0, c1) = (0, 1)."""
    return invariant_form(alg, 0, 1)


def invariant_form_space(alg):
    """Exact basis of symmetric ad-invariant bilinear forms.

    Solves beta([z,x],y) + beta(x,[z,y]) = 0 over all basis z by nullspace
    computation on the symmetric components of the gram.
    """
    dim = alg.dim
    slots = [(i, j) for i in range(dim) for j in range(i, dim)]
    pos = {s: k for k, s in enumerate(slots)}

    def gram_entry_var(i, j):
        return pos[(i, j) if i <= j else (j, i)]

    rows = []
    structure = alg.structure
    for z in range(dim):
        for (i, j) in slots:
            row = [ZERO] * len(slots)
            for k in range(dim):
                ci = structure[z][i][k]
                if ci != 0:
                    row[gram_entry_var(k, j)] += ci
                cj = structure[z][j][k]
                if cj != 0:
                    row[gram_entry_var(i, k)] += cj
            if any(x != 0 for x in row):
                rows.append(row)
    basis_vecs = exactla.nullspace(rows)
    grams = []
    for v in basis_vecs:
        g = [[ZERO] * dim for _ in range(dim)]
        for (i, j), k in pos.items():
            g[i][j] = v[k]
            g[j][i] = v[k]
        grams.append(_freeze(g))
    return grams


def selfdual_split(x):
    """X = X+ + X- with star X(+/-) = (+/-) X(+/-); requires star^2 = +1."""
    alg = x.algebra
    if alg.name not in ("so22", "so4"):
        if alg.star_matrix is None:
            raise UnsupportedStar(f"{alg.name} has no full internal star")
        raise UnsupportedStar(
            f"self-dual split needs star^2 = +1 on a semisimple algebra; "
            f"{alg.name} does not qualify over the reals")
    sx = hodge_star(x)
    plus = (x + sx).scale(Fraction(1, 2))
    minus = (x - sx).scale(Fraction(1, 2))
    return plus, minus


@dataclass(frozen=True)
class Sl2Split:
    """so(2,2) as two commuting 3-dim simple factors (self/anti-self dual)."""

    algebra: AlgebraDescriptor
    plus_basis: tuple
    minus_basis: tuple
    plus_structure: tuple   # 3x3x3 constants in the plus basis
    minus_structure: tuple


def sl2_isomorphism(alg):
    if alg.name != "so22":
        raise AlgebraError("the two-factor splitting is implemented for so22 only")
    plus, minus = [], []
    for i in alg.h_indices:
        p, m = selfdual_split(alg.basis_element(i))
        plus.append(p)
        minus.append(m)

    def factor_structure(factor):
        cols = [list(b.coeffs) for b in factor]
        mat = exactla.transpose(cols)
        out = []
        for i in range(3):
            row = []
            for j in range(3):
                br = bracket(factor[i], factor[j])
                row.append(tuple(_lstsq_exact(mat, list(br.coeffs))))
            out.append(tuple(row))
        return tuple(out)

    return Sl2Split(algebra=alg,
                    plus_basis=tuple(plus), minus_basis=tuple(minus),
                    plus_structure=factor_structure(plus),
                    minus_structure=factor_structure(minus))


def _lstsq_exact(mat, target):
    """Solve an exactly-consistent tall system mat x = target (6x3 here)."""
    rows = [row[:] + [t] for row, t in zip(mat, target)]
    red, pivots = exactla.rref(rows)
    ncols = len(mat[0])
    if any(p == ncols for p in pivots):
        raise AlgebraError("element lies outside the factor span")
    x = [ZERO] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
    # consistency of the remaining rows is guaranteed by rref when no pivot
    # lands in the target column
    return x


# ---------------------------------------------------------------------------
# serialization (golden-file support)
# ---------------------------------------------------------------------------

def descriptor_to_json(alg):
    """JSON document with rational strings and sparse structure triples."""
    sparse = []
    for a in range(alg.dim):
        for b in range(alg.dim):
            for c, coeff in alg.bracket_table[a][b]:
                sparse.append([a, b, c, str(coeff)])
    doc = {
        "schema": 1,
        "name": alg.name,
        "matrix_dim": alg.matrix_dim,
        "spacetime_dim": alg.spacetime_dim,
        "lambda_sign": alg.lambda_sign,
        "eta": list(alg.eta),
        "labels": list(alg.labels),
        "h_indices": list(alg.h_indices),
        "p_indices": list(alg.p_indices),
        "star_square": alg.star_square,
        "basis": [[[str(x) for x in row] for row in b] for b in alg.basis],
        "structure_constants": sparse,
        "killing": [[str(x) for x in row] for row in alg.killing],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
