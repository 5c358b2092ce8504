"""Exact exterior calculus of Lie-algebra-valued forms on flat tori T^n.

Component functions are finite Fourier series with exact rational
coefficients (TrigPoly).  Wedge products are frequency-domain convolutions,
the differential is spectral, and integration over the torus reads off the
zero mode, so every identity here is decidable by exact equality.

Internally a TrigPoly keeps one positive integer denominator for the whole
series and Gaussian-integer numerators per frequency; convolutions then run
in plain integer arithmetic, which is what makes the large seeded identity
suites cheap.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import random
import re
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np

from .algebra import AlgebraError, UnsupportedStar, _per_algebra

ZERO = Fraction(0)
ONE = Fraction(1)


class CalculusError(ValueError):
    pass


class DegreeError(CalculusError):
    pass


def _reduce(den, nums):
    """Canonical form: gcd-reduced, zero entries pruned, den >= 1."""
    nums = {k: v for k, v in nums.items() if v[0] != 0 or v[1] != 0}
    if not nums:
        return 1, nums
    g = den
    for a, b in nums.values():
        g = gcd(g, a)
        g = gcd(g, b)
        if g == 1:
            break
    if g > 1:
        nums = {k: (a // g, b // g) for k, (a, b) in nums.items()}
        den //= g
    return den, nums


def _mul_nums(n1, n2):
    """Integer convolution of two Gaussian-integer coefficient dicts."""
    out = {}
    items2 = list(n2.items())
    for k1, (r1, i1) in n1.items():
        if len(k1) == 3:
            a1, b1, c1 = k1
            for k2, (r2, i2) in items2:
                k = (a1 + k2[0], b1 + k2[1], c1 + k2[2])
                re = r1 * r2 - i1 * i2
                im = r1 * i2 + i1 * r2
                cur = out.get(k)
                if cur:
                    re += cur[0]
                    im += cur[1]
                if re == 0 and im == 0:
                    out.pop(k, None)
                else:
                    out[k] = (re, im)
        elif len(k1) == 4:
            a1, b1, c1, d1 = k1
            for k2, (r2, i2) in items2:
                k = (a1 + k2[0], b1 + k2[1], c1 + k2[2], d1 + k2[3])
                re = r1 * r2 - i1 * i2
                im = r1 * i2 + i1 * r2
                cur = out.get(k)
                if cur:
                    re += cur[0]
                    im += cur[1]
                if re == 0 and im == 0:
                    out.pop(k, None)
                else:
                    out[k] = (re, im)
        else:
            for k2, (r2, i2) in items2:
                k = tuple(a + b for a, b in zip(k1, k2))
                re = r1 * r2 - i1 * i2
                im = r1 * i2 + i1 * r2
                cur = out.get(k)
                if cur:
                    re += cur[0]
                    im += cur[1]
                if re == 0 and im == 0:
                    out.pop(k, None)
                else:
                    out[k] = (re, im)
    return out


def _acc_add(slot, sden, snums, fnum, fden):
    """slot += (fnum/fden) * (snums/sden); slot is a mutable [den, nums]."""
    tden = sden * fden
    den0 = slot[0]
    if den0 == tden:
        ms = 1
    else:
        g = gcd(den0, tden)
        lcm = den0 // g * tden
        m0 = lcm // den0
        ms = lcm // tden
        if m0 != 1:
            nums0 = slot[1]
            for k, (a, b) in nums0.items():
                nums0[k] = (a * m0, b * m0)
            slot[0] = lcm
    nums0 = slot[1]
    f = ms * fnum
    for k, (a, b) in snums.items():
        cur = nums0.get(k)
        if cur:
            na = cur[0] + f * a
            nb = cur[1] + f * b
            if na == 0 and nb == 0:
                del nums0[k]
            else:
                nums0[k] = (na, nb)
        else:
            nums0[k] = (f * a, f * b)


def _wrap(dim, den, nums):
    p = TrigPoly.__new__(TrigPoly)
    p.dim = dim
    p.den, p.nums = _reduce(den, nums)
    return p


class TrigPoly:
    """Real-valued trigonometric polynomial on T^n.

    Sparse map k -> coefficient of e^{i k.x}, with the Hermitian partner at
    -k always present so the function is real.  All coefficients are exact
    rationals.
    """

    __slots__ = ("dim", "den", "nums")

    def __init__(self, dim, coeffs=None):
        self.dim = dim
        if not coeffs:
            self.den = 1
            self.nums = {}
            return
        fracs = {}
        den = 1
        for k, (re, im) in coeffs.items():
            re, im = Fraction(re), Fraction(im)
            if re == 0 and im == 0:
                continue
            k = tuple(int(x) for x in k)
            if len(k) != dim:
                raise CalculusError(f"frequency {k} has wrong dimension")
            fracs[k] = (re, im)
            den = den // gcd(den, re.denominator) * re.denominator
            den = den // gcd(den, im.denominator) * im.denominator
        nums = {k: (int(re * den), int(im * den)) for k, (re, im) in fracs.items()}
        for k, (a, b) in nums.items():
            mk = tuple(-x for x in k)
            if nums.get(mk) != (a, -b):
                raise CalculusError(f"coefficients at {k} break Hermitian symmetry")
        self.den, self.nums = _reduce(den, nums)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {(0,) * dim: (Fraction(value), 0)})

    @classmethod
    def harmonic(cls, dim, k, re, im=0):
        """re*cos(k.x) - im*sin(k.x), entered as the exponential pair."""
        k = tuple(int(x) for x in k)
        re, im = Fraction(re), Fraction(im)
        if all(x == 0 for x in k):
            if im != 0:
                raise CalculusError("zero mode must be real")
            return cls(dim, {k: (re, 0)})
        half = Fraction(1, 2)
        mk = tuple(-x for x in k)
        return cls(dim, {k: (re * half, im * half), mk: (re * half, -im * half)})

    @classmethod
    def cosine(cls, dim, k, amp=1):
        return cls.harmonic(dim, k, amp, 0)

    @classmethod
    def sine(cls, dim, k, amp=1):
        return cls.harmonic(dim, k, 0, -Fraction(amp))

    # -- algebra ------------------------------------------------------------

    def _binop(self, other, sign):
        if self.dim != other.dim:
            raise CalculusError("torus dimension mismatch")
        slot = [self.den, dict(self.nums)]
        _acc_add(slot, other.den, other.nums, sign, 1)
        return _wrap(self.dim, slot[0], slot[1])

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        s = Fraction(s)
        if s == 0:
            return TrigPoly.zero(self.dim)
        nums = {k: (a * s.numerator, b * s.numerator)
                for k, (a, b) in self.nums.items()}
        return _wrap(self.dim, self.den * s.denominator, nums)

    def __mul__(self, other):
        if self.dim != other.dim:
            raise CalculusError("torus dimension mismatch")
        return _wrap(self.dim, self.den * other.den,
                     _mul_nums(self.nums, other.nums))

    def deriv(self, j):
        """d/dx_j, spectral: coefficient at k picks up a factor i*k_j."""
        nums = {}
        for k, (a, b) in self.nums.items():
            kj = k[j]
            if kj:
                nums[k] = (-kj * b, kj * a)
        return _wrap(self.dim, self.den, nums)

    # -- queries ------------------------------------------------------------

    def coeff(self, k):
        c = self.nums.get(tuple(k))
        if not c:
            return (ZERO, ZERO)
        return (Fraction(c[0], self.den), Fraction(c[1], self.den))

    def fraction_coeffs(self):
        return {k: (Fraction(a, self.den), Fraction(b, self.den))
                for k, (a, b) in self.nums.items()}

    def constant_term(self):
        c = self.nums.get((0,) * self.dim)
        return Fraction(c[0], self.den) if c else ZERO

    def max_abs_freq(self):
        if not self.nums:
            return 0
        return max(max(abs(x) for x in k) for k in self.nums)

    def is_zero(self):
        return not self.nums

    def __eq__(self, other):
        return (isinstance(other, TrigPoly) and self.dim == other.dim
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.dim, self.den, frozenset(self.nums.items())))

    def __repr__(self):
        if not self.nums:
            return f"TrigPoly({self.dim}d, 0)"
        return f"TrigPoly({self.dim}d, {len(self.nums)} modes)"

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x):
        """Float value at a point x (length-n sequence of radians)."""
        total = 0.0
        for k, (a, b) in self.nums.items():
            phase = sum(ki * xi for ki, xi in zip(k, x))
            total += a * math.cos(phase) - b * math.sin(phase)
        return total / self.den

    def evaluate_mesh(self, axes):
        """Float values on a broadcastable mesh (one array per coordinate)."""
        shape = np.broadcast(*axes).shape if len(axes) > 1 else np.shape(axes[0])
        total = np.zeros(shape)
        for k, (a, b) in self.nums.items():
            phase = sum(ki * ax for ki, ax in zip(k, axes))
            if not isinstance(phase, np.ndarray):
                phase = np.asarray(float(phase))
            total = total + a * np.cos(phase) - b * np.sin(phase)
        return total / self.den


# ---------------------------------------------------------------------------
# multi-index helpers
# ---------------------------------------------------------------------------

@functools.cache
def _merge_indices(i_idx, j_idx):
    """Sign and sorted concatenation of strictly increasing multi-indices.

    Returns (0, None) when an index repeats.  Memoized: on T^n there are at
    most 2^n x 2^n index pairs.
    """
    merged = list(i_idx) + list(j_idx)
    if len(set(merged)) != len(merged):
        return 0, None
    sign = 1
    for i in range(len(merged)):
        for j in range(i + 1, len(merged)):
            if merged[i] > merged[j]:
                sign = -sign
    return sign, tuple(sorted(merged))


def multi_indices(dim, degree):
    return list(combinations(range(dim), degree))


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------
#
# Every form keys its components by (value index, multi-index).  A
# Lie-valued form has one value index per basis element of its algebra; a
# scalar form has the single value index 0 and algebra None.

def _check_key(values, dim, degree, alpha, idx):
    """Refuse a component key (alpha, idx) that a degree-`degree` form on
    T^dim with `values` value indices cannot have."""
    if not 0 <= alpha < values:
        raise CalculusError(f"algebra index {alpha} out of range")
    if len(idx) != degree or list(idx) != sorted(set(idx)):
        raise CalculusError(f"bad multi-index {idx}")
    if idx and not (idx[0] >= 0 and idx[-1] < dim):
        raise CalculusError(f"multi-index {idx} out of range on T^{dim}")


class _Form:
    """Shared body of ScalarForm and LieForm: sparse TrigPoly components.

    `comps` is written only when the form is made; `_index` keeps the
    frequency index of the components (_freq_index) once it is built.
    """

    __slots__ = ("algebra", "dim", "degree", "comps", "_index")

    def __init__(self, algebra, dim, degree, comps):
        if not 0 <= degree <= dim:
            raise DegreeError(f"degree {degree} out of range on T^{dim}")
        self.algebra = algebra
        self.dim = dim
        self.degree = degree
        self._index = None
        self.comps = {}
        values = self._values
        for (alpha, idx), poly in comps.items():
            idx = tuple(idx)
            _check_key(values, dim, degree, alpha, idx)
            if poly.is_zero():
                continue
            self.comps[(alpha, idx)] = poly

    @property
    def _values(self):
        """Number of value indices: 1 for a scalar form."""
        return 1 if self.algebra is None else self.algebra.dim

    def _new(self, degree, comps):
        """A form of this kind on the same torus; comps is taken as is."""
        f = object.__new__(type(self))
        f.algebra, f.dim, f.degree, f.comps = self.algebra, self.dim, degree, comps
        f._index = None
        return f

    def _check_mate(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraError("forms valued in different algebras")
        if self.dim != other.dim:
            raise CalculusError("torus dimension mismatch")

    def _binop(self, other, sign):
        self._check_mate(other)
        if self.degree != other.degree:
            raise CalculusError("degree mismatch")
        out = dict(self.comps)
        for key, poly in other.comps.items():
            cur = out.get(key)
            val = cur._binop(poly, sign) if cur else (poly if sign == 1 else -poly)
            if val.is_zero():
                out.pop(key, None)
            else:
                out[key] = val
        return self._new(self.degree, out)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def scale(self, s):
        comps = {}
        for key, poly in self.comps.items():
            sp = poly.scale(s)
            if not sp.is_zero():
                comps[key] = sp
        return self._new(self.degree, comps)

    def __neg__(self):
        return self.scale(-1)

    def d(self):
        """Componentwise spectral differential; d(d(w)) = 0 exactly.

        Each term sign * d/dx_j of a component is the integer numerators
        (-s k_j b, s k_j a) over the component's denominator, accumulated
        straight into one slot per output key and reduced once.
        """
        if self.degree >= self.dim:
            raise DegreeError("cannot apply d to a top-degree form")
        acc = {}
        for (alpha, idx), poly in self.comps.items():
            for j in range(self.dim):
                sign, new_idx = _merge_indices((j,), idx)
                if sign == 0:
                    continue
                nums = {}
                for k, (a, b) in poly.nums.items():
                    kj = k[j]
                    if kj:
                        kj *= sign
                        nums[k] = (-kj * b, kj * a)
                if nums:
                    slot = acc.setdefault((alpha, new_idx), [1, {}])
                    _acc_add(slot, poly.den, nums, 1, 1)
        return self._new(self.degree + 1, _finish(self.dim, acc))

    def max_abs_freq(self):
        return max((p.max_abs_freq() for p in self.comps.values()), default=0)

    def is_zero(self):
        return not self.comps

    def __eq__(self, other):
        return (isinstance(other, _Form) and self.algebra is other.algebra
                and self.dim == other.dim and self.degree == other.degree
                and self.comps == other.comps)

    def __hash__(self):
        return hash((getattr(self.algebra, "name", None), self.dim, self.degree,
                     frozenset(self.comps.items())))


class ScalarForm(_Form):
    """Real-valued p-form on T^n with TrigPoly components."""

    __slots__ = ()

    def __init__(self, dim, degree, comps=None):
        super().__init__(None, dim, degree,
                         {(0, idx): poly for idx, poly in (comps or {}).items()})

    @classmethod
    def zero(cls, dim, degree):
        return cls(dim, degree, {})

    @classmethod
    def dx(cls, dim, i):
        return cls(dim, 1, {(i,): TrigPoly.constant(dim, 1)})

    @classmethod
    def volume(cls, dim, coeff=1):
        return cls(dim, dim, {tuple(range(dim)): TrigPoly.constant(dim, coeff)})

    def component(self, idx):
        return self.comps.get((0, tuple(idx)), TrigPoly.zero(self.dim))

    def wedge(self, other):
        return wedge(self, other)

    def integral(self):
        """Integral over T^n as the rational multiple of (2 pi)^n."""
        if self.degree != self.dim:
            raise DegreeError("only top-degree forms are integrated")
        top = self.comps.get((0, tuple(range(self.dim))))
        return top.constant_term() if top else ZERO

    def __repr__(self):
        return (f"ScalarForm(T^{self.dim}, degree {self.degree}, "
                f"{len(self.comps)} components)")


class LieForm(_Form):
    """Algebra-valued p-form: components indexed by (basis index, multi-index)."""

    __slots__ = ()

    def __init__(self, algebra, dim, degree, comps=None):
        super().__init__(algebra, dim, degree, comps or {})

    @classmethod
    def zero(cls, algebra, dim, degree):
        return cls(algebra, dim, degree, {})

    def component(self, alpha, idx):
        return self.comps.get((alpha, tuple(idx)), TrigPoly.zero(self.dim))

    def h_part(self):
        return self._restrict(self.algebra.h_indices)

    def p_part(self):
        return self._restrict(self.algebra.p_indices)

    def _restrict(self, indices):
        keep = set(indices)
        return self._new(self.degree, {k: v for k, v in self.comps.items()
                                       if k[0] in keep})

    def involute(self):
        """Apply the grading involution to the Lie-algebra values."""
        pset = set(self.algebra.p_indices)
        return self._new(self.degree, {k: (v.scale(-1) if k[0] in pset else v)
                                       for k, v in self.comps.items()})

    def star(self):
        """Apply the internal Hodge star to the Lie-algebra values."""
        s = self.algebra.star_matrix
        if s is None:
            raise UnsupportedStar(
                f"{self.algebra.name} has no full internal Hodge star")
        return self._apply_matrix(s, range(self.algebra.dim))

    def h_block_star(self):
        """Stabilizer-block star for the 4d algebras; input must be h-valued."""
        alg = self.algebra
        if alg.h_star_matrix is None:
            return self.star()
        pset = set(alg.p_indices)
        if any(k[0] in pset for k in self.comps):
            raise UnsupportedStar(
                f"{alg.name}: stabilizer-block star applies to h-valued forms only")
        return self._apply_matrix(alg.h_star_matrix, alg.h_indices)

    def _apply_matrix(self, s, basis):
        """Act on the values by s, whose column j is the image of basis[j]
        in the coordinates basis[i]: the constant scalar 0-form 1,
        contracted with this form through the table of s."""
        row = [()] * self._values
        for j, alpha in enumerate(basis):
            row[alpha] = tuple((basis[i], Fraction(s[i][j]))
                               for i in range(len(basis)) if s[i][j] != 0)
        return _contract(_unit(self.dim), self, (row,), self)

    def __repr__(self):
        return (f"LieForm({self.algebra.name} on T^{self.dim}, "
                f"degree {self.degree}, {len(self.comps)} components)")


def _finish(dim, acc):
    """Components from kernel accumulators [den, nums]; empty ones drop."""
    return {key: _wrap(dim, den, nums) for key, (den, nums) in acc.items()
            if nums}


# ---------------------------------------------------------------------------
# the contraction kernel
# ---------------------------------------------------------------------------

def _contract(w, m, table, like, unordered=False):
    """Sum over component pairs of table[alpha][beta] (x) (w_alpha ^ m_beta).

    table[alpha][beta] lists (gamma, Fraction): the pair of value indices
    (alpha, beta) contributes coeff * w_alpha ^ m_beta to value index
    gamma.  The result is a form of the same kind as `like`.  The tables
    of the callers are the structure constants (bracket), the gram with
    gamma = 0 (pairing), the identity (wedges with a scalar factor) and a
    matrix contracted with the constant 0-form 1 (internal stars).

    With `unordered` (m is w, degree >= 1) each unordered pair of
    components p < q is visited once: the caller passes the table that
    folds the pair (q, p) into (p, q) (see _self_bracket_table), and the
    diagonal (p, p) vanishes because its merged multi-index repeats.
    """
    if w.dim != m.dim:
        raise CalculusError("torus dimension mismatch")
    deg = w.degree + m.degree
    if deg > w.dim:
        raise DegreeError(f"degree {deg} exceeds the torus dimension {w.dim}")
    acc = {}
    mates = list(m.comps.items())
    for p, ((alpha, i_idx), f) in enumerate(w.comps.items()):
        row = table[alpha]
        for (beta, j_idx), g in (mates[p + 1:] if unordered else mates):
            targets = row[beta]
            if not targets:
                continue
            sign, merged = _merge_indices(i_idx, j_idx)
            if sign == 0:
                continue
            prod = _mul_nums(f.nums, g.nums)
            if not prod:
                continue
            pden = f.den * g.den
            for gamma, coeff in targets:
                c = coeff if sign == 1 else -coeff
                slot = acc.setdefault((gamma, merged), [1, {}])
                _acc_add(slot, pden, prod, c.numerator, c.denominator)
    return like._new(deg, _finish(w.dim, acc))


@functools.cache
def _unit(dim):
    """The constant scalar 0-form 1 on T^dim."""
    return ScalarForm(dim, 0, {(): TrigPoly.constant(dim, 1)})


@functools.cache
def _wedge_table(rows, cols):
    """Identity table of a wedge with at most one Lie-valued factor: the
    value index of that factor passes through (a scalar factor has the
    single value index 0, so rows or cols is 1)."""
    return tuple(tuple(((a + b, ONE),) for b in range(cols))
                 for a in range(rows))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def wedge(a, b):
    """Wedge product; at most one factor may be Lie-algebra valued."""
    if not (isinstance(a, _Form) and isinstance(b, _Form)) or (
            a.algebra is not None and b.algebra is not None):
        raise CalculusError(
            "wedge of two Lie-valued forms is ambiguous; use lie_bracket_forms "
            "or beta_pair")
    return _contract(a, b, _wedge_table(a._values, b._values),
                     a if b.algebra is None else b)


def lie_bracket_forms(w, m):
    """[w, m]: wedge on the form part, Lie bracket on the values.

    A self-bracket [w, w] of degree >= 1 walks each unordered pair of
    components once (see _contract).
    """
    w._check_mate(m)
    if m is w and w.degree >= 1:
        table = _per_algebra(_self_bracket_table, w.algebra, w.degree % 2)
        return _contract(w, w, table, w, unordered=True)
    return _contract(w, m, w.algebra.bracket_table, w)


def _self_bracket_table(alg, parity):
    """D = C + (-1)^parity C^T on the bracket table C of alg.

    For components p = (alpha, I) and q = (beta, J) of a form of degree
    deg, the pair (q, p) contributes C[beta][alpha] with the merge sign of
    (J, I), which is (-1)^(deg^2) = (-1)^parity times that of (I, J); so
    the two ordered pairs together are D[alpha][beta] with the sign of
    (I, J).  Exact for any table, antisymmetric or not.
    """
    sign = -1 if parity else 1
    c = alg.bracket_table
    rows = []
    for a in range(alg.dim):
        row = []
        for b in range(alg.dim):
            coeffs = dict(c[a][b])
            for gamma, x in c[b][a]:
                coeffs[gamma] = coeffs.get(gamma, ZERO) + sign * x
            row.append(tuple((gamma, x) for gamma, x in sorted(coeffs.items())
                             if x != 0))
        rows.append(tuple(row))
    return tuple(rows)


def exterior_d(w):
    """Componentwise spectral differential; d(d(w)) = 0 exactly."""
    return w.d()


def covariant_d(a, w):
    """d_A w = dw + [A, w] for a degree-1 connection form A."""
    if a.degree != 1:
        raise CalculusError("connection form must have degree 1")
    return exterior_d(w) + lie_bracket_forms(a, w)


def beta_pair(form, w, m):
    """Scalar form beta(w ^ m) for an invariant bilinear form."""
    w._check_mate(m)
    if form.algebra is not w.algebra:
        raise AlgebraError("bilinear form belongs to a different algebra")
    table = tuple(tuple(((0, c),) if c != 0 else () for c in row)
                  for row in form.gram)
    return _contract(w, m, table, _unit(w.dim))


@functools.cache
def _complement(dim, idx):
    return tuple(i for i in range(dim) if i not in idx)


def _check_top(w, *mates, derivatives=0):
    """Refuse the operands of an integral over T^n of w wedged with the
    mates, after `derivatives` exterior derivatives of the last: another
    algebra or torus, or degrees that do not sum to n."""
    for m in mates:
        w._check_mate(m)
    deg = w.degree + sum(m.degree for m in mates) + derivatives
    if deg != w.dim:
        raise DegreeError(f"pairing degree {deg} is not the top degree on "
                          f"T^{w.dim}")


def _freq_index(form):
    """(den, {multi-index: {k: [(alpha, re, im)]}}): the modes of the form
    by block and frequency, the numerators re + i im over den, the lcm of
    the component denominators.  Built on first use and kept on the form,
    whose components never change."""
    index = form._index
    if index is None:
        den = math.lcm(*(poly.den for poly in form.comps.values()))
        blocks = {}
        for (alpha, idx), poly in form.comps.items():
            block = blocks.setdefault(idx, {})
            scale = den // poly.den
            for k, (a, b) in poly.nums.items():
                block.setdefault(k, []).append((alpha, a * scale, b * scale))
        index = form._index = (den, blocks)
    return index


# ---------------------------------------------------------------------------
# pairing matrices
# ---------------------------------------------------------------------------
#
# Each matrix is a join of the frequency indices of its operands.  Every
# TrigPoly stores the Hermitian partner of each mode, so the zero mode of a
# product f g is sum_k Re(f_k conj(g_k)) over the frequencies f and g
# share, and the mode of f at -k is the conjugate of its mode at k.  Each
# operand brings one denominator, so a matrix adds integer numerators over
# the product of its operands' denominators.

class _PairingMatrix:
    """Int w^alpha ^ m^beta over T^n for every pair of value indices of two
    Lie-valued forms w and m of top total degree, as rational multiples of
    (2 pi)^n: integer numerators nums[(alpha, beta)], zeros dropped, over
    one denominator den.

    Int beta(w ^ m) is the contraction of the matrix with the gram of the
    invariant form beta (_gram_sum), so operands paired with several forms
    are walked once.
    """

    __slots__ = ("algebra", "den", "nums")

    def __init__(self, algebra, den, nums):
        self.algebra, self.den = algebra, den
        self.nums = {key: n for key, n in nums.items() if n}


def _pairing_matrix(w, m):
    """The _PairingMatrix of Int w^alpha ^ m^beta.

    Each block I of w meets the block of m at the complement of I; at each
    shared frequency k the entry gains sign(I, complement) (a c + b d) for
    the modes a + i b of w and c + i d of m.
    """
    _check_top(w, m)
    wden, blocks = _freq_index(w)
    mden, mates = _freq_index(m)
    nums = {}
    for i_idx, fblock in blocks.items():
        j_idx = _complement(w.dim, i_idx)
        gblock = mates.get(j_idx)
        if gblock is None:
            continue
        sign = _merge_indices(i_idx, j_idx)[0]
        for k, fs in fblock.items():
            gs = gblock.get(k)
            if gs is None:
                continue
            for alpha, a, b in fs:
                for beta, c, d in gs:
                    s = a * c + b * d
                    if s:
                        key = (alpha, beta)
                        nums[key] = nums.get(key, 0) + sign * s
    return _PairingMatrix(w.algebra, wden * mden, nums)


@functools.cache
def _d_pairing_sign(dim, i_idx, j_idx):
    """(l, sign) when blocks I of w and J of m leave exactly the index l
    free: J is paired with the d_l part of dm at L = (l, J) merged, with
    sign(l, J) sign(I, L).  None for any other pair of blocks."""
    sign, merged = _merge_indices(i_idx, j_idx)
    free = _complement(dim, merged) if sign else ()
    if len(free) != 1:
        return None
    l_sign, l_idx = _merge_indices(free, j_idx)
    return free[0], l_sign * _merge_indices(i_idx, l_idx)[0]


def _d_pairing_matrix(w, m):
    """The _PairingMatrix of Int w^alpha ^ (dm)^beta, without dm.

    The mode k of d_l g is i k_l (c + i d), so a block I of w meets each
    block J of m that leaves one index l free (_d_pairing_sign), and at
    each shared frequency k the entry gains sign k_l (b c - a d).  Refuses
    what _pairing_matrix(w, exterior_d(m)) refuses.
    """
    _check_top(w, m, derivatives=1)
    dim = w.dim
    wden, blocks = _freq_index(w)
    mden, mates = _freq_index(m)
    nums = {}
    for i_idx, fblock in blocks.items():
        for j_idx, gblock in mates.items():
            hit = _d_pairing_sign(dim, i_idx, j_idx)
            if hit is None:
                continue
            l, sign = hit
            for k, fs in fblock.items():
                gs = gblock.get(k)
                if gs is None or not k[l]:
                    continue
                kl = sign * k[l]
                for alpha, a, b in fs:
                    for beta, c, d in gs:
                        s = b * c - a * d
                        if s:
                            key = (alpha, beta)
                            nums[key] = nums.get(key, 0) + kl * s
    return _PairingMatrix(w.algebra, wden * mden, nums)


def _integer_table(alg, parity):
    """The bracket table of alg (parity None) or its _self_bracket_table of
    that parity, with int coefficients, for the bracket pairing kernel.
    Refuses a table with an entry that is not an integer: build_algebra
    makes none, and a matrix keeps one denominator per operand."""
    table = (alg.bracket_table if parity is None
             else _per_algebra(_self_bracket_table, alg, parity))
    ints = tuple(tuple(tuple((gamma, int(x)) for gamma, x in entry)
                       for entry in row) for row in table)
    if ints != table:       # int() truncated an entry
        raise AlgebraError(f"{alg.name}: the bracket pairing needs integer "
                           "structure constants")
    return ints


def _bracket_pairing_matrix(w, u, v):
    """The _PairingMatrix of Int w^alpha ^ [u, v]^gamma, without [u, v].

    The integral of a component product f g h is its zero mode,
    sum over k1 + k2 + k3 = 0 of Re(g_k1 h_k2 f_k3).  So each pair of
    blocks (I1, I2) of u and v takes its merge sign and the block of w at
    the complement once, joins the frequencies k1 and k2 of its modes, and
    only where w has a mode at -(k1 + k2), the conjugate of its mode
    a + i b at k1 + k2, reads the bracket table for the components there:
    (g h)_re a + (g h)_im b per value triple.  [u, v] is never formed.

    A self-bracket of degree >= 1 visits each unordered block pair once,
    I1 < I2, with the table D of _self_bracket_table, which folds both
    orders of a pair into one (see there); a pair within one block repeats
    an index.  The table must have integer entries (_integer_table).
    """
    _check_top(w, u, v)
    alg, dim = w.algebra, w.dim
    unordered = v is u and u.degree >= 1
    table = _per_algebra(_integer_table, alg,
                         u.degree % 2 if unordered else None)
    wden, windex = _freq_index(w)
    uden, uindex = _freq_index(u)
    vden, vindex = _freq_index(v)
    nums = {}
    for i1, gblock in uindex.items():
        for i2, hblock in vindex.items():
            if unordered and i2 <= i1:
                continue
            sign, merged = _merge_indices(i1, i2)
            if sign == 0:
                continue
            i_idx = _complement(dim, merged)
            fblock = windex.get(i_idx)
            if fblock is None:
                continue
            sign *= _merge_indices(i_idx, merged)[0]
            part = {}
            for k1, gs in gblock.items():
                for k2, hs in hblock.items():
                    # unrolled in 3d: map() takes about three times as long
                    if dim == 3:
                        k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                    else:
                        k = tuple(map(operator.add, k1, k2))
                    fs = fblock.get(k)
                    if fs is None:
                        continue
                    for beta, a1, b1 in gs:
                        row = table[beta]
                        for delta, a2, b2 in hs:
                            if not row[delta]:
                                continue
                            re = a1 * a2 - b1 * b2
                            im = a1 * b2 + b1 * a2
                            for alpha, a3, b3 in fs:
                                key = (alpha, beta, delta)
                                part[key] = part.get(key, 0) + re * a3 + im * b3
            for (alpha, beta, delta), s in part.items():
                if not s:
                    continue
                for gamma, coeff in table[beta][delta]:
                    key = (alpha, gamma)
                    nums[key] = nums.get(key, 0) + sign * coeff * s
    return _PairingMatrix(alg, wden * uden * vden, nums)


def _gram_blocks(form, matrix, split):
    """Int beta(w ^ m) from the _PairingMatrix of w and m, split by the
    h | p blocks with the value indices below split in h: the sums of
    gram[alpha][beta] matrix[alpha][beta] over the hh, hp, ph and pp
    blocks, as (denominator > 0, hh, hp, ph, pp), unreduced ints."""
    if form.algebra is not matrix.algebra:
        raise AlgebraError("bilinear form belongs to a different algebra")
    den, rows = form.gram_ints
    sums = [0, 0, 0, 0]
    for (alpha, beta), n in matrix.nums.items():
        g = rows[alpha].get(beta)
        if g is not None:
            sums[2 * (alpha >= split) + (beta >= split)] += g * n
    return (den * matrix.den, *sums)


def _gram_sum(form, matrix):
    """Int beta(w ^ m) from the _PairingMatrix of w and m as an unreduced
    pair of ints (numerator, denominator > 0)."""
    den, *sums = _gram_blocks(form, matrix, 0)     # split 0: all in pp
    return sums[3], den


def pair_integral(form, w, m):
    """Int beta(w ^ m) over T^n, as the rational multiple of (2 pi)^n.

    The same Fraction as integrating the scalar form beta_pair(form, w, m),
    but only the zero mode of each component product is formed: the gram
    contraction of the _PairingMatrix of w and m.  For many forms on the
    same operands, build the matrix once and contract it with each gram.
    """
    return Fraction(*_gram_sum(form, _pairing_matrix(w, m)))


def integrate(w):
    """Exact integral of a scalar top-form, as a multiple of (2 pi)^n."""
    if not isinstance(w, ScalarForm):
        raise CalculusError("only scalar forms are integrated; pair first")
    return w.integral()


# ---------------------------------------------------------------------------
# pointwise evaluation (numeric pipeline)
# ---------------------------------------------------------------------------
#
# Pointwise arrays put the points on the last axis, so the small form and
# Lie indices lead and every per-point operation is either elementwise over
# a contiguous points vector or one matmul with a constant matrix.

def _lattice_axis(n):
    """The n coordinates 2 pi m/n of one axis of the uniform grid."""
    return np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)


def _point_coefficients(forms, rows=None):
    """(freqs, coefs): the (nf, n) union of the forms' frequencies, each
    +-k Hermitian pair once, and per form its (ncomp, dim, 2 nf) cos(k.x)
    then sin(k.x) weights (a folded pair at double weight), components in
    multi_indices order; with `rows`, a list of Lie indices, only those
    rows, (ncomp, len(rows), 2 nf) in that order."""
    freqs = sorted({k for w in forms for poly in w.comps.values()
                    for k in poly.nums if k >= tuple(-x for x in k)})
    row = {k: i for i, k in enumerate(freqs)}
    nf = len(freqs)
    coefs = []
    for w in forms:
        lie = {a: a for a in range(w.algebra.dim)} if rows is None \
            else {a: j for j, a in enumerate(rows)}
        pos = {idx: i for i, idx in enumerate(multi_indices(w.dim, w.degree))}
        c = np.zeros((len(pos), len(lie), 2 * nf))
        for (alpha, idx), poly in w.comps.items():
            if alpha not in lie:
                continue
            alpha = lie[alpha]
            for k, (a, b) in poly.nums.items():
                i = row.get(k)
                if i is None:
                    continue
                weight = 2 if any(k) else 1
                c[pos[idx], alpha, i] = weight * a / poly.den
                c[pos[idx], alpha, nf + i] = -weight * b / poly.den
        coefs.append(c)
    return np.array(freqs, dtype=float).reshape(nf, forms[0].dim), coefs


def _trig_table(freqs, axes):
    """cos(k.x) then sin(k.x) for freqs (see _point_coefficients) at points
    given as one coordinate array per axis: (2 nf, npts), so that
    coefficients @ table are the values."""
    phase = freqs @ np.stack(axes)
    return np.concatenate([np.cos(phase), np.sin(phase)])


def _lattice_factors(freqs, n):
    """exp(i k_j x) at the n coordinates x = 2 pi m/n of each axis j of the
    uniform lattice: (dim, nf, n) for freqs (nf, dim)."""
    return np.exp(np.multiply.outer(freqs.T, (2j * math.pi / n) * np.arange(n)))


def _lattice_table(factors):
    """_trig_table(freqs, axes) on the n^dim uniform lattice, by outer
    products of the _lattice_factors(freqs, n).

    exp(i k.x) is the product over the axes of exp(i k_j x_j), so each
    frequency needs the n phases of each axis once and every lattice point
    costs only multiplies.  Points are in lattice order, the first axis
    slowest; no frequencies give a (0, n^dim) table.
    """
    _, nf, n = factors.shape
    table = np.ones((nf, 1), dtype=complex)
    for axis in factors:
        table = (table[:, :, None] * axis[:, None, :]).reshape(
            nf, table.shape[1] * n)
    return np.concatenate((table.real, table.imag))


def _eval_on_lattice(freqs, coefs, n):
    """Values on the n^dim lattice of the coefficient arrays `coefs` over
    `freqs` (see _point_coefficients), one (..., n^dim) array per array,
    without the full table.

    The first axis folds into the weights: the value at x is
    Re sum_k (A - iB) exp(i k_1 x_1) exp(i k'.x') over the other axes x',
    so the weights (A, B) at k become (Re g, -Im g) per x_1, with
    g = (A - iB) exp(i k_1 x_1), and one matmul with the _lattice_table of
    the other axes gives the values.
    """
    nf = len(freqs)
    factors = _lattice_factors(freqs, n)
    rest = _lattice_table(factors[1:])                     # (2 nf, n^(dim-1))
    values = []
    for c in coefs:
        g = (c[..., None, :nf] - 1j * c[..., None, nf:]) * factors[0].T
        folded = np.concatenate((g.real, -g.imag), axis=-1)  # (..., n, 2 nf)
        values.append((folded @ rest).reshape(c.shape[:-1] + (-1,)))
    return values


def _det_on_points(m, cols=None):
    """Determinants of a points-last stack of matrices, (n, n, npts) -> (npts,).

    Cofactor expansion along the first row: elementwise over the points,
    no LU factorization per point.  A minor is the next row over a tuple of
    the remaining columns, so no sub-matrix is copied.  Odd terms are
    subtracted, not scaled by -1, so each term costs one multiply.
    """
    if cols is None:
        cols = tuple(range(len(m)))
    row = len(m) - len(cols)
    if len(cols) == 1:
        return m[row, cols[0]]
    det = m[row, cols[0]] * _det_on_points(m, cols[1:])
    for j in range(1, len(cols)):
        term = m[row, cols[j]] * _det_on_points(m, cols[:j] + cols[j + 1:])
        det = det - term if j % 2 else det + term
    return det


# ---------------------------------------------------------------------------
# seeded random forms
# ---------------------------------------------------------------------------

_COEFF_POOL = [Fraction(n, d) for n in (-2, -1, 1, 2) for d in (1, 2, 3)]
_POOL_PAIRS = [(c.numerator, c.denominator) for c in _COEFF_POOL]


def _rng_for(seed, *context):
    return random.Random(":".join(str(c) for c in (seed,) + context))


def random_form(seed, degree, algebra, dim=None, cutoff=1, support="full",
                density=0.6, terms=1):
    """Deterministic random Lie-valued form with small rational coefficients.

    `support` restricts the Lie-algebra values to the stabilizer ("h"),
    the translations ("p"), or allows both ("full").  Frequencies are
    bounded by `cutoff` in each direction.
    """
    if cutoff < 1:
        raise CalculusError("cutoff must be >= 1")
    if dim is None:
        dim = algebra.spacetime_dim
    if support == "h":
        lie_indices = algebra.h_indices
    elif support == "p":
        lie_indices = algebra.p_indices
    elif support == "full":
        lie_indices = tuple(range(algebra.dim))
    else:
        raise CalculusError(f"unknown support {support!r}")
    rng = _rng_for(seed, algebra.name, dim, degree, support, cutoff)
    keys = [(alpha, idx) for alpha in lie_indices
            for idx in multi_indices(dim, degree)]
    return LieForm(algebra, dim, degree,
                   _random_comps(rng, keys, dim, cutoff, density, terms))


def random_scalar_form(seed, degree, dim, cutoff=1, density=0.7, terms=1):
    rng = _rng_for(seed, "scalar", dim, degree, cutoff)
    return ScalarForm(dim, degree, _random_comps(
        rng, multi_indices(dim, degree), dim, cutoff, density, terms))


def _random_comps(rng, keys, dim, cutoff, density, terms):
    """Each key kept with probability `density`, its component a sum of
    `terms` random harmonics; the form constructors drop zero sums.

    A harmonic re cos(k.x) - im sin(k.x) with re = rn/rd, im = jn/jd is
    the integer pair (rn jd, +-jn rd) at +-k over 2 rd jd (rn over rd
    at k = 0), added straight into the component's slot: the same rng
    calls and the same sum as TrigPoly.harmonic over _COEFF_POOL.
    """
    comps = {}
    for key in keys:
        if rng.random() > density:
            continue
        slot = [1, {}]
        for _ in range(terms):
            k = tuple(rng.randint(-cutoff, cutoff) for _ in range(dim))
            rn, rd = rng.choice(_POOL_PAIRS)
            if any(k):
                jn, jd = rng.choice(_POOL_PAIRS)
                mk = tuple(-x for x in k)
                _acc_add(slot, 2 * rd * jd,
                         {k: (rn * jd, jn * rd), mk: (rn * jd, -jn * rd)}, 1, 1)
            else:
                _acc_add(slot, rd, {k: (rn, 0)}, 1, 1)
        comps[key] = _wrap(dim, slot[0], slot[1])
    return comps


# ---------------------------------------------------------------------------
# field-configuration files
# ---------------------------------------------------------------------------

def form_to_dict(name, w):
    components = []
    for (alpha, idx) in sorted(w.comps):
        poly = w.comps[(alpha, idx)]
        coeffs = [{"k": list(k), "re": str(c[0]), "im": str(c[1])}
                  for k, c in sorted(poly.fraction_coeffs().items())]
        components.append({"lie_index": alpha, "multi_index": list(idx),
                           "coeffs": coeffs})
    return {"name": name, "degree": w.degree, "support": "full",
            "components": components}


def save_fields(path, algebra, forms):
    """Write named LieForms in the field-configuration JSON format.

    A form valued in another algebra is refused before the file is
    opened, so nothing is written.
    """
    for name, w in forms.items():
        if w.algebra is not algebra:
            raise AlgebraError(f"form {name!r} is valued in "
                               f"{w.algebra.name}, not {algebra.name}")
    dims = {w.dim for w in forms.values()}
    if len(dims) > 1:
        raise CalculusError("all forms in one file must share the torus")
    doc = {
        "schema": 1,
        "torus_dim": dims.pop() if dims else algebra.spacetime_dim,
        "algebra": algebra.name,
        "forms": [form_to_dict(name, w) for name, w in sorted(forms.items())],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a key that repeats in it."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} repeats in one JSON object")
        doc[key] = value
    return doc


def _load_json(path):
    """The JSON document in the file at `path`, as every input file is
    read: a repeated key or nesting too deep to parse is a ValueError."""
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("the JSON nests too deeply") from None


def _json_int(value, key, least=None):
    """A JSON int, not a bool or a float, and at least `least` when given;
    else a CalculusError naming key."""
    if type(value) is not int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise CalculusError(f"{key} must be an integer{bound}, got {value!r}")
    return value


_RATIONAL_STRING = re.compile(r"[-+]?[0-9]+(/[0-9]+)?")


def _json_rational(value, key):
    """A JSON int, a finite JSON float (through its shortest repr, so 0.1
    is 1/10) or a "p" / "p/q" integer string as a Fraction; else a
    CalculusError naming key.  A string with a decimal point or an
    exponent ("1e1000000") is refused, so a few characters cannot ask for
    an arbitrarily large integer."""
    if type(value) is int or type(value) is float and math.isfinite(value):
        return Fraction(repr(value))
    if isinstance(value, str) and _RATIONAL_STRING.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise CalculusError(f"{key} must be a finite rational, got {value!r}")


def _json_number(value, key):
    """A finite JSON number (not a bool) as a float; else a CalculusError
    naming key."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise CalculusError(f"{key} must be a finite number, got {value!r}")


def load_fields(path):
    """Read a field-configuration file; returns (algebra, {name: LieForm}).

    A document of the wrong shape is a CalculusError that names the form,
    the component and the key where it failed: a missing key, a value of
    the wrong JSON type, an integer given as a float or a bool, an `re` or
    `im` that is not a finite rational, a key or a coefficient set the
    form refuses, or a form name, a component key (lie_index,
    multi_index) or a coefficient mode k that repeats an earlier one.
    """
    from .algebra import build_algebra
    doc = _load_json(path)
    where = ""
    try:
        alg = build_algebra(doc["algebra"])
        dim = _json_int(doc["torus_dim"], "torus_dim")
        forms = {}
        for n, entry in enumerate(doc["forms"]):
            where = f"form {n}: "
            name = entry["name"]
            where = f"form {name!r}: "
            if name in forms:
                raise CalculusError("the name repeats an earlier form")
            degree = _json_int(entry["degree"], "degree")
            comps = {}
            for i, comp in enumerate(entry["components"]):
                where = f"form {name!r}, component {i}: "
                key = (_json_int(comp["lie_index"], "lie_index"),
                       tuple(_json_int(x, "multi_index")
                             for x in comp["multi_index"]))
                _check_key(alg.dim, dim, degree, *key)
                if key in comps:
                    raise CalculusError("(lie_index, multi_index) repeats an "
                                        "earlier component")
                poly_coeffs = {}
                for j, c in enumerate(comp["coeffs"]):
                    where = f"form {name!r}, component {i}, coeff {j}: "
                    k = tuple(_json_int(x, "k") for x in c["k"])
                    if k in poly_coeffs:
                        raise CalculusError("k repeats an earlier coefficient")
                    poly_coeffs[k] = (_json_rational(c["re"], "re"),
                                      _json_rational(c["im"], "im"))
                where = f"form {name!r}, component {i}: "
                comps[key] = TrigPoly(dim, poly_coeffs)
            forms[name] = LieForm(alg, dim, degree, comps)
    except CalculusError as exc:
        raise CalculusError(f"malformed field file ({where}{exc})") from None
    except (TypeError, AttributeError, KeyError) as exc:
        raise CalculusError(f"malformed field file ({where}"
                            f"{type(exc).__name__}: {exc})") from None
    return alg, forms
