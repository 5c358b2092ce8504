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
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np

from .algebra import AlgebraError, UnsupportedStar

ZERO = Fraction(0)


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


def _insert_index(j, idx):
    if j in idx:
        return 0, None
    below = sum(1 for i in idx if i < j)
    return (-1) ** below, tuple(sorted(idx + (j,)))


def multi_indices(dim, degree):
    return list(combinations(range(dim), degree))


# ---------------------------------------------------------------------------
# scalar forms
# ---------------------------------------------------------------------------

class ScalarForm:
    """Real-valued p-form on T^n with TrigPoly components."""

    __slots__ = ("dim", "degree", "comps")

    def __init__(self, dim, degree, comps=None):
        if not 0 <= degree <= dim:
            raise DegreeError(f"degree {degree} out of range on T^{dim}")
        self.dim = dim
        self.degree = degree
        self.comps = {}
        if comps:
            for idx, poly in comps.items():
                idx = tuple(idx)
                if len(idx) != degree or list(idx) != sorted(set(idx)):
                    raise CalculusError(f"bad multi-index {idx}")
                if poly.is_zero():
                    continue
                self.comps[idx] = poly

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
        return self.comps.get(tuple(idx), TrigPoly.zero(self.dim))

    def _binop(self, other, sign):
        if self.dim != other.dim or self.degree != other.degree:
            raise CalculusError("form shape mismatch")
        out = dict(self.comps)
        for idx, poly in other.comps.items():
            cur = out.get(idx)
            val = cur._binop(poly, sign) if cur else (poly if sign == 1 else -poly)
            if val.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = val
        f = ScalarForm.__new__(ScalarForm)
        f.dim, f.degree, f.comps = self.dim, self.degree, out
        return f

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def scale(self, s):
        f = ScalarForm.__new__(ScalarForm)
        f.dim, f.degree = self.dim, self.degree
        f.comps = {}
        for idx, poly in self.comps.items():
            sp = poly.scale(s)
            if not sp.is_zero():
                f.comps[idx] = sp
        return f

    def __neg__(self):
        return self.scale(-1)

    def wedge(self, other):
        if self.dim != other.dim:
            raise CalculusError("torus dimension mismatch")
        deg = self.degree + other.degree
        if deg > self.dim:
            raise DegreeError(f"wedge degree {deg} exceeds torus dimension")
        acc = {}
        for i_idx, f in self.comps.items():
            for j_idx, g in other.comps.items():
                sign, merged = _merge_indices(i_idx, j_idx)
                if sign == 0:
                    continue
                prod = _mul_nums(f.nums, g.nums)
                if not prod:
                    continue
                slot = acc.setdefault(merged, [1, {}])
                _acc_add(slot, f.den * g.den, prod, sign, 1)
        out = ScalarForm.__new__(ScalarForm)
        out.dim, out.degree = self.dim, deg
        out.comps = _finish(self.dim, acc)
        return out

    def d(self):
        if self.degree >= self.dim:
            raise DegreeError("cannot apply d to a top-degree form")
        comps = {}
        for idx, poly in self.comps.items():
            for j in range(self.dim):
                sign, new_idx = _insert_index(j, idx)
                if sign == 0:
                    continue
                term = poly.deriv(j).scale(sign)
                if term.is_zero():
                    continue
                cur = comps.get(new_idx)
                comps[new_idx] = cur + term if cur else term
        out = ScalarForm.__new__(ScalarForm)
        out.dim, out.degree = self.dim, self.degree + 1
        out.comps = {k: v for k, v in comps.items() if not v.is_zero()}
        return out

    def integral(self):
        """Integral over T^n as the rational multiple of (2 pi)^n."""
        if self.degree != self.dim:
            raise DegreeError("only top-degree forms are integrated")
        top = self.comps.get(tuple(range(self.dim)))
        return top.constant_term() if top else ZERO

    def max_abs_freq(self):
        return max((p.max_abs_freq() for p in self.comps.values()), default=0)

    def is_zero(self):
        return not self.comps

    def __eq__(self, other):
        return (isinstance(other, ScalarForm) and self.dim == other.dim
                and self.degree == other.degree and self.comps == other.comps)

    def __hash__(self):
        return hash((self.dim, self.degree, frozenset(self.comps.items())))

    def __repr__(self):
        return (f"ScalarForm(T^{self.dim}, degree {self.degree}, "
                f"{len(self.comps)} components)")


def _finish(dim, acc):
    out = {}
    for key, (den, nums) in acc.items():
        if nums:
            out[key] = _wrap(dim, den, nums)
    return {k: v for k, v in out.items() if not v.is_zero()}


# ---------------------------------------------------------------------------
# Lie-algebra-valued forms
# ---------------------------------------------------------------------------

class LieForm:
    """Algebra-valued p-form: components indexed by (basis index, multi-index)."""

    __slots__ = ("algebra", "dim", "degree", "comps")

    def __init__(self, algebra, dim, degree, comps=None):
        if not 0 <= degree <= dim:
            raise DegreeError(f"degree {degree} out of range on T^{dim}")
        self.algebra = algebra
        self.dim = dim
        self.degree = degree
        self.comps = {}
        if comps:
            for (alpha, idx), poly in comps.items():
                idx = tuple(idx)
                if not 0 <= alpha < algebra.dim:
                    raise CalculusError(f"algebra index {alpha} out of range")
                if len(idx) != degree or list(idx) != sorted(set(idx)):
                    raise CalculusError(f"bad multi-index {idx}")
                if poly.is_zero():
                    continue
                self.comps[(alpha, idx)] = poly

    @classmethod
    def zero(cls, algebra, dim, degree):
        return cls(algebra, dim, degree, {})

    def component(self, alpha, idx):
        return self.comps.get((alpha, tuple(idx)), TrigPoly.zero(self.dim))

    def scalar_component(self, alpha):
        """The scalar p-form multiplying basis element alpha."""
        comps = {idx: poly for (a, idx), poly in self.comps.items() if a == alpha}
        return ScalarForm(self.dim, self.degree, comps)

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
        f = LieForm.__new__(LieForm)
        f.algebra, f.dim, f.degree, f.comps = self.algebra, self.dim, self.degree, out
        return f

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def scale(self, s):
        f = LieForm.__new__(LieForm)
        f.algebra, f.dim, f.degree = self.algebra, self.dim, self.degree
        f.comps = {}
        for key, poly in self.comps.items():
            sp = poly.scale(s)
            if not sp.is_zero():
                f.comps[key] = sp
        return f

    def __neg__(self):
        return self.scale(-1)

    def h_part(self):
        keep = set(self.algebra.h_indices)
        comps = {k: v for k, v in self.comps.items() if k[0] in keep}
        return LieForm(self.algebra, self.dim, self.degree, comps)

    def p_part(self):
        keep = set(self.algebra.p_indices)
        comps = {k: v for k, v in self.comps.items() if k[0] in keep}
        return LieForm(self.algebra, self.dim, self.degree, comps)

    def involute(self):
        """Apply the grading involution to the Lie-algebra values."""
        pset = set(self.algebra.p_indices)
        comps = {k: (v.scale(-1) if k[0] in pset else v)
                 for k, v in self.comps.items()}
        return LieForm(self.algebra, self.dim, self.degree, comps)

    def star(self):
        """Apply the internal Hodge star to the Lie-algebra values."""
        s = self.algebra.star_matrix
        if s is None:
            raise UnsupportedStar(
                f"{self.algebra.name} has no full internal Hodge star")
        return self._apply_matrix(s)

    def h_block_star(self):
        """Stabilizer-block star for the 4d algebras; input must be h-valued."""
        alg = self.algebra
        if alg.h_star_matrix is None:
            return self.star()
        pset = set(alg.p_indices)
        if any(k[0] in pset for k in self.comps):
            raise UnsupportedStar(
                f"{alg.name}: stabilizer-block star applies to h-valued forms only")
        h = list(alg.h_indices)
        s = [[ZERO] * alg.dim for _ in range(alg.dim)]
        for j, col in enumerate(h):
            for i, row in enumerate(h):
                s[row][col] = alg.h_star_matrix[i][j]
        return self._apply_matrix(s)

    def _apply_matrix(self, s):
        dim_a = self.algebra.dim
        acc = {}
        for (alpha, idx), poly in self.comps.items():
            for beta in range(dim_a):
                c = s[beta][alpha]
                if c == 0:
                    continue
                c = Fraction(c)
                slot = acc.setdefault((beta, idx), [1, {}])
                _acc_add(slot, poly.den, poly.nums, c.numerator, c.denominator)
        f = LieForm.__new__(LieForm)
        f.algebra, f.dim, f.degree = self.algebra, self.dim, self.degree
        f.comps = _finish(self.dim, acc)
        return f

    def max_abs_freq(self):
        return max((p.max_abs_freq() for p in self.comps.values()), default=0)

    def is_zero(self):
        return not self.comps

    def __eq__(self, other):
        return (isinstance(other, LieForm) and self.algebra is other.algebra
                and self.dim == other.dim and self.degree == other.degree
                and self.comps == other.comps)

    def __hash__(self):
        return hash((self.algebra.name, self.dim, self.degree,
                     frozenset(self.comps.items())))

    def __repr__(self):
        return (f"LieForm({self.algebra.name} on T^{self.dim}, "
                f"degree {self.degree}, {len(self.comps)} components)")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def wedge(a, b):
    """Wedge product; at most one factor may be Lie-algebra valued."""
    if isinstance(a, ScalarForm) and isinstance(b, ScalarForm):
        return a.wedge(b)
    if isinstance(a, ScalarForm) and isinstance(b, LieForm):
        return _scalar_wedge_lie(a, b, flip=False)
    if isinstance(a, LieForm) and isinstance(b, ScalarForm):
        return _scalar_wedge_lie(b, a, flip=True)
    raise CalculusError(
        "wedge of two Lie-valued forms is ambiguous; use lie_bracket_forms "
        "or beta_pair")


def _scalar_wedge_lie(s, lie, flip):
    deg = s.degree + lie.degree
    if deg > s.dim:
        raise DegreeError("wedge degree exceeds torus dimension")
    sign_flip = (-1) ** (s.degree * lie.degree) if flip else 1
    acc = {}
    for i_idx, f in s.comps.items():
        for (alpha, j_idx), g in lie.comps.items():
            sign, merged = _merge_indices(i_idx, j_idx)
            if sign == 0:
                continue
            prod = _mul_nums(f.nums, g.nums)
            if not prod:
                continue
            slot = acc.setdefault((alpha, merged), [1, {}])
            _acc_add(slot, f.den * g.den, prod, sign * sign_flip, 1)
    out = LieForm.__new__(LieForm)
    out.algebra, out.dim, out.degree = lie.algebra, lie.dim, deg
    out.comps = _finish(lie.dim, acc)
    return out


def lie_bracket_forms(w, m):
    """[w, m]: wedge on the form part, Lie bracket on the values."""
    w._check_mate(m)
    deg = w.degree + m.degree
    if deg > w.dim:
        raise DegreeError("bracket degree exceeds torus dimension")
    table = w.algebra.bracket_table
    acc = {}
    for (alpha, i_idx), f in w.comps.items():
        row = table[alpha]
        for (beta, j_idx), g in m.comps.items():
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
    out = LieForm.__new__(LieForm)
    out.algebra, out.dim, out.degree = w.algebra, w.dim, deg
    out.comps = _finish(w.dim, acc)
    return out


def exterior_d(w):
    """Componentwise spectral differential; d(d(w)) = 0 exactly."""
    if isinstance(w, ScalarForm):
        return w.d()
    if w.degree >= w.dim:
        raise DegreeError("cannot apply d to a top-degree form")
    comps = {}
    for (alpha, idx), poly in w.comps.items():
        for j in range(w.dim):
            sign, new_idx = _insert_index(j, idx)
            if sign == 0:
                continue
            term = poly.deriv(j).scale(sign)
            if term.is_zero():
                continue
            key = (alpha, new_idx)
            cur = comps.get(key)
            comps[key] = cur + term if cur else term
    out = LieForm.__new__(LieForm)
    out.algebra, out.dim, out.degree = w.algebra, w.dim, w.degree + 1
    out.comps = {k: v for k, v in comps.items() if not v.is_zero()}
    return out


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
    deg = w.degree + m.degree
    if deg > w.dim:
        raise DegreeError("pairing degree exceeds torus dimension")
    gram = form.gram
    acc = {}
    for (alpha, i_idx), f in w.comps.items():
        row = gram[alpha]
        for (beta, j_idx), g in m.comps.items():
            coeff = row[beta]
            if coeff == 0:
                continue
            sign, merged = _merge_indices(i_idx, j_idx)
            if sign == 0:
                continue
            prod = _mul_nums(f.nums, g.nums)
            if not prod:
                continue
            c = coeff if sign == 1 else -coeff
            slot = acc.setdefault(merged, [1, {}])
            _acc_add(slot, f.den * g.den, prod, c.numerator, c.denominator)
    out = ScalarForm.__new__(ScalarForm)
    out.dim, out.degree = w.dim, deg
    out.comps = _finish(w.dim, acc)
    return out


@functools.cache
def _complement(dim, idx):
    return tuple(i for i in range(dim) if i not in idx)


def pair_integral(form, w, m):
    """Int beta(w ^ m) over T^n, as the rational multiple of (2 pi)^n.

    The same Fraction as integrating the scalar form beta_pair(form, w, m),
    but only the zero mode of each component product is formed: every
    TrigPoly stores the Hermitian partner of each mode, so
    (f g)_0 = sum_k Re(f_k conj(g_k)) = sum_k (a_k c_k + b_k d_k) over the
    frequencies f and g share.  Terms are summed in integers per
    denominator and the Fraction is built once.
    """
    w._check_mate(m)
    if form.algebra is not w.algebra:
        raise AlgebraError("bilinear form belongs to a different algebra")
    if w.degree + m.degree != w.dim:
        raise DegreeError(f"pairing degree {w.degree + m.degree} is not the "
                          f"top degree on T^{w.dim}")
    rows = form.gram_ratios
    mates = {}
    for (beta, j_idx), g in m.comps.items():
        mates.setdefault(j_idx, []).append((beta, g))
    sums = {}
    for (alpha, i_idx), f in w.comps.items():
        j_idx = _complement(w.dim, i_idx)
        group = mates.get(j_idx)
        if group is None:
            continue
        sign = _merge_indices(i_idx, j_idx)[0]
        row = rows[alpha]
        fnums = f.nums
        for beta, g in group:
            coeff = row.get(beta)
            if coeff is None:
                continue
            small, big = ((fnums, g.nums) if len(fnums) <= len(g.nums)
                          else (g.nums, fnums))
            s = 0
            for k, (a, b) in small.items():
                other = big.get(k)
                if other is not None:
                    s += a * other[0] + b * other[1]
            if s:
                den = coeff[1] * f.den * g.den
                sums[den] = sums.get(den, 0) + sign * coeff[0] * s
    lcm = 1
    for den in sums:
        lcm = lcm // gcd(lcm, den) * den
    return Fraction(sum(n * (lcm // den) for den, n in sums.items()), lcm)


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

def _eval_on_points(forms, axes):
    """Evaluate LieForms at points given as one coordinate array per axis.

    Every component of every form comes from one cos/sin table over the
    union of their frequencies, followed by one matmul; each +-k Hermitian
    pair enters once, at double weight.  Returns one (ncomp, dim, npts)
    array per form, components in multi_indices order.
    """
    freqs = sorted({k for w in forms for poly in w.comps.values()
                    for k in poly.nums if k >= tuple(-x for x in k)})
    row = {k: i for i, k in enumerate(freqs)}
    nf = len(freqs)
    coefs = []
    for w in forms:
        pos = {idx: i for i, idx in enumerate(multi_indices(w.dim, w.degree))}
        c = np.zeros((len(pos), w.algebra.dim, 2 * nf))
        for (alpha, idx), poly in w.comps.items():
            for k, (a, b) in poly.nums.items():
                i = row.get(k)
                if i is None:
                    continue
                weight = 2 if any(k) else 1
                c[pos[idx], alpha, i] = weight * a / poly.den
                c[pos[idx], alpha, nf + i] = -weight * b / poly.den
        coefs.append(c)
    k_mat = np.array(freqs, dtype=float).reshape(nf, len(axes))
    phase = k_mat @ np.stack(axes)
    table = np.concatenate([np.cos(phase), np.sin(phase)])
    rows = [c.shape[0] * c.shape[1] for c in coefs]
    flat = np.concatenate([c.reshape(r, 2 * nf)
                           for c, r in zip(coefs, rows)]) @ table
    out, start = [], 0
    for c, r in zip(coefs, rows):
        out.append(flat[start:start + r].reshape(c.shape[:2] + (-1,)))
        start += r
    return out


def _det_on_points(m):
    """Determinants of a points-last stack of matrices, (n, n, npts) -> (npts,).

    Cofactor expansion along the first row: elementwise over the points,
    no LU factorization per point.
    """
    if len(m) == 1:
        return m[0, 0]
    rest = m[1:]
    return sum((-1) ** j * m[0, j] * _det_on_points(np.delete(rest, j, axis=1))
               for j in range(len(m)))


# ---------------------------------------------------------------------------
# seeded random forms
# ---------------------------------------------------------------------------

_COEFF_POOL = [Fraction(n, d) for n in (-2, -1, 1, 2) for d in (1, 2, 3)]


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
    comps = {}
    for alpha in lie_indices:
        for idx in multi_indices(dim, degree):
            if rng.random() > density:
                continue
            poly = TrigPoly.zero(dim)
            for _ in range(terms):
                k = tuple(rng.randint(-cutoff, cutoff) for _ in range(dim))
                re = rng.choice(_COEFF_POOL)
                im = 0 if all(x == 0 for x in k) else rng.choice(_COEFF_POOL)
                poly = poly + TrigPoly.harmonic(dim, k, re, im)
            if not poly.is_zero():
                comps[(alpha, idx)] = poly
    return LieForm(algebra, dim, degree, comps)


def random_scalar_form(seed, degree, dim, cutoff=1, density=0.7, terms=1):
    rng = _rng_for(seed, "scalar", dim, degree, cutoff)
    comps = {}
    for idx in multi_indices(dim, degree):
        if rng.random() > density:
            continue
        poly = TrigPoly.zero(dim)
        for _ in range(terms):
            k = tuple(rng.randint(-cutoff, cutoff) for _ in range(dim))
            re = rng.choice(_COEFF_POOL)
            im = 0 if all(x == 0 for x in k) else rng.choice(_COEFF_POOL)
            poly = poly + TrigPoly.harmonic(dim, k, re, im)
        if not poly.is_zero():
            comps[idx] = poly
    return ScalarForm(dim, degree, comps)


# ---------------------------------------------------------------------------
# field-configuration files
# ---------------------------------------------------------------------------

def form_to_dict(name, w, support="full"):
    components = []
    for (alpha, idx) in sorted(w.comps):
        poly = w.comps[(alpha, idx)]
        coeffs = [{"k": list(k), "re": str(c[0]), "im": str(c[1])}
                  for k, c in sorted(poly.fraction_coeffs().items())]
        components.append({"lie_index": alpha, "multi_index": list(idx),
                           "coeffs": coeffs})
    return {"name": name, "degree": w.degree, "support": support,
            "components": components}


def save_fields(path, algebra, forms):
    """Write named LieForms in the field-configuration JSON format."""
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


def load_fields(path, build=None):
    """Read a field-configuration file; returns (algebra, {name: LieForm})."""
    from .algebra import build_algebra
    build = build or build_algebra
    with open(path) as fh:
        doc = json.load(fh)
    alg = build(doc["algebra"])
    dim = int(doc["torus_dim"])
    forms = {}
    for entry in doc["forms"]:
        comps = {}
        for comp in entry["components"]:
            poly_coeffs = {}
            for c in comp["coeffs"]:
                k = tuple(int(x) for x in c["k"])
                poly_coeffs[k] = (Fraction(c["re"]), Fraction(c["im"]))
            key = (int(comp["lie_index"]), tuple(comp["multi_index"]))
            comps[key] = TrigPoly(dim, poly_coeffs)
        forms[entry["name"]] = LieForm(alg, dim, int(entry["degree"]), comps)
    return alg, forms
