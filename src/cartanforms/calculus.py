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

class _Form:
    """Shared body of ScalarForm and LieForm: sparse TrigPoly components."""

    __slots__ = ("algebra", "dim", "degree", "comps")

    def __init__(self, algebra, dim, degree, comps):
        if not 0 <= degree <= dim:
            raise DegreeError(f"degree {degree} out of range on T^{dim}")
        self.algebra = algebra
        self.dim = dim
        self.degree = degree
        self.comps = {}
        values = self._values
        for (alpha, idx), poly in comps.items():
            idx = tuple(idx)
            if not 0 <= alpha < values:
                raise CalculusError(f"algebra index {alpha} out of range")
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise CalculusError(f"bad multi-index {idx}")
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
        """Componentwise spectral differential; d(d(w)) = 0 exactly."""
        if self.degree >= self.dim:
            raise DegreeError("cannot apply d to a top-degree form")
        comps = {}
        for (alpha, idx), poly in self.comps.items():
            for j in range(self.dim):
                sign, new_idx = _merge_indices((j,), idx)
                if sign == 0:
                    continue
                term = poly.deriv(j).scale(sign)
                if term.is_zero():
                    continue
                key = (alpha, new_idx)
                cur = comps.get(key)
                comps[key] = cur + term if cur else term
        return self._new(self.degree + 1,
                         {k: v for k, v in comps.items() if not v.is_zero()})

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

    def scalar_component(self, alpha):
        """The scalar p-form multiplying basis element alpha."""
        comps = {idx: poly for (a, idx), poly in self.comps.items() if a == alpha}
        return ScalarForm(self.dim, self.degree, comps)

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

def _contract(w, m, table, like):
    """Sum over component pairs of table[alpha][beta] (x) (w_alpha ^ m_beta).

    table[alpha][beta] lists (gamma, Fraction): the pair of value indices
    (alpha, beta) contributes coeff * w_alpha ^ m_beta to value index
    gamma.  The result is a form of the same kind as `like`.  The tables
    of the callers are the structure constants (bracket), the gram with
    gamma = 0 (pairing), the identity (wedges with a scalar factor) and a
    matrix contracted with the constant 0-form 1 (internal stars).
    """
    if w.dim != m.dim:
        raise CalculusError("torus dimension mismatch")
    deg = w.degree + m.degree
    if deg > w.dim:
        raise DegreeError(f"degree {deg} exceeds the torus dimension {w.dim}")
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
    """[w, m]: wedge on the form part, Lie bracket on the values."""
    w._check_mate(m)
    return _contract(w, m, w.algebra.bracket_table, w)


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
    `terms` random harmonics; the form constructors drop zero sums."""
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
    """Read a field-configuration file; returns (algebra, {name: LieForm}).

    A document of the wrong shape (a missing key, or a value of the wrong
    JSON type) is a CalculusError.
    """
    from .algebra import build_algebra
    build = build or build_algebra
    with open(path) as fh:
        doc = json.load(fh)
    try:
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
    except (TypeError, AttributeError, KeyError) as exc:
        raise CalculusError(
            f"malformed field file ({type(exc).__name__}: {exc})") from None
    return alg, forms
