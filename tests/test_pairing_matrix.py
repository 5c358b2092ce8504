"""The pairing matrices against the pairings they replace.

`_pairing_matrix(w, m)` holds Int w^alpha ^ m^beta for every pair of value
indices, `_d_pairing_matrix(w, m)` holds Int w^alpha ^ (dm)^beta without
forming dm, and `_bracket_pairing_matrix(w, u, v)` holds
Int w^alpha ^ [u, v]^gamma without forming [u, v]; `_gram_sum` pairs any
of them with an invariant form.  Entry by entry each must equal the
reference matrix of the full pairing (integrate(beta_pair(...)) with unit
grams, on the dm built by exterior_d and the bracket built by
lie_bracket_forms), and contracted with every form of the family,
degenerate ones included, the Fraction that `pair_integral` and the full
pairing give.
"""

import dataclasses
from fractions import Fraction

import pytest

from cartanforms.actions import CouplingConstants, FieldSet, identity_residual
from cartanforms.algebra import AlgebraError, build_algebra, killing_form
from cartanforms.calculus import (
    CalculusError,
    DegreeError,
    LieForm,
    TrigPoly,
    exterior_d,
    lie_bracket_forms,
    pair_integral,
    random_form,
    _bracket_pairing_matrix,
    _d_pairing_matrix,
    _gram_sum,
    _pairing_matrix,
)

from connection_operands import ConnectionOperands
from test_pair_integral import (
    forms_of,
    reference,
    reference_matrix,
    _unit_forms,
    _use_reference_matrices,
)

ALGEBRAS_3D = ["so31", "iso21", "so22", "so4", "iso3"]


def entries(matrix):
    return {key: Fraction(n, matrix.den) for key, n in matrix.nums.items()}


def check_matrix(got, w, m, forms):
    """got is the pairing matrix of (w, m); the number of nonzero values."""
    assert entries(got) == entries(reference_matrix(w, m))
    nonzero = 0
    for form in forms:
        value = Fraction(*_gram_sum(form, got))
        assert isinstance(value, Fraction)
        assert value == pair_integral(form, w, m) == reference(form, w, m)
        nonzero += value != 0
    return nonzero


def check_bracket(w, u, v, forms):
    return check_matrix(_bracket_pairing_matrix(w, u, v), w,
                        lie_bracket_forms(u, v), forms)


def check_d(w, m, forms):
    """_d_pairing_matrix(w, m) against the matrices of w and the built dm:
    the kernel's and the full pairing's."""
    dm = exterior_d(m)
    got = _d_pairing_matrix(w, m)
    assert entries(got) == entries(_pairing_matrix(w, dm))
    return check_matrix(got, w, dm, forms)


def random_forms(alg, seed, cutoff, dim=None):
    """Random forms of every degree on T^dim, three of degree 1, with
    enough harmonics per component that products reach the zero mode."""
    dim = dim or alg.spacetime_dim
    terms = 3

    def form(offset, degree):
        return random_form(seed + offset, degree, alg, dim=dim, cutoff=cutoff,
                           terms=terms)

    return {"0": form(0, 0), "1": form(1, 1), "1b": form(2, 1),
            "1c": form(3, 1), "2": form(4, 2), "3": form(5, 3)}


@pytest.mark.parametrize("cutoff", [1, 2])
@pytest.mark.parametrize("name", ALGEBRAS_3D)
def test_matrices_match_full_pairing_on_random_forms(name, cutoff):
    alg = build_algebra(name)
    forms = forms_of(alg)
    nonzero = 0
    for seed in range(3):
        f = random_forms(alg, seed, cutoff)
        for w, m in ((f["1"], f["2"]), (f["2"], f["1"]), (f["0"], f["3"]),
                     (f["3"], f["0"])):
            nonzero += check_matrix(_pairing_matrix(w, m), w, m, forms)
        # self brackets: degree 1 (unordered walk), degree 0 (ordered),
        # with w one of the operands or not; then mixed brackets
        for w, u, v in ((f["1"], f["1b"], f["1b"]), (f["1"], f["1"], f["1"]),
                        (f["3"], f["0"], f["0"]), (f["1"], f["1b"], f["1c"]),
                        (f["1b"], f["1"], f["1b"]), (f["0"], f["1"], f["2"]),
                        (f["0"], f["2"], f["1"]), (f["1"], f["0"], f["2"]),
                        (f["2"], f["1"], f["0"]), (f["2"], f["0"], f["1"])):
            nonzero += check_bracket(w, u, v, forms)
    assert nonzero > 0


def test_degree_2_self_bracket_on_t4():
    """The self-bracket table of even degree, on so41 and so32."""
    nonzero = 0
    for name in ("so41", "so32"):
        alg = build_algebra(name)
        forms = forms_of(alg)
        f = random_forms(alg, 0, 1)
        for w, u, v in ((f["0"], f["2"], f["2"]), (f["2"], f["1"], f["1"]),
                        (f["1"], f["1b"], f["2"])):
            nonzero += check_bracket(w, u, v, forms)
    assert nonzero > 0


@pytest.mark.parametrize("cutoff", [1, 2])
@pytest.mark.parametrize("name", ALGEBRAS_3D + ["damaged_so31"])
def test_connection_matrices_match_their_operand_forms(name, cutoff):
    """The five walks over A entry by entry against the full pairing of the
    operand forms they stand for, and each functional, a signed sum of
    their blocks, against the full pairings of its operand forms, for the
    family's forms and for every unit form (one gram entry 1).  On the
    damaged table [e, omega] is not [omega, e], so the walks of
    (A; e, omega) and (A; omega, e) differ (at cutoff 1 on seed 0; at
    cutoff 2 seeds 0..2 reach no damaged zero mode), which they never do
    on a real table."""
    alg = _damaged_so31() if name == "damaged_so31" else build_algebra(name)
    forms = forms_of(alg) + list(_unit_forms(alg).values())
    half, sixth = Fraction(1, 2), Fraction(1, 6)
    differ = 0
    for seed in range(3):
        f = FieldSet(alg, seed, cutoff).connection
        o = ConnectionOperands(f)
        assert entries(f.a_da) == entries(reference_matrix(o.a, o.da))
        for got, u, v in ((f.a_ww, o.omega, o.omega), (f.a_we, o.omega, o.e),
                          (f.a_ew, o.e, o.omega), (f.a_ee, o.e, o.e)):
            assert entries(got) == entries(
                reference_matrix(o.a, lie_bracket_forms(u, v)))
        # functional -> its terms (c, matrix of the full pairing of (w, m))
        terms = {
            "cs_a": ((half, o.a, o.da), (sixth, o.a, o.aa)),
            "cs_a_t": ((half, o.a_t, o.da_t), (sixth, o.a_t, o.aa_t)),
            "palatini": ((1, o.e, o.r), (sixth, o.e, o.ee)),
            "torsion": ((half, o.e, o.dwe),),
            "cs_omega_torsion": ((half, o.omega, o.dw),
                                 (sixth, o.omega, o.ww), (half, o.e, o.dwe)),
        }
        terms = {functional: [(c, _pairing_matrix(w, m)) for c, w, m in ts]
                 for functional, ts in terms.items()}
        for form in forms:
            for functional, ts in terms.items():
                assert getattr(f, functional)(form) == sum(
                    c * Fraction(*_gram_sum(form, m)) for c, m in ts)
        differ += entries(f.a_ew) != entries(f.a_we)
    assert bool(differ) == (name == "damaged_so31" and cutoff == 1)


def _damaged_so31():
    """so31 with one structure constant of [M01, P0] damaged, so the
    table is no longer antisymmetric."""
    real = build_algebra("so31")
    structure = [[list(row) for row in plane] for plane in real.structure]
    structure[0][3][4] += 1
    table = tuple(
        tuple(tuple((c, Fraction(x)) for c, x in enumerate(structure[a][b])
                    if x != 0) for b in range(real.dim))
        for a in range(real.dim))
    return dataclasses.replace(
        real, structure=tuple(tuple(tuple(r) for r in p) for p in structure),
        bracket_table=table)


def test_damaged_table_matches_full_pairing(monkeypatch):
    bad = _damaged_so31()
    forms = forms_of(bad)
    for cutoff in (1, 2):
        f = random_forms(bad, 7, cutoff)
        for w, u, v in ((f["1"], f["1b"], f["1b"]), (f["1"], f["1"], f["1"]),
                        (f["1"], f["1b"], f["1c"]), (f["3"], f["0"], f["0"])):
            check_bracket(w, u, v, forms)

    def residuals():
        return [identity_residual(i, bad, seed, CouplingConstants(c0, c1))
                .residual for i in ("EINSTEIN_CS", "TWO_CS_SUM", "TWO_CS_DIFF")
                for c0, c1 in ((2, 3), (1, 0)) for seed in range(8)]

    got = residuals()
    assert len({r for r in got if r != 0}) > 1
    _use_reference_matrices(monkeypatch)
    assert residuals() == got


def test_kernels_refuse_what_pair_integral_refuses():
    so31, so22 = build_algebra("so31"), build_algebra("so22")
    zero, one, two = (random_form(0, d, so31) for d in (0, 1, 2))
    other = random_form(1, 1, so22)
    on_t4 = random_form(2, 1, so31, dim=4)
    with pytest.raises(AlgebraError):
        _pairing_matrix(one, random_form(1, 2, so22))
    with pytest.raises(CalculusError, match="torus"):
        _pairing_matrix(one, random_form(3, 2, so31, dim=4))
    for w, m in ((one, one), (two, two), (zero, two)):
        with pytest.raises(DegreeError):
            _pairing_matrix(w, m)
    for w, u, v in ((other, one, one), (one, other, one), (one, one, other)):
        with pytest.raises(AlgebraError):
            _bracket_pairing_matrix(w, u, v)
    for w, u, v in ((on_t4, one, one), (one, on_t4, one), (one, one, on_t4)):
        with pytest.raises(CalculusError, match="torus"):
            _bracket_pairing_matrix(w, u, v)
    for w, u, v in ((one, one, two), (two, one, one), (zero, one, one),
                    (one, zero, one)):
        with pytest.raises(DegreeError):
            _bracket_pairing_matrix(w, u, v)
    matrix = _pairing_matrix(one, two)
    with pytest.raises(AlgebraError):
        _gram_sum(killing_form(so22), matrix)


def test_bracket_pairing_refuses_a_table_entry_that_is_not_an_integer():
    """A matrix keeps one denominator per operand, so the kernel refuses a
    bracket table with a fractional constant, in the ordered walk and in
    the self-bracket, rather than truncate it."""
    real = build_algebra("so31")
    table = [list(row) for row in real.bracket_table]
    (gamma, x), *rest = table[0][3]       # [M01, P0]
    assert x == 1 or x == -1
    table[0][3] = ((gamma, Fraction(1, 2)), *rest)
    bad = dataclasses.replace(
        real, bracket_table=tuple(tuple(row) for row in table))
    f = random_forms(bad, 0, 1)
    for w, u, v in ((f["1"], f["1b"], f["1c"]), (f["1"], f["1b"], f["1b"]),
                    (f["3"], f["0"], f["0"])):
        with pytest.raises(AlgebraError, match="integer"):
            _bracket_pairing_matrix(w, u, v)


# ---------------------------------------------------------------------------
# the derivative pairing Int w ^ dm
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cutoff", [1, 2])
@pytest.mark.parametrize("name", ALGEBRAS_3D)
def test_d_matrix_matches_full_pairing_on_battery_operands(name, cutoff):
    """The five derivative pairings of a connection, and (omega, de).

    With one harmonic per component the operands seldom share a frequency;
    at cutoff 2 so31 and so22 leave every matrix here empty, which the
    random forms of every degree split below do not.
    """
    alg = build_algebra(name)
    forms = forms_of(alg)
    filled = 0
    for seed in range(3):
        f = ConnectionOperands(FieldSet(alg, seed, cutoff).connection)
        for w, m in ((f.a, f.a), (f.a_t, f.a_t), (f.omega, f.omega),
                     (f.e, f.omega), (f.e, f.e), (f.omega, f.e)):
            check_d(w, m, forms)
            filled += bool(_d_pairing_matrix(w, m).nums)
    assert filled > 0 or cutoff == 2


def test_derivative_walk_of_a_connection_is_symmetric():
    """Int w ^ dm = Int dw ^ m for 1-forms on T^3 (integration by parts),
    so the walk (A, dA) of every connection is a symmetric matrix.  This
    covers its hh and pp blocks (omega ^ d omega, e ^ de), which no check
    of the battery can see (test_functional_memo's block-fault test)."""
    filled = {}
    for name in ALGEBRAS_3D:
        alg = build_algebra(name)
        filled[name] = 0
        for cutoff in (1, 2):
            for seed in range(40):
                nums = FieldSet(alg, seed, cutoff).connection.a_da.nums
                assert all(nums.get((beta, alpha)) == n
                           for (alpha, beta), n in nums.items())
                filled[name] += bool(nums)
    assert filled["so31"] + filled["iso21"] + filled["so22"] == 128
    assert sum(filled.values()) == 221


@pytest.mark.parametrize("cutoff", [1, 2])
@pytest.mark.parametrize("name", ALGEBRAS_3D)
def test_d_matrix_every_degree_split_on_t3(name, cutoff):
    alg = build_algebra(name)
    forms = forms_of(alg)
    nonzero = 0
    for seed in range(3):
        f, g = random_forms(alg, seed, cutoff), random_forms(alg, seed + 20,
                                                              cutoff)
        for w, m in ((f["0"], g["2"]), (f["1"], g["1"]), (f["2"], g["0"]),
                     (f["1"], f["1"]), (f["1"], f["1b"])):
            nonzero += check_d(w, m, forms)
    assert nonzero > 0


@pytest.mark.parametrize("name", ["so41", "so32"])
def test_d_matrix_every_degree_split_on_t4(name):
    alg = build_algebra(name)
    forms = forms_of(alg)
    nonzero = 0
    for seed in range(2):
        f, g = random_forms(alg, seed, 1), random_forms(alg, seed + 20, 1)
        for w, m in ((f["0"], g["3"]), (f["1"], g["2"]), (f["2"], g["1"]),
                     (f["3"], g["0"])):
            nonzero += check_d(w, m, forms)
    assert nonzero > 0


def test_d_matrix_on_zero_and_constant_forms():
    """A zero operand and a constant m (dm = 0) give the empty matrix."""
    alg = build_algebra("so31")
    forms = forms_of(alg)
    f = random_forms(alg, 4, 1)
    constant = LieForm(alg, 3, 1, {
        (alpha, (i,)): TrigPoly.constant(3, alpha + i)
        for alpha in range(alg.dim) for i in range(3)})
    assert not constant.is_zero() and exterior_d(constant).is_zero()
    for w, m in ((LieForm.zero(alg, 3, 1), f["1"]),
                 (f["1"], LieForm.zero(alg, 3, 1)), (f["1"], constant),
                 (LieForm.zero(alg, 3, 0), LieForm.zero(alg, 3, 2))):
        assert not _d_pairing_matrix(w, m).nums
        assert check_d(w, m, forms) == 0
    # a constant w pairs to zero with any dm (no derivative has a zero mode)
    assert not _d_pairing_matrix(constant, f["1"]).nums
    assert check_d(constant, f["1"], forms) == 0


def test_d_matrix_refuses_what_the_built_pairing_refuses():
    """Another algebra or torus, or deg w + deg m + 1 != n: the same error
    as pairing w with exterior_d(m)."""
    so31, so22 = build_algebra("so31"), build_algebra("so22")
    zero, one, two, three = (random_form(0, d, so31) for d in range(4))
    cases = [(one, random_form(1, 1, so22), AlgebraError),
             (random_form(1, 1, so22), one, AlgebraError),
             (one, random_form(3, 1, so31, dim=4), CalculusError),
             (random_form(3, 1, so31, dim=4), one, CalculusError)]
    cases += [(w, m, DegreeError) for w, m in (
        (one, two), (two, two), (zero, zero), (zero, one), (two, one),
        (three, zero), (zero, three), (one, three))]
    for w, m, error in cases:
        with pytest.raises(error):
            _d_pairing_matrix(w, m)
        with pytest.raises(error):
            _pairing_matrix(w, exterior_d(m))
