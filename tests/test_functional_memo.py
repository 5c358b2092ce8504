"""Each exact Chern-Simons functional is computed once per field set and
invariant form, and the battery's residuals are the ones it gave when every
check did its own pairings.

The reference is the per-check path kept here: a fresh FieldSet for every
check and direct calls of the grouped pairing kernel below, which builds the
mates of m by multi-index on every call, on the operand forms (dA, [A,A], R,
d_omega e, ...) that `connection_operands` builds from (omega, e).  The battery under
test shares one field set per (algebra, seed, cutoff) and reads each
S_CS^beta(A), S_CS^beta(~A), Palatini and S_CS^beta(omega) + torsion value
from the CartanConnection memo, as signed block sums of the gram contractions
of its five pairing walks.
"""

import dataclasses
import hashlib
from fractions import Fraction
from math import gcd

import pytest

from cartanforms import actions, calculus, cartan, suites
from cartanforms.actions import FieldSet
from cartanforms.algebra import (
    build_algebra,
    invariant_form,
    killing_form,
    star_form,
)
from cartanforms.calculus import (
    beta_pair,
    integrate,
    lie_bracket_forms,
    pair_integral,
    random_form,
    _complement,
    _gram_blocks,
    _merge_indices,
    _PairingMatrix,
)

from connection_operands import ConnectionOperands

HALF, SIXTH = Fraction(1, 2), Fraction(1, 6)
CUSTOM_ROWS = [("-1/2", "5/3"), (3, "-2/7")]


# ---------------------------------------------------------------------------
# the per-check reference path
# ---------------------------------------------------------------------------

def ref_pair_integral(form, w, m):
    """Int beta(w ^ m): the mates of m grouped by multi-index on each call."""
    gram = form.gram
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
        for beta, g in group:
            coeff = gram[alpha][beta]
            if coeff == 0:
                continue
            s = sum(a * g.nums[k][0] + b * g.nums[k][1]
                    for k, (a, b) in f.nums.items() if k in g.nums)
            if s:
                den = coeff.denominator * f.den * g.den
                sums[den] = sums.get(den, 0) + sign * coeff.numerator * s
    lcm = 1
    for den in sums:
        lcm = lcm // gcd(lcm, den) * den
    return Fraction(sum(n * (lcm // den) for den, n in sums.items()), lcm)


def ref_cs(form, a, da, aa):
    return (HALF * ref_pair_integral(form, a, da)
            + SIXTH * ref_pair_integral(form, a, aa))


def ref_palatini(form, f):
    return (ref_pair_integral(form, f.e, f.r)
            + SIXTH * ref_pair_integral(form, f.e, f.ee))


def ref_cs_omega_torsion(form, f):
    return (ref_cs(form, f.omega, f.dw, f.ww)
            + HALF * ref_pair_integral(form, f.e, f.dwe))


def ref_residual(identity_id, alg, seed, couplings, cutoff):
    """lhs - rhs of an exact 3d identity, every pairing made afresh."""
    c0, c1 = couplings.c0, couplings.c1
    f = ConnectionOperands(FieldSet(alg, seed, cutoff).connection)
    form = invariant_form(alg, c0, c1)
    k, s = killing_form(alg), star_form(alg)
    cs_a = ref_cs(form, f.a, f.da, f.aa)
    cs_at = ref_cs(form, f.a_t, f.da_t, f.aa_t)
    return {
        "CS_NULL": lambda: cs_a - ref_palatini(form, f),
        "CS_PERP": lambda: cs_a - ref_cs_omega_torsion(form, f),
        "EINSTEIN_CS": lambda: cs_a - (c1 * ref_palatini(s, f)
                                       + c0 * ref_cs_omega_torsion(k, f)),
        "TWO_CS_SUM": lambda: (HALF * (cs_a + cs_at)
                               - c0 * ref_cs_omega_torsion(k, f)),
        "TWO_CS_DIFF": lambda: (HALF * (cs_a - cs_at)
                                - c1 * ref_palatini(s, f)),
    }[identity_id]()


def _config(names, cutoff, seeds=(0, 4), custom=True):
    cfg = suites.SuiteConfig(algebras=list(names), seed_start=seeds[0],
                             seed_end=seeds[1], cutoff=cutoff)
    if custom:
        cfg.couplings = {n: [list(r) for r in suites.DEFAULT_COUPLINGS[n]]
                         + [list(r) for r in CUSTOM_ROWS] for n in names}
    return cfg


def _battery_against_reference(cfg, alg_of):
    """The battery's rows and the reference residual of each."""
    plan = [check for identity_id in suites.EXACT_3D_IDENTITIES
            for check in suites._plan_identity_battery(identity_id, cfg)]
    rows = suites._run_planned(plan)
    assert len(rows) == len(plan) > 0
    refs = [ref_residual(c.identity_id, alg_of(c.alg.name), c.seed,
                         c.couplings, c.cutoff) for c in plan]
    return rows, refs


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cutoff", [1, 2])
@pytest.mark.parametrize("name", ["so31", "iso21", "so22", "so4", "iso3"])
def test_battery_matches_per_check_reference(name, cutoff):
    rows, refs = _battery_against_reference(_config([name], cutoff),
                                            build_algebra)
    assert len(rows) == 5 * 5 * 5       # identities x couplings x seeds
    assert [r.residual for r in rows] == [str(x) for x in refs]
    assert all(r.passed for r in rows)


def _damaged(name, constant):
    """The algebra `name` with the structure constant C_ij^k of constant
    (i, j, k) raised by 1."""
    real = build_algebra(name)
    structure = [[list(row) for row in plane] for plane in real.structure]
    i, j, k = constant
    structure[i][j][k] += 1
    table = tuple(
        tuple(tuple((c, Fraction(x)) for c, x in enumerate(structure[a][b])
                    if x != 0) for b in range(real.dim))
        for a in range(real.dim))
    return dataclasses.replace(
        real, structure=tuple(tuple(tuple(r) for r in p) for p in structure),
        bracket_table=table)


# algebra -> (damaged constant (i, j, k) of C_ij^k, the identities with a
# nonzero reference residual at cutoff 1 or 2 on seeds 0..4)
DAMAGES = {
    # [M01, P0] -> P1.  CS_NULL and TWO_CS_DIFF read it only in cubic zero
    # modes that the one-harmonic fields of seeds 0..4 do not reach
    # (ROADMAP item 1); at cutoff 1 they fail on seeds 16, 18 and 37.
    "so31": ((0, 3, 4), {"CS_PERP", "EINSTEIN_CS", "TWO_CS_SUM"}),
    # [M12, P1] -> P2: every identity sees it
    "so22": ((2, 4, 5), set(suites.EXACT_3D_IDENTITIES)),
    # [M01, P0] -> P1.  No seed can make CS_PERP or TWO_CS_SUM fail: every
    # invariant form of iso21 has a zero p-p block, so the damaged p part
    # of [omega, e] is read only through the h-p block, which CS_PERP's
    # form (c1 = 0) lacks, and then at odd order in e, which the half-sum
    # of TWO_CS_SUM and its Killing right side cancel.
    "iso21": ((0, 3, 4), {"CS_NULL", "EINSTEIN_CS", "TWO_CS_DIFF"}),
}


@pytest.mark.parametrize("name", list(DAMAGES))
def test_damaged_battery_matches_per_check_reference(monkeypatch, name):
    """The integer combination of functional values against the per-check
    reference, on nonzero residuals of each identity a damage reaches."""
    constant, caught = DAMAGES[name]
    bad = _damaged(name, constant)
    monkeypatch.setattr(suites, "algebra_factory", lambda _: bad)
    failing = {}
    for cutoff in (1, 2):
        rows, refs = _battery_against_reference(_config([name], cutoff),
                                                lambda _: bad)
        assert [r.residual for r in rows] == [str(x) for x in refs]
        for row, x in zip(rows, refs):
            if x != 0:
                failing.setdefault(row.check, set()).add(x)
    assert set(failing) == caught
    assert all(len(values) > 1 for values in failing.values())
    if name == "iso21":
        p = bad.p_indices
        assert all(bad.killing[i][j] == 0 == bad.star_gram[i][j]
                   for i in p for j in p)


# no seed of 0..39 at cutoff 2 catches a mutant that cutoff 1 catches
MISSED = frozenset()

# algebra -> the seeds of 0..39 on which the default battery (default
# couplings) fails with the DAMAGES constant, at cutoff 1 and at cutoff 2.
# Every other seed passes the damaged algebra in silence: these are the
# vacuous passes that ROADMAP item 1's opt-in triad fields must close.  The
# default fields keep these pins.
CAUGHT_ON_SEEDS = {
    "so31": ({4, 11, 16, 18, 26, 37}, {23, 28}),
    "so22": ({2, 5, 17, 19, 30, 37}, MISSED),
    "iso21": ({1, 19, 28}, MISSED),
}


@pytest.mark.parametrize("name", list(DAMAGES))
def test_default_battery_catches_a_damage_on_few_seeds(monkeypatch, name):
    bad = _damaged(name, DAMAGES[name][0])
    monkeypatch.setattr(suites, "algebra_factory", lambda _: bad)
    for cutoff, caught in zip((1, 2), CAUGHT_ON_SEEDS[name]):
        cfg = _config([name], cutoff, seeds=(0, 39), custom=False)
        plan = [check for identity_id in suites.EXACT_3D_IDENTITIES
                for check in suites._plan_identity_battery(identity_id, cfg)]
        rows = suites._run_planned(plan)
        assert len(rows) == 5 * 3 * 40     # identities x couplings x seeds
        assert {row.seed for row in rows if not row.passed} == caught


def _failing_seeds(cfg, identities):
    plan = [check for identity_id in identities
            for check in suites._plan_identity_battery(identity_id, cfg)]
    return {row.seed for row in suites._run_planned(plan) if not row.passed}


# block of the 3d table -> (damaged constant (i, j, k) of C_ij^k, algebra
# -> the seeds of 0..39 on which the default battery fails, at cutoff 1 and
# at cutoff 2).  One mutant per block; [h,p] -> p is DAMAGES's, pinned by
# CAUGHT_ON_SEEDS.  ROADMAP item 1 measures the batteries by these pins.
BLOCK_DAMAGES = {
    # [M01, M02] -> M12
    "[h,h]->h": ((0, 1, 2), {"so31": ({16, 18, 37}, {23}),
                             "so22": ({1, 18}, {2}),
                             "iso21": ({1, 19, 28}, MISSED)}),
    # [P0, P1] -> M01, a zero constant in iso21
    "[p,p]->h": ((3, 4, 0), {"so31": ({4, 11, 26}, {28}),
                             "so22": ({12, 38}, {15, 39}),
                             "iso21": ({19, 20}, {7})}),
}


@pytest.mark.parametrize("name", list(DAMAGES))
@pytest.mark.parametrize("block", list(BLOCK_DAMAGES))
def test_default_battery_catches_each_block_on_few_seeds(monkeypatch, block,
                                                         name):
    constant, caught_on = BLOCK_DAMAGES[block]
    bad = _damaged(name, constant)
    monkeypatch.setattr(suites, "algebra_factory", lambda _: bad)
    for cutoff, caught in zip((1, 2), caught_on[name]):
        cfg = _config([name], cutoff, seeds=(0, 39), custom=False)
        assert _failing_seeds(cfg, suites.EXACT_3D_IDENTITIES) == caught


def test_every_3d_pin_missed_at_cutoff_2_is_caught_at_cutoff_1():
    pins = list(CAUGHT_ON_SEEDS.values()) + [
        seeds for _, by_name in BLOCK_DAMAGES.values()
        for seeds in by_name.values()]
    assert len(pins) == 9
    for at_1, at_2 in pins:
        assert at_1 and (at_2 or at_2 is MISSED)


# why mm_identities passes a damaged 4d table on every seed
MM_EXPANSION_BY_DESIGN = "a graded table keeps [omega, e] in p"
QUARTIC_ZERO_BY_DESIGN = "[e, e] reads only C_pp^h"
MISSED_4D = "missed"
# block of the 4d table -> (damaged constant, identity -> label): the
# default battery on so41 and so32, seeds 0..19, fails on no seed
MM_DAMAGES = {
    # [M01, M02] -> M13, a zero constant
    "[h,h]->h": ((0, 1, 4), {"MM_EXPANSION": MM_EXPANSION_BY_DESIGN,
                             "QUARTIC_ZERO": QUARTIC_ZERO_BY_DESIGN}),
    # [M01, P0] -> P1
    "[h,p]->p": ((0, 6, 7), {"MM_EXPANSION": MM_EXPANSION_BY_DESIGN,
                             "QUARTIC_ZERO": QUARTIC_ZERO_BY_DESIGN}),
    # [P0, P1] -> M01
    "[p,p]->h": ((6, 7, 0), {"MM_EXPANSION": MM_EXPANSION_BY_DESIGN,
                             "QUARTIC_ZERO": MISSED_4D}),
}


@pytest.mark.parametrize("name", ["so41", "so32"])
@pytest.mark.parametrize("block", list(MM_DAMAGES))
def test_mm_identities_catch_no_damage(monkeypatch, block, name):
    """Each zero carries its reason.  MM_EXPANSION by design: F_h of the
    damaged table is exactly R + 1/2 [e, e] on every seed, which the
    expansion assumes.  QUARTIC_ZERO by design: [e, e] is the same form
    under the real and the damaged table on every seed.  Missed: the
    damage reaches [e, e] on some seed and the identity still holds."""
    constant, labels = MM_DAMAGES[block]
    real, bad = build_algebra(name), _damaged(name, constant)
    monkeypatch.setattr(suites, "algebra_factory", lambda _: bad)
    cfg = suites.SuiteConfig(suites=["mm_identities"], algebras=[name],
                             seed_start=0, seed_end=19)
    assert _failing_seeds(cfg, labels) == set()
    graded, same_ee = True, True
    for seed in range(20):
        # the fields of _exact_residual's 4d identities
        fields = FieldSet(bad, seed)
        omega = fields.random_form(1, "h", 0.35, dim=4)
        e = fields.random_form(1, "p", 0.5, dim=4)
        ee = lie_bracket_forms(e, e)
        graded &= (cartan._field_strength(omega + e).h_part()
                   == cartan._field_strength(omega) + ee.scale(HALF))
        e_real = FieldSet(real, seed).random_form(1, "p", 0.5, dim=4)
        same_ee &= ee.comps == lie_bracket_forms(e_real, e_real).comps
    assert graded == (labels["MM_EXPANSION"] == MM_EXPANSION_BY_DESIGN)
    assert same_ee == (labels["QUARTIC_ZERO"] == QUARTIC_ZERO_BY_DESIGN)


# ---------------------------------------------------------------------------
# a kernel fault in one block of one walk
# ---------------------------------------------------------------------------

# The 12 blocks of the five walks of a connection: (walk, rows, cols), with
# walk "d" for (A, dA) or (u, v) for (A; u, v), "w" standing for omega;
# a block of a bracket walk is a row class over every column.
BLOCKS = ([("d", rows, cols) for rows in "hp" for cols in "hp"]
          + [((u, v), rows, None) for u in "we" for v in "we"
             for rows in "hp"])
E_DE, W_DW, E_EE = ("d", "p", "p"), ("d", "h", "h"), (("e", "e"), "p", None)
# algebra -> the blocks that no check of the battery reads
BLIND = {"so31": {W_DW, E_DE}, "so22": {W_DW, E_DE},
         "iso21": {W_DW, E_DE, E_EE}}


def _fault_in(monkeypatch, alg, block):
    """Patch the two kernels of CartanConnection so that each entry of the
    block is off by its own power of 7 over the matrix's denominator."""
    walk, rows, cols = block
    classes = {"h": set(alg.h_indices), "p": set(alg.p_indices)}

    def kind(form):
        values = {alpha for alpha, _ in form.comps}
        assert values and (values <= classes["h"] or values <= classes["p"])
        return "w" if values <= classes["h"] else "e"

    def faulty(matrix, hit):
        if not hit:
            return matrix
        nums = dict(matrix.nums)
        for alpha in classes[rows]:
            for beta in classes[cols] if cols else range(alg.dim):
                key = (alpha, beta)
                nums[key] = nums.get(key, 0) + 7 ** (alpha * alg.dim + beta)
        return _PairingMatrix(alg, matrix.den, nums)

    d, bracket = cartan._d_pairing_matrix, cartan._bracket_pairing_matrix
    monkeypatch.setattr(cartan, "_d_pairing_matrix", lambda w, m: faulty(
        d(w, m), walk == "d"))
    monkeypatch.setattr(cartan, "_bracket_pairing_matrix",
                        lambda w, u, v: faulty(bracket(w, u, v),
                                               walk == (kind(u), kind(v))))


@pytest.mark.parametrize("name", list(BLIND))
def test_a_fault_in_one_block_shows_unless_both_sides_read_it_alike(
        monkeypatch, name):
    """The two sides of a check read blocks of the same five walks, so a
    fault in a block shows only where the sides read that block with
    different coefficients.  Each of the 12 blocks (4 of (A, dA), 2 row
    classes of each of the 4 bracket walks) is faulted in turn under
    the 5 identities x 3 default couplings on seeds 0..2 at cutoff 1.

    Blind on every algebra: omega ^ d omega and e ^ de, the hh and pp
    blocks of (A, dA).  They enter both sides of every identity with the
    same coefficient: ~A keeps their sign, and as the star form S has no
    hh or pp block, beta = c0 K + c1 S reads them only through c0 K, the
    form the right sides pair them with (c0 times S_CS^K(omega) plus the
    torsion pairing, or nothing where c0 = 0).  Blind on
    iso21 alone: e ^ [e,e], the p rows of (A; e, e), because iso21's
    Killing form vanishes on p, so every side reads those rows only
    through c1 S, and with the same coefficient."""
    alg = build_algebra(name)
    h, p = alg.h_indices, alg.p_indices
    assert all(alg.star_gram[i][j] == 0 for rows in (h, p)
               for i in rows for j in rows)
    assert all(alg.killing[i][j] == 0 for i in h for j in p)
    assert all(alg.killing[i][j] == 0 for i in p for j in p) == (
        E_EE in BLIND[name])
    cfg = _config([name], 1, seeds=(0, 2), custom=False)
    plan = [check for identity_id in suites.EXACT_3D_IDENTITIES
            for check in suites._plan_identity_battery(identity_id, cfg)]
    assert len(plan) == 5 * 3 * 3
    assert all(row.passed for row in suites._run_planned(plan))
    blind = set()
    for block in BLOCKS:
        with monkeypatch.context() as m:
            _fault_in(m, alg, block)
            if all(row.passed for row in suites._run_planned(plan)):
                blind.add(block)
    assert len(BLOCKS) == 12 and blind == BLIND[name]


# ---------------------------------------------------------------------------
# one value per functional and form object
# ---------------------------------------------------------------------------

def _count_pairings(monkeypatch):
    """Count the gram contractions of walks, one per (walk, form object)
    read: the integer kernel the functionals call."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return _gram_blocks(*args)

    monkeypatch.setattr(cartan, "_gram_blocks", counting)
    return calls


def test_cs_battery_shaped_run_pairs_each_value_once(monkeypatch):
    """5 identities x {so31, iso21, so22} x 3 couplings on 40 seeds: 4520
    contractions, one per (walk, form object) that the checks read, where
    each check pairing its own operands took 10440 pairings."""
    calls = _count_pairings(monkeypatch)
    cfg = suites.SuiteConfig(seed_start=0, seed_end=39)
    results, passed = suites.run_suite(cfg)
    assert passed and len(results) == 1800
    assert calls[0] == 4520
    report = suites.emit_report(results, cfg).encode()
    assert hashlib.sha256(report).hexdigest().startswith("90bf5367")


def _count_kernels(monkeypatch):
    """Count the pairing-matrix builds: 1 derivative pairing and 4 bracket
    kernel calls, the walks (A, dA) and (A; u, v) for u, v in {omega, e},
    serve every functional of one connection.  A plain pairing matrix
    (pair_integral's kernel) is counted too; the 3d functionals build
    none."""
    calls = {}
    for module, name in ((calculus, "_pairing_matrix"),
                         (cartan, "_d_pairing_matrix"),
                         (cartan, "_bracket_pairing_matrix")):
        def counting(*args, _name=name, _kernel=getattr(module, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _kernel(*args)
        monkeypatch.setattr(module, name, counting)
    return calls


def _count_differentials(monkeypatch):
    """Count exterior derivatives, whichever name they are taken by
    (exterior_d, covariant_d and d() all go through _Form.d)."""
    calls = [0]
    d = calculus._Form.d

    def counting(w):
        calls[0] += 1
        return d(w)

    monkeypatch.setattr(calculus._Form, "d", counting)
    return calls


def test_cs_battery_shaped_run_builds_each_matrix_once(monkeypatch):
    """The 1800 checks on {so31, iso21, so22} x 40 seeds use 120 field sets;
    each walks its 5 kernels once, whatever the number of forms."""
    calls = _count_kernels(monkeypatch)
    results, passed = suites.run_suite(
        suites.SuiteConfig(seed_start=0, seed_end=39))
    assert passed and len(results) == 1800
    assert calls == {"_d_pairing_matrix": 1 * 120,
                     "_bracket_pairing_matrix": 4 * 120}


def test_cs_battery_shaped_run_forms_no_differential(monkeypatch):
    """dA, d~A, d omega and de are read as derivative pairings, never
    built; the same run still gives the pinned report."""
    calls = _count_differentials(monkeypatch)
    cfg = suites.SuiteConfig(seed_start=0, seed_end=39)
    results, passed = suites.run_suite(cfg)
    assert passed and len(results) == 1800
    assert calls == [0]
    report = suites.emit_report(results, cfg).encode()
    assert hashlib.sha256(report).hexdigest().startswith("90bf5367")


def test_matrices_are_kept_per_connection(monkeypatch):
    """Four forms, each read by the four functionals: the connection still
    walks (A, dA) once and each (A; u, v) once."""
    alg = build_algebra("so22")
    f = FieldSet(alg, 2).connection
    calls = _count_kernels(monkeypatch)
    forms = [invariant_form(alg, 1, 0), invariant_form(alg, 2, -3),
             killing_form(alg), star_form(alg)]
    for form in forms:
        for functional in (f.cs_a, f.cs_a_t, f.palatini, f.cs_omega_torsion):
            functional(form)
    assert calls == {"_d_pairing_matrix": 1, "_bracket_pairing_matrix": 4}


@pytest.mark.parametrize("functional, walks", [
    ("cs_a", (1, 4)), ("cs_a_t", (1, 4)), ("palatini", (1, 2)),
    ("torsion", (1, 1)), ("cs_omega_torsion", (1, 2))])
def test_a_functional_walks_only_what_it_reads(monkeypatch, functional,
                                               walks):
    """Each walk is made on first use: the Palatini value reads (A, dA),
    (A; omega, omega) and (A; e, e), the torsion pairing (A, dA) and
    (A; omega, e), S_CS^beta(omega) plus torsion both of these and
    (A; omega, omega)."""
    alg = build_algebra("so31")
    f = FieldSet(alg, 1).connection
    calls = _count_kernels(monkeypatch)
    getattr(f, functional)(killing_form(alg))
    assert calls == {"_d_pairing_matrix": walks[0],
                     "_bracket_pairing_matrix": walks[1]}


def test_values_are_keyed_by_the_form_object(monkeypatch):
    alg = build_algebra("so31")
    f = FieldSet(alg, 3).connection
    o = ConnectionOperands(f)
    twins = [invariant_form(alg, 2, 3), invariant_form(alg, 2, 3)]
    forms = twins + [killing_form(alg), invariant_form(alg, 1, 0)]
    calls = _count_pairings(monkeypatch)
    for form in forms:
        for _ in range(3):
            assert f.cs_a(form) == ref_cs(form, o.a, o.da, o.aa)
            assert f.cs_a_t(form) == ref_cs(form, o.a_t, o.da_t, o.aa_t)
            assert f.palatini(form) == ref_palatini(form, o)
            assert f.cs_omega_torsion(form) == ref_cs_omega_torsion(form, o)
    # the 5 walks contracted once per form object, whatever its (c0, c1)
    assert calls[0] == 5 * len(forms)


FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__")


def test_warm_checks_do_no_fraction_arithmetic(monkeypatch):
    """Once a field set's values and its couplings' forms are kept, an
    exact 3d check combines integer pairs and builds one Fraction, its
    residual: it adds, subtracts and multiplies no Fraction."""
    cfg = suites.SuiteConfig(algebras=["so31"], seed_start=3, seed_end=3)
    plan = [check for identity_id in suites.EXACT_3D_IDENTITIES
            for check in suites._plan_identity_battery(identity_id, cfg)]
    assert len(plan) == 15

    def run():
        return [actions.identity_residual(c.identity_id, c.alg, c.seed,
                                          c.couplings, cutoff=c.cutoff)
                for c in plan]

    calls = []
    with actions.run_scope():
        warm = run()
        for name in FRACTION_ARITHMETIC:
            def counting(*args, _name=name, _op=getattr(Fraction, name)):
                calls.append(_name)
                return _op(*args)
            monkeypatch.setattr(Fraction, name, counting)
        again = run()
        counted = list(calls)
        Fraction(1, 2) + Fraction(1, 3)     # the hook sees arithmetic
    assert counted == []
    assert calls == ["__add__"]
    assert [r.residual for r in again] == [r.residual for r in warm]
    assert all(r.passed for r in again)


def test_short_lived_forms_get_their_own_values():
    """An entry holds its form, so a later form never takes its id."""
    alg = build_algebra("so22")
    f = FieldSet(alg, 1).connection
    o = ConnectionOperands(f)
    for c1 in range(-10, 10):
        form = invariant_form(alg, 1, c1)
        assert f.cs_a(form) == ref_cs(form, o.a, o.da, o.aa)
        assert f.palatini(form) == ref_palatini(form, o)


def test_public_functionals_do_not_share_values():
    alg = build_algebra("so31")
    fields = FieldSet(alg, 0)
    omega, e = fields.connection.omega, fields.connection.coframe
    k, s = killing_form(alg), star_form(alg)
    f = ConnectionOperands(fields.connection)
    assert actions.palatini_action(omega, e).exact == ref_palatini(s, f)
    assert (actions.cs_omega_torsion_action(omega, e).exact
            == ref_cs_omega_torsion(k, f))
    assert (actions.torsion_pairing(omega, e).exact
            == HALF * ref_pair_integral(k, e, f.dwe))
    assert actions.cs_action(f.a, k).exact == ref_cs(k, f.a, f.da, f.aa)
    # a changed e gets new values: nothing is kept between calls
    e2 = e.scale(2)
    assert (actions.palatini_action(omega, e2).exact
            == ref_pair_integral(s, e2, f.r)
            + SIXTH * ref_pair_integral(s, e2, lie_bracket_forms(e2, e2)))


# ---------------------------------------------------------------------------
# the pairing on forms whose gram has empty rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["so41", "so32"])
def test_pair_integral_with_empty_gram_rows(name):
    alg = build_algebra(name)
    form = invariant_form(alg, 1, Fraction(1, 3))
    assert form.support == "h_block"
    empty = [a for a, row in enumerate(form.gram) if not any(row)]
    assert empty == list(alg.p_indices)
    nonzero = 0
    for seed in range(3):
        # full support: w has components on the rows the form leaves empty
        w = random_form(seed, 2, alg, dim=4, terms=4)
        m = random_form(seed + 40, 2, alg, dim=4, terms=4)
        assert any(alpha in empty for alpha, _ in w.comps)
        for p, q in ((w, m), (m, w), (w, w)):
            got = pair_integral(form, p, q)
            assert got == ref_pair_integral(form, p, q)
            assert got == integrate(beta_pair(form, p, q))
            nonzero += got != 0
        # only the p-rows of w: every row it reaches is empty
        w_p = w.p_part()
        assert not w_p.is_zero()
        assert pair_integral(form, w_p, m) == 0
    assert nonzero > 0
