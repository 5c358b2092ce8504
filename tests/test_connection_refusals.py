"""The 3d Cartan actions take only a Cartan connection omega + e on T^3.

`palatini_action`, `torsion_pairing` and `cs_omega_torsion_action` make
the checks of CartanConnection (one algebra and one torus, 1-forms, omega
stabilizer-valued, e translation-valued) and require T^3 before any
pairing, so a pair of 1-forms that is no Cartan connection is refused for
what it is instead of giving a number.  `eval` exits 2 with one line.  The
zero form is a valid omega or e.
"""

from fractions import Fraction

import pytest

from cartanforms import cli
from cartanforms.actions import (
    FieldSet,
    cs_omega_torsion_action,
    palatini_action,
    torsion_pairing,
)
from cartanforms.algebra import (
    AlgebraError,
    build_algebra,
    killing_form,
    star_form,
)
from cartanforms.calculus import (
    CalculusError,
    LieForm,
    lie_bracket_forms,
    pair_integral,
    random_form,
    save_fields,
)

from connection_operands import ConnectionOperands

ACTIONS = [palatini_action, torsion_pairing, cs_omega_torsion_action]
CLI_ACTIONS = ["palatini", "cs_omega_torsion"]


def _so31(seed, degree, support, dim=3):
    return random_form(seed, degree, build_algebra("so31"), dim=dim,
                       support=support)


def _so41(seed, support):
    return random_form(seed, 1, build_algebra("so41"), dim=4, support=support)


# (label, omega, e, the refusal); every pair shares one algebra and torus,
# so each can be written to one field file
BAD_PAIRS = [
    ("full-support", lambda: _so31(0, 1, "full"), lambda: _so31(1, 1, "full"),
     "omega must vanish on translation indices"),
    ("swapped-supports", lambda: _so31(0, 1, "p"), lambda: _so31(1, 1, "h"),
     "omega must vanish on translation indices"),
    ("e-with-h-values", lambda: _so31(0, 1, "h"), lambda: _so31(1, 1, "full"),
     "coframe must vanish on stabilizer indices"),
    ("degree-2-omega", lambda: _so31(0, 2, "h"), lambda: _so31(1, 1, "p"),
     "connection components must be 1-forms"),
    ("t4", lambda: _so41(0, "h"), lambda: _so41(1, "p"),
     "the 3d Cartan actions live on a 3-torus"),
]
IDS = [label for label, *_ in BAD_PAIRS]


@pytest.mark.parametrize("action", ACTIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("label,omega,e,reason", BAD_PAIRS, ids=IDS)
def test_actions_refuse_a_pair_that_is_no_cartan_connection(label, omega, e,
                                                            reason, action):
    with pytest.raises(ValueError, match=reason):
        action(omega(), e())


@pytest.mark.parametrize("name", CLI_ACTIONS)
@pytest.mark.parametrize("label,omega,e,reason", BAD_PAIRS, ids=IDS)
def test_eval_refuses_with_one_line(tmp_path, capsys, label, omega, e, reason,
                                    name):
    w, coframe = omega(), e()
    path = tmp_path / "fields.json"
    save_fields(path, w.algebra, {"omega": w, "e": coframe})
    rc = cli.main(["eval", "--fields", str(path), "--action", name])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert reason in err


@pytest.mark.parametrize("action", ACTIONS, ids=lambda f: f.__name__)
def test_actions_refuse_mixed_algebras_and_tori(action):
    so22 = build_algebra("so22")
    with pytest.raises(AlgebraError, match="different algebras"):
        action(_so31(0, 1, "h"), random_form(1, 1, so22, support="p"))
    with pytest.raises(CalculusError, match="different tori"):
        action(_so31(0, 1, "h"), _so31(1, 1, "p", dim=4))


def test_zero_forms_stay_valid(tmp_path, capsys):
    alg = build_algebra("so31")
    f = FieldSet(alg, 0).connection
    e = f.coframe
    zero = LieForm.zero(alg, 3, 1)
    s, k = star_form(alg), killing_form(alg)
    # omega = 0: R = 0 and d_omega e = de
    assert palatini_action(zero, e).exact == Fraction(1, 6) * pair_integral(
        s, e, lie_bracket_forms(e, e))
    assert torsion_pairing(zero, e).exact == Fraction(1, 2) * pair_integral(
        k, e, e.d())
    # e = 0: only S_CS(omega) is left
    assert cs_omega_torsion_action(f.omega, zero).exact == (
        Fraction(1, 2) * pair_integral(k, f.omega, f.omega.d())
        + Fraction(1, 6) * pair_integral(k, f.omega, ConnectionOperands(f).ww))
    for action in ACTIONS:
        assert action(zero, zero).exact == 0
    path = tmp_path / "fields.json"
    save_fields(path, alg, {"omega": zero, "e": e})
    for name in CLI_ACTIONS:
        assert cli.main(["eval", "--fields", str(path), "--action", name]) == 0
    assert capsys.readouterr().err == ""
