"""Field files are read as strictly as configs and path files.

Integers (`torus_dim`, `degree`, `lie_index`, each entry of `multi_index`
and `k`) must be JSON ints, not floats or bools; `re` and `im` must be
finite rationals; a multi-index entry must lie in 0 <= i < torus_dim; a
form name, a component's (lie_index, multi_index) and a coefficient's `k`
appear once.  Each breach is a CalculusError naming the form, the
component and the key, and `eval` exits 2 with that one line.
"""

import json

import pytest

from cartanforms import cli
from cartanforms.algebra import build_algebra
from cartanforms.calculus import (
    CalculusError,
    LieForm,
    ScalarForm,
    TrigPoly,
    load_fields,
    random_form,
    save_fields,
)


def _doc(tmp_path):
    alg = build_algebra("so31")
    f = tmp_path / "valid.json"
    save_fields(f, alg, {"A": random_form(0, 1, alg)})
    return json.loads(f.read_text())


def _comp(doc):
    return doc["forms"][0]["components"][0]


def _coeff(doc):
    return _comp(doc)["coeffs"][0]


# (id, edit, the text the message must hold)
CASES = [
    ("multi_index_5", lambda d: _comp(d).update(multi_index=[5]),
     "form 'A', component 0: multi-index (5,) out of range on T^3"),
    ("multi_index_-1", lambda d: _comp(d).update(multi_index=[-1]),
     "form 'A', component 0: multi-index (-1,) out of range on T^3"),
    ("multi_index_float", lambda d: _comp(d).update(multi_index=[1.0]),
     "form 'A', component 0: multi_index must be an integer, got 1.0"),
    ("lie_index_float", lambda d: _comp(d).update(lie_index=1.7),
     "form 'A', component 0: lie_index must be an integer, got 1.7"),
    ("lie_index_bool", lambda d: _comp(d).update(lie_index=True),
     "form 'A', component 0: lie_index must be an integer, got True"),
    ("torus_dim_float", lambda d: d.update(torus_dim=3.9),
     "torus_dim must be an integer, got 3.9"),
    ("torus_dim_bool", lambda d: d.update(torus_dim=True),
     "torus_dim must be an integer, got True"),
    ("degree_bool", lambda d: d["forms"][0].update(degree=True),
     "form 'A': degree must be an integer, got True"),
    ("degree_float", lambda d: d["forms"][0].update(degree=1.0),
     "form 'A': degree must be an integer, got 1.0"),
    ("k_float", lambda d: _coeff(d).update(k=[0.5, -0.5, 1.5]),
     "form 'A', component 0, coeff 0: k must be an integer, got 0.5"),
    ("k_bool", lambda d: _coeff(d).update(k=[True, 0, 0]),
     "form 'A', component 0, coeff 0: k must be an integer, got True"),
    ("re_divides_by_zero", lambda d: _coeff(d).update(re="1/0"),
     "form 'A', component 0, coeff 0: re must be a finite rational, "
     "got '1/0'"),
    ("im_unparsable", lambda d: _coeff(d).update(im="x"),
     "form 'A', component 0, coeff 0: im must be a finite rational, got 'x'"),
    ("re_bool", lambda d: _coeff(d).update(re=True),
     "form 'A', component 0, coeff 0: re must be a finite rational, "
     "got True"),
    ("re_nan", lambda d: _coeff(d).update(re=float("nan")),
     "form 'A', component 0, coeff 0: re must be a finite rational, got nan"),
    ("im_infinite", lambda d: _coeff(d).update(im=float("inf")),
     "form 'A', component 0, coeff 0: im must be a finite rational, got inf"),
    ("form_not_an_object", lambda d: d["forms"].append(5),
     "form 1: TypeError"),
    # a repeated key would silently replace the earlier entry
    ("form_repeated", lambda d: d["forms"].append(
        {"name": "A", "degree": 1, "components": []}),
     "form 'A': the name repeats an earlier form"),
    ("component_repeated", lambda d: d["forms"][0]["components"].insert(
        1, dict(_comp(d))),
     "form 'A', component 1: (lie_index, multi_index) repeats an earlier "
     "component"),
    ("coeff_repeated", lambda d: _comp(d)["coeffs"].insert(1, dict(_coeff(d))),
     "form 'A', component 0, coeff 1: k repeats an earlier coefficient"),
] + [
    # strings take only the form form_to_dict writes, [-+]?[0-9]+(/[0-9]+)?;
    # an exponent would ask Fraction for a million-digit integer
    (f"re_{kind}", lambda d, text=text: _coeff(d).update(re=text),
     f"form 'A', component 0, coeff 0: re must be a finite rational, "
     f"got {text!r}")
    for kind, text in (("exponent", "1e1000000"), ("decimal", "1.5"),
                       ("space", " 1"), ("underscore", "1_000"),
                       ("arabic_digit", "\u0663"))
]


@pytest.mark.parametrize("edit, where", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_bad_number_is_a_usage_error_naming_where(tmp_path, capsys, edit,
                                                  where):
    doc = _doc(tmp_path)
    edit(doc)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(CalculusError) as info:
        load_fields(f)
    assert str(info.value).startswith("malformed field file (")
    assert where in str(info.value)
    rc = cli.main(["eval", "--fields", str(f), "--action", "cs"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.strip().splitlines() == [
        f"cannot read field file: {info.value}"]


def test_json_ints_and_rational_strings_still_load(tmp_path):
    doc = _doc(tmp_path)
    f = tmp_path / "same.json"
    f.write_text(json.dumps(doc))
    _, want = load_fields(f)
    converted = 0
    for comp in doc["forms"][0]["components"]:
        for c in comp["coeffs"]:
            for key in ("re", "im"):
                if "/" not in c[key]:
                    c[key] = int(c[key])        # "1" as the JSON int 1
                    converted += 1
    assert converted
    f.write_text(json.dumps(doc))
    _, got = load_fields(f)
    assert got["A"] == want["A"]


@pytest.mark.parametrize("idx", [(3,), (-1,), (0, 3)])
def test_forms_refuse_out_of_range_multi_indices(idx):
    alg = build_algebra("so31")
    poly = TrigPoly.constant(3, 1)
    with pytest.raises(CalculusError, match="out of range on T\\^3"):
        LieForm(alg, 3, len(idx), {(0, idx): poly})
    with pytest.raises(CalculusError, match="out of range on T\\^3"):
        ScalarForm(3, len(idx), {idx: poly})
    assert not LieForm(alg, 4, 1, {(0, (3,)): TrigPoly.constant(4, 1)}).is_zero()


def test_signed_and_padded_rational_strings_load(tmp_path):
    doc = _doc(tmp_path)
    f = tmp_path / "same.json"
    f.write_text(json.dumps(doc))
    _, want = load_fields(f)
    for comp in doc["forms"][0]["components"]:
        for c in comp["coeffs"]:
            for key in ("re", "im"):
                if not c[key].startswith("-"):
                    c[key] = "+0" + c[key]      # "1/2" as "+01/2"
    f.write_text(json.dumps(doc))
    _, got = load_fields(f)
    assert got["A"] == want["A"]
