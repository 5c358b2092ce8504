"""Path-file numbers: an arc's radius and angles and every coordinate of
`from`, `to` and `center` must be finite JSON numbers.  Anything else is a
usage error (exit 2, one line) naming the segment and the key."""

import json

import pytest

from cartanforms import cli
from cartanforms.cartan import CartanError, load_path

LINE = {"from": [0.0, 0.0], "to": [0.1, 0.0]}
ARC = {"type": "arc", "center": [0.0, 0.0], "radius": 0.1,
       "start_angle": 0.0, "end_angle": 1.0}

# (segment, where the error must point); NaN and Infinity are written as
# Python's json module writes them
BAD = [
    (dict(ARC, start_angle="x"), "segment 1: start_angle"),
    (dict(ARC, end_angle=True), "segment 1: end_angle"),
    (dict(ARC, radius="inf"), "segment 1: radius"),
    (dict(ARC, radius=float("inf")), "segment 1: radius"),
    (dict(ARC, radius=None), "segment 1: radius"),
    (dict(ARC, center=[0.0, float("nan")]), "segment 1: center[1]"),
    (dict(ARC, center="00"), "segment 1: center"),
    (dict(LINE, **{"from": ["a", 0]}), "segment 1: from[0]"),
    (dict(LINE, to=[float("nan"), 0]), "segment 1: to[0]"),
    (dict(LINE, to=[0, -float("inf")]), "segment 1: to[1]"),
    (dict(LINE, to=[0, 10 ** 400]), "segment 1: to[1]"),
    (dict(LINE, to=[False, 0]), "segment 1: to[0]"),
    (dict(LINE, to=5), "segment 1: to"),
]


def _write(tmp_path, segment):
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"segments": [LINE, segment]}))
    return path


@pytest.mark.parametrize("segment,where", BAD, ids=[w for _, w in BAD])
def test_path_numbers_are_finite(tmp_path, capsys, segment, where):
    path = _write(tmp_path, segment)
    with pytest.raises(CartanError, match="malformed path file") as exc:
        load_path(path)
    assert where in str(exc.value)
    rc = cli.main(["holonomy", "--model", "sphere", "--path", str(path),
                   "--steps", "10"])
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and where in err


def test_integer_coordinates_still_load(tmp_path, capsys):
    path = _write(tmp_path, dict(ARC, center=[0, 0], radius=1, end_angle=2))
    seg = load_path(path).segments[1]
    assert seg.data["center"] == [0.0, 0.0] and seg.data["radius"] == 1.0
    assert cli.main(["holonomy", "--model", "sphere", "--path", str(path),
                     "--steps", "10"]) == 0
