import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import logskel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIX = os.path.join(ROOT, "fixtures")
# children import the logskel that these tests import, wherever they run from
CHILD_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(os.path.abspath(logskel.__file__)))}


def run_cli(*args, timeout=None):
    return subprocess.run([sys.executable, "-m", "logskel", *args],
                          capture_output=True, text=True, cwd=ROOT, env=CHILD_ENV, timeout=timeout)


def test_weight_command_example_values():
    out = run_cli("weight",
                  "--pair", os.path.join(FIX, "strict_inclusion_pair.json"),
                  "--form", os.path.join(FIX, "strict_inclusion_form.json"),
                  "--points", os.path.join(FIX, "strict_inclusion_points.json"))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    got = {v["point"]["kato_point"][0]: v["weight"] for v in doc["values"]}
    assert got == {"D1": "2", "D2": "3", "D3": "3"}


def test_ks_command_example():
    out = run_cli("ks",
                  "--pair", os.path.join(FIX, "strict_inclusion_pair.json"),
                  "--form", os.path.join(FIX, "strict_inclusion_form.json"))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["min_value"] == "2"
    assert len(doc["faces"]) == 1
    assert doc["faces"][0]["kato_point"] == ["D1"]
    assert doc["faces"][0]["vertices"] == [["1/2"]]


def test_ks_command_ties_see_coefficient_valuations(tmp_path):
    # z1 z2 = pi and the form 1 / (z1^2 + pi): the weight is 0 from (1/2, 1/2) to (1, 0)
    pair = {"schema": "1", "mode": "dvf", "strata": [["V1"], ["V2"], ["V1", "V2"]],
            "charts": [{"coords": ["z1", "z2"], "boundary": [
                {"id": "V1", "coordinate": "z1", "pi_multiplicity": 1},
                {"id": "V2", "coordinate": "z2", "pi_multiplicity": 1}]}]}
    form = {"schema": "1", "m": 1, "dlog": ["V2"], "numerator": {
        "num": [{"exp": [0, 0]}], "den": [{"exp": [2, 0]}, {"exp": [0, 0], "coeff_val": "1"}]}}
    for name, doc in (("pair", pair), ("form", form)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    out = run_cli("ks", "--pair", str(tmp_path / "pair.json"), "--form", str(tmp_path / "form.json"))
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["min_value"] == "0"
    assert doc["faces"] == [{"kato_point": ["V1"], "vertices": [["1"]]},
                            {"kato_point": ["V1", "V2"], "vertices": [["1/2", "1/2"], ["1", "0"]]}]


def test_residue_command_with_trace_ks():
    out = run_cli("residue",
                  "--pair", os.path.join(FIX, "strict_inclusion_pair.json"),
                  "--form", os.path.join(FIX, "strict_inclusion_form.json"),
                  "--stratum", "D4", "--ks")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["residue_form"]["dlog"] == ["D3"]
    assert doc["ks"]["min_value"] == "3"


def test_gauss_command():
    out = run_cli("gauss", "--c", "1", "--a", "1", "--l", "2", "--m", "1")
    doc = json.loads(out.stdout)
    assert doc["log_r"] == "-2"
    assert doc["log_norm_trivial"] == "-2"
    assert doc["log_norm_discrete"] == "-4"
    assert doc["identity_holds"] is True


def test_character_variety_command():
    out = run_cli("character-variety", "--group", "gl", "--n", "2")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["matches_sphere"] is True
    assert doc["sphere_dimension"] == 3
    ranks = [d["rank"] for d in doc["homology"]["degree"]]
    assert ranks == [1, 0, 0, 1]


def test_tate_command():
    out = run_cli("tate", "--n", "2", "--alpha", "-1", "-1")
    doc = json.loads(out.stdout)
    assert doc["case"] == "negative"
    contained = {(tuple(s["J"]), s["j"]) for s in doc["strata"] if s["contained"]}
    assert contained == {((1, 2), 1), ((1, 2), 2)}


def test_tate_command_refuses_past_desk_scale():
    out = run_cli("tate", "--n", "17", "--alpha", "-1", *["0"] * 16, timeout=30)
    assert out.returncode == 2 and out.stdout == ""
    assert "strata" in out.stderr


def test_slice_command_dwork_circle():
    out = run_cli("slice", "--pair", os.path.join(FIX, "dwork_pair.json"),
                  "--essential")
    doc = json.loads(out.stdout)
    ranks = [d["rank"] for d in doc["homology"]["degree"]]
    assert ranks == [1, 1]


def test_closure_command_snc_points():
    out = run_cli("closure", "--pair", os.path.join(FIX, "a2_pair.json"),
                  "--points", os.path.join(FIX, "closure_points_a2.json"))
    doc = json.loads(out.stdout)
    strata = [c["stratum"] for c in doc["classified"]]
    assert strata == [["B2"], ["B1", "B2"]]


def test_skeleton_command_toric():
    out = run_cli("skeleton", "--fan", os.path.join(FIX, "p2_fan.json"))
    doc = json.loads(out.stdout)
    assert doc["kato_points"] == 7


@pytest.mark.parametrize("command", ["skeleton", "closure", "dual-complex"])
def test_pair_or_fan_is_required_and_exclusive(command):
    extra = ["--points", os.path.join(FIX, "closure_points_a2.json")] if command == "closure" else []
    neither = run_cli(command, *extra)
    both = run_cli(command, "--pair", os.path.join(FIX, "a2_pair.json"),
                   "--fan", os.path.join(FIX, "p2_fan.json"), *extra)
    for out in (neither, both):
        assert out.returncode == 2
        assert out.stdout == "" and "Traceback" not in out.stderr
    assert "one of the arguments --pair --fan is required" in neither.stderr
    assert "not allowed with" in both.stderr


@pytest.mark.parametrize("cone,message", [
    ([0, -1], "-1 is not an index into the 3 rays"),
    ([0, 3], "3 is not an index into the 3 rays"),
    (5, "cone 5 is not a list of ray indices"),
])
def test_fan_json_bad_index_is_validation_error(tmp_path, cone, message):
    with open(os.path.join(FIX, "p2_fan.json")) as fh:
        doc = json.load(fh)
    doc["cones"].append(cone)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    out = run_cli("skeleton", "--fan", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert message in out.stderr


@pytest.mark.parametrize("edit,message", [
    ({"rays": [[1, 0, 7], [0, 1], [1, 0]]}, "ray [1, 0, 7] is not a list of 2 integers"),
    ({"rays": [[1.5, 0], [0, 1], [1, 0]]}, "ray [1.5, 0] is not a list of 2 integers"),
    ({"rank": 2.5}, "rank 2.5 is not an integer"),
    ({"rank": -1}, "rank -1 is not an integer >= 0"),
    ({"rays": 5}, "rays 5 is not a list"),
    ({"cones": 7}, "cones 7 is not a list"),
])
def test_fan_json_bad_ray_or_rank_is_validation_error(tmp_path, edit, message):
    with open(os.path.join(FIX, "p2_fan.json")) as fh:
        doc = json.load(fh)
    doc.update(edit)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    out = run_cli("skeleton", "--fan", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert message in out.stderr


@pytest.mark.parametrize("flag", ["--fan", "--pair", "--form", "--points", "--complex"])
def test_json_top_level_not_an_object_is_validation_error(tmp_path, flag):
    files = {"--pair": os.path.join(FIX, "strict_inclusion_pair.json"),
             "--form": os.path.join(FIX, "strict_inclusion_form.json"),
             "--points": os.path.join(FIX, "strict_inclusion_points.json")}
    bad = tmp_path / "bad.json"
    files[flag] = str(bad)
    commands = {"--fan": ["skeleton", "--fan"], "--complex": ["homology", "--complex"]}
    argv = commands[flag] + [files[flag]] if flag in commands else [
        "weight", *(x for f in ("--pair", "--form", "--points") for x in (f, files[f]))]
    # nesting deeper than the parser's recursion limit is refused too, not a RecursionError
    for text, message in (("[1, 2]", "the top level is not a JSON object"),
                          ("[" * 100_000, "invalid JSON: nested too deeply to parse")):
        bad.write_text(text)
        out = run_cli(*argv)
        assert out.returncode == 2
        assert out.stdout == "" and "Traceback" not in out.stderr
        assert f"{bad}: {message}" in out.stderr


UNKNOWN_COORDINATE_PAIR = {"mode": "trivial", "strata": [["B"]],
                           "charts": [{"coords": ["z"], "boundary": [{"id": "B", "coordinate": "q"}]}]}


@pytest.mark.parametrize("argv,flag,doc,message", [
    (["closure", "--fan", os.path.join(FIX, "p2_fan.json")], "--points", {"points": 5},
     "points 5 is not a list of JSON objects"),
    (["weight", "--pair", os.path.join(FIX, "strict_inclusion_pair.json"),
      "--form", os.path.join(FIX, "strict_inclusion_form.json")], "--points", {"points": [5]},
     "points [5] is not a list of JSON objects"),
    (["homology"], "--complex", {"vertices": [0, 1], "facets": 5}, "facets 5 is not a list"),
    (["homology"], "--complex", {"vertices": 3, "facets": [[0]]}, "vertices 3 is not a list"),
    (["skeleton"], "--pair", UNKNOWN_COORDINATE_PAIR,
     "coordinate 'q' of B is not one of the chart coordinates ['z']"),
    (["closure", "--fan", os.path.join(FIX, "p2_fan.json")], "--points",
     {"points": [{"kato_point": 5, "weights": ["1"]}]}, "kato_point 5 is not a list"),
    (["closure", "--pair", os.path.join(FIX, "a2_pair.json")], "--points",
     {"points": [{"kato_point": ["B1"], "weights": 5}]}, "weights 5 is not a list"),
    (["closure", "--fan", os.path.join(FIX, "p2_fan.json")], "--points",
     {"points": [{"kato_point": [[0]], "weights": ["1"]}]}, "[0] is not an index into the 3 rays"),
    (["closure", "--fan", os.path.join(FIX, "p2_fan.json")], "--points",
     {"points": [{"kato_point": [True], "weights": ["1"]}]}, "True is not an index into the 3 rays"),
    (["closure", "--pair", os.path.join(FIX, "a2_pair.json")], "--points",
     {"points": [{"kato_point": ["Z9"], "weights": ["1"]}]},
     "['Z9'] are not boundary components of the pair"),
    (["closure", "--pair", os.path.join(FIX, "a2_pair.json")], "--points",
     {"points": [{"kato_point": [[0]], "weights": ["1"]}]},
     "kato_point [[0]] is not a list of component ids"),
    (["weight", "--pair", os.path.join(FIX, "strict_inclusion_pair.json"),
      "--form", os.path.join(FIX, "strict_inclusion_form.json")], "--points",
     {"points": [{"kato_point": ["D1", "D1"], "weights": ["1", "2"]}]},
     "kato_point ['D1', 'D1'] names a component twice"),
    (["closure", "--pair", os.path.join(FIX, "a2_pair.json")], "--points",
     {"points": [{"kato_point": ["B1", "B1"], "weights": ["inf", "2"]}]},
     "kato_point ['B1', 'B1'] names a component twice"),
    (["homology"], "--complex", {"vertices": [json.loads("[" * 500 + "0" + "]" * 500), 1], "facets": [[0, 1]]},
     "a vertex label nests lists more than 300 deep"),
], ids=["points", "point", "facets", "vertices", "coordinate", "toric-kato-point", "snc-weights",
        "toric-nested-index", "toric-bool-index", "snc-unknown-component", "snc-nested-id",
        "weight-repeated-id", "closure-repeated-id", "deep-label"])
def test_json_bad_shape_is_validation_error(tmp_path, argv, flag, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = run_cli(*argv, flag, str(path))
    assert out.returncode == 2
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert message in out.stderr


def test_points_out_of_order_keep_their_weights(tmp_path):
    # the same point given in both orders: the infinite weight sits on B2
    reports = []
    for kato, weights in ((["B2", "B1"], ["inf", "1"]), (["B1", "B2"], ["1", "inf"])):
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"points": [{"kato_point": kato, "weights": weights}]}))
        out = run_cli("closure", "--pair", os.path.join(FIX, "a2_pair.json"), "--points", str(path))
        assert out.returncode == 0, out.stderr
        reports.append(json.loads(out.stdout))
    assert reports[0] == reports[1]
    (point,) = reports[0]["classified"]
    assert point["stratum"] == ["B2"]
    assert point["point"]["kato_point"] == ["B1", "B2"] and point["point"]["weights"] == ["1", "inf"]


def test_overlapping_fan_cones_are_validation_error(tmp_path):
    overlap = {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]], "cones": [[0, 1], [1, 2]]}
    # a square pyramid and one of its diagonals, which lies in it but is no face
    pyramid = {"rank": 3, "rays": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]],
               "cones": [[0, 1, 2, 3], [0, 2]]}
    for doc, message in ((overlap, "intersection of [0, 1] and [1, 2] is not a common face"),
                         (pyramid, "cone [0, 2] lies in the cone [0, 1, 2, 3] but is not a face of it")):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(doc))
        for command in ("dual-complex", "skeleton"):
            _one_line_validation_error(run_cli(command, "--fan", str(path)), message)


@pytest.mark.parametrize("facet,message", [
    ([1, -1], "-1 is not an index into the 3 vertices"),
    ([1, 5], "5 is not an index into the 3 vertices"),
    (5, "facet 5 is not a list of vertex indices"),
])
def test_complex_json_bad_index_is_validation_error(tmp_path, facet, message):
    cx = {"schema": "1", "vertices": [0, 1, 2], "facets": [[0, 1], facet]}
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(cx))
    out = run_cli("homology", "--complex", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert message in out.stderr


@pytest.mark.parametrize("vertices,message", [
    ([0, 0], "vertices 0 and 1 have equal labels 0 and 0"),
    ([True, 1], "vertices 0 and 1 have equal labels True and 1"),
    ([1.0, 1], "vertices 0 and 1 have equal labels 1.0 and 1"),
    ([[1], [1]], "vertices 0 and 1 have equal labels (1,) and (1,)"),
])
def test_complex_json_equal_labels_is_validation_error(tmp_path, vertices, message):
    # labels that compare equal would merge two vertices into one
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({"schema": "1", "vertices": vertices, "facets": [[0], [1]]}))
    _one_line_validation_error(run_cli("homology", "--complex", str(path)), message)


@pytest.mark.parametrize("rays", [[[1], [-1]], [[1, 0], [0, 1], [-1, 0]]])
def test_non_pointed_fan_cone_is_validation_error(tmp_path, rays):
    doc = {"schema": "1", "rank": len(rays[0]), "rays": rays,
           "cones": [list(range(len(rays)))]}
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    out = run_cli("skeleton", "--fan", str(path))
    assert out.returncode == 2
    assert "fan cones must be pointed" in out.stderr


@pytest.mark.parametrize("command", ["skeleton", "dual-complex"])
def test_repeated_fan_ray_is_validation_error(tmp_path, command):
    """Rays 0 and 2 are one ray: read as two, the two cones on it made a
    fan of five Kato points with a face "2" and no face "0"."""
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"schema": "1", "rank": 2, "rays": [[1, 0], [0, 1], [1, 0]],
                                "cones": [[0, 1], [1, 2]]}))
    _one_line_validation_error(run_cli(command, "--fan", str(path)), "rays 0 and 2 are equal: [1, 0]")


@pytest.mark.parametrize("rays,cones,message", [
    ([[1, 0], [0, 1], [0, 0], [2, 2]], [[0, 1]], "ray [0, 0] is not primitive"),
    ([[1, 0], [0, 1], [2, 2]], [[0, 1]], "ray [2, 2] is not primitive"),
    # a bad ray in a cone keeps the cone's message
    ([[1, 0], [0, 1], [2, 2]], [[0, 1], [2]], "generators [2] are not the extreme rays of their cone"),
])
def test_non_primitive_fan_ray_is_validation_error(tmp_path, rays, cones, message):
    """A ray in no cone is checked on its own: no cone's generators test it."""
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"schema": "1", "rank": 2, "rays": rays, "cones": cones}))
    _one_line_validation_error(run_cli("skeleton", "--fan", str(path)), message)


def test_dual_complex_command():
    out = run_cli("dual-complex", "--fan", os.path.join(FIX, "p2_fan.json"))
    doc = json.loads(out.stdout)
    ranks = [d["rank"] for d in doc["homology"]["degree"]]
    assert ranks == [1, 1]


def test_dual_complex_square_pyramid(tmp_path):
    """One rank-4 cone over a square pyramid: its non-simplicial base face
    must be starred too, or the subdivision never ends."""
    doc = {"rank": 4, "rays": [[1, 1, 0, 1], [1, -1, 0, 1], [-1, 1, 0, 1], [-1, -1, 0, 1],
                               [0, 0, 1, 1]], "cones": [[0, 1, 2, 3, 4]]}
    path = tmp_path / "pyramid.json"
    path.write_text(json.dumps(doc))
    out = run_cli("dual-complex", "--fan", str(path), timeout=30)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert len(doc["complex"]["facets"]) == 8
    assert doc["homology"]["degree"] == [{"rank": 1, "torsion": []}] + [{"rank": 0, "torsion": []}] * 3


def test_dual_complex_off_dump(tmp_path):
    # the Dwork triangle: three boundary components, pairwise meeting
    path = tmp_path / "dwork.off"
    out = run_cli("dual-complex", "--pair", os.path.join(FIX, "dwork_pair.json"), "--off", str(path))
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["off"] == str(path)
    assert doc["complex"]["vertices"] == ["E0", "E1", "E2"]
    lines = path.read_text().splitlines()
    assert lines[:2] == ["OFF", "3 3 0"] and len(lines) == 8
    assert all(len(line.split()) == 3 for line in lines[2:5])
    assert lines[5:] == ["2 0 1", "2 0 2", "2 1 2"]


def test_homology_command_roundtrip(tmp_path):
    cx = {"schema": "1", "vertices": [0, 1, 2],
          "facets": [[0, 1], [1, 2], [0, 2]]}
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(cx))
    out = run_cli("homology", "--complex", str(path))
    doc = json.loads(out.stdout)
    assert [d["rank"] for d in doc["homology"]["degree"]] == [1, 1]


def test_byte_identical_output():
    args = ("gauss", "--c", "5/3", "--a", "2", "--l", "3", "--m", "2")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = run_cli("homology", "--complex", str(bad))
    assert out.returncode == 2
    assert "line" in out.stderr


def test_gauss_zero_denominator_is_validation_error():
    out = run_cli("gauss", "--c", "1/0", "--a", "1", "--l", "2", "--m", "1")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "not an exact rational: '1/0'" in out.stderr


def test_gauss_oversized_decimal_is_refused_before_it_is_built(capsys):
    # Fraction('1e10000000') builds 10^(10^7) first, about 12 s; the string
    # alone shows 1 + 10^7 digits, over Python's integer string limit
    import time

    from logskel import cli

    start = time.perf_counter()
    assert cli.main(["gauss", "--c", "1e10000000", "--a", "0", "--l", "1", "--m", "1"]) == 2
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        f"validation error: not an exact rational within {sys.get_int_max_str_digits()} digits: '1e10000000'\n")


def test_decimal_digit_limit_counts_mantissa_digits_and_exponent():
    from logskel.rationals import q

    limit = sys.get_int_max_str_digits()
    assert q(f"1e{limit - 1}") == 10 ** (limit - 1)  # limit digits in all
    assert q(f"-1.5E-{limit - 2}") == Fraction(-15, 10 ** (limit - 1))
    assert q("1e" + "0" * 100 + "7") == 10 ** 7  # leading zeros of the exponent do not count
    for text in (f"1e{limit}", f"1e-{limit}", f"12.5e{limit - 2}", f" 1E+{limit} ",
                 "1e" + "9" * 30, f"1e{limit // 2}_{limit // 2}"):
        with pytest.raises(ValueError, match="within"):
            q(text)
    for text in ("1e", "1e+-5", "e5", "1.5e3x"):  # left to Fraction, which refuses them
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            q(text)


def test_pair_float_coefficient_is_validation_error(tmp_path):
    with open(os.path.join(FIX, "strict_inclusion_pair.json")) as fh:
        doc = json.load(fh)
    doc["charts"][0]["boundary"][0]["coefficient"] = 0.5
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    out = run_cli("skeleton", "--pair", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert "not an exact rational: 0.5" in out.stderr


def _set(path, value):
    def edit(doc):
        *keys, last = path
        for k in keys:
            doc = doc[k]
        doc[last] = value
    return edit


@pytest.mark.parametrize("which,edit,message", [
    ("pair", _set(["charts", 0, "boundary", 0, "equation", "num", 0, "exp"], [1.5, 0, 0]),
     "exponent vector [1.5, 0, 0] is not a list of integers"),
    ("pair", _set(["charts", 0, "boundary", 0, "pi_multiplicity"], True),
     "pi_multiplicity True is not an integer"),
    ("pair", _set(["charts", 0, "relative_dimension"], 2.7), "relative_dimension 2.7 is not an integer"),
    ("pair", _set(["strata", 1], 5), "stratum 5 is not a list of component ids"),
    ("form", _set(["m"], 1.5), "m 1.5 is not an integer"),
    ("form", _set(["charts", 1, "chart"], 1.0), "chart 1.0 is not an integer"),
    ("form", _set(["dlog"], 5), "dlog 5 is not a list of component ids"),
    ("form", _set(["charts", 0, "numerator"], {"num": 5}),
     "terms 5 are not a list of objects with an exponent list"),
    ("form", _set(["charts", 0, "numerator"], 5), "expression 5 is not a JSON object"),
    ("form", _set(["charts"], [5]), "charts [5] is not a list of JSON objects"),
    ("pair", _set(["charts"], 5), "charts 5 is not a list of JSON objects"),
    ("pair", _set(["charts", 0, "coords"], 5), "coords 5 is not a list of names"),
    ("pair", _set(["charts", 0, "boundary"], 5), "boundary 5 is not a list of JSON objects"),
    ("pair", _set(["charts", 0, "boundary", 0, "id"], ["B"]), "component id ['B'] is not a string"),
], ids=["exponent", "pi_multiplicity", "relative_dimension", "stratum", "m", "chart",
        "dlog", "terms", "numerator", "form-charts", "pair-charts", "coords", "boundary", "id"])
def test_pair_or_form_non_int_is_validation_error(tmp_path, which, edit, message):
    paths = {}
    for kind in ("pair", "form"):
        with open(os.path.join(FIX, f"strict_inclusion_{kind}.json")) as fh:
            doc = json.load(fh)
        if kind == which:
            edit(doc)
        paths[kind] = tmp_path / f"{kind}.json"
        paths[kind].write_text(json.dumps(doc))
    out = run_cli("ks", "--pair", str(paths["pair"]), "--form", str(paths["form"]))
    assert out.returncode == 2
    assert out.stdout == ""
    assert message in out.stderr


@pytest.mark.parametrize("flag,value,message", [
    ("--n", "0", "--n must be positive"),
    ("--n", "-1", "--n must be positive"),
    ("--samples", "0", "--samples must be positive"),
    ("--tolerance", "0", "--tolerance must be positive"),
    ("--tolerance", "-1e-9", "--tolerance must be positive"),
    ("--tolerance", "nan", "--tolerance must be positive"),
    # the tolerance is also the degeneracy threshold (ArithmeticError before)
    ("--tolerance", "1", "tolerance 1.0 is not below 1/(1 + 2 sqrt(n)) = 0.2612 at n = 2"),
    ("--tolerance", "inf", "tolerance inf is not below"),
    # 2,097,153 samples at n = 2: one over the bound of 2^24 = 2 * 4 * 2,097,152 steps
    ("--samples", "2097153", "--samples x --n x max(--n, 4) = 16777224 is over the desk-scale 16777216"),
], ids=["n=0", "n=-1", "samples=0", "tolerance=0", "tolerance<0", "tolerance=nan", "tolerance=1",
        "tolerance=inf", "samples-over-bound"])
def test_sphere_check_argument_is_validation_error(flag, value, message):
    args = {"--n": "2", "--samples": "10", "--tolerance": "1e-9", flag: value}
    out = run_cli("sphere-check", *[f"{k}={v}" for k, v in args.items()])
    assert out.returncode == 2
    assert out.stdout == ""
    assert message in out.stderr and "Traceback" not in out.stderr


def test_sphere_check_step_bound_accepts_a_million_samples_at_n_3():
    from logskel import cli

    assert 10 ** 6 * 3 * 4 <= cli.SPHERE_CHECK_STEPS


def _a2_with(key, edit):
    def write(tmp_path):
        paths = {}
        for kind, name in (("pair", "a2_pair.json"), ("form", "a2_form_z1.json"), ("complex", None)):
            if name is None:
                doc = {"vertices": [1, 2, 3], "facets": [[0, 1], [1, 2]]}
            else:
                with open(os.path.join(FIX, name)) as fh:
                    doc = json.load(fh)
            if kind == key:
                edit(doc)
            paths[kind] = tmp_path / f"{kind}.json"
            paths[kind].write_text(json.dumps(doc))
        return paths
    return write


@pytest.mark.parametrize("command,write,message", [
    (["skeleton", "--pair", "{pair}"], _a2_with("pair", _set(["strata"], 1.5)),
     "strata 1.5 is not a list of strata"),
    (["skeleton", "--pair", "{pair}"], _a2_with("pair", _set(["strata", 1, 0], ["B1"])),
     "stratum [['B1']] is not a list of component ids"),
    (["ks", "--pair", "{pair}", "--form", "{form}"], _a2_with("form", _set(["dlog", 0], ["B1"])),
     "dlog [['B1'], 'B2'] is not a list of component ids"),
    (["homology", "--complex", "{complex}"], _a2_with("complex", _set(["vertices", 0], {"a": 1})),
     "vertex label {'a': 1} is not a string, number or list of them"),
], ids=["strata", "stratum-entry", "dlog-entry", "vertex-label"])
def test_input_field_of_the_wrong_type_is_validation_error(tmp_path, command, write, message):
    """Fields that once reached a set or a sort as lists, dicts or floats
    and crashed with exit 1: each is refused where it is parsed."""
    paths = write(tmp_path)
    out = run_cli(*[arg.format(**paths) for arg in command])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.strip().splitlines() == [f"validation error: {message}"]


def test_unknown_stratum_is_validation_error(tmp_path):
    out = run_cli("residue",
                  "--pair", os.path.join(FIX, "strict_inclusion_pair.json"),
                  "--form", os.path.join(FIX, "strict_inclusion_form.json"),
                  "--stratum", "D9")
    assert out.returncode == 2


def test_fixtures_command_green():
    out = run_cli("fixtures")
    assert out.returncode == 0
    doc = json.loads(out.stdout)  # stdout is the JSON report alone
    assert doc["failed"] == 0
    assert "FAIL" not in out.stderr
    assert out.stderr.count("PASS  ") == len(doc["results"]) > 0


def test_fixtures_report_matches_golden(tmp_path):
    out = run_cli("fixtures", "-o", str(tmp_path / "fixtures.json"))
    assert out.returncode == 0
    assert out.stdout == ""
    with open(os.path.join(ROOT, "perfbench", "golden", "fixtures.json"), "rb") as fh:
        assert (tmp_path / "fixtures.json").read_bytes() == fh.read()


def test_fixtures_command_reports_failures(monkeypatch, capsys):
    from logskel import cli, fixtures as fx

    checks = list(fx.CHECKS)
    fail_label, crash_label = checks[0][0], checks[1][0]
    checks[0] = (fail_label, lambda: False)
    checks[1] = (crash_label, lambda: 1 // 0)
    monkeypatch.setattr(fx, "CHECKS", checks)
    assert cli.main(["fixtures"]) == 3
    out, err = capsys.readouterr()
    doc = json.loads(out)
    crash = f"{crash_label} [ZeroDivisionError: integer division or modulo by zero]"
    assert doc["failed"] == 2
    assert [r["check"] for r in doc["results"] if r["status"] == "FAIL"] == [fail_label, crash]
    assert f"FAIL  {fail_label}\n" in err
    assert f"FAIL  {crash}\n" in err
    assert err.count("PASS  ") == len(checks) - 2
    assert "error: 2 fixture check(s) failed" in err


def test_output_file_and_env_dir(tmp_path):
    env = dict(CHILD_ENV, LOGSKEL_OUTPUT_DIR=str(tmp_path))
    out = subprocess.run(
        [sys.executable, "-m", "logskel", "gauss", "--c", "1", "--a", "0",
         "--l", "1", "--m", "1", "-o", "report.json"],
        capture_output=True, text=True, cwd=ROOT, env=env)
    assert out.returncode == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["identity_holds"] is True


def test_in_process_runs_share_no_parser_state(tmp_path, monkeypatch, capsys):
    # main() reuses one parser per process: a repeated `--form` must not pile
    # up across calls, and another subcommand in between must leave no trace
    from logskel import cli

    seen, essential_skeleton = [], cli.essential_skeleton

    def spy(pair, forms):
        seen.append(len(forms))
        return essential_skeleton(pair, forms)

    monkeypatch.setattr(cli, "essential_skeleton", spy)
    argv = ["essential", "--pair", os.path.join(FIX, "a2_pair.json"),
            "--form", os.path.join(FIX, "a2_form_z1.json"),
            "--form", os.path.join(FIX, "a2_form_z1_plus_z2.json"), "-o"]
    assert cli.main(argv + [str(tmp_path / "first.json")]) == 0
    assert cli.main(["ks", "--pair", os.path.join(FIX, "a2_pair.json"),
                     "--form", os.path.join(FIX, "a2_form_z1.json"), "-o", str(tmp_path / "ks.json")]) == 0
    assert cli.main(argv + [str(tmp_path / "second.json")]) == 0
    assert seen == [2, 2]
    assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()
    assert capsys.readouterr() == ("", "")
    assert cli.build_parser() is cli.build_parser()


def _one_line_validation_error(out, message):
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"validation error: {message}\n"


@pytest.mark.parametrize("exps", [[1, -1], [-1, 1]])
def test_negative_exponent_at_an_infinite_weight_is_validation_error(tmp_path, exps):
    # z1 / z2 and z2 / z1 at weights (inf, inf): whichever entry comes first
    with open(os.path.join(FIX, "a2_form_z1.json")) as fh:
        form = json.load(fh)
    form["charts"][0]["numerator"]["num"][0]["exp"] = exps
    (tmp_path / "form.json").write_text(json.dumps(form))
    (tmp_path / "points.json").write_text(json.dumps(
        {"points": [{"kato_point": ["B1", "B2"], "weights": ["inf", "inf"]}]}))
    out = run_cli("weight", "--pair", os.path.join(FIX, "a2_pair.json"),
                  "--form", str(tmp_path / "form.json"), "--points", str(tmp_path / "points.json"))
    _one_line_validation_error(out, "negative exponent at an infinite weight")


def test_ks_nonzero_coefficient_valuation_is_validation_error(tmp_path):
    # 1/z1 at coefficient valuation 1: a trivially valued field has none
    with open(os.path.join(FIX, "a2_form_z1.json")) as fh:
        doc = json.load(fh)
    doc["dlog"] = []
    doc["charts"][0]["numerator"]["num"][0].update({"exp": [-1, 0], "coeff_val": "1"})
    form = tmp_path / "form.json"
    form.write_text(json.dumps(doc))
    out = run_cli("ks", "--pair", os.path.join(FIX, "a2_pair.json"), "--form", str(form))
    _one_line_validation_error(
        out, "trivial mode takes coefficient valuations 0: the field is trivially valued")


def test_weight_nonzero_coefficient_valuation_is_validation_error(tmp_path):
    # z1^-1 at coefficient valuation 1 with dlog [B1, B2]: refused by the
    # check that ks uses, before any point is evaluated
    with open(os.path.join(FIX, "a2_form_z1.json")) as fh:
        doc = json.load(fh)
    doc["charts"][0]["numerator"]["num"][0].update({"exp": [-1, 0], "coeff_val": "1"})
    form, points = tmp_path / "form.json", tmp_path / "points.json"
    form.write_text(json.dumps(doc))
    points.write_text(json.dumps({"points": [{"kato_point": ["B1"], "weights": ["2"]}]}))
    out = run_cli("weight", "--pair", os.path.join(FIX, "a2_pair.json"), "--form", str(form),
                  "--points", str(points))
    _one_line_validation_error(
        out, "trivial mode takes coefficient valuations 0: the field is trivially valued")


def test_stratum_family_not_closed_under_subsets_is_validation_error(tmp_path):
    with open(os.path.join(FIX, "a2_pair.json")) as fh:
        doc = json.load(fh)
    doc["strata"].remove(["B1"])
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(doc))
    out = run_cli("ks", "--pair", str(pair), "--form", os.path.join(FIX, "a2_form_z1.json"))
    _one_line_validation_error(
        out, "stratum family not closed under subsets: ['B1', 'B2'] is declared but ['B1'] is not")


def test_unknown_stratum_message_does_not_depend_on_hash_seed(tmp_path):
    # B2 is renamed in the chart, so both ['B2'] and ['B1', 'B2'] name an
    # unknown component; the smaller stratum is checked first
    with open(os.path.join(FIX, "a2_pair.json")) as fh:
        doc = json.load(fh)
    doc["charts"][0]["boundary"][1]["id"] = "B9"
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(doc))
    runs = [subprocess.Popen([sys.executable, "-m", "logskel", "skeleton", "--pair", str(pair)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
                             env={**CHILD_ENV, "PYTHONHASHSEED": str(seed)})
            for seed in range(8)]
    for p in runs:
        stdout, stderr = p.communicate(timeout=60)
        out = subprocess.CompletedProcess(p.args, p.returncode, stdout, stderr)
        _one_line_validation_error(out, "stratum ['B2'] uses unknown components")


def test_homology_refuses_simplex_past_desk_scale(tmp_path):
    # one 40-vertex facet has 2^40 - 1 faces; refused before any is listed
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"schema": "1", "vertices": list(range(40)),
                                "facets": [list(range(40))]}))
    out = run_cli("homology", "--complex", str(path), timeout=30)
    _one_line_validation_error(
        out, f"the facets have up to {2 ** 40 - 1} faces, over the desk-scale {2 ** 20}")


def test_skeleton_refuses_hilbert_basis_past_desk_scale(tmp_path):
    # the dual of the one cone has lattice index 10^7; refused before any
    # point is listed, in a child held to 1 GB of address space
    import resource

    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [1, 10_000_000]], "cones": [[0, 1]]}))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    out = subprocess.run([sys.executable, "-m", "logskel", "skeleton", "--fan", str(path)],
                         capture_output=True, text=True, cwd=ROOT, env=CHILD_ENV, timeout=10, preexec_fn=limit)
    _one_line_validation_error(
        out, f"the simplicial pieces have lattice index {10 ** 7}, over the desk-scale {2 ** 20}")


def test_commands_without_complexes_start_numpy_free(tmp_path):
    # numpy and logskel.complexes load on first use, so the exact commands
    # never pay their import; only a fresh interpreter can show it
    si, a2 = (os.path.join(FIX, f"{name}_pair.json") for name in ("strict_inclusion", "a2"))
    si_form = os.path.join(FIX, "strict_inclusion_form.json")
    argvs = [
        ["skeleton", "--pair", si], ["skeleton", "--fan", os.path.join(FIX, "p2_fan.json")],
        ["closure", "--pair", a2, "--points", os.path.join(FIX, "closure_points_a2.json")],
        ["weight", "--pair", si, "--form", si_form,
         "--points", os.path.join(FIX, "strict_inclusion_points.json")],
        ["ks", "--pair", si, "--form", si_form],
        ["essential", "--pair", os.path.join(FIX, "dwork_pair.json")],
        ["residue", "--pair", si, "--form", si_form, "--stratum", "D4", "--ks"],
        ["gauss", "--c", "5/3", "--a", "2", "--l", "3", "--m", "2"],
        ["tate", "--n", "3", "--alpha", "-1", "0", "-1"],
    ]
    code = ("import sys\n"
            "def loaded(when):\n"
            "    heavy = [m for m in ('numpy', 'logskel.complexes') if m in sys.modules]\n"
            "    assert not heavy, (when, heavy)\n"
            "import logskel\n"
            "loaded('import logskel')\n"
            "from logskel import cli\n"
            "loaded('import logskel.cli')\n"
            f"for i, argv in enumerate({argvs!r}):\n"
            "    assert cli.main(argv + ['-o', f'{i}.json']) == 0, argv\n"
            "    loaded(argv[0])\n")
    env = dict(CHILD_ENV, LOGSKEL_OUTPUT_DIR=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=ROOT, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert len(list(tmp_path.glob("*.json"))) == len(argvs)
