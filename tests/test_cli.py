import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qerasure import code_to_json, fixture_gbp_code, get_fixture
from qerasure.cli import CliError, main

from _oracle import (
    SINGLE,
    erasure_constraint_matrix,
    erasure_member_dense,
    kron_all,
    pure_constraint_matrix,
    pure_member_dense,
    svd_rank,
    violators_dense,
)
from conftest import random_unitary, src_env


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_analyze_gbp_json(capsys):
    status, out, err = run_cli(capsys, "analyze", "--fixture", "gbp")
    assert status == 0 and err == ""
    report = json.loads(out)
    assert report["code"] == "gbp"
    assert (report["n"], report["K"]) == (4, 4)
    assert report["erasure"]["distance"] == 2
    assert report["erasure"]["dim"] == 241
    assert report["pure"]["dim"] == 240
    assert not report["erasure"]["degenerate"]


def test_analyze_rains_union_max_weight(capsys):
    status, out, _ = run_cli(capsys, "analyze", "--fixture", "rains-union",
                             "--max-weight", "2")
    assert status == 0
    report = json.loads(out)
    assert report["K"] == 6
    assert report["erasure"]["distance"] == 2
    weights = {row["w"]: row for row in report["erasure"]["per_weight"]}
    assert weights[1]["non_members"] == 0
    assert weights[2]["non_members"] == 60
    assert "XZIII" in weights[2]["violators"]


def test_classify_documented_schema(capsys):
    status, out, _ = run_cli(capsys, "classify", "--fixture", "rains-subcode",
                             "--pure", "--max-weight", "3")
    assert status == 0
    report = json.loads(out)
    assert set(report) == {"code", "pure", "per_weight", "dim", "distance"}
    assert report["pure"] is True
    assert report["distance"] == 3
    rows = {row["w"]: row for row in report["per_weight"]}
    assert rows[3]["non_members"] == 10
    assert set(rows[3]) == {"w", "members", "non_members", "violators"}
    # round trip through the schema
    assert json.loads(json.dumps(report)) == report


def test_distance_mode(capsys):
    status, out, _ = run_cli(capsys, "distance", "--fixture", "rains-subcode")
    assert status == 0
    report = json.loads(out)
    assert report["distance"] == 6 and report["degenerate"]
    assert report["pure_distance"] == 3 and not report["pure_degenerate"]


def test_union_mode_with_transform(capsys):
    status, out, _ = run_cli(
        capsys, "union", "--fixture", "gbp",
        "--transform", '{"locals": ["I", "I", "I", "Y"]}')
    assert status == 0
    report = json.loads(out)
    assert report["K"] == 8
    assert report["distance"] == 1
    assert report["theorem4"]["matches_direct"] is True
    assert report["theorem5"]["matches_direct"] is True


def test_union_fixture_without_theorems(capsys):
    status, out, _ = run_cli(capsys, "union", "--fixture", "rains-union")
    assert status == 0
    report = json.loads(out)
    assert report["K"] == 6
    assert len(report["components"]) == 6
    assert report["theorem4"] is None and report["theorem5"] is None


def test_union_from_two_files(tmp_path, capsys):
    base = fixture_gbp_code()
    from qerasure import gbp_pair_transform, transform_code

    image = transform_code(base, gbp_pair_transform(), label="image")
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    f1.write_text(json.dumps(code_to_json(base)))
    f2.write_text(json.dumps(code_to_json(image)))
    status, out, _ = run_cli(capsys, "union", "--code", str(f1), "--code2", str(f2))
    assert status == 0
    report = json.loads(out)
    assert report["K"] == 8
    assert report["theorem4"] is None


def test_theorem_check_mode(capsys):
    status, out, _ = run_cli(
        capsys, "theorem-check", "--fixture", "gbp",
        "--transform", '{"locals": ["I", "I", "I", "Y"]}')
    assert status == 0
    report = json.loads(out)
    for key in ("theorem4", "theorem5"):
        assert report[key]["matches_direct"] is True
        assert report[key]["residual"] < 1e-8


def test_theorem_check_with_complex_mixed_blocks(capsys):
    # H and S locals make X = Z U-adjoint complex, so both the Re and the Im
    # parts fill the grid's CU and UC entries
    status, out, _ = run_cli(
        capsys, "theorem-check", "--fixture", "rains-subcode",
        "--transform", '{"locals": ["I", "I", "I", "H", "S"]}')
    assert status == 0
    report = json.loads(out)
    assert (report["theorem4"]["dim"], report["theorem5"]["dim"]) == (1021, 1020)
    for key in ("theorem4", "theorem5"):
        assert report[key]["dim"] == report[key]["direct_dim"]
        assert report[key]["matches_direct"] is True
        assert report[key]["residual"] < 1e-12


def test_theorem_check_transform_file(tmp_path, capsys):
    spec = tmp_path / "t.json"
    spec.write_text('{"locals": ["I", "I", "I", "Y"]}')
    status, out, _ = run_cli(capsys, "theorem-check", "--fixture", "gbp",
                             "--transform", str(spec))
    assert status == 0


def test_table_format(capsys):
    status, out, _ = run_cli(capsys, "analyze", "--fixture", "gbp-union",
                             "--format", "table")
    assert status == 0
    assert "gbp-union" in out
    assert "distance 1" in out
    # weight-one violators grouped on one cyclic orbit line
    assert any("YIII IYII IIYI IIIY" in line for line in out.splitlines())


GBP_PAIR = json.dumps({"locals": ["I", "I", "I", "Y"]})
RAINS_PAIR = json.dumps({"perm": [1, 2, 3, 4, 0], "locals": ["I", "I", "X", "X", "X"]})
FIXTURES = ("rains-subcode", "rains-union", "gbp", "gbp-union")
# Expected table text lives in tests/cli_tables/<name>.txt, with residuals masked.
TABLE_CASES = {
    **{f"analyze-{f}": ["analyze", "--fixture", f] for f in FIXTURES},
    **{f"distance-{f}": ["distance", "--fixture", f] for f in FIXTURES},
    "analyze-gbp-union-w2": ["analyze", "--fixture", "gbp-union", "--max-weight", "2"],
    "classify-gbp": ["classify", "--fixture", "gbp"],
    "classify-pure-rains-union": ["classify", "--fixture", "rains-union", "--pure"],
    "union-rains-union": ["union", "--fixture", "rains-union"],
    "union-gbp-union": ["union", "--fixture", "gbp-union"],
    "union-gbp-transform": ["union", "--fixture", "gbp", "--transform", GBP_PAIR],
    "theorem-check-gbp": ["theorem-check", "--fixture", "gbp", "--transform", GBP_PAIR],
    "theorem-check-rains-subcode": ["theorem-check", "--fixture", "rains-subcode",
                                    "--transform", RAINS_PAIR],
    # a dense (H) local, with ES(C)-perp and the union's projector column both non-empty
    "theorem-check-gbp-dense": ["theorem-check", "--fixture", "gbp", "--transform",
                                json.dumps({"locals": ["I", "X", "H", "X"]})],
    # K = 8 at n = 4: the union fills the whole space, so its pure complement
    # has no projector column, and its grid (16 x 16) is the widest here
    "theorem-check-gbp-union": ["theorem-check", "--fixture", "gbp-union", "--transform",
                                json.dumps({"locals": ["I", "I", "I", "X"]})],
}
# Each fixture written by code_to_json and read back through --code meets the
# fixture's own table.
CODE_FILE_TABLES = [f"{mode}-{f}" for mode in ("analyze", "distance") for f in FIXTURES]


@pytest.mark.parametrize("name", sorted(TABLE_CASES) + sorted(f"{t}-code-file" for t in CODE_FILE_TABLES))
def test_table_output_exact(capsys, tmp_path, name):
    table = name.removesuffix("-code-file")
    argv = TABLE_CASES[table]
    if table != name:
        path = tmp_path / "code.json"
        path.write_text(json.dumps(code_to_json(get_fixture(argv[2]))))
        argv = [argv[0], "--code", str(path)]
    status, out, _ = run_cli(capsys, *argv, "--format", "table")
    assert status == 0
    expected = (Path(__file__).parent / "cli_tables" / f"{table}.txt").read_text()
    assert re.sub(r"residual [^,]+,", "residual <masked>,", out) == expected


# Expected JSON bytes live in tests/cli_json/<name>.json, with the roundoff-level
# fields masked as the tables mask residuals.
JSON_CASES = {
    **{f"{mode}-{f}": [mode, "--fixture", f] for mode in ("analyze", "classify", "distance")
       for f in FIXTURES},
    **{f"union-{f}": ["union", "--fixture", f] for f in ("rains-union", "gbp-union")},
}


@pytest.mark.parametrize("name", sorted(JSON_CASES))
def test_json_output_exact(capsys, name):
    status, out, _ = run_cli(capsys, *JSON_CASES[name])
    assert status == 0
    expected = (Path(__file__).parent / "cli_json" / f"{name}.json").read_text()
    assert re.sub(r'"(residual|max_cross_inner)": [^,\n]+', r'"\1": "<masked>"', out) == expected


@pytest.mark.parametrize("mode", ["analyze", "classify", "distance"])
def test_code_file_builds_one_gram_tensor(tmp_path, capsys, gram_builds, mode):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_json(fixture_gbp_code())))
    status, _, _ = run_cli(capsys, mode, "--code", str(path))
    assert status == 0
    assert gram_builds == [(4, 4, 4)]


def test_analyze_scans_once_per_section(capsys, monkeypatch):
    from qerasure import erasure

    scans = []
    real = erasure._deviations
    monkeypatch.setattr(erasure, "_deviations",
                        lambda grams, alphas: scans.append(grams.shape) or real(grams, alphas))
    # analyze and distance read both sections off one pass over the gram tensor
    for mode in ("analyze", "classify", "distance"):
        scans.clear()
        status, _, _ = run_cli(capsys, mode, "--fixture", "gbp")
        assert status == 0
        assert len(scans) == 1, mode


def test_union_transform_builds_the_union_once(tmp_path, capsys, gram_builds, monkeypatch):
    from qerasure.states import UnitaryAction

    actions = []
    real = UnitaryAction.from_transform.__func__
    monkeypatch.setattr(UnitaryAction, "from_transform",
                        classmethod(lambda cls, t: actions.append(t) or real(cls, t)))
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_json(fixture_gbp_code())))
    status, _, _ = run_cli(capsys, "union", "--code", str(path), "--transform", GBP_PAIR)
    assert status == 0
    # the union's for its distance, then the cross-check's: the code's own,
    # and the direct side's two rectangular tensors, C against UC and UC
    # against the union's kets; the union's tensor is not read again
    assert gram_builds == [(4, 8, 8), (4, 4, 4), (4, 4, 4), (4, 4, 8)]
    # one matrix serves both the image and the cross-check
    assert len(actions) == 1


def test_basis_slack_keeps_every_verdict(tmp_path, capsys, rng):
    # a code on the qubit-0 = |0> half, so X on qubit 0 gives an orthogonal
    # image, whose basis overlaps are about 1e-10: inside ingest's 1e-9
    n, k = 4, 3
    frame = random_unitary(rng, 1 << (n - 1))[:, :k]
    frame[:, 1] += 1e-10 * frame[:, 0]
    kets = np.zeros((1 << n, k), dtype=complex)
    kets[: 1 << (n - 1)] = frame / np.linalg.norm(frame, axis=0)
    slack = np.max(np.abs(kets.conj().T @ kets - np.eye(k)))
    assert 5e-11 < slack < 1e-9
    spec = {"n": n, "label": "slack", "basis": [
        [{"re": a.real, "im": a.imag, "bits": format(b, f"0{n}b")} for b, a in enumerate(col)]
        for col in kets.T]}
    path = tmp_path / "slack.json"
    path.write_text(json.dumps(spec))

    status, out, _ = run_cli(capsys, "analyze", "--code", str(path))
    assert status == 0
    report = json.loads(out)
    for key, rows, member in (("erasure", erasure_constraint_matrix, erasure_member_dense),
                              ("pure", pure_constraint_matrix, pure_member_dense)):
        section = report[key]
        assert section["dim"] == 4**n - svd_rank(rows(kets, n))
        by_weight = {w: violators_dense(kets, n, w, member) for w in range(n + 1)}
        assert {row["w"]: row["violators"] for row in section["per_weight"]} == by_weight
        assert section["distance"] == min([w for w, v in by_weight.items() if v], default=n + 1)

    transform = '{"locals": ["X", "H", "S", "I"]}'
    status, out, _ = run_cli(capsys, "theorem-check", "--code", str(path),
                             "--transform", transform)
    assert status == 0
    report = json.loads(out)
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    u = kron_all([SINGLE["X"], hadamard, np.diag([1, 1j]), SINGLE["I"]])
    union = np.hstack([kets, u @ kets])
    for key, rows in (("theorem4", erasure_constraint_matrix),
                      ("theorem5", pure_constraint_matrix)):
        assert report[key]["matches_direct"] is True
        assert report[key]["dim"] == report[key]["direct_dim"] == 4**n - svd_rank(rows(union, n))
        assert report[key]["residual"] < 1e-12


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    status, out, _ = run_cli(capsys, "distance", "--fixture", "gbp",
                             "--out", str(target))
    assert status == 0 and out == ""
    assert json.loads(target.read_text())["distance"] == 2


@pytest.mark.parametrize("where", ["missing-dir/report.json", "."])
def test_out_path_that_cannot_be_written(tmp_path, capsys, where):
    target = tmp_path / where  # a directory that does not exist, or a directory itself
    status, out, err = run_cli(capsys, "distance", "--fixture", "gbp", "--out", str(target))
    assert status == 1 and out == ""
    assert err.startswith(f"qerasure: error[unwritable-file] cannot write {target}: ")
    assert err.count("\n") == 1


def test_unknown_fixture_error(capsys):
    for mode in ("analyze", "union"):  # union asks the registry which names are unions first
        status, out, err = run_cli(capsys, mode, "--fixture", "nope")
        assert status == 1 and out == ""
        assert err == ("qerasure: error[unknown-fixture] no fixture named 'nope'; known: "
                       "rains-subcode, rains-union, gbp, gbp-union\n")


def test_code_file_that_does_not_exist(tmp_path, capsys):
    path = tmp_path / "missing.json"
    status, out, err = run_cli(capsys, "analyze", "--code", str(path))
    assert (status, out) == (1, "")
    assert err == (f"qerasure: error[unreadable-file] cannot read {path}: "
                   f"[Errno 2] No such file or directory: '{path}'\n")


def test_unknown_local_gate_name(capsys):
    status, out, err = run_cli(capsys, "theorem-check", "--fixture", "gbp",
                               "--transform", '{"locals": ["Q", "I", "I", "I"]}')
    assert (status, out) == (1, "")
    assert err == "qerasure: error[invalid-transform] unknown local gate name 'Q'\n"


def test_bad_json_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    status, _, err = run_cli(capsys, "analyze", "--code", str(bad))
    assert status == 1
    assert err.startswith("qerasure: error[bad-json]")


# Nested beyond the JSON decoder's recursion limit on every supported Python
# (3.13 counts 10,000 C levels), as in CI, where it must fit one argument.
DEEP = "[" * 60_000 + "]" * 60_000


@pytest.mark.parametrize("name", ["deep-code", "utf16-code", "deep-transform-file",
                                  "deep-inline-transform"])
def test_json_too_deep_or_not_utf8_is_bad_json(tmp_path, capsys, name):
    path = tmp_path / "input.json"
    if name == "utf16-code":  # a UTF-16 file, byte order mark first
        text = json.dumps(code_to_json(fixture_gbp_code()))
        path.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
    else:
        path.write_text(DEEP)
    transform = ["theorem-check", "--fixture", "gbp", "--transform"]
    argv, source = {
        "deep-code": (["distance", "--code", str(path)], path),
        "utf16-code": (["distance", "--code", str(path)], path),
        "deep-transform-file": ([*transform, str(path)], path),
        "deep-inline-transform": ([*transform, '{"perm": ' + DEEP + "}"], "--transform"),
    }[name]
    status, out, err = run_cli(capsys, *argv)
    assert (status, out) == (1, "")
    assert err.startswith(f"qerasure: error[bad-json] {source}: ") and err.count("\n") == 1


def test_orthogonality_error(tmp_path, capsys):
    f1 = tmp_path / "a.json"
    f1.write_text(json.dumps(code_to_json(fixture_gbp_code())))
    status, _, err = run_cli(capsys, "union", "--code", str(f1), "--code2", str(f1))
    assert status == 1
    assert err.startswith("qerasure: error[orthogonality]")


def test_missing_mode_arguments(capsys):
    status, _, err = run_cli(capsys, "theorem-check", "--fixture", "gbp")
    assert status == 1
    assert "error[bad-arguments]" in err
    status, _, err = run_cli(capsys, "analyze")
    assert status == 1
    status, _, err = run_cli(capsys, "union", "--fixture", "gbp")
    assert status == 1


# a valid call of each mode, and the options it reads beyond --fixture,
# --code, --format and --out
MODE_CALLS = {"analyze": ([], {"--max-weight"}),
              "classify": ([], {"--max-weight", "--pure"}),
              "distance": ([], set()),
              "union": (["--transform", GBP_PAIR], {"--code2", "--transform"}),
              "theorem-check": (["--transform", GBP_PAIR], {"--transform"})}
OPTION_VALUES = {"--max-weight": ["9"], "--pure": [], "--code2": ["x.json"],
                 "--transform": [GBP_PAIR]}
REFUSED = {
    **{f"{mode}{option}": [mode, "--fixture", "gbp", *call, option, *OPTION_VALUES[option]]
       for mode, (call, own) in MODE_CALLS.items()
       for option in OPTION_VALUES if option not in own},
    "analyze-three-strays": ["analyze", "--fixture", "gbp", "--transform", GBP_PAIR,
                             "--code2", "x.json", "--pure"],
    "union-rains-union-code": ["union", "--fixture", "rains-union", "--code", "/nonexistent.json"],
    "union-gbp-union-code": ["union", "--fixture", "gbp-union", "--code", "x.json"],
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_each_mode_refuses_the_options_it_does_not_read(capsys, name):
    status, out, err = run_cli(capsys, *REFUSED[name])
    assert (status, out) == (1, "")
    assert err.startswith("qerasure: error[bad-arguments] ") and err.count("\n") == 1


def _parse_outcome(parse, argv, capsys):
    """What one parse of argv gives: its namespace, its refusal or its exit and output."""
    try:
        return "args", parse(list(argv))
    except CliError as exc:
        return "refused", exc.code, str(exc)
    except SystemExit as stop:
        return "exit", stop.code, capsys.readouterr().out


def _route_shapes() -> dict[str, list[str]]:
    """argv shapes for each mode, and those that name no mode."""
    shapes = {"unknown-mode": ["analyse", "--fixture", "gbp"], "no-mode": [],
              "option-first": ["--fixture", "gbp", "analyze"], "help": ["--help"]}
    for mode, (call, own) in MODE_CALLS.items():
        stray = next(option for option in OPTION_VALUES if option not in own)
        shapes |= {
            f"{mode}-valid": [mode, "--fixture", "gbp", *call, "--format", "table"],
            f"{mode}-stray": [mode, "--fixture", "gbp", *call, stray, *OPTION_VALUES[stray]],
            f"{mode}-missing-value": [mode, *call, "--fixture"],
            f"{mode}-format-xml": [mode, "--fixture", "gbp", "--format", "xml"],
            f"{mode}-help": [mode, "--fixture", "gbp", "--help"],
        }
    return shapes


ROUTE_SHAPES = _route_shapes()


@pytest.mark.parametrize("name", sorted(ROUTE_SHAPES))
def test_one_parse_matches_the_top_level_parse(capsys, name):
    import qerasure.cli as cli_module

    argv = ROUTE_SHAPES[name]
    direct = _parse_outcome(cli_module._parse_args, argv, capsys)
    assert direct == _parse_outcome(cli_module.build_parser().parse_args, argv, capsys)
    if direct[0] == "args":
        assert direct[1].mode == argv[0]
    elif direct[0] == "refused":
        status, out, err = run_cli(capsys, *argv)
        assert (status, out, err) == (1, "", f"qerasure: error[bad-arguments] {direct[2]}\n")
    else:
        assert direct[1] == 0 and direct[2].startswith("usage: qerasure")


def test_invalid_code_error(tmp_path, capsys):
    f = tmp_path / "dup.json"
    f.write_text(json.dumps({"n": 2, "basis": [[(1, "00")], [(1, "00")]]}))
    status, _, err = run_cli(capsys, "analyze", "--code", str(f))
    assert status == 1
    assert err.startswith("qerasure: error[invalid-code]")


@pytest.mark.parametrize("spec", [
    {"n": 4.7, "basis": [[{"re": 1.0, "bits": "0000"}]]},
    {"n": True, "basis": [[{"re": 1.0, "bits": "0"}]]},
    {"n": 2, "basis": [[{"re": "abc", "im": 0.0, "bits": "00"}]]},
    {"n": 2, "basis": [[{"re": 1.0, "im": False, "bits": "00"}]]},
    {"n": 2, "basis": [[["1", "00"]]]},
    {"n": 2, "basis": [[{"re": 1.0, "bits": 5}]]},
], ids=["float-n", "bool-n", "str-re", "bool-im", "str-amplitude", "int-bits"])
def test_ingest_rejects_wrong_types(tmp_path, capsys, spec):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(spec))
    status, out, err = run_cli(capsys, "analyze", "--code", str(f))
    assert status == 1 and out == ""
    assert err.startswith("qerasure: error[invalid-code]")
    assert err.count("\n") == 1


@pytest.mark.parametrize("spec", [
    {"n": 2, "basis": [[{"re": float("nan"), "bits": "00"}, {"re": 1.0, "bits": "11"}]]},
    {"n": 2, "basis": [[{"re": 1.0, "im": float("inf"), "bits": "01"}]]},
    {"n": 2, "basis": [[[1.0, "00"]], [[float("-inf"), "11"]]]},
    {"n": 2, "basis": [[[10**400, "00"]]]},
    {"n": 2, "basis": [[[1e308, "00"], [1e308, "11"]]]},
    {"n": 2, "basis": [[[1e308, "00"], [1e308, "00"]]]},
    {"n": 2, "basis": [[[1e160, "10"]]]},
], ids=["nan", "inf-im", "minus-inf", "int-beyond-float", "norm-overflow", "sum-overflow",
        "square-overflow"])
def test_ingest_rejects_non_finite_amplitudes(tmp_path, capsys, spec):
    # json writes NaN and Infinity, and Python's json reads them back
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(spec))
    status, out, err = run_cli(capsys, "distance", "--code", str(f))
    assert status == 1 and out == ""
    assert err.startswith("qerasure: error[invalid-code]")
    assert err.count("\n") == 1


@pytest.mark.parametrize("spec, reason", [
    ({"n": 1, "basis": [[[1e-170, "0"]]]}, "has a norm below the float range"),
    ({"n": 1, "basis": [[[1e-162, "0"], [1e-162, "1"]]]}, "has a norm below the float range"),
    ({"n": 1, "basis": [[[1e-170, "0"], [-1e-170, "0"]]]}, "is the zero vector"),
], ids=["square-underflow", "sum-underflow", "cancelled"])
def test_ingest_tells_an_underflowing_norm_from_a_zero_vector(tmp_path, capsys, spec, reason):
    f = tmp_path / "tiny.json"
    f.write_text(json.dumps(spec))
    status, out, err = run_cli(capsys, "distance", "--code", str(f))
    assert status == 1 and out == ""
    assert err.startswith("qerasure: error[invalid-code]") and reason in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("spec", [
    {"n": 40, "basis": [[[1.0, "0" * 40]]]},
    {"n": 8, "basis": [[[1.0, format(b, "08b")]] for b in range(256)]},
], ids=["n40-k1", "n8-k256"])
def test_ingest_refuses_oversized_codes(tmp_path, capsys, monkeypatch, spec):
    import qerasure.codes as codes_module

    def no_amplitudes(*args):
        raise AssertionError("an amplitude array was built")

    monkeypatch.setattr(codes_module, "_read_terms", no_amplitudes)
    f = tmp_path / "big.json"
    f.write_text(json.dumps(spec))
    status, out, err = run_cli(capsys, "analyze", "--code", str(f))
    assert status == 1 and out == ""
    assert err.startswith("qerasure: error[too-large]")
    assert err.count("\n") == 1


def test_ingest_takes_codes_of_exactly_max_qubits(tmp_path, capsys):
    # n = MAX_QUBITS with K = 1 is the largest code ingest accepts; one qubit
    # more is refused before any amplitude is read
    from qerasure.pauli import MAX_QUBITS

    paths = []
    for n in (MAX_QUBITS, MAX_QUBITS + 1):
        paths.append(tmp_path / f"n{n}.json")
        paths[-1].write_text(json.dumps({"n": n, "basis": [[[1.0, "0" * n]]]}))
    status, out, err = run_cli(capsys, "distance", "--code", str(paths[0]))
    assert status == 0 and err == ""
    assert json.loads(out)["n"] == MAX_QUBITS
    status, out, err = run_cli(capsys, "distance", "--code", str(paths[1]))
    assert status == 1 and out == ""
    assert err == f"qerasure: error[too-large] {paths[1]}: n={MAX_QUBITS + 1} exceeds the limit of {MAX_QUBITS} qubits\n"


def test_union_refuses_oversized_union(tmp_path, capsys, gram_builds):
    # each n=6, K=32 file sits exactly at the ingest limit; their K=64 union
    # would need a 256 MiB gram tensor
    paths = []
    for half in range(2):
        spec = {"n": 6, "label": f"half{half}",
                "basis": [[[1.0, format(32 * half + b, "06b")]] for b in range(32)]}
        paths.append(tmp_path / f"half{half}.json")
        paths[-1].write_text(json.dumps(spec))
    status, out, err = run_cli(capsys, "union", "--code", str(paths[0]),
                               "--code2", str(paths[1]))
    assert status == 1 and out == ""
    assert err.startswith("qerasure: error[too-large] n=6, K=64 needs a 256 MiB gram tensor")
    assert err.count("\n") == 1
    assert gram_builds == []


def test_mismatch_exit_code(monkeypatch, capsys, tmp_path):
    import qerasure.cli as cli_module

    def fake_check(code, t):
        return {
            "theorem4": {"dim": 1, "direct_dim": 2, "residual": 1.0,
                         "matches_direct": False},
            "theorem5": {"dim": 1, "direct_dim": 1, "residual": 0.0,
                         "matches_direct": True},
        }

    monkeypatch.setattr(cli_module, "cross_check_intersection_formulas", fake_check)
    status, out, err = run_cli(
        capsys, "theorem-check", "--fixture", "gbp",
        "--transform", '{"locals": ["I", "I", "I", "Y"]}')
    assert status == 2
    assert "error[formula-mismatch]" in err
    assert json.loads(out)["theorem4"]["matches_direct"] is False
    # the report is written first; the mismatch still sets the exit status
    target = tmp_path / "report.json"
    status, out, err = run_cli(
        capsys, "theorem-check", "--fixture", "gbp",
        "--transform", '{"locals": ["I", "I", "I", "Y"]}', "--out", str(target))
    assert status == 2 and out == ""
    assert err.startswith("qerasure: error[formula-mismatch]")
    assert json.loads(target.read_text())["theorem4"]["matches_direct"] is False


@pytest.mark.parametrize("transform", [
    '{"perm": 3}', '{"locals": 5}', '{"perm": [0, 1, 2, 3.0]}', '{"perm": [false, true, 2, 3]}',
    '{"locals": "IIIY"}', '{"locals": {"I": 0, "X": 1, "Y": 2, "Z": 3}}',
], ids=["int-perm", "int-locals", "float-perm-entry", "bool-perm-entries", "string-locals",
        "object-locals"])
def test_transform_of_the_wrong_type(capsys, transform):
    status, out, err = run_cli(capsys, "theorem-check", "--fixture", "gbp",
                               "--transform", transform)
    assert status == 1 and out == ""
    assert err.startswith("qerasure: error[invalid-transform]")
    assert err.count("\n") == 1


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "1e300"])
def test_transform_local_with_non_finite_entries(capsys, bad):
    # NaN compares false with everything, so it must fail the unitarity check,
    # not reach the SVDs of the theorem check
    transform = f'{{"locals": ["I", "I", "I", [[{bad}, 0], [0, 0], [0, 0], [1, 0]]]}}'
    status, out, err = run_cli(capsys, "theorem-check", "--fixture", "gbp",
                               "--transform", transform)
    assert (status, out) == (1, "")
    assert err == "qerasure: error[invalid-transform] local at qubit 3 is not unitary\n"


NOT_AN_OBJECT = {"empty-array": "[]", "array": '["perm"]', "number": "5", "null": "null",
                 "string": '"abc"'}


@pytest.mark.parametrize("mode", ["theorem-check", "union"])
@pytest.mark.parametrize("name", sorted(NOT_AN_OBJECT))
def test_transform_file_that_is_not_an_object(tmp_path, capsys, mode, name):
    path = tmp_path / "t.json"
    path.write_text(NOT_AN_OBJECT[name])
    status, out, err = run_cli(capsys, mode, "--fixture", "gbp", "--transform", str(path))
    assert (status, out) == (1, "")
    assert err.startswith("qerasure: error[invalid-transform] a transform must be a JSON object")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", sorted(NOT_AN_OBJECT))
def test_code_file_that_is_not_an_object(tmp_path, capsys, name):
    path = tmp_path / "code.json"
    path.write_text(NOT_AN_OBJECT[name])
    status, out, err = run_cli(capsys, "analyze", "--code", str(path))
    assert (status, out) == (1, "")
    assert err.startswith(f"qerasure: error[invalid-code] {path}: code description must be "
                          "a JSON object")
    assert err.count("\n") == 1


@pytest.mark.parametrize("spec, reason", [
    ({"n": 2, "basis": [[{"re": 1, "bits": "00"}]], "bogus": 1}, "keys ['basis', 'bogus', 'n']"),
    ({"n": 2, "basis": [[{"re": 1, "bits": "00", "extra": 1}]]}, "unknown term keys ['extra']"),
    ({"n": 2, "label": 7, "basis": [[{"re": 1, "bits": "00"}]]}, "label must be a string, got 7"),
    ({"basis": [[{"re": 1, "bits": "00"}]]}, "must be a JSON object with keys n, basis"),
], ids=["top-level-key", "term-key", "int-label", "no-n"])
def test_ingest_refuses_what_it_would_ignore_or_coerce(tmp_path, capsys, spec, reason):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(spec))
    status, out, err = run_cli(capsys, "distance", "--code", str(path))
    assert (status, out) == (1, "")
    assert err.startswith("qerasure: error[invalid-code]") and reason in err
    assert err.count("\n") == 1


TERM_SHAPE = "a term must be [amplitude, bits] or an object of re, im and bits; got "


@pytest.mark.parametrize("basis, reason", [
    ([{"re": 1, "bits": "00"}], "basis vector 0: expected a JSON array of terms, got dict"),
    (["00"], "basis vector 0: expected a JSON array of terms, got str"),
    ([[1]], TERM_SHAPE + "1"),
    ([[[1]]], TERM_SHAPE + "[1]"),
    ([["00"]], TERM_SHAPE + "'00'"),
    ([[[1, "00", 3]]], TERM_SHAPE + "[1, '00', 3]"),
], ids=["entry-object", "entry-string", "term-number", "term-one-element", "term-string",
        "term-three-elements"])
def test_ingest_names_the_shape_it_expects(tmp_path, capsys, basis, reason):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"n": 2, "basis": basis}))
    status, out, err = run_cli(capsys, "distance", "--code", str(path))
    assert (status, out) == (1, "")
    assert err.startswith("qerasure: error[invalid-code]") and reason in err
    assert err.count("\n") == 1


def test_internal_error_is_one_line(monkeypatch, capsys):
    import qerasure.cli as cli_module

    def broken(args):
        raise RuntimeError("scan went wrong")

    monkeypatch.setitem(cli_module._MODES, "analyze", (broken, cli_module._table_analyze))
    status, out, err = run_cli(capsys, "analyze", "--fixture", "gbp")
    assert status == 2 and out == ""
    assert err == "qerasure: error[internal] RuntimeError: scan went wrong\n"
    # --help still exits through argparse, with status 0
    for argv in (["--help"], ["analyze", "--help"]):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qerasure")


def test_repeated_calls_in_one_process(tmp_path, capsys, monkeypatch):
    import qerasure.cli as cli_module

    target = tmp_path / "report.out"
    calls = [
        ["analyze", "--fixture", "gbp"],
        ["analyze", "--fixture", "rains-subcode", "--max-weight", "2", "--format", "table"],
        ["classify", "--fixture", "gbp", "--pure"],
        ["classify", "--fixture", "rains-subcode", "--format", "table"],
        ["classify", "--fixture", "gbp", "--pure", "--max-weight", "2", "--format", "table"],
        ["distance", "--fixture", "gbp", "--format", "table"],
        ["analyze", "--fixture", "gbp", "--max-weight", "two"],
        ["distance", "--fixture", "rains-subcode", "--out", str(target)],
        ["analyze", "--fixture", "gbp-union", "--max-weight", "2", "--format", "table",
         "--out", str(target)],
        ["classify", "--fixture", "rains-subcode"],
    ]

    def outputs(order):
        results = {}
        for index in order:
            status, out, err = run_cli(capsys, *calls[index])
            written = target.read_text() if target.exists() else None
            target.unlink(missing_ok=True)
            results[index] = (status, out, err, written)
        return results

    # every parse, by whichever parser: the top-level one would hand its
    # mode parser the rest of argv, a second parse of the same arguments
    parser = cli_module.build_parser()
    parsers = {None: parser, **parser.modes}
    parsed = []
    for name, p in parsers.items():
        monkeypatch.setattr(p, "parse_known_args",
                            lambda args=None, namespace=None, name=name, real=p.parse_known_args:
                            parsed.append((name, args)) or real(args, namespace))
    forward = outputs(range(len(calls)))
    backward = outputs(reversed(range(len(calls))))
    # each call parsed once, by its mode's parser, and the parsers were built once
    order = [*range(len(calls)), *reversed(range(len(calls)))]
    assert parsed == [(calls[i][0], calls[i][1:]) for i in order]
    assert cli_module.build_parser() is parser

    monkeypatch.setattr(cli_module, "build_parser", cli_module.build_parser.__wrapped__)
    fresh = outputs(range(len(calls)))
    assert forward == backward == fresh
    assert [fresh[i][0] for i in range(len(calls))] == [0] * 6 + [1] + [0] * 3
    assert fresh[6][2].startswith("qerasure: error[bad-arguments]")
    assert fresh[7][1] == "" and json.loads(fresh[7][3])["distance"] == 6


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qerasure", "distance", "--fixture", "gbp"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["distance"] == 2


def test_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qerasure; print([m for m in sys.modules if m.startswith('scipy')])"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"
