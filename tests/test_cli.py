import json
import math
import os
import subprocess
import sys

import pytest

jsonschema = pytest.importorskip("jsonschema")

from tripotential import (
    Point2,
    centroid,
    illuminating_spread,
    potential_closed,
    triangle_from_sides,
)
from tripotential import cli
from tripotential.cli import build_parser, main

from conftest import GOLDEN_LAMBDA, SEARCH_VALUE_6_9_13

SCHEMA_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "schema",
    "cli_output.schema.json",
)
with open(SCHEMA_PATH, encoding="utf-8") as fh:
    SCHEMA = json.load(fh)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validate(payload):
    jsonschema.validate(payload, SCHEMA)


def test_center_command_reference_values(capsys):
    code, out = run_cli(
        capsys, "center", "--vertices", "-1,0", "2,0", "0,2"
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["lambda"] == pytest.approx(GOLDEN_LAMBDA, rel=1e-12)
    assert payload["center"][0] == pytest.approx(0.272557906914867702, abs=1e-10)
    assert payload["center"][1] == pytest.approx(0.704148189723077020, abs=1e-10)
    assert payload["field_norm"] < 1e-10


def test_center_command_solves_lambda_once(capsys, monkeypatch):
    import tripotential.center as center
    import tripotential.cli as cli

    calls = []
    solve = center.solve_lambda

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(center, "solve_lambda", counted)
    monkeypatch.setattr(cli, "solve_lambda", counted)
    code, out = run_cli(capsys, "center", "--vertices", "-1,0", "2,0", "0,2")
    assert code == 0
    assert len(calls) == 1
    payload = json.loads(out)
    assert payload["trilinears"] == pytest.approx(
        [1.447156116428321, 1.6466115007515068, 1.4082963794461532], rel=1e-12
    )


def test_center_command_sides_equilateral(capsys):
    code, out = run_cli(capsys, "center", "--sides", "1,1,1")
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    tri = triangle_from_sides(1, 1, 1)
    g = centroid(tri)
    assert payload["center"][0] == pytest.approx(g.x, abs=1e-12)
    assert payload["center"][1] == pytest.approx(g.y, abs=1e-12)


def test_center_command_degenerate_exits_2(capsys):
    code, out = run_cli(capsys, "center", "--sides", "1,1,2")
    assert code == 2
    payload = json.loads(out)
    validate(payload)
    assert payload["error"]["type"] == "DegenerateTriangle"
    assert "triangle inequality" in payload["error"]["message"]


def test_center_command_rejects_bad_tolerance(capsys):
    code, out = run_cli(capsys, "center", "--sides", "3,4,5", "--tol", "1e-16")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["type"] == "ValueError"


def test_search_value_reference(capsys):
    code, out = run_cli(capsys, "search-value", "--sides", "6,9,13")
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["d_a"] == pytest.approx(SEARCH_VALUE_6_9_13, rel=1e-10)
    assert payload["formatted"].startswith("2.1107317966902")


def test_search_value_symmetric_in_b_c(capsys):
    _, out1 = run_cli(capsys, "search-value", "--sides", "6,9,13")
    _, out2 = run_cli(capsys, "search-value", "--sides", "6,13,9")
    assert json.loads(out1)["d_a"] == pytest.approx(
        json.loads(out2)["d_a"], rel=1e-13
    )


def test_search_value_equilateral(capsys):
    _, out = run_cli(capsys, "search-value", "--sides", "1,1,1")
    assert json.loads(out)["d_a"] == pytest.approx(
        1 / (2 * math.sqrt(3)), rel=1e-12
    )


def test_search_value_digit_limit(capsys):
    code, out = run_cli(
        capsys, "search-value", "--sides", "6,9,13", "--digits", "30"
    )
    assert code == 2
    assert "15" in json.loads(out)["error"]["message"]


def test_rp_center_illuminating(capsys):
    code, out = run_cli(capsys, "rp-center", "--p", "-2", "--sides", "4,5,6")
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    tri = triangle_from_sides(4, 5, 6)
    point = Point2(*payload["point"])
    assert illuminating_spread(tri, point) < 1e-8


def test_rp_center_far_from_the_origin(capsys):
    # 4,5,6 moved by 1e7: the solve runs in the triangle's own frame
    tri = triangle_from_sides(4, 5, 6)
    vertices = [f"{v.x + 1e7!r},{v.y + 1e7!r}" for v in tri.vertices]
    code, out = run_cli(capsys, "rp-center", "--vertices", *vertices, "--p", "-4")
    assert code == 0, out
    payload = json.loads(out)
    validate(payload)
    assert payload["iterations"] == 5


def test_arc_contains_centroid_row(capsys):
    code, out = run_cli(
        capsys,
        "arc", "--sides", "4,5,6",
        "--p-min", "-10", "--p-max", "10", "--steps", "81",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,x,y,residual,iterations,converged,thomson"
    assert len(lines) == 82  # header + 81 rows (grid hits -1 and 2 exactly)
    tri = triangle_from_sides(4, 5, 6)
    g = centroid(tri)
    at2 = [ln for ln in lines[1:] if ln.startswith("2.0,")]
    assert len(at2) == 1
    _, x, y, *_ = at2[0].split(",")
    assert math.hypot(float(x) - g.x, float(y) - g.y) < 1e-9


def test_arc_json_validates(capsys):
    code, out = run_cli(
        capsys,
        "arc", "--sides", "4,5,6",
        "--p-min", "-2", "--p-max", "3", "--steps", "6",
    )
    assert code == 0
    validate(json.loads(out))


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        argv = ("arc", "--sides", "4,5,6", "--p-min", "-2", "--p-max", "3",
                "--steps", "6")
        first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert first == second and first[0] == 0


@pytest.mark.parametrize("k", (-150, -110, -70, 70, 110, 150))
def test_riesz_commands_at_extreme_scales(capsys, k):
    s = 10.0**k
    vertices = ("0,0", f"{s!r},0", f"{0.375 * s!r},{0.8125 * s!r}")
    for argv in (
        ("arc", "--vertices", *vertices, "--p-min", "-2", "--p-max", "3",
         "--steps", "6"),
        ("arc", "--sides", f"{4 * s!r},{5 * s!r},{6 * s!r}", "--p-min", "-10",
         "--p-max", "10", "--steps", "5"),
        ("rp-center", "--vertices", *vertices, "--p", "-3"),
        ("rp-center", "--sides", f"{4 * s!r},{5 * s!r},{6 * s!r}", "--p", "7"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0, out
        assert "nan" not in out.lower(), argv
        payload = json.loads(out)
        validate(payload)
        if argv[0] == "arc":
            assert all(row["converged"] for row in payload["rows"])
            assert all(math.isfinite(row["thomson"]) for row in payload["rows"])


def test_center_and_search_value_at_extreme_scales(capsys):
    # the lambda estimate's shape parameter and the search value work on
    # lengths scaled by a power of two, so sides of 1e+-150 succeed
    for s in ("1e-150", "1e150"):
        code, out = run_cli(capsys, "center", "--sides", f"{s},{s},{s}")
        assert code == 0, out
        validate(json.loads(out))
    for k in (-150, -100, 100, 150):
        code, out = run_cli(capsys, "center", "--sides", f"4e{k},5e{k},6e{k}")
        assert code == 0, out
        validate(json.loads(out))
        code, out = run_cli(capsys, "search-value", "--sides", f"6e{k},9e{k},13e{k}")
        assert code == 0, out
        payload = json.loads(out)
        validate(payload)
        assert payload["d_a"] / 10.0**k == pytest.approx(2.110731796690289, rel=1e-12)


def test_lambda_curve_root_row_matches_center(capsys):
    code, out = run_cli(
        capsys,
        "lambda-curve", "--sides", "4,5,6",
        "--lambda-min", "1", "--lambda-max", "10", "--steps", "5",
        "--include-lambda-max",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    _, center_out = run_cli(capsys, "center", "--sides", "4,5,6")
    center_payload = json.loads(center_out)
    lam_root = center_payload["lambda"]
    row = min(payload["rows"], key=lambda r: abs(r["lambda"] - lam_root))
    assert row["lambda"] == pytest.approx(lam_root, rel=1e-14)
    assert row["x"] == pytest.approx(center_payload["center"][0], abs=1e-12)
    assert row["y"] == pytest.approx(center_payload["center"][1], abs=1e-12)


def test_grid_header_and_spot_values(capsys):
    code, out = run_cli(
        capsys, "grid", "--sides", "1,1,1", "--n", "16", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,V,Ex,Ey,inside"
    assert len(lines) == 1 + 16 * 16
    tri = triangle_from_sides(1, 1, 1)
    interior_rows = exterior_rows = 0
    for line in lines[1:]:
        x, y, v, ex, ey, inside = line.split(",")
        if inside == "1":
            interior_rows += 1
            assert ex != "" and ey != ""
            expected = potential_closed(tri, Point2(float(x), float(y)))
            assert float(v) == pytest.approx(expected, rel=1e-9)
        else:
            exterior_rows += 1
            assert ex == "" and ey == ""
    assert interior_rows > 20
    assert exterior_rows > 100


def test_grid_max_cell_is_near_centroid(capsys):
    code, out = run_cli(
        capsys, "grid", "--sides", "1,1,1", "--n", "64", "--format", "csv"
    )
    lines = out.strip().splitlines()[1:]
    best = max(
        (ln.split(",") for ln in lines), key=lambda row: float(row[2])
    )
    tri = triangle_from_sides(1, 1, 1)
    g = centroid(tri)
    # the hottest grid cell must be adjacent to the true maximum
    cell = 1.4 / 63  # padded bbox ~1.4 wide, 64 samples
    assert math.hypot(float(best[0]) - g.x, float(best[1]) - g.y) < 1.6 * cell


def test_grid_resolution_validation(tmp_path, capsys):
    code, out = run_cli(capsys, "grid", "--sides", "1,1,1", "--n", "4")
    assert code == 2
    # Inputs are checked before the first row streams: a CSV request
    # prints the JSON error object alone and leaves no output file.
    for argv in (("--sides", "1,1,3", "--n", "16"), ("--sides", "1,1,1", "--n", "4")):
        code, out = run_cli(capsys, "grid", *argv, "--format", "csv")
        assert code == 2
        validate(json.loads(out))
        target = tmp_path / "grid.csv"
        code, out = run_cli(
            capsys, "grid", *argv, "--format", "csv", "--out", str(target)
        )
        assert code == 2 and "error" in json.loads(out)
        assert not target.exists()


def _assert_csv_pins_json_rows(out_csv, payload):
    # each CSV line is its JSON row's text: shortest round-trip repr per
    # number, empty cells for absent field values, the inside digit
    lines = out_csv.splitlines()
    assert lines[0].split(",") == payload["header"]
    assert len(lines) == 1 + len(payload["rows"])
    for line, row in zip(lines[1:], payload["rows"]):
        cells = ("" if v is None else repr(v) for v in row[:5])
        assert line == ",".join(cells) + "," + str(row[5])


def test_grid_json_csv_and_out_file_agree(tmp_path, capsys):
    argv = ("grid", "--vertices", "-1,0", "2,0", "0,2", "--n", "80")
    code, out_json = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out_json)
    validate(payload)
    code, out_csv = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    _assert_csv_pins_json_rows(out_csv, payload)
    rows = payload["rows"]
    assert len(rows) == 80 * 80  # more than one block of grid rows
    assert any(r[3] is None for r in rows) and any(r[3] is not None for r in rows)
    for fmt, printed in (("json", out_json), ("csv", out_csv)):
        target = tmp_path / f"grid.{fmt}"
        code, out = run_cli(capsys, *argv, "--format", fmt, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_bytes() == printed.encode("utf-8")


def test_grid_csv_pins_every_row_kind(capsys):
    # The grid depends only on the bounding box [0, 1]^2, so C = (cx, 1)
    # can put side BC 1e-10 to the right of the node at (0.64, 0.5467):
    # an interior row inside the field's band (inside 1, no field), beside
    # rows with a field and exterior rows.
    def grid(cx, fmt):
        code, out = run_cli(
            capsys, "grid", "--vertices", "0,0", "1,0", f"{cx!r},1", "--n", "16",
            "--format", fmt,
        )
        assert code == 0
        return out

    x, y = json.loads(grid(0.5, "json"))["rows"][8 * 16 + 9][:2]
    cx = 1.0 + (x + 1e-10 - 1.0) / y
    payload = json.loads(grid(cx, "json"))
    validate(payload)
    _assert_csv_pins_json_rows(grid(cx, "csv"), payload)
    rows = payload["rows"]
    assert rows[8 * 16 + 9][:2] == [x, y]
    assert rows[8 * 16 + 9][3:] == [None, None, 1]
    assert any(r[3] is not None and r[5] == 1 for r in rows)
    assert any(r[3] is None and r[5] == 0 for r in rows)


def test_grid_row_on_side_next_to_vertex_has_finite_potential(capsys):
    # Canonical pose puts grid row j=9 on side BC; at its point 1.08e-8
    # from B the edge BC through the point adds nothing to the closed-form
    # V, and the edge AB next to it must not turn into nan either.
    sides = (0.004278252983131883, 0.037139396333608216, 0.03666741467607147)
    code, out = run_cli(
        capsys, "grid", "--sides", ",".join(map(repr, sides)), "--n", "64",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 64 * 64
    assert not [line for line in lines if "nan" in line]
    row = [line for line in lines if line.startswith("1.0844872145275575e-08,0.0,")]
    assert len(row) == 1
    _, _, v, ex, ey, inside = row[0].split(",")
    assert (ex, ey, inside) == ("", "", "0")

    # Oracle: V = sum over edges of d_e * log((r1 + r2 + L) / (r1 + r2 - L)),
    # d_e the distance to the edge's line (the on-edge term tends to 0).
    a, b, c = sides
    xa = (a * a + c * c - b * b) / (2 * a)
    verts = [(xa, math.sqrt(c * c - xa * xa)), (0.0, 0.0), (a, 0.0)]
    px, py = 1.0844872145275575e-08, 0.0
    expected = 0.0
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        length = math.hypot(x2 - x1, y2 - y1)
        d = abs((x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)) / length
        if d == 0.0:
            continue
        r12 = math.hypot(x1 - px, y1 - py) + math.hypot(x2 - px, y2 - py)
        expected += d * math.log((r12 + length) / (r12 - length))
    assert abs(float(v) - expected) <= 1e-9 * expected


def test_grid_band_rows_need_no_quadrature(monkeypatch, capsys):
    # Row j=9 of n=64 lies on side BC; its band rows must come from the
    # closed form, with no adaptive quadrature behind them.
    import tripotential
    import tripotential.cli
    import tripotential.potential
    import tripotential.quadrature

    def boom(*args, **kwargs):
        raise AssertionError("grid must not call the quadrature")

    for module in (
        tripotential, tripotential.cli, tripotential.potential,
        tripotential.quadrature,
    ):
        for name in ("potential_quadrature", "integrate_adaptive"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, boom)
    sides = "0.004278252983131883,0.037139396333608216,0.03666741467607147"
    code, out = run_cli(
        capsys, "grid", "--sides", sides, "--n", "64", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 64 * 64
    assert not [line for line in lines if "nan" in line]
    a = float(sides.split(",")[0])
    band = [
        line for line in lines
        if line.split(",")[1] == "0.0" and 0.0 <= float(line.split(",")[0]) <= a
    ]
    assert len(band) == 32
    assert all(line.endswith(",,,0") for line in band)


def test_survey_deterministic(capsys):
    code1, out1 = run_cli(capsys, "survey", "--n", "120", "--seed", "3")
    code2, out2 = run_cli(capsys, "survey", "--n", "120", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    validate(payload)
    assert 0.4 <= payload["min"] <= payload["max"] <= 1.1


def test_verify_passes_and_validates(capsys):
    code, out = run_cli(capsys, "verify", "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_verify_with_unreachable_tolerance_fails(capsys):
    code, out = run_cli(capsys, "verify", "--json", "--tol", "1e-16")
    assert code == 1
    payload = json.loads(out)
    validate(payload)
    assert payload["passed"] is False
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert failed  # per-check diffs are reported
    for c in failed:
        assert c["error"] > c["tolerance"]


def test_arc_exits_2_when_every_point_fails(monkeypatch, capsys):
    import tripotential.riesz as rz
    from tripotential import NoConvergence

    def always_fails(tri, p, tol=1e-10, *, x0=None):
        raise NoConvergence("forced", best_point=x0, residual_norm=1.0,
                            iterations=rz._MAX_NEWTON_ITERATIONS)

    monkeypatch.setattr(rz, "rp_center", always_fails)
    code, out = run_cli(
        capsys,
        "arc", "--sides", "4,5,6",
        "--p-min", "0", "--p-max", "1", "--steps", "3",
    )
    assert code == 2
    payload = json.loads(out)
    validate(payload)
    assert payload["error"]["type"] == "TripotentialError"


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "center", "--sides", "3,4,5", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    validate(payload)
    assert payload["command"] == "center"


@pytest.mark.parametrize(
    "argv",
    [
        ("center", "--sides", "3,4,5"),
        ("search-value", "--sides", "6,9,13"),
        ("rp-center", "--sides", "4,5,6", "--p", "2"),
        ("arc", "--sides", "4,5,6", "--p-min", "1", "--p-max", "2", "--steps", "2"),
        ("lambda-curve", "--sides", "4,5,6", "--lambda-min", "1",
         "--lambda-max", "2", "--steps", "2"),
        ("grid", "--sides", "1,1,1", "--n", "8", "--format", "csv"),
        ("survey", "--n", "100"),
        ("verify",),
    ],
    ids=lambda argv: argv[0],
)
def test_out_into_missing_directory_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    payload = json.loads(out)
    validate(payload)
    assert payload["error"]["type"] == "FileNotFoundError"
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("center", "--sides", "1,1,2"),
        ("grid", "--sides", "1,1,1", "--n", "4"),
        ("survey", "--n", "50"),
        ("verify", "--tol", "0"),
        ("verify", "--tol", "nan"),
        # Exponents whose kernel or its derivative overflows, or whose edge
        # rule would need more panels than it allows.
        ("rp-center", "--sides", "3,4,5", "--p", "594"),
        ("rp-center", "--sides", "3,4,5", "--p", "1000"),
        ("rp-center", "--sides", "3,4,5", "--p", "1e9"),
        ("rp-center", "--sides", "3,4,5", "--p", "1e308"),
        ("arc", "--sides", "3,4,5", "--p-min", "-400", "--p-max", "400",
         "--steps", "5"),
    ],
    ids=" ".join,
)
def test_failure_prints_one_json_error_on_stdout(capfd, argv):
    # capfd, unlike capsys, also sees what C code writes to file
    # descriptor 1 (LAPACK reports illegal arguments there).
    code = main(list(argv))
    out, err = capfd.readouterr()
    assert code == 2
    payload = json.loads(out)
    validate(payload)
    assert set(payload) == {"error"}
    for name in ("TypeError", "LinAlgError", "Traceback"):
        assert name not in out and name not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("rp-center", "--sides", "4,5,6", "--p", "-2", "--tol", "1e-13"),
        ("arc", "--sides", "4,5,6", "--p-min", "-1", "--p-max", "2",
         "--steps", "3", "--tol", "1e-13"),
    ],
    ids=" ".join,
)
def test_a_tolerance_below_the_riesz_floor_is_refused(capsys, argv):
    # the Riesz solver's own floor is 1e-12; the CLI passes --tol on as given
    code, out = run_cli(capsys, *argv)
    assert code == 2
    payload = json.loads(out)
    validate(payload)
    assert payload["error"]["type"] == "ValueError"
    assert "1e-12" in payload["error"]["message"]


def test_a_closed_stdout_exits_2_without_a_traceback(monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["grid", "--sides", "3,4,5", "--n", "8", "--format", "csv"]) == 2


def test_a_reader_that_stops_early_leaves_exit_2_and_no_stderr():
    # `tripotential grid ... | head -1`: the CSV is far larger than a pipe's
    # buffer, so the write fails once the reader has gone
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH", "")])
    ))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tripotential.cli", "grid", "--sides", "3,4,5",
         "--n", "128", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"x,y,V,Ex,Ey,inside\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == b""
