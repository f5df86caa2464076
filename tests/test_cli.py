import csv
import io
import json
import time

import pytest

from delbound.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bound_json_fixed_point(capsys):
    code, out = run_cli(capsys, "bound", "--space", "hamming:4", "--method", "mrrw",
                        "--k", "1", "--s", "0.25", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["schema"] == 1
    assert blob["bound"] == pytest.approx(16.0, abs=1e-9)
    assert blob["method"] == "mrrw"
    assert blob["space"] == "hamming:4"


def test_bound_d_lev(capsys):
    code, out = run_cli(capsys, "bound", "--space", "hamming:3", "--method", "lev",
                        "--d", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["bound"] == pytest.approx(4.0, abs=1e-9)
    assert blob["d"] == 2


def test_bound_validation_exits_2(capsys):
    code, out = run_cli(capsys, "bound", "--space", "hamming:4", "--method", "lev",
                        "--d", "7")
    assert code == 2
    assert "error" in json.loads(out)

    code, _ = run_cli(capsys, "bound", "--space", "pretzel:4", "--d", "2")
    assert code == 2

    # both --d and --s is ambiguous
    code, _ = run_cli(capsys, "bound", "--space", "hamming:6", "--method", "lev",
                      "--d", "2", "--s", "0.1")
    assert code == 2

    # the removed --sign-variant flag is refused by the parser
    with pytest.raises(SystemExit) as refused:
        main(["bound", "--space", "hamming:4", "--method", "spectral", "--k", "1",
              "--sign-variant", "additive"])
    assert refused.value.code == 2


def test_boundary_failure_exits_3(capsys):
    # s = 0 is a window edge for even n: mrrw has no certified degree
    code, out = run_cli(capsys, "bound", "--space", "hamming:6", "--method", "mrrw",
                        "--d", "3")
    assert code == 3
    assert "error" in json.loads(out)


def test_bound_all_collects_failures(capsys):
    code, out = run_cli(capsys, "bound", "--space", "hamming:8", "--d", "4",
                        "--method", "all")
    assert code == 0
    blob = json.loads(out)
    methods = {r["method"] for r in blob["results"]}
    assert "lev_odd" in methods and "lp" in methods
    failed = {f["method"] for f in blob["failures"]}
    assert "mrrw" in failed  # s = 0 boundary again
    lp_row = next(r for r in blob["results"] if r["method"] == "lp")
    lev_row = next(r for r in blob["results"] if r["method"] == "lev_odd")
    assert lp_row["value"] == pytest.approx(16.0)
    assert lev_row["bound"] == pytest.approx(16.0, abs=1e-6)


def test_bound_all_csv_fills_the_lp_column(capsys):
    """In CSV, the lp row of bound --method all carries the LP optimum in
    its lp column, as a table row does; the JSON output keeps it in the
    lp result's value alone. As in a table, the CSV has a row for every
    method tried: a refused one with status "uncertified: <reason>", the
    reason its JSON lists under failures, and the lp row with
    s = 1 - 2d/n and status ok, while its JSON result keeps "optimal"."""
    from delbound.lp_oracle import delsarte_lp

    argv = ("bound", "--space", "hamming:8", "--d", "3", "--method", "all")
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    lp_row = next(row for row in csv.DictReader(io.StringIO(out)) if row["method"] == "lp")
    assert float(lp_row["lp"]) == delsarte_lp(8, 3).value_float
    code, out = run_cli(capsys, *argv)
    lp_result = next(r for r in json.loads(out)["results"] if r["method"] == "lp")
    assert lp_result == delsarte_lp(8, 3).to_json() | {"method": "lp", "space": "hamming:8"}
    argv = ("bound", "--space", "hamming:8", "--d", "4", "--method", "all")
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = {row["method"]: row for row in csv.DictReader(io.StringIO(out))}
    code, blob = run_cli(capsys, *argv)
    blob = json.loads(blob)
    assert sorted(rows) == ["lev_odd", "lp", "mrrw", "spectral"]
    assert {f["method"] for f in blob["failures"]} == {"mrrw", "spectral"}
    for failure in blob["failures"]:
        row = rows[failure["method"]]
        assert row["status"] == "uncertified: %s" % failure["error"]
        assert (row["space"], row["d"], row["s"], row["bound"]) == ("hamming:8", "4", "0.0", "")
    assert (rows["lp"]["s"], rows["lp"]["status"], rows["lp"]["lp"]) == ("0.0", "ok", "16.0")
    assert rows["lev_odd"]["status"] == "ok"
    assert next(r for r in blob["results"] if r["method"] == "lp")["status"] == "optimal"


def test_spectral_degree_without_a_threshold_exits_2(capsys):
    """--k without --d or --s names no point to bound: exit 2."""
    code, out = run_cli(capsys, "bound", "--space", "hamming:4", "--method",
                        "spectral", "--k", "1")
    assert code == 2
    assert "exactly one of --d and --s" in json.loads(out)["error"]


def test_degree_with_a_distance_exits_2(capsys):
    """--k with --d would be dropped: a distance's bound takes its window's
    degree, so the pair is refused (exit 2) with a pointer to --s."""
    code, out = run_cli(capsys, "bound", "--space", "hamming:64", "--method", "spectral",
                        "--d", "10", "--k", "3")
    assert code == 2
    assert "--s" in json.loads(out)["error"]


def test_mrrw_degree_past_the_max_degree_exits_2_under_w_error(fresh_python):
    """k = n + 1 on hamming:n asks for p_{n+1}(s), past the last degree
    the n + 1 nodes determine. It is refused up front (exit 2), as the
    spectral route refuses k = n, before any recurrence step divides by
    the trailing a_n = 0: under -W error such a step would abort the
    command with a RuntimeWarning instead."""
    proc = fresh_python("bound", "--space", "hamming:6", "--method", "mrrw", "--s", "0.1",
                        "--k", "7", flags=("-W", "error"), timeout=None)
    assert proc.returncode == 2 and proc.stderr == "", proc.stderr
    assert "max degree 6" in json.loads(proc.stdout)["error"]


def test_table_csv_shape_and_quoting(capsys):
    code, out = run_cli(capsys, "table", "--space", "hamming:5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    assert header[:4] == ["space", "d", "s", "method"]
    assert len(body) == 15  # 5 distances x 3 methods
    # annotated rows keep commas inside one field thanks to quoting
    for row in body:
        assert len(row) == len(header)
    # LP column filled for n <= 64
    assert any(row[7] for row in body)


def test_table_deterministic(capsys):
    _, first = run_cli(capsys, "table", "--space", "hamming:5")
    _, second = run_cli(capsys, "table", "--space", "hamming:5")
    assert first == second


def test_table_sphere_grid(capsys):
    code, out = run_cli(capsys, "table", "--space", "sphere:4", "--methods", "lev",
                        "--s-min", "0.1", "--s-max", "0.3", "--s-count", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 4
    assert all(row[7] == "" for row in rows[1:])  # no LP column on the sphere


@pytest.mark.parametrize("grid", [
    ("--s-count", "-3"),
    ("--s-count", "0"),
    ("--s-min", "0", "--s-max", "1"),
    ("--s-min", "-1.5"),
    ("--s-max", "nan"),
    ("--s-min=-inf",),
    ("--s-max", "inf"),
])
def test_table_sphere_grid_is_checked_before_any_row(capsys, monkeypatch, grid):
    """A sphere s-grid with no point, or an end that is non-finite or
    outside [-1, 1), exits 2 before any bound is computed; a Hamming
    table, which sweeps its distances, refuses any s-grid flag so, with
    one JSON error and nothing on stderr."""
    from delbound import constructions, lp_oracle

    def refuse(*args, **kwargs):
        raise AssertionError("a row was computed")

    for name in ("bound_for_s", "bound_for_distance"):
        monkeypatch.setattr(constructions, name, refuse)
    monkeypatch.setattr(lp_oracle, "delsarte_lp", refuse)
    for space in ("sphere:4", "hamming:8"):
        code = main(["table", "--space", space, *grid])
        out, err = capsys.readouterr()
        assert code == 2, space
        assert list(json.loads(out)) == ["error", "schema"] and err == "", space


@pytest.mark.parametrize("methods", [",", "", " , "])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_with_no_method_is_refused_before_any_row(capsys, monkeypatch, methods, fmt):
    """A --methods list that names no method exits 2, as an empty s-grid
    does, before any bound is computed: no table of a header alone."""
    from delbound import constructions, lp_oracle

    def refuse(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(constructions, "bound_for_distance", refuse)
    monkeypatch.setattr(lp_oracle, "delsarte_lp", refuse)
    code, out = run_cli(capsys, "table", "--space", "hamming:8", "--methods", methods,
                        "--format", fmt)
    assert code == 2
    assert "--methods" in json.loads(out)["error"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, seconds", [
    (("--space", "hamming:1024"), 30),
    (("--space", "sphere:200", "--s-min", "-0.5", "--s-max", "0.7", "--s-count", "25"), 60),
    (("--space", "sphere:400", "--s-min", "0.1", "--s-max", "0.7", "--s-count", "7"), 30),
], ids=["hamming:1024", "sphere:200", "sphere:400"])
def test_large_tables_finish_in_time_with_nothing_on_stderr(capsys, clear_caches, argv, seconds):
    """From cleared caches, the full hamming:1024 table, every method at
    every distance, finishes within 30 s (each window is a Sturm count over
    O(k) pivot passes, with no dense spectra), a sphere:200 table of 25 s
    values within 60 s, and a sphere:400 table of 7 s values, whose
    refused rows build the deepest derivative rows of any table here,
    within 30 s: each exits 0 with no warning and nothing on stderr."""
    clear_caches()
    start = time.perf_counter()
    code = main(["table", *argv])
    assert time.perf_counter() - start < seconds
    assert code == 0 and capsys.readouterr().err == ""


def _cold_table(capsys, clear_caches, space):
    """The CSV of the default table of space, run from cleared caches."""
    clear_caches()
    code, out = run_cli(capsys, "table", "--space", space)
    assert code == 0
    return out


@pytest.mark.parametrize("space", ["sphere:24", "hamming:16"])
def test_table_is_the_same_on_both_evaluation_paths(capsys, monkeypatch, clear_caches, space):
    """With orthopoly._FEW_POINTS at 0 (numpy rows for every evaluation)
    and at 10**6 (Python floats for every evaluation), a table prints the
    default run's CSV byte for byte: both paths run the same IEEE
    operations in the same order."""
    from delbound import orthopoly

    default = _cold_table(capsys, clear_caches, space)
    for few in (0, 10 ** 6):
        monkeypatch.setattr(orthopoly, "_FEW_POINTS", few)
        assert _cold_table(capsys, clear_caches, space) == default, few


def test_sphere_table_read_after_deeper_runs_is_the_same(capsys, clear_caches):
    """A sphere:24 table whose held runs were first read deeper than it
    needs (window steps to index 129 in every system, p(+-1) and the
    derivative block to degree 60) prints the cold run's CSV byte for
    byte: a run read deeper serves every shallower degree as a leading
    slice."""
    from delbound import Variant, orthopoly, sphere_space
    from delbound.feasibility import _derivative_table

    cold = _cold_table(capsys, clear_caches, "sphere:24")
    clear_caches()
    spec = sphere_space(24)
    for basis in Variant:
        assert orthopoly._zeros_below(spec, basis, 1.0, 129) == 130, basis
        for end in (1.0, -1.0):
            orthopoly.basis_at_end(spec, basis, 60, end)
    _derivative_table(spec, 60)
    code, out = run_cli(capsys, "table", "--space", "sphere:24")
    assert code == 0 and out == cold


def test_table_json_mode(capsys):
    code, out = run_cli(capsys, "table", "--space", "hamming:4", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["schema"] == 1
    assert len(blob["rows"]) == 12


def test_table_rejects_unknown_method(capsys):
    code, _ = run_cli(capsys, "table", "--space", "hamming:4", "--methods", "lev,magic")
    assert code == 2


def test_verify_descriptor(capsys):
    code, out = run_cli(capsys, "verify", "--space", "hamming:4", "--method", "mrrw",
                        "--k", "1", "--s", "0.25")
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "pass"
    assert blob["schema"] == 1
    assert len(blob["certificate_id"]) == 12


def test_verify_refuses_what_bound_refuses(capsys):
    """The MRRW polynomial of degree 181 at hamming:100, d=27 meets the three
    cone tolerances, but its slack swamps fhat_0: no bound follows, so
    verify fails it as bound does."""
    code, out = run_cli(capsys, "verify", "--space", "hamming:100", "--method", "mrrw",
                        "--k", "90", "--s", "0.46")
    assert code == 3
    blob = json.loads(out)
    assert blob["verdict"] == "fail" and "slack" in blob["reason"]
    code, _ = run_cli(capsys, "bound", "--space", "hamming:100", "--method", "mrrw",
                      "--k", "90", "--s", "0.46")
    assert code == 3


def test_underflowing_hamming_space_exits_2(capsys):
    """hamming:2048 is refused (exit 2): its node weights C(n, j) 2^-n
    underflow past n = 1074. ROADMAP item 6, which moves that refusal
    into node_weights so that item 2's exact window route can serve the
    space, changes what this command gives."""
    code, out = run_cli(capsys, "bound", "--space", "hamming:2048", "--d", "410",
                        "--method", "lev")
    assert code == 2
    assert "1074" in json.loads(out)["error"]


def test_lev_bound_on_hamming_1024_at_d205_is_refused_for_its_fhat_0(capsys, clear_caches):
    """From cleared caches, the lev bound on hamming:1024 at d = 205, read
    from 1025-node tables of kernel degree 113, is refused (exit 3) for
    its fhat_0 within 60 s. ROADMAP item 2, whose exact window route
    certifies this lev_odd window, changes what this command gives."""
    clear_caches()
    start = time.perf_counter()
    code, out = run_cli(capsys, "bound", "--space", "hamming:1024", "--d", "205",
                        "--method", "lev")
    assert time.perf_counter() - start < 60
    assert code == 3
    assert "fhat_0" in json.loads(out)["failures"][0]["error"]


def test_verify_file_roundtrip(tmp_path, capsys):
    good = tmp_path / "poly.json"
    good.write_text(json.dumps({"coeffs": [0.5, 0.5], "s": -1.0}))
    code, out = run_cli(capsys, "verify", "--space", "hamming:3", "--file", str(good))
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"coeffs": [0.1, -0.5], "s": 0.0}))
    code, out = run_cli(capsys, "verify", "--space", "hamming:3", "--file", str(bad))
    assert code == 3
    assert json.loads(out)["verdict"] == "fail"


def test_verify_malformed_file(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"coeffs": [0.1,')
    code, out = run_cli(capsys, "verify", "--space", "hamming:3", "--file", str(broken))
    assert code == 2
    msg = json.loads(out)["error"]
    assert "line" in msg and "column" in msg

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps([1, 2, 3]))
    code, out = run_cli(capsys, "verify", "--space", "hamming:3", "--file", str(missing))
    assert code == 2


def test_verify_needs_file_or_descriptor(capsys):
    code, _ = run_cli(capsys, "verify", "--space", "hamming:4")
    assert code == 2


def test_lp_subcommand(capsys):
    code, out = run_cli(capsys, "lp", "--n", "3", "--d", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["value"] == pytest.approx(4.0)
    code, out = run_cli(capsys, "lp", "--n", "7", "--d", "3", "--mode", "exact")
    assert code == 0
    assert json.loads(out)["value_exact"] == "16"


def test_nrt_subcommand(capsys):
    code, out = run_cli(capsys, "nrt", "--r", "2", "--n", "2", "--q", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["e1", "e2", "e0", "metric_weight", "weight", "weight_float"]
    total = sum(float(r[-1]) for r in rows[1:])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_env_tolerance(monkeypatch, capsys):
    monkeypatch.setenv("DELBOUND_TOL", "1e-6")
    code, out = run_cli(capsys, "bound", "--space", "hamming:3", "--method", "lev",
                        "--d", "2")
    assert code == 0
    monkeypatch.setenv("DELBOUND_TOL", "nonsense")
    code, _ = run_cli(capsys, "bound", "--space", "hamming:3", "--method", "lev",
                      "--d", "2")
    assert code == 2
    monkeypatch.setenv("DELBOUND_TOL", "-0.5")
    code, _ = run_cli(capsys, "bound", "--space", "hamming:3", "--method", "lev",
                      "--d", "2")
    assert code == 2


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
def test_env_tolerance_rejects_nonfinite(monkeypatch, capsys, raw):
    # a NaN slack would pass every coefficient and sign check
    monkeypatch.setenv("DELBOUND_TOL", raw)
    code, out = run_cli(capsys, "bound", "--space", "hamming:8", "--method", "lev",
                        "--d", "2")
    assert code == 2
    assert "DELBOUND_TOL" in json.loads(out)["error"]


def test_text_format(capsys):
    code, out = run_cli(capsys, "bound", "--space", "hamming:3", "--method", "lev",
                        "--d", "2", "--format", "text")
    assert code == 0
    assert "bound: 4.0" in out


def test_console_entry_point(fresh_python):
    proc = fresh_python("lp", "--n", "3", "--d", "3", timeout=None)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(2.0)


def test_lp_and_nrt_load_no_numpy(fresh_python):
    """In a fresh interpreter, the package, the LP oracle, the NRT tables
    and the lp and nrt commands run without numpy, dataclasses or
    inspect. One access of
    hamming_space then loads all six numpy-backed modules and binds every
    __all__ name; dir() lists them all, a star import binds them, and an
    unknown name still raises AttributeError."""
    code = """
import contextlib, io, sys
import delbound
from delbound import cli
delbound.delsarte_lp(14, 5, "exact")
delbound.enumerate_shapes(2, 3)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["lp", "--n", "14", "--d", "5"]) == 0
    assert cli.main(["nrt", "--r", "2", "--n", "3"]) == 0
assert "delbound.lp_oracle" in sys.modules and "delbound.nrt" in sys.modules
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("delbound"))
assert "dataclasses" not in sys.modules, "dataclasses loaded"
assert "inspect" not in sys.modules, "inspect loaded"
assert set(delbound.__all__) <= set(dir(delbound))
delbound.hamming_space
stack = ("spaces", "orthopoly", "kernels", "feasibility", "constructions", "spectral")
assert all("delbound." + name in sys.modules for name in stack)
assert all(name in vars(delbound) for name in delbound.__all__ + list(stack))
star = {}
exec("from delbound import *", star)
assert all(star[name] is getattr(delbound, name) for name in delbound.__all__)
try:
    delbound.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown attribute resolved")
"""
    proc = fresh_python(code=code)
    assert proc.returncode == 0, proc.stderr


def test_table_numeric_row_keeps_other_rows(monkeypatch, capsys):
    from delbound import constructions
    from delbound.errors import NumericError

    real = constructions.bound_for_distance

    def flaky(spec, d, method="lev", tolerances=None):
        if d == 3:
            raise NumericError("injected failure at d=3")
        return real(spec, d, method=method, tolerances=tolerances)

    monkeypatch.setattr(constructions, "bound_for_distance", flaky)
    code, out = run_cli(capsys, "table", "--space", "hamming:5")
    assert code == 4
    body = list(csv.reader(io.StringIO(out)))[1:]
    assert len(body) == 15
    status = {(row[1], row[3]): row[8] for row in body}
    for method in ("mrrw", "lev", "spectral"):
        assert status[("3", method)] == "numeric: injected failure at d=3"
    assert all(not s.startswith("numeric:")
               for (d, _), s in status.items() if d != "3")
    assert any(s == "ok" for s in status.values())


def test_window_edge_spectral_refuses(capsys):
    # s = 1 - 2/64 is an exact zero of p_32 on hamming:64, so it sits on a
    # window edge: a clean refusal, never a numeric failure
    code, out = run_cli(capsys, "bound", "--space", "hamming:64", "--d", "1",
                        "--method", "spectral")
    assert code == 3
    assert "error" in json.loads(out)


def test_spectral_explicit_degree_past_search_cap(capsys):
    from delbound import Variant, largest_zero, sphere_space

    spec = sphere_space(3)
    s = 0.5 * (largest_zero(spec, Variant.BASE, 140) + largest_zero(spec, Variant.BASE, 141))
    code, out = run_cli(capsys, "bound", "--space", "sphere:3", "--method", "spectral",
                        "--k", "140", "--s", repr(s))
    assert code == 0
    blob = json.loads(out)
    assert blob["degree"] == 281
    assert blob["bound"] == pytest.approx(blob["closed_form"], rel=1e-6)


@pytest.mark.parametrize("space", ["hamming:6", "sphere:4"])
@pytest.mark.parametrize("body", [
    '{"coeffs": [1, 2], "s": "abc"}', '{"coeffs": [1, 2], "s": null}',
    '{"coeffs": 5, "s": 0}', '{"coeffs": ["x"], "s": 0}', '{"coeffs": [[1, 2]], "s": 0}',
    '{"coeffs": [1, NaN], "s": 0}', '{"coeffs": [0.5, Infinity], "s": 0}',
])
def test_verify_malformed_values_exit_2(tmp_path, capsys, space, body):
    path = tmp_path / "poly.json"
    path.write_text(body)
    code, out = run_cli(capsys, "verify", "--space", space, "--file", str(path))
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("space", ["hamming:6", "sphere:4"])
def test_verify_overflowing_coefficients_fail(tmp_path, capsys, space):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"coeffs": [1e308, 1e308, 1e308], "s": 0}))
    code, out = run_cli(capsys, "verify", "--space", space, "--file", str(path))
    assert code == 3
    blob = json.loads(out)
    assert blob["verdict"] == "fail" and "finite" in blob["reason"]


def test_bound_certificate_reaudits_through_verify(tmp_path, capsys):
    """The fhat of the certificate bound emits, on hamming:33 at d = 9 and
    on sphere:24 at s = 0.5, re-audits through verify to the same id."""
    from delbound import bound_for_distance, bound_for_s, hamming_space, sphere_space

    for space, point, res in (
            ("hamming:33", ("--d", "9"), bound_for_distance(hamming_space(33), 9, "lev")),
            ("sphere:24", ("--s", "0.5"), bound_for_s(sphere_space(24), 0.5, "lev"))):
        code, out = run_cli(capsys, "bound", "--space", space, "--method", "lev", *point,
                            "--format", "json")
        assert code == 0
        emitted = json.loads(out)["certificate_id"]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"coeffs": list(res.certificate.fhat), "s": res.s}))
        code, out = run_cli(capsys, "verify", "--space", space, "--file", str(path))
        assert code == 0
        assert json.loads(out)["certificate_id"] == emitted, space


def _reject_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


@pytest.mark.parametrize("space", ["hamming:6", "sphere:4"])
def test_verify_json_is_strict(tmp_path, capsys, space):
    """A certificate with non-finite values prints null for them, never the
    NaN or Infinity that strict JSON parsers reject."""
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"coeffs": [1e308, -1e308, 1e308, 1e308], "s": 0}))
    code, out = run_cli(capsys, "verify", "--space", space, "--file", str(path))
    assert code == 3
    blob = json.loads(out, parse_constant=_reject_constant)
    assert blob["verdict"] == "fail"
    assert blob["max_on_audit"] is None


def test_lp_exact_json_carries_the_rational_optimum(capsys):
    from fractions import Fraction

    code, out = run_cli(capsys, "lp", "--n", "14", "--d", "5", "--mode", "exact")
    assert code == 0
    exact = json.loads(out, parse_constant=_reject_constant)
    value = Fraction(exact["value_exact"])
    assert sum(Fraction(v) for v in exact["B_exact"].values()) == value - 1
    assert sorted(exact["B_exact"], key=int) == [str(j) for j in range(5, 15)]
    code, out = run_cli(capsys, "lp", "--n", "14", "--d", "5", "--mode", "float")
    assert code == 0
    approx = json.loads(out, parse_constant=_reject_constant)
    assert "B_exact" not in approx
    # the float mode prints the same optimum, each value rounded to a float
    assert approx["value"] == float(value)
    assert approx["B"] == {j: float(Fraction(b)) for j, b in exact["B_exact"].items()}


@pytest.mark.parametrize("space", ["hamming:6", "sphere:4"])
def test_verify_id_rehashes_from_printed_output(tmp_path, capsys, space):
    """The id is the sha256 of the printed schema, s, fhat, tolerances and
    verdict, as strict JSON, even where the certificate holds a NaN."""
    import hashlib

    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"coeffs": [1e308, -1e308, 1e308, 1e308], "s": 0}))
    code, out = run_cli(capsys, "verify", "--space", space, "--file", str(path))
    assert code == 3
    blob = json.loads(out, parse_constant=_reject_constant)
    assert blob["max_on_audit"] is None
    decisive = {key: blob[key] for key in ("schema", "s", "fhat", "tolerances", "verdict")}
    canonical = json.dumps(decisive, sort_keys=True, allow_nan=False)
    assert hashlib.sha256(canonical.encode()).hexdigest()[:12] == blob["certificate_id"]


def test_lp_joins_at_the_oracle_cap_and_not_past_it(capsys):
    """The LP oracle takes n <= 64: bound --method all adds an lp result on
    hamming:64 and none on hamming:65, and the table fills its lp column
    on hamming:64 and leaves it empty on hamming:65. At d = 17 every
    polynomial method certifies on both spaces (at d = 5 none does, and
    the command exits 3 on hamming:65)."""
    for n, has_lp in ((64, True), (65, False)):
        code, out = run_cli(capsys, "bound", "--space", "hamming:%d" % n,
                            "--method", "all", "--d", "17")
        assert code == 0
        blob = json.loads(out)
        methods = [r["method"] for r in blob["results"] + blob["failures"]]
        assert ("lp" in methods) == has_lp, (n, methods)

        code, out = run_cli(capsys, "table", "--space", "hamming:%d" % n, "--methods", "lev")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == n
        assert all((row["lp"] != "") == has_lp for row in rows), n


def test_spectral_bound_on_a_zero_of_p_k_exits_3_with_nothing_on_stderr(fresh_python):
    """s = 0.9375 and s = 0.96875 are exact zeros of p_36 and p_32 on
    hamming:64, whose computed values are rounding noise: T_k(s) is refused
    as singular (exit 3) before its corner weight makes the eigenvector
    product overflow, and without a RuntimeWarning on stderr."""
    for s, k in (("0.9375", "36"), ("0.96875", "32")):
        proc = fresh_python("bound", "--space", "hamming:64", "--method", "spectral",
                            "--s", s, "--k", k)
        assert proc.returncode == 3 and proc.stderr == "", (s, proc.stderr)
        assert "p_%s(%s)" % (k, s) in json.loads(proc.stdout)["failures"][0]["error"]


def test_spectral_is_the_operator_layer_below_constructions(fresh_python):
    """The spectral module reads nothing above orthopoly: imported alone in
    a fresh interpreter it loads neither constructions nor feasibility.
    spectral_recover_bound is built by constructions, and the package
    exports that function."""
    code = """
import sys
import delbound.spectral
assert "delbound.constructions" not in sys.modules, sorted(sys.modules)
assert "delbound.feasibility" not in sys.modules, sorted(sys.modules)
import delbound
assert delbound.spectral_recover_bound is delbound.constructions.spectral_recover_bound
"""
    proc = fresh_python(code=code)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_sphere_verify_of_an_overflowing_polynomial_exits_3_in_strict_json(tmp_path, fresh_python):
    """On sphere:4 the derivative of 1e308 (p_0 - p_1 + p_2 + p_3) is not
    finite, so the audit skips its eigensolve and f fails at the
    endpoints: exit 3 with the certificate id the coefficients always
    had, strict JSON, and nothing on stderr."""
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"coeffs": [1e308, -1e308, 1e308, 1e308], "s": 0}))
    proc = fresh_python("verify", "--space", "sphere:4", "--file", str(path))
    assert proc.returncode == 3 and proc.stderr == "", proc.stderr
    blob = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert blob["reason"] == "f is not finite on the audit set"
    assert blob["certificate_id"] == "ab8bcea566ce"


def test_sphere_bounds_and_verify_load_no_numpy_polynomial(tmp_path, fresh_python):
    """The sphere certificate finds the roots of f' from the comrade
    matrix of the base Jacobi matrix, so mrrw, lev and spectral bounds on
    hamming:256 (d = 77), sphere:24 (s = 0.2 and 0.3) and sphere:100
    (s = 0.2), which run the eigensolvers, and a sphere:24 and a
    sphere:100 verify --file load neither numpy.polynomial nor scipy,
    which may be installed but is no dependency."""
    code = """
import contextlib, io, json, sys
from delbound import (NotCertifiedError, bound_for_distance, bound_for_s, cli, hamming_space,
                      sphere_space)
for method in ("mrrw", "lev", "spectral"):
    try:
        bound_for_distance(hamming_space(256), 77, method)
    except NotCertifiedError:
        pass
for dim, s in ((24, 0.3), (24, 0.2), (100, 0.2)):
    for method in ("mrrw", "lev", "spectral"):
        try:
            res = bound_for_s(sphere_space(dim), s, method)
        except NotCertifiedError:
            pass
json.dump({"coeffs": list(res.certificate.fhat), "s": res.s}, open(sys.argv[1], "w"))
res = bound_for_s(sphere_space(24), 0.5, "lev")
json.dump({"coeffs": list(res.certificate.fhat), "s": res.s}, open(sys.argv[2], "w"))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--space", "sphere:100", "--file", sys.argv[1]]) == 0
    assert cli.main(["verify", "--space", "sphere:24", "--file", sys.argv[2]]) == 0
assert "numpy.polynomial" not in sys.modules
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    proc = fresh_python(str(tmp_path / "cert.json"), str(tmp_path / "sphere_cert.json"),
                        code=code)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


@pytest.mark.parametrize("method", ["mrrw", "lev_odd", "lev_even"])
def test_verify_refuses_a_threshold_out_of_range_with_nothing_on_stderr(fresh_python, method):
    """s = nan and s = -2 lie outside [-1, 1): verify refuses them (exit 2)
    before it evaluates anything, with nothing on stderr, not after an
    overflowed normalization (nan) or an extrapolation RuntimeWarning (-2)."""
    for s in ("--s=nan", "--s=-2"):
        proc = fresh_python("verify", "--space", "hamming:8", "--method", method, "--k", "1", s)
        assert proc.returncode == 2 and proc.stderr == "", (s, proc.stderr)
        assert "s in [-1, 1)" in json.loads(proc.stdout)["error"], s


def test_verify_of_a_zero_mean_is_decided_without_an_audit(tmp_path, capsys, audit_calls):
    """A polynomial with fhat_0 = 0 is refused on its mean and never
    audited: the JSON prints null, null and 0 for the audit, and the
    text says why the audit did not run."""
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"coeffs": [0.0, 0.5, 0.25], "s": 0.0}))
    for space in ("hamming:6", "sphere:4"):
        code, out = run_cli(capsys, "verify", "--space", space, "--file", str(path))
        assert code == 3
        blob = json.loads(out)
        assert blob["reason"].startswith("fhat_0 = 0.000000e+00 is not positive")
        assert (blob["max_on_audit"], blob["argmax"], blob["audit_size"], blob["slack"]) \
            == (None, None, 0, None)
        code, out = run_cli(capsys, "verify", "--space", space, "--file", str(path),
                            "--format", "text")
        assert code == 3
        assert "max on [-1, s]: not audited, as fhat already decides the certificate" \
            in out.splitlines()
    assert audit_calls == []


def test_verify_text_prints_the_audit_maximum_of_an_audited_certificate(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"coeffs": [0.5, 0.5], "s": -1.0}))
    code, out = run_cli(capsys, "verify", "--space", "hamming:3", "--file", str(path))
    assert code == 0
    blob = json.loads(out)
    assert blob["audit_size"] == 1
    code, out = run_cli(capsys, "verify", "--space", "hamming:3", "--file", str(path),
                        "--format", "text")
    assert code == 0
    assert "max on [-1, s]: %r at x = -1.0" % (blob["max_on_audit"],) in out.splitlines()


@pytest.mark.parametrize("n, d, ks", [(256, 60, [25]), (64, 1, [32, 33, 34, 35])])
def test_mrrw_refusal_names_each_degree_tried_and_its_failed_check(capsys, n, d, ks):
    """An MRRW scan that certifies nothing lists every degree it tried with
    the reason its certificate failed: one window degree inside a window,
    four degrees from a largest zero at the edge."""
    from delbound import cone_certificate, hamming_space, mrrw_poly

    code, out = run_cli(capsys, "bound", "--space", "hamming:%d" % n, "--method", "mrrw",
                        "--d", str(d))
    assert code == 3
    error = json.loads(out)["failures"][0]["error"]
    spec = hamming_space(n)
    s = spec.nodes[d]
    reasons = [cone_certificate(spec, mrrw_poly(spec, k, s), s).reason for k in ks]
    assert all(r.startswith("fhat_0 = ") for r in reasons)
    assert error == "no MRRW degree certifies at n=%d, d=%d (s=%r)%s" % (
        n, d, s, "".join("; k=%d: %s" % pair for pair in zip(ks, reasons)))
    if n == 256:
        assert error.endswith("; k=25: fhat_0 = 1.674366e-36 is not positive beyond "
                              "tolerance 1e-12")


def test_a_closed_stdout_exits_1_with_nothing_on_stderr(fresh_python):
    """A reader that takes one line of a table and closes the pipe, as
    `| head -1` does, ends the command with exit 1 and an empty stderr,
    not a BrokenPipeError traceback. The hamming:1024 lev table is about
    150 KB, past any pipe buffer, so its write fails."""
    code = (
        "import json, subprocess, sys\n"
        "proc = subprocess.Popen([sys.executable, '-m', 'delbound.cli', 'table', '--space',\n"
        "                         'hamming:1024', '--methods', 'lev'],\n"
        "                        stdout=subprocess.PIPE, stderr=subprocess.PIPE)\n"
        "line = proc.stdout.readline()\n"
        "proc.stdout.close()\n"
        "err = proc.stderr.read()\n"
        "print(json.dumps([line.decode(), proc.wait(), err.decode()]))\n"
    )
    proc = fresh_python(code=code, timeout=None)
    assert proc.returncode == 0, proc.stderr
    line, returncode, stderr = json.loads(proc.stdout)
    assert line.startswith("space,d,s,method,")
    assert (returncode, stderr) == (1, "")


def test_nrt_refuses_the_alphabet_before_its_header(capsys):
    """q = 1 is refused before the CSV header is written: stdout is the
    error JSON alone."""
    code, out = run_cli(capsys, "nrt", "--r", "2", "--n", "3", "--q", "1")
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out)["error"] == "alphabet size must be at least 2"


@pytest.mark.parametrize("method", ["all", "lev", "lp"])
def test_k_with_a_method_that_picks_its_own_degree_is_refused_before_any_bound(
        capsys, monkeypatch, method):
    """--k applies to mrrw and spectral alone: with any other method it
    exits 2 before any bound is computed, as --k with --d does."""
    from delbound import constructions, lp_oracle

    def refuse(*args, **kwargs):
        raise AssertionError("a bound was computed")

    monkeypatch.setattr(constructions, "bound_for_s", refuse)
    monkeypatch.setattr(lp_oracle, "delsarte_lp", refuse)
    code, out = run_cli(capsys, "bound", "--space", "sphere:24", "--s", "0.5", "--k", "5",
                        "--method", method)
    assert code == 2
    assert json.loads(out)["error"] == "--k applies to --method mrrw or spectral only"


@pytest.mark.parametrize("method", ["mrrw", "spectral"])
def test_a_negative_k_is_a_validation_error(capsys, method):
    """k = -1 is refused by the degree guard (exit 2), as input, never as
    a refusal to certify (exit 3)."""
    code, out = run_cli(capsys, "bound", "--space", "hamming:8", "--s", "0.5", "--k", "-1",
                        "--method", method)
    assert code == 2
    assert json.loads(out)["error"].startswith("%s at an explicit k needs index -1 but "
                                               "hamming:8/base supports at most" % method)


def test_verify_of_an_overflowing_polynomial_exits_3(capsys):
    """f(1) of the lev_odd polynomial of degree 1237 at hamming:1024
    overflows to inf: a refusal to certify, exit 3, with its reason as
    the one line of JSON."""
    code, out = run_cli(capsys, "verify", "--space", "hamming:1024", "--method", "lev_odd",
                        "--k", "618", "--s", "0.998046875")
    assert code == 3
    assert json.loads(out) == {"error": "lev_odd normalization overflowed: f(1) = inf at "
                                        "k=618, s=0.998046875 on hamming:1024", "schema": 1}


def test_a_numeric_failure_of_a_bound_exits_4(capsys, monkeypatch):
    """A NumericError out of the library ends a bound with exit 4 and one
    line of JSON naming it."""
    from delbound import constructions
    from delbound.errors import NumericError

    def fail(*args, **kwargs):
        raise NumericError("injected failure")

    monkeypatch.setattr(constructions, "bound_for_distance", fail)
    code, out = run_cli(capsys, "bound", "--space", "hamming:5", "--d", "3", "--method", "lev")
    assert code == 4
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": "injected failure", "schema": 1}
