import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from instances import (
    EditedNormals,
    hesse_configuration,
    plane_and_lines,
    repeated,
    write_complex_arrangement,
    zeroed,
)

import sgcert
from sgcert.arrangement import (
    complex_to_real,
    generate_complex_planted,
    read_arrangement,
    write_arrangement,
)
from sgcert.cli import main
from sgcert.dependency import read_system
from sgcert.errors import PreconditionError
from sgcert.scaling import sample_admissible


def run(*argv):
    return main([str(a) for a in argv])


def test_gen_then_certify_grouped(tmp_path, capsys):
    arr_path = tmp_path / "g.arr"
    trace_path = tmp_path / "g.trace"
    assert run("gen", "--kind", "grouped", "--k", 1, "--delta", 0.25,
               "--n", 16, "--seed", 4, "--out", arr_path) == 0
    assert run("certify", arr_path, "--trials", 64, "--out", trace_path) == 0
    trace = trace_path.read_text().strip().splitlines()
    assert trace[-1].startswith("final bound ")
    assert trace[-1].endswith("measured 8")
    assert any(ln.startswith("round 0") and "branch bound" in ln for ln in trace)


def test_gen_grid_then_system_rejected(tmp_path, capsys):
    arr_path = tmp_path / "grid.arr"
    assert run("gen", "--kind", "grid", "--l", 4, "--out", arr_path) == 0
    sys_path = tmp_path / "grid.sys"
    assert run("system", arr_path, "--out", sys_path) == 1
    err = capsys.readouterr().err
    assert "intersect" in err


def test_system_and_verify_roundtrip(tmp_path):
    arr_path = tmp_path / "p.arr"
    sys_path = tmp_path / "p.sys"
    assert run("gen", "--kind", "grouped", "--k", 1, "--delta", 0.5,
               "--n", 8, "--seed", 1, "--out", arr_path) == 0
    assert run("system", arr_path, "--out", sys_path) == 0
    sys_obj = read_system(sys_path)
    assert sys_obj.alpha == 6 and sys_obj.w > 0
    assert run("verify", arr_path, "--system", sys_path) == 0


def test_verify_rejects_corrupted_file(tmp_path, capsys):
    bad = tmp_path / "bad.arr"
    bad.write_text(
        "arrangement v1\nfield real\nambient 2\nn 1\nspace 0 dim 1\n1.0 1.0\n"
    )
    assert run("verify", bad) == 1
    assert "orthonormal" in capsys.readouterr().err


def test_verify_flags_system_violation(tmp_path, capsys):
    arr_path = tmp_path / "a.arr"
    assert run("gen", "--kind", "random-planted", "--n", 6, "--k", 1,
               "--l", 6, "--triples", 0, "--seed", 2, "--out", arr_path) == 0
    sys_path = tmp_path / "fake.sys"
    sys_path.write_text("system v1\nn 6 alpha 6 delta 0\n3 0 1 2\n")
    assert run("verify", arr_path, "--system", sys_path) == 1
    assert "not a dependent triple" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "nope.arr"
    bad.write_text("arrangement v7\n")
    assert run("verify", bad) == 2


def test_scale_emits_matrix_and_gap(tmp_path):
    arr_path = tmp_path / "s.arr"
    out_path = tmp_path / "s.mat"
    assert run("gen", "--kind", "random-planted", "--n", 6, "--k", 1,
               "--l", 3, "--triples", 0, "--seed", 3, "--out", arr_path) == 0
    assert run("scale", arr_path, "--trials", 512, "--seed", 5,
               "--out", out_path) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "matrix v1"
    assert lines[1] == "rows 3 cols 3"
    gap_line = [ln for ln in lines if ln.startswith("gap ")]
    assert len(gap_line) == 1
    assert float(gap_line[0].split()[1]) <= 1e-6
    m = np.array([[float(c) for c in ln.split()] for ln in lines[2:5]])
    assert np.linalg.matrix_rank(m) == 3


def test_scale_deterministic_output(tmp_path):
    arr_path = tmp_path / "d.arr"
    assert run("gen", "--kind", "grouped", "--k", 1, "--delta", 0.5,
               "--n", 6, "--seed", 9, "--out", arr_path) == 0
    out1, out2 = tmp_path / "m1.mat", tmp_path / "m2.mat"
    # grouped arrangements do not span generically enough for scale to be
    # interesting here; just check determinism on a planted instance
    arr2 = tmp_path / "d2.arr"
    assert run("gen", "--kind", "random-planted", "--n", 5, "--k", 1,
               "--l", 4, "--triples", 0, "--seed", 10, "--out", arr2) == 0
    assert run("scale", arr2, "--trials", 256, "--seed", 1, "--out", out1) == 0
    assert run("scale", arr2, "--trials", 256, "--seed", 1, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reduce_complex_file(tmp_path, capsys):
    # C^5 embeds in R^10: each complex line becomes a real plane
    carr = generate_complex_planted(n=6, k=1, ambient=5, triple_count=2, seed=7)
    c_path = tmp_path / "c.arr"
    write_complex_arrangement(c_path, 5, carr)
    r_path = tmp_path / "r.arr"
    assert run("reduce", c_path, "--out", r_path) == 0
    assert capsys.readouterr().out == f"wrote {r_path}: n 6 ambient 10 dims 2 2 2 2 2 2\n"
    real = read_arrangement(r_path)
    assert (real.n, real.ambient, real.field_tag) == (6, 10, "real")
    for v, w in zip(real.spaces, complex_to_real(5, carr).spaces):
        assert np.array_equal(v.basis, w.basis)
    # reducing a real file fails cleanly
    assert run("reduce", r_path, "--out", tmp_path / "x.arr") == 1


def test_reduce_empty_complex_file(tmp_path):
    c_path, r_path = tmp_path / "c.arr", tmp_path / "r.arr"
    write_complex_arrangement(c_path, 2, [])
    assert run("reduce", c_path, "--out", r_path) == 0
    assert r_path.read_text() == "arrangement v1\nfield real\nambient 4\nn 0\n"


def test_complex_token_is_exactly_two_parts(tmp_path, capsys):
    # a token of three parts used to read as its first two
    c_path = tmp_path / "c.arr"
    c_path.write_text("arrangement v1\nfield complex\nambient 2\nn 1\nspace 0 dim 1\n1,0,5 0,0\n")
    assert run("reduce", c_path, "--out", tmp_path / "r.arr") == 2
    assert capsys.readouterr().err.startswith("parse error: line 6: bad numeric row: ")
    assert not (tmp_path / "r.arr").exists()


def test_every_command_takes_a_complex_file(tmp_path, capsys):
    # the Hesse configuration, realified as it is read: 9 planes of R^6
    # whose 12 lines are its special spaces, each of one dependent triple
    c_path, sys_path, out = tmp_path / "h.arr", tmp_path / "h.sys", tmp_path / "h.out"
    write_complex_arrangement(c_path, 3, hesse_configuration())
    assert run("triples", c_path, "--out", out) == 0
    assert out.read_text().splitlines()[-1] == "total special 12 triples 12"
    assert run("system", c_path, "--out", sys_path) == 0
    assert run("verify", c_path, "--system", sys_path) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verify: ok"
    assert run("scale", c_path, "--trials", 64, "--out", out) == 0
    assert out.read_text().splitlines()[1] == "rows 6 cols 6"
    assert run("certify", c_path, "--trials", 64, "--out", out) == 0
    assert out.read_text().splitlines()[-1] == "final bound 32400 measured 6"


def test_triples_report(tmp_path):
    arr_path = tmp_path / "t.arr"
    assert run("gen", "--kind", "random-planted", "--n", 6, "--k", 1,
               "--l", 5, "--triples", 2, "--seed", 11, "--out", arr_path) == 0
    out_path = tmp_path / "t.txt"
    assert run("triples", arr_path, "--out", out_path) == 0
    text = out_path.read_text()
    assert "total special" in text
    assert "triple " in text


def test_certify_budget_exit_code(tmp_path):
    arr_path = tmp_path / "b.arr"
    assert run("gen", "--kind", "grouped", "--k", 1, "--delta", 0.5,
               "--n", 8, "--seed", 6, "--out", arr_path) == 0
    assert run("certify", arr_path, "--trials", 64, "--max-rounds", 0,
               "--out", tmp_path / "b.trace") == 3


def test_scale_obstruction_exit_code(tmp_path, capsys):
    # two planes sharing a line: every maximal admissible set is a single
    # plane, so no sampled weights can sit in the basis hull
    arr_path = tmp_path / "o.arr"
    arr_path.write_text(
        "arrangement v1\nfield real\nambient 3\nn 2\n"
        "space 0 dim 2\n1 0 0\n0 1 0\n"
        "space 1 dim 2\n0 1 0\n0 0 1\n"
    )
    out_path = tmp_path / "o.mat"
    assert run("scale", arr_path, "--trials", 128, "--seed", 2,
               "--out", out_path) == 1
    assert capsys.readouterr().err.splitlines() == [
        "warning: 128 of 128 sampled sets do not span; p may sit outside the basis hull"]
    assert "obstruction" in out_path.read_text()


def test_scale_counts_non_spanning_sets(tmp_path, capsys):
    arr = plane_and_lines()
    arr_path = tmp_path / "p.arr"
    write_arrangement(arr_path, arr)
    sample = sample_admissible(arr, 200, seed=4)
    non_basis = sum(1 for h in sample.sets if sum(arr.spaces[i].dim for i in h) != 3)
    assert 0 < non_basis < 200
    run("scale", arr_path, "--trials", 200, "--seed", 4, "--out", tmp_path / "p.mat")
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {non_basis} of 200 sampled sets do not span; "
        "p may sit outside the basis hull"]


def test_verify_complex_file(tmp_path, capsys):
    # verify checks the realification: no note on a planted file, and
    # span(e1) = span(i e1) of C^2 as one intersecting pair
    carr = generate_complex_planted(n=4, k=1, ambient=4, triple_count=1, seed=13)
    c_path = tmp_path / "v.arr"
    write_complex_arrangement(c_path, 4, carr)
    assert run("verify", c_path) == 0
    assert capsys.readouterr().out == "verify: ok\n"
    write_complex_arrangement(c_path, 2, [[[1, 0]], [[1j, 0]]])
    assert run("verify", c_path) == 0
    assert capsys.readouterr().out.splitlines() == [
        "note: 1 pairs intersect nontrivially (first: (0, 1))", "verify: ok"]


def test_verify_validates_a_system_against_a_complex_file(tmp_path, capsys):
    # a system file checked against the realification: a triple of the
    # planted file passes, a triple of three generic lines is reported
    carr = generate_complex_planted(n=6, k=1, ambient=4, triple_count=1, seed=13)
    c_path, sys_path = tmp_path / "v.arr", tmp_path / "v.sys"
    write_complex_arrangement(c_path, 4, carr)
    sys_path.write_text("system v1\nn 6 alpha 6 delta 0\n3 0 1 5\n")
    assert run("verify", c_path, "--system", sys_path) == 0
    assert capsys.readouterr().out == "verify: ok\n"
    sys_path.write_text("system v1\nn 6 alpha 6 delta 0\n3 0 2 3\n")
    assert run("verify", c_path, "--system", sys_path) == 1
    assert "not a dependent triple" in capsys.readouterr().err


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.arr", tmp_path / "b.arr"
    for path in (a, b):
        assert run("gen", "--kind", "random-planted", "--n", 7, "--k", 2,
                   "--l", 9, "--triples", 2, "--seed", 42, "--out", path) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stdout_report_survives_two_calls(tmp_path, capsys):
    arr_path = tmp_path / "t.arr"
    assert run("gen", "--kind", "random-planted", "--n", 5, "--k", 1,
               "--l", 4, "--triples", 1, "--seed", 3, "--out", arr_path) == 0
    capsys.readouterr()
    assert run("triples", arr_path, "--out", "-") == 0
    first = capsys.readouterr().out
    assert run("triples", arr_path, "--out", "-") == 0
    assert capsys.readouterr().out == first
    assert "total special" in first


_GOOD_ARR = "arrangement v1\nfield real\nambient 2\nn 2\nspace 0 dim 1\n1 0\nspace 1 dim 1\n0 1\n"


@pytest.mark.parametrize("text, system, code, prefix", [
    (_GOOD_ARR, None, 0, None),
    (_GOOD_ARR.replace("0 1\n", "1 1\n"), None, 1, "error:"),
    (None, None, 2, "parse error:"),                                   # missing file
    (_GOOD_ARR.replace("ambient 2", "ambient abc"), None, 2, "parse error:"),
    (_GOOD_ARR.replace("dim 1", "dim one", 1), None, 2, "parse error:"),
    (_GOOD_ARR, "system v1\nn two alpha 6 delta 0\n", 2, "parse error:"),
    (_GOOD_ARR, "missing", 2, "parse error:"),                         # missing system
    (_GOOD_ARR, "system v1\nn 2 alpha 6 delta 0\n2 0 9\n", 2, "parse error:"),
    (_GOOD_ARR, "system v1\nn 2 alpha 6 delta 0\n2 -1 1\n", 2, "parse error:"),
    (b"\xff\xfe\x00garbage", None, 2, "parse error:"),                 # not UTF-8
    (_GOOD_ARR, "system v1\nn 2 alpha 6 delta inf\n", 2, "parse error:"),
    (_GOOD_ARR, "system v1\nn 2 alpha 0 delta 1\n", 2, "parse error:"),
    (_GOOD_ARR, "system v1\nn 2 alpha 6 delta nan\n", 2, "parse error:"),
    (_GOOD_ARR, "system v1\nn 2 alpha 6 delta -1\n", 2, "parse error:"),
    (_GOOD_ARR, "system v1\nn -1 alpha 6 delta 0\n", 2, "parse error:"),
    (_GOOD_ARR.replace("space 1 dim 1\n0 1\n", "space 1 dim -1\n"), None, 2, "parse error:"),
    (_GOOD_ARR.replace("n 2", "n -1"), None, 2, "parse error:"),
    ("arrangement v1\nfield real\nambient -2\nn 1\nspace 0 dim 0\n", None, 2, "parse error:"),
    (_GOOD_ARR.replace("n 2", "n 1"), None, 2, "parse error:"),        # a space past n
    (_GOOD_ARR.replace("space 1 dim 1", "space 1 dim 0"), None, 2, "parse error:"),  # row past dim
])
def test_verify_exit_codes_one_line(tmp_path, capsys, text, system, code, prefix):
    arr_path = tmp_path / "in.arr"
    if isinstance(text, bytes):
        arr_path.write_bytes(text)
    elif text is not None:
        arr_path.write_text(text)
    argv = ["verify", arr_path]
    if system is not None:
        sys_path = tmp_path / "in.sys"
        if system != "missing":
            sys_path.write_text(system)
        argv += ["--system", sys_path]
    assert run(*argv) == code
    err = capsys.readouterr().err.splitlines()
    if prefix is None:
        assert err == []
    else:
        assert len(err) == 1 and err[0].startswith(prefix)


def test_certify_exit_codes_one_line(tmp_path, capsys):
    assert run("certify", tmp_path / "absent.arr", "--out", "-") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("parse error:")
    arr_path = tmp_path / "b.arr"
    assert run("gen", "--kind", "grouped", "--k", 1, "--delta", 0.5,
               "--n", 8, "--seed", 6, "--out", arr_path) == 0
    assert run("certify", arr_path, "--trials", 64, "--max-rounds", 0,
               "--out", "-") == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("budget exceeded:")
    sys_path = tmp_path / "b.sys"
    for sets, code, prefix in [("3 0 1 9", 2, "parse error:"),   # index out of range
                               ("3 0 1 2", 1, "error:")]:        # does not validate
        sys_path.write_text(f"system v1\nn 8 alpha 6 delta 0.5\n{sets}\n")
        assert run("certify", arr_path, "--system", sys_path, "--out", "-") == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(prefix)


def test_residual_tol_reaches_the_parser(tmp_path, capsys):
    # space 1 has Gram residual about 2e-6: inside 1e-2, outside the default 1e-8
    arr_path = tmp_path / "loose.arr"
    arr_path.write_text(_GOOD_ARR.replace("0 1\n", "0 1.000001\n"))
    assert run("--residual-tol", "1e-2", "verify", arr_path) == 0
    captured = capsys.readouterr()
    assert "verify: ok" in captured.out.splitlines() and captured.err == ""
    assert run("verify", arr_path) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "not orthonormal" in err[0]


@pytest.mark.parametrize("warnings", [[], ["-W", "error::RuntimeWarning"]], ids=["default", "error"])
def test_gram_overflow_exit_code_one_line(tmp_path, warnings):
    # a row of norm 1e300 overflows the Gram: the warning used to print
    # before the error line, or end in a traceback when it was an error
    arr_path = tmp_path / "huge.arr"
    arr_path.write_text("arrangement v1\nfield real\nambient 2\nn 1\nspace 0 dim 2\n1e300 0\n0 1\n")
    src = str(Path(sgcert.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, *warnings, "-m", "sgcert.cli", "verify", str(arr_path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": ""})
    err = done.stderr.splitlines()
    assert done.returncode == 1
    assert len(err) == 1 and err[0].startswith("error:") and "not orthonormal" in err[0]


_NON_ORTHONORMAL = _GOOD_ARR.replace("1 0\n", "1 1\n").replace("0 1\n", "3 4\n")


@pytest.mark.parametrize("flags", [
    ["--rank-tol", "0"], ["--rank-tol", "nan"],
    ["--residual-tol", "nan"], ["--residual-tol", "inf"], ["--residual-tol", "0"],
])
def test_bad_tolerance_exit_code_one_line(tmp_path, capsys, flags):
    # basis rows of norms sqrt(2) and 5: no tolerance may let them pass
    arr_path = tmp_path / "bad.arr"
    arr_path.write_text(_NON_ORTHONORMAL)
    assert run("verify", arr_path) == 1
    assert "not orthonormal" in capsys.readouterr().err
    assert run(*flags, "verify", arr_path) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("flags", [
    ["--eps", "0"], ["--eps", "-1"], ["--eps", "nan"], ["--eps", "inf"],
    ["--tcap", "nan"], ["--tcap", "0"], ["--tcap", "inf"], ["--max-iter", "-3"],
])
def test_scale_bad_targets_exit_code_one_line(tmp_path, capsys, flags):
    arr_path, out_path = tmp_path / "s.arr", tmp_path / "s.mat"
    arr_path.write_text(_GOOD_ARR)
    assert run("scale", arr_path, "--trials", 16, *flags, "--out", out_path) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out_path.exists()


@pytest.mark.parametrize("flags", [["--eps", "0"], ["--tcap", "nan"], ["--max-iter", "-3"]])
def test_scale_rejects_bad_targets_before_sampling(tmp_path, capsys, monkeypatch, flags):
    # the flags are checked before any trial is drawn, with the same message
    def no_sampling(*args, **kwargs):
        raise AssertionError("sample_admissible was called")

    monkeypatch.setattr(sgcert.cli, "sample_admissible", no_sampling)
    arr_path, out_path = tmp_path / "s.arr", tmp_path / "s.mat"
    arr_path.write_text(_GOOD_ARR)
    assert run("scale", arr_path, "--trials", 40000, *flags, "--out", out_path) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out_path.exists()


def test_scale_zero_iteration_budget_is_exhausted(tmp_path, capsys):
    # a budget of 0 iterations is valid: it runs out, it is not rejected
    arr_path, out_path = tmp_path / "s.arr", tmp_path / "s.mat"
    arr_path.write_text(_GOOD_ARR)
    assert run("scale", arr_path, "--trials", 16, "--max-iter", 0, "--out", out_path) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("budget exceeded:")


@pytest.mark.parametrize("text", [
    "arrangement v1\nfield real\nambient 0\nn 0\n",
    "arrangement v1\nfield real\nambient 0\nn 1\nspace 0 dim 0\n",
    "arrangement v1\nfield real\nambient 2\nn 2\nspace 0 dim 0\nspace 1 dim 0\n",
], ids=["ambient0-n0", "ambient0-zero-space", "ambient2-zero-spaces"])
def test_scale_without_a_nonzero_space_one_line(tmp_path, capsys, text):
    # block sizing divided by a zero per-trial size, and no spaces at all
    # reached numpy's concatenate with nothing to join
    arr_path, out_path = tmp_path / "z.arr", tmp_path / "z.mat"
    arr_path.write_text(text)
    assert run("scale", arr_path, "--trials", 16, "--out", out_path) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out_path.exists()


def test_scale_and_certify_leave_numpy_ma_unimported(tmp_path):
    # numpy.ma (about 1 MB) comes with np.unique; no subcommand may need it
    arr_path, sys_path, out_path = tmp_path / "g.arr", tmp_path / "g.sys", tmp_path / "h.sys"
    assert run("gen", "--kind", "grouped", "--k", 1, "--delta", 0.5,
               "--n", 8, "--seed", 1, "--out", arr_path) == 0
    assert run("system", arr_path, "--out", sys_path) == 0
    script = f"""
import sys
from sgcert.arrangement import read_arrangement
from sgcert.certifier import CertifyBudget, certify
from sgcert.cli import main
from sgcert.dependency import read_system
assert main(["scale", {str(arr_path)!r}, "--trials", "64", "--out", "-"]) == 0
assert main(["certify", {str(arr_path)!r}, "--system", {str(sys_path)!r},
             "--trials", "64", "--out", "-"]) == 0
certify(read_arrangement({str(arr_path)!r}), read_system({str(sys_path)!r}),
        entry_check=False, budget=CertifyBudget(trials=64))
assert main(["triples", {str(arr_path)!r}, "--out", "-"]) == 0
assert main(["system", {str(arr_path)!r}, "--out", {str(out_path)!r}]) == 0
assert main(["verify", {str(arr_path)!r}, "--system", {str(sys_path)!r}]) == 0
assert main(["certify", {str(arr_path)!r}, "--trials", "64", "--out", "-"]) == 0
print("numpy.ma" in sys.modules)
"""
    src = str(Path(sgcert.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.splitlines()[-1] == "False"


_ZERO_SPACES = ("arrangement v1\nfield real\nambient 3\nn 3\n"
                "space 0 dim 0\nspace 1 dim 0\nspace 2 dim 0\n")


@pytest.mark.parametrize("text, system", [
    (_ZERO_SPACES, "system v1\nn 3 alpha 1 delta 0.3333333333333333\n3 0 1 2\n"),
    ("arrangement v1\nfield real\nambient 3\nn 0\n", "system v1\nn 0 alpha 1 delta 0.5\n"),
], ids=["zero-spaces", "n0"])
@pytest.mark.parametrize("beta", [[], ["--beta", 0.5]], ids=["default-beta", "beta-0.5"])
def test_certify_without_positive_dimension_one_line(tmp_path, capsys, text, system, beta):
    # k = 0: the default beta divides by it and the hard cap is 0 rounds
    arr_path, sys_path = tmp_path / "z.arr", tmp_path / "z.sys"
    arr_path.write_text(text)
    sys_path.write_text(system)
    assert run("verify", arr_path, "--system", sys_path) == 0
    capsys.readouterr()
    assert run("certify", arr_path, "--system", sys_path, *beta, "--out", "-") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: certification needs a space of positive dimension"]


@pytest.mark.parametrize("delta", ["inf", "nan", "0", "-0.5"])
def test_gen_grouped_rejects_bad_delta_one_line(tmp_path, capsys, delta):
    # an infinite delta made ceil(1/delta) = 0 blocks and an empty file,
    # a NaN one a conversion error
    out_path = tmp_path / "g.arr"
    assert run("gen", "--kind", "grouped", "--delta", delta, "--out", out_path) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: grouped generator needs k >= 1, n >= 1, delta > 0"]
    assert not out_path.exists()


@pytest.mark.parametrize("argv, edit, message", [
    # one block of lines in R^2: the orthogonal matrix takes stream positions
    # 0-3, member 0 positions 4-5, and the next 100 draws are refused
    (["--kind", "grouped", "--k", 1, "--delta", 1, "--n", 3], zeroed(6, 206),
     "failed to draw a full-dimensional subspace"),
    (["--kind", "grouped", "--k", 1, "--delta", 1, "--n", 3], repeated(4, 2, 6, 206),
     "could not place a block member in generic position"),
    # every normal 1 for 100 attempts of 13 stream positions: one line four times
    (["--kind", "random-planted", "--k", 1, "--n", 4, "--l", 3, "--triples", 1],
     lambda p, stream: 1.0 if p < 1300 else None,
     "could not reach generic position for planted arrangement"),
])
def test_gen_draw_failures_one_line(tmp_path, capsys, monkeypatch, argv, edit, message):
    monkeypatch.setattr(np.random, "default_rng", lambda seed: EditedNormals(seed, edit))
    out_path = tmp_path / "g.arr"
    assert run("gen", *argv, "--seed", 1, "--out", out_path) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert not out_path.exists()


@pytest.mark.parametrize("ambient, rows", [
    (2, [[1e300, 0], [0, 1]]),
    (2, [[3e4, 0], [0, 1e-6]]),
    (3, [[3e4, 4e4j, 0], [0, 1e-6, 2e-6j]]),
])
def test_verify_complex_rows_far_apart_in_norm(tmp_path, capsys, ambient, rows):
    # independent rows whose norms differ by more than 1 / rank_tol were read
    # as dependent over C; the file spans what its normalised rows span
    path = tmp_path / "c.arr"
    write_complex_arrangement(path, ambient, [rows])
    assert run("verify", path) == 0
    assert capsys.readouterr().out == "verify: ok\n"
    rows = np.array(rows, dtype=complex)
    want = complex_to_real(ambient, [rows / np.abs(rows).max(axis=1, keepdims=True)]).spaces[0]
    got = read_arrangement(path).spaces[0]
    assert got.dim == want.dim == 4 and got.contains(want) and want.contains(got)


@pytest.mark.parametrize("flags, message", [
    (["--wall-clock", "nan"], "error: wall clock budget must be a number of seconds, got nan"),
    (["--beta", "nan"], "error: beta must be in (0, 1), got nan"),
    (["--trials", "0"], "error: trials must be >= 1, got 0"),
    (["--seed", "-3"], "error: seed must be >= 0, got -3"),
    (["--max-rounds", "-1"], "error: max rounds must be >= 0, got -1"),
    (["--wall-clock", "-1"], "error: wall clock budget must be >= 0 seconds, got -1.0"),
])
def test_certify_rejects_bad_budget_flags_one_line(tmp_path, capsys, flags, message):
    # round 0 of this instance ends on the entry bound without sampling, so
    # the flags must be checked before it (a NaN wall clock used to switch
    # the budget off, and NaN beta reached the rational conversion)
    arr_path, out_path = tmp_path / "b.arr", tmp_path / "b.trace"
    assert run("gen", "--kind", "grouped", "--k", 1, "--delta", 0.5,
               "--n", 8, "--seed", 1, "--out", arr_path) == 0
    assert run("certify", arr_path, "--trials", 64, "--out", out_path) == 0
    assert out_path.read_text().splitlines()[0].endswith("branch bound loss 0")
    capsys.readouterr()
    out_path.unlink()
    assert run("certify", arr_path, "--trials", 64, *flags, "--out", out_path) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [message]
    assert not out_path.exists()


def test_scale_rejects_negative_seed_one_line(tmp_path, capsys, monkeypatch):
    # numpy's generator said only "expected non-negative integer"; the flag
    # is now checked with the optimizer's, before the file is sampled
    arr_path, out_path = tmp_path / "g.arr", tmp_path / "g.mat"
    assert run("gen", "--kind", "grouped", "--k", 1, "--delta", 0.5,
               "--n", 8, "--seed", 1, "--out", arr_path) == 0
    capsys.readouterr()
    monkeypatch.setattr(sgcert.cli, "sample_admissible",
                        lambda *a, **k: pytest.fail("sampled with a negative seed"))
    assert run("scale", arr_path, "--seed", -1, "--out", out_path) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: seed must be >= 0, got -1"]
    assert not out_path.exists()
    with pytest.raises(PreconditionError, match=r"^seed must be >= 0, got -1$"):
        sample_admissible(read_arrangement(arr_path), 8, seed=-1)


@pytest.mark.parametrize("command", ["gen", "triples", "system", "scale", "certify", "reduce"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_exit_code_one_line(tmp_path, capsys, monkeypatch, command, target):
    # an --out in a missing directory, or naming a directory, used to end
    # in a traceback (certify's only after its whole run); it now fails
    # before any subcommand's work starts, its read included
    real, complex_path = tmp_path / "g.arr", tmp_path / "c.arr"
    assert run("gen", "--kind", "grouped", "--k", 1, "--delta", 0.5,
               "--n", 8, "--seed", 1, "--out", real) == 0
    write_complex_arrangement(complex_path, 3, generate_complex_planted(n=4, k=1, ambient=3,
                                                                        triple_count=1, seed=7))
    capsys.readouterr()
    out = tmp_path / "missing" / "x.out" if target == "missing-directory" else tmp_path
    argv = {"gen": ["--kind", "grid", "--l", 3], "triples": [real], "system": [real],
            "scale": [real, "--trials", 64], "certify": [real, "--trials", 64],
            "reduce": [complex_path]}[command]
    for work in ("generate", "read_arrangement", "_special_and_dependent", "build_sg_system",
                 "sample_admissible", "certify"):
        monkeypatch.setattr(sgcert.cli, work, lambda *args, **kwargs: pytest.fail("work ran"))
    assert run(command, *argv, "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")
    assert not (tmp_path / "missing").exists()
