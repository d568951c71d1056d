"""Property tests for the arrangement and system file formats."""

import io
import string
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from instances import write_complex_arrangement

from sgcert.arrangement import (
    Arrangement,
    InvariantViolation,
    Subspace,
    _read_lines,
    complex_to_real,
    read_arrangement,
    write_arrangement,
)
from sgcert.cli import main
from sgcert.dependency import TripleSystem, read_system, write_system
from sgcert.errors import ParseError
from sgcert.linalg import DEFAULT_TOL


def rewritten_bytes(write, read, obj):
    """The file written from ``obj``, and the file written from reading it back."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        write(first, obj)
        write(second, read(first))
        return first.read_bytes(), second.read_bytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ambient=st.integers(1, 5),
       dims=st.lists(st.integers(0, 5), max_size=5), complex_field=st.booleans())
def test_arrangement_file_round_trip(seed, ambient, dims, complex_field):
    # real spaces, and the realifications of complex ones, of every
    # dimension up to the ambient, zero included
    rng = np.random.default_rng(seed)
    dims = [min(d, ambient) for d in dims]
    if complex_field:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.arr"
            write_complex_arrangement(path, ambient, [
                rng.standard_normal((d, ambient)) + 1j * rng.standard_normal((d, ambient))
                for d in dims])
            arr = read_arrangement(path)
    else:
        arr = Arrangement(ambient, [
            Subspace.from_spanning(rng.standard_normal((d, ambient)), ambient)
            for d in dims])
    first, second = rewritten_bytes(write_arrangement, read_arrangement, arr)
    assert first == second


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 7), alpha=st.integers(1, 100),
       delta=st.floats(0.0, 1e6, allow_nan=False), data=st.data())
def test_system_file_round_trip(n, alpha, delta, data):
    candidates = list(combinations(range(n), 2)) + list(combinations(range(n), 3))
    sets = data.draw(st.lists(st.sampled_from(candidates), max_size=20)) if candidates else []
    first, second = rewritten_bytes(write_system, read_system,
                                    TripleSystem(n, sets, alpha=alpha, delta=delta))
    assert first == second


# three lines in the plane, and the one dependent triple they form
_ARR = ("arrangement v1\nfield real\nambient 2\nn 3\nspace 0 dim 1\n1 0\n"
        "space 1 dim 1\n0 1\nspace 2 dim 1\n0.6 0.8\n")
_SYS = "system v1\nn 3 alpha 6 delta 0\n3 0 1 2\n"
_TOKENS = (st.sampled_from(["inf", "nan", "-1", "0", "1e400"])
           | st.text(string.ascii_letters + string.punctuation, min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(corrupt_system=st.booleans(), data=st.data())
def test_verify_survives_one_bad_token_or_missing_line(corrupt_system, data):
    lines = (_SYS if corrupt_system else _ARR).splitlines()
    at = data.draw(st.integers(0, len(lines) - 1))
    if data.draw(st.booleans()):
        del lines[at]
    else:
        tokens = lines[at].split()
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(_TOKENS)
        lines[at] = " ".join(tokens)
    text = "\n".join(lines) + "\n"
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        arr_path, sys_path = Path(tmp) / "in.arr", Path(tmp) / "in.sys"
        arr_path.write_text(_ARR if corrupt_system else text)
        sys_path.write_text(text if corrupt_system else _SYS)
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["verify", str(arr_path), "--system", str(sys_path)])
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1


def read_system_per_line(path):
    """(n, alpha, delta, sets) of a system file, parsed one line at a time."""
    raw = [ln.strip() for ln in _read_lines(path)]
    lines = [(no + 1, ln) for no, ln in enumerate(raw) if ln]
    if not lines or lines[0][1] != "system v1":
        raise ParseError("expected 'system v1' header", lines[0][0] if lines else 1)
    if len(lines) < 2:
        raise ParseError("missing parameter line", 2)
    no, params = lines[1]
    parts = params.split()
    if len(parts) != 6 or parts[0] != "n" or parts[2] != "alpha" or parts[4] != "delta":
        raise ParseError(f"bad parameter line {params!r}", no)
    try:
        n, alpha, delta = int(parts[1]), int(parts[3]), float(parts[5])
    except ValueError as exc:
        raise ParseError(str(exc), no) from None
    if n < 0 or alpha < 1 or not (np.isfinite(delta) and delta >= 0):
        raise ParseError(f"need n >= 0, alpha >= 1 and a finite delta >= 0 in {params!r}", no)
    sets = []
    for no, ln in lines[2:]:
        cells = ln.split()
        try:
            size = int(cells[0])
            idx = [int(c) for c in cells[1:]]
        except (ValueError, IndexError) as exc:
            raise ParseError(f"bad set line: {exc}", no) from None
        if size not in (2, 3) or len(idx) != size:
            raise ParseError(f"set line declares size {size} but has {len(idx)} indices", no)
        if any(i < 0 or i >= n for i in idx):
            raise ParseError(f"set index out of range [0, {n}) in {ln!r}", no)
        sets.append(tuple(sorted(idx)))
    return n, alpha, delta, sets


_SET_TOKENS = (st.sampled_from(["inf", "nan", "-1", "+1", "0", "2", "3", "7", "1e400", "1_0",
                                "\u0663", "99999999999999999999", "9223372036854775807"])
               | st.text(string.ascii_letters + string.digits + string.punctuation,
                         min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 9), data=st.data())
def test_bulk_read_system_matches_per_line_reference(n, data):
    # a valid file with unsorted indices, blank lines and uneven spacing,
    # then maybe one token replaced, added or deleted, or one line dropped:
    # the bulk parse gives the reference's sets, or its ParseError with the
    # same line number
    candidates = list(combinations(range(n), 2)) + list(combinations(range(n), 3))
    sets = data.draw(st.lists(st.sampled_from(candidates), max_size=12)) if candidates else []
    lines = ["system v1", f"n {n} alpha 6 delta 0.5"]
    for s in sets:
        idx = data.draw(st.permutations(s))
        lines.append(data.draw(st.sampled_from([" ", "  ", "\t"])).join(map(str, [len(s), *idx])))
        if data.draw(st.integers(0, 5)) == 0:
            lines.append(data.draw(st.sampled_from(["", "  "])))
    change = data.draw(st.sampled_from(["none", "token", "extra", "cut", "drop"]))
    at = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[at].split()
    if change == "drop":
        del lines[at]
    elif change != "none" and tokens:
        # replace a token, add one, or delete one
        where = data.draw(st.integers(0, len(tokens) - 1))
        if change == "cut":
            del tokens[where]
        else:
            tokens[where:where + (change == "token")] = [data.draw(_SET_TOKENS)]
        lines[at] = " ".join(tokens)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.sys"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            want = read_system_per_line(path)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                read_system(path)
            assert (str(got.value), got.value.line) == (str(exc), exc.line)
        else:
            got = read_system(path)
            assert (got.n, got.alpha, got.delta, got.sets) == want


def read_arrangement_per_line(path, tol=DEFAULT_TOL):
    """(field, ambient, bases) of an arrangement file, parsed one line at a
    time; a complex field's bases are realified one space at a time, each
    entry an ``re,im`` token of exactly two float parts."""
    raw = _read_lines(path)
    lines = [(no + 1, ln.strip()) for no, ln in enumerate(raw) if ln.strip()]
    pos = 0

    def take(*words):
        nonlocal pos
        if pos == len(lines):
            raise ParseError("unexpected end of file", len(raw))
        no, ln = lines[pos]
        pos += 1
        parts = ln.split()
        if len(parts) < len(words) or any(p != w for p, w in zip(parts, words) if w is not None):
            raise ParseError(f"expected {' '.join(w or '<value>' for w in words)!r}, got {ln!r}",
                             no)
        return no, parts

    def count(no, text):
        try:
            if int(text) >= 0:
                return int(text)
        except ValueError:
            pass
        raise ParseError(f"expected a non-negative integer, got {text!r}", no)

    take("arrangement", "v1")
    no, parts = take("field", None)
    if parts[1] not in ("real", "complex"):
        raise ParseError(f"unknown field {parts[1]!r}", no)
    field = parts[1]
    no, parts = take("ambient", None)
    ambient = count(no, parts[1])
    no, parts = take("n", None)
    bases = []
    for idx in range(count(no, parts[1])):
        no, parts = take("space", None, "dim", None)
        if count(no, parts[1]) != idx:
            raise ParseError(f"expected space {idx}, got {parts[1]}", no)
        dim = count(no, parts[3])
        rows = []
        for _ in range(dim):
            no, cells = take()
            if len(cells) != ambient:
                raise ParseError(f"row has {len(cells)} entries, ambient is {ambient}", no)
            try:
                if field == "complex":
                    rows.append([complex(float(re), float(im))
                                 for re, _, im in (c.partition(",") for c in cells)])
                else:
                    rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ParseError(f"bad numeric row: {exc}", no) from None
        basis = np.array(rows).reshape(dim, ambient)
        if field == "complex":
            bases.append(complex_to_real(ambient, [basis], tol).spaces[0].basis)
        else:
            bases.append(Subspace(ambient, basis, tol).basis)
    if pos < len(lines):
        raise ParseError("content after the last declared space", lines[pos][0])
    return field, ambient, bases


_ROW_TOKENS = (st.sampled_from(["inf", "nan", "-1", "0", "2", "1e400", "1_0", "1,2", "1,2,3", "1,",
                                "space", "dim", "\u0663"])
               | st.floats(-2, 2).map(repr)
               | st.text(string.ascii_letters + string.digits + string.punctuation,
                         min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ambient=st.integers(1, 4),
       dims=st.lists(st.integers(0, 4), max_size=4), complex_field=st.booleans(),
       data=st.data())
def test_bulk_read_arrangement_matches_per_line_reference(seed, ambient, dims, complex_field,
                                                          data):
    # a valid file with blank lines and uneven spacing, then one to three
    # changes, each maybe a token replaced, added or deleted, a line dropped,
    # or one appended: the bulk parse gives the reference's bases, or its
    # first error (a ParseError with the same line), which pins the order
    # of errors across defects
    rng = np.random.default_rng(seed)
    lines = ["arrangement v1", f"field {'complex' if complex_field else 'real'}",
             f"ambient {ambient}", f"n {len(dims)}"]
    for idx, d in enumerate(min(d, ambient) for d in dims):
        lines.append(f"space {idx} dim {d}")
        if complex_field:
            re, im = rng.standard_normal((2, d, ambient))
            rows = [[f"{x!r},{y!r}" for x, y in zip(r, i)]
                    for r, i in zip(re.tolist(), im.tolist())]
        else:
            basis = Subspace.from_spanning(rng.standard_normal((d, ambient)), ambient).basis
            rows = [list(map(repr, r)) for r in basis.tolist()]
        for row in rows:
            lines.append(data.draw(st.sampled_from([" ", "  ", "\t"])).join(row))
            if data.draw(st.integers(0, 5)) == 0:
                lines.append(data.draw(st.sampled_from(["", "  "])))
    for _ in range(data.draw(st.integers(1, 3))):
        change = data.draw(st.sampled_from(["none", "token", "extra", "cut", "drop", "append"]))
        # half of the changes fall after the header
        at = data.draw(st.integers(0, len(lines) - 1) | st.integers(min(4, len(lines) - 1),
                                                                     len(lines) - 1))
        tokens = lines[at].split()
        if change == "drop":
            del lines[at]
        elif change == "append":
            lines.append(" ".join(data.draw(st.lists(_ROW_TOKENS, min_size=1, max_size=4))))
        elif change != "none" and tokens:
            where = data.draw(st.integers(0, len(tokens) - 1))
            if change == "cut":
                del tokens[where]
            else:
                tokens[where:where + (change == "token")] = [data.draw(_ROW_TOKENS)]
            lines[at] = " ".join(tokens)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.arr"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            field, ambient, want = read_arrangement_per_line(path)
        except (ParseError, InvariantViolation, ValueError) as exc:
            with pytest.raises(type(exc)) as got:
                read_arrangement(path)
            assert str(got.value) == str(exc)
            assert getattr(got.value, "line", None) == getattr(exc, "line", None)
        else:
            arr = read_arrangement(path)
            assert isinstance(arr, Arrangement) and arr.field_tag == field
            assert arr.ambient == (1 + (field == "complex")) * ambient and arr.n == len(want)
            for v, w in zip(arr.spaces, want):
                g = v.basis
                assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


@pytest.mark.parametrize("edits, kind, line", [
    ({6: "2 0", 8: "x 1"}, InvariantViolation, None),        # a bad basis before a bad token
    ({6: "2 0", 9: "space 7 dim 1"}, InvariantViolation, None),  # ... and before a layout error
    ({6: "x 0", 9: "space 7 dim 1"}, ParseError, 6),         # a bad token before a layout error
    ({8: "x 1", 10: "3 4"}, ParseError, 8),                  # a bad token before a later bad basis
    ({7: "space 1 dim 2", 10: "3 4"}, ParseError, 9),        # a next header read as a row
])
def test_read_arrangement_first_of_several_errors(tmp_path, edits, kind, line):
    # each file has two defects; the reader raises the one a line-by-line
    # reading meets first, as the per-line reference does
    lines = _ARR.splitlines()
    for no, text in edits.items():
        lines[no - 1] = text
    path = tmp_path / "two.arr"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(kind) as want:
        read_arrangement_per_line(path)
    with pytest.raises(kind) as got:
        read_arrangement(path)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "line", None) == getattr(want.value, "line", None) == line
