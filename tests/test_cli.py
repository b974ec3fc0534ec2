"""Command-line interface: subcommands, exit codes, report determinism,
schema validation."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pgroupalg.decompose as decompose
import pgroupalg.groups as groups
from pgroupalg.algebra import AlgebraError
from pgroupalg.catalog import catalog_by_name
from pgroupalg.cli import (COMMANDS, EXIT_CAP, EXIT_FAIL, EXIT_OK,
                           EXIT_PARSE, run)
from pgroupalg.groups import Subgroup, is_internal_direct_product
from pgroupalg.io import (SchemaError, _normalize_identity, canonical_json,
                          group_from_dict, group_to_dict)
from pgroupalg.lemmas import VerificationError


def run_to_file(tmp_path, argv):
    out = tmp_path / "report.json"
    code = run(argv + ["--out", str(out)])
    body = json.loads(out.read_text())["body"] if out.exists() else None
    return code, body


def test_catalog_listing(tmp_path):
    code, body = run_to_file(tmp_path, ["catalog", "--p", "2",
                                        "--max-order", "16"])
    assert code == EXIT_OK
    names = [e["name"] for e in body["catalog"]]
    assert "D8" in names and "Q8" in names and "C16" in names
    assert all(e["p"] == 2 for e in body["catalog"])


def test_catalog_emit_roundtrip(tmp_path):
    out = tmp_path / "d8.json"
    assert run(["catalog", "--emit", "D8", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    G, B, C = group_from_dict(data)
    assert G.order == 8 and not G.is_abelian()
    assert B is None and C is None


def test_lemmas_command(tmp_path):
    code, body = run_to_file(tmp_path, ["lemmas", "--catalog", "D8",
                                        "--catalog", "C2xC4"])
    assert code == EXIT_OK
    assert all(entry["pass"] for entry in body["lemmas"])
    ids = {r["id"] for entry in body["lemmas"] for r in entry["reports"]}
    assert len(ids) >= 3


def test_cyclic_factor_command(tmp_path):
    code, body = run_to_file(tmp_path, ["cyclic-factor", "--catalog", "C2xC4"])
    assert code == EXIT_OK
    rows = body["cyclic_factor"][0]["tests"]
    assert all(r["agree"] for r in rows)
    assert any(r["criterion"] for r in rows)


def test_certify_command(tmp_path):
    code, body = run_to_file(tmp_path, ["certify", "--catalog", "Q8",
                                        "--catalog", "C8"])
    assert code == EXIT_OK
    kinds = {e["group"]["name"]: e["certificate"]["kind"]
             for e in body["certify"]}
    assert kinds["Q8"] == "three_generated"
    assert kinds["C8"] == "none"


def test_oracle_command(tmp_path):
    code, body = run_to_file(tmp_path, ["oracle", "--catalog", "C2xD8"])
    assert code == EXIT_OK
    entry = body["oracle"][0]
    assert entry["decomposable"]
    assert entry["pairs"]


def test_oracle_cap_exit_code(tmp_path):
    code = run(["oracle", "--catalog", "C2xC2xC2xC2xC2xC2xC2",
                "--max-order", "256", "--oracle-cap", "64",
                "--out", str(tmp_path / "r.json")])
    assert code == EXIT_CAP


def test_recover_flow(tmp_path):
    fx = tmp_path / "fixture.json"
    assert run(["catalog", "--emit-factorization", "C2xC4", "Q8",
                "--out", str(fx)]) == EXIT_OK
    code, body = run_to_file(tmp_path, ["recover", "--input", str(fx)])
    assert code == EXIT_OK
    rec = body["recover"][0]
    assert rec["pass"]
    assert rec["recovered"]["b_invariants"] == [4, 2]


def _emit_c2xc4_q8(tmp_path):
    fx = tmp_path / "fixture.json"
    assert run(["catalog", "--emit-factorization", "C2xC4", "Q8",
                "--out", str(fx)]) == EXIT_OK
    return fx


def _no_complement(A):
    raise groups.GroupError("no complement found for a maximal cyclic factor")


def _projection_fails(ctx, space):
    raise AlgebraError("projected B is not an augmented subalgebra")


@pytest.mark.parametrize("patch, error", [
    ((groups, "_abelian_basis", _no_complement),
     "GroupError: no complement found for a maximal cyclic factor"),
    ((decompose, "augmentation_part", _projection_fails),
     "AlgebraError: projected B is not an augmented subalgebra")])
def test_recover_library_error_is_a_failed_input(tmp_path, monkeypatch,
                                                 patch, error):
    fx = _emit_c2xc4_q8(tmp_path)
    monkeypatch.setattr(*patch)
    code, body = run_to_file(tmp_path, ["recover", "--input", str(fx)])
    assert code == EXIT_FAIL
    assert body["recover"] == [{"group": body["recover"][0]["group"],
                                "error": error, "pass": False}]


def test_recover_checks_dimension_product_below_depth_0(tmp_path,
                                                       monkeypatch):
    # the first level's pi(B) falls to dimension 1 when only its first
    # projected row is kept (zeroing one row of the 8 leaves the span as
    # it is); the level's one check names it, and recover exits 1
    fx = _emit_c2xc4_q8(tmp_path)
    real, calls = decompose._project_along, []

    def project(ctx, b_minus_1, G0, X):
        calls.append(None)
        out = real(ctx, b_minus_1, G0, X)
        if len(calls) == 1:  # the first level
            out[1:] = 0
        return out

    monkeypatch.setattr(decompose, "_project_along", project)
    code, body = run_to_file(tmp_path, ["recover", "--input", str(fx)])
    assert code == EXIT_FAIL
    assert body["recover"][0]["error"] == "dimension-product: 1 * 4 != 8"


@pytest.mark.parametrize("error", [groups.GroupError("bad lattice"),
                                   AlgebraError("bad ideal")])
def test_group_command_library_error_exit_code(tmp_path, capsys, monkeypatch,
                                               error):
    def fail(G, cap):
        raise error
    monkeypatch.setattr("pgroupalg.cli.direct_factor_oracle", fail)
    code = run(["oracle", "--catalog", "D8", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_FAIL
    err = capsys.readouterr().err
    assert err == f"check failed: {type(error).__name__}: {error}\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [["recover"],
                                  ["recover", "--catalog", "C4"]])
def test_recover_without_input_is_usage_error(tmp_path, capsys, argv):
    code = run(argv + ["--out", str(tmp_path / "r.json")])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "r.json").exists()


def test_report_config_block(tmp_path):
    fx = tmp_path / "fixture.json"
    assert run(["catalog", "--emit-factorization", "C2", "C2",
                "--out", str(fx)]) == EXIT_OK
    for argv in (["lemmas", "--catalog", "C4"], ["recover", "--input", str(fx)]):
        code, body = run_to_file(tmp_path, argv)
        assert code == EXIT_OK
        assert body["config"]["enum_cap"] == 4194304
        assert body["config"]["seed"] == 0


@pytest.mark.parametrize("flag", [["--workers", "2"], ["--enum-cap", "5"],
                                  ["--seed", "0"]])
def test_removed_flags_exit_code(tmp_path, flag):
    assert run(["lemmas", "--catalog", "C4", *flag,
                "--out", str(tmp_path / "r.json")]) == EXIT_PARSE


@pytest.mark.parametrize("a_name, g0_name, message", [
    ("C16xC2xC2", "Q8", "order exceeds cap"),
    ("C2", "C3", "mismatched primes"),
])
def test_emit_factorization_that_does_not_build(tmp_path, capsys, a_name,
                                                g0_name, message):
    out = tmp_path / "fx.json"
    code = run(["catalog", "--emit-factorization", a_name, g0_name,
                "--out", str(out)])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


# cyclic-factor, certify and oracle read every common flag.  The ids are
# explicit, so that a case keeps its name when others come or go
@pytest.mark.parametrize("command, flag", [
    ("catalog", ["--input", "missing.json"]),
    ("catalog", ["--catalog", "Q8"]),
    ("catalog", ["--oracle-cap", "1"]),
    ("recover", ["--p", "3"]),
    ("recover", ["--max-order", "4"]),
    ("recover", ["--oracle-cap", "1"]),
    ("lemmas", ["--oracle-cap", "1"]),
    ("recover", ["--catalog", "Q8"]),
], ids=["catalog-flag0", "catalog-flag1", "catalog-flag3", "recover-flag4",
        "recover-flag5", "recover-flag6", "lemmas-flag8", "recover-flag12"])
def test_unread_flag_is_usage_error(tmp_path, capsys, command, flag):
    fx = tmp_path / "fx.json"
    assert run(["catalog", "--emit-factorization", "C2", "C2",
                "--out", str(fx)]) == EXIT_OK
    selection = ["--p", "2", "--max-order", "4"] if command == "catalog" \
        else ["--input", str(fx)]
    argv = [command, *selection, "--out", str(tmp_path / "r.json")]
    assert run(argv) == EXIT_OK
    assert run(argv + flag) == EXIT_PARSE
    assert capsys.readouterr().err.endswith(
        f"error: {command} does not read {flag[0]}\n")
    # the default value of a flag the command does not read is accepted
    default = {"--oracle-cap": "64", "--max-order": "32"}
    if flag[0] in default:
        assert run(argv + [flag[0], default[flag[0]]]) == EXIT_OK


@pytest.mark.parametrize("mode", [["--emit", "Q8"],
                                  ["--emit-factorization", "C2", "Q8"]])
@pytest.mark.parametrize("flag", [["--p", "3"], ["--max-order", "4"]])
def test_emit_refuses_listing_filters(tmp_path, capsys, mode, flag):
    out = tmp_path / "fx.json"
    argv = ["catalog", *mode, "--out", str(out)]
    assert run(argv + flag) == EXIT_PARSE
    assert capsys.readouterr().err.endswith(
        f"error: catalog {mode[0]} does not read {flag[0]}\n")
    assert not out.exists()
    assert run(argv) == EXIT_OK


def test_emit_modes_exclude_each_other(tmp_path):
    out = tmp_path / "fx.json"
    assert run(["catalog", "--emit", "Q8", "--emit-factorization", "C2",
                "Q8", "--out", str(out)]) == EXIT_PARSE
    assert not out.exists()


def test_recover_requires_factorization(tmp_path):
    fx = tmp_path / "plain.json"
    assert run(["catalog", "--emit", "C4", "--out", str(fx)]) == EXIT_OK
    assert run(["recover", "--input", str(fx)]) == EXIT_PARSE


def test_parse_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["lemmas", "--input", str(bad)]) == EXIT_PARSE
    assert run(["bogus-subcommand"]) == EXIT_PARSE
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"format": 1, "p": 2}))
    assert run(["lemmas", "--input", str(missing)]) == EXIT_PARSE
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b"\x80")
    assert run(["lemmas", "--input", str(not_utf8)]) == EXIT_PARSE
    # --seed is no flag, so even --seed 0 is a parse error
    assert run(["recover", "--input", str(bad), "--seed", "0"]) == EXIT_PARSE
    for out in (tmp_path, tmp_path / "missing" / "report.json"):
        assert run(["catalog", "--out", str(out)]) == EXIT_PARSE
        assert run(["catalog", "--emit", "C2", "--out", str(out)]) == \
            EXIT_PARSE


_TOP_USAGE = """\
usage: pgroupalg [-h]
                 {catalog,lemmas,cyclic-factor,certify,oracle,recover} ...
"""
_COMMON_OPTIONS = """\
options:
  -h, --help            show this help message and exit
  --p {2,3,5}
  --input INPUT         group JSON file (repeatable)
  --catalog CATALOG     built-in group name (repeatable)
  --max-order MAX_ORDER
  --oracle-cap ORACLE_CAP
  --out OUT             report output path
"""

# (exit code, stdout, stderr) of each argv, recorded when every run built
# the parser of all commands; at 80 columns, as Python 3.11's argparse
# spells them
USAGE_TEXT = {
    ("--help",): (EXIT_OK, _TOP_USAGE + """
Exact computations in modular group algebras of finite p-groups

positional arguments:
  {catalog,lemmas,cyclic-factor,certify,oracle,recover}
    catalog             list built-in groups or emit fixtures

options:
  -h, --help            show this help message and exit
""", ""),
    ("bogus",): (EXIT_PARSE, "", _TOP_USAGE + (
        "pgroupalg: error: argument command: invalid choice: 'bogus' "
        "(choose from 'catalog', 'lemmas', 'cyclic-factor', 'certify', "
        "'oracle', 'recover')\n")),
    (): (EXIT_PARSE, "", _TOP_USAGE + (
        "pgroupalg: error: the following arguments are required: "
        "command\n")),
    ("lemmas", "--bogus"): (EXIT_PARSE, "", _TOP_USAGE + (
        "pgroupalg: error: unrecognized arguments: --bogus\n")),
    ("lemmas", "--help"): (EXIT_OK, """\
usage: pgroupalg lemmas [-h] [--p {2,3,5}] [--input INPUT] [--catalog CATALOG]
                        [--max-order MAX_ORDER] [--oracle-cap ORACLE_CAP]
                        [--out OUT]

""" + _COMMON_OPTIONS, ""),
    ("oracle", "--p", "7"): (EXIT_PARSE, "", """\
usage: pgroupalg oracle [-h] [--p {2,3,5}] [--input INPUT] [--catalog CATALOG]
                        [--max-order MAX_ORDER] [--oracle-cap ORACLE_CAP]
                        [--out OUT]
pgroupalg oracle: error: argument --p: invalid choice: 7 (choose from 2, 3, 5)
"""),
    ("catalog", "--emit", "D8", "--emit-factorization", "C2", "C2"): (
        EXIT_PARSE, "", """\
usage: pgroupalg catalog [-h] [--p {2,3,5}] [--input INPUT]
                         [--catalog CATALOG] [--max-order MAX_ORDER]
                         [--oracle-cap ORACLE_CAP] [--out OUT]
                         [--emit NAME | --emit-factorization A G0]
pgroupalg catalog: error: argument --emit-factorization: not allowed with \
argument --emit
"""),
}


@pytest.mark.parametrize("argv", USAGE_TEXT,
                         ids=lambda argv: " ".join(argv) or "no-words")
def test_usage_and_help_text_is_pinned(capsys, monkeypatch, argv):
    # a command's run builds only its own parser; a word that is no
    # command, or none, builds all of them
    monkeypatch.setenv("COLUMNS", "80")
    code = run(list(argv))
    out, err = capsys.readouterr()
    assert (code, out, err) == USAGE_TEXT[argv]


def test_schema_rejects_broken_table(tmp_path):
    G = catalog_by_name("C4")
    data = group_to_dict(G)
    data["table"][2][2], data["table"][2][3] = \
        data["table"][2][3], data["table"][2][2]
    with pytest.raises(SchemaError):
        group_from_dict(data)
    fx = tmp_path / "broken.json"
    fx.write_text(json.dumps(data))
    assert run(["lemmas", "--input", str(fx)]) == EXIT_PARSE


def test_entries_past_int64_exit_as_a_parse_error(tmp_path, capsys):
    # a valid C3xC3 factorization, B = F_3<1> with the unit rows of
    # {0, 1, 2}, C with those of {0, 3, 6}; each B entry plus 3 * 2^62,
    # the same residue mod 3, puts them all in [2^63, 2^64), which numpy
    # reads as uint64: refused like every integer outside int64, rather
    # than wrapped to x - 2^64, another residue mod 3
    data = group_to_dict(catalog_by_name("C3xC3"))
    unit_rows = np.eye(9, dtype=int)
    data["factorization"] = {"B": unit_rows[[0, 1, 2]].tolist(),
                             "C": unit_rows[[0, 3, 6]].tolist()}
    fx = tmp_path / "c3xc3.json"
    fx.write_text(json.dumps(data))
    assert run(["recover", "--input", str(fx),
                "--out", str(tmp_path / "r.json")]) == EXIT_OK
    data["factorization"]["B"] = [[x + 3 * 2 ** 62 for x in row]
                                  for row in data["factorization"]["B"]]
    with pytest.raises(SchemaError, match="factorization B must be a list"):
        group_from_dict(data)
    fx.write_text(json.dumps(data))
    assert run(["recover", "--input", str(fx)]) == EXIT_PARSE
    assert "factorization B must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("B, check", [
    # span{1, g} is not multiplicatively closed in F_2 C4 (g^2 is missing)
    ([[1, 0, 0, 0], [0, 1, 0, 0]], "subalgebra-closure"),
    # span{1 + g} does not hold the unit
    ([[1, 1, 0, 0]], "subalgebra-unit")], ids=["not-closed", "no-unit"])
def test_bad_factorization_is_a_named_check(tmp_path, capsys, B, check):
    data = group_to_dict(catalog_by_name("C4"))
    data["factorization"] = {"B": B, "C": [[1, 0, 0, 0], [0, 0, 1, 0]]}
    with pytest.raises(VerificationError) as info:
        group_from_dict(data)
    assert info.value.check == check
    fx = tmp_path / "bad.json"
    fx.write_text(json.dumps(data))
    for argv in (["recover", "--input", str(fx)],
                 ["lemmas", "--input", str(fx)]):
        assert run(argv + ["--out", str(tmp_path / "r.json")]) == EXIT_FAIL
        assert capsys.readouterr().err.startswith(f"check failed: {check}: ")
        assert not (tmp_path / "r.json").exists()


def _is_check_name(text):
    """A VerificationError's check, as against a library error's class."""
    return (re.fullmatch(r"[A-Za-z0-9]+(-[A-Za-z0-9]+)*", text) is not None
            and not text.endswith("Error"))


def test_mutated_factorization_fails_a_named_check_or_recovers(tmp_path,
                                                               capsys):
    """One-entry flips of B or C in an emitted C4 x D8: each mutant either
    fails a named check (exit 1) or recovers, and then b_side x c_side is
    an internal direct product of the mutated file's group."""
    fx = tmp_path / "fx.json"
    assert run(["catalog", "--emit-factorization", "C4", "D8",
                "--out", str(fx)]) == EXIT_OK
    data = json.loads(fx.read_text())
    rng = np.random.default_rng(2024)
    codes = []
    for _ in range(30):
        mutant = json.loads(json.dumps(data))
        rows = mutant["factorization"]["BC"[rng.integers(2)]]
        row = rows[rng.integers(len(rows))]
        row[rng.integers(len(row))] ^= 1
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(mutant))
        (tmp_path / "report.json").unlink(missing_ok=True)
        code, body = run_to_file(tmp_path, ["recover", "--input", str(path)])
        codes.append(code)
        err = capsys.readouterr().err
        if code == EXIT_FAIL:
            text = (body["recover"][0]["error"] if body
                    else err.removeprefix("check failed: "))
            assert _is_check_name(text.split(": ")[0]), text
            continue
        assert code == EXIT_OK, err
        G, _, _ = group_from_dict(mutant)
        rec = body["recover"][0]["recovered"]
        assert is_internal_direct_product(
            G, Subgroup(G, rec["b_side"]), Subgroup(G, rec["c_side"]))
    assert EXIT_FAIL in codes  # the corpus reaches the named checks


def test_identity_reindexing():
    G = catalog_by_name("C4")
    data = group_to_dict(G)
    # permute so the identity is element 2 in the file
    perm = [2, 1, 0, 3]  # old -> new position mapping applied below
    inv = [perm.index(i) for i in range(4)]
    T = [[0] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            T[inv[a]][inv[b]] = inv[G.mul(a, b)]
    data["table"] = T
    H, _, _ = group_from_dict(data)
    assert H.mul(0, 3) == 3  # identity back at index 0
    assert sorted(H.element_order(g) for g in range(4)) == [1, 2, 4, 4]


def ref_normalize_identity(table):
    """The identity moved to index 0 and the rest kept in order, one entry
    at a time, with perm[new] = old."""
    n = len(table)
    e = next(x for x in range(n) if list(table[x]) == list(range(n))
             and [row[x] for row in table] == list(range(n)))
    perm = [e] + [x for x in range(n) if x != e]
    return [[perm.index(table[perm[a]][perm[b]]) for b in range(n)]
            for a in range(n)], perm


@pytest.mark.parametrize("name", ["C2", "D8", "C3xC3", "He3", "C4xD8"])
def test_identity_reindexing_matches_loop(name):
    G = catalog_by_name(name)
    rng = np.random.default_rng(len(name))
    for _ in range(3):
        sigma = rng.permutation(G.order)  # old label -> file label
        T = np.empty_like(G.table)
        T[np.ix_(sigma, sigma)] = sigma[G.table]
        table, perm = _normalize_identity(T)
        assert (table.tolist(), perm.tolist()) == \
            ref_normalize_identity(T.tolist())


def test_report_determinism(tmp_path):
    _, b1 = run_to_file(tmp_path, ["lemmas", "--catalog", "D8"])
    _, b2 = run_to_file(tmp_path, ["lemmas", "--catalog", "D8"])
    assert json.dumps(b1, sort_keys=True).encode() == \
        json.dumps(b2, sort_keys=True).encode()


@pytest.mark.parametrize("argv", [
    ["catalog", "--p", "3", "--max-order", "27"],
    ["catalog", "--emit", "He3"],
    ["catalog", "--emit-factorization", "C2xC4", "Q8"],
    ["lemmas", "--catalog", "D8", "--catalog", "He3"],
    ["cyclic-factor", "--catalog", "C2xD8", "--catalog", "C3xC3"],
    ["certify", "--catalog", "Q8", "--catalog", "C2xC4"],
    ["oracle", "--catalog", "C2xC2xC4", "--catalog", "D8"],
    ["recover"]], ids=lambda argv: "-".join(argv[:2]))
def test_reports_are_the_bytes_of_json_dumps(tmp_path, argv):
    if argv == ["recover"]:
        fx = str(_emit_c2xc4_q8(tmp_path))
        argv = ["recover", "--input", fx, "--input", fx]
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.lists(st.integers()) | st.dictionaries(st.text(), inner),
    max_leaves=24)


@st.composite
def _shared_values(draw):
    """A value that holds the same list and tuple objects at several
    positions and depths, beside equal lists that are distinct objects:
    the shapes whose text canonical_json writes once per object and
    indent."""
    ints = draw(st.lists(st.lists(st.integers(), max_size=4), min_size=1,
                         max_size=3))
    shared = [*ints, tuple(ints[0]), [ints[0], tuple(ints[-1])],
              *(list(x) for x in ints)]
    return draw(st.recursive(
        st.sampled_from(shared) | st.integers() | st.text(max_size=2),
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=2), inner, max_size=3),
        max_leaves=16))


_A = [1, 2]


@given(_REPORT_VALUES, _shared_values())
@example({"x": _A, "y": [_A, [_A, (_A, [1, 2])]], "z": (1, 2)}, [])
def test_canonical_json_matches_json_dumps(value, shared):
    # escapes, non-ASCII text, NaN and the infinities spelled as json does;
    # one list object written at several indents, and equal lists that
    # are distinct objects
    for x in (value, shared):
        assert canonical_json(x) == json.dumps(x, sort_keys=True, indent=2)


@pytest.mark.parametrize("name", ["D6", "D12", "Q4", "C6", "Foo", "C0",
                                  "C2xC0", "D1048576", "He1000003"])
def test_unresolvable_catalog_name_exit_code(tmp_path, capsys, name):
    # C0 has no prime; D1048576 and He1000003 must be refused before
    # their tables are allocated
    code = run(["oracle", "--catalog", name, "--out", str(tmp_path / "r.json")])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "r.json").exists()


def test_unsupported_prime_input_exit_code(tmp_path, capsys):
    fx = tmp_path / "c7.json"
    fx.write_text(json.dumps({"format": 1, "p": 7, "order": 7, "name": "C7",
                              "table": [[(a + b) % 7 for b in range(7)]
                                        for a in range(7)]}))
    assert run(["lemmas", "--input", str(fx)]) == EXIT_PARSE
    assert "unsupported prime 7" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--catalog", "C64"], "C64: order 64 exceeds --max-order 32"),
    (["--catalog", "C9", "--p", "2"], "C9: p=3 does not match --p 2"),
])
def test_named_group_filtered_out_is_usage_error(tmp_path, capsys, argv,
                                                 message):
    code = run(["lemmas"] + argv + ["--out", str(tmp_path / "r.json")])
    assert code == EXIT_PARSE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["lemmas", "cyclic-factor", "certify",
                                     "oracle"])
@pytest.mark.parametrize("filters, message", [
    (["--max-order", "1"], "the filters --max-order 1"),
    (["--max-order", "0"], "the filters --max-order 0"),
    (["--p", "5", "--max-order", "4"], "the filters --p 5 --max-order 4"),
    (["--max-order", "-3"], "the filters --max-order -3"),
], ids=["max-order-1", "max-order-0", "p5-max-order-4", "max-order-neg3"])
def test_empty_builtin_selection_is_usage_error(tmp_path, capsys, command,
                                                filters, message):
    # an empty selection would otherwise report a pass over no group
    code = run([command, *filters, "--out", str(tmp_path / "r.json")])
    assert code == EXIT_PARSE
    assert f"no built-in group passes {message}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
    # the catalog listing still lists what the filters leave, here nothing
    code, body = run_to_file(tmp_path, ["catalog", *filters])
    assert code == EXIT_OK and body["catalog"] == []


def test_missing_input_file_exit_code(tmp_path):
    assert run(["lemmas", "--input", str(tmp_path / "absent.json")]) == \
        EXIT_PARSE


def test_factorization_without_c_exit_code(tmp_path):
    data = group_to_dict(catalog_by_name("C4"))
    data["factorization"] = {"B": [[1, 0, 0, 0]]}
    with pytest.raises(SchemaError, match="'B' and 'C'"):
        group_from_dict(data)
    fx = tmp_path / "no_c.json"
    fx.write_text(json.dumps(data))
    assert run(["recover", "--input", str(fx)]) == EXIT_PARSE


def test_second_run_does_not_see_first_runs_lists(tmp_path):
    fx = tmp_path / "c4.json"
    assert run(["catalog", "--emit", "C4", "--out", str(fx)]) == EXIT_OK
    code, body = run_to_file(tmp_path, ["oracle", "--catalog", "C2",
                                        "--input", str(fx)])
    assert code == EXIT_OK and len(body["oracle"]) == 2
    code, body = run_to_file(tmp_path, ["catalog", "--p", "3",
                                        "--max-order", "9"])
    assert code == EXIT_OK
    assert body["config"]["inputs"] == [] and body["config"]["catalog"] == []


def _c4_with(**fields):
    data = group_to_dict(catalog_by_name("C4"))
    data.update(fields)
    return data


@pytest.mark.parametrize("data, message", [
    (_c4_with(table=[[0, 1], [1]]), "table is not a rectangular matrix"),
    (_c4_with(table=[["0", "1", "2", "3"]] * 4), "table must be a list"),
    (_c4_with(p="2"), "field 'p' must be an integer, got '2'"),
    (_c4_with(order=4.0), "field 'order' must be an integer, got 4.0"),
    (_c4_with(factorization={"B": [[1, 0, 0, 0, 0, 0, 0, 0]],
                             "C": [[1, 0, 0, 0]]}),
     "factorization rows must have length 4"),
    # identity at index 1, so the entries would index the re-labelling
    (_c4_with(table=[[1, 0, 3, 2], [0, 1, 2, 3], [3, 2, 1, 0],
                     [2, 3, 0, 9]]), "table entries out of range"),
    (_c4_with(table=[[1, 0, 3, 2], [0, 1, 2, 3], [3, 2, 1, 0],
                     [2, 3, 0, -3]]), "table entries out of range"),
])
def test_malformed_group_file_exit_code(tmp_path, capsys, data, message):
    with pytest.raises(SchemaError, match=message):
        group_from_dict(data)
    fx = tmp_path / "malformed.json"
    fx.write_text(json.dumps(data))
    assert run(["lemmas", "--input", str(fx)]) == EXIT_PARSE
    assert message in capsys.readouterr().err


# sha256 of the canonical recover body of emitted coordinate
# factorizations past the corpora (orders 128 and 243), recorded before the
# ideals got their closed forms
LARGE_ORDER_DIGESTS = {
    ("C4xC4", "D8"):
        "d4a37d40c8c021e828f1f73cfe7d480b4b6334935387beab7b329d6d50c1138c",
    ("C2xC4", "Q16"):
        "b983ac1027b99165ec543799707b638908bd140e3b3634d05cfb0cf5c9e28b7d",
    ("C3xC3", "He3"):
        "f8142399bd5f08680808f7e91c19f613f6555fa626453bdd1b4ad0348638cd4e",
    # order 256: the abelianization C2^6 x C4 has a large subgroup lattice;
    # 1 + I(F_2[C2^6]) has 2^63 units, so an earlier search read seeded
    # samples, and this body was re-recorded from the constructed group
    # basis: only its steps' h changed, and the search oracle picks the
    # same first unit (test_kernels.py:
    # test_group_basis_is_the_search_oracles_first_unit)
    ("C2xC2xC2xC2xC2xC2", "C4"):
        "ae05b57bb645781d5efaa940b9aab76210fe0db6f7a72242ab8ef0201cd4d939",
}


@pytest.mark.parametrize("a_name, g0_name", LARGE_ORDER_DIGESTS)
def test_large_order_recovery_is_pinned(tmp_path, a_name, g0_name):
    digest = LARGE_ORDER_DIGESTS[a_name, g0_name]
    fx = tmp_path / "fx.json"
    assert run(["catalog", "--emit-factorization", a_name, g0_name,
                "--out", str(fx)]) == EXIT_OK
    code, body = run_to_file(tmp_path, ["recover", "--input", str(fx)])
    assert code == EXIT_OK
    text = json.dumps(body["recover"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# sha256 of the recover body of twisted factorizations of order 128-256:
# perfbench/fixtures.py:factorization_fixture with B twisted by a central
# unit drawn at seed 7, recorded before I(G)^m was read off the Jennings
# basis
TWISTED_DIGESTS = {
    ("C4xC4", "D8"):
        "d4a37d40c8c021e828f1f73cfe7d480b4b6334935387beab7b329d6d50c1138c",
    ("C3xC3", "He3"):
        "f8142399bd5f08680808f7e91c19f613f6555fa626453bdd1b4ad0348638cd4e",
    ("C16", "C16"):
        "24fbb4ca3d98e8e2fefa3d36092923fa844a439093db1d27b582af4f4a476d51",
}


# p = 5 bodies at order 125, recorded before the odd-p dense blocks were
# packed into integer lanes: twisted recoveries drawn as above, at seed 7,
# and the lemma checks of He5 and C5xC5xC5.  The two recoveries were
# re-recorded when the group basis came to be constructed rather than
# searched among seeded samples: only their steps' h changed, and the
# search oracle picks the same first unit (test_kernels.py:
# test_group_basis_is_the_search_oracles_first_unit)
P5_TWISTED_DIGESTS = {
    ("C5xC5", "C5"):
        "3fca5c0f93ec9caafc6d32803a0ea611cbf53720bd00b08ffda94e1e55e593d6",
    ("C25", "C5"):
        "f51e409d7715174a60d3eed81d62353ffff70dcf44dcf11e40827e5347d09e1b",
}
P5_LEMMAS_DIGEST = \
    "d0e9296aff768f1495c7911b8064468ff06c7c2a3e6f3056b8bd243c30b6d93f"


@pytest.fixture(scope="module")
def bench_fixtures():
    """perfbench/fixtures.py, imported as it is."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("fixtures")


def relabel(data, sigma):
    """The group file with element a renamed sigma[a], in its table and
    in the columns of its factorization."""
    T, out = np.asarray(data["table"]), dict(data)
    table = np.empty_like(T)
    table[np.ix_(sigma, sigma)] = sigma[T]
    out["table"] = table.tolist()
    out["factorization"] = {}
    for key, rows in data["factorization"].items():
        moved = np.empty_like(np.asarray(rows))
        moved[:, sigma] = rows
        out["factorization"][key] = moved.tolist()
    return out


def test_relabelled_factorization_recovers_the_same_factors(tmp_path,
                                                            bench_fixtures):
    # the loader moves the identity to index 0 and the factorization's
    # columns with it: every recover input of the recover and odd-p
    # workloads at seed 7, relabelled at random with the identity off
    # index 0, and coordinate C4 x C2 with its identity at index 5,
    # recover the B-side invariants and the C-side order of A x G0
    rng = np.random.default_rng(34)
    cases = [(item, data) for workload in ("recover", "odd-p")
             for item, data in bench_fixtures.workload_items(workload, 7)
             if item["command"] == "recover"]
    c4c2 = bench_fixtures.recover_item("C4", "C2", None)
    sigmas = []
    for _, data in cases:
        sigma = rng.permutation(len(data["table"]))
        if sigma[0] == 0:
            sigma[:2] = sigma[1::-1]
        sigmas.append(sigma)
    sigmas.append((np.arange(8) + 5) % 8)
    fx = tmp_path / "fx.json"
    for (item, data), sigma in zip([*cases, c4c2], sigmas):
        moved = relabel(data, sigma)
        assert sigma[0] and moved["table"][sigma[0]] == list(range(len(sigma)))
        fx.write_text(json.dumps(moved))
        code, body = run_to_file(tmp_path, ["recover", "--input", str(fx)])
        assert code == EXIT_OK, item["id"]
        got = body["recover"][0]["recovered"]
        assert (got["b_invariants"], len(got["c_side"])) == (
            item["expect"]["b_invariants"], item["expect"]["c_order"]), \
            item["id"]
    assert len(cases) >= 20 and sigmas[-1][0] == 5


@pytest.mark.parametrize("a_name, g0_name",
                         [*TWISTED_DIGESTS, *P5_TWISTED_DIGESTS])
def test_twisted_large_order_recovery_is_pinned(tmp_path, bench_fixtures,
                                                a_name, g0_name):
    data, twist = bench_fixtures.factorization_fixture(
        a_name, g0_name, np.random.default_rng(7))
    assert twist["w"] is not None
    fx = tmp_path / "fx.json"
    fx.write_text(json.dumps(data))
    code, body = run_to_file(tmp_path, ["recover", "--input", str(fx)])
    assert code == EXIT_OK
    text = json.dumps(body["recover"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        {**TWISTED_DIGESTS, **P5_TWISTED_DIGESTS}[a_name, g0_name]


def test_p5_lemmas_at_order_125_are_pinned(tmp_path):
    code, body = run_to_file(tmp_path, ["lemmas", "--catalog", "He5",
                                        "--catalog", "C5xC5xC5",
                                        "--max-order", "125"])
    assert code == EXIT_OK
    text = json.dumps(body["lemmas"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == P5_LEMMAS_DIGEST


def test_sampled_unit_search_recovery_is_pinned(tmp_path):
    # 1 + I(C9xC3) at p = 3 has 3^26 units, past the 2^22 at which an
    # earlier search read seeded samples; re-recorded from the constructed
    # group basis, whose first unit the search oracle picks too
    # (test_kernels.py:test_group_basis_is_the_search_oracles_first_unit)
    fx = tmp_path / "fx.json"
    assert run(["catalog", "--emit-factorization", "C9xC3", "C3",
                "--out", str(fx)]) == EXIT_OK
    code, body = run_to_file(tmp_path, ["recover", "--input", str(fx)])
    assert code == EXIT_OK
    text = json.dumps(body["recover"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "d464fc85b97d5e603557066792881e474a93a70080b45d90468f82666afbf966"


# sha256 of the canonical body of each lattice command, recorded before
# centrality became a boolean product and certify read d off the Jennings
# basis: over the 26 p = 2 groups of the benchmark's lattice workload (one
# --input file each, in its order) and over the p = 3 catalog to order 27
LATTICE_DIGESTS = {
    ("cyclic-factor", "bench-p2"):
        "2f217210a7f35493c79429c1c2ddcb39463a836f4fb6f507d0ead7f68b9d2246",
    ("cyclic-factor", "p3"):
        "7a24c88f5b8a3f8dcf35558e8a83649f08caa9a8d8f25670fe3a616b90a6147e",
    ("certify", "bench-p2"):
        "b1631aca657909a85ade0d6b2c53de042c071ca89eb70d79e7824e34dc475664",
    ("certify", "p3"):
        "bb0ded68ed350a36b06e92b1e13d6c2176a183d00ef84cf8aca6797be2663a43",
    ("oracle", "bench-p2"):
        "85d5b03845859c630b7fe49715c7ab45465b33398f1badd9c7615242b9fe0268",
    ("oracle", "p3"):
        "bf9b42b8f143a39c208a5ed7ddb7f3b4178de8b7d28cdf8b0a3c15ef5240409a",
}


@pytest.fixture(scope="module")
def bench_lattice_files(bench_fixtures, tmp_path_factory):
    """The group file of each p = 2 group of the benchmark's lattice
    workload, in its order."""
    out = tmp_path_factory.mktemp("lattice")
    files = []
    for item, data in bench_fixtures.workload_items("lattice", 0):
        if item["command"] == "cyclic-factor":
            files.append(out / f"{len(files)}.json")
            files[-1].write_text(json.dumps(data))
    assert len(files) == 26
    return files


@pytest.mark.parametrize("command, groups", LATTICE_DIGESTS)
def test_lattice_bodies_are_pinned(tmp_path, bench_lattice_files, command,
                                   groups):
    argv = (["--p", "3", "--max-order", "27"] if groups == "p3" else
            [arg for path in bench_lattice_files
             for arg in ("--input", str(path))])
    code, body = run_to_file(tmp_path, [command, *argv])
    assert code == EXIT_OK
    text = json.dumps(body[command.replace("-", "_")], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        LATTICE_DIGESTS[command, groups]


# sha256 of the canonical oracle body of a large lattice, recorded when
# every pair held its own copy of its factors' lists: C2^5 has 10,416
# pairs over 372 factors
ORACLE_DIGESTS = {
    ("C2xC2xC2xC2xC2", "32"):
        "984e3a6e361be7cc9db4d455a1476b1fd03cdb17cfec133bac06d5decb8d2570",
    ("C2xC2xC4xC4", "64"):
        "f69c7a57023999be6555d4121aa74fbfbbe5f53aade02168f9491533df9cb573",
}


@pytest.mark.parametrize("name, max_order", ORACLE_DIGESTS)
def test_oracle_bodies_are_pinned(tmp_path, name, max_order):
    out = tmp_path / "report.json"
    assert run(["oracle", "--catalog", name, "--max-order", max_order,
                "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
    digest = json.dumps(report["body"]["oracle"], sort_keys=True)
    assert hashlib.sha256(digest.encode()).hexdigest() == \
        ORACLE_DIGESTS[name, max_order]


def test_oracle_report_memory_is_bounded(tmp_path):
    # 14.9 MB when each pair copied its factors' lists; a memo that kept
    # the text of the pairs too would take 22.6 MB
    tracemalloc.start()
    try:
        assert run(["oracle", "--catalog", "C2xC2xC2xC2xC2",
                    "--out", str(tmp_path / "r.json")]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14.9e6


def test_recover_at_order_243(tmp_path):
    # 1 + I(F_3[C9xC3]) has 3^26 units, beside C3xC3 at order 243: the
    # group basis is constructed, so this recovery takes about a second
    fx = tmp_path / "fx.json"
    assert run(["catalog", "--emit-factorization", "C9xC3", "C3xC3",
                "--out", str(fx)]) == EXIT_OK
    code, body = run_to_file(tmp_path, ["recover", "--input", str(fx)])
    assert code == EXIT_OK
    assert body["recover"][0]["recovered"]["b_invariants"] == [9, 3]


_NO_MASKED_ARRAYS = """
import json
import sys
from pgroupalg.cli import run
from pgroupalg.decompose import find_group_basis_commutative
from pgroupalg.io import group_from_dict
out, fx = sys.argv[1], sys.argv[2]
assert run(["catalog", "--emit-factorization", "C2xC4", "Q8",
            "--out", fx]) == 0
for argv in (["lemmas", "--catalog", "D8", "--catalog", "He3"],
             ["recover", "--input", fx],
             ["certify", "--catalog", "Q8"],
             ["oracle", "--catalog", "C2xD8"],
             ["cyclic-factor", "--catalog", "C2xC4"]):
    assert run(argv + ["--out", out]) == 0, argv
_, B, _ = group_from_dict(json.load(open(fx)))
assert find_group_basis_commutative(B)
print("numpy.ma" in sys.modules)
"""


def test_commands_do_not_import_masked_arrays(tmp_path):
    # np.unique without return_index imports numpy.ma on its first call,
    # about 9 ms of every process's first item
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAYS, str(tmp_path / "r.json"),
         str(tmp_path / "fx.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# -- no input ends in a traceback -------------------------------------------

def _cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-2, 2)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["p", "order", "table", "B", "C", "x"]),
                      inner, max_size=3),
    max_leaves=8)


@st.composite
def group_files(draw):
    """The bytes of a small group file, mostly malformed: raw bytes, any
    JSON value, or the cyclic group of order n <= 5 with any of these
    drawn: one table entry, the prime, the order, a factorization block,
    and one field replaced by any JSON value."""
    kind = draw(st.sampled_from(["bytes", "json", "group"]))
    if kind == "bytes":
        return draw(st.binary(max_size=24))
    if kind == "json":
        return json.dumps(draw(_JSON)).encode()
    n = draw(st.integers(1, 5))
    p = {1: 2, 2: 2, 3: 3, 4: 2, 5: 5}[n]
    table = _cyclic_table(n)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j] = draw(st.integers(-1, n))
    data = {"format": 1, "p": draw(st.just(p) | st.sampled_from([0, 3, 4])),
            "order": draw(st.just(n) | st.integers(-1, 6)), "table": table,
            "name": "drawn"}
    if draw(st.booleans()):
        rows = st.lists(st.lists(st.integers(-1, p), min_size=n, max_size=n),
                        min_size=1, max_size=3)
        data["factorization"] = {
            "B": draw(st.just([[1] + [0] * (n - 1)]) | rows),
            "C": draw(st.just(np.eye(n, dtype=int).tolist()) | rows)}
    if draw(st.booleans()):
        data[draw(st.sampled_from(list(data)))] = draw(_JSON)
    return json.dumps(data).encode()


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Paths for --input and --out: a valid factorization of C2 x C2, the
    file each example draws, a directory and paths that do not exist."""
    d = tmp_path_factory.mktemp("argv")
    assert run(["catalog", "--emit-factorization", "C2", "C2",
                "--out", str(d / "good.json")]) == EXIT_OK
    return {"good": str(d / "good.json"), "drawn": str(d / "drawn.json"),
            "dir": str(d), "missing": str(d / "missing" / "x.json"),
            "out": str(d / "out.json")}


def _flags(paths):
    path = st.sampled_from([paths[k] for k in
                            ("good", "drawn", "dir", "missing")])
    out = st.sampled_from([paths[k] for k in ("out", "dir", "missing")])
    name = st.sampled_from(["C2", "C4", "Q8", "C3", "C5", "C2xC2", "nope",
                            "C0", "D1048576", "M125"])
    return st.one_of(
        st.tuples(st.just("--p"), st.sampled_from(["2", "3", "5", "7", "x"])),
        st.tuples(st.just("--input"), path),
        st.tuples(st.just("--catalog"), name),
        st.tuples(st.just("--max-order"), st.sampled_from(["-1", "0", "4",
                                                           "8"])),
        st.tuples(st.just("--oracle-cap"), st.sampled_from(["-1", "0",
                                                            "64"])),
        st.tuples(st.just("--seed"), st.sampled_from(["-1", "0", "7"])),
        st.tuples(st.just("--emit"), name),
        st.tuples(st.just("--emit-factorization"), name, name),
        st.tuples(st.just("--out"), out),
        st.tuples(st.sampled_from(["--workers", "--help", "-x"])))


@settings(max_examples=150)
@given(data=st.data())
def test_no_input_ends_in_a_traceback(argv_files, data):
    command = data.draw(st.sampled_from([*COMMANDS, "nope"]), label="command")
    drawn = ["--input", argv_files["drawn"]] \
        if data.draw(st.booleans(), label="reads the drawn file") else []
    flags = data.draw(st.lists(_flags(argv_files), max_size=3),
                      label="flags")
    argv = [command] + drawn + [tok for flag in flags for tok in flag]
    if command != "recover" and not {"--input", "--catalog"} & set(argv):
        # the whole catalog to order 32 takes seconds per command
        argv += ["--max-order", "4"]
    with open(argv_files["drawn"], "wb") as fh:
        fh.write(data.draw(group_files(), label="drawn file"))
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    finally:  # no example reads what an earlier one wrote
        for written in ("drawn", "out"):
            Path(argv_files[written]).unlink(missing_ok=True)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_PARSE, EXIT_CAP)
