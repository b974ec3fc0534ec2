"""Command-line interface: subcommands, exit codes, report determinism,
schema validation."""

import hashlib
import json

import numpy as np
import pytest

import pgroupalg.decompose as decompose
import pgroupalg.groups as groups
from pgroupalg.algebra import (AlgebraError, AugmentedSubalgebra,
                               EnumerationCapExceeded)
from pgroupalg.catalog import catalog_by_name
from pgroupalg.cli import EXIT_CAP, EXIT_FAIL, EXIT_OK, EXIT_PARSE, run
from pgroupalg.io import (SchemaError, _normalize_identity, group_from_dict,
                          group_to_dict)


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


class _ProjectionFails(AugmentedSubalgebra):
    @classmethod
    def from_space(cls, ctx, space):
        raise AlgebraError("projected B is not an augmented subalgebra")


@pytest.mark.parametrize("patch, error", [
    ((groups, "_abelian_basis", _no_complement),
     "GroupError: no complement found for a maximal cyclic factor"),
    ((decompose, "AugmentedSubalgebra", _ProjectionFails),
     "AlgebraError: projected B is not an augmented subalgebra")])
def test_recover_library_error_is_a_failed_input(tmp_path, monkeypatch,
                                                 patch, error):
    fx = _emit_c2xc4_q8(tmp_path)
    monkeypatch.setattr(*patch)
    code, body = run_to_file(tmp_path, ["recover", "--input", str(fx)])
    assert code == EXIT_FAIL
    assert body["recover"] == [{"group": body["recover"][0]["group"],
                                "error": error, "pass": False}]


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


def test_recover_enumeration_cap_still_exits_3(tmp_path, monkeypatch):
    fx = _emit_c2xc4_q8(tmp_path)

    def capped(B, seed=0):
        raise EnumerationCapExceeded("too many units")
    monkeypatch.setattr(decompose, "find_group_basis_commutative", capped)
    code = run(["recover", "--input", str(fx),
                "--out", str(tmp_path / "r.json")])
    assert code == EXIT_CAP


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


@pytest.mark.parametrize("flag", [["--workers", "2"], ["--enum-cap", "5"]])
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


@pytest.mark.parametrize("command, flag", [
    ("catalog", ["--input", "missing.json"]),
    ("catalog", ["--catalog", "Q8"]),
    ("catalog", ["--seed", "1"]),
    ("catalog", ["--oracle-cap", "1"]),
    ("recover", ["--p", "3"]),
    ("recover", ["--max-order", "4"]),
    ("recover", ["--oracle-cap", "1"]),
    ("lemmas", ["--seed", "1"]),
    ("lemmas", ["--oracle-cap", "1"]),
    ("cyclic-factor", ["--seed", "1"]),
    ("certify", ["--seed", "1"]),
    ("oracle", ["--seed", "1"]),
])
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
    default = {"--seed": "0", "--oracle-cap": "64", "--max-order": "32"}
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


def test_schema_rejects_bad_factorization(tmp_path):
    G = catalog_by_name("C4")
    data = group_to_dict(G)
    # span{1, g} is not multiplicatively closed in F_2 C4 (g^2 is missing)
    data["factorization"] = {"B": [[1, 0, 0, 0], [0, 1, 0, 0]],
                             "C": [[1, 0, 0, 0], [0, 0, 1, 0]]}
    with pytest.raises(SchemaError):
        group_from_dict(data)


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
    at a time."""
    n = len(table)
    e = next(x for x in range(n) if list(table[x]) == list(range(n))
             and [row[x] for row in table] == list(range(n)))
    perm = [e] + [x for x in range(n) if x != e]
    return [[perm.index(table[perm[a]][perm[b]]) for b in range(n)]
            for a in range(n)]


@pytest.mark.parametrize("name", ["C2", "D8", "C3xC3", "He3", "C4xD8"])
def test_identity_reindexing_matches_loop(name):
    G = catalog_by_name(name)
    rng = np.random.default_rng(len(name))
    for _ in range(3):
        sigma = rng.permutation(G.order)  # old label -> file label
        T = np.empty_like(G.table)
        T[np.ix_(sigma, sigma)] = sigma[G.table]
        assert _normalize_identity(T).tolist() == \
            ref_normalize_identity(T.tolist())


def test_report_determinism(tmp_path):
    _, b1 = run_to_file(tmp_path, ["lemmas", "--catalog", "D8", "--seed", "0"])
    _, b2 = run_to_file(tmp_path, ["lemmas", "--catalog", "D8", "--seed", "0"])
    assert json.dumps(b1, sort_keys=True).encode() == \
        json.dumps(b2, sort_keys=True).encode()


@pytest.mark.parametrize("name", ["D6", "D12", "Q4", "C6", "Foo"])
def test_unresolvable_catalog_name_exit_code(tmp_path, capsys, name):
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
