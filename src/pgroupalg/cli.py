"""Command-line front end: batch verification, decomposition runs and
machine-readable JSON reports.

Exit codes: 0 all checks passed, 1 check failure, 2 parse/usage error,
3 oracle cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

from . import __version__
from .algebra import AlgebraContext, AlgebraError, group_algebra_subalgebra
from .catalog import CatalogNameError, builtin_catalog, catalog_by_name
from .decompose import certify_indecomposable, recover_decomposition
from .fplin import FpError
from .groups import (GroupError, OracleCapExceeded, catalog_build,
                     cyclic_factor_orders, direct_factor_oracle,
                     subgroup_invariants)
from .io import (SchemaError, canonical_json, dump_report, group_fingerprint,
                 group_to_dict, load_inputs)
from .lemmas import (VerificationError, cyclic_factor_test,
                     lemma_identity_check, verify_tensor_factorization)

EXIT_OK, EXIT_FAIL, EXIT_PARSE, EXIT_CAP = 0, 1, 2, 3
# a library check that failed without a VerificationError name
LIBRARY_ERRORS = (GroupError, AlgebraError, FpError)


def _failure(exc: Exception) -> str:
    """A failed check as text: a VerificationError names its check, a
    library error by its class."""
    if isinstance(exc, VerificationError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


class UsageError(ValueError):
    """Arguments that contradict each other."""


# The common flags with their defaults, and the ones each mode reads: a
# command, or catalog in one of its emitting modes.  A mode refuses a
# non-default value of any other, which it would echo into config or
# ignore.
COMMON_DEFAULTS = {"p": None, "input": [], "catalog": [], "max_order": 32,
                   "oracle_cap": 64}
_SELECTION = ("p", "input", "catalog", "max_order")
READS = {
    "catalog": ("p", "max_order"),
    "catalog --emit": (),
    "catalog --emit-factorization": (),
    "lemmas": _SELECTION,
    "cyclic-factor": (*_SELECTION, "oracle_cap"),
    "certify": (*_SELECTION, "oracle_cap"),
    "oracle": (*_SELECTION, "oracle_cap"),
    "recover": ("input",),
}


@functools.cache
def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, built once per process for the one command
    it parses, or for all of them when command is None.  Either tree
    spells usage and help alike: the subcommand metavar names every
    command, and a word that is no command goes to the full tree, whose
    errors name its choices.  Parsing does not change a parser: the
    append actions copy their default list before appending."""
    ap = argparse.ArgumentParser(
        prog="pgroupalg",
        description="Exact computations in modular group algebras of finite p-groups")
    # the metavar would rename the action in the full tree's errors
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)

    def common(sp):
        d = COMMON_DEFAULTS
        sp.add_argument("--p", type=int, default=d["p"], choices=(2, 3, 5))
        sp.add_argument("--input", action="append", default=d["input"],
                        help="group JSON file (repeatable)")
        sp.add_argument("--catalog", action="append", default=d["catalog"],
                        help="built-in group name (repeatable)")
        sp.add_argument("--max-order", type=int, default=d["max_order"])
        sp.add_argument("--oracle-cap", type=int, default=d["oracle_cap"])
        sp.add_argument("--out", default=None, help="report output path")

    for name in COMMANDS if command is None else (command,):
        if name != "catalog":
            common(sub.add_parser(name))
            continue
        sp = sub.add_parser(
            "catalog", help="list built-in groups or emit fixtures")
        common(sp)
        emit = sp.add_mutually_exclusive_group()
        emit.add_argument("--emit", default=None, metavar="NAME",
                          help="write the named group as JSON")
        emit.add_argument("--emit-factorization", nargs=2, default=None,
                          metavar=("A", "G0"),
                          help="emit A x G0 with the coordinate factorization")
    return ap


def _mode(args) -> str:
    """The key of READS that args run in."""
    if args.command == "catalog" and args.emit_factorization:
        return "catalog --emit-factorization"
    if args.command == "catalog" and args.emit:
        return "catalog --emit"
    return args.command


def _check_flags(args) -> None:
    """Refuse a common flag that the mode does not read."""
    mode = _mode(args)
    for flag, default in COMMON_DEFAULTS.items():
        if flag not in READS[mode] and getattr(args, flag) != default:
            raise UsageError(f"{mode} does not read "
                             f"--{flag.replace('_', '-')}")


def _selected_groups(args):
    """(G, B, C) for every group a command runs on.

    --p and --max-order filter the built-in catalog; a filter that leaves
    it empty, or a group named by --input or --catalog that fails either
    one, is a usage error, so that a run never passes by checking
    nothing."""
    if not args.input and not args.catalog:
        groups = builtin_catalog(p=args.p, max_order=args.max_order)
        if not groups:
            only_p = "" if args.p is None else f"--p {args.p} "
            raise UsageError("no built-in group passes the filters "
                             f"{only_p}--max-order {args.max_order}")
        return [(G, None, None) for G in groups]
    named = [(path, load_inputs(path)) for path in args.input]
    named += [(name, (catalog_by_name(name), None, None))
              for name in args.catalog]
    for label, (G, _, _) in named:
        if args.p is not None and G.p != args.p:
            raise UsageError(f"{label}: p={G.p} does not match --p {args.p}")
        if G.order > args.max_order:
            raise UsageError(f"{label}: order {G.order} exceeds "
                             f"--max-order {args.max_order}")
    return [item for _, item in named]


def _write_output(args, text: str) -> None:
    """text to the --out path, or to stdout without one; a path that
    cannot be written is a usage error."""
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"--out {args.out}: cannot write "
                         f"({exc.strerror})") from exc


def _write_fixture(args, data: dict) -> None:
    """Emitted fixtures are plain group files, not report envelopes, so
    they can be fed straight back through --input."""
    _write_output(args, canonical_json(data) + "\n")


def cmd_catalog(args) -> tuple[int, dict]:
    if args.emit_factorization:
        a_name, g0_name = args.emit_factorization
        A = catalog_by_name(a_name)
        G0 = catalog_by_name(g0_name)
        try:
            G = catalog_build("direct_product", A, G0)
        except GroupError as exc:
            raise CatalogNameError(f"{a_name} x {g0_name}: {exc}") from exc
        ctx = AlgebraContext.of(G)
        B = group_algebra_subalgebra(
            ctx, [a * G0.order for a in range(A.order)])
        C = group_algebra_subalgebra(ctx, list(range(G0.order)))
        _write_fixture(args, group_to_dict(G, B.space, C.space))
        return EXIT_OK, None
    if args.emit:
        _write_fixture(args, group_to_dict(catalog_by_name(args.emit)))
        return EXIT_OK, None
    entries = [group_fingerprint(G)
               for G in builtin_catalog(p=args.p, max_order=args.max_order)]
    return EXIT_OK, {"catalog": entries}


def _lemmas(G, args) -> dict:
    smax = round(math.log(G.exponent(), G.p)) or 1
    reports = []
    for i in range(1, smax + 1):
        reports.append(lemma_identity_check(G, 1, i).to_json())
        reports.append(lemma_identity_check(G, 2, i).to_json())
        for j in range(1, smax + 1):
            reports.append(lemma_identity_check(G, 3, i, j).to_json())
    return {"group": group_fingerprint(G), "reports": reports,
            "pass": all(r["equal"] for r in reports)}


def _cyclic_factor(G, args) -> dict:
    smax = round(math.log(G.exponent(), G.p)) or 1
    rows = []
    orders = None
    for i in range(1, smax + 1):
        has, exponent = cyclic_factor_test(G, i)
        if orders is None:  # one oracle split per group, after test i=1
            orders = cyclic_factor_orders(G, cap=args.oracle_cap)
        oracle = G.p ** i in orders
        rows.append({"i": i, "criterion": has, "oracle": oracle,
                     "exponent": int(exponent), "agree": has == oracle})
    return {"group": group_fingerprint(G), "tests": rows,
            "pass": all(r["agree"] for r in rows)}


def _certify(G, args) -> dict:
    cert = certify_indecomposable(G, oracle_cap=args.oracle_cap)
    return {"group": group_fingerprint(G), "certificate": cert.to_json()}


def _oracle(G, args) -> dict:
    """Every direct decomposition G = H x K with both factors' elements
    and, for an abelian factor, its invariants.

    The pairs use few distinct factors (C2^5 has 10,416 pairs over 372),
    and _direct_pairs yields one Subgroup object per lattice entry.  So
    each factor's element list and invariants are built once, keyed by
    that object's id (the pairs keep it alive) rather than by its hash,
    which hashes the elements, and the invariants of all factors come
    from one batch.  Every pair holding a factor shares its lists, and
    canonical_json writes each list once."""
    pairs = direct_factor_oracle(G, cap=args.oracle_cap)
    factors = list({id(S): S for pair in pairs for S in pair}.values())
    lists = {id(S): (list(S.elements), None if invs is None else list(invs))
             for S, invs in zip(factors, subgroup_invariants(G, factors))}
    dumped = []
    for H, K in pairs:
        (h, h_invs), (k, k_invs) = lists[id(H)], lists[id(K)]
        dumped.append({"H": h, "K": k, "H_invariants": h_invs,
                       "K_invariants": k_invs})
    return {"group": group_fingerprint(G),
            "decomposable": bool(pairs), "pairs": dumped}


# command -> (body key, per-group entry); an entry without "pass" cannot fail
GROUP_COMMANDS = {
    "lemmas": ("lemmas", _lemmas),
    "cyclic-factor": ("cyclic_factor", _cyclic_factor),
    "certify": ("certify", _certify),
    "oracle": ("oracle", _oracle),
}


def cmd_groups(args) -> tuple[int, dict]:
    """One of GROUP_COMMANDS over every selected group."""
    key, entry = GROUP_COMMANDS[args.command]
    results = [entry(G, args) for G, _, _ in _selected_groups(args)]
    ok = all(r.get("pass", True) for r in results)
    return (EXIT_OK if ok else EXIT_FAIL), {key: results}


def cmd_recover(args) -> tuple[int, dict]:
    """Every --input factorization; unlike the group commands it reads
    neither --p nor --max-order, so any supported order can be recovered."""
    if not args.input:
        raise UsageError("recover needs at least one --input")
    results = []
    ok = True
    for path in args.input:
        G, B, C = load_inputs(path)
        if B is None or C is None:
            raise SchemaError(f"{path}: no factorization block")
        ctx = B.ctx
        try:
            fact = verify_tensor_factorization(ctx, B, C)
            report = recover_decomposition(fact)
            results.append({"group": group_fingerprint(G),
                            "recovered": report.to_json(), "pass": True})
        except (VerificationError, *LIBRARY_ERRORS) as exc:
            ok = False
            results.append({"group": group_fingerprint(G),
                            "error": _failure(exc), "pass": False})
    return (EXIT_OK if ok else EXIT_FAIL), {"recover": results}


COMMANDS = {
    "catalog": cmd_catalog,
    **dict.fromkeys(GROUP_COMMANDS, cmd_groups),
    "recover": cmd_recover,
}


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = _parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    t0 = time.monotonic()
    try:
        _check_flags(args)
        code, body = COMMANDS[args.command](args)
        if body is not None:
            elapsed = time.monotonic() - t0
            body = {"format": 1,
                    "tool": {"name": "pgroupalg", "version": __version__},
                    "command": args.command,
                    "config": {
                        "p": args.p, "max_order": args.max_order,
                        "oracle_cap": args.oracle_cap,
                        "inputs": list(args.input),
                        "catalog": list(args.catalog),
                        # read by no command, echoed so bodies keep bytes
                        "enum_cap": 2 ** 22, "seed": 0,
                    },
                    **body}
            _write_output(args, dump_report(body,
                                            {"seconds": round(elapsed, 3)}))
    except (SchemaError, CatalogNameError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OracleCapExceeded as exc:  # a GroupError, so caught first
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (VerificationError, *LIBRARY_ERRORS) as exc:
        print(f"check failed: {_failure(exc)}", file=sys.stderr)
        return EXIT_FAIL
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
