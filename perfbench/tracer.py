"""Outside-in layer tracer for the benchmark's traced pass.

Wraps public functions of ``pgroupalg`` from outside: every module binding
of a wrapped function is replaced (``product_space`` is bound in
``algebra``, ``decompose`` and ``lemmas``), and methods are replaced on
their class.  Library code is not changed.

Calls that can contain other wrapped calls become spans on a span stack;
a span's self time is its duration minus the time of the wrapped calls
inside it.  Hot leaf calls (``multiply`` runs hundreds of thousands of
times on unit-heavy items) only add to per-name totals and to their
parent's child time.  Counters are derived from arguments and results.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import pgroupalg.algebra as algebra
import pgroupalg.cli as cli
import pgroupalg.decompose as decompose
import pgroupalg.fplin as fplin
import pgroupalg.groups as groups
import pgroupalg.io as io
import pgroupalg.lemmas as lemmas

MODULES = ("fplin", "algebra", "groups", "lemmas", "decompose", "io", "cli")

# (module, function) pairs wrapped as spans
SPAN_FUNCTIONS = {
    fplin: ("nullspace", "solve"),
    algebra: ("product_space", "power_space", "ideal_generated",
              "right_ideal", "omega_central", "mho_ideal_mod_derived",
              "normal_subgroup_ideal", "unit_exponent_commutative"),
    groups: ("all_subgroups", "direct_factor_oracle", "subgroup_to_pgroup",
             "characteristic_subgroup", "quotient_group",
             "retraction_complement"),
    lemmas: ("lemma_identity_check", "cyclic_factor_test",
             "verify_tensor_factorization"),
    decompose: ("recover_decomposition", "lambda_map", "split_cyclic",
                "find_group_basis_commutative", "certify_indecomposable"),
    io: ("load_inputs", "group_fingerprint", "dump_report"),
    cli: ("run",),
}
# leaf calls: no wrapped call inside, aggregated only
LEAF_FUNCTIONS = {fplin: ("rref",)}
# (class, method, metric name)
LEAF_METHODS = (
    (fplin.FpSubspace, "reduce", "fplin.reduce"),
    (algebra.AlgebraContext, "multiply", "algebra.multiply"),
    (algebra.AlgebraContext, "__init__", "algebra.context_init"),
    (groups.PGroup, "__post_init__", "groups.pgroup_build"),
)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.active = defaultdict(int)
        self.child_s = [0.0]          # child time of each open span
        self.excluded = [0.0]         # total time passed to exclude()
        self.open_spans = [-1]        # index of each open span
        self.spans: list = []         # (name, start, end, parent, item)
        self.item = -1
        self.item_ids: list[str] = []
        self._oracle_seen: set = set()
        self._misses = 0
        self._undo: list = []

    # -- item boundaries ---------------------------------------------------
    def begin_item(self, item_id: str) -> None:
        self.item += 1
        self.item_ids.append(item_id)
        self._oracle_seen = set()

    def exclude(self, seconds: float) -> None:
        """Keep time the caller spent outside the library (the speed
        kernel, run from a signal handler) out of every total."""
        self.child_s[-1] += seconds
        self.excluded[0] += seconds

    # -- wrappers ----------------------------------------------------------
    def _span(self, name: str, fn, post=None):
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        active, child_s, open_spans = self.active, self.child_s, self.open_spans
        spans, excluded, perf = self.spans, self.excluded, time.perf_counter

        def wrapper(*args, **kwargs):
            depth = active[name]
            active[name] = depth + 1
            idx = len(spans)
            spans.append(None)
            parent = open_spans[-1]
            open_spans.append(idx)
            child_s.append(0.0)
            e0 = excluded[0]
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                inner = child_s.pop()
                open_spans.pop()
                child_s[-1] += dt
                calls[name] += 1
                self_s[name] += dt - inner
                if depth == 0:
                    incl_s[name] += dt - (excluded[0] - e0)
                active[name] = depth
                spans[idx] = (name, t0, t1, parent, self.item)
            if post is not None:
                post(args, kwargs, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, name: str, fn, post=None):
        calls, self_s, child_s = self.calls, self.self_s, self.child_s
        excluded, perf = self.excluded, time.perf_counter

        def wrapper(*args, **kwargs):
            e0 = excluded[0]
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                # exclude() already moved kernel time to the parent
                dt = perf() - t0 - (excluded[0] - e0)
                calls[name] += 1
                self_s[name] += dt
                child_s[-1] += dt
            if post is not None:
                post(args, kwargs, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters derived from arguments and results -----------------------
    def _posts(self) -> dict:
        c = self.counters

        def rref(args, kwargs, res):
            c["fplin.rref.rows_in"] += len(args[0])
            c["fplin.rref.rank_out"] += res[0].shape[0]

        def product_space(args, kwargs, res):
            c["algebra.product_space.products"] += args[1].dim * args[2].dim

        cache_info = groups.all_subgroups.cache_info

        def all_subgroups(args, kwargs, res):
            misses = cache_info().misses
            if misses != self._misses:
                c["groups.all_subgroups.misses"] += misses - self._misses
                c["groups.all_subgroups.subgroups"] += len(res)
                self._misses = misses

        def direct_factor_oracle(args, kwargs, res):
            G = args[0]
            key = (G.p, G.table.tobytes())
            if key in self._oracle_seen:
                c["groups.direct_factor_oracle.repeats"] += 1
            self._oracle_seen.add(key)

        def recover_decomposition(args, kwargs, res):
            c["decompose.recovery_steps"] += len(res.steps)

        def find_group_basis_commutative(args, kwargs, res):
            B = args[0]
            cap = kwargs.get("cap", args[1] if len(args) > 1 else 2 ** 22)
            total = B.ctx.p ** B.aug_ideal.dim
            if B.dim > 1:
                c["decompose.find_group_basis_commutative.units"] += \
                    total - 1 if total <= cap else 4096

        def dump_report(args, kwargs, res):
            c["io.report_bytes"] += len(res.encode())

        return {"fplin.rref": rref, "algebra.product_space": product_space,
                "groups.all_subgroups": all_subgroups,
                "groups.direct_factor_oracle": direct_factor_oracle,
                "decompose.recover_decomposition": recover_decomposition,
                "decompose.find_group_basis_commutative":
                    find_group_basis_commutative,
                "io.dump_report": dump_report}

    # -- install / uninstall -----------------------------------------------
    def install(self) -> None:
        posts = self._posts()
        self._misses = groups.all_subgroups.cache_info().misses
        package = [m for k, m in sys.modules.items()
                   if k == "pgroupalg" or k.startswith("pgroupalg.")]
        for table, make in ((SPAN_FUNCTIONS, self._span),
                            (LEAF_FUNCTIONS, self._leaf)):
            for module, names in table.items():
                for fname in names:
                    orig = getattr(module, fname)
                    name = f"{_short(module)}.{fname}"
                    wrapped = make(name, orig, posts.get(name))
                    for mod in package:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, attr, wrapped)
                                self._undo.append((mod, attr, orig))
        for cls, meth, name in LEAF_METHODS:
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._leaf(name, orig, posts.get(name)))
            self._undo.append((cls, meth, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------
    def summary(self, wall_s: float) -> dict:
        """Every per-name total and derived ratio; wall_s is the traced
        wall time that module shares divide by."""
        out: dict[str, float] = {}
        for name in set(self.calls):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.incl_s"] = self.incl_s.get(name, self.self_s[name])
        for module in MODULES:
            own = sum(v for k, v in self.self_s.items()
                      if k.startswith(module + "."))
            out[f"{module}.share"] = own / wall_s
        out.update(self.counters)
        calls = self.calls
        out["algebra.contexts"] = calls["algebra.context_init"]
        out["groups.pgroup_builds"] = calls["groups.pgroup_build"]
        out["fplin.rref.useful_ratio"] = _ratio(
            self.counters["fplin.rref.rank_out"],
            self.counters["fplin.rref.rows_in"])
        out["groups.direct_factor_oracle.repeat_ratio"] = _ratio(
            self.counters["groups.direct_factor_oracle.repeats"],
            calls["groups.direct_factor_oracle"])
        out["decompose.split_useful_ratio"] = _ratio(
            self.counters["decompose.recovery_steps"],
            calls["decompose.split_cyclic"])
        out["trace.spans"] = len(self.spans)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
