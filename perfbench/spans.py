"""Spans around the public functions of each ghcodes module, recorded from
the benchmark's own files (the library itself is not edited).

A wrapper records one span per call: name, start, end, parent span and
case id, plus counts taken at the same boundary (rows queried, pairs
checked, bytes computed as rows x length).  Every function is patched
under each name it is bound to in the package, because modules import
each other's functions by name.  Spans stay in memory; the caller writes
them out when the benchmark ends.  Self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


class Tracer:
    """Collects spans for one case at a time in a single thread."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, case, counts]
        self.stack: list[int] = []
        self.case = ""
        self.counts: dict[str, int] = defaultdict(int)  # counts of calls that get no span

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def span(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            rec = [name, time.perf_counter(), None, parent, self.case, {}]
            self.spans.append(rec)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                rec[2] = time.perf_counter()
            if count is not None:
                rec[5] = count(args, result)
            return result

        return wrapper

    def counter(self, key: str, fn, enclosing: str, count):
        """Count calls made under an `enclosing` span, without a span of their own."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.inside(enclosing):
                self.counts[key] += count(args)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        # by module path: the package's own ``gray`` name is the function
        cli, classification, construction, equivalence, gray, invariants = (
            importlib.import_module(f"ghcodes.{name}")
            for name in ("cli", "classification", "construction", "equivalence", "gray", "invariants")
        )

        def patch_function(module, attr: str, name: str, count=None) -> None:
            original = getattr(module, attr)
            wrapped = self.span(name, original, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "ghcodes" or mod_name.startswith("ghcodes."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

        def patch_method(cls, attr: str, name: str, count=None) -> None:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.span(name, raw.__func__, count)))
            else:
                setattr(cls, attr, self.span(name, raw, count))

        patch_function(cli, "main", "cli.main")
        patch_function(classification, "census", "classification.census", lambda a, r: {"rows": len(r.rows)})
        patch_function(classification, "bounds_report", "classification.bounds_report")
        patch_function(classification, "isolated_types", "classification.isolated_types")
        patch_function(equivalence, "verify_equivalence", "equivalence.verify_equivalence")
        patch_function(equivalence, "step_permutation", "equivalence.step_permutation")
        patch_method(gray.Permutation, "compose", "gray.Permutation.compose", lambda a, r: {"coords": r.size})
        patch_method(gray.Permutation, "__call__", "gray.Permutation.__call__", lambda a, r: {"bytes": int(r.nbytes)})
        patch_function(gray, "gray_matrix", "gray.gray_matrix", lambda a, r: {"bytes": int(r.nbytes)})
        patch_method(construction.AdditiveCode, "build", "construction.AdditiveCode.build")
        patch_function(
            construction, "materialize_additive", "construction.materialize_additive", lambda a, r: {"bytes": int(r.nbytes)}
        )
        patch_function(
            construction,
            "materialize_gray",
            "construction.materialize_gray",
            lambda a, r: {"estimate": construction.materialization_bytes(r.sig)},
        )
        patch_method(construction.GrayCode, "index", "construction.GrayCode.index")
        patch_method(
            construction.GrayCode,
            "contains_rows",
            "construction.GrayCode.contains_rows",
            lambda a, r: {"rows": int(r.size), "hits": int(r.sum())},
        )
        patch_function(construction, "is_gh_code", "construction.is_gh_code", lambda a, r: {"pairs": r.pairs_checked})
        patch_function(
            construction,
            "min_distance",
            "construction.min_distance",
            lambda a, r: {"pairs": len(a[0]) * (len(a[0]) - 1) // 2},
        )
        patch_function(invariants, "invariant_pair", "invariants.invariant_pair")
        patch_function(invariants, "is_linear", "invariants.is_linear")
        patch_function(invariants, "rank", "invariants.rank")
        patch_function(invariants, "kernel", "invariants.kernel")
        basis = invariants.ReducedBasis
        basis.absorb = self.counter("absorb_rows", basis.absorb, "invariants.rank", lambda a: len(a[1]))
        basis.contains = self.counter("kernel_candidates", basis.contains, "invariants.kernel", lambda a: 1)


def self_times(spans: "list[list]") -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def self_by_name(spans: "list[list]") -> dict[str, float]:
    """Self time summed per span name."""
    by_name: dict[str, float] = defaultdict(float)
    for rec, own in zip(spans, self_times(spans)):
        by_name[rec[0]] += own
    return by_name


def layer_metrics(spans: "list[list]", counts: "dict[str, int]") -> dict[str, float]:
    """The per-layer metrics, from the spans and counts of every traced case."""
    by_name = self_by_name(spans)
    total: dict[tuple[str, str], float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for name, _, _, _, _, attrs in spans:
        calls[name] += 1
        for key, value in attrs.items():
            total[name, key] += value
    lookup_rows = total["construction.GrayCode.contains_rows", "rows"]
    return {
        "cli.self_s": by_name["cli.main"],
        "classification.census_s": by_name["classification.census"],
        "classification.types_located": total["classification.census", "rows"],
        "classification.bounds_s": by_name["classification.bounds_report"],
        "equivalence.verify_s": by_name["equivalence.verify_equivalence"],
        "equivalence.witness_s": by_name["equivalence.step_permutation"] + by_name["gray.Permutation.compose"],
        "equivalence.witness_coords": total["gray.Permutation.compose", "coords"],
        "gray.expand_s": by_name["gray.gray_matrix"],
        "gray.expand_bytes": total["gray.gray_matrix", "bytes"],
        "gray.permute_s": by_name["gray.Permutation.__call__"],
        "gray.permute_bytes": total["gray.Permutation.__call__", "bytes"],
        "construction.build_s": by_name["construction.AdditiveCode.build"],
        "construction.additive_s": by_name["construction.materialize_additive"],
        "construction.additive_bytes": total["construction.materialize_additive", "bytes"],
        "construction.index_s": by_name["construction.GrayCode.index"],
        "construction.lookup_s": by_name["construction.GrayCode.contains_rows"],
        "construction.lookup_rows": lookup_rows,
        "construction.lookup_hit_ratio": (
            total["construction.GrayCode.contains_rows", "hits"] / lookup_rows if lookup_rows else 0.0
        ),
        "construction.gh_s": by_name["construction.is_gh_code"],
        "construction.gh_pairs": total["construction.is_gh_code", "pairs"],
        "construction.min_distance_s": by_name["construction.min_distance"],
        "construction.min_distance_pairs": total["construction.min_distance", "pairs"],
        "invariants.rank_s": by_name["invariants.rank"],
        "invariants.rank_calls": calls["invariants.rank"],
        "invariants.absorb_rows": counts.get("absorb_rows", 0),
        "invariants.kernel_s": by_name["invariants.kernel"],
        "invariants.kernel_candidates": counts.get("kernel_candidates", 0),
    }


def case_estimate(argv: "list[str]", spans: "list[list]") -> int:
    """Bytes the library budgets for a case: the largest materialization,
    or, for equiv-check, the two images it holds at once (as in
    ``verify_equivalence``)."""
    est = [attrs["estimate"] for name, *_, attrs in spans if name == "construction.materialize_gray"]
    if not est:
        return 0
    return sum(est) if argv[0] == "equiv-check" else max(est)


def child_main(argv_json: str, case_id: str) -> None:
    """Entry of a traced child: run one case to warm up, once more untraced,
    then under spans; print the three runs and the spans as one JSON
    object on the real standard output."""
    import json

    from workloads import run_cli

    argv = json.loads(argv_json)
    # the first run fills this case's lru_cache tables and first-call state,
    # so the untraced and traced runs that follow start equally warm
    runs = [run_cli(argv), run_cli(argv)]
    tracer = Tracer()
    tracer.install()
    tracer.case = case_id
    runs.append(run_cli(argv))
    json.dump({"runs": runs, "spans": tracer.spans, "counts": tracer.counts}, sys.stdout)
