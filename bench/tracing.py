"""The traced in-process run: spans around the package's public calls.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, item]`` and
written out once at the end of the run.  A span's self time is its duration
minus the time its child spans cover; calls run in one thread, so children
never overlap and the covered time is the sum of their durations.

A pass has two parts.  The *mirror* makes, for the workload's own inputs,
the public calls the CLI handler makes, one span per call under one span per
CLI process; its layer self time is what ``trace.coverage`` compares with the
in-process ``cli.main`` time.  The *probes* then call the public functions
the CLI path does not reach (rational parsing per literal, ``hj_expand``,
``validate_star``, the k/2 arrangement, the applications bounds).  A layer
the workload bypasses is timed on a probe: a small corpus, from the same
seed, of the workload that stresses it (local documents, germs, pairs, a
6000-point grid), so that every per-layer metric exists on every workload.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from fractions import Fraction
from time import perf_counter_ns

import corpus


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, item, function, *args):
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter_ns(), 0, parent, item]
        self.spans.append(span)
        result = function(*args)
        span[2] = perf_counter_ns()
        return result

    def open(self, name, item=None) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, item])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter_ns()

    def self_times(self) -> list:
        """Self time of every span, in ns."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class NullTracer:
    """The same calls with no spans: the untraced side of the overhead ratio."""

    @staticmethod
    def call(name, item, function, *args):
        return function(*args)

    @staticmethod
    def open(name, item=None):
        return 0

    @staticmethod
    def close(index):
        pass


# --- the mirror of the CLI path ----------------------------------------------


def mirror(api, workload: str, own: dict, tracer) -> None:
    fmt = api.format_rational
    if workload == "local-batch":
        root = tracer.open("cli.local")
        for i, doc in enumerate(own["docs"]):
            germ = tracer.call("local.from_dict", i, api.singularity_from_dict, doc)
            value = tracer.call(f"local.eval.{doc['type']}", i, api.euler_local, germ)
            tracer.call("rationals.format", i, fmt, value.value)
        tracer.close(root)
    elif workload == "germ-batch":
        root = tracer.open("cli.germ")
        for i, poly in enumerate(own["polys"]):
            germ = tracer.call("germs.parse", i, api.CurveGerm.parse, poly)
            tracer.call("germs.invariants", i, api.germ_invariants, germ, 64)
        tracer.close(root)
    elif workload == "global-pairs":
        for pair_case in own["pairs"]:
            j = pair_case["name"]
            root = tracer.open("cli.global", j)
            pair = tracer.call("pairs.from_dict", j, api.pair_from_dict, pair_case["doc"])
            value = tracer.call("pairs.global", j, api.euler_orbifold_global, pair)
            kd = tracer.call("pairs.kd_sq", j, api.pair_kd_squared, pair)
            bmy = tracer.call("pairs.check_bmy", j, api.check_bmy, pair)
            mult = tracer.call("pairs.check_mult", j, api.check_bmy_multiplicities, pair)
            for x in (value.value, kd, bmy.lhs, bmy.rhs, bmy.slack, mult.lhs, mult.rhs, mult.slack):
                tracer.call("rationals.format", j, fmt, x)
            tracer.close(root)
    else:
        root = tracer.open("cli.cusps")
        alpha, ratio = tracer.call("applications.cusp_optimize", 0, api.cusp_ratio_optimize, own["grid"])
        tracer.call("rationals.format", 0, fmt, alpha)
        tracer.call("rationals.format", 0, fmt, ratio)
        tracer.close(root)


def parts(workload: str, own: dict) -> list:
    """The workload's inputs split as its CLI processes split them."""
    if workload == "global-pairs":
        return [{"pairs": [case]} for case in own["pairs"]]
    return [own]


# --- probes ------------------------------------------------------------------


_LITERAL = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def _literals(doc):
    if isinstance(doc, str):
        if _LITERAL.match(doc):
            yield doc
    elif isinstance(doc, dict):
        for key, value in doc.items():
            if key not in ("id", "type", "incident"):
                yield from _literals(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _literals(value)


def _chains(local_doc):
    if local_doc["type"] == "cyclic":
        yield local_doc["n"], local_doc["q"]
    elif local_doc["type"] == "star":
        for n, q, _ in local_doc["arms"]:
            yield n, q


def local_inputs(workload: str, own: dict, probe: dict) -> list:
    """Local documents the local and rationals probes evaluate: the
    workload's own where it has them, and probe documents for any class it
    lacks."""
    if workload == "local-batch":
        docs = list(own["docs"])
    elif workload == "global-pairs":
        docs = [point["local"] for case in own["pairs"] for point in case["doc"]["points"]]
    else:
        docs = []
    present = {doc["type"] for doc in docs}
    return docs + [doc for doc in probe["docs"] if doc["type"] not in present]


def probes(api, workload: str, own: dict, probe: dict, tracer, stats: dict) -> None:
    root = tracer.open("probes")
    docs = local_inputs(workload, own, probe)
    evaluated = workload == "local-batch"  # the mirror already evaluated these
    upper = non_lc = 0
    distinct = set()
    for i, doc in enumerate(docs):
        for text in _literals(doc):
            tracer.call("rationals.parse", i, api.parse_rational, text)
        for n, q in _chains(doc):
            tracer.call("rationals.hj_expand", i, api.hj_expand, n, q)
        if doc["type"] == "star":
            tracer.call("local.validate_star", i, api.validate_star, doc["b"], [tuple(arm) for arm in doc["arms"]])
        if not evaluated:
            germ = tracer.call("local.from_dict", i, api.singularity_from_dict, doc)
            value = tracer.call(f"local.eval.{doc['type']}", i, api.euler_local, germ)
            tracer.call("rationals.format", i, api.format_rational, value.value)
        _, kind, lc = corpus.local_value(doc)
        upper += kind == corpus.UPPER
        non_lc += not lc
        distinct.add(json.dumps(doc, sort_keys=True))
    stats["local.evaluations"] = len(docs)
    stats["local.distinct"] = len(distinct)
    stats["local.upper"] = upper
    stats["local.non_lc"] = non_lc

    germ_source = own if workload == "germ-batch" else probe["germs"]
    if workload != "germ-batch":
        for i, poly in enumerate(germ_source["polys"]):
            germ = tracer.call("germs.parse", i, api.CurveGerm.parse, poly)
            tracer.call("germs.invariants", i, api.germ_invariants, germ, 64)
    stats["germs.truncations"] = [t for _, _, t in germ_source["expected"]]

    pairs_source = own if workload == "global-pairs" else probe["pairs"]
    if workload != "global-pairs":
        mirror(api, "global-pairs", pairs_source, tracer)
    generic = pairs_source["pairs"][0]
    k, a = len(generic["doc"]["components"]), Fraction(generic["doc"]["components"][0]["a"])
    half = api.pair_from_dict(corpus.generic_arrangement(k // 2, a)["doc"])
    tracer.call("pairs.global_half", k // 2, api.euler_orbifold_global, half)
    stats["pairs.k"] = k
    stats["pairs.points"] = sum(len(c["doc"]["points"]) for c in pairs_source["pairs"])
    stats["pairs.incidences"] = sum(len(p["incident"]) for c in pairs_source["pairs"] for p in c["doc"]["points"])
    stats["pairs.components"] = sum(len(c["doc"]["components"]) for c in pairs_source["pairs"])

    grid = own["grid"] if workload == "cusp-optimize" else probe["grid"]
    if workload != "cusp-optimize":
        tracer.call("applications.cusp_optimize", 0, api.cusp_ratio_optimize, grid)
    stats["applications.grid"] = grid
    alpha = Fraction(1, 3)
    for degree in range(9, 201):
        tracer.call("applications.cusp_count_bound", degree, api.cusp_count_bound, degree, alpha)
    for k_lines, counts in arrangements(pairs_source["pairs"]):
        tracer.call("applications.check_arrangement", k_lines, api.check_arrangement, k_lines, counts)
    tracer.close(root)


def arrangements(pair_cases):
    """(k, t_r) of the workload's arrangements, then of the generic and Ceva
    families at smaller sizes, so the per-call time has enough samples."""
    out = [case["arrangement"] for case in pair_cases if "arrangement" in case]
    out += [(k, {2: k * (k - 1) // 2}) for k in range(3, 151)]
    out += [(3 * n, {3: n * n, n: 3}) for n in range(4, 51)]
    return out


# --- per-layer metrics from one traced pass ---------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def layer_metrics(tracer: Tracer, stats: dict, classes) -> dict:
    d = tracer.durations
    m = {}
    rational_names = ("rationals.parse", "rationals.format", "rationals.hj_expand")
    m["rationals.parse_ns"] = _median(d("rationals.parse"))
    m["rationals.format_ns"] = _median(d("rationals.format"))
    m["rationals.hj_expand_us"] = _median(d("rationals.hj_expand")) / 1e3
    m["rationals.calls"] = sum(len(d(n)) for n in rational_names)
    m["local.from_dict_us_p50"] = _median(d("local.from_dict")) / 1e3
    for cls in classes:
        m[f"local.eval_us_p50.{cls}"] = _median(d(f"local.eval.{cls}")) / 1e3
        m[f"local.eval_us_p90.{cls}"] = _p90(d(f"local.eval.{cls}")) / 1e3
    m["local.validate_star_us_p50"] = _median(d("local.validate_star")) / 1e3
    for cls in classes:
        m[f"local.calls.{cls}"] = len(d(f"local.eval.{cls}"))
    evaluations = stats["local.evaluations"]
    m["local.distinct_ratio"] = stats["local.distinct"] / evaluations
    m["local.upper_bound_share"] = stats["local.upper"] / evaluations
    m["local.non_lc_share"] = stats["local.non_lc"] / evaluations

    invariants = sorted(d("germs.invariants"))
    tail = invariants[-math.ceil(len(invariants) / 10):]
    truncations = stats["germs.truncations"]
    m["germs.parse_us_p50"] = _median(d("germs.parse")) / 1e3
    m["germs.invariants_ms_p50"] = _median(invariants) / 1e6
    m["germs.invariants_ms_p90"] = _p90(invariants) / 1e6
    m["germs.tail_share"] = sum(tail) / sum(invariants)
    m["germs.truncation_sum"] = sum(truncations)
    m["germs.basis_sum"] = sum(n * (n + 1) // 2 for n in truncations)

    for key, name in (("from_dict", "pairs.from_dict"), ("global", "pairs.global"), ("kd_sq", "pairs.kd_sq"),
                      ("check_bmy", "pairs.check_bmy"), ("check_mult", "pairs.check_mult")):
        m[f"pairs.{key}_ms"] = sum(d(name)) / 1e6
    m["pairs.global_us_per_point"] = sum(d("pairs.global")) / 1e3 / stats["pairs.points"]
    m["pairs.global_exponent"] = math.log(d("pairs.global")[0] / d("pairs.global_half")[0]) / math.log(
        stats["pairs.k"] / (stats["pairs.k"] // 2))
    for key in ("points", "incidences", "components"):
        m[f"pairs.{key}"] = stats[f"pairs.{key}"]

    grid = stats["applications.grid"]
    m["applications.cusp_optimize_ms"] = sum(d("applications.cusp_optimize")) / 1e6
    m["applications.grid_probes"] = (5 * grid) // 6 - grid // 6
    m["applications.cusp_count_bound_us"] = _median(d("applications.cusp_count_bound")) / 1e3
    m["applications.check_arrangement_us"] = _median(d("applications.check_arrangement")) / 1e3
    return m


def mirror_layer_time_ns(tracer: Tracer) -> int:
    """Self time of the layer spans under the mirror's CLI spans."""
    own = tracer.self_times()
    roots = {i for i, span in enumerate(tracer.spans) if span[0].startswith("cli.") and span[3] < 0}
    return sum(own[i] for i, span in enumerate(tracer.spans) if span[3] in roots)
