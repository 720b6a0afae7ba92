"""What the benchmark measures and why.

``WORKLOADS`` records, for each workload, why it was chosen, the layer it
stresses and the layers it bypasses.  ``PER_LAYER`` records, for each
per-layer metric, its unit, which direction is better, and the end-to-end
metric and workload it should move.  ``END_TO_END`` lists the end-to-end
metrics with their units.  ``BENCHMARK.json`` at the repository root
repeats the names and units, and adds the bounds; every run checks that
the two agree.

Layers are the package modules: ``rationals``, ``local``, ``germs``,
``pairs``, ``applications`` and ``cli``.
"""

from corpus import LOCAL_CLASSES

END_TO_END = {
    "wall_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
# failed_ratio (items that errored, exited with an unexpected code or failed
# the output check, over items attempted) is reported through the result's
# "failed" and "attempted" fields and printed with the metrics: an end-to-end
# metric's bound is a share of its median, so none may read 0.

WORKLOADS = {
    "germ-batch": {
        "why": "Milnor/Tjurina elimination dominates; a heavy tail of A_k/D_k germs "
        "carries most of the work, so pool load balance shows",
        "stresses": ["germs", "cli pool (few items of ~0.5 s)"],
        "bypasses": ["pairs", "applications", "local"],
        "command": "one `germ <list> --cap 64 --jobs 2` process on ~150 polynomials",
    },
    "local-batch": {
        "why": "rational parsing and local evaluation per item on 10^4 distinct docs; "
        "no memo can hit",
        "stresses": ["rationals", "local"],
        "bypasses": ["germs", "pairs", "applications", "cli pool (run at --jobs 1: at "
                     "--jobs 2 its wall time spread 0.56 over ten runs; the pool on many "
                     "~100 us items is read from cli.pool_speedup)"],
        "command": "one `local <list> --jobs 1` process on 10^4 distinct documents",
    },
    "global-pairs": {
        "why": "global assembly scans components x points, twice per call, and the "
        "multiplicity check looks components up linearly; local germs repeat",
        "stresses": ["pairs", "local (highly shared germs)"],
        "bypasses": ["germs", "cli pool"],
        "command": "four sequential `global` processes: generic 120-line "
        "arrangement, Ceva arrangement, cuspidal curve, small generic-mode pair",
    },
    "cusp-optimize": {
        "why": "the only workload through applications; the O(grid) loop of the "
        "cusp-ratio optimiser is most of its wall time",
        "stresses": ["applications"],
        "bypasses": ["germs", "pairs", "local", "cli pool"],
        "command": "one `cusps --optimize --grid ~60000` process",
    },
}

def _per_layer():
    rows = {
        "rationals.parse_ns": ("ns", "lower", "items_per_s on local-batch; small share of global-pairs"),
        "rationals.format_ns": ("ns", "lower", "items_per_s on local-batch; small share of global-pairs"),
        "rationals.hj_expand_us": ("us", "lower", "items_per_s on local-batch"),
        "rationals.calls": ("count", "lower", "items_per_s on local-batch"),
        "local.from_dict_us_p50": ("us", "lower", "items_per_s on local-batch"),
    }
    for cls in LOCAL_CLASSES:
        rows[f"local.eval_us_p50.{cls}"] = ("us", "lower", "items_per_s on local-batch; wall_s on global-pairs")
        rows[f"local.eval_us_p90.{cls}"] = ("us", "lower", "items_per_s on local-batch; wall_s on global-pairs")
    rows["local.validate_star_us_p50"] = ("us", "lower", "items_per_s on local-batch; wall_s on global-pairs")
    for cls in LOCAL_CLASSES:
        rows[f"local.calls.{cls}"] = ("count", "lower", "items_per_s on local-batch; wall_s on global-pairs")
    rows.update({
        "local.distinct_ratio": ("ratio", "higher", "wall_s on global-pairs, where a memo can pay"),
        "local.upper_bound_share": ("ratio", "lower", "items_per_s on local-batch"),
        "local.non_lc_share": ("ratio", "lower", "items_per_s on local-batch"),
        "germs.parse_us_p50": ("us", "lower", "wall_s on germ-batch"),
        "germs.invariants_ms_p50": ("ms", "lower", "wall_s on germ-batch"),
        "germs.invariants_ms_p90": ("ms", "lower", "wall_s on germ-batch"),
        "germs.tail_share": ("ratio", "lower", "wall_s on germ-batch"),
        "germs.truncation_sum": ("count", "lower", "none: must not change under an optimisation"),
        "germs.basis_sum": ("count", "lower", "wall_s on germ-batch"),
        "pairs.from_dict_ms": ("ms", "lower", "wall_s on global-pairs"),
        "pairs.global_ms": ("ms", "lower", "wall_s on global-pairs"),
        "pairs.kd_sq_ms": ("ms", "lower", "wall_s on global-pairs"),
        "pairs.check_bmy_ms": ("ms", "lower", "wall_s on global-pairs"),
        "pairs.check_mult_ms": ("ms", "lower", "wall_s on global-pairs"),
        "pairs.global_us_per_point": ("us", "lower", "wall_s on global-pairs"),
        "pairs.global_exponent": ("ratio", "lower", "wall_s on global-pairs"),
        "pairs.points": ("count", "lower", "wall_s on global-pairs (work size)"),
        "pairs.incidences": ("count", "lower", "wall_s on global-pairs (work size)"),
        "pairs.components": ("count", "lower", "wall_s on global-pairs (work size)"),
        "applications.cusp_optimize_ms": ("ms", "lower", "wall_s on cusp-optimize"),
        "applications.grid_probes": ("count", "lower", "wall_s on cusp-optimize"),
        "applications.cusp_count_bound_us": ("us", "lower", "wall_s on cusp-optimize"),
        "applications.check_arrangement_us": ("us", "lower", "wall_s on cusp-optimize"),
        "cli.interp_s": ("s", "lower", "setup_s on every workload"),
        "cli.import_s": ("s", "lower", "setup_s on every workload"),
        "cli.cpu_s": ("s", "lower", "none directly: parallelism is not a regression"),
        "cli.pool_speedup": ("ratio", "higher", "wall_s on germ-batch; on local-batch (many ~100 us items) "
                             "a chunking change should raise it"),
        "cli.self_s": ("s", "lower", "wall_s on every workload"),
        "cli.stdout_bytes": ("B", "lower", "wall_s on local-batch"),
        "trace.coverage": ("ratio", "higher", "none: how much of cli.main the layer spans explain"),
        "trace.overhead_ratio": ("ratio", "lower", "none: cost of tracing"),
        "machine.calib_ms": ("ms", "lower", "none: CPU speed of the run"),
    })
    return rows


# name -> (unit, better, end-to-end metric and workload it should move)
PER_LAYER = _per_layer()
