"""Command-line front end emitting exact, machine-readable certificates.

Subcommands: ``local``, ``germ``, ``global``, ``arrangement``, ``cusps``,
``bound``, ``check``.  Output is human-readable text by default or a single
JSON object per invocation with ``--format machine``; all rationals are
emitted as ``"p/q"`` strings (decimals appear only as text annotations).

Exit codes: 0 when the computation succeeded and any checked inequality
holds; 1 when a checker reports violation, hypothesis-not-met or
precondition-failed; 2 on invalid input.  The CLI performs no arithmetic of
its own.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from fractions import Fraction

# Every path formats rationals; the other modules are imported by the
# handlers and workers that use them, so that a process loads only what its
# subcommand runs.
from .rationals import as_list, as_object, as_rational, format_rational as _rat, parse_integer as _int

_EXIT_BY_VERDICT = {
    "computed": 0,
    "proved": 0,
    "consistent-upper-bound": 0,
    "holds": 0,
    "no-obstruction": 0,
    "LCT-fails": 0,
    "violation": 1,
    "hypothesis-not-met": 1,
    "precondition-failed": 1,
}

_INVALID_INPUT = 2


def _decimal(x) -> str:
    # Annotation only: core results stay exact.
    if x.__class__ is not Fraction:
        x = Fraction(x)
    try:
        approx = float(x)
    except OverflowError:
        approx = math.inf
    if x and not sys.float_info.min <= abs(approx) < math.inf:
        # Beyond float range, or below its normal range, where float()
        # underflows to 0 or keeps fewer than 7 digits: round to 7 digits with
        # an unbounded exponent; normalize() drops trailing zeros, as %g does
        # for a float.  Only this branch needs decimal, so only it imports it.
        from decimal import MAX_EMAX, MIN_EMIN, Context

        context = Context(prec=7, Emax=MAX_EMAX, Emin=MIN_EMIN)
        return f"{context.divide(x.numerator, x.denominator).normalize(context):.7g}"
    return f"{approx:.7g}"


def _load_document(source: str):
    s = source.strip()
    try:
        if s == "-":
            return json.load(sys.stdin)
        if s.startswith("{") or s.startswith("["):
            return json.loads(s)
        with open(source, encoding="utf-8") as handle:
            return json.load(handle)
    except RecursionError:
        # json decodes nested arrays and objects recursively.
        raise ValueError("document nested too deeply") from None


def _parallel_map(function, items, jobs: int):
    # function maps a list of items to the list of their results.
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        return function(items)
    # Only a process that forks compiles the fork machinery.
    from ._fork import fork_map

    return fork_map(function, items, workers)


def _eval_local_docs(docs):
    from .local import euler_local, singularity_from_dict

    return [euler_local(singularity_from_dict(doc)) for doc in docs]


def _eval_germ_docs(payloads):
    from .germs import CurveGerm, germ_from_dict, germ_invariants

    return [
        germ_invariants(CurveGerm.parse(doc) if isinstance(doc, str) else germ_from_dict(doc), cap)
        for doc, cap in payloads
    ]


# --- subcommand handlers ------------------------------------------------
# Each returns (verdict, values, tags, text lines, optional exit override);
# the lines may be any iterable, read only in text mode.


def _local_inputs(args):
    shorthand = [
        name
        for name in ("ordinary", "cyclic", "star", "germ_mu_tau")
        if getattr(args, name) is not None
    ]
    if args.input is not None and shorthand:
        raise ValueError("ambiguous input: both a document and inline flags were given")
    if len(shorthand) > 1:
        raise ValueError(f"ambiguous input: several inline flags ({', '.join(shorthand)})")
    if args.input is not None:
        doc = _load_document(args.input)
        return doc if isinstance(doc, list) else [doc]
    if args.ordinary is not None:
        return [{"type": "ordinary", "coeffs": args.ordinary.split(",")}]
    if args.cyclic is not None:
        n, q, d1, d2 = _flag_entries("--cyclic", "n,q,d1,d2", args.cyclic, _int, _int, str, str)
        return [{"type": "cyclic", "n": n, "q": q, "d1": d1, "d2": d2}]
    if args.star is not None:
        shape = "b;n,q,d;n,q,d;n,q,d"

        def arm(text):
            return _flag_entries("--star", shape, text, _int, _int, str)

        b, *arms = _flag_entries("--star", shape, args.star, _int, arm, arm, arm, sep=";")
        return [{"type": "star", "b": b, "arms": arms}]
    if args.germ_mu_tau is not None:
        mu, tau = _flag_entries("--germ-mu-tau", "mu,tau", args.germ_mu_tau, _int, _int)
        return [{"type": "germ_mu_tau", "mu": mu, "tau": tau}]
    raise ValueError("no input: give a document or one of --ordinary/--cyclic/--star/--germ-mu-tau")


def _flag_entries(flag: str, shape: str, text: str, *kinds, sep=",") -> list:
    """The entries of an inline flag's ``text``, one per kind and converted by it."""
    entries = text.split(sep)
    if len(entries) == len(kinds):
        try:
            return [kind(entry) for kind, entry in zip(kinds, entries)]
        except ValueError:
            pass
    raise ValueError(f"{flag} needs {shape}, got {text!r}")


_LOCAL_TAGS = {
    "ordinary": "ordinary-point-formula",
    "cyclic": "cyclic-quotient-formula",
    "star": "star-quotient-formula",
    "germ_mu_tau": "milnor-tjurina-difference",
}


def _cmd_local(args):
    from .local import Exactness

    docs = _local_inputs(args)
    results = _parallel_map(_eval_local_docs, docs, args.jobs)
    tags = sorted({_LOCAL_TAGS[doc["type"]] for doc in docs})
    # A batch never holds its documents and its output at once, and the
    # output does not hold the results, which go when this handler returns.
    del docs
    kinds = {member: member.value for member in Exactness}
    items = [
        {"value": _rat(value.value), "kind": kinds[value.exactness], "lc": value.lc_label()}
        for value in results
    ]
    lines = (
        f"value={item['value']} (~{_decimal(item['value'])}) kind={item['kind']} lc={item['lc']}"
        for item in items
    )
    values = items[0] if len(items) == 1 else {"items": items}
    return "computed", values, tags, lines, None


def _cmd_germ(args):
    from .germs import DEFAULT_CAP, lct_obstruction

    cap = DEFAULT_CAP if args.cap is None else args.cap
    source = args.input.strip()
    is_document = source == "-" or source.startswith(("{", "[")) or (
        os.path.exists(source) and source.endswith(".json")
    )
    doc = _load_document(source) if is_document else source
    docs = doc if isinstance(doc, list) else [doc]
    results = _parallel_map(_eval_germ_docs, [(entry, cap) for entry in docs], args.jobs)
    items = []
    for invariants in results:
        defect, lct = lct_obstruction([(invariants.mu, invariants.tau)])
        items.append(
            {
                "mu": str(invariants.mu),
                "tau": str(invariants.tau),
                "e_orb": str(defect),
                "lct": lct,
                "truncation": str(invariants.truncation_used),
            }
        )
    lines = (
        f"mu={item['mu']} tau={item['tau']} e_orb={item['e_orb']} lct={item['lct']}"
        for item in items
    )
    _, verdict = lct_obstruction((invariants.mu, invariants.tau) for invariants in results)
    values = items[0] if len(items) == 1 else {"items": items}
    tags = ["milnor-tjurina-truncation", "comparison-theorem-obstruction"]
    return verdict, values, tags, lines, None


def _cmd_global(args):
    from .pairs import check_bmy, pair_from_dict

    pair = pair_from_dict(_load_document(args.input))
    bmy = check_bmy(pair)
    multiplicities = bmy.multiplicities
    global_value = bmy.global_value
    notes = list(bmy.notes)
    kd_sq = _rat(bmy.rhs)
    values = {
        "e_orb": _rat(global_value.value),
        "kind": global_value.exactness.value,
        "lc": "lc" if global_value.lc else "non-lc",
        "kd_sq": kd_sq,
        "bmy_lhs": _rat(bmy.lhs),
        "bmy_rhs": kd_sq,
        "bmy_slack": _rat(bmy.slack),
        "bmy_verdict": bmy.verdict.value,
        "bmy_equality": bmy.equality,
        "mult_lhs": _rat(multiplicities.lhs),
        "mult_rhs": _rat(multiplicities.rhs),
        "mult_slack": _rat(multiplicities.slack),
        "mult_verdict": multiplicities.verdict.value,
        "notes": notes,
    }
    lines = [
        f"e_orb={values['e_orb']} (~{_decimal(global_value.value)}) "
        f"kind={values['kind']} lc={values['lc']}",
        f"(K+D)^2={kd_sq}",
        f"bmy: lhs={values['bmy_lhs']} rhs={kd_sq} verdict={values['bmy_verdict']}"
        + (" equality" if bmy.equality else ""),
        f"multiplicities: lhs={values['mult_lhs']} rhs={values['mult_rhs']} "
        f"verdict={values['mult_verdict']}",
    ]
    lines.extend(f"note: {note}" for note in notes)
    tags = ["global-euler-assembly", "bmy-inequality", "multiplicity-refinement"]
    exit_code = max(
        _EXIT_BY_VERDICT[bmy.verdict.value], _EXIT_BY_VERDICT[multiplicities.verdict.value]
    )
    return bmy.verdict.value, values, tags, lines, exit_code


def _cmd_arrangement(args):
    from .applications import ArrangementData, check_arrangement

    if args.input is not None and (args.k is not None or args.t is not None):
        raise ValueError("ambiguous input: both a document and inline flags were given")
    if args.input is not None:
        doc = _load_document(args.input)
        data = ArrangementData.from_counts(*as_object(doc, "arrangement document", "k", "t"))
    else:
        if args.k is None or args.t is None:
            raise ValueError("give --k and --t, or a document")
        shape = "r:t_r,r:t_r,..."
        counts = (_flag_entries("--t", shape, piece, _int, _int, sep=":") for piece in args.t.split(","))
        data = ArrangementData(args.k, tuple(counts))
    report = check_arrangement(data)
    values = {
        "k": str(report.k),
        "incidence_sum": str(report.incidence_sum),
        "incidence_bound": str(report.incidence_bound),
        "incidence_equality": report.incidence_equality,
        "square_sum": str(report.square_sum),
        "square_bound": str(report.square_bound),
        "square_equality": report.square_equality,
    }
    if report.verdict == "hypothesis-not-met":
        lines = [f"hypothesis-not-met (a point lies on {report.large_pencil_r} > 2k/3 lines)"]
        values["large_pencil_r"] = str(report.large_pencil_r)
    else:
        lines = [
            f"verdict={report.verdict}",
            f"sum r*t_r = {report.incidence_sum} >= {report.incidence_bound}"
            + (" (equality)" if report.incidence_equality else f" (slack {report.incidence_slack})"),
            f"sum r^2*t_r = {report.square_sum} >= {report.square_bound}"
            + (" (equality)" if report.square_equality else f" (slack {report.square_slack})"),
        ]
    return report.verdict, values, ["line-arrangement-bounds"], lines, None


def _cmd_cusps(args):
    from .applications import cusp_count_bound, cusp_ratio_optimize

    if args.optimize:
        if args.degree is not None or args.alpha is not None:
            raise ValueError("--optimize does not take --degree/--alpha")
        alpha_star, ratio_star = cusp_ratio_optimize(args.grid)
        values = {"alpha_star": _rat(alpha_star), "ratio_star": _rat(ratio_star)}
        lines = [
            f"alpha_star={_rat(alpha_star)} (~{_decimal(alpha_star)})",
            f"ratio_star={_rat(ratio_star)} (~{_decimal(ratio_star)})",
        ]
        return "computed", values, ["cusp-ratio-bound"], lines, None
    if args.degree is None or args.alpha is None:
        raise ValueError("give --degree and --alpha, or --optimize with --grid")
    alpha = as_rational(args.alpha)
    count = cusp_count_bound(args.degree, alpha)
    values = {"max_cusps": str(count), "degree": str(args.degree), "alpha": _rat(alpha)}
    lines = [f"max_cusps={count} (degree {args.degree}, alpha {_rat(alpha)})"]
    return "computed", values, ["cusp-piecewise-formula", "singularity-budget"], lines, None


def _cmd_bound(args):
    from .applications import canonical_degree_bound

    bound = canonical_degree_bound(args.c1_sq, args.c2, args.genus, args.ordinary)
    values = {
        "bound": _rat(bound),
        "c1_sq": str(args.c1_sq),
        "c2": str(args.c2),
        "genus": str(args.genus),
        "ordinary": args.ordinary,
    }
    lines = [f"K.C <= {_rat(bound)} (~{_decimal(bound)})"]
    return "computed", values, ["canonical-degree-bound"], lines, None


def _cmd_check(args):
    from .applications import check_singularity_budget

    fields = ("c1_sq", "c2", "alpha", "k_dot_c", "c_sq", "points")
    *numbers, points = as_object(_load_document(args.input), "check document", *fields)
    points = [
        as_object(entry, "point entry", "mu", "e_orb") if isinstance(entry, dict) else entry
        for entry in as_list(points, "check field 'points'")
    ]
    report = check_singularity_budget(*numbers, points)
    values = {
        "lhs": _rat(report.lhs),
        "rhs": _rat(report.rhs),
        "slack": _rat(report.slack),
        "equality": report.equality,
    }
    lines = [
        f"lhs={_rat(report.lhs)} rhs={_rat(report.rhs)} verdict={report.verdict}"
        + (" equality" if report.equality else f" slack={_rat(report.slack)}")
    ]
    return report.verdict, values, ["singularity-budget"], lines, None


_JOBS_HELP = (
    "processes for list input: forked workers, at most one per CPU and per chunk, "
    "where os.fork exists; serial elsewhere"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbeuler",
        description="Exact certificates for orbifold Euler numbers of surface pairs.",
    )
    parser.add_argument(
        "--format", choices=("text", "machine"), default="text", help="output format"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    local = subparsers.add_parser("local", help="evaluate a local singularity")
    local.add_argument("input", nargs="?", help="document path, '-', or inline JSON")
    local.add_argument("--ordinary", help="comma-separated branch weights, e.g. 1/2,1/2,1/2")
    local.add_argument("--cyclic", help="n,q,d1,d2")
    local.add_argument("--star", help="b;n,q,d;n,q,d;n,q,d")
    local.add_argument("--germ-mu-tau", dest="germ_mu_tau", help="mu,tau")
    local.add_argument("--jobs", type=_int, default=1, help=_JOBS_HELP)
    local.set_defaults(handler=_cmd_local)

    germ = subparsers.add_parser("germ", help="Milnor/Tjurina numbers of a plane germ")
    germ.add_argument("input", help="polynomial in x,y; document path; '-'; or inline JSON")
    # The default stays in germs, which parsing does not import.
    germ.add_argument("--cap", type=_int, help="truncation cap (default: orbeuler.germs.DEFAULT_CAP)")
    germ.add_argument("--jobs", type=_int, default=1, help=_JOBS_HELP)
    germ.set_defaults(handler=_cmd_germ)

    global_ = subparsers.add_parser("global", help="global Euler number and BMY checks")
    global_.add_argument("input", help="pair document path, '-', or inline JSON")
    global_.set_defaults(handler=_cmd_global)

    arrangement = subparsers.add_parser("arrangement", help="line arrangement bounds")
    arrangement.add_argument("input", nargs="?", help="document path, '-', or inline JSON")
    arrangement.add_argument("--k", type=_int, help="number of lines")
    arrangement.add_argument("--t", help="point counts, e.g. 2:3,3:4")
    arrangement.set_defaults(handler=_cmd_arrangement)

    cusps = subparsers.add_parser("cusps", help="cusp count bound or ratio optimization")
    cusps.add_argument("--degree", type=_int, help="curve degree")
    cusps.add_argument("--alpha", help="weight in (0, 5/6]")
    cusps.add_argument("--optimize", action="store_true", help="minimize the asymptotic ratio")
    cusps.add_argument("--grid", type=_int, default=10000, help="grid denominator (>= 48)")
    cusps.set_defaults(handler=_cmd_cusps)

    bound = subparsers.add_parser("bound", help="canonical degree bound")
    bound.add_argument("--c1-sq", dest="c1_sq", type=_int, required=True)
    bound.add_argument("--c2", type=_int, required=True)
    bound.add_argument("--genus", type=_int, required=True)
    bound.add_argument("--ordinary", action="store_true", help="curve has only ordinary singularities")
    bound.set_defaults(handler=_cmd_bound)

    check = subparsers.add_parser("check", help="general singularity budget inequality")
    check.add_argument("input", help="document path, '-', or inline JSON")
    check.set_defaults(handler=_cmd_check)

    return parser


def main(argv=None) -> int:
    # Apart from its argument parser, a command allocates only acyclic data,
    # which reference counting frees, so the cyclic collector would walk it
    # for nothing; forked --jobs workers inherit the setting.  The caller's
    # setting is restored.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        verdict, values, tags, lines, exit_override = args.handler(args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return _INVALID_INPUT
    if args.format == "machine":
        print(json.dumps({"verdict": verdict, "values": values, "paper_refs": tags}))
    else:
        for line in lines:
            print(line)
    return _EXIT_BY_VERDICT[verdict] if exit_override is None else exit_override


if __name__ == "__main__":
    sys.exit(main())
