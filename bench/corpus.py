"""Deterministic corpora for the four workloads, with their expected outputs.

Every generator takes the workload seed and returns documents plus the values
the CLI must print for them.  Sizes are fixed; the seed varies weights,
parameters, choice and order, so that the work per run stays nearly the same
from seed to seed while the inputs differ.

Expected values come from closed forms computed here, independently of the
package, wherever the mathematics gives one.  What has no closed form (the
Tjurina numbers of semi-quasi-homogeneous germs, the truncation at which the
elimination stabilises, the small generic-mode pair) is read from
``recorded.json``, written by ``record.py`` from the seed commit.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import floor, gcd, isqrt
from pathlib import Path

RECORDED_PATH = Path(__file__).with_name("recorded.json")

EXACT, UPPER = "exact", "upper-bound"
LOCAL_CLASSES = ("ordinary", "cyclic", "star", "germ_mu_tau")


def fmt(x) -> str:
    return str(Fraction(x))


def load_recorded() -> dict:
    with open(RECORDED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _weight(rng: random.Random, max_den: int = 12, cap: Fraction = Fraction(1)) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, floor(cap * den)), den)


def _coprime(rng: random.Random, n: int) -> int:
    if n == 1:
        return 0
    while True:
        q = rng.randint(1, n - 1)
        if gcd(n, q) == 1:
            return q


# --- local closed forms (the paper's formulas, written from its statement) --


def ordinary_value(weights):
    w = sorted(Fraction(x) for x in weights if Fraction(x))
    if not w:
        return Fraction(1), EXACT, True
    a, top = sum(w), w[-1]
    if a > 2:
        return Fraction(0), EXACT, False
    if 2 * top >= a:
        return (1 - a + top) * (1 - top), EXACT, True
    if len(w) <= 3:
        return (a - 2) ** 2 / 4, EXACT, True
    return (1 - a / 2) ** 2, UPPER, True


def star_value(b, arms):
    """arms: (n, q, d) triples; b0 = b - sum q/n, alpha/beta from (1 - d)/n."""
    b0 = b - sum(Fraction(q, n) for n, q, _ in arms)
    shares = [(1 - Fraction(d)) / n for n, _, d in arms]
    alpha, beta = sum(shares), min(shares)
    if alpha < 1:
        return Fraction(0), EXACT, False
    if alpha < 2 * beta + 1:
        return (alpha - 1) ** 2 / (4 * b0), EXACT, True
    return (alpha - 1 - beta) * beta / b0, EXACT, True


def local_value(doc):
    kind = doc["type"]
    if kind == "ordinary":
        return ordinary_value(doc["coeffs"])
    if kind == "cyclic":
        return (1 - Fraction(doc["d1"])) * (1 - Fraction(doc["d2"])) / doc["n"], EXACT, True
    if kind == "star":
        return star_value(doc["b"], doc["arms"])
    return Fraction(doc["mu"] - doc["tau"]), EXACT, True


# --- local-batch ------------------------------------------------------------

LOCAL_MIX = {"ordinary": 4, "cyclic": 2.5, "star": 2, "germ_mu_tau": 1.5}  # parts of 10
STAR_SHAPES = ((2, 3, 3), (2, 3, 4), (2, 3, 5), None)  # None: dihedral (2, 2, n)


def _local_doc(rng: random.Random, kind: str) -> dict:
    if kind == "ordinary":
        branches = rng.randint(1, 6)
        cap = min(Fraction(1), Fraction(5, 2 * branches))
        coeffs = [_weight(rng, cap=cap if rng.random() < 0.7 else Fraction(1)) for _ in range(branches)]
        return {"type": "ordinary", "coeffs": [fmt(c) for c in coeffs]}
    if kind == "cyclic":
        n = rng.randint(1, 60)
        return {"type": "cyclic", "n": n, "q": _coprime(rng, n),
                "d1": fmt(_weight(rng)), "d2": fmt(_weight(rng))}
    if kind == "star":
        shape = rng.choice(STAR_SHAPES) or (2, 2, rng.randint(2, 60))
        arms = [[n, _coprime(rng, n), fmt(_weight(rng))] for n in shape]
        rng.shuffle(arms)
        b = floor(sum(Fraction(q, n) for n, q, _ in arms)) + 1 + rng.randint(0, 1)
        return {"type": "star", "b": b, "arms": arms}
    tau = rng.randint(0, 5000)
    return {"type": "germ_mu_tau", "mu": tau + rng.randint(0, 1), "tau": tau}


def local_batch(seed: int, size: int = 10_000) -> dict:
    """``size`` pairwise distinct local documents, mixed over the four classes."""
    rng = _rng("local-batch", seed)
    kinds = []
    for kind, parts in LOCAL_MIX.items():
        kinds += [kind] * round(size * parts / 10)
    kinds = kinds[:size]
    rng.shuffle(kinds)
    seen, docs, expected = set(), [], []
    for kind in kinds:
        while True:
            doc = _local_doc(rng, kind)
            key = json.dumps(doc, sort_keys=True)
            if key in seen:
                continue
            value = local_value(doc)
            if value[0] <= 1:  # a log canonical local value never exceeds 1
                break
        seen.add(key)
        docs.append(doc)
        expected.append(value)
    return {"docs": docs, "expected": expected}


# --- germ-batch -------------------------------------------------------------

# Heavy tail: A_k = x^2 + y^(k+1) and D_k = x^2 y + y^(k-1); the seed moves
# each exponent by at most one, so the tail's work stays nearly constant.
HEAVY_A = (31, 35, 39, 43, 47, 51)
HEAVY_D = (30, 33, 36, 39, 42, 45)
CHEAP_PER_FAMILY = 69


def germ_pool() -> dict:
    """Every polynomial a germ corpus may draw, with its closed-form family.

    Family tags: ("brieskorn", a, b) with mu = tau = (a-1)(b-1);
    ("sqh", a, b) semi-quasi-homogeneous, mu = (a-1)(b-1) and tau <= mu;
    ("A", k) and ("D", k) with mu = tau = k.
    """
    pool = {}
    for a in range(2, 9):
        for b in range(a, 16):
            if (b if a == 2 else a + b - 2) > 15:
                continue
            family = ("brieskorn", a, b)
            pool[f"x^{a}+y^{b}"] = family
            pool[f"x^{b}+y^{a}"] = family
            pool[f"2x^{a}+3y^{b}"] = family
            pool[f"x^{a}-1/2y^{b}"] = family
    for a in range(3, 7):
        for b in range(a, 11):
            if a + b - 2 > 14:
                continue
            for i in range(1, a):
                for j in range(1, b):
                    if i * b + j * a > a * b:
                        pool[f"x^{a}+y^{b}+x^{i}y^{j}"] = ("sqh", a, b)
    for e in range(min(HEAVY_A) - 1, max(HEAVY_A) + 2):
        pool[f"x^2+y^{e}"] = ("A", e - 1)
    for e in range(min(HEAVY_D) - 1, max(HEAVY_D) + 2):
        pool[f"x^2y+y^{e}"] = ("D", e + 1)
    return pool


def germ_closed_form(family, mu: int, tau: int) -> bool:
    kind = family[0]
    if kind in ("A", "D"):
        return mu == tau == family[1]
    expected_mu = (family[1] - 1) * (family[2] - 1)
    if kind == "brieskorn":
        return mu == tau == expected_mu
    return mu == expected_mu and 0 <= tau <= mu


def germ_batch(seed: int, recorded: dict, cheap_per_family: int = CHEAP_PER_FAMILY,
               heavy=(HEAVY_A, HEAVY_D)) -> dict:
    rng = _rng("germ-batch", seed)
    pool = germ_pool()
    polys = [f"x^2+y^{e + rng.randint(-1, 1)}" for e in heavy[0]]
    polys += [f"x^2y+y^{e + rng.randint(-1, 1)}" for e in heavy[1]]
    for family in ("brieskorn", "sqh"):
        members = sorted(p for p, tag in pool.items() if tag[0] == family)
        polys += rng.sample(members, cheap_per_family)
    rng.shuffle(polys)
    table = recorded["germs"]
    return {
        "polys": polys,
        "families": [pool[p] for p in polys],
        "expected": [tuple(table[p]) for p in polys],
    }


# --- global-pairs -----------------------------------------------------------

VERDICT_EXIT = {"proved": 0, "consistent-upper-bound": 0, "violation": 1, "precondition-failed": 1}


def _expect_global(e, kind, lc, kd_sq, mult_rhs) -> dict:
    """Verdicts of both checkers from closed-form e_orb, (K+D)^2 and the
    multiplicity right side; every pair here is effective."""
    lhs = 3 * e
    if not lc:
        bmy = "precondition-failed"
    elif lhs >= kd_sq:
        bmy = "proved" if kind == EXACT else "consistent-upper-bound"
    else:
        bmy = "violation"
    mult = "precondition-failed" if not lc else ("proved" if kd_sq <= mult_rhs else "violation")
    values = {
        "e_orb": e, "kind": kind, "lc": "lc" if lc else "non-lc", "kd_sq": kd_sq,
        "bmy_lhs": lhs, "bmy_rhs": kd_sq, "bmy_slack": lhs - kd_sq, "bmy_verdict": bmy,
        "bmy_equality": kind == EXACT and lhs == kd_sq,
        "mult_lhs": kd_sq, "mult_rhs": mult_rhs, "mult_slack": mult_rhs - kd_sq,
        "mult_verdict": mult,
    }
    return {"values": values, "exit": max(VERDICT_EXIT[bmy], VERDICT_EXIT[mult])}


def _line(i, a):
    return {"id": f"L{i}", "a": fmt(a), "genus": 0, "degree": 1}


def _ordinary_point(pid, ids, a):
    return {"id": pid, "local": {"type": "ordinary", "coeffs": [fmt(a)] * len(ids)},
            "incident": [[c, 1] for c in ids], "m_P": fmt(len(ids) * a)}


def generic_arrangement(k: int, a: Fraction) -> dict:
    """k lines in general position at weight a: C(k, 2) double points."""
    doc = {
        "surface": {"mode": "plane"},
        "components": [_line(i, a) for i in range(k)],
        "points": [_ordinary_point(f"P{i}_{j}", [f"L{i}", f"L{j}"], a)
                   for i in range(k) for j in range(i + 1, k)],
    }
    pts = k * (k - 1) // 2
    e = 3 + k * a * (k - 3) + pts * ((1 - a) ** 2 - 1)
    expect = _expect_global(e, EXACT, True, (k * a - 3) ** 2, 3 * (3 - 2 * k * a + pts * a * a))
    return {"name": f"generic-{k}", "doc": doc, "expect": expect,
            "arrangement": (k, {2: pts})}


def ceva_arrangement(n: int, a: Fraction) -> dict:
    """x^n = y^n, y^n = z^n, z^n = x^n: 3n lines, n^2 triple points and three
    n-fold points, where the >= 4-branch upper-bound formula fires."""
    lines = {g: [f"{g}{i}" for i in range(n)] for g in "ABC"}
    comps = [{"id": c, "a": fmt(a), "genus": 0, "degree": 1} for g in "ABC" for c in lines[g]]
    points = [_ordinary_point(f"T{i}_{j}", [lines["A"][i], lines["B"][j], lines["C"][(-i - j) % n]], a)
              for i in range(n) for j in range(n)]
    points += [_ordinary_point(f"V{g}", lines[g], a) for g in "ABC"]
    triple, _, triple_lc = ordinary_value([a] * 3)
    nfold, kind, nfold_lc = ordinary_value([a] * n)
    e = 3 + 3 * n * a * (n - 1) + n * n * (triple - 1) + 3 * (nfold - 1)
    mult_rhs = 3 * (3 - 6 * n * a + n * n * 9 * a * a / 4 + 3 * n * n * a * a / 4)
    expect = _expect_global(e, kind, triple_lc and nfold_lc, (3 * n * a - 3) ** 2, mult_rhs)
    return {"name": f"ceva-{n}", "doc": {"surface": {"mode": "plane"}, "components": comps, "points": points},
            "expect": expect, "arrangement": (3 * n, {3: n * n, n: 3})}


CUSP_ARMS = ((2, 1, "0"), (3, 1, "0"))


def cusp_bound(d: int, alpha: Fraction) -> int:
    """Largest cusp count the singularity budget allows on a degree-d curve."""
    value = star_value(1, CUSP_ARMS + ((1, 0, alpha),))[0]
    cost = 3 * (alpha + 1 - value)
    return floor((-3 * alpha * d + (3 * alpha - alpha * alpha) * d * d) / cost)


def cuspidal_curve(d: int, s: int, alpha: Fraction) -> dict:
    """One degree-d curve at weight alpha with s ordinary cusps (star germs)."""
    genus = (d - 1) * (d - 2) // 2 - s
    local = {"type": "star", "b": 1, "arms": [list(arm) for arm in CUSP_ARMS] + [[1, 0, fmt(alpha)]]}
    doc = {
        "surface": {"mode": "plane"},
        "components": [{"id": "C", "a": fmt(alpha), "genus": genus, "degree": d}],
        "points": [{"id": f"K{i}", "local": local, "incident": [["C", 1]], "m_P": fmt(2 * alpha)}
                   for i in range(s)],
    }
    v, kind, lc = star_value(1, CUSP_ARMS + ((1, 0, alpha),))
    e = 3 - alpha * (2 - 2 * genus - s) + s * (v - 1)
    mult_rhs = 3 * (3 + alpha * (2 * genus - 2) + s * (alpha * alpha - alpha))
    return {"name": f"cuspidal-{d}", "doc": doc,
            "expect": _expect_global(e, kind, lc, (d * alpha - 3) ** 2, mult_rhs),
            "cusps": (d, alpha)}


def small_generic_pair(weights) -> dict:
    """A generic-mode surface with three boundary curves and full pairing
    tables: E1 (g=1), E2 (g=2), R (g=0), two nodes E1.E2, one node each of
    E1.R and E2.R, and a cyclic quotient point on R."""
    a1, a2, a3 = (Fraction(w) for w in weights)
    table = {"E1": {"K": 1, "E1": -1, "E2": 2, "R": 1},
             "E2": {"K": 2, "E1": 2, "E2": 0, "R": 1},
             "R": {"K": 0, "E1": 1, "E2": 1, "R": -2}}
    genus = {"E1": 1, "E2": 2, "R": 0}
    coeff = {"E1": a1, "E2": a2, "R": a3}
    comps = [{"id": c, "a": fmt(coeff[c]), "genus": genus[c], "pairings": table[c]} for c in table]

    def node(pid, left, right):
        return {"id": pid, "local": {"type": "ordinary", "coeffs": [fmt(coeff[left]), fmt(coeff[right])]},
                "incident": [[left, 1], [right, 1]], "m_P": fmt(coeff[left] + coeff[right])}

    points = [node("N1", "E1", "E2"), node("N2", "E1", "E2"), node("N3", "E1", "R"), node("N4", "E2", "R"),
              {"id": "Q", "local": {"type": "cyclic", "n": 5, "q": 2, "d1": fmt(a3), "d2": "0"},
               "incident": [["R", 1]], "m_P": fmt(a3)}]
    doc = {"surface": {"mode": "generic", "e_top": 10, "c1_sq": 5},
           "components": comps, "points": points, "effective": True}
    return {"name": "generic-mode", "doc": doc, "key": ",".join(fmt(w) for w in (a1, a2, a3))}


GENERIC_WEIGHTS = tuple(Fraction(p, q) for p, q in ((1, 2), (2, 5), (3, 5), (1, 3), (2, 3), (3, 7), (4, 7), (4, 9), (5, 9), (3, 8), (5, 8)))
CUSP_ALPHAS = tuple(Fraction(p, q) for p, q in ((1, 3), (3, 10), (2, 7), (5, 16), (4, 13), (5, 17), (7, 23), (6, 19)))
SMALL_PAIR_WEIGHTS = (("1/2", "1/3", "1"), ("2/3", "1/2", "1/4"), ("1", "1", "1/2"),
                      ("3/4", "1/5", "2/3"), ("1/6", "5/6", "1/3"), ("2/5", "3/7", "5/8"))


def global_pairs(seed: int, recorded: dict, k: int = 120, n: int = 24, d: int = 100, cusps: int = 2800) -> list:
    """Four pair documents; the first three carry closed-form expectations,
    the small generic-mode pair one recorded from the seed commit."""
    rng = _rng("global-pairs", seed)
    alpha = rng.choice(CUSP_ALPHAS)
    s = cusps + rng.randint(0, cusps // 28)
    if s > cusp_bound(d, alpha):
        raise ValueError(f"{s} cusps exceed the bound at degree {d}, alpha {alpha}")
    small = small_generic_pair(rng.choice(SMALL_PAIR_WEIGHTS))
    small["expect"] = recorded["global"][small["key"]]
    return [
        generic_arrangement(k, rng.choice(GENERIC_WEIGHTS)),
        ceva_arrangement(n, Fraction(1, rng.randint(n // 2, n))),
        cuspidal_curve(d, s, alpha),
        small,
    ]


# --- cusp-optimize ----------------------------------------------------------


def cusp_ratio(alpha: Fraction) -> Fraction:
    return (3 * alpha - alpha * alpha) / (3 * (alpha + 1 - Fraction(3, 2) * (alpha - Fraction(5, 6)) ** 2))


def cusp_optimum(grid: int):
    """The grid minimiser of the cusp ratio, exactly.

    The ratio has one critical point alpha* = (sqrt 73 - 1)/24 in (1/6, 5/6]
    and is unimodal there, so the minimiser is one of the two grid points
    either side of grid * alpha*; floor(grid * sqrt 73) = isqrt(73 grid^2).
    """
    j0 = (isqrt(73 * grid * grid) - grid) // 24
    start, stop = grid // 6 + 1, (5 * grid) // 6
    best = None
    for j in (j0, j0 + 1):
        if start <= j <= stop:
            alpha = Fraction(j, grid)
            if best is None or cusp_ratio(alpha) < best[1]:
                best = (alpha, cusp_ratio(alpha))
    return best


def sqrt73_bracket(scale: int = 10 ** 30):
    root = isqrt(73 * scale * scale)
    return Fraction(root, scale), Fraction(root + 1, scale)


def cusp_optimize(seed: int, base: int = 60_000) -> dict:
    grid = base + _rng("cusp-optimize", seed).randint(0, 96)
    return {"grid": grid, "expected": cusp_optimum(grid)}


# --- trivial inputs for the set-up probe -------------------------------------

SMOOTH_CUBIC = json.dumps({"surface": {"mode": "plane"},
                           "components": [{"id": "C", "a": "1", "genus": 1, "degree": 3}], "points": []})
SETUP_ARGV = {
    "local-batch": ["local", "--ordinary", "1/2"],
    "germ-batch": ["germ", "x^2+y^3"],
    "global-pairs": ["global", SMOOTH_CUBIC],
    "cusp-optimize": ["cusps", "--degree", "6", "--alpha", "1/2"],
}
