"""Output checks: compare the values the CLI prints with the expected ones.

Values are compared, not formatting: rationals are parsed before comparison
and keys the checker does not know are ignored, so additive output keys do
not fail a check.  Each checker takes the parsed machine output and returns
the number of items that failed.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

import corpus


def _rat(text):
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def _items(payload, count: int):
    """The item list of a batch output, or None when it is malformed."""
    try:
        values = payload["values"]
        items = values["items"] if count > 1 else [values]
    except (TypeError, KeyError):
        return None
    return items if isinstance(items, list) and len(items) == count else None


def local_items(payload, expected) -> int:
    items = _items(payload, len(expected))
    if items is None:
        return len(expected)
    failed = 0
    for item, (value, kind, lc) in zip(items, expected):
        ok = (isinstance(item, dict) and _rat(item.get("value")) == value
              and item.get("kind") == kind and item.get("lc") == ("lc" if lc else "non-lc"))
        failed += not ok
    return failed


def germ_items(payload, families, expected) -> int:
    items = _items(payload, len(expected))
    if items is None:
        return len(expected)
    failed = 0
    for item, family, (mu, tau, truncation) in zip(items, families, expected):
        try:
            got = [int(item[key]) for key in ("mu", "tau", "e_orb", "truncation")]
            lct = item["lct"]
        except (TypeError, KeyError, ValueError):
            failed += 1
            continue
        ok = (got == [mu, tau, mu - tau, truncation]
              and corpus.germ_closed_form(family, got[0], got[1])
              and lct == ("LCT-fails" if mu > tau else "no-obstruction"))
        failed += not ok
    return failed


def global_values(payload, expect) -> bool:
    try:
        values = payload["values"]
        for key, want in expect["values"].items():
            got = values[key]
            if isinstance(want, bool) or key.endswith(("verdict", "kind")) or key == "lc":
                if got != want:
                    return False
            elif _rat(got) != Fraction(want):
                return False
    except (TypeError, KeyError):
        return False
    return True


def cusp_values(payload, grid: int, expected) -> bool:
    """Exact grid optimum, and an isqrt bracket around the limits
    alpha* = (sqrt 73 - 1)/24 and ratio* = (125 + sqrt 73)/432."""
    try:
        alpha, ratio = _rat(payload["values"]["alpha_star"]), _rat(payload["values"]["ratio_star"])
    except (TypeError, KeyError):
        return False
    if (alpha, ratio) != expected:
        return False
    lo, hi = corpus.sqrt73_bracket()
    alpha_lo, alpha_hi = (lo - 1) / 24, (hi - 1) / 24
    ratio_lo, ratio_hi = (125 + lo) / 432, (125 + hi) / 432
    return (alpha_lo - Fraction(1, grid) < alpha < alpha_hi + Fraction(1, grid)
            and ratio_lo <= ratio < ratio_hi + Fraction(1, grid * grid))


def setup_output(payload) -> bool:
    return isinstance(payload, dict) and isinstance(payload.get("values"), dict) and bool(payload["values"])


def parse(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def corrupt(payload):
    """A copy of a machine output with its first rational value moved by one."""
    bad = copy.deepcopy(payload)

    def walk(node):
        entries = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in entries:
            if isinstance(value, str) and _rat(value) is not None:
                node[key] = str(_rat(value) + 1)
                return True
            if walk(value):
                return True
        return False

    if not walk(bad.get("values") if isinstance(bad, dict) else None):
        raise ValueError("no rational value to corrupt")
    return bad


def self_test(jobs, payloads) -> list:
    """Feed every checker a corrupted copy of an output it passed; return
    the jobs whose checker passed the corrupted copy too.  Outputs that
    already fail are counted as failures elsewhere and skipped here."""
    return [job["label"] for job, payload in zip(jobs, payloads)
            if payload is not None and job["check"](payload) == 0 and job["check"](corrupt(payload)) == 0]
