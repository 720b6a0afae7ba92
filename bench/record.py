"""Write ``recorded.json``: outputs that have no closed form, taken from the
program as it stands.  The committed file was written at the seed commit;
rerun only if the recorded inputs change, and on code whose outputs are
trusted.

    python3 bench/record.py

Recorded: (mu, tau, truncation) of every polynomial a germ corpus may draw,
and the machine-output values of every variant of the small generic-mode
pair.  Closed-form families are checked against their formulas on the way.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import corpus

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from orbeuler import germ_invariants
    from orbeuler.cli import main as cli_main

    germs = {}
    for poly, family in sorted(corpus.germ_pool().items()):
        inv = germ_invariants(poly, 64)
        if not corpus.germ_closed_form(family, inv.mu, inv.tau):
            raise SystemExit(f"{poly}: ({inv.mu}, {inv.tau}) contradicts its closed form {family}")
        germs[poly] = [inv.mu, inv.tau, inv.truncation_used]

    pairs = {}
    for weights in corpus.SMALL_PAIR_WEIGHTS:
        pair = corpus.small_generic_pair(weights)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["--format", "machine", "global", json.dumps(pair["doc"])])
        values = json.loads(out.getvalue())["values"]
        values.pop("notes")
        pairs[pair["key"]] = {"values": values, "exit": code}

    with open(corpus.RECORDED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"germs": germs, "global": pairs}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(germs)} germs and {len(pairs)} generic-mode pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
