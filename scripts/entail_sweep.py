#!/usr/bin/env python3
"""Check the entailer against the model over seeded entailment pairs.

For each seed, tests/conftest.py's entail_pairs draws one pair P => Q per
shape.  Every pair that logic.entail_basic proves is tested with
Tester.test_entailment on the fuzz configuration.  The report gives, per
shape, how many pairs were proved and how many of those the model refutes,
split into the known cause ("bot-diamond": at the bottom heap with <> on
the right, the _member_diamond defect) and any other ("refuted").

Exit status 1 when the model refutes a proved pair for any other cause
(a kernel soundness bug), or when a pair that the --against file proves
is no longer proved here.

  PYTHONPATH=src python scripts/entail_sweep.py --seeds 1500
  PYTHONPATH=src python scripts/entail_sweep.py --seeds 1500 --save a.json
  PYTHONPATH=other/src python scripts/entail_sweep.py --seeds 1500 \\
      --against a.json

--save writes the proved pairs as "seed:shape" names; --against reads such
a file and counts the pairs proved here but not there, and the reverse,
among the names of the seeds run here.

The last two lines are the CPU time spent in entail_basic alone and the
wall time of the whole sweep, model checks included.
"""

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import SHAPES, entail_pairs, model_refutes  # noqa: E402
from sepstore.fuzz import fuzz_config  # noqa: E402
from sepstore.grammar import pretty  # noqa: E402
from sepstore.logic import entail_basic  # noqa: E402
from sepstore.semantics import Tester  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--seeds", type=int, default=1500,
                    help="seeds 0..N-1, one pair per shape each")
    ap.add_argument("--save", help="write the proved pairs' names here")
    ap.add_argument("--against", help="compare with a --save file")
    args = ap.parse_args(argv)

    t0 = time.time()
    proved, causes, names = Counter(), Counter(), []
    entail_cpu = 0.0
    for seed in range(args.seeds):
        # a fresh Tester per seed, so that its member cache does not grow
        # with the length of the sweep
        tester = Tester(fuzz_config())
        for shape, (P, Q) in entail_pairs(seed).items():
            c0 = time.process_time()
            ok = entail_basic(P, Q)
            entail_cpu += time.process_time() - c0
            if not ok:
                continue
            proved[shape] += 1
            names.append(f"{seed}:{shape}")
            cause = model_refutes(tester, P, Q)
            if cause is not None:
                causes[shape, cause] += 1
                if cause != "bot-diamond":
                    print(f"REFUTED seed {seed} {shape}: "
                          f"{pretty(P)} => {pretty(Q)}")

    print(f"{'shape':16s} {'pairs':>6s} {'proved':>6s} "
          f"{'bot-diamond':>11s} {'refuted':>7s}")
    for shape in SHAPES:
        print(f"{shape:16s} {args.seeds:6d} {proved[shape]:6d} "
              f"{causes[shape, 'bot-diamond']:11d} "
              f"{causes[shape, 'refuted']:7d}")
    total = sum(causes[s, "refuted"] for s in SHAPES)
    print(f"{'all':16s} {args.seeds * len(SHAPES):6d} "
          f"{sum(proved.values()):6d} "
          f"{sum(causes[s, 'bot-diamond'] for s in SHAPES):11d} {total:7d}")
    if args.save:
        Path(args.save).write_text(json.dumps(names) + "\n")
    lost = set()
    if args.against:
        other = {name for name in json.loads(Path(args.against).read_text())
                 if int(name.split(":")[0]) < args.seeds}
        mine = set(names)
        lost = other - mine
        for name in sorted(lost):
            print(f"NO LONGER PROVED {name}")
        print(f"against {args.against}: {len(mine - other)} newly proved, "
              f"{len(lost)} no longer proved")
    print(f"entail_basic {entail_cpu:.2f}s cpu")
    print(f"{time.time() - t0:.1f}s")
    return 1 if total or lost else 0


if __name__ == "__main__":
    sys.exit(main())
