"""Regenerate the constants of the tree-report cost model in corpora.py.

    python3 perfbench/calibrate.py

Prints EXPANDED_TARGETS and FUZZ_TARGETS, computed from the cost model
and the graph size alone (no timing, so the same on every machine), and
a fitted PRINT_WEIGHT, which
times topzeta and so varies with the machine, the interpreter and the
program.  Run it from the root of a source tree; it takes about a minute.

- EXPANDED_TARGETS: the calibration pool is 1000 trees of the acceptance
  distribution from each of the rng seeds "calibrate/0" to
  "calibrate/3".  Over its trees with an expanded characteristic
  polynomial the targets are the quantiles (i + 1/2)/12 of the modelled
  cost, i = 0..11, except that strata 7 to 9 are sampled by three trees
  at their median quantile 8.5/12 (see corpora.py).
- FUZZ_TARGETS: over all trees of the pool, the quantiles (i + 1/2)/120
  of corpora.graph_size, i = 0..119.
- PRINT_WEIGHT: over WEIGHT_TREES pool trees of mu > 20000, picked by
  quantile of mu, the time `render_report` takes per nonzero coefficient
  over the time `characteristic_poly` takes per coefficient touched by
  the expansion.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpora  # noqa: E402
from oracle import acampo, milnor_number, tree_graph  # noqa: E402

POOL_SEEDS, POOL_TREES = 4, 1000
STRATA = 12
MERGED = (7, 8, 9)          # sampled together at their median quantile
WEIGHT_TREES = 32
FUZZ_STRATA = 120


def calibration_pool():
    """(tree, monodromy) of every tree of the pool."""
    out = []
    for k in range(POOL_SEEDS):
        rng = random.Random(f"calibrate/{k}")
        for _ in range(POOL_TREES):
            t = corpora.random_tree(rng)
            out.append((t, acampo(tree_graph(t))))
    return out


def fuzz_targets(pool):
    sizes = sorted(corpora.graph_size(t) for t, _ in pool)
    return tuple(sizes[int((i + 0.5) * len(sizes) / FUZZ_STRATA)] for i in range(FUZZ_STRATA))


def targets(pool):
    costs = sorted(corpora.report_cost(m) for _, m in pool)
    middle = statistics.median(MERGED) + 0.5
    quantiles = [middle if i in MERGED else i + 0.5 for i in range(STRATA)]
    return tuple(round(costs[int(q * len(costs) / STRATA)]) for q in quantiles)


def print_weight(pool):
    sys.path.insert(0, str(HERE.parent / "src"))
    from topzeta import cli, equitree, monodromy

    big = [(t, m) for t, m in pool if milnor_number(m) > 20000]
    chosen = corpora._quantile_pick(big, lambda r: milnor_number(r[1]), WEIGHT_TREES)
    expand_s = render_s = work = nonzeros = 0
    for t, m in chosen:
        zm = monodromy.monodromy_zeta(equitree.annotate(cli.tree_from_json(t)))
        t0 = time.perf_counter()
        monodromy.characteristic_poly(zm)
        expand_s += time.perf_counter() - t0
        report, _ = cli.analyze_tree(cli.tree_from_json(t))
        t0 = time.perf_counter()
        cli.render_report(report)
        render_s += time.perf_counter() - t0
        work += corpora.expansion_work(m)
        nonzeros += corpora.charpoly_nonzeros(m)
    return (render_s / nonzeros) / (expand_s / work)


def main():
    pool = calibration_pool()
    print(f"FUZZ_TARGETS = {fuzz_targets(pool)}")
    pool = [(t, m) for t, m in pool if milnor_number(m) <= corpora.EXPANSION_CAP]
    print(f"{len(pool)} expanded trees in the calibration pool")
    print(f"EXPANDED_TARGETS = {targets(pool)}")
    print(f"fitted PRINT_WEIGHT = {print_weight(pool):.1f} (corpora.py uses {corpora.PRINT_WEIGHT})")


if __name__ == "__main__":
    main()
