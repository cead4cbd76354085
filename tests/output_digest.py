"""One sha256 over topzeta's outputs on fixed inputs: two checkouts that
print the same digest print the same bytes, exit codes and diagnostics.

    python3 tests/output_digest.py [ROOT]

imports topzeta from ROOT/src, ROOT the checkout this script is in by
default, and runs it in-process on:

- the golden cases of ``test_golden.py``, with and without ``--json``;
- ``topzeta tree`` on the ``tree-report`` and ``deep-large`` corpora of
  ``perfbench/corpora.py``, seeds 1 and 2, each with no flag, ``--json``,
  ``--oracle`` and ``--json --oracle``;
- ``topzeta poly --oracle`` on the ``poly-wide`` corpora, seeds 1 and 2;
- ``topzeta poly`` on the Fermat curves of ``WIDE_FERMAT``, past
  ``poly-wide``'s n <= 201, with and without ``--json``: their
  characteristic polynomials have binomial coefficients of up to 299
  digits, and that of x^1000 + y^1000, mu = 998,001, is the largest
  Fermat curve's under the expansion cap;
- ``topzeta poly`` on the curves of ``STRIDED``, with and without
  ``--json``: the text report reads each characteristic polynomial at
  the powers ``kg + j``, ``0 <= j <= e_1``, alone, with g = 3 for
  x^6 + y^9 and 4 for the others, beside the Fermat curves' g = n;
- the verdicts of ``check_instance`` on the ``fuzz-oracle`` corpora,
  seeds 1 and 2, as the benchmark prints them;
- ``topzeta fuzz --count 200 --seed 7 --json``;
- ``topzeta tree`` on the invalid trees of ``INVALID_TREES``, whose exit
  code and diagnostics on stderr the digest holds.

The inputs come from this checkout's ``tests/golden`` and ``perfbench``.
It prints the digest and the number of outputs.  To hold a change to the
output of its parent commit, run it on both from the change's checkout:

    git archive <parent> | tar -x -C <dir>
    python3 tests/output_digest.py <dir>
    python3 tests/output_digest.py

It takes about 20 seconds on each.  pytest does not collect it: the name
does not start with ``test_``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = (1, 2)
TREE_FLAGS = ([], ["--json"], ["--oracle"], ["--json", "--oracle"])
WIDE_FERMAT = ("x^400 + y^400", "x^800 + y^800", "x^1000 + y^1000")
STRIDED = ("x^6 + y^9", "x^4 - y^4", "x^12 + y^8")
SUB = {"faces": [{"a": 2, "b": 7, "classes": ["leaf"]}]}
# trees that the JSON reader or the validator rejects; no diagnostic of
# theirs names the file, so the digest does not depend on where it is
INVALID_TREES = {
    "string-a": {"faces": [{"a": "2", "b": 3, "classes": [SUB]}]},
    "float-a": {"faces": [{"a": 2.0, "b": 3, "classes": ["leaf"]}]},
    "null-class": {"faces": [{"a": 2, "b": 3, "classes": [None]}]},
    "non-face-in-sub-bamboo": {"faces": [{"a": 2, "b": 3, "classes": [{"faces": ["face"]}]}]},
    "empty-sub-bamboo": {"faces": [{"a": 2, "b": 3, "classes": [{"faces": []}]}]},
    "four-diagnostics": {"faces": [
        {"a": 0, "b": 3, "classes": ["leaf"]},
        {"a": 2, "b": 4, "classes": [{"faces": [{"a": 1, "b": 2, "classes": []}]}]}]},
    "bad-key": {"faces": [{"a": 2, "b": 3, "classes": ["leaf"], "c": 1}]},
}


def main(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(1, str(HERE.parent / "perfbench"))
    from corpora import CORPORA
    from test_golden import CASES
    from topzeta import cli

    if Path(cli.__file__).resolve().parents[1] != root / "src":
        raise ImportError(f"topzeta was imported from {cli.__file__}, not from {root / 'src'}")

    digest = hashlib.sha256()
    count = 0

    def add(label, code, out, err=""):
        nonlocal count
        digest.update(json.dumps([label, code, out, err]).encode() + b"\n")
        count += 1

    def run(label, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        add(label, code, out.getvalue(), err.getvalue())

    for name, argv in CASES.items():
        for flags in ([], ["--json"]):
            run(f"golden {name} {flags}", argv + flags)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in ("tree-report", "deep-large"):
            for seed in SEEDS:
                for i, tree in enumerate(CORPORA[workload](seed)):
                    path = Path(tmp, f"{workload}-{seed}-{i}.json")
                    path.write_text(json.dumps(tree), encoding="utf-8")
                    for flags in TREE_FLAGS:
                        run(f"{path.name} {flags}", ["tree", str(path), *flags])
        for name, tree in INVALID_TREES.items():
            path = Path(tmp, f"invalid-{name}.json")
            path.write_text(json.dumps(tree), encoding="utf-8")
            run(path.name, ["tree", str(path)])
    for seed in SEEDS:
        for i, (expr, _, _) in enumerate(CORPORA["poly-wide"](seed)):
            run(f"poly-wide-{seed}-{i}", ["poly", expr, "--oracle"])
        for i, (tree, ray_seed) in enumerate(CORPORA["fuzz-oracle"](seed)):
            verdicts = cli.check_instance(cli.tree_from_json(tree), ray_seed=ray_seed)
            add(f"fuzz-oracle-{seed}-{i}", 0, json.dumps(verdicts, sort_keys=True))
    for expr in WIDE_FERMAT + STRIDED:
        for flags in ([], ["--json"]):
            run(f"{expr} {flags}", ["poly", expr, *flags])
    run("fuzz", ["fuzz", "--count", "200", "--seed", "7", "--json"])
    print(f"{digest.hexdigest()}  {count} outputs")


if __name__ == "__main__":
    main(Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else HERE.parent)
