"""Seeded benchmark of topzeta, one workload per run.

    python3 perfbench/run.py --workload tree-report --seed 1 --seconds 20 --trace 0

Runs from the root of a source tree and imports topzeta from its `src/`
directory, single-threaded, through the package's public functions only.
A run sets up (import, corpus, input files, warm-up) five times and
reports the median as setup_s, then runs whole rounds over the corpus
for about --seconds, timing each instance.  The outputs of the first
round are checked afterwards against independent computations (see
checks.py); later rounds must reproduce them byte for byte.

The speed of a shared machine drifts by a fifth and more from one
minute to the next, and within seconds.  So a fixed pure-Python loop
that runs no topzeta code (the reference) is timed after every
instance, and the end-to-end times are scaled to a machine on which it
takes REF_NOMINAL_S.  An instance's time is scaled by the median of the
references taken from its own duration before its start to its own
duration after its end (at least those just before and after it), and
throughput is the number of instances over the sum of their scaled
times.  Each set-up is scaled by the median of SETUP_REFS references
timed just before it and SETUP_REFS just after.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and prints the per-layer metrics, per round, plus the
tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
SETUP_REFS = 5         # references timed before and after each set-up
MIN_SAMPLES = 100      # so that ten or more timed instances lie beyond the 90th percentile
REF_STEPS = 5_000
# Median time of reference_s() on the 2-core x86-64 machine of the
# reference figures in README.md, under CPython 3.11.7.
REF_NOMINAL_S = 0.00045

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from oracle import poly_graph, tree_graph  # noqa: E402
from spans import COUNTERS, Tracer, recording  # noqa: E402

CUSP = {"faces": [{"a": 2, "b": 3, "classes": ["leaf"]}]}


def reference_s():
    """Time of a fixed pure-Python loop that touches no topzeta code."""
    t0 = time.perf_counter()
    x = 1
    for _ in range(REF_STEPS):
        x = x * 3 % 1_000_003
    return time.perf_counter() - t0


def import_topzeta():
    """A fresh import of topzeta from SRC; returns topzeta.cli."""
    for name in [k for k in sys.modules if k == "topzeta" or k.startswith("topzeta.")]:
        del sys.modules[name]
    cli = importlib.import_module("topzeta.cli")
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise ImportError(f"topzeta was imported from {cli.__file__}, not from {SRC}")
    return cli


def make_corpus(workload, seed):
    """The workload's corpus, generated by corpora.py in a child process."""
    proc = subprocess.run([sys.executable, str(HERE / "corpora.py"), workload, str(seed)],
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout)


def _main_op(cli, argv):
    """One `topzeta ...` command in-process: (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _write_tree(path, tree):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree, fh)
    return str(path)


class TreeCommand:
    """`topzeta tree <file> [--oracle]` over a tree corpus."""

    def __init__(self, flags):
        self.flags = flags

    def build(self, cli, corpus, workdir):
        self.trees = corpus
        paths = [_write_tree(workdir / f"tree-{i}.json", t) for i, t in enumerate(self.trees)]
        self.ops = [lambda p=p: _main_op(cli, ["tree", p, *self.flags]) for p in paths]
        warm = _write_tree(workdir / "warm.json", CUSP)
        return lambda: _main_op(cli, ["tree", warm, *self.flags])

    def check(self, i, text):
        return checks.check_report(text, tree_graph(self.trees[i]), oracle="--oracle" in self.flags)


class PolyCommand:
    """`topzeta poly "<expr>"` over a polynomial corpus."""

    def build(self, cli, corpus, workdir):
        self.polys = [(e, [tuple(f) for f in faces], [tuple(p) for p in support])
                      for e, faces, support in corpus]
        self.ops = [lambda e=e: _main_op(cli, ["poly", e]) for e, _, _ in self.polys]
        return lambda: _main_op(cli, ["poly", "x^2 + y^3"])

    def check(self, i, text):
        _, faces, support = self.polys[i]
        return checks.check_report(text, poly_graph(faces, support), faces=faces, support=support)


class FuzzInstance:
    """`check_instance`, the unit of work of `topzeta fuzz`."""

    def build(self, cli, corpus, workdir):
        def op(spec, ray_seed):
            verdicts = cli.check_instance(spec, ray_seed=ray_seed)
            return 0, json.dumps(verdicts, sort_keys=True)

        self.cli = cli
        self.instances = [(t, cli.tree_from_json(t), r) for t, r in corpus]
        self.ops = [lambda s=s, r=r: op(s, r) for _, s, r in self.instances]
        warm = cli.tree_from_json(CUSP)
        return lambda: op(warm, 0)

    def check(self, i, text):
        """The verdicts, and the values check_instance compared, recorded
        in one more untimed call and recomputed independently."""
        tree, spec, ray_seed = self.instances[i]
        with recording(self.cli, checks.FUZZ_RECORDED) as calls:
            self.cli.check_instance(spec, ray_seed=ray_seed)
        return checks.check_fuzz(json.loads(text)) + checks.check_fuzz_values(calls, tree_graph(tree))


WORKLOADS = {
    "tree-report": lambda: TreeCommand([]),
    "fuzz-oracle": FuzzInstance,
    "poly-wide": PolyCommand,
    "deep-large": lambda: TreeCommand(["--oracle"]),
}


def setup(workload, seed, workdir):
    """Corpus, import, input files and warm-up; returns the workload and,
    over SETUP_REPEATS set-ups, the median set-up time scaled by the
    references just before and after each, the median unscaled, and the
    median time of the corpus alone (the rest is topzeta's import and
    warm-up, and the input files)."""
    times, scaled, corpus_times = [], [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        refs = [reference_s() for _ in range(SETUP_REFS)]
        t0 = time.perf_counter()
        corpus = make_corpus(workload, seed)
        corpus_times.append(time.perf_counter() - t0)
        cli = import_topzeta()
        work = WORKLOADS[workload]()
        warm = work.build(cli, corpus, workdir)
        code, _ = warm()
        times.append(time.perf_counter() - t0)
        refs += [reference_s() for _ in range(SETUP_REFS)]
        scaled.append(times[-1] * REF_NOMINAL_S / statistics.median(refs))
        if code != 0:
            raise RuntimeError(f"warm-up exited with {code}")
    return (work, statistics.median(scaled), statistics.median(times),
            statistics.median(corpus_times))


class Runner:
    """Runs whole rounds; keeps per-instance times and starts, every
    reference time and when it was taken (one before the first instance,
    then one after each), the first round's outputs on disk, the
    operations that failed (raised or exited nonzero) and the instances
    whose output changed between rounds."""

    def __init__(self, work, workdir):
        self.work, self.workdir = work, workdir
        self.samples, self.starts, self.rounds = [], [], []
        self.refs, self.ref_times = [], []
        self.digests, self.failures, self.unstable = {}, {}, set()
        self.attempted = self.failed = 0

    def round(self, tracer=None):
        spent = 0.0
        first = not self.rounds
        if not self.refs:
            self.reference()
        for i, op in enumerate(self.work.ops):
            span = tracer.instance_span(i) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    code, text = op()
            except Exception as exc:       # the program must not raise; count it failed
                code, text = repr(exc), ""
            dt = time.perf_counter() - t0
            self.reference()
            spent += dt
            self.attempted += 1
            self.samples.append(dt)
            self.starts.append(t0)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if code != 0:
                self.failed += 1
                self.failures[i] = f"exit {code}"
            elif first:
                (self.workdir / f"out-{i}.txt").write_text(text, encoding="utf-8")
                self.digests[i] = digest
            elif self.digests.get(i) not in (None, digest):
                self.unstable.add(i)
        self.rounds.append(spent)
        return spent

    def reference(self):
        self.ref_times.append(time.perf_counter())
        self.refs.append(reference_s())

    def scaled(self):
        """Each instance's time scaled to REF_NOMINAL_S by the median
        reference over its own duration on either side of it; instance j
        lies between references j and j + 1."""
        out = []
        for j, (t0, dt) in enumerate(zip(self.starts, self.samples)):
            lo = min(j, bisect.bisect_left(self.ref_times, t0 - dt))
            hi = max(j + 2, bisect.bisect_right(self.ref_times, t0 + 2 * dt))
            out.append(dt * REF_NOMINAL_S / statistics.median(self.refs[lo:hi]))
        return out


def run_rounds(seconds, one_round, min_rounds=1):
    """Whole rounds while another one fits in ``seconds``, and at least
    ``min_rounds``."""
    start = time.perf_counter()
    done = 0
    while True:
        one_round()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= min_rounds and elapsed + elapsed / done > seconds:
            return


def check_outputs(runner):
    """Run every check on the first-round output of each instance."""
    problems = [f"instance {i}: output differs between rounds" for i in sorted(runner.unstable)]
    for i in sorted(runner.digests):
        text = (runner.workdir / f"out-{i}.txt").read_text(encoding="utf-8")
        problems += [f"instance {i}: {p}" for p in runner.work.check(i, text)]
    return problems


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "topzeta").rglob("*.py")))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "topzeta" / "__init__.py").is_file():
        print(f"error: no topzeta sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    try:
        work, setup_s, setup_raw_s, corpus_s = setup(args.workload, args.seed, workdir)
        runner = Runner(work, workdir)
        if args.trace:
            tracer = Tracer()
            plain, traced = [], []

            def pair():
                plain.append(runner.round())
                tracer.install()
                try:
                    traced.append(runner.round(tracer))
                finally:
                    tracer.uninstall()

            run_rounds(args.seconds, pair)
        else:
            run_rounds(args.seconds, runner.round, -(-MIN_SAMPLES // len(work.ops)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        t0 = time.perf_counter()
        problems = check_outputs(runner)
        check_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for i, why in sorted(runner.failures.items()):
        print(f"instance {i} failed: {why}", file=sys.stderr)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        n = len(traced)
        metrics = {k: (v / n, "s") for k, v in sorted(tracer.layer_seconds().items())}
        metrics.update({k: (tracer.counts[k] / n, "count") for k in COUNTERS})
        metrics["newton.face_degree_max"] = (tracer.counts["newton.face_degree_max"], "count")
        metrics["package.src_lines"] = (src_lines(), "count")
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        tracer.dump(OUT / f"{tag}.spans.jsonl")
    else:
        raw_per_s = len(runner.samples) / sum(runner.rounds)
        scaled = runner.scaled()
        metrics = {
            "setup_s": (setup_s, "s"),
            "instances_per_s": (len(scaled) / sum(scaled), "1/s"),
            "instance_ms_p50": (1000 * statistics.median(scaled), "ms"),
            "instance_ms_p90": (1000 * statistics.quantiles(scaled, n=10)[8], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        samples = runner.samples
        print(f"# unscaled: setup_s {setup_raw_s:.4g} s, instances_per_s {raw_per_s:.4g} 1/s, "
              f"instance_ms_p50 {1000 * statistics.median(samples):.4g} ms, instance_ms_p90 "
              f"{1000 * statistics.quantiles(samples, n=10)[8]:.4g} ms; "
              f"median reference {1000 * statistics.median(runner.refs):.4g} ms")
    print(f"# {args.workload} seed {args.seed}: {len(runner.rounds)} rounds of "
          f"{len(work.ops)} instances, {len(runner.samples)} samples; checks took {check_s:.1f} s; "
          f"set-up {setup_raw_s:.3f} s, of which the corpus {corpus_s:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
