"""hopfgal benchmark: one workload per process, one client, closed loop.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload W --seed N --seconds S --check-counts

Run from the repository root.  Each query is one call of
`hopfgal.cli.main(argv)` with stdout captured; queries run one after
another and every answer is checked against bench/workloads.py.

--trace 0 sets up SETUPS times (fresh import of the package plus input
generation, median reported as setup_s), then repeats whole passes over
the query list while the next pass is expected to end within --seconds
(at least one pass).  --trace 1 runs one plain pass and one traced pass,
checks that both give the same answers, and reports the per-layer
metrics.  --check-counts runs the traced workload under two hash seeds in
child processes and checks that every count metric repeats exactly.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
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

import workloads
from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUPS = 10
# queries faster than LATENCY_MAX_S are sampled again for this long
LATENCY_WINDOW_S = 5.0
LATENCY_MAX_S = 0.5

# package modules each workload must reach in the traced run
LAYERS = {
    "hopf-h3": {"cli", "hopf", "pcseq", "freenil", "matrices", "abelian"},
    "oracle": {"cli", "checks", "hopf", "pcseq", "freenil", "matrices",
               "abelian", "bar"},
    "verify": {"cli", "checks", "hopf", "pcseq", "freenil", "matrices",
               "abelian", "bar", "groups", "galois", "cubes"},
}


def load_program():
    """Import hopfgal.cli afresh from this checkout's src directory."""
    for name in [n for n in sys.modules
                 if n == "hopfgal" or n.startswith("hopfgal.")]:
        del sys.modules[name]
    cli = importlib.import_module("hopfgal.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError("hopfgal imported from %s, not from %s"
                          % (cli.__file__, SRC))
    return cli


def setup(workload, seed, workdir):
    """(seconds, cli module, queries, input digest) of one fresh set-up."""
    start = time.perf_counter()
    cli = load_program()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    queries, digest = workloads.build_queries(workload, seed, workdir)
    return time.perf_counter() - start, cli, queries, digest


def run_query(cli, query):
    """(seconds, problem or "", report without timings)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(query.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed query, not a dead run
        return time.perf_counter() - start, "raised %r" % (exc,), None
    elapsed = time.perf_counter() - start
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        return elapsed, "exit %r, no JSON report: %s" % (
            code, err.getvalue().strip()[:200]), None
    report.pop("timings", None)
    return elapsed, workloads.check_report(query, code, report), report


def run_pass(cli, queries):
    """(pass seconds, per-query seconds, problems, answers)."""
    start = time.perf_counter()
    times, problems, answers = [], [], []
    for query in queries:
        elapsed, problem, report = run_query(cli, query)
        times.append(elapsed)
        answers.append(report)
        if problem:
            problems.append("%s: %s" % (query.label, problem))
    return time.perf_counter() - start, times, problems, answers


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def measure(args, workdir):
    """Set up, run, check; returns (result dict, human-readable lines)."""
    lines, problems = [], []
    setups = []
    digests = set()

    def set_up(times):
        for _ in range(times):
            seconds, cli, queries, digest = setup(args.workload, args.seed,
                                                  workdir)
            setups.append(seconds)
            digests.add(digest)
        # the replaced modules are left behind as garbage
        gc.collect()
        return cli, queries, digest

    # half the set-ups run before the queries and half after, so that
    # their median spans more than one phase of machine noise
    cli, queries, digest = set_up(SETUPS // 2)
    lines.append("inputs sha256 %s (%d queries)" % (digest, len(queries)))

    attempted = 0
    if not args.trace:
        passes, per_query = [], [[] for _ in queries]
        start = time.perf_counter()
        while True:
            seconds, times, bad, _ = run_pass(cli, queries)
            passes.append(seconds)
            for samples, elapsed in zip(per_query, times):
                samples.append(elapsed)
            problems.extend(bad)
            attempted += len(queries)
            if time.perf_counter() - start + seconds > args.seconds:
                break
        # latency noise here comes in phases of a second or two, so the
        # cheap queries are sampled again, round-robin, over a fixed window
        # rather than a fixed count; the pass times above are untouched
        cheap = [i for i, samples in enumerate(per_query)
                 if samples[0] < LATENCY_MAX_S]
        start = time.perf_counter()
        while cheap and time.perf_counter() - start < LATENCY_WINDOW_S:
            for i in cheap:
                elapsed, problem, _ = run_query(cli, queries[i])
                per_query[i].append(elapsed)
                attempted += 1
                if problem:
                    problems.append("%s: %s" % (queries[i].label, problem))
        medians = [statistics.median(samples) for samples in per_query]
        set_up(SETUPS - SETUPS // 2)
        for query, median, samples in zip(queries, medians, per_query):
            lines.append("query %-16s %10.4f s  median of %d"
                         % (query.label, median, len(samples)))
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(passes),
            "query_p50_s": statistics.median(medians),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        sample_counts = {"setup_s": "%d set-ups" % len(setups),
                         "wall_s": "%d passes" % len(passes),
                         "query_p50_s": "median of %d per-query medians, "
                                        "%d samples" % (len(medians), sum(
                                            map(len, per_query))),
                         "peak_rss_mb": "1 process"}
        kind = "end_to_end"
    else:
        plain, _, bad, plain_answers = run_pass(cli, queries)
        problems.extend(bad)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _, bad, traced_answers = run_pass(cli, queries)
        finally:
            tracer.uninstall()
        problems.extend(bad)
        attempted += 2 * len(queries)
        if traced_answers != plain_answers:
            problems.append("traced answers differ from untraced answers")
        missing = LAYERS[args.workload] - tracer.layers_seen()
        if missing:
            problems.append("no span recorded in: %s"
                            % ", ".join(sorted(missing)))
        values = tracer.metrics()
        values["trace.overhead_frac"] = traced / plain - 1.0
        sample_counts = {}
        lines.append("untraced pass %.3f s, traced pass %.3f s"
                     % (plain, traced))
        kind = "per_layer"

    if len(digests) != 1:
        problems.append("same seed gave different inputs: %s"
                        % sorted(digests))
    metrics = {}
    for name, unit in declared_metrics(kind):
        metrics[name] = {"value": values[name], "unit": unit}
        lines.append("%-44s %14.6g %-6s %s" % (
            name, values[name], unit, sample_counts.get(name, "")))
    failed = len(problems)
    lines.extend("FAILED " + p for p in problems)
    lines.append("failed_frac %.4f (%d of %d attempted)"
                 % (failed / attempted, failed, attempted))
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}, lines


def check_counts(args):
    """Two traced runs under different hash seeds; counts must repeat."""
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    counts = [{k: m["value"] for k, m in run["metrics"].items()
               if m["unit"] == "count"} for run in runs]
    differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
    for key in sorted(counts[0]):
        print("%-44s %12d %12d" % (key, counts[0][key], counts[1][key]))
    print("count metrics %s under PYTHONHASHSEED 1 and 2%s"
          % ("differ" if differ else "identical",
             ": " + ", ".join(differ) if differ else ""))
    return 1 if differ or not all(r["correct"] for r in runs) else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-counts", action="store_true")
    args = parser.parse_args()
    if args.check_counts:
        return check_counts(args)

    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".bench_work",
                           "%s-%d-%d" % (args.workload, args.seed,
                                         os.getpid()))
    try:
        result, lines = measure(args, workdir)
    except ImportError as exc:
        print("error: cannot load the program: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
