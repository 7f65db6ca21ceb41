"""The repository's benchmark: one command, four workloads, measured wall-clock.

    python3 perfbench/run.py --workload study-s0.01 --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout.  Each round of a workload runs in a
fresh interpreter (``perfbench/round.py``); a run starts rounds until the
next one would end past ``--seconds`` (always at least one), so every run
attempts whole rounds of the same operations.  ``--trace 0`` reports the
end-to-end metrics (medians over the run's rounds; set-up time is the
median over the rounds and a few extra set-up-only processes).
``--trace 1`` adds one traced round and reports the per-layer metrics,
including ``trace.overhead_s``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Progress and failed checks go to standard error.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

WORKLOADS = ("study-s0.01", "study-s0.1", "observed-s0.05-w2", "hostile-pages")
#: set-up-only processes per untraced run, on top of the rounds' own set-ups
SETUP_PROBES = 4
#: a round that takes longer than this is killed and the run fails
ROUND_TIMEOUT_S = 170
#: the study seed and scale the observed workload's reference is made at
REFERENCE_SEED, REFERENCE_SCALE = 2016, 0.05
#: layer metrics reported beside each layer's calls and self time
EXTRA_LAYER_METRICS = (
    ("crawl.records_per_s", "records/s"),
    ("report_s", "s"),
    ("htmlparse.parse.bytes", "bytes"),
    ("jsengine.lex.bytes", "bytes"),
    ("jsengine.lex.redundancy", "ratio"),
    ("jsengine.compile_cache.hit_ratio", "ratio"),
    ("staticjs.analyze.distinct_ratio", "ratio"),
    ("scanexec.concurrency", "ratio"),
    ("python.gc.s", "s"),
    ("python.gc.gen2.s", "s"),
    ("python.gc.collections", "count"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> Dict[str, str]:
    """The caller's environment without settings that steer ``repro``."""
    return {key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_") and key != "PYTHONPATH"}


def run_child(argv: List[str], env: Dict[str, str]) -> Dict[str, Any]:
    """Run ``argv`` to completion; its last stdout line parsed as JSON."""
    started = time.monotonic()
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=ROUND_TIMEOUT_S, check=False)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d: %s" % (
            " ".join(argv[1:3]), proc.returncode, proc.stderr.strip()[-2000:]))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def run_round(workload: str, seed: int, env: Dict[str, str],
              reference: str = "", setup_only: bool = False,
              trace: bool = False) -> Dict[str, Any]:
    argv = [sys.executable, os.path.join(HERE, "round.py"),
            "--workload", workload, "--seed", str(seed),
            "--reference", reference]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv.append("--trace")
    # the child's set-up time counts from here, so it includes starting
    # the interpreter and importing repro
    argv += ["--spawned", repr(time.monotonic())]
    return run_child(argv, env)


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(os.path.join(root, "src", "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, root).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def serial_reference(root: str, env: Dict[str, str]) -> str:
    """The serial verdict digest, made anew once per checkout and source tree."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "reference-%d-%s-%s.json" % (
        REFERENCE_SEED, REFERENCE_SCALE, source_digest(root)[:16]))
    if not os.path.exists(path):
        log("computing the serial reference digest (once per source tree)")
        reference = run_child([sys.executable, os.path.join(HERE, "reference.py"),
                               "--seed", str(REFERENCE_SEED),
                               "--scale", str(REFERENCE_SCALE)], env)
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(reference, handle)
        os.replace(path + ".tmp", path)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["digest"]


def end_to_end(workload: str, rounds: List[Dict[str, Any]],
               probes: List[Dict[str, Any]]) -> Dict[str, Any]:
    median = statistics.median
    samples = [s for r in rounds for s in r["verdict_s"]]

    # hostile-pages counts every page submitted, the four that raise too
    scanned = "pages" if workload == "hostile-pages" else "verdicts"
    scan_rate = median(r["counts"][scanned] / r["times"]["scan_s"] for r in rounds)
    values = {
        "setup_s": (median(r["times"]["setup_s"] for r in rounds + probes), "s"),
        "run_s": (median(r["times"]["run_s"] for r in rounds), "s"),
        "scan_urls_per_s": (scan_rate, "URLs/s"),
        "verdict_ms_p50": (1e3 * median(samples), "ms"),
        "verdict_ms_p99": (1e3 * statistics.quantiles(samples, n=100)[98], "ms"),
        "peak_rss_mb": (median(r["rss_mb"] for r in rounds), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def crawl_rate(rounds: List[Dict[str, Any]]) -> float:
    """Crawl records per second of crawl wall time, median over rounds."""
    return statistics.median(r["counts"]["records"] / r["times"]["crawl_s"]
                             for r in rounds)


def per_layer(traced: Dict[str, Any], rounds: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The traced round's layer metrics; rates and overhead use ``rounds``."""
    trace = traced["trace"]
    layers = trace["layers"]
    metrics: Dict[str, Any] = {}
    for layer, entry in layers.items():
        metrics["%s.calls" % layer] = {"value": entry["calls"], "unit": "count"}
        metrics["%s.self_s" % layer] = {"value": entry["self_s"], "unit": "s"}
    chars = trace["input_chars"]
    distinct_chars = trace["distinct_chars"]
    lexed = chars.get("jsengine.lex", 0)
    analyzed = layers["staticjs.analyze"]["calls"]
    extras = {
        # untraced: the tracer wraps every fetch, which slows the crawl
        "crawl.records_per_s": crawl_rate(rounds),
        "report_s": statistics.median(r["times"]["report_s"] for r in rounds),
        "htmlparse.parse.bytes": chars.get("htmlparse.parse", 0),
        "jsengine.lex.bytes": lexed,
        "jsengine.lex.redundancy": (lexed / distinct_chars["jsengine.lex"]
                                    if lexed else 0.0),
        "jsengine.compile_cache.hit_ratio": trace["compile_cache_hit_ratio"],
        "staticjs.analyze.distinct_ratio": (
            trace["distinct_inputs"]["staticjs.analyze"] / analyzed if analyzed else 0.0),
        "scanexec.concurrency": trace["scanexec_concurrency"],
        "python.gc.s": trace["gc"]["s"],
        "python.gc.gen2.s": trace["gc"]["gen2_s"],
        "python.gc.collections": trace["gc"]["collections"],
        "trace.overhead_s": trace["run_s"] - statistics.median(
            r["times"]["run_s"] for r in rounds),
        "trace.coverage": trace["coverage"],
    }
    for name, unit in EXTRA_LAYER_METRICS:
        metrics[name] = {"value": extras[name], "unit": unit}
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="drives the hostile-pages corpus; the study "
                             "workloads run the pinned study seed 2016")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        log("no src/repro here: run the benchmark from the root of a checkout")
        return 2
    env = child_env()
    reference = (serial_reference(root, env)
                 if args.workload == "observed-s0.05-w2" else "")

    rounds: List[Dict[str, Any]] = []
    begin = time.monotonic()
    while True:
        result = run_round(args.workload, args.seed, env, reference)
        rounds.append(result)
        samples = result.get("verdict_s") or [float("nan")]
        log("round %d: run_s %.3f  verdict p50 %.3f ms  setup_s %.3f  wall %.1f s  "
            "problems %d" % (
                len(rounds), result["times"].get("run_s", float("nan")),
                1e3 * statistics.median(samples), result["times"]["setup_s"],
                result["wall_s"], len(result["problems"])))
        elapsed = time.monotonic() - begin
        if elapsed + statistics.median(r["wall_s"] for r in rounds) > args.seconds:
            break
    traced = probes = None
    if args.trace:
        traced = run_round(args.workload, args.seed, env, reference, trace=True)
        log("traced round: run_s %.3f  coverage %.3f" % (
            traced["trace"]["run_s"], traced["trace"]["coverage"]))
    else:
        probes = [run_round(args.workload, args.seed, env, setup_only=True)
                  for _ in range(SETUP_PROBES)]

    problems = [p for r in rounds + ([traced] if traced else []) for p in r["problems"]]
    for problem in problems:
        log("CHECK FAILED: %s" % problem)
    try:
        if traced is not None:
            metrics = per_layer(traced, rounds)
        else:
            metrics = end_to_end(args.workload, rounds, probes)
    except (KeyError, ZeroDivisionError, statistics.StatisticsError):
        # a round that raised has no timings to report
        if not problems:
            raise
        metrics = {}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
