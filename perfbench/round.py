"""One round of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per round, so every timed repeat pays
the same cold-process costs a user's ``repro run`` pays, and no
process-global cache (the ``staticjs.rules`` lru_cache, say) carries one
round's work into the next.  It prints one JSON object on its last
line: timings, per-verdict CPU times, operation counts and the list of
failed correctness checks.

    python3 perfbench/round.py --workload study-s0.01 --seed 0 \\
        --spawned "$(python3 -c 'import time; print(time.monotonic())')"

``--setup-only`` stops after set-up; ``--trace`` installs the per-layer
tracer and reports its summary instead of the verdict times.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

#: the pinned seed every study figure, the paper-shape contract and the
#: detection floors are defined at (see README "Seeds")
STUDY_SEED = 2016
#: detection floors against the generator's ground truth, per study scale
FLOORS = {0.01: (0.97, 0.81), 0.1: (0.97, 0.84)}
#: the traced run must attribute at least this share of its wall time
#: to named layers
MIN_COVERAGE = 0.90


class VerdictClock:
    """The one wrapper of a timed run: times each ``UrlVerdictService.verdict``.

    The time is the calling thread's CPU time.  On ``workers=2`` a call's
    wall time also holds the other worker's turns on the interpreter lock
    (a 5 ms switch interval), which put the 99th percentile at about
    35 ms wall against 15 ms of the verdict's own work and made it swing
    with the thread scheduling from run to run.
    """

    def __init__(self) -> None:
        self.completed: List[float] = []

    def install(self) -> "VerdictClock":
        from repro.detection.aggregate import UrlVerdictService

        original = UrlVerdictService.verdict
        completed, clock = self.completed, time.thread_time

        def verdict(service: Any, *args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = original(service, *args, **kwargs)
            completed.append(clock() - start)
            return result

        UrlVerdictService.verdict = verdict  # type: ignore[method-assign]
        return self


class Round:
    """Timings and checks of one round; ``result()`` is what gets printed."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.tracer = None
        self.clock: Optional[VerdictClock] = None
        self.times: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        #: the pipeline's CompileCache hit rate, read after a traced round
        self.cache_hit_ratio = 0.0
        self._mark = 0.0

    def start_tracing(self) -> None:
        if self.args.trace:
            from tracer import Tracer

            self.tracer = Tracer().install()

    def setup_done(self) -> bool:
        """Record set-up time; True when the round should go on."""
        self.times["setup_s"] = time.monotonic() - self.args.spawned
        if self.args.setup_only:
            return False
        if self.tracer is None:
            self.clock = VerdictClock().install()
        self._mark = self._start = time.perf_counter()
        return True

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.times[name] = now - self._mark
        self._mark = now

    def finish_timing(self) -> None:
        self.times["run_s"] = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.uninstall()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def result(self) -> Dict[str, Any]:
        trace = self.trace_summary() if self.tracer is not None else None
        out: Dict[str, Any] = {
            "times": self.times, "counts": self.counts,
            "attempted": self.attempted, "failed": self.failed,
            "problems": self.problems,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if self.clock is not None:
            out["verdict_s"] = self.clock.completed
        if trace is not None:
            out["trace"] = trace
        return out

    def trace_summary(self) -> Dict[str, Any]:
        tracer = self.tracer
        summary = tracer.summary()
        summary["compile_cache_hit_ratio"] = self.cache_hit_ratio
        layers = summary["layers"]
        scan_wall = layers["crawler.scan"]["total_s"]
        summary["scanexec_concurrency"] = (
            tracer.verdict_cpu_s / scan_wall
            if layers["scanexec.execute"]["calls"] and scan_wall > 0 else 0.0)
        summary["run_s"] = self.times.get("run_s", 0.0)
        self.check(summary["coverage"] >= MIN_COVERAGE,
                   "traced run attributes %.3f of its wall time to named layers"
                   % summary["coverage"])
        os.makedirs(OUT, exist_ok=True)
        tracer.write_chrome_trace(os.path.join(OUT, "trace-%s.json" % self.args.workload))
        with open(os.path.join(OUT, "layers-%s.json" % self.args.workload), "w",
                  encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        return summary


# ---------------------------------------------------------------------------
# study-s0.01 / study-s0.1: the `repro run` path, workers=1, no observer
# ---------------------------------------------------------------------------
def study_round(rnd: Round, scale: float) -> None:
    from repro.core.config import StudyConfig
    from repro.core.study import MalwareSlumsStudy
    from repro.crawler import CrawlPipeline

    rnd.start_tracing()
    # the steps of MalwareSlumsStudy.crawl_and_scan, taken one at a time
    # so each phase can be timed without a wrapper
    study = MalwareSlumsStudy(StudyConfig(seed=STUDY_SEED, scale=scale, workers=1))
    pipeline = CrawlPipeline(study.generate_web(), study.config.pipeline_options())
    study.pipeline = pipeline
    if not rnd.setup_done():
        return
    try:
        pipeline.crawl()
        rnd.lap("crawl_s")
        rnd.attempted = len(pipeline.dataset.distinct_urls())
        outcome = study.outcome = pipeline.scan()
        rnd.lap("scan_s")
        results = study.analyze()
        rnd.lap("report_s")
        rnd.finish_timing()
    except Exception:  # noqa: BLE001 - a raising study fails every URL
        rnd.problems.append("study raised: %s" % traceback.format_exc(limit=3))
        rnd.attempted = max(rnd.attempted, 1)
        rnd.failed = rnd.attempted
        return
    rnd.counts["records"] = len(pipeline.dataset.records)
    rnd.counts["verdicts"] = len(outcome.verdicts)
    rnd.failed = rnd.attempted - sum(
        1 for url in pipeline.dataset.distinct_urls() if url in outcome.verdicts)
    rnd.cache_hit_ratio = pipeline.compile_cache.hit_rate
    check_study(rnd, study, results, FLOORS[scale])


def check_study(rnd: Round, study: Any, results: Any, floors: tuple) -> None:
    from repro.analysis.evaluation import evaluate_detection
    from repro.core import compare_to_paper
    from repro.crawler.storage import RecordKind

    dataset, outcome = study.pipeline.dataset, study.outcome
    comparison = compare_to_paper(results)
    rnd.check(comparison.shapes_hold, "paper shape claims violated: %s" % sorted(
        name for name, ok in comparison.shape_checks.items() if not ok))

    overall = evaluate_detection(study.web, dataset, outcome).overall
    rnd.counts["precision"] = overall.precision
    rnd.counts["recall"] = overall.recall
    rnd.check(overall.precision >= floors[0] and overall.recall >= floors[1],
              "detection precision %.3f / recall %.3f below floors %.2f / %.2f"
              % (overall.precision, overall.recall, floors[0], floors[1]))

    distinct = dataset.distinct_urls()
    rnd.check(len(distinct) == len(set(distinct)) == len(outcome.verdicts)
              and set(distinct) == set(outcome.verdicts),
              "distinct crawled URLs and verdicts differ")
    rnd.check(outcome.unscanned_queries == 0,
              "%d queries for unscanned URLs" % outcome.unscanned_queries)

    # Table I recounted from the dataset's records, apart from the analysis
    recount: Dict[str, List[int]] = {}
    for record in dataset.records:
        row = recount.setdefault(record.exchange, [0, 0, 0])
        row[0] += 1
        if record.kind == RecordKind.REGULAR:
            row[1] += 1
            verdict = outcome.verdicts.get(record.url)
            row[2] += bool(verdict is not None and verdict.malicious)
    table = {row.exchange: [row.urls_crawled, row.regular_urls, row.malicious_urls]
             for row in results.table1}
    rnd.check(table == recount, "Table I differs from a recount of the records")


# ---------------------------------------------------------------------------
# observed-s0.05-w2: the `repro obs-report` path, workers=2, with sinks
# ---------------------------------------------------------------------------
OBSERVED_SCALE = 0.05


def observed_round(rnd: Round) -> None:
    from reference import verdict_digest
    from repro.core.config import StudyConfig
    from repro.core.study import MalwareSlumsStudy
    import repro.obs
    from repro.crawler import CrawlPipeline, PipelineOptions

    os.makedirs(OUT, exist_ok=True)
    provenance_path = os.path.join(OUT, "observed-provenance.jsonl")
    status_path = os.path.join(OUT, "observed-status.jsonl")
    rnd.start_tracing()
    study = MalwareSlumsStudy(StudyConfig(seed=STUDY_SEED, scale=OBSERVED_SCALE))
    pipeline = CrawlPipeline(study.generate_web(), PipelineOptions(
        seed=STUDY_SEED + 61, observer=repro.obs.RunObserver(), workers=2,
        record_provenance=True, provenance_path=provenance_path,
        status_path=status_path))
    if not rnd.setup_done():
        return
    try:
        pipeline.crawl()
        rnd.lap("crawl_s")
        rnd.attempted = len(pipeline.dataset.distinct_urls())
        outcome = pipeline.scan()
        rnd.lap("scan_s")
        # looked up after the tracer is installed, so a traced round wraps it
        repro.obs.build_run_report(pipeline, outcome)
        rnd.lap("report_s")
        rnd.finish_timing()
    except Exception:  # noqa: BLE001 - a raising run fails every URL
        rnd.problems.append("run raised: %s" % traceback.format_exc(limit=3))
        rnd.attempted = max(rnd.attempted, 1)
        rnd.failed = rnd.attempted
        return
    verdicts = outcome.verdicts
    rnd.counts["records"] = len(pipeline.dataset.records)
    rnd.counts["verdicts"] = len(verdicts)
    rnd.failed = rnd.attempted - sum(
        1 for url in pipeline.dataset.distinct_urls() if url in verdicts)
    rnd.cache_hit_ratio = pipeline.compile_cache.hit_rate

    rnd.check(verdict_digest(verdicts) == rnd.args.reference,
              "verdict digest differs from the serial reference")
    with open(provenance_path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().split("\n") if line]
    provenance = {}
    for line in lines:
        record = json.loads(line)
        provenance[record["url"]] = record["malicious"]
    rnd.check(len(lines) == len(provenance) == len(verdicts)
              and all(provenance.get(url) == v.malicious for url, v in verdicts.items()),
              "provenance file does not hold one matching record per verdict")
    with open(status_path, "r", encoding="utf-8") as handle:
        status = [line for line in handle.read().split("\n") if line]
    rnd.check(bool(status) and json.loads(status[-1]).get("type") == "run_finished",
              "status stream does not end finished")


# ---------------------------------------------------------------------------
# hostile-pages: a seeded corpus of adversarial pages, submitted as files
# ---------------------------------------------------------------------------
#: visits per corpus page in the crawl (the study's exchanges list each
#: distinct URL about ten times; fewer visits make the crawl too short
#: to time steadily)
CRAWL_PASSES = 32

def hostile_round(rnd: Round) -> None:
    from hostile import bad_hosts, generate_corpus
    from repro.core.config import StudyConfig
    from repro.core.study import MalwareSlumsStudy
    from repro.crawler import BrowserSession, ScanOutcome
    from repro.crawler.storage import CrawlDataset, RecordKind
    from repro.detection import QutteraSim, UrlVerdictService, VirusTotalSim
    from repro.detection.blacklists import build_blacklists
    from repro.httpsim import SimHttpClient, SimHttpServer
    from repro.jsengine import CompileCache
    from repro.simweb import ContentCategory, GroundTruth, Page, Site, Url, WebRegistry

    seed = rnd.args.seed
    rnd.start_tracing()
    corpus = generate_corpus(seed)
    registry = WebRegistry()
    for page in corpus:
        site = Site(page.host, ContentCategory.BUSINESS, GroundTruth(True, detail=page.kind))
        site.add_page(Page("/", page.kind, page.html, truth=GroundTruth(True)))
        registry.add(site)
    server = SimHttpServer(registry)
    cache = CompileCache()
    blacklists = build_blacklists(
        known_bad_domains=[Url.parse("http://%s/" % host).registrable_domain
                           for host in bad_hosts(seed)],
        benign_domains=[], rng=random.Random(seed))
    service = UrlVerdictService(
        virustotal=VirusTotalSim(client=SimHttpClient(server), compile_cache=cache),
        quttera=QutteraSim(client=SimHttpClient(server), compile_cache=cache),
        blacklists=blacklists, compile_cache=cache)
    if not rnd.setup_done():
        return

    dataset = CrawlDataset()
    session = BrowserSession(SimHttpClient(server), registry, dataset,
                             exchange_name="hostile-pages",
                             exchange_host="hostile.example")
    # an exchange rotation revisits every listed page; the seeded order
    # interleaves the kinds
    rotation = [page for _ in range(CRAWL_PASSES) for page in corpus]
    random.Random(seed).shuffle(rotation)
    for step, page in enumerate(rotation):
        session.visit(page.url, RecordKind.REGULAR, step, float(step))
    rnd.lap("crawl_s")
    outcome = ScanOutcome()
    errors: Dict[str, tuple] = {}
    urls = dataset.distinct_urls()
    rnd.attempted = len(urls)
    for url in urls:
        cached = dataset.content[url]
        try:
            outcome.verdicts[url] = service.verdict(
                url, content=cached.content, content_type=cached.content_type,
                final_url=cached.final_url)
        except Exception as error:  # noqa: BLE001 - counted and checked below
            errors[url] = (type(error).__name__, _innermost_repro_frame(error))
    rnd.lap("scan_s")
    # the study's tables and figures, computed over the hostile crawl
    study = MalwareSlumsStudy(StudyConfig(seed=STUDY_SEED))
    study.web = SimpleNamespace(registry=registry)
    study.pipeline = SimpleNamespace(dataset=dataset, blacklists=blacklists)
    study.outcome = outcome
    study.analyze()
    rnd.lap("report_s")
    rnd.finish_timing()

    rnd.failed = len(errors)
    rnd.counts["records"] = len(dataset.records)
    rnd.counts["verdicts"] = len(outcome.verdicts)
    rnd.counts["pages"] = len(corpus)
    rnd.cache_hit_ratio = cache.hit_rate
    check_hostile(rnd, corpus, outcome, errors)


def _innermost_repro_frame(error: BaseException) -> str:
    """``file:function`` of the innermost named ``repro`` function that raised."""
    frames = [frame for frame in traceback.extract_tb(error.__traceback__)
              if os.sep + "repro" + os.sep in frame.filename
              and not frame.name.startswith("<")]
    if not frames:
        return ""
    frame = frames[-1]
    return "%s:%s" % (os.path.basename(frame.filename), frame.name)


#: the known fault: the recursive DOM walks overflow on deep pages
DOM_WALK_OVERFLOWS = (("RecursionError", "dom.py:text_content"),
                      ("RecursionError", "dom.py:iter"))


def check_hostile(rnd: Round, corpus: list, outcome: Any, errors: Dict[str, tuple]) -> None:
    outcomes = []
    for page in corpus:
        error = errors.get(page.url)
        verdict = outcome.verdicts.get(page.url)
        if error is None:
            outcomes.append([page.index, page.kind, page.size, "completed"])
            reported = (verdict is not None and verdict.malicious
                        and "hidden-iframe" in verdict.quttera_report.labels)
            rnd.check(reported, "page %d (%s %d) does not report its planted iframe"
                      % (page.index, page.kind, page.size))
            rnd.check(not page.expect_failure, "deep page %d (depth %d) completed"
                      % (page.index, page.size))
        else:
            outcomes.append([page.index, page.kind, page.size, "%s at %s" % error])
            rnd.check(page.expect_failure and error in DOM_WALK_OVERFLOWS,
                      "page %d (%s %d) failed: %s" % (page.index, page.kind, page.size, error))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "hostile-outcomes-%d.json" % rnd.args.seed), "w",
              encoding="utf-8") as handle:
        json.dump({"seed": rnd.args.seed, "pages": outcomes}, handle)


WORKLOADS: Dict[str, Callable[[Round], None]] = {
    "study-s0.01": lambda rnd: study_round(rnd, 0.01),
    "study-s0.1": lambda rnd: study_round(rnd, 0.1),
    "observed-s0.05-w2": observed_round,
    "hostile-pages": hostile_round,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", default="",
                        help="serial verdict digest (observed-s0.05-w2)")
    args = parser.parse_args()
    rnd = Round(args)
    WORKLOADS[args.workload](rnd)
    print(json.dumps(rnd.result()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
