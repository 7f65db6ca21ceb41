"""Per-layer wall-clock tracer, installed from outside the program.

The tracer replaces each traced function of ``repro`` with a wrapper that
records a span (layer, thread, start, end, parent) around the call.  It
changes no file under ``src/``:

* a module-level function is replaced at *every* module binding of it,
  because callers import names with ``from ... import`` and keep their
  own reference (``tokenize`` is bound in ``jsengine.lexer``,
  ``jsengine.parser`` and ``jsengine.compilecache``);
* a method is replaced on its class.

Each thread keeps its own parent stack, so spans recorded on the scan and
crawl executors' worker threads nest correctly.  A call into a layer that
is already the innermost open span of its thread is folded into that
span (``parse`` calling ``parse_tokens`` is one ``jsengine.parse`` span).

Spans stay in memory until :meth:`Tracer.summary` and
:meth:`Tracer.write_chrome_trace` run after the traced region.  A span's
self time is its duration minus the time its child spans cover; a
layer's self time is the sum over its spans, across threads (so on the
workers=2 workload the layers' self times can add up to more than the
wall time).  ``coverage`` is the share of the traced wall time that the
main thread spent inside any named layer.

The CPython garbage collector is measured through ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: the table and figure functions ``MalwareSlumsStudy.analyze`` calls
ANALYSIS_FUNCTIONS = (
    "compute_exchange_stats", "compute_domain_stats", "categorize_dataset",
    "compute_shortener_stats", "compute_timeseries", "example_chain",
    "redirect_count_distribution", "compute_tld_distribution",
    "compute_content_categories", "identify_false_positives",
    "overall_malicious_fraction",
)
_ANALYSIS_MODULES = {
    "compute_exchange_stats": "exchange_stats",
    "overall_malicious_fraction": "exchange_stats",
    "compute_domain_stats": "domains",
    "categorize_dataset": "categorize",
    "compute_shortener_stats": "shortener_stats",
    "compute_timeseries": "timeseries",
    "example_chain": "redirects",
    "redirect_count_distribution": "redirects",
    "compute_tld_distribution": "tld",
    "compute_content_categories": "content_categories",
    "identify_false_positives": "casestudies",
}
#: (layer, module, qualified name) of every traced function
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("simweb.generate", "repro.simweb.generator", "WebGenerator.build"),
    ("exchanges.build", "repro.crawler.pipeline", "CrawlPipeline.__init__"),
    ("crawler.crawl", "repro.crawler.crawlers", "ExchangeCrawler.crawl"),
    ("crawler.scan", "repro.crawler.pipeline", "CrawlPipeline.scan"),
    ("httpsim.fetch", "repro.httpsim.client", "SimHttpClient.fetch"),
    ("htmlparse.parse", "repro.htmlparse.parser", "parse"),
    ("jsengine.lex", "repro.jsengine.lexer", "tokenize"),
    ("jsengine.parse", "repro.jsengine.parser", "parse"),
    ("jsengine.parse", "repro.jsengine.parser", "parse_tokens"),
    ("jsengine.features", "repro.jsengine.features", "extract_features"),
    ("jsengine.sandbox", "repro.jsengine.hostenv", "run_script_in_page"),
    ("staticjs.analyze", "repro.staticjs.rules", "analyze_script"),
    ("staticjs.absint", "repro.staticjs.absint", "interpret_script"),
    ("detection.verdict", "repro.detection.aggregate", "UrlVerdictService.verdict"),
    ("detection.analyze", "repro.detection.heuristics", "analyze_content"),
    ("detection.engines", "repro.detection.virustotal", "VirusTotalSim.scan"),
    ("detection.engines", "repro.detection.quttera", "QutteraSim.scan"),
    ("crawlexec.execute", "repro.crawlexec.executor", "ParallelCrawlExecutor.execute"),
    ("scanexec.execute", "repro.scanexec.executor", "ParallelScanExecutor.execute"),
    ("phasexec.replay", "repro.phasexec.recording", "RecordingObserver.replay"),
    ("obs.provenance.add", "repro.obs.provenance", "ProvenanceStore.add"),
    ("obs.live.heartbeat", "repro.obs.live", "LiveTelemetry.heartbeat"),
    ("obs.report", "repro.obs.report", "build_run_report"),
) + tuple(("analysis.%s" % name, "repro.analysis.%s" % _ANALYSIS_MODULES[name], name)
          for name in ANALYSIS_FUNCTIONS)

#: every layer, in report order
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _m, _q in TARGETS))

#: the modules that bind each traced module-level function, always under
#: its own name.  The self-test compares this table with what it finds, so a new binding
#: or a moved function fails loudly instead of dropping a layer's time.
EXPECTED_BINDINGS: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("repro.htmlparse.parser", "parse"): (
        "repro.countermeasures.warning", "repro.detection.heuristics",
        "repro.htmlparse", "repro.htmlparse.parser"),
    ("repro.jsengine.lexer", "tokenize"): (
        "repro.jsengine.compilecache", "repro.jsengine.lexer",
        "repro.jsengine.parser"),
    ("repro.jsengine.parser", "parse"): (
        "repro.jsengine", "repro.jsengine.features",
        "repro.jsengine.interpreter", "repro.jsengine.parser",
        "repro.jsengine.vm", "repro.staticjs.absint", "repro.staticjs.rules"),
    ("repro.jsengine.parser", "parse_tokens"): (
        "repro.jsengine.compilecache", "repro.jsengine.parser"),
    ("repro.jsengine.features", "extract_features"): (
        "repro.detection.heuristics", "repro.jsengine",
        "repro.jsengine.features"),
    ("repro.jsengine.hostenv", "run_script_in_page"): (
        "repro.analysis.casestudies", "repro.detection.heuristics",
        "repro.jsengine", "repro.jsengine.hostenv"),
    ("repro.staticjs.rules", "analyze_script"): (
        "repro.detection.heuristics", "repro.staticjs", "repro.staticjs.rules"),
    ("repro.staticjs.absint", "interpret_script"): (
        "repro.staticjs", "repro.staticjs.absint", "repro.staticjs.rules"),
    ("repro.detection.heuristics", "analyze_content"): (
        "repro.analysis.casestudies", "repro.detection",
        "repro.detection.heuristics", "repro.detection.others",
        "repro.detection.quttera", "repro.detection.virustotal"),
    ("repro.obs.report", "build_run_report"): (
        "repro.obs", "repro.obs.report"),
    ("repro.analysis.exchange_stats", "compute_exchange_stats"): (
        "repro.analysis", "repro.analysis.exchange_stats",
        "repro.core.experiments", "repro.core.study"),
    ("repro.analysis.domains", "compute_domain_stats"): (
        "repro.analysis", "repro.analysis.domains", "repro.core.experiments",
        "repro.core.study"),
    ("repro.analysis.categorize", "categorize_dataset"): (
        "repro.analysis", "repro.analysis.categorize",
        "repro.core.experiments", "repro.core.study"),
    ("repro.analysis.shortener_stats", "compute_shortener_stats"): (
        "repro.analysis", "repro.analysis.shortener_stats",
        "repro.core.experiments", "repro.core.study"),
    ("repro.analysis.timeseries", "compute_timeseries"): (
        "repro.analysis", "repro.analysis.timeseries",
        "repro.core.experiments", "repro.core.study"),
    ("repro.analysis.redirects", "example_chain"): (
        "repro.analysis", "repro.analysis.redirects", "repro.core.experiments",
        "repro.core.study"),
    ("repro.analysis.redirects", "redirect_count_distribution"): (
        "repro.analysis", "repro.analysis.redirects", "repro.core.experiments",
        "repro.core.study"),
    ("repro.analysis.tld", "compute_tld_distribution"): (
        "repro.analysis", "repro.analysis.tld", "repro.core.experiments",
        "repro.core.study"),
    ("repro.analysis.content_categories", "compute_content_categories"): (
        "repro.analysis", "repro.analysis.content_categories",
        "repro.core.experiments", "repro.core.study"),
    ("repro.analysis.casestudies", "identify_false_positives"): (
        "repro.analysis", "repro.analysis.casestudies",
        "repro.core.experiments", "repro.core.study"),
    ("repro.analysis.exchange_stats", "overall_malicious_fraction"): (
        "repro.analysis", "repro.analysis.exchange_stats", "repro.core.study"),
}


def import_all_modules() -> None:
    """Import every ``repro`` submodule, so every binding exists to be found."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def resolve(module: str, qualname: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, original) for a traced target."""
    owner: Any = importlib.import_module(module)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


def find_bindings(function: Any) -> List[Tuple[str, str]]:
    """(module, name) of every binding of ``function`` in a loaded ``repro`` module."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        found.extend((module_name, name) for name, value in vars(module).items()
                     if value is function)
    return sorted(found)


class _Span:
    __slots__ = ("layer", "thread", "start", "end", "parent", "child")

    def __init__(self, layer: str, thread: int, start: float,
                 parent: Optional["_Span"]) -> None:
        self.layer = layer
        self.thread = thread
        self.start = start
        self.end = start
        self.parent = parent
        self.child = 0.0


class Tracer:
    """Installs the wrappers, records spans and garbage collections."""

    def __init__(self) -> None:
        self.spans: List[_Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.main_thread = threading.get_ident()
        self.started = 0.0
        self.stopped = 0.0
        #: characters passed to the size-aware layers, and the length of
        #: each distinct input (keyed by its hash) they saw
        self.input_chars: Dict[str, int] = {}
        self.distinct: Dict[str, Dict[int, int]] = {}
        #: CPU seconds the verdict-computing threads spent in verdict calls
        self._verdict_cpu: List[float] = []
        self.gc_seconds = 0.0
        self.gc_gen2_seconds = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    # -- installation --------------------------------------------------------
    def install(self) -> "Tracer":
        import_all_modules()
        for layer, module, qualname in TARGETS:
            owner, attr, original = resolve(module, qualname)
            wrapper = self._wrap(layer, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                for module_name, name in find_bindings(original):
                    self._patch(sys.modules[module_name], name, wrapper)
        gc.callbacks.append(self._on_gc)
        self.started = time.perf_counter()
        return self

    def uninstall(self) -> None:
        self.stopped = time.perf_counter()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: str, function: Callable) -> Callable:
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        sized = layer in ("htmlparse.parse", "jsengine.lex", "staticjs.analyze")
        # thread CPU time shows real parallelism: threads waiting for the
        # interpreter lock accumulate wall time but no CPU time
        cpu = self._verdict_cpu if layer == "detection.verdict" else None
        thread_clock = time.thread_time
        chars = self.input_chars
        distinct = self.distinct.setdefault(layer, {}) if sized else {}

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            if parent is not None and parent.layer == layer:
                return function(*args, **kwargs)
            if sized and args and isinstance(args[0], str):
                chars[layer] = chars.get(layer, 0) + len(args[0])
                distinct[hash(args[0])] = len(args[0])
            span = _Span(layer, threading.get_ident(), clock(), parent)
            stack.append(span)
            cpu_start = thread_clock() if cpu is not None else 0.0
            try:
                return function(*args, **kwargs)
            finally:
                span.end = clock()
                if cpu is not None:
                    cpu.append(thread_clock() - cpu_start)
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                spans.append(span)

        traced.__wrapped_by_tracer__ = True  # type: ignore[attr-defined]
        return traced

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        seconds = time.perf_counter() - self._gc_start
        self.gc_seconds += seconds
        self.gc_collections += 1
        if info.get("generation") == 2:
            self.gc_gen2_seconds += seconds

    # -- results -------------------------------------------------------------
    @property
    def verdict_cpu_s(self) -> float:
        return sum(self._verdict_cpu)

    def summary(self) -> Dict[str, Any]:
        """Per-layer calls/self/total seconds, size ratios and coverage."""
        layers = {layer: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                  for layer in LAYERS}
        covered = 0.0
        for span in self.spans:
            entry = layers[span.layer]
            duration = span.end - span.start
            entry["calls"] += 1
            entry["self_s"] += duration - span.child
            entry["total_s"] += duration
            if span.parent is None and span.thread == self.main_thread:
                covered += duration
        wall = self.stopped - self.started
        distinct_chars = {layer: sum(seen.values())
                          for layer, seen in self.distinct.items()}
        return {
            "wall_s": wall,
            "coverage": covered / wall if wall > 0 else 0.0,
            "layers": layers,
            "input_chars": dict(self.input_chars),
            "distinct_inputs": {layer: len(seen) for layer, seen in self.distinct.items()},
            "distinct_chars": distinct_chars,
            "gc": {"s": self.gc_seconds, "gen2_s": self.gc_gen2_seconds,
                   "collections": self.gc_collections},
        }

    def write_chrome_trace(self, path: str) -> int:
        """Write every span as a Chrome-trace complete event; returns the count."""
        origin = self.started
        events = [{
            "name": span.layer, "cat": span.layer.split(".")[0], "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round((span.end - span.start) * 1e6, 3),
            "pid": 1, "tid": span.thread,
        } for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)

