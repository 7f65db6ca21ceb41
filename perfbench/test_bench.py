"""Self-test of the benchmark's tracer and corpus.

    python3 -m pytest perfbench/test_bench.py -q                 # ~4 min
    python3 -m pytest perfbench/test_bench.py -q -k "not coverage"  # seconds

The binding tests fail when a change adds a module binding of a traced
function or moves one, instead of the traced run silently losing that
layer's time.  The coverage test runs one traced round of every
workload and requires the named layers to cover at least 90% of the
traced wall time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostile  # noqa: E402
import tracer as T  # noqa: E402


def _module_targets():
    T.import_all_modules()
    for layer, module, qualname in T.TARGETS:
        owner, attr, original = T.resolve(module, qualname)
        if not isinstance(owner, type):
            yield module, qualname, original


def test_expected_bindings_are_the_bindings_found():
    found = {}
    for module, qualname, original in _module_targets():
        bindings = T.find_bindings(original)
        assert all(name == qualname for _m, name in bindings), bindings
        found[(module, qualname)] = tuple(m for m, _n in bindings)
    assert found == T.EXPECTED_BINDINGS


def test_install_replaces_every_binding_and_uninstall_restores_them():
    originals = {(m, q): f for m, q, f in _module_targets()}
    tracer = T.Tracer().install()
    try:
        for key, original in originals.items():
            assert T.find_bindings(original) == [], key
        # an import inside a function reads one of these module attributes
        # at call time, so it gets the wrapper too
        for layer, module, qualname in T.TARGETS:
            owner, attr, current = T.resolve(module, qualname)
            assert getattr(current, "__wrapped_by_tracer__", False), (module, qualname)
    finally:
        tracer.uninstall()
    for (module, qualname), original in originals.items():
        bindings = tuple(m for m, _n in T.find_bindings(original))
        assert bindings == T.EXPECTED_BINDINGS[(module, qualname)]


def test_spans_nest_per_thread_and_self_time_excludes_children():
    import repro.jsengine.parser as parser

    tracer = T.Tracer().install()
    try:
        threads = [threading.Thread(target=parser.parse, args=("var a = [1, 2] + 'x';",))
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        tracer.uninstall()
    by_layer = {}
    for span in tracer.spans:
        by_layer.setdefault(span.layer, []).append(span)
    # parse() calling parse_tokens() is one folded span; tokenize is its child
    assert len(by_layer["jsengine.parse"]) == 2
    assert len(by_layer["jsengine.lex"]) == 2
    for lex in by_layer["jsengine.lex"]:
        assert lex.parent.layer == "jsengine.parse"
        assert lex.parent.thread == lex.thread
    summary = tracer.summary()
    parse = summary["layers"]["jsengine.parse"]
    lexed = summary["layers"]["jsengine.lex"]
    assert parse["self_s"] == pytest.approx(parse["total_s"] - lexed["total_s"])
    assert summary["input_chars"]["jsengine.lex"] == 2 * len("var a = [1, 2] + 'x';")
    assert summary["distinct_inputs"]["jsengine.lex"] == 1


def test_corpus_is_a_function_of_the_seed():
    first, again, other = (hostile.generate_corpus(s) for s in (7, 7, 8))
    assert [p.html for p in first] == [p.html for p in again]
    assert [p.html for p in first] != [p.html for p in other]
    assert len(first) == len(other)
    deep = [p for p in first if p.expect_failure]
    assert [p.html for p in deep] == [p.html for p in other if p.expect_failure]
    assert [p.size for p in deep] == list(hostile.DEEP_DEPTHS)
    nesting = [p.size for p in first if p.kind == "nesting"]
    assert max(nesting) <= hostile.MAX_PASSING_DEPTH < hostile.MIN_FAILING_DEPTH
    assert all(p.indicator_src in p.html for p in first)


@pytest.mark.parametrize("workload", ["study-s0.01", "study-s0.1",
                                      "observed-s0.05-w2", "hostile-pages"])
def test_coverage_of_traced_run(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["metrics"]["trace.coverage"]["value"] >= 0.90
