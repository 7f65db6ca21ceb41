"""Seeded corpus of adversarial pages for the ``hostile-pages`` workload.

Every page plants one indicator the generator records: a hidden 1x1
iframe pointing at a host on the corpus's bad list.  A scanner that
completes a page must report it (Quttera's ``hidden-iframe`` threat and a
malicious verdict).

The corpus has two parts:

* seeded pages -- sizes, tags, texts and hosts drawn from ``seed``.  Five
  kinds of hostile input (moderate element nesting, unterminated
  attribute quotes, ``'x'+'x'+...`` concatenation chains, huge string
  literals, deeply nested JavaScript) plus a few fixed large pages, so
  the workload shows how the HTML parser, the JS lexer/parser and the
  static analyser scale with input size;
* deep-nesting pages -- the same for every seed.  They are nested far
  past the depth at which the recursive DOM walks of ``htmlparse.dom``
  overflow the Python stack (between 300 and 400 levels under the
  default recursion limit), so they fail with ``RecursionError`` every
  time until those walks become iterative.

Passing nesting depths stay at or below :data:`MAX_PASSING_DEPTH` and the
failing ones at or above :data:`MIN_FAILING_DEPTH`, well clear of the
threshold on both sides, so a few extra stack frames in the benchmark
(the tracer's wrappers, say) cannot move a page from one side to the
other.

Run ``python3 perfbench/hostile.py --seed N`` to print the corpus make-up.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from typing import List

#: the kinds of seeded page, in corpus order
KINDS = ("nesting", "unterminated-quote", "concat-chain", "huge-literal", "nested-js")
#: the kind of page that trips the known ``RecursionError`` fault
DEEP_KIND = "deep-nesting"

#: seeded pages per kind (5 kinds -> 1,000 pages, so every round yields
#: at least 1,000 verdicts and the p99 has ten samples beyond it)
PAGES_PER_KIND = 200
#: large pages, one per size, the same for every seed.  They stay under
#: 1% of the corpus, so the 99th percentile of verdict time falls among
#: the seeded pages rather than at the edge of this sparse group
LADDERS = {
    "unterminated-quote": (500, 1000),
    "concat-chain": (2000,),
    "huge-literal": (1_000_000,),
    "nested-js": (600,),
}
#: depths of the deep-nesting pages (same for every seed).  From about
#: 600 levels ``Element.text_content`` overflows; from about 1,000 the
#: recursive ``Element.iter`` behind ``select`` overflows first
DEEP_DEPTHS = (600, 800, 1200, 2000)

MAX_PASSING_DEPTH = 150
MIN_FAILING_DEPTH = 600

_TAGS = ("div", "span", "section", "p", "b", "em", "article", "li")
_WORDS = ("offer", "bonus", "traffic", "credits", "surf", "member", "free",
          "click", "win", "points", "banner", "visit", "earn", "daily")


@dataclass
class HostilePage:
    """One corpus page and what the generator planted in it."""

    index: int
    kind: str
    size: int
    host: str
    html: str
    #: the planted hidden iframe's ``src``
    indicator_src: str

    @property
    def url(self) -> str:
        return "http://%s/" % self.host

    @property
    def expect_failure(self) -> bool:
        return self.kind == DEEP_KIND


def _indicator(src: str) -> str:
    return ('<iframe src="%s" width="1" height="1" frameborder="0" '
            'style="border:0"></iframe>' % src)


def _wrap(title: str, body: str, truncated: bool = False) -> str:
    page = "<html><head><title>%s</title></head><body>%s" % (title, body)
    return page if truncated else page + "</body></html>"


def _text(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(words))


def _nesting(rng: random.Random, depth: int, frame: str) -> str:
    tags = [rng.choice(_TAGS) for _ in range(depth)]
    opening = "".join("<%s>" % tag for tag in tags)
    closing = "".join("</%s>" % tag for tag in reversed(tags))
    return opening + _text(rng, 4) + frame + closing


def _unterminated_quote(rng: random.Random, count: int, frame: str) -> str:
    # a page truncated inside a run of `<a href='`: with no closing tags
    # after it, the HTML parser's cost grows with count squared
    return frame + "<p>%s</p>" % _text(rng, 6) + "<a href='" * count


def _concat_chain(rng: random.Random, terms: int, frame: str) -> str:
    chain = "+".join("'%s'" % rng.choice("abcdefghijklmnopqrstuvwxyz")
                     for _ in range(terms))
    return frame + "<script>var s=%s;document.title=s.length;</script>" % chain


def _huge_literal(rng: random.Random, length: int, frame: str) -> str:
    unit = "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")
                   for _ in range(64))
    literal = (unit * (length // len(unit) + 1))[:length]
    return frame + "<script>var blob='%s';var n=blob.length;</script>" % literal


def _nested_js(rng: random.Random, depth: int, frame: str) -> str:
    shape = rng.choice(("parens", "arrays", "functions"))
    if shape == "parens":
        code = "var v=%s1%s;" % ("(" * depth, ")" * depth)
    elif shape == "arrays":
        code = "var a=%s1%s;" % ("[" * depth, "]" * depth)
    else:
        code = "function f(){" * depth + "return 1;" + "}" * depth
    return frame + "<script>%s</script>" % code


_BUILDERS = {
    "nesting": _nesting,
    "unterminated-quote": _unterminated_quote,
    "concat-chain": _concat_chain,
    "huge-literal": _huge_literal,
    "nested-js": _nested_js,
}
_SIZE_RANGES = {
    "nesting": (20, MAX_PASSING_DEPTH),
    "unterminated-quote": (20, 100),
    "concat-chain": (10, 60),
    "huge-literal": (500, 5_000),
    "nested-js": (10, 80),
}


def bad_hosts(seed: int) -> List[str]:
    """The corpus's bad list: the hosts every planted iframe points at."""
    rng = random.Random("bad-hosts-%d" % seed)
    return ["%s-%s.%s" % (rng.choice(_WORDS), rng.randrange(10**6),
                          rng.choice(("ru", "biz", "info", "top")))
            for _ in range(16)]


def generate_corpus(seed: int) -> List[HostilePage]:
    """The corpus for ``seed``: seeded pages, then the deep-nesting pages."""
    rng = random.Random(seed)
    bad = bad_hosts(seed)
    pages: List[HostilePage] = []

    def add(kind: str, size: int, body_for) -> None:
        index = len(pages)
        host = "p%04d.%s.hostile.example" % (index, kind)
        src = "http://%s/c?u=%d&k=%s" % (rng.choice(bad), index, rng.getrandbits(40))
        body = body_for(_indicator(src))
        html = _wrap("%s %d" % (kind, size), body,
                     truncated=kind == "unterminated-quote")
        pages.append(HostilePage(index, kind, size, host, html, src))

    for kind in KINDS:
        low, high = _SIZE_RANGES[kind]
        sizes = [rng.randint(low, high) for _ in range(PAGES_PER_KIND)]
        sizes.extend(LADDERS.get(kind, ()))
        build = _BUILDERS[kind]
        for size in sizes:
            add(kind, size, lambda frame, b=build, s=size: b(rng, s, frame))

    # the fault's pages take nothing from the seed
    for depth in DEEP_DEPTHS:
        index = len(pages)
        host = "p%04d.%s.hostile.example" % (index, DEEP_KIND)
        src = "http://deep-nesting.invalid/c?depth=%d" % depth
        body = "<div>" * depth + "deep" + _indicator(src) + "</div>" * depth
        pages.append(HostilePage(index, DEEP_KIND, depth, host,
                                 _wrap("deep %d" % depth, body), src))
    return pages


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    corpus = generate_corpus(args.seed)
    for kind in KINDS + (DEEP_KIND,):
        pages = [p for p in corpus if p.kind == kind]
        sizes = [p.size for p in pages]
        print("%-20s %4d pages  size %d..%d  html %d..%d bytes" % (
            kind, len(pages), min(sizes), max(sizes),
            min(len(p.html) for p in pages), max(len(p.html) for p in pages)))
    print("total %d pages, %d bytes" % (len(corpus), sum(len(p.html) for p in corpus)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
