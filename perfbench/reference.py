"""Recompute the verdict-map digest that ``observed-s0.05-w2`` checks against.

The reference comes from a fresh *serial* run (workers=1, no observer, no
sinks) of the same seed and scale, so the sharded, observed workload is
checked against the program's plain path rather than against a digest
copied from an old run.

    python3 perfbench/reference.py --seed 2016 --scale 0.05

prints one JSON object: the digest, the verdict count and the malicious
count.  Run it from the root of the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def verdict_digest(verdicts: Dict[str, object]) -> str:
    """SHA-256 over every (url, malicious, labels, blacklist hits, category)."""
    digest = hashlib.sha256()
    for url in sorted(verdicts):
        verdict = verdicts[url]
        digest.update(json.dumps([
            url, verdict.malicious, list(verdict.labels),
            list(verdict.blacklist_hits), verdict.content_category,
        ]).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def serial_reference(seed: int, scale: float) -> Dict[str, object]:
    from repro.core.config import StudyConfig
    from repro.core.study import MalwareSlumsStudy
    from repro.crawler import CrawlPipeline

    study = MalwareSlumsStudy(StudyConfig(seed=seed, scale=scale, workers=1))
    pipeline = CrawlPipeline(study.generate_web(), study.config.pipeline_options())
    outcome = pipeline.run()
    return {
        "seed": seed, "scale": scale,
        "digest": verdict_digest(outcome.verdicts),
        "verdicts": len(outcome.verdicts),
        "malicious": sum(1 for v in outcome.verdicts.values() if v.malicious),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--scale", type=float, default=0.05)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(json.dumps(serial_reference(args.seed, args.scale), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
