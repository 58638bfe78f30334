"""Tier-1 smoke test of the end-to-end benchmark.

Runs ``run.py --smoke`` — ``wire_small`` and ``stream_mixed`` on the tiny
dataset, seconds-long phases, end-to-end and traced — in a subprocess
(the benchmark pins its process to one core and spawns a server child;
neither belongs in the pytest process) and checks the contract the real
runs rely on: every declared metric is printed with a finite value,
nothing failed or diverged, the set-up layers account for ``setup_s``
and every span's parent resolves.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
SPEC = json.loads((E2E_DIR.parent.parent / "BENCHMARK.json").read_text())


def test_smoke_prints_every_declared_metric_and_verifies_clean():
    done = subprocess.run(
        [sys.executable, str(E2E_DIR / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    # Per workload: the end-to-end run's line, then the traced run's.
    groups = [{m["name"] for m in SPEC[group]} for group in ("end_to_end", "per_layer")] * 2
    assert len(results) == len(groups)
    for result, declared in zip(results, groups):
        metrics = result["metrics"]
        assert set(metrics) == declared
        assert all(math.isfinite(m["value"]) for m in metrics.values())
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        if "ledger.setup_share" in metrics:
            assert metrics["loadgen.divergent"]["value"] == 0
            # Set-up layers must account for setup_s.
            assert 0.9 <= metrics["ledger.setup_share"]["value"] <= 1.1
    for name in ("wire_small", "stream_mixed"):
        spans = json.loads((E2E_DIR / "results" / f"{name}.spans.json").read_text())["spans"]
        ids = {span[0] for span in spans}
        assert spans and all(span[4] is None or span[4] in ids for span in spans)
