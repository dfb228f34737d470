"""The benchmark's span recorder sees every defense's round.

`perfbench/spans.py` wraps fedsim functions at the names their callers look
them up by. This test installs it unchanged and checks that each defense
kind still crosses those names once per round, so a refactor that calls a
private copy of a wrapped function fails here instead of zeroing a layer in
the traced benchmark report.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from fedsim import engine
from fedsim.config import DefenseSpec

from conftest import tiny_attack, tiny_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

ROUNDS = 3
KINDS = ("baseline", "multikrum", "foolsgold", "foolsgold_multikrum", "roni")


def traced_run(kind):
    config = tiny_config(total_iterations=ROUNDS, attacks=[tiny_attack()],
                         defense=DefenseSpec(kind=kind, f=1))
    tracer = spans.Tracer()
    spans.install_fedsim_spans(tracer)
    tracer.install()
    try:
        engine.run(config)
    finally:
        tracer.uninstall()
    return tracer


@pytest.mark.parametrize("kind", KINDS)
def test_span_counts_per_round(kind):
    tracer = traced_run(kind)
    counts = Counter(span.name for span in tracer.spans)
    assert counts["engine.run"] == 1
    assert counts["defenses.aggregate"] == ROUNDS
    uses_krum = kind in ("multikrum", "foolsgold_multikrum")
    uses_similarity = kind in ("foolsgold", "foolsgold_multikrum")
    assert counts["defenses.multikrum_scores"] == (ROUNDS if uses_krum else 0)
    assert counts["defenses.similarity_matrix"] == (ROUNDS if uses_similarity else 0)
    # 4 honest clients + 2 sybils, each a 4-class x (40 features + bias) model
    assert tracer.counters[0]["defenses.update_bytes_per_round"] == 6 * 4 * 41 * 8
