"""In-memory span recorder for traced benchmark runs.

`install_fedsim_spans` wraps fedsim's layer-boundary functions at the names
their callers look them up (for example `fedsim.engine.fed_average`, not
`fedsim.defenses.fed_average`), so each call records one span
(name, start, end, parent) and, where the layer does countable work, adds
to the current operation's counters. Nothing under `src/` is modified: the
wrappers are module attributes swapped in for the traced operations and
swapped back out afterwards.

Spans stay in memory until `Tracer.write` is called at the end of a run.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an operation's root span
    self_s: float  # duration minus the time its child spans cover


class Tracer:
    """Records spans for wrapped calls; one root span per operation."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.roots: list[int] = []  # index of each operation's root span
        self.counters: list[dict[str, int]] = []  # one dict per root
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace `owner.attr` with a recording wrapper.

        `on_return(counters, args)` runs after a successful call and adds
        the call's work to the current operation's counter dict.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            if stack:
                parent = stack[-1][0]
            else:
                parent = -1
                tracer.roots.append(index)
                tracer.counters.append(defaultdict(int))
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans[index] = Span(name, start, end, parent,
                                           duration - frame[1])
            if on_return is not None:
                on_return(tracer.counters[-1], args)
            return result

        self._patches.append((owner, attr, original, traced))

    def install(self) -> None:
        for owner, attr, _original, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _traced in self._patches:
            setattr(owner, attr, original)

    def op_spans(self, op: int) -> list[Span]:
        """Spans of the op-th operation (root span first)."""
        start = self.roots[op]
        stop = self.roots[op + 1] if op + 1 < len(self.roots) else len(self.spans)
        return self.spans[start:stop]

    def write(self, path: str) -> None:
        """Dump every span as gzip'd TSV: op, index, name, start, end, parent."""
        origin = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("op\tindex\tname\tstart_s\tend_s\tparent\n")
            for op, root in enumerate(self.roots):
                for i, span in enumerate(self.op_spans(op), start=root):
                    fh.write(f"{op}\t{i}\t{span.name}\t{span.start - origin:.9f}\t"
                             f"{span.end - origin:.9f}\t{span.parent}\n")


def _add(key: str, amount):
    def hook(counters, args):
        counters[key] += amount(args)
    return hook


def _peak(key: str, amount):
    def hook(counters, args):
        counters[key] = max(counters[key], amount(args))
    return hook


def install_fedsim_spans(tracer: Tracer) -> None:
    """Register wrappers on every layer boundary the benchmark's workloads
    cross (label-flip attacks; baseline, Multi-Krum, FoolsGold and RONI)."""
    import fedsim.cli as cli
    import fedsim.clients as clients
    import fedsim.data as data
    import fedsim.defenses as defenses
    import fedsim.engine as engine

    # front end: argument parsing, preset lookup, overrides, validation
    tracer.wrap(cli, "main", "cli.main")
    # orchestration; run_grid calls engine.run through the engine module
    tracer.wrap(cli, "run_grid", "engine.run_grid")
    tracer.wrap(cli, "run", "engine.run")
    tracer.wrap(engine, "run", "engine.run")
    # data: engine caches the dataset, so only the first load builds it
    tracer.wrap(engine, "load_dataset", "data.load_dataset")
    for fn in ("partition_non_iid", "sample_class_partition", "flip_labels"):
        tracer.wrap(data, fn, "data.partition")
    # clients and the model math they call
    tracer.wrap(clients.Client, "local_update", "clients.local_update")
    tracer.wrap(clients, "gradient", "model.gradient",
                _add("model.gradient_rows", lambda a: len(a[1])))
    tracer.wrap(clients, "sgd_step", "model.sgd_step")
    # defenses: one aggregate span per round, whatever the rule
    update_bytes = _peak("defenses.update_bytes_per_round", lambda a: a[1].nbytes)
    tracer.wrap(engine, "fed_average", "defenses.aggregate", update_bytes)
    tracer.wrap(engine, "multikrum_round", "defenses.aggregate",
                _peak("defenses.update_bytes_per_round", lambda a: a[0].nbytes))

    def foolsgold_done(counters, args):
        update_bytes(counters, args)
        counters["defenses.history_bytes"] = max(
            counters["defenses.history_bytes"], args[0].histories.nbytes)

    tracer.wrap(defenses.FoolsGold, "aggregate", "defenses.aggregate", foolsgold_done)
    tracer.wrap(defenses.RoniDefense, "aggregate", "defenses.aggregate", update_bytes)
    tracer.wrap(defenses, "similarity_matrix", "defenses.similarity_matrix",
                _add("defenses.similarity_flops",
                     lambda a: a[0].shape[0] ** 2 * a[0].shape[1]))
    tracer.wrap(defenses, "multikrum_scores", "defenses.multikrum_scores")
    # RONI scores each candidate by validation accuracy
    tracer.wrap(defenses, "accuracy", "defenses.roni_score",
                _add("defenses.roni_rows_scored", lambda a: len(a[2])))
    # metrics: per-round evaluation, final evaluation, exports
    tracer.wrap(engine, "predictions", "metrics.eval",
                _add("metrics.eval_rows", lambda a: len(a[1])))
    for fn in ("accuracy", "per_class_error", "attack_rate_labelflip"):
        tracer.wrap(engine, fn, "metrics.final_eval")
    for fn in ("export_grid_csv", "export_series_csv", "export_summary"):
        tracer.wrap(cli, fn, "metrics.export")
