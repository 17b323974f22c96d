"""Per-layer figures from the spans of a traced run.

Layers are named after the library's modules. For every traced function
``<layer>.<fn>`` the run derives calls per traced job, the median span
(``ms_p50``), a tail (``ms_tail``: the highest percentile of a fixed
ladder that still has at least 10 samples beyond it, or the maximum when
there are fewer than 20 samples; the table records which) and, where the
function has traced children, its median self time (``self_ms``: the
span minus its child spans).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracer import TRACED

_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
_RUN_EPOCH = ("train.run_epoch.cotrain", "train.run_epoch.denoise",
              "train.run_epoch.theta")
_ADAM = ("theta0", "theta1", "m_edges", "m_theta0", "m_theta1")


def known_names() -> list[str]:
    """Every span name the tracer can emit, plus the aggregate groups."""
    names = []
    for mod, attr in TRACED:
        if attr == "TrainLoop.run_epoch":
            names += _RUN_EPOCH
        elif mod == "optim":
            names += [f"optim.adam_step.{t}" for t in _ADAM]
            names.append("optim.adam_step.other")
        else:
            names.append(f"{mod}.{attr}")
    return names


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest ladder percentile with
    at least 10 samples beyond it, interpolated linearly between ranks as
    the median is; the maximum below 20 samples."""
    n = len(values)
    ordered = sorted(values)
    for pct in _LADDER:
        if round(n * (100.0 - pct), 6) >= 1000:     # 10 samples beyond
            pos = pct / 100.0 * (n - 1)
            lo = math.floor(pos)
            hi = min(lo + 1, n - 1)
            value = ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])
            return value, pct, n
    return ordered[-1], 100.0, n


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s.name].append(i)
            if s.parent >= 0:
                self.children[s.parent].append(i)

    def ids(self, name: str, sessions) -> list[int]:
        return [i for i in self.by_name[name]
                if self.spans[i].session in sessions]

    def self_ms(self, i: int) -> float:
        return self.spans[i].ms - sum(self.spans[c].ms
                                      for c in self.children[i])

    def stats(self, ids: list[int], per: float) -> dict:
        """calls (per ``per`` units), ms_p50, ms_tail, self_ms, bytes."""
        if not ids:
            return {"calls": 0.0, "ms_p50": 0.0, "ms_tail": 0.0,
                    "tail_pct": None, "samples": 0, "self_ms": 0.0,
                    "bytes": 0.0}
        ms = [self.spans[i].ms for i in ids]
        value, pct, n = tail(ms)
        return {"calls": len(ids) / per, "ms_p50": statistics.median(ms),
                "ms_tail": value, "tail_pct": pct, "samples": n,
                "self_ms": statistics.median(self.self_ms(i) for i in ids),
                "bytes": sum(self.spans[i].bytes for i in ids) / per}

    def descendants(self, i: int):
        for c in self.children[i]:
            yield c
            yield from self.descendants(c)

    def boundaries(self, root: int) -> list[tuple[float, float]]:
        """(window ms, self ms) of every denoise interval boundary under one
        ``run_fastglt`` span: from ``interval_quotas`` to the end of the
        following adjacency rebuild, both direct children of the root."""
        out, start = [], None
        for c in self.children[root]:
            span = self.spans[c]
            if span.name == "denoise.interval_quotas":
                start, inner = span.start, 0.0
            if start is None:
                continue
            inner += span.ms
            if span.name == "train.TrainLoop.rebuild_norm":
                window = (span.end - start) * 1e3
                out.append((window, window - inner))
                start = None
        return out

    def per_parent(self, child: str, parents, sessions) -> float:
        """Mean count of ``child`` spans directly under each parent span."""
        parent_ids = [i for p in parents for i in self.ids(p, sessions)]
        if not parent_ids:
            return 0.0
        hits = sum(1 for p in parent_ids for c in self.children[p]
                   if self.spans[c].name.startswith(child))
        return hits / len(parent_ids)


def per_layer(spans, n_jobs: int, arm_seconds: list[float]) -> tuple[dict,
                                                                     dict]:
    """Metrics by name and the full per-function table.

    ``arm_seconds`` holds the reported search + verify seconds of each
    traced fastglt arm, in order, for the phase-coverage figure.
    """
    idx = SpanIndex(spans)
    jobs = {"job"}
    table = {}
    for name in known_names():
        if name.startswith("data."):
            table[name] = idx.stats(idx.ids(name, {"setup"}), 1.0)
        elif name == "optim.adam_step.other":
            ids = [i for t in _ADAM[1:]
                   for i in idx.ids(f"optim.adam_step.{t}", jobs)]
            table[name] = idx.stats(ids, n_jobs)
        else:
            table[name] = idx.stats(idx.ids(name, jobs), n_jobs)

    values = {}
    for name, row in table.items():
        for key in ("calls", "ms_p50", "ms_tail", "self_ms", "bytes"):
            values[f"{name}.{key}"] = row[key]

    values["nn.forward_calls_per_epoch"] = idx.per_parent(
        "nn.gcn_forward", _RUN_EPOCH, jobs)
    for phase in ("cotrain", "denoise", "theta"):
        values[f"optim.adam_calls_per_epoch.{phase}"] = idx.per_parent(
            "optim.adam_step", [f"train.run_epoch.{phase}"], jobs)
    values["optim.nonfinite_failures"] = sum(
        1 for s in spans if s.name.startswith("optim.adam_step")
        and s.error and s.session == "job")

    roots = idx.ids("denoise.run_fastglt", jobs)
    bounds = [b for r in roots for b in idx.boundaries(r)]
    values["denoise.boundaries"] = len(bounds) / n_jobs
    values["denoise.boundary_ms"] = statistics.median(
        b[0] for b in bounds) if bounds else 0.0
    values["denoise.boundary_self_ms"] = statistics.median(
        b[1] for b in bounds) if bounds else 0.0

    imp_ids = idx.ids("baselines.run_imp", {"job", "imp"})
    rounds = [c for i in imp_ids for c in idx.children[i]
              if spans[c].name == "train.train_oneshot_phase"]
    round_stats = idx.stats(rounds, max(len(imp_ids), 1))
    values["baselines.imp.rounds"] = round_stats["calls"]
    values["baselines.imp.round_ms"] = round_stats["ms_p50"]
    table["baselines.imp.round"] = round_stats

    # run-epoch spans plus boundary windows against the reported phases,
    # and what no traced span covers
    arms = 1e3 * sum(arm_seconds)
    epochs = sum(spans[d].ms for r in roots for d in idx.descendants(r)
                 if spans[d].name in _RUN_EPOCH)
    values["trace.phase_coverage"] = (epochs + sum(b[0] for b in bounds)) \
        / arms if arms else 0.0
    children = sum(spans[c].ms for r in roots for c in idx.children[r])
    values["trace.unaccounted_ms"] = (arms - children) / max(len(roots), 1)
    values["trace.spans_per_job"] = sum(
        1 for s in spans if s.session == "job") / n_jobs
    return values, table
