"""Measurement apparatus: the one ending of every arm (``finish_arm``: the
verification retrain and the report), inference-cost accounting, pruned-set
statistics, mask-distance curves, and relative wall-clock tables.

CSV emission is plot-ready data only (no rendering here).
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .data import Dataset
from .graph import hamming_distance
from .masks import BinaryMasks
from .nn import GcnParams
from .train import verify_ticket


@dataclass
class TicketReport:
    """Everything one method run reports about the ticket it found."""

    method: str
    s_g: float
    s_theta: float
    acc_inplace: float
    acc_retrained: float
    macs: int
    dense_macs: int
    seed: int
    config_digest: str
    phase_seconds: dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0
    search_seconds: float = 0.0
    relative_time: float | None = None
    search_epochs: int = 0
    verify_epochs: int = 0
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        deterministic = {
            "method": self.method,
            "s_g": self.s_g,
            "s_theta": self.s_theta,
            "acc_inplace": self.acc_inplace,
            "acc_retrained": self.acc_retrained,
            "macs": self.macs,
            "dense_macs": self.dense_macs,
            "mac_savings": 1.0 - self.macs / self.dense_macs,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "search_epochs": self.search_epochs,
            "verify_epochs": self.verify_epochs,
        }
        deterministic.update(self.extra)
        timing = {"phase_seconds": self.phase_seconds,
                  "search_seconds": self.search_seconds,
                  "total_seconds": self.total_seconds,
                  "relative_time": self.relative_time}
        return {"results": deterministic, "timing": timing}


@dataclass
class ArmResult:
    """What one method arm returns: its report, its trained weights, and
    the artifacts it produced. Artifacts an arm does not produce keep
    their empty defaults, and ``binary`` stays None for the dense arm."""

    report: TicketReport
    params: GcnParams
    binary: BinaryMasks | None = None
    soft_edges: np.ndarray | None = None        # final trained soft edges
    swaps: list = field(default_factory=list)    # denoise.SwapRecord
    history: list = field(default_factory=list)  # train.EpochStats
    initial_binary: BinaryMasks | None = None   # masks after one-shot cut
    round_masks: list[BinaryMasks] = field(default_factory=list)


def finish_arm(method: str, config: ExperimentConfig, dataset: Dataset,
               params: GcnParams, binary: BinaryMasks | None,
               t_start: float, phase_ends: dict[str, float], *,
               acc_inplace: float, search_epochs: int,
               extra: dict | None = None, **artifacts) -> ArmResult:
    """The one ending of every method arm. A ticket (``binary`` given) is
    retrained from the recorded initialization for ``config.retrain_budget``
    epochs, which closes a "verify" phase; the dense arm (``binary`` None)
    is its own reference. ``phase_ends`` holds the ``perf_counter`` time at
    which each search phase ended, in order; ``artifacts`` are the
    remaining ``ArmResult`` fields."""
    search_end = list(phase_ends.values())[-1]
    acc_retrained, verify_epochs = acc_inplace, 0
    if binary is not None:
        verify_epochs = config.retrain_budget
        acc_retrained = verify_ticket(dataset, params, binary, verify_epochs,
                                      lr=config.lr).test_at_best
        phase_ends = {**phase_ends, "verify": time.perf_counter()}
    ends = [t_start, *phase_ends.values()]
    report = TicketReport(
        method=method,
        s_g=binary.graph_sparsity() if binary is not None else 0.0,
        s_theta=binary.weight_sparsity() if binary is not None else 0.0,
        acc_inplace=acc_inplace, acc_retrained=acc_retrained,
        macs=mac_count(dataset, binary, params.hidden),
        dense_macs=mac_count(dataset, None, params.hidden),
        seed=config.seed, config_digest=config.digest(),
        phase_seconds=dict(zip(phase_ends, np.diff(ends).tolist())),
        search_seconds=search_end - t_start,
        total_seconds=ends[-1] - t_start,
        search_epochs=search_epochs, verify_epochs=verify_epochs,
        extra=extra or {})
    return ArmResult(report=report, params=params, binary=binary,
                     **artifacts)


def mac_count(dataset: Dataset, binary: BinaryMasks | None,
              hidden: int) -> int:
    """Multiply-accumulate count of one inference under the masks.

    Cost model per layer: N * nnz(W) for the feature transform with sparse
    weights, plus nnz(A_hat) * d_out for the aggregation, where nnz(A_hat)
    counts kept directed edges plus the N self-loops. Summed over both
    layers that is N * (kept pooled weights) + nnz(A_hat) * (H + C); dense
    masks keep F*H + H*C weights.
    """
    n = dataset.num_nodes
    c = dataset.num_classes
    if binary is None:
        kept_weights = (dataset.num_features + c) * hidden
        kept_edges = dataset.num_edges
    else:
        kept_weights = binary.kept_weights
        kept_edges = int(np.count_nonzero(binary.edges))
    nnz_a = 2 * kept_edges + n
    return n * kept_weights + nnz_a * (hidden + c)


@dataclass
class PrunedSetStats:
    """Distribution summary of one score field over one pruned set."""

    count: int
    mean: float
    median: float
    deciles: list[float]        # 10th, 20th, ..., 90th percentile

    @staticmethod
    def from_values(values: np.ndarray) -> "PrunedSetStats":
        v = np.asarray(values, dtype=np.float64)
        if v.size == 0:
            raise ValueError("empty pruned set")
        return PrunedSetStats(
            count=int(v.size), mean=float(v.mean()),
            median=float(np.median(v)),
            deciles=[float(np.percentile(v, q)) for q in range(10, 100, 10)])


def pruned_set_stats(mask_a: BinaryMasks, mask_b: BinaryMasks,
                     weight_grads: np.ndarray, edge_scores: np.ndarray,
                     names: tuple[str, str] = ("a", "b")) -> dict:
    """Compare what two methods pruned, by gradient mass and edge degree.

    ``weight_grads`` is the |accumulated dense gradient| field over the
    pooled flat weight universe and ``edge_scores`` the edge-degree field,
    both computed on the shared initialization/splits so the distributions
    are attributable to the masks alone.
    """
    out: dict[str, dict[str, PrunedSetStats]] = {}
    for name, masks in zip(names, (mask_a, mask_b)):
        pruned_w = ~masks.weights
        pruned_e = ~masks.edges
        out[name] = {
            "weight_grad": PrunedSetStats.from_values(weight_grads[pruned_w]),
            "edge_degree": PrunedSetStats.from_values(edge_scores[pruned_e]),
        }
    return out


def pruned_set_stats_csv(stats: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["method", "field", "stat", "value"])
    for method, fields in stats.items():
        for fname, s in fields.items():
            writer.writerow([method, fname, "count", s.count])
            writer.writerow([method, fname, "mean", f"{s.mean:.10g}"])
            writer.writerow([method, fname, "median", f"{s.median:.10g}"])
            for q, v in zip(range(10, 100, 10), s.deciles):
                writer.writerow([method, fname, f"p{q}", f"{v:.10g}"])
    return buf.getvalue()


def distance_curve(mask_histories: dict[str, list[np.ndarray]],
                   reference_imp_masks: list[np.ndarray]) -> list[dict]:
    """Normalized Hamming distance of each method's masks to the reference
    iterative-pruning masks, level by level.

    ``mask_histories`` maps a method name to one mask per sparsity level,
    aligned with ``reference_imp_masks``. Levels must match the reference
    sparsity to within one element or the comparison is refused.
    """
    rows = []
    for method, masks in mask_histories.items():
        if len(masks) != len(reference_imp_masks):
            raise ValueError(
                f"{method}: {len(masks)} masks vs "
                f"{len(reference_imp_masks)} reference levels")
        for ref, mine in zip(reference_imp_masks, masks):
            ref = np.asarray(ref, dtype=bool)
            mine = np.asarray(mine, dtype=bool)
            if abs(int(ref.sum()) - int(mine.sum())) > 1:
                raise ValueError(
                    f"{method}: sparsity mismatch beyond one element "
                    f"({int(mine.sum())} kept vs reference {int(ref.sum())})")
            level = 1.0 - ref.sum() / ref.size
            rows.append({"sparsity": level, "method": method,
                         "distance": hamming_distance(ref, mine)})
    return rows


def distance_curve_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["sparsity", "method", "distance"])
    for r in rows:
        writer.writerow([f"{r['sparsity']:.6f}", r["method"],
                         f"{r['distance']:.10g}"])
    return buf.getvalue()


def timing_report(reports: list[TicketReport]) -> list[dict]:
    """Relative search time of every method against the dense baseline.

    The baseline's own training time defines 1.0x; each method's search
    time is divided by it. Requires a dense run in the list.
    """
    dense = [r for r in reports if r.method == "dense"]
    if not dense:
        raise ValueError("timing report needs a dense baseline run")
    base = dense[0].search_seconds
    rows = []
    for r in reports:
        rel = r.search_seconds / base if base > 0 else float("nan")
        r.relative_time = rel
        rows.append({
            "method": r.method, "s_g": r.s_g, "s_theta": r.s_theta,
            "acc_retrained": r.acc_retrained, "macs": r.macs,
            "mac_savings": 1.0 - r.macs / r.dense_macs,
            "obtain_seconds": r.search_seconds, "relative_time": rel,
        })
    return rows


def efficiency_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["method", "s_g", "s_theta", "acc_retrained", "macs",
              "mac_savings", "obtain_seconds", "relative_time"]
    writer.writerow(header)
    for r in rows:
        writer.writerow([r["method"], f"{r['s_g']:.4f}",
                         f"{r['s_theta']:.4f}", f"{r['acc_retrained']:.6f}",
                         r["macs"], f"{r['mac_savings']:.6f}",
                         f"{r['obtain_seconds']:.4f}",
                         f"{r['relative_time']:.4f}"])
    return buf.getvalue()
