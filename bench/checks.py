"""Output checks on the artifacts of every timed arm.

Each check returns ``(name, ok, detail)``; the run counts every check as
attempted and every false one as failed.

* kept counts land on target: exactly for fastglt, one-shot and random
  (``s_g`` within 1/E, ``s_theta`` within 1/|W|), at or past it within one
  round for IMP, and the report's sparsities match the mask files;
* the mask files round-trip through ``load_mask``/``save_mask``;
* replaying ``swaps.jsonl`` backwards from the final masks shows, at every
  boundary, removals within the kept set and regrowth within the pruned
  set, the two disjoint, the net shrink matching the schedule, and the
  walk starting from the one-shot kept counts;
* a digest of the deterministic report fields plus every artifact's bytes,
  which runs of one seed must reproduce (acceptance criterion 10).
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from fastglt import denoise, masks


def _kept_ok(kept: int, universe: int, target: float, method: str,
             p: float) -> bool:
    want = masks.kept_count(universe, target)
    if method == "imp":         # stops at the first round past the target
        return kept <= want and kept > want - int(np.ceil(p * universe)) - 1
    return kept == want


def _load_masks(arm: Path, shapes) -> tuple[list[np.ndarray], list]:
    loaded, checks = [], []
    for name, size in shapes:
        path = arm / f"masks_{name}.gltm"
        bits = masks.load_mask(path)
        with tempfile.TemporaryDirectory(dir=arm) as tmp:
            again = Path(tmp) / "again.gltm"
            masks.save_mask(bits, again)
            same = again.read_bytes() == path.read_bytes()
        checks.append((f"mask_roundtrip.{name}", same and bits.size == size,
                       f"{bits.size} bits, expected {size}"))
        loaded.append(bits)
    return loaded, checks


def check_arm(arm: Path, cfg, num_edges: int, num_features: int,
              num_classes: int) -> tuple[list, dict]:
    """Checks for one arm directory, plus regrow-survival counts."""
    report = json.loads((arm / "report.json").read_text())["results"]
    method = report["method"]
    if method == "dense":
        return [], {}
    h = cfg.hidden
    shapes = (("edges", num_edges), ("theta0", num_features * h),
              ("theta1", h * num_classes))
    (edges, w0, w1), checks = _load_masks(arm, shapes)
    weights = np.concatenate([w0, w1])
    kept_e, kept_w = int(edges.sum()), int(weights.sum())
    checks.append(("kept_edges", _kept_ok(kept_e, edges.size, cfg.s_g,
                                           method, cfg.imp_p_g),
                   f"{method}: {kept_e} of {edges.size} at s_g={cfg.s_g}"))
    checks.append(("kept_weights",
                   _kept_ok(kept_w, weights.size, cfg.s_theta, method,
                            cfg.imp_p_theta),
                   f"{method}: {kept_w} of {weights.size} at "
                   f"s_theta={cfg.s_theta}"))
    checks.append(("report_sparsity",
                   report["s_g"] == masks.sparsity(edges)
                   and report["s_theta"] == masks.sparsity(weights),
                   f"report ({report['s_g']}, {report['s_theta']})"))
    if method != "fastglt":
        return checks, {}
    swap_checks, survival = replay_swaps(arm / "swaps.jsonl", cfg, edges,
                                         weights)
    return checks + swap_checks, survival


def replay_swaps(path: Path, cfg, edges: np.ndarray, weights: np.ndarray
                 ) -> tuple[list, dict]:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    plan = masks.SparsityPlan(s_g_tgt=cfg.s_g, s_theta_tgt=cfg.s_theta,
                              alpha=cfg.alpha, beta=cfg.beta)
    schedule = denoise.DenoiseSchedule.build(
        cfg.interval, cfg.denoise_epochs, cfg.tau, cfg.kappa, edges.size,
        weights.size, plan)
    checks = [("swap_intervals",
               [r["interval"] for r in records]
               == list(range(1, schedule.mu_end + 1)),
               f"{len(records)} records for {schedule.mu_end} intervals")]
    state = {"edges": edges.copy(), "weights": weights.copy()}
    plans = {"edges": schedule.graph, "weights": schedule.weights}
    bad = []
    for rec in reversed(records):
        mu = rec["interval"]
        for kind, after in state.items():
            removed = np.asarray(rec[f"{kind}_removed"], dtype=np.int64)
            regrown = np.asarray(rec[f"{kind}_regrown"], dtype=np.int64)
            if (after[removed].any() or not after[regrown].all()
                    or np.intersect1d(removed, regrown).size
                    or np.unique(removed).size != removed.size
                    or np.unique(regrown).size != regrown.size):
                bad.append(f"interval {mu} {kind}: set algebra")
            if removed.size - regrown.size != plans[kind].n_net[mu - 1]:
                bad.append(f"interval {mu} {kind}: net shrink")
            after[regrown] = False
            after[removed] = True
    for kind, before in state.items():
        if int(before.sum()) != plans[kind].kept_start:
            bad.append(f"{kind}: walk does not start at the one-shot count")
    checks.append(("swap_replay", not bad, "; ".join(bad[:3]) or "ok"))

    survival = {}
    for kind in ("edges", "weights"):
        regrown = dropped = 0
        for rec, nxt in zip(records, records[1:]):
            grown = np.asarray(rec[f"{kind}_regrown"], dtype=np.int64)
            regrown += grown.size
            dropped += np.intersect1d(grown, nxt[f"{kind}_removed"]).size
        survival[kind] = (regrown, dropped)
    return checks, survival


def artifact_digest(arm_dirs: list[Path]) -> str:
    """sha256 over every arm's report (wall-clock fields dropped) and the
    bytes of every other artifact, in a fixed order."""
    h = hashlib.sha256()
    for arm in arm_dirs:
        for path in sorted(arm.iterdir()):
            h.update(path.name.encode() + b"\0")
            if path.name == "report.json":
                report = json.loads(path.read_text())
                report.pop("timing")
                h.update(json.dumps(report, sort_keys=True).encode())
            else:
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def artifact_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
