"""The benchmark workloads: what one job runs, and its warm-up.

A job is one closed-loop unit of work, timed end to end:

* ``cora-shape-arm``: one fastglt arm through ``harness.run_experiment`` on
  the Cora-shaped graph (H=512, interval 10, s_g 0.2, s_theta 0.3).
  Kernel-bound: epochs dominate, mask boundaries are rare.
* ``desk-sbm-suite``: ``harness.run_suite`` on the frozen desk SBM of the
  acceptance tests at the criterion-4 setting (s_g 0.3, s_theta 0.9, arms
  dense, fastglt, imp, oneshot, random; IMP p_g 0.05, p_theta 0.2, 140
  epochs per round). Tiny matmuls, so per-call Python overhead dominates.
  The graph and the initialization are both frozen (the acceptance tests'
  instance and init seed 1): on this 300-node graph the retrained accuracy
  moves by about 8% between init seeds. ``BENCHMARK.json`` does not list
  this workload: it is left out to keep the whole benchmark within about
  an hour at 40 s a run, and on a shared 2-core Intel Xeon host its
  millisecond-scale timings moved by 20-57% (interquartile range over
  median of each run's fastest sample, runs of 20 s). Run it by name for
  the criterion-4 ratio.
* ``cora-shape-churn``: the Cora-shaped graph and model with a mask
  boundary every epoch (interval 1, tau 0.3, s_g 0.3, s_theta 0.8), so
  the denoise selection, adjacency renormalization and swap-log writes
  dominate.

The Cora-shaped workloads also run one IMP arm per process, outside the
timed loop, at the same targets with one round as long as the fastglt
arm's one-shot phase, between the first two jobs; ``imp_ratio`` there
compares that arm with the mean fastglt search of the jobs either side.
On ``desk-sbm-suite`` it compares the suite's own fastglt and IMP arms
(acceptance criterion 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The frozen desk instance of tests/test_acceptance.py (SBM_SPEC).
DESK_SBM_SPEC = ("sbm:blocks=3,nodes_per_block=100,p_in=0.06,p_out=0.02,"
                 "feature_dim=12,seed=101,mean_scale=0.2")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    suite: bool                 # job is run_suite (else run_experiment)
    shared: dict                # config keys shared by every arm
    arms: tuple = ()            # suite arms, in order
    imp_side_arm: bool = False  # measure imp_ratio against an extra IMP arm
    warmup: dict = field(default_factory=dict)   # overrides for warm-up

    def config(self, seed: int, dataset: str, warm: bool = False) -> dict:
        cfg = {"seed": seed, **self.shared, "dataset": dataset}
        if warm:
            cfg.update(self.warmup)
        return cfg

    def suite_spec(self, seed: int, dataset: str, warm: bool = False
                   ) -> dict:
        return {"shared": self.config(seed, dataset, warm),
                "arms": [{"method": m} for m in self.arms]}


_CORA_MODEL = dict(method="fastglt", hidden=512, lr=0.01)
# Warm-up jobs: a few epochs of every phase and two mask boundaries.
_WARM = dict(epochs=3, denoise_epochs=2, interval=1, retrain_epochs=2,
             imp_epochs_per_round=2)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="cora-shape-arm",
        why="one fastglt arm on a Cora-shaped graph, H=512: kernel-bound "
            "epochs, rare mask boundaries",
        suite=False, imp_side_arm=True,
        shared=dict(_CORA_MODEL, s_g=0.2, s_theta=0.3, epochs=6,
                    denoise_epochs=20, interval=10, tau=0.1,
                    retrain_epochs=8),
        warmup=_WARM),
    Workload(
        name="desk-sbm-suite",
        why="five-arm suite on the desk SBM at the criterion-4 setting: "
            "tiny matmuls, per-call overhead, fastglt/IMP ratio",
        suite=True,
        shared=dict(seed=1, method="fastglt", hidden=32, lr=0.01, s_g=0.3,
                    s_theta=0.9, epochs=30, denoise_epochs=110,
                    interval=10, tau=0.1, retrain_epochs=140,
                    imp_p_g=0.05, imp_p_theta=0.2,
                    imp_epochs_per_round=140),
        arms=("dense", "fastglt", "imp", "oneshot", "random"),
        warmup=dict(_WARM, denoise_epochs=4, interval=2)),
    Workload(
        name="cora-shape-churn",
        why="Cora-shaped arm with a mask boundary every epoch: denoise "
            "selection, renormalization and swap-log writes dominate",
        suite=False, imp_side_arm=True,
        shared=dict(_CORA_MODEL, s_g=0.3, s_theta=0.8, epochs=5,
                    denoise_epochs=12, interval=1, tau=0.3,
                    retrain_epochs=8),
        warmup=_WARM),
)}
