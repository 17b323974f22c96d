"""f32 against f64: the same tickets and the same verdicts.

Training runs in f32 by default. This check runs the criterion-2 ticket of
the acceptance suite's frozen desk SBM (s_g 0.2, s_theta 0.3, the same
budgets) at both precisions for seeds 1-5, a dense arm beside each.

Measured (kept counts, then Hamming distance per mask, f64 against f32):

| seed | kept edges / weights | edges (of 1481) | theta0 (of 384) | theta1 (of 96) |
| --- | --- | --- | --- | --- |
| 1 | 1185 / 336 | 10 | 6 | 0 |
| 2-5 | 1185 / 336 | 0 | 0 | 0 |

Retrained accuracy moved only at seed 1 (0.700 to 0.725); the dense arms
were identical. The masks part where training drifts: within a few
intervals the two precisions' trained scores differ by 1e-5 to 1e-2
relative, so near-equal scores at a cut can swap, and each such flip then
carries through denoising. Kept counts are exact, so every flip costs two
Hamming units. The bound, ``HAMMING_SHARE`` of each mask, is about twice
the worst measured share (theta0 at seed 1, 1.6%) and far below the 42%
in which two unrelated masks at 30% sparsity differ, so a run that
trained a different ticket fails it.

The same check runs, opt-in, on the bench's two Cora-shaped workloads
(``pytest tests/test_precision.py --cora-parity``, about a minute).
Measured there, seeds 1-5, kept counts exact and every verdict the same:

| workload | edges (of 5278) | theta0 (of 733,696) | theta1 (of 3,584) |
| --- | --- | --- | --- |
| cora-shape-arm | 0 | 174-1198 | 0-2 |
| cora-shape-churn | 0-40 | 226-5431 | 0-1 |

The worst share, churn at seed 4 (edges 40, theta0 5431), is 0.76%.
"""

import numpy as np
import pytest

from fastglt.baselines import run_dense
from fastglt.config import config_from_dict
from fastglt.data import generate_sbm
from fastglt.denoise import run_fastglt

from test_acceptance import SBM_CFG
from test_bench_tooling import _load

PARITY_SEEDS = (1, 2, 3, 4, 5)
HAMMING_SHARE = 0.03


def criterion_2_run(dataset, config):
    """The criterion-2 verdict (ticket within one point of dense) and the
    ticket's masks under one config."""
    dense = run_dense(dataset, config.replace(method="dense"))
    ticket = run_fastglt(dataset, config)
    assert ticket.params.weights.dtype == config.dtype
    winning = ticket.report.acc_retrained - dense.report.acc_retrained \
        >= -0.010
    return winning, ticket.binary


def check_parity(dataset, config):
    """f32 against f64 under ``config``: the same verdict, exact kept
    counts, each mask within ``HAMMING_SHARE`` of its size."""
    seed = config.seed
    win64, masks64 = criterion_2_run(dataset, config.replace(precision="f64"))
    win32, masks32 = criterion_2_run(dataset, config.replace(precision="f32"))
    assert win32 == win64, f"seed {seed}: verdict {win32} vs {win64}"
    assert masks32.edges.sum() == masks64.edges.sum()
    assert masks32.kept_weights == masks64.kept_weights
    for name in ("edges", "theta0", "theta1"):
        a, b = getattr(masks64, name), getattr(masks32, name)
        differ = int(np.count_nonzero(a != b))
        assert differ <= HAMMING_SHARE * a.size, \
            f"seed {seed}: {name} differs in {differ} of {a.size}"


def test_f32_tickets_match_f64_on_the_desk_sbm():
    sbm = generate_sbm(3, 100, 0.06, 0.02, 12, seed=101, mean_scale=0.2)
    for seed in PARITY_SEEDS:
        check_parity(sbm, SBM_CFG.replace(s_g=0.2, s_theta=0.3, seed=seed))


@pytest.mark.parametrize("workload", ["cora-shape-arm", "cora-shape-churn"])
def test_f32_tickets_match_f64_on_the_cora_shaped_workloads(workload,
                                                            request):
    """The bench workload's config and graph at each seed (bench/ is only
    read)."""
    if not request.config.getoption("--cora-parity"):
        pytest.skip("opt-in: pass --cora-parity (about 30 s a workload)")
    inputs, workloads = _load("inputs"), _load("workloads")
    for seed in PARITY_SEEDS:
        config = config_from_dict(
            workloads.WORKLOADS[workload].config(seed, "cora-shape"))
        check_parity(inputs.cora_shaped(seed), config)
