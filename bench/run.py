"""Benchmark of the fastglt engine: one workload, one process, closed loop.

    python3 bench/run.py --workload cora-shape-arm --seed 1 --seconds 40 \\
        --trace 0

Run from the repository root. The script caps the BLAS thread pools at the
number of usable cores before numpy is imported, builds the workload's
inputs from ``--seed`` (the library only sees the generated inputs), sets
up (import, dataset load, initial weights, one short warm-up job) and then
runs one job after another until ``--seconds`` have passed. Every job's
artifacts are checked (see ``checks.py``). Workloads are defined in
``workloads.py``; ``BENCHMARK.json`` at the repository root names the
metrics and their units.

``--trace 0`` reports the end-to-end metrics, untraced; a timing metric
is the median of the run's samples (see ``collect``). ``--trace 1``
alternates untraced and traced jobs and reports the per-layer metrics from
the traced ones; the difference of their median job times is the tracing
overhead. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable table. Details (run metadata, per-job figures,
fastest samples, every check, the full per-function table, computed kernel
counts) go to ``.bench_build/fastglt/results/``, and traced runs also
write their spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import DESK_SBM_SPEC, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(".bench_build") / "fastglt"          # relative to ROOT
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GLT_THREADS")
SETUP_SAMPLES = 3          # this process plus fresh child processes
INFER_SECONDS = 3.0        # inference sampling after each job
WARMUP_NOTE = ("the first in-process arm pays one-off warm-up (lazy imports, "
               "allocator and BLAS start-up); one short warm-up job runs "
               "before timing and its cost is part of setup_s")


def cap_threads() -> int:
    """Pin every BLAS/OpenMP pool to the usable cores (GLT_THREADS may ask
    for fewer); must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    asked = os.environ.get("GLT_THREADS", "")
    threads = min(int(asked), nproc) if asked.isdigit() and int(asked) > 0 \
        else nproc
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one fresh set-up, print it, exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

class Setup:
    """Import, load the inputs, draw the initial weights, warm up."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.dataset_spec = DESK_SBM_SPEC if workload.suite else \
            str(WORK / f"{workload.name}-s{seed}" / "bundle")
        self.timings = {}

    def import_library(self) -> None:
        t = time.perf_counter()
        global config, data, graph, harness, masks, nn
        from fastglt import config, data, graph, harness, masks, nn
        self.timings["import_s"] = time.perf_counter() - t

    def write_inputs(self) -> str:
        """Untimed: build the seed's graph and write it as a bundle."""
        import inputs
        if self.workload.suite:
            return inputs.fingerprint(data.parse_dataset_spec(DESK_SBM_SPEC))
        ds = inputs.cora_shaped(self.seed)
        bundle = ROOT / self.dataset_spec
        shutil.rmtree(bundle, ignore_errors=True)
        data.save_bundle(ds, bundle)
        return inputs.fingerprint(ds)

    def load(self) -> None:
        t = time.perf_counter()
        spec = self.dataset_spec
        self.dataset = data.parse_dataset_spec(
            spec if self.workload.suite else str(ROOT / spec))
        self.cfg = config.config_from_dict(
            self.workload.config(self.seed, spec))
        self.params0 = harness.make_params0(self.dataset, self.cfg)
        t_warm = time.perf_counter()
        run_job(self, self.work / "warmup", warm=True)
        shutil.rmtree(self.work / "warmup", ignore_errors=True)
        done = time.perf_counter()
        self.timings["load_s"] = t_warm - t
        self.timings["warmup_s"] = done - t_warm
        self.timings["setup_s"] = self.timings["import_s"] + done - t


def run_job(setup: Setup, out: Path, warm: bool = False) -> list[Path]:
    """One job: the whole suite, or one arm; returns the arm directories."""
    w = setup.workload
    if w.suite:
        outcome = harness.run_suite(
            w.suite_spec(setup.seed, setup.dataset_spec, warm), out)
        if len(outcome.arm_dirs) != len(w.arms):
            raise RuntimeError(f"suite finished {len(outcome.arm_dirs)} of "
                               f"{len(w.arms)} arms")
        return outcome.arm_dirs
    cfg = config.config_from_dict(w.config(setup.seed, setup.dataset_spec,
                                           warm))
    harness.run_experiment(cfg, out, dataset=setup.dataset,
                           params0=setup.params0)
    return [out]


def setup_probe(args) -> int:
    """Child process: one fresh set-up, printed as JSON."""
    setup = Setup(WORKLOADS[args.workload], args.seed,
                  ROOT / WORK / f"probe-{os.getpid()}")
    try:
        setup.import_library()
        setup.load()
    finally:
        shutil.rmtree(setup.work, ignore_errors=True)
    print(json.dumps(setup.timings))
    return 0


def probe_setups(args, n: int) -> list[dict]:
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# jobs and their checks
# ---------------------------------------------------------------------------

def _report(arm: Path) -> dict:
    return json.loads((arm / "report.json").read_text())


@contextlib.contextmanager
def tracing(tracer, session: str):
    """Trace the block as ``session`` when a tracer is given."""
    if tracer is None:
        yield
        return
    tracer.session = session
    with tracer:
        yield


def measure_job(setup: Setup, k: int, tracer=None) -> dict:
    """Run and time one job, then check its artifacts (untimed)."""
    import checks
    out = setup.work / f"job{k}"
    shutil.rmtree(out, ignore_errors=True)
    rec = {"job": k, "traced": tracer is not None}
    try:
        with tracing(tracer, "job"):
            t = time.perf_counter()
            try:
                arms = run_job(setup, out)
            finally:
                rec["total_s"] = time.perf_counter() - t
    except Exception:
        rec["checks"] = [("job_completed", False,
                          traceback.format_exc(limit=3))]
        return rec
    rec["checks"] = [("job_completed", True, f"{len(arms)} arms")]

    ds = setup.dataset
    reports = {arm: _report(arm) for arm in arms}
    survival = {}
    for arm, report in reports.items():
        found, surv = checks.check_arm(
            arm, config.config_from_dict(report["config"]), ds.num_edges,
            ds.num_features, ds.num_classes)
        rec["checks"] += found
        survival.update(surv)
    rec["survival"] = survival
    rec["digest"] = checks.artifact_digest(arms)
    rec["artifact_bytes"] = checks.artifact_bytes(out)

    by_method = {r["results"]["method"]: (arm, r)
                 for arm, r in reports.items()}
    fg, report = by_method["fastglt"]
    rec["fastglt_dir"] = str(fg)
    rec["fastglt"] = _fastglt_figures(report)
    if "imp" in by_method:
        rec["imp_search_s"] = by_method["imp"][1]["timing"]["search_seconds"]
    return rec


def _fastglt_figures(report: dict) -> dict:
    cfg, timing = report["config"], report["timing"]
    phases = timing["phase_seconds"]
    return {"search_s": timing["search_seconds"], "verify_s": phases["verify"],
            "acc_retrained": report["results"]["acc_retrained"],
            "mac_savings": report["results"]["mac_savings"],
            "epoch_ms": {
                "oneshot": 1e3 * phases["oneshot"] / cfg["epochs"],
                "denoise": 1e3 * phases["denoise"] / cfg["denoise_epochs"],
                "verify": 1e3 * phases["verify"] / cfg["retrain_epochs"]}}


def imp_side_arm(setup: Setup, tracer=None) -> tuple[float, list]:
    """One IMP arm at the workload's targets, one round as long as the
    fastglt one-shot phase; returns its search seconds and checks."""
    import checks
    cfg = setup.cfg.replace(method="imp", retrain_epochs=1,
                            imp_epochs_per_round=setup.cfg.epochs)
    out = setup.work / "imp"
    with tracing(tracer, "imp"):
        run = harness.run_experiment(cfg, out, dataset=setup.dataset,
                                     params0=setup.params0)
    ds = setup.dataset
    found, _ = checks.check_arm(out, cfg, ds.num_edges, ds.num_features,
                                ds.num_classes)
    return run.report.search_seconds, found


def inference_samples(setup: Setup, fastglt_dir: Path) -> dict:
    """Latencies (ms) of one gcn_forward under a job's final masks and
    under no masks, alternating, after two warm-up calls; adjacency and
    feature operator built beforehand, soft masks at identity as in
    verification retraining. Sampled after every job, so the samples
    spread over the whole run."""
    ds, p0 = setup.dataset, setup.params0
    binary = masks.BinaryMasks(
        edges=masks.load_mask(fastglt_dir / "masks_edges.gltm"),
        theta0=masks.load_mask(fastglt_dir / "masks_theta0.gltm").reshape(
            p0.theta0.shape),
        theta1=masks.load_mask(fastglt_dir / "masks_theta1.gltm").reshape(
            p0.theta1.shape))
    params = p0.fresh_copy()
    soft = nn.SoftMasks.identity(ds.num_edges, p0.theta0.shape,
                                 p0.theta1.shape, dtype=p0.theta0.dtype)
    x_op = nn.feature_operator(ds, p0.theta0.dtype)
    cases = {"ticket": (binary, graph.normalize_adjacency(ds, binary.edges)),
             "dense": (None, graph.normalize_adjacency(ds))}
    times = {name: [] for name in cases}
    t_end = time.perf_counter() + INFER_SECONDS
    reps = 0
    while reps < 1000 and (reps < 10 or time.perf_counter() < t_end):
        for name, (b, norm) in cases.items():
            t = time.perf_counter()
            nn.gcn_forward(params, soft, b, ds, norm=norm, x_op=x_op)
            if reps >= 2:
                times[name].append(1e3 * (time.perf_counter() - t))
        reps += 1
    return times


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved {name}"


def metadata(args, threads: int, fingerprint: str, workload) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fastglt").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "why": workload.why,
        "seeds": {"workload_seed": args.seed,
                  "config_seed": workload.config(args.seed, "")["seed"],
                  "graph": "desk SBM, frozen seed 101" if workload.suite
                  else f"cora_shaped(seed={args.seed})"},
        "dataset_fingerprint": fingerprint,
        "loop": "closed, one job at a time, one process",
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": _git_revision(),
        "src_sha256": src.hexdigest()[:16],
        "warmup_note": WARMUP_NOTE,
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def _digest_store_check(key: str, digest: str) -> tuple:
    """Runs of one seed in one checkout must reproduce the digest."""
    path = ROOT / WORK / "digests.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    seen = store.setdefault(key, digest)
    if seen == digest:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        tmp.replace(path)
    return ("digest_matches_earlier_runs", seen == digest,
            f"{digest} vs {seen}")


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = cap_threads()
    if not (ROOT / "src" / "fastglt" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'fastglt'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    work = ROOT / WORK / f"{workload.name}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return execute(args, threads, declared, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def execute(args, threads, declared, workload, work: Path) -> int:
    setup = Setup(workload, args.seed, work)
    setup.import_library()
    fingerprint = setup.write_inputs()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    with tracing(tracer, "setup"):
        setup.load()
    setups = [setup.timings]
    if not args.trace:
        setups += probe_setups(args, SETUP_SAMPLES - 1)

    jobs, side = [], None
    t_loop = time.perf_counter()
    while len(jobs) < 2 or time.perf_counter() - t_loop < args.seconds:
        traced = tracer if args.trace and len(jobs) % 2 == 1 else None
        jobs.append(measure_job(setup, len(jobs), traced))
        if not args.trace and jobs[-1]["checks"][0][1]:
            jobs[-1]["infer_ms"] = inference_samples(
                setup, Path(jobs[-1]["fastglt_dir"]))
        if workload.imp_side_arm and side is None \
                and jobs[-1]["checks"][0][1]:
            # after the first good job, off the loop's clock
            t_side = time.perf_counter()
            side = (len(jobs) - 1, *imp_side_arm(setup, tracer))
            t_loop += time.perf_counter() - t_side
        if len(jobs) > 1:
            shutil.rmtree(work / f"job{len(jobs) - 2}", ignore_errors=True)
    loop_s = time.perf_counter() - t_loop

    ok_jobs = [j for j in jobs if j["checks"][0][1]]
    checks = [c for j in jobs for c in j["checks"]]
    digests = [j["digest"] for j in ok_jobs]
    for d in digests[1:]:
        checks.append(("digest_repeats_in_run", d == digests[0],
                       f"{d} vs {digests[0]}"))
    if digests:
        job_cfg = json.dumps(workload.config(args.seed, setup.dataset_spec),
                             sort_keys=True)
        checks.append(_digest_store_check(
            f"{workload.name}|seed={args.seed}|data={fingerprint}|"
            f"threads={threads}|{job_cfg}", digests[0]))

    figures = {"loop_s": loop_s, "jobs": len(jobs)}
    if side is not None:
        figures["imp_side_after_job"], figures["imp_side_search_s"], found \
            = side
        checks += found

    untraced = [j for j in ok_jobs if not j["traced"]]
    traced = [j for j in ok_jobs if j["traced"]]
    values = {}
    table = {}
    if untraced and (traced or not args.trace):
        values, table = collect(args, setup, setups, untraced, traced,
                                figures, tracer)

    counts = kernel_counts(setup, ok_jobs, values)

    attempted = len(checks)
    failed = sum(1 for c in checks if not c[1])
    values["pass_rate"] = (attempted - failed) / attempted
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    meta = metadata(args, threads, fingerprint, workload)
    if args.trace and "trace.overhead_ms" in values:
        meta["tracing_overhead_ms"] = values["trace.overhead_ms"]
    results = ROOT / WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-s{args.seed}-trace{args.trace}"
    detail = {"meta": meta, "setups": setups, "figures": figures,
              "jobs": [{k: v for k, v in j.items() if k != "checks"}
                       for j in jobs],
              "checks": checks, "error_rate": failed / attempted,
              "missing_metrics": missing, "values": values,
              "per_function": table, "kernel_counts_computed": counts}
    (results / f"{stem}.json").write_text(
        json.dumps(detail, indent=1, default=str))
    if tracer is not None:
        (results / f"{stem}-spans.json").write_text(
            json.dumps(tracer.dump()))

    print_table(meta, metrics, figures, checks, failed, attempted, counts,
                table, results / f"{stem}.json")
    correct = failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def kernel_counts(setup: Setup, ok_jobs: list, values: dict) -> dict:
    """Computed per-product counts under the last ticket's masks and under
    no masks; the ticket totals go into ``values``."""
    import kernels
    ds = setup.dataset
    nnz_x = int((ds.features != 0).sum())
    kept = int(masks.load_mask(Path(ok_jobs[-1]["fastglt_dir"])
                               / "masks_edges.gltm").sum()) if ok_jobs else 0
    counts = {state: kernels.kernel_counts(
        ds.num_nodes, ds.num_features, setup.cfg.hidden, ds.num_classes,
        nnz_x, 2 * e + ds.num_nodes)
        for state, e in (("ticket", kept), ("dense", ds.num_edges))}
    for part in ("forward", "backward"):
        flops, nbytes = kernels.totals(counts["ticket"][part])
        values[f"nn.{part}.flops"] = flops
        values[f"nn.{part}.bytes"] = nbytes
        values[f"nn.{part}.flops_per_byte"] = flops / nbytes
    edge = counts["ticket"]["backward"]["edge_grad"]
    values["nn.backward.edge_grad.flops"] = edge["flops"]
    values["nn.backward.edge_grad.bytes"] = edge["bytes"]
    return counts


def collect(args, setup, setups, untraced, traced, figures, tracer) -> tuple:
    """Metric values by name, and the per-function table of a traced run.

    A timing metric is the median of the run's samples: one per job, one
    per set-up, one per inference call. On a shared host the same work
    runs up to 1.7x slower for stretches of seconds to minutes, so
    whether a run's fastest sample catches a fast stretch is a coin toss,
    while its median moves only with the share of slow time. ``imp_ratio``
    divides search times measured back to back, which share one host
    speed. The fastest samples and sample counts go to the run's details.
    """
    arms = [j["fastglt"] for j in untraced]
    samples = {
        "setup_s": [s["setup_s"] for s in setups],
        "total_s": [j["total_s"] for j in untraced],
        "search_s": [a["search_s"] for a in arms],
        "verify_s": [a["verify_s"] for a in arms],
    }
    for phase in ("oneshot", "denoise", "verify"):
        samples[f"epoch_ms.{phase}"] = [a["epoch_ms"][phase] for a in arms]
    for case in ("ticket", "dense"):
        if not args.trace:
            samples[f"{case}_infer_ms"] = [
                t for j in untraced for t in j["infer_ms"][case]]
    values = {name: statistics.median(v) for name, v in samples.items()}
    figures["fastest"] = {n: min(v) for n, v in samples.items()}
    figures["samples"] = {n: len(v) for n, v in samples.items()}
    if setup.workload.imp_side_arm:     # against the jobs either side
        k = figures["imp_side_after_job"]
        near = [a["search_s"] for j, a in zip(untraced, arms)
                if j["job"] in (k, k + 1)] or [a["search_s"] for a in arms]
        ratios = [statistics.mean(near) / figures["imp_side_search_s"]]
    else:
        ratios = [j["fastglt"]["search_s"] / j["imp_search_s"]
                  for j in untraced]
    values["imp_ratio"] = statistics.median(ratios)
    values["acc_retrained"] = statistics.median(
        a["acc_retrained"] for a in arms)
    values["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        # the engine runs dense kernels under any mask: the MAC savings
        # are modelled, the latency saving is what the kernels realise
        figures["mac_savings_modelled"] = arms[0]["mac_savings"]
        figures["latency_saving_measured"] = \
            1.0 - values["ticket_infer_ms"] / values["dense_infer_ms"]
        return values, {}

    import layers
    layer_values, table = layers.per_layer(
        tracer.spans, len(traced),
        [j["fastglt"]["search_s"] + j["fastglt"]["verify_s"] for j in traced])
    values.update(layer_values)
    overhead = statistics.median(j["total_s"] for j in traced) \
        - values["total_s"]
    values["trace.overhead_ms"] = 1e3 * overhead
    values["trace.overhead_share"] = overhead / values["total_s"]
    for kind in ("edges", "weights"):
        grown = sum(j["survival"][kind][0] for j in traced)
        dropped = sum(j["survival"][kind][1] for j in traced)
        values[f"denoise.regrow_survival.{kind}"] = \
            1.0 - dropped / grown if grown else 1.0
    values["harness.artifact_bytes"] = statistics.median(
        j["artifact_bytes"] for j in traced)
    values["analysis.mac_savings"] = traced[-1]["fastglt"]["mac_savings"]
    return values, table


def print_table(meta, metrics, figures, checks, failed, attempted, counts,
                table, detail_path) -> None:
    print(f"# workload {meta['workload']}  seed {meta['seeds']}  "
          f"data {meta['dataset_fingerprint']}")
    print(f"# {meta['cpu']}, nproc {meta['nproc']}, threads "
          f"{meta['threads']}, python {meta['python']}, numpy "
          f"{meta['numpy']}, scipy {meta['scipy']}, {meta['blas']}, "
          f"rev {meta['git_revision'][:12]}, src {meta['src_sha256']}")
    print(f"# {meta['warmup_note']}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_rate':44s} {failed / attempted:>16.6g} "
          f"ratio  ({failed} of {attempted} checks failed)")
    if "mac_savings_modelled" in figures:
        print(f"# ticket MAC savings {figures['mac_savings_modelled']:.4f} "
              "(modelled, analysis.mac_count) against a measured latency "
              f"saving of {figures['latency_saving_measured']:.4f}")
    for name, ok, detail in checks:
        if not ok:
            print(f"FAILED {name}: {detail}")
    for part in ("forward", "backward"):
        for op, c in counts["ticket"][part].items():
            print(f"# computed {part:8s} {op:12s} {c['flops']:>14d} flop "
                  f"{c['bytes']:>14d} B  {c['flops'] / c['bytes']:.3f} "
                  "flop/B")
    for name, row in sorted(table.items()):
        if row["calls"]:
            print(f"# span {name:34s} calls/job {row['calls']:9.1f} "
                  f"p50 {row['ms_p50']:9.3f} ms  p{row['tail_pct']:g} "
                  f"{row['ms_tail']:9.3f} ms (n={row['samples']})  "
                  f"self {row['self_ms']:8.3f} ms")
    if "tracing_overhead_ms" in meta:
        print(f"# tracing overhead {meta['tracing_overhead_ms']:.1f} ms "
              "per job (median traced minus median untraced job time)")
    print(f"# details: {detail_path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
