"""Span tracing from outside the library.

``Tracer.install`` replaces each traced function with a wrapper everywhere
it is looked up: every ``fastglt`` module global bound to the original
function object (``train.py`` and friends bind names with ``from .x import
f``, so wrapping only the defining module would miss their calls), or the
class attribute for methods. ``Tracer.uninstall`` puts every original
back. Spans carry a name, start, end and parent id and stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (module, attribute) of every traced function; methods as Class.method.
TRACED = (
    ("data", "load_bundle"), ("data", "parse_dataset_spec"),
    ("nn", "glorot_params"), ("nn", "feature_operator"),
    ("nn", "gcn_forward"), ("nn", "backward"), ("nn", "evaluate_accuracy"),
    ("nn", "Gradients.dense_flat"),
    ("graph", "NormAdj.effective"), ("graph", "normalize_adjacency"),
    ("graph", "edge_degree_scores"),
    ("optim", "adam_step"),
    ("train", "TrainLoop.__init__"), ("train", "TrainLoop.run_epoch"),
    ("train", "TrainLoop.rebuild_norm"),
    ("train", "train_oneshot_phase"), ("train", "verify_ticket"),
    ("masks", "init_soft_masks"), ("masks", "one_shot_threshold"),
    ("masks", "save_mask"), ("masks", "save_soft_values"),
    ("denoise", "run_fastglt"), ("denoise", "interval_quotas"),
    ("denoise", "identify_noisy"), ("denoise", "discover_potential"),
    ("denoise", "update_masks"), ("denoise", "export_swaps"),
    ("baselines", "run_imp"), ("baselines", "run_dense"),
    ("baselines", "run_random"), ("baselines", "run_oneshot_only"),
    ("analysis", "mac_count"),
    ("harness", "run_experiment"), ("harness", "run_suite"),
)

# Functions whose second argument is a path they write: the span records
# the bytes written.
_WRITERS = {"masks.save_mask", "masks.save_soft_values",
            "denoise.export_swaps"}


def _span_name(base: str, args: tuple, kwargs: dict) -> str:
    """Split a few spans by what the call trains."""
    if base == "optim.adam_step":
        return f"{base}.{kwargs.get('name', 'param')}"
    if base == "train.run_epoch":
        loop = args[0]
        if loop.update_soft_weights:
            return "train.run_epoch.cotrain"
        if loop.update_soft_edges:
            return "train.run_epoch.denoise"
        return "train.run_epoch.theta"
    return base


class Span:
    __slots__ = ("name", "start", "end", "parent", "session", "error",
                 "bytes")

    def __init__(self, name, start, parent, session):
        self.name, self.start, self.parent = name, start, parent
        self.session, self.end, self.error, self.bytes = session, None, \
            False, 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def as_dict(self, sid: int) -> dict:
        return {"id": sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "session": self.session, "error": self.error,
                "bytes": self.bytes}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.session = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, base: str, fn):
        spans, stack = self.spans, self._stack
        writes = base in _WRITERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(_span_name(base, args, kwargs), time.perf_counter(),
                        stack[-1] if stack else -1, self.session)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if writes:
                    span.bytes = os.path.getsize(args[1])
                return out
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "fastglt" or name.startswith("fastglt.")]
        for mod_name, attr in TRACED:
            home = sys.modules[f"fastglt.{mod_name}"]
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                base = "train.run_epoch" if attr == "TrainLoop.run_epoch" \
                    else f"{mod_name}.{attr}"
                setattr(cls, method, self._wrap(base, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self) -> list[dict]:
        return [s.as_dict(i) for i, s in enumerate(self.spans)]
