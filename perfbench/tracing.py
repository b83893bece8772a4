"""Span tracing around the engine's public functions, from outside the engine.

`Tracer.install` replaces each traced function with a timing wrapper in every
loaded `mvli` module that binds it, so calls are caught where callers look the
names up (`mvli.train.encode_document_forward` as well as
`mvli.encoder.encode_document_forward`).  Spans are aggregated as they close:
per layer the call count, inclusive time, self time (inclusive time minus the
time of traced child spans) and the parent layers that caused the calls.  A
function missing from the engine is skipped, and its layer reads zero.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

# (module, attribute) of every traced function; "Class.method" patches a method.
TRACED: tuple[tuple[str, str], ...] = (
    ("mvli.synth", "generate_kb"),
    ("mvli.synth", "generate_benchmark"),
    ("mvli.augment", "augment_kb"),
    ("mvli.augment", "augment_document"),
    ("mvli.datagen", "build_onehop_graph"),
    ("mvli.datagen", "enforce_unique_gt"),
    ("mvli.datagen", "bm25_leak_filter"),
    ("mvli.bm25", "Bm25Index.top_k"),
    ("mvli.encoder", "init_encoder_params"),
    ("mvli.encoder", "encode_corpus"),
    ("mvli.encoder", "encode_document"),
    ("mvli.encoder", "encode_document_forward"),
    ("mvli.encoder", "encode_query"),
    ("mvli.encoder", "encode_query_forward"),
    ("mvli.encoder", "embed_tokens"),
    ("mvli.encoder", "embed_image"),
    ("mvli.encoder", "cross_attend_forward"),
    ("mvli.encoder", "mlp_forward"),
    ("mvli.index", "build_index"),
    ("mvli.index", "save_index"),
    ("mvli.index", "load_index"),
    ("mvli.index", "search"),
    ("mvli.index", "reconstruct"),
    ("mvli.scoring", "rank_exact"),
    ("mvli.scoring", "late_interaction_score"),
    ("mvli.train", "train"),
    ("mvli.train", "loss_and_grads"),
    ("mvli.train", "score_matrix"),
    ("mvli.evaluation", "evaluate_model"),
    ("mvli.evaluation", "rank_samples"),
    ("mvli.evaluation", "build_distractor_map"),
)


def _vector_rows(args: tuple, kwargs: dict) -> int:
    """Rows asked of `reconstruct(index, vec_ids)`: the vectors decompressed."""
    vec_ids = args[1] if len(args) > 1 else kwargs.get("vec_ids")
    return len(vec_ids) if vec_ids is not None else 0


ROW_COUNTERS: dict[str, Callable[[tuple, dict], int]] = {"index.reconstruct": _vector_rows}


@dataclass
class LayerStats:
    calls: int = 0
    time_s: float = 0.0
    self_s: float = 0.0
    rows: int = 0
    parents: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Collects spans of the traced functions while installed."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = {}
        self._stack: list[list] = []  # [layer, child seconds] per open span
        self._open: dict[str, int] = {}  # open spans per layer, for re-entry
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        count_rows = ROW_COUNTERS.get(layer)
        stack, open_spans = self._stack, self._open
        stats = self.layers.setdefault(layer, LayerStats())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "<run>"
            frame = [layer, 0.0]
            stack.append(frame)
            open_spans[layer] = open_spans.get(layer, 0) + 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                open_spans[layer] -= 1
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if not open_spans[layer]:  # count re-entered time once
                    stats.time_s += elapsed
                stats.parents[parent] = stats.parents.get(parent, 0) + 1
                if count_rows is not None:
                    stats.rows += count_rows(args, kwargs)

        return traced

    def install(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mvli" or name.startswith("mvli."))]
        for module_name, attr in TRACED:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, method, None) if owner is not None else None
                if original is None:
                    continue
                self._patch(owner, method, self._wrap(self.layer_name(module_name, method),
                                                      original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(self.layer_name(module_name, attr), original)
            for candidate in modules:
                for name, value in list(vars(candidate).items()):
                    if value is original:
                        self._patch(candidate, name, wrapper)
        return self

    @staticmethod
    def layer_name(module_name: str, function: str) -> str:
        return f"{module_name.removeprefix('mvli.')}.{function}"

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def value(self, metric: str) -> float:
        """A per-layer metric `<layer>.<time_s|self_s|calls|rows>`; 0 when unreached."""
        layer, _, kind = metric.rpartition(".")
        stats = self.layers.get(layer, LayerStats())
        return getattr(stats, kind)

    def spans(self) -> dict:
        return {
            layer: {"calls": s.calls, "time_s": s.time_s, "self_s": s.self_s,
                    "rows": s.rows, "parents": dict(sorted(s.parents.items()))}
            for layer, s in sorted(self.layers.items()) if s.calls
        }
