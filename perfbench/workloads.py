"""The three benchmark workloads and the metrics they report.

Every workload builds its world from the run's seed with
`SynthConfig(n_docs, entities_per_doc=12, samples_per_doc=8)`, encodes with
the default `EncoderConfig`, flags MI+MMF+ETE and parameters from
`init_encoder_params` at a fixed seed, and times the engine's public functions
from outside.  Engine functions are looked up on their modules at call time,
so the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import mvli.augment as augment_mod
import mvli.encoder as encoder_mod
import mvli.evaluation as evaluation_mod
import mvli.index as index_mod
import mvli.synth as synth_mod
from mvli.encoder import EncoderConfig, EncoderFlags, QueryInput
from mvli.index import SearchParams
from mvli.synth import SynthConfig
from mvli.train import TrainConfig

import checks
from tracing import Tracer

# The package re-exports the function `train` under the submodule's name.
train_mod = importlib.import_module("mvli.train")

OUT_DIR = Path(__file__).resolve().parent / "out"

FLAGS = EncoderFlags(mi=True, mmf=True, ete=True)
PARAM_SEED = 0
K = 10
SEARCH = SearchParams(k=K, nprobe=4, candidate_doc_cap=256)
KMEANS_ITERS = 20
NBITS = 8
BATCH = 8
LEARNING_RATE = 1e-3
GRAD_COORDS = 4
ROUND_TRIP_QUERIES = 10
WARMUP_QUERIES = 5

# World size, set-up repeats (set-up time is their median) and the fixed
# number of measured operations of a traced run, whose counts must repeat.
WORKLOADS = {
    "search-200": {"n_docs": 200, "setups": 5, "traced_ops": 100},
    "train-200": {"n_docs": 200, "setups": 5, "traced_ops": 10},
    "eval-1000": {"n_docs": 1000, "setups": 2, "traced_ops": 1},
}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "items_per_s": "1/s",
}

PER_LAYER = {
    "index.build_index.time_s": "s",
    "index.save_index.time_s": "s",
    "index.load_index.time_s": "s",
    "index.file.bytes": "bytes",
    "index.search.time_s": "s",
    "index.search.self_s": "s",
    "index.reconstruct.time_s": "s",
    "index.reconstruct.rows": "count",
    "encoder.encode_corpus.time_s": "s",
    "encoder.embed_tokens.time_s": "s",
    "encoder.embed_image.time_s": "s",
    "encoder.encode_document_forward.time_s": "s",
    "encoder.encode_document_forward.calls": "count",
    "encoder.cross_attend_forward.time_s": "s",
    "encoder.cross_attend_forward.calls": "count",
    "encoder.mlp_forward.time_s": "s",
    "encoder.encode_query_forward.time_s": "s",
    "train.loss_and_grads.time_s": "s",
    "train.loss_and_grads.self_s": "s",
    "train.score_matrix.time_s": "s",
    "scoring.rank_exact.time_s": "s",
    "scoring.late_interaction_score.calls": "count",
    "evaluation.evaluate_model.time_s": "s",
    "evaluation.rank_samples.self_s": "s",
    "evaluation.build_distractor_map.time_s": "s",
    "augment.augment_kb.time_s": "s",
    "augment.augment_document.calls": "count",
    "synth.generate_benchmark.self_s": "s",
    "datagen.enforce_unique_gt.time_s": "s",
    "datagen.bm25_leak_filter.time_s": "s",
    "bm25.top_k.calls": "count",
}


@dataclass
class World:
    kb: dict
    kb_aug: dict
    splits: object


@dataclass
class Outcome:
    """What one workload measured and checked."""

    setup_times: list[float]
    op_times: list[float] = field(default_factory=list)
    items: int = 0  # queries, training samples or test questions completed
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    details: dict = field(default_factory=dict)


def build_world(n_docs: int, seed: int) -> World:
    cfg = SynthConfig(n_docs=n_docs, entities_per_doc=12, samples_per_doc=8, seed=seed)
    kb = synth_mod.generate_kb(cfg)
    splits = synth_mod.generate_benchmark(kb, cfg)
    return World(kb, augment_mod.augment_kb(kb), splits)


def set_up(n_docs: int, seed: int, repeats: int) -> tuple[World, list[float]]:
    times = []
    world = None
    for _ in range(repeats):
        world = None  # release the previous world before timing the next
        gc.collect()
        start = perf_counter()
        world = build_world(n_docs, seed)
        times.append(perf_counter() - start)
    return world, times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OpLoop:
    """Times operations until the run's seconds are spent, or for a fixed
    count; counts each operation that raises as failed."""

    def __init__(self, outcome: Outcome, seconds: float, count: int | None):
        self.outcome, self.seconds, self.count = outcome, seconds, count
        self.started = perf_counter()

    def start(self) -> None:
        """Opens the measured window, from a collected heap."""
        gc.collect()
        self.started = perf_counter()

    def more(self) -> bool:
        if self.count is not None:
            return self.outcome.attempted < self.count
        return (self.outcome.attempted == 0
                or perf_counter() - self.started < self.seconds)

    def run(self, op, *args):
        self.outcome.attempted += 1
        start = perf_counter()
        try:
            result = op(*args)
        except Exception:  # a failed operation is counted, the run goes on
            if not self.outcome.failed:
                traceback.print_exc(file=sys.stderr)
            self.outcome.failed += 1
            return None
        self.outcome.op_times.append(perf_counter() - start)
        return result


def flat_tensors(obj, prefix: str = "") -> dict[str, np.ndarray]:
    """name -> array view of every tensor in a parameter dataclass tree."""
    if isinstance(obj, np.ndarray):
        return {prefix: obj}
    out: dict[str, np.ndarray] = {}
    for f in dataclasses.fields(obj):
        out.update(flat_tensors(getattr(obj, f.name), f"{prefix}.{f.name}".lstrip(".")))
    return out


def query_of(sample) -> QueryInput:
    return QueryInput(sample.question, sample.query_image_key)


# ---------------------------------------------------------------------------
# search-200: encode, build, save and load the index once, then a closed loop
# of queries (encode_query then search) against the loaded index.
# ---------------------------------------------------------------------------


def run_search(world: World, seed: int, outcome: Outcome, loop: OpLoop,
               tracer: Tracer | None) -> None:
    config = EncoderConfig()
    params = encoder_mod.init_encoder_params(config, PARAM_SEED)
    provider = encoder_mod.SeededEmbeddingProvider(config)

    start = perf_counter()
    corpus = encoder_mod.encode_corpus(world.kb_aug, params, config, provider, FLAGS)
    encode_s = perf_counter() - start
    start = perf_counter()
    built = index_mod.build_index(corpus, kmeans_iters=KMEANS_ITERS, nbits=NBITS, seed=seed)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"search-200-seed{seed}-{id(built):x}.mvli"
    try:
        index_mod.save_index(built, path)
        loaded = index_mod.load_index(path)
        index_build_s = perf_counter() - start
        index_bytes = path.stat().st_size
    finally:
        path.unlink(missing_ok=True)

    samples = (list(world.splits.train) + list(world.splits.test_seen)
               + list(world.splits.test_unseen))
    order = np.random.default_rng(seed).permutation(len(samples))

    def op(sample):
        query = encoder_mod.encode_query(query_of(sample), params, config, provider)
        return query, index_mod.search(loaded, query, SEARCH)

    for i in order[:WARMUP_QUERIES]:
        op(samples[i])
    measured: dict[int, tuple] = {}
    loop.start()
    while loop.more():
        i = int(order[loop.outcome.attempted % len(order)])
        result = loop.run(op, samples[i])
        if result is not None:
            measured.setdefault(i, result)
    outcome.items = len(outcome.op_times)
    outcome.peak_rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    ids = sorted(measured)
    queries = [measured[i][0].vectors for i in ids]
    results = [measured[i][1] for i in ids]
    corpus_ids = set(corpus)
    for i in ids:
        query, result = measured[i]
        outcome.problems += checks.check_ranking(result, K, corpus_ids)
        outcome.problems += checks.check_query_shape(query.vectors, samples[i].question,
                                                     config.n_mm_tokens)
    for doc_id, features in corpus.items():
        doc = world.kb_aug[doc_id]
        outcome.problems += checks.check_document_shape(
            features.vectors, doc.raw.body, len(doc.related), config.n_mm_tokens)
    exact = checks.BruteForce(corpus).top_k(queries, K)
    overlap, problems = checks.check_overlap([[r.doc_id for r in res] for res in results],
                                             exact, K)
    outcome.problems += problems
    for i in ids[:ROUND_TRIP_QUERIES]:
        outcome.problems += checks.check_round_trip(
            index_mod.search(built, measured[i][0], SEARCH), measured[i][1])

    hits = [samples[i].gt_doc_id in [r.doc_id for r in measured[i][1]] for i in ids]
    outcome.details.update({
        "encode_docs_per_s": len(corpus) / encode_s,
        "index_build_s": index_build_s,
        "index_bytes": index_bytes,
        "query_ms_p90": 1000 * float(np.percentile(outcome.op_times, 90)),
        "recall_at_10": sum(hits) / len(hits) if hits else 0.0,
        "top10_overlap": overlap,
    })


# ---------------------------------------------------------------------------
# train-200: a fixed sequence of SGD batches of 8 from the train split, each
# one step of `train`.  The first batch is the warm-up and the step whose
# update is checked against central differences.
# ---------------------------------------------------------------------------


def run_train(world: World, seed: int, outcome: Outcome, loop: OpLoop,
              tracer: Tracer | None) -> None:
    config = EncoderConfig()
    params = encoder_mod.init_encoder_params(config, PARAM_SEED)
    provider = encoder_mod.SeededEmbeddingProvider(config)
    cfg = TrainConfig(batch_size=BATCH, learning_rate=LEARNING_RATE, epochs=1, seed=seed,
                      flags=FLAGS)
    samples = list(world.splits.train)
    order = np.random.default_rng(seed).permutation(len(samples))
    batches = [[samples[i] for i in order[b:b + BATCH]]
               for b in range(0, len(order) - BATCH + 1, BATCH)]
    losses: list[float] = []
    grad_norms: list[float] = []
    state = {"params": params}

    def step(batch):
        state["params"], stats = train_mod.train(batch, world.kb_aug, cfg, state["params"],
                                                 config, provider)
        losses.extend(stats.losses)
        grad_norms.extend(stats.grad_norms)

    before = copy.deepcopy(params)
    step(batches[0])
    after = copy.deepcopy(state["params"])
    loop.start()
    while loop.more():
        loop.run(step, batches[1 + loop.outcome.attempted % (len(batches) - 1)])
    outcome.items = BATCH * len(outcome.op_times)
    outcome.peak_rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    outcome.problems += checks.check_finite("losses", losses)
    outcome.problems += checks.check_finite("gradient norms", grad_norms)
    theta0, theta1 = flat_tensors(before), flat_tensors(after)
    updates = {name: (theta0[name] - theta1[name]) / LEARNING_RATE for name in theta0}
    for name, update in updates.items():
        outcome.problems += checks.check_finite(f"update of {name}", update)
    for name, value in flat_tensors(state["params"]).items():
        outcome.problems += checks.check_finite(f"parameter {name}", value)

    first = batches[0]

    def loss_at(p) -> float:
        queries = [encoder_mod.encode_query(query_of(s), p, config, provider) for s in first]
        docs = [encoder_mod.encode_document(world.kb_aug[s.gt_doc_id], p, config, provider,
                                            FLAGS) for s in first]
        return train_mod.contrastive_loss(queries, docs)

    rng = np.random.default_rng(seed)
    moved = [name for name in sorted(updates) if np.any(updates[name] != 0)]
    if not moved:
        outcome.problems.append("the warm-up step left every parameter unchanged")
    for name in rng.choice(moved, size=min(GRAD_COORDS, len(moved)), replace=False):
        flat = int(rng.choice(np.flatnonzero(updates[name] != 0)))
        coord = np.unravel_index(flat, updates[name].shape)

        def central_difference(eps: float, name=name, coord=coord) -> float:
            plus, minus = copy.deepcopy(before), copy.deepcopy(before)
            flat_tensors(plus)[name][coord] += eps
            flat_tensors(minus)[name][coord] -= eps
            return (loss_at(plus) - loss_at(minus)) / (2 * eps)

        outcome.problems += checks.check_gradient(
            float(updates[name][coord]), central_difference, f"{name}{list(coord)}")
    outcome.details["mean_loss"] = float(np.mean(losses))


# ---------------------------------------------------------------------------
# eval-1000: evaluate_model on a 1000-doc world (encode_corpus, rank_exact for
# the test questions, recall and distractor report).
# ---------------------------------------------------------------------------


class Capture:
    """Records what a module-level engine function returns while installed."""

    def __init__(self, module, name: str):
        self.module, self.name = module, name
        self.calls: list[tuple[tuple, object]] = []
        self.original = getattr(module, name, None)

    def __enter__(self) -> "Capture":
        if self.original is not None:
            original, calls = self.original, self.calls

            def capture(*args, **kwargs):
                result = original(*args, **kwargs)
                calls.append((args, result))
                return result

            setattr(self.module, self.name, capture)
        return self

    def __exit__(self, *exc) -> None:
        if self.original is not None:
            setattr(self.module, self.name, self.original)


def run_eval(world: World, seed: int, outcome: Outcome, loop: OpLoop,
             tracer: Tracer | None) -> None:
    config = EncoderConfig()
    params = encoder_mod.init_encoder_params(config, PARAM_SEED)
    provider = encoder_mod.SeededEmbeddingProvider(config)
    test = list(world.splits.test_seen) + list(world.splits.test_unseen)
    ks = (1, 5, K)

    def evaluate(kb, kb_aug, samples):
        return evaluation_mod.evaluate_model(kb, kb_aug, params, config, provider, samples,
                                             FLAGS, ks=ks)

    few = sorted(world.kb)[:8]
    evaluate({d: world.kb[d] for d in few}, {d: world.kb_aug[d] for d in few}, test[:4])
    report = None
    with Capture(evaluation_mod, "encode_corpus") as corpora, \
            Capture(evaluation_mod, "encode_query") as queries:
        loop.start()
        while loop.more():
            report = loop.run(evaluate, world.kb, world.kb_aug, test) or report
    outcome.items = len(test) * len(outcome.op_times)
    outcome.peak_rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    if report is None:
        return

    outcome.problems += checks.check_report_shape(report.rows, ks)
    reported = {r.split: r.value for r in report.rows if r.metric == "recall" and r.k == K}

    corpus = corpora.calls[-1][1] if corpora.calls else None
    if corpus is None or set(corpus) != set(world.kb_aug):
        corpus = encoder_mod.encode_corpus(world.kb_aug, params, config, provider, FLAGS)
    encoded = {(args[0].text, args[0].image_key): result for args, result in queries.calls
               if args and isinstance(args[0], QueryInput)}
    vectors = []
    for s in test:
        features = encoded.get((s.question, s.query_image_key))
        if features is None:
            features = encoder_mod.encode_query(query_of(s), params, config, provider)
        vectors.append(features.vectors)
    hit = checks.BruteForce(corpus).hits(vectors, [s.gt_doc_id for s in test], K)
    by_split = {"all": hit,
                "seen": [h for h, s in zip(hit, test) if s.split == "seen"],
                "unseen": [h for h, s in zip(hit, test) if s.split == "unseen"]}
    outcome.problems += checks.check_recall(reported, by_split)
    outcome.details["recall_at_10"] = reported.get("all")


RUNNERS = {"search-200": run_search, "train-200": run_train, "eval-1000": run_eval}


def run(workload: str, seed: int, seconds: float, trace: bool,
        n_docs: int | None = None) -> dict:
    """One benchmark run; returns the result object printed by `run.py`.

    n_docs overrides the world size, for quick runs of the workload's code.
    """
    spec = WORKLOADS[workload]
    tracer = Tracer().install() if trace else None
    try:
        world, setup_times = set_up(n_docs or spec["n_docs"], seed,
                                    1 if trace else spec["setups"])
        outcome = Outcome(setup_times)
        loop = OpLoop(outcome, seconds, spec["traced_ops"] if trace else None)
        RUNNERS[workload](world, seed, outcome, loop, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not outcome.op_times:
        raise RuntimeError(f"{workload}: every operation failed")

    end_to_end = {
        "setup_s": statistics.median(outcome.setup_times),
        "peak_rss_mb": outcome.peak_rss_mb,
        "op_ms_p50": 1000 * statistics.median(outcome.op_times),
        "items_per_s": outcome.items / sum(outcome.op_times),
    }
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": workload, "seed": seed, "ops": len(outcome.op_times),
                      "details": outcome.details}), file=sys.stderr)
    if trace:
        per_layer = {name: tracer.value(name) for name in PER_LAYER
                     if name != "index.file.bytes"}
        per_layer["index.file.bytes"] = outcome.details.get("index_bytes", 0)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"trace-{workload}-seed{seed}.json").write_text(json.dumps({
            "workload": workload, "seed": seed, "ops": len(outcome.op_times),
            "end_to_end": end_to_end, "per_layer": per_layer, "spans": tracer.spans(),
        }, indent=1) + "\n")
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": not outcome.problems, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}
