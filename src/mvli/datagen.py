"""Benchmark sample generation.

Pipeline per document: build a one-hop relation graph from the augmented
body, drop mutually-mentioning neighbors so each question has a single
ground-truth document, sample (query entity, qualifying entity) subgraphs,
render a question from a deterministic template, paraphrase it, validate the
surface rules, and finally drop anything a BM25 top-k search can still link
back to its ground-truth document.

`draft_pool` is the one drafting loop: `mvli synth` runs it with a share of
legacy shortcut drafts, whose image shows the document's own main entity,
and `mvli datagen` runs it without them, through `generate_samples`.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .augment import AugmentedDocument, image_key_for_entity
from .bm25 import Bm25Index
from .core import (ConfigError, FormatError, GenerationError, Rng, iter_jsonl, str_fields,
                   write_jsonl, write_text)

REJECT_LEAK = "leak"
REJECT_NO_QUALIFIER = "no_qualifier"
REJECT_SURFACE = "surface_violation"
REJECT_STRIP = "strip_failure"


@dataclass(frozen=True)
class Neighbor:
    entity: str
    relation_sentence: str
    has_image: bool
    source_doc_id: str


@dataclass(frozen=True)
class OneHopGraph:
    doc_id: str
    main_entity: str
    neighbors: tuple[Neighbor, ...]


@dataclass(frozen=True)
class TargetSubgraph:
    answer_entity: str
    query_entity: str
    qualifying_entity: str
    relation_q: str  # sentence relating answer and query entities
    relation_k: str  # sentence relating answer and qualifying entities
    query_source_doc_id: str
    gt_doc_id: str


@dataclass(frozen=True)
class QaSample:
    sample_id: str
    question: str
    query_image_key: str
    answer: str
    gt_doc_id: str
    split: str = ""


@dataclass(frozen=True)
class RejectedSample:
    sample_id: str
    gt_doc_id: str
    reason: str
    question: str = ""


# ---------------------------------------------------------------------------
# One-hop graphs.
# ---------------------------------------------------------------------------

_SENTENCE_END = re.compile(r"[.!?]")


def split_sentences(body: str) -> list[tuple[int, int, str]]:
    """(start_char, end_char, text) sentences, split on '.', '!' and '?'."""
    sentences = []
    start = 0
    for match in _SENTENCE_END.finditer(body):
        end = match.end()
        text = body[start:end].strip()
        if text:
            sentences.append((start, end, text))
        start = end
    tail = body[start:].strip()
    if tail:
        sentences.append((start, len(body), tail))
    return sentences


def _token_char_offsets(body: str) -> list[int]:
    return [m.start() for m in re.finditer(r"\S+", body)]


def build_onehop_graph(adoc: AugmentedDocument) -> OneHopGraph:
    """One neighbor per related entity, tagged with the body sentence that
    contains the entity's first mention."""
    sentences = split_sentences(adoc.raw.body)
    offsets = _token_char_offsets(adoc.raw.body)
    neighbors = []
    for rel in adoc.related:
        first_token = min(rel.span)
        char_pos = offsets[first_token]
        sentence = ""
        for start, end, text in sentences:
            if start <= char_pos < end:
                sentence = text
                break
        neighbors.append(
            Neighbor(
                entity=rel.entity,
                relation_sentence=sentence,
                has_image=bool(rel.image_key),
                source_doc_id=rel.source_doc_id,
            )
        )
    return OneHopGraph(adoc.doc_id, adoc.raw.title, tuple(neighbors))


def enforce_unique_gt(graphs: Mapping[str, OneHopGraph]) -> dict[str, OneHopGraph]:
    """Drop neighbor edges that are mentioned back by their own document.

    If document A lists entity e (from document B) and B's graph lists A's
    main entity, both edges are removed, so either document would no longer
    reveal the other's answer.  Idempotent.
    """
    mentions: dict[str, set[str]] = {
        doc_id: {n.source_doc_id for n in g.neighbors} for doc_id, g in graphs.items()
    }
    filtered: dict[str, OneHopGraph] = {}
    for doc_id, graph in graphs.items():
        kept = tuple(
            n for n in graph.neighbors
            if doc_id not in mentions.get(n.source_doc_id, set())
        )
        filtered[doc_id] = OneHopGraph(graph.doc_id, graph.main_entity, kept)
    return filtered


def extract_target_subgraph(graph: OneHopGraph, rng: Rng) -> TargetSubgraph | None:
    """Uniformly pick an image-bearing query entity and a distinct qualifier.

    Returns None when the graph has fewer than two neighbors or none with an
    image, in which case the caller skips the document.
    """
    if len(graph.neighbors) < 2:
        return None
    with_image = [i for i, n in enumerate(graph.neighbors) if n.has_image]
    if not with_image:
        return None
    gen = rng.generator()
    q_idx = int(gen.choice(len(with_image)))
    query = graph.neighbors[with_image[q_idx]]
    rest = [n for n in graph.neighbors if n is not query]
    qual = rest[int(gen.choice(len(rest)))]
    return TargetSubgraph(
        answer_entity=graph.main_entity,
        query_entity=query.entity,
        qualifying_entity=qual.entity,
        relation_q=query.relation_sentence,
        relation_k=qual.relation_sentence,
        query_source_doc_id=query.source_doc_id,
        gt_doc_id=graph.doc_id,
    )


def enumerate_target_subgraphs(graph: OneHopGraph, rng: Rng, limit: int) -> list[TargetSubgraph]:
    """Up to `limit` distinct subgraphs drawn by repeated uniform extraction.

    Draws stop once every (query, qualifying) pair of the graph has been
    found, so a limit above the pair count costs no more than the count.
    """
    pairs = {(q.entity, n.entity) for q in graph.neighbors if q.has_image
             for n in graph.neighbors if n is not q}
    found: list[TargetSubgraph] = []
    seen: set[tuple[str, str]] = set()
    for attempt in range(max(4 * limit, 8)):
        if len(found) >= min(limit, len(pairs)):
            break
        sg = extract_target_subgraph(graph, rng.split(attempt))
        key = (sg.query_entity, sg.qualifying_entity)
        if key not in seen:
            seen.add(key)
            found.append(sg)
    return found


# ---------------------------------------------------------------------------
# Question generation.
# ---------------------------------------------------------------------------


def _strip_terminal(sentence: str) -> str:
    return sentence.strip().rstrip(".!?").strip()


@functools.lru_cache(maxsize=4096)
def _surface_patterns(surface: str) -> tuple[re.Pattern, re.Pattern]:
    """(leading, anywhere) case-insensitive whole-word patterns of a surface,
    compiled once per surface: a KB has more surfaces than `re` caches."""
    escaped = re.escape(surface)
    return (re.compile(r"^\s*" + escaped + r"\b", re.IGNORECASE),
            re.compile(r"\b" + escaped + r"\b", re.IGNORECASE))


def _strip_leading_surface(sentence: str, surface: str) -> str:
    stripped, count = _surface_patterns(surface)[0].subn("", sentence, count=1)
    if count == 0:
        raise GenerationError(
            f"relation sentence does not start with entity surface {surface!r}: {sentence!r}"
        )
    return stripped.strip()


def _truncate_at_surface(text: str, surface: str) -> str:
    match = _surface_patterns(surface)[1].search(text)
    if match is None:
        raise GenerationError(f"entity surface {surface!r} not present in {text!r}")
    return text[: match.start()].strip()


def _collapse(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


def type_of(entity: str, typemap: Mapping[str, str]) -> str:
    """The entity's type noun; a GenerationError when the typemap lacks it."""
    noun = typemap.get(entity)
    if not noun:
        raise GenerationError(f"typemap does not cover entity {entity!r}")
    return noun


def relation_predicate(sentence: str, subject: str, stop_at: str | None = None) -> str:
    """Verb phrase of a relation sentence: the leading subject surface is
    stripped and, when stop_at is given, the text is cut where that entity's
    surface starts (the demonstrative phrase replaces it)."""
    pred = _strip_leading_surface(_strip_terminal(sentence), subject)
    if stop_at is not None:
        pred = _truncate_at_surface(pred, stop_at)
    pred = _collapse(pred)
    if not pred:
        raise GenerationError(f"empty predicate after stripping {sentence!r}")
    return pred


def render_question(sg: TargetSubgraph, typemap: Mapping[str, str]) -> tuple[str, str]:
    """Deterministic question template over a target subgraph.

    The query entity never appears by name: the predicate of its relation
    sentence is truncated where the surface starts and replaced with a
    demonstrative phrase.  The answer surface is stripped from both relation
    sentences.  Returns (question, answer).
    """
    answer = sg.answer_entity
    pred_q = relation_predicate(sg.relation_q, answer, stop_at=sg.query_entity)
    pred_k = relation_predicate(sg.relation_k, answer)
    question = (
        f"Which {type_of(answer, typemap)} {pred_q} this "
        f"{type_of(sg.query_entity, typemap)}, given that it {pred_k}?"
    )
    return question, answer


def _render_shortcut_question(
    graph: OneHopGraph, neighbor_index: int, typemap: Mapping[str, str]
) -> tuple[str, str]:
    """Legacy-style question: the image shows the ground-truth main entity."""
    neighbor = graph.neighbors[neighbor_index]
    pred = relation_predicate(
        neighbor.relation_sentence, graph.main_entity, stop_at=neighbor.entity
    )
    question = (f"Name the {type_of(neighbor.entity, typemap)} that this "
                f"{type_of(graph.main_entity, typemap)} {pred}.")
    return question, neighbor.entity


def validate_sample(
    question: str,
    answer: str,
    query_entity: str,
    type_nouns: Iterable[str],
) -> str | None:
    """None when the question satisfies every surface rule, else a reason code.

    Rules: the query entity surface must not appear (it is shown only in the
    image), the answer surface must not appear, and exactly one demonstrative
    "this <type>" phrase must be present.
    """
    lowered = question.lower()
    if query_entity.lower() in lowered:
        return REJECT_SURFACE
    if answer.lower() in lowered:
        return REJECT_SURFACE
    nouns = {n.lower() for n in type_nouns}
    demonstratives = [
        m.group(1) for m in re.finditer(r"\bthis\s+(\w+)", lowered) if m.group(1) in nouns
    ]
    if len(demonstratives) != 1:
        return REJECT_SURFACE
    return None


# ---------------------------------------------------------------------------
# Paraphrasing.
# ---------------------------------------------------------------------------

# 50 safe word-level substitutions; values never occur as keys, so applying
# the table twice equals applying it once.
DEFAULT_SYNONYMS: dict[str, str] = {
    "feeds": "dines", "upon": "on", "guards": "protects", "borders": "adjoins",
    "orbits": "circles", "rivals": "opposes", "mirrors": "resembles",
    "shelters": "houses", "trades": "bargains", "with": "alongside",
    "venerates": "honors", "patrols": "watches", "summons": "calls",
    "banishes": "expels", "cultivates": "grows", "harvests": "gathers",
    "echoes": "repeats", "annexed": "absorbed", "succeeded": "followed",
    "predates": "antedates", "toward": "towards", "near": "beside",
    "within": "inside", "beyond": "past", "under": "beneath",
    "governs": "rules", "founded": "established", "crafted": "fashioned",
    "guides": "leads", "serves": "assists", "praises": "lauds",
    "studies": "examines", "observes": "watches", "carries": "bears",
    "defends": "shields", "follows": "trails", "precedes": "leads",
    "contains": "holds", "surrounds": "encircles", "overlooks": "faces",
    "supplies": "provides", "escorts": "accompanies", "signals": "marks",
    "stores": "keeps", "repels": "deters", "welcomes": "greets",
    "avoids": "shuns", "joins": "meets", "crosses": "spans",
    "shadows": "tails",
}

_CLAUSE = re.compile(r"^(?P<head>.*), given that (?P<tail>[^,].*)\?$", re.DOTALL)
_CLAUSE_FRONT = re.compile(r"^Given that (?P<tail>.*?), (?P<head>.*)\?$", re.DOTALL)


class RuleParaphraser:
    """Deterministic paraphraser: synonym substitution plus clause reordering.

    The reorder rule swaps the main clause and the "given that" clause; it is
    an involution, so applying the paraphraser twice restores the original
    clause order.
    """

    def __init__(self, synonyms: Mapping[str, str] | None = None, reorder: bool = True):
        # read-only: the substitution pattern is compiled from it once, here
        self.synonyms = MappingProxyType(dict(DEFAULT_SYNONYMS if synonyms is None else synonyms))
        self.reorder = reorder
        self._pattern = re.compile(
            r"\b(" + "|".join(re.escape(w) for w in sorted(self.synonyms)) + r")\b"
        ) if self.synonyms else None

    def _substitute(self, text: str) -> str:
        if self._pattern is None:
            return text
        return self._pattern.sub(lambda m: self.synonyms[m.group(1)], text)

    def _reorder(self, question: str) -> str:
        front = _CLAUSE_FRONT.match(question)
        if front is not None:
            head = front.group("head")
            return head[0].upper() + head[1:] + ", given that " + front.group("tail") + "?"
        back = _CLAUSE.match(question)
        if back is not None:
            head = back.group("head")
            return "Given that " + back.group("tail") + ", " + head[0].lower() + head[1:] + "?"
        return question

    def __call__(self, question: str) -> str:
        result = self._substitute(question)
        if self.reorder:
            result = self._reorder(result)
        return result


# ---------------------------------------------------------------------------
# Filters and splits.
# ---------------------------------------------------------------------------


def bm25_leak_filter(
    samples: Sequence[QaSample],
    kb_index: Bm25Index,
    k: int = 5,
) -> tuple[list[QaSample], list[RejectedSample]]:
    """Reject samples whose question retrieves its ground-truth document in
    the BM25 top-k; survivors have zero top-k leakage by construction."""
    kept: list[QaSample] = []
    rejected: list[RejectedSample] = []
    for sample in samples:
        top = kb_index.top_k(sample.question, k)
        if any(doc_id == sample.gt_doc_id for doc_id, _ in top):
            rejected.append(
                RejectedSample(sample.sample_id, sample.gt_doc_id, REJECT_LEAK, sample.question)
            )
        else:
            kept.append(sample)
    return kept, rejected


def split_seen_unseen(samples: Sequence[QaSample], train_gt_ids: set[str]) -> list[QaSample]:
    """Tag each sample seen/unseen by ground-truth overlap with training."""
    return [
        replace(s, split="seen" if s.gt_doc_id in train_gt_ids else "unseen")
        for s in samples
    ]


# ---------------------------------------------------------------------------
# Full pipeline.
# ---------------------------------------------------------------------------


def build_graphs(kb_aug: Mapping[str, AugmentedDocument]) -> dict[str, OneHopGraph]:
    """One-hop graph of every document, with mutual edges dropped."""
    return enforce_unique_gt(
        {doc_id: build_onehop_graph(kb_aug[doc_id]) for doc_id in sorted(kb_aug)}
    )


def draft_sample(
    sample_id: str,
    gt_doc_id: str,
    render: Callable[[], tuple[str, str]],
    paraphraser: Callable[[str], str],
    query_entity: str,
    query_image_key: str,
    type_nouns: Iterable[str],
) -> QaSample | RejectedSample:
    """Render, paraphrase and validate one draft.

    `render` returns (question, answer); a GenerationError from it rejects
    the draft as a strip failure, and a question that breaks a surface rule
    is rejected with the validator's reason.
    """
    try:
        question, answer = render()
    except GenerationError:
        return RejectedSample(sample_id, gt_doc_id, REJECT_STRIP)
    question = paraphraser(question)
    reason = validate_sample(question, answer, query_entity, type_nouns)
    if reason is not None:
        return RejectedSample(sample_id, gt_doc_id, reason, question)
    return QaSample(sample_id, question, query_image_key, answer, gt_doc_id)


def leak_index(kb_aug: Mapping[str, AugmentedDocument]) -> Bm25Index:
    """The BM25 index of the KB's raw bodies that `bm25_leak_filter` searches."""
    return Bm25Index({doc_id: adoc.raw.body for doc_id, adoc in kb_aug.items()})


def draft_pool(
    kb_aug: Mapping[str, AugmentedDocument],
    typemap: Mapping[str, str],
    rng: Rng,
    samples_per_doc: int,
    fraction_shortcut: float,
) -> tuple[list[QaSample], list[RejectedSample]]:
    """Kept samples, sorted by sample id, plus the rejected sidecar records.

    Each document, in id order, drafts `samples_per_doc` slots on its own
    stream `rng.split(doc_id)`.  A slot is a shortcut draft with probability
    `fraction_shortcut` (`<doc>:s<slot>`: a neighbor named from an image of
    the document's main entity), else the next of the document's target
    subgraphs (`<doc>:f<slot>`).  Only the shortcut-free drafts pass through
    the BM25 leak filter; shortcut drafts emulate legacy benchmarks and keep
    their lexical overlap.
    """
    if samples_per_doc < 1:
        raise ConfigError("samples_per_doc must be >= 1")
    graphs = build_graphs(kb_aug)
    paraphraser = RuleParaphraser()
    type_nouns = set(typemap.values())
    free_drafts: list[QaSample] = []
    shortcut_samples: list[QaSample] = []
    rejected: list[RejectedSample] = []
    for doc_id in sorted(graphs):
        graph = graphs[doc_id]
        if not graph.neighbors:
            rejected.append(RejectedSample(f"{doc_id}:0", doc_id, REJECT_NO_QUALIFIER))
            continue
        doc_rng = rng.split(doc_id)
        style_gen = doc_rng.split("style").generator()
        subgraphs = enumerate_target_subgraphs(graph, doc_rng.split("subgraphs"), samples_per_doc)
        free_cursor = 0
        pick_gen = doc_rng.split("shortcut-pick").generator()
        for slot in range(samples_per_doc):
            if style_gen.uniform() < fraction_shortcut:
                n_idx = int(pick_gen.integers(len(graph.neighbors)))
                draft = draft_sample(
                    f"{doc_id}:s{slot}", doc_id,
                    lambda: _render_shortcut_question(graph, n_idx, typemap), paraphraser,
                    graph.main_entity, kb_aug[doc_id].raw.main_image_key, type_nouns,
                )
                (shortcut_samples if isinstance(draft, QaSample) else rejected).append(draft)
                continue
            if free_cursor >= len(subgraphs):
                if slot == 0:
                    rejected.append(RejectedSample(f"{doc_id}:f0", doc_id, REJECT_NO_QUALIFIER))
                continue
            sg = subgraphs[free_cursor]
            free_cursor += 1
            draft = draft_sample(
                f"{doc_id}:f{slot}", doc_id, lambda: render_question(sg, typemap), paraphraser,
                sg.query_entity, image_key_for_entity(sg.query_entity), type_nouns,
            )
            (free_drafts if isinstance(draft, QaSample) else rejected).append(draft)
    kept_free, leaks = bm25_leak_filter(free_drafts, leak_index(kb_aug))
    rejected.extend(leaks)
    return sorted(kept_free + shortcut_samples, key=lambda s: s.sample_id), rejected


def generate_samples(
    kb_aug: Mapping[str, AugmentedDocument],
    typemap: Mapping[str, str],
    seed: int,
    samples_per_doc: int = 4,
) -> tuple[list[QaSample], list[RejectedSample]]:
    """Untagged shortcut-free samples plus the rejected sidecar records.

    This is `draft_pool` without shortcut drafts, on the stream
    `generate_benchmark` drafts from, so on a synth KB and its typemap, at
    synth's seed and `samples_per_doc` and a `fraction_shortcut` of 0, it
    returns the pool synth splits and synth's rejected records.
    """
    return draft_pool(kb_aug, typemap, Rng(seed).split("benchmark"), samples_per_doc, 0.0)


# ---------------------------------------------------------------------------
# Sample files: one JSON record per line, rejected records in a sidecar.
# ---------------------------------------------------------------------------


def save_samples(samples: Sequence[QaSample], path: str | Path) -> None:
    write_jsonl(path, map(asdict, samples))


_SAMPLE_FIELDS = tuple(f.name for f in fields(QaSample))


def load_samples(path: str | Path) -> list[QaSample]:
    return [QaSample(*str_fields({"split": "", **rec}, _SAMPLE_FIELDS, where, "sample"))
            for where, rec in iter_jsonl(path, "sample")]


def save_rejected(rejected: Sequence[RejectedSample], path: str | Path) -> None:
    write_jsonl(path, map(asdict, rejected))


def save_typemap(typemap: Mapping[str, str], path: str | Path) -> None:
    write_text(path, json.dumps(dict(typemap), sort_keys=True, indent=2) + "\n")


def load_typemap(path: str | Path) -> dict[str, str]:
    """Entity title -> type noun; a file that is not UTF-8, not JSON, or not
    an object of strings is a FormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        typemap = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON; deep nesting
        raise FormatError(f"{path}: bad typemap ({exc})") from exc
    if not isinstance(typemap, dict):
        raise FormatError(f"{path}: bad typemap (not a JSON object)")
    for title, noun in typemap.items():
        if not isinstance(noun, str):
            raise FormatError(f"{path}: bad typemap (type of {title!r} is not a string)")
    return typemap
