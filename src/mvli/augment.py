"""Multi-image document augmentation.

Turns a raw knowledge base into augmented documents: related entities are
located in each body by a longest-match dictionary scan over KB titles, and
each one is resolved to the main image of its own document.  The titles are
tokenized once per KB into a title table, so augmenting a KB is linear in its
size.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from .core import (DataError, DocumentError, FormatError, InputError, iter_jsonl, str_fields,
                   tokenize)

logger = logging.getLogger(__name__)

IMAGE_KEY_PREFIX = "img::"


def image_key_for_entity(entity: str) -> str:
    """Symbolic image key; the pictured entity stays recoverable from the key."""
    return IMAGE_KEY_PREFIX + entity


def entity_from_image_key(image_key: str) -> str:
    if not image_key.startswith(IMAGE_KEY_PREFIX):
        raise DataError(f"image key {image_key!r} does not encode an entity")
    return image_key[len(IMAGE_KEY_PREFIX):]


@dataclass(frozen=True)
class RawDocument:
    doc_id: str
    title: str
    body: str
    main_image_key: str

    def __post_init__(self):
        if not self.title:
            raise InputError(f"document {self.doc_id!r} has an empty title")


@dataclass(frozen=True)
class RelatedEntity:
    entity: str
    span: tuple[int, ...]  # 0-based token indices of every mention
    image_key: str
    source_doc_id: str


@dataclass(frozen=True)
class AugmentedDocument:
    raw: RawDocument
    text_tokens: tuple[str, ...]
    related: tuple[RelatedEntity, ...]
    warnings: tuple[str, ...] = ()

    @property
    def doc_id(self) -> str:
        return self.raw.doc_id


@dataclass(frozen=True)
class LinkedMention:
    entity: str
    span: tuple[int, ...]
    source_doc_id: str


@dataclass(frozen=True)
class TitleTable:
    """KB titles keyed by their normalized token tuples, for the dictionary scan.

    Build it once per KB with `build_title_table` and pass it to every
    document's scan, so each title is tokenized once.
    """

    titles: Mapping[str, str]  # title -> doc_id, as given
    title_tokens: Mapping[str, tuple[str, ...]]  # title -> normalized tokens
    by_tokens: Mapping[tuple[str, ...], tuple[str, str]]  # tokens -> (title, doc_id)
    max_len: int


def build_title_table(kb_titles: Mapping[str, str]) -> TitleTable:
    """Title table over `kb_titles`; when several titles share one token
    tuple, the first in iteration order wins."""
    if not kb_titles:
        raise InputError("kb_titles must not be empty")
    title_tokens = {title: tuple(tokenize(title)) for title in kb_titles}
    by_tokens: dict[tuple[str, ...], tuple[str, str]] = {}
    for title, doc_id in kb_titles.items():
        key = title_tokens[title]
        if key and key not in by_tokens:
            by_tokens[key] = (title, doc_id)
    return TitleTable(dict(kb_titles), title_tokens, by_tokens,
                      max((len(key) for key in by_tokens), default=0))


def _kb_title_table(kb: Mapping[str, RawDocument]) -> TitleTable:
    return build_title_table({d.title: d.doc_id for d in kb.values()})


class DictionaryLinker:
    """Longest-match, case-insensitive scan of body tokens against KB titles.

    Overlapping matches resolve longest-first then leftmost; mentions of the
    document's own title are excluded; multiple mentions of one entity merge
    into a single record that keeps every span.
    """

    def link(self, doc: RawDocument, table: TitleTable) -> list[LinkedMention]:
        by_tokens, max_len = table.by_tokens, table.max_len
        tokens = tokenize(doc.body)
        own = table.title_tokens.get(doc.title)
        if own is None:
            own = tuple(tokenize(doc.title))

        candidates: list[tuple[int, int, str, str]] = []  # (start, length, title, doc_id)
        for start in range(len(tokens)):
            for length in range(min(max_len, len(tokens) - start), 0, -1):
                window = tuple(tokens[start:start + length])
                hit = by_tokens.get(window)
                if hit is None or window == own:
                    continue
                candidates.append((start, length, hit[0], hit[1]))
        candidates.sort(key=lambda c: (-c[1], c[0]))

        taken = [False] * len(tokens)
        selected: list[tuple[int, int, str, str]] = []
        for start, length, title, doc_id in candidates:
            if any(taken[start:start + length]):
                continue
            for i in range(start, start + length):
                taken[i] = True
            selected.append((start, length, title, doc_id))

        merged: dict[str, LinkedMention] = {}
        order: list[str] = []
        for start, length, title, doc_id in sorted(selected):
            span = tuple(range(start, start + length))
            if doc_id in merged:
                prev = merged[doc_id]
                merged[doc_id] = LinkedMention(prev.entity, prev.span + span, doc_id)
            else:
                merged[doc_id] = LinkedMention(title, span, doc_id)
                order.append(doc_id)
        return [merged[doc_id] for doc_id in order]


class LlmEntityLinker:
    """Adapter for an external model that proposes related entities.

    The callable receives (title, body) and must return records shaped like
    {"entity": str, "entity_type": str, "relation": str | None}.  Proposals
    are grounded back onto the document with the dictionary scan, so every
    accepted mention still satisfies the span invariants; ungrounded or
    unknown entities are dropped.
    """

    def __init__(self, extract: Callable[[str, str], list[dict]]):
        self.extract = extract

    def link(self, doc: RawDocument, table: TitleTable) -> list[LinkedMention]:
        kb_titles = table.titles
        proposed = []
        lowered = {title.lower(): title for title in kb_titles}
        for record in self.extract(doc.title, doc.body):
            entity = str(record.get("entity", "")).strip()
            title = lowered.get(entity.lower())
            if title is not None and title.lower() != doc.title.lower():
                proposed.append(title)
        if not proposed:
            return []
        restricted = {title: kb_titles[title] for title in proposed}
        return DictionaryLinker().link(doc, build_title_table(restricted))


def link_entities(
    doc: RawDocument,
    kb_titles: Mapping[str, str],
    linker: DictionaryLinker | LlmEntityLinker | None = None,
) -> list[LinkedMention]:
    """Related-entity mentions of `doc` against the KB title dictionary."""
    return (linker or DictionaryLinker()).link(doc, build_title_table(kb_titles))


def augment_document(
    doc: RawDocument,
    kb: Mapping[str, RawDocument],
    linker: DictionaryLinker | LlmEntityLinker | None = None,
    cap: int | None = None,
    *,
    table: TitleTable | None = None,
) -> AugmentedDocument:
    """Attach related-entity images to one document.

    Each linked entity contributes the main image of its source document.
    Linked documents without a main image are skipped with a warning record.
    A cap keeps the first `cap` entities in order of first mention.  `table`
    is the KB's title table; it is built from `kb` when not given.
    """
    if doc.doc_id not in kb:
        raise DataError(f"document {doc.doc_id!r} is not part of the provided KB")
    if not doc.main_image_key:
        raise DocumentError(f"document {doc.doc_id!r} has no main image")
    if table is None:
        table = _kb_title_table(kb)
    mentions = (linker or DictionaryLinker()).link(doc, table)
    related: list[RelatedEntity] = []
    warnings: list[str] = []
    for mention in mentions:
        source = kb[mention.source_doc_id]
        if not source.main_image_key:
            message = (
                f"skipping related entity {mention.entity!r} in {doc.doc_id!r}: "
                f"source document {source.doc_id!r} has no main image"
            )
            warnings.append(message)
            logger.warning(message)
            continue
        related.append(
            RelatedEntity(mention.entity, mention.span, source.main_image_key, source.doc_id)
        )
    if cap is not None:
        related = related[:cap]
    return AugmentedDocument(
        raw=doc,
        text_tokens=tuple(tokenize(doc.body)),
        related=tuple(related),
        warnings=tuple(warnings),
    )


def augment_kb(
    kb: Mapping[str, RawDocument],
    linker: DictionaryLinker | LlmEntityLinker | None = None,
    cap: int | None = None,
) -> dict[str, AugmentedDocument]:
    """Augment every document of `kb` against one shared title table."""
    table = _kb_title_table(kb)
    return {doc_id: augment_document(kb[doc_id], kb, linker, cap, table=table)
            for doc_id in sorted(kb)}


# ---------------------------------------------------------------------------
# KB files: one JSON record per line.
# ---------------------------------------------------------------------------


def save_kb(kb: Mapping[str, RawDocument], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id in sorted(kb):
            doc = kb[doc_id]
            fh.write(json.dumps(
                {
                    "doc_id": doc.doc_id,
                    "title": doc.title,
                    "body": doc.body,
                    "main_image_key": doc.main_image_key,
                },
                sort_keys=True,
            ) + "\n")


_RAW_FIELDS = ("doc_id", "title", "body", "main_image_key")


def load_kb(path: str | Path) -> dict[str, RawDocument]:
    kb: dict[str, RawDocument] = {}
    for where, rec in iter_jsonl(path, "KB"):
        doc = RawDocument(*str_fields(rec, _RAW_FIELDS, where, "KB"))
        kb[doc.doc_id] = doc
    if not kb:
        raise InputError(f"{path}: KB file contains no documents")
    return kb


def save_augmented(docs: Mapping[str, AugmentedDocument], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id in sorted(docs):
            adoc = docs[doc_id]
            fh.write(json.dumps(
                {
                    "doc_id": adoc.raw.doc_id,
                    "title": adoc.raw.title,
                    "body": adoc.raw.body,
                    "main_image_key": adoc.raw.main_image_key,
                    "related": [
                        {
                            "entity": r.entity,
                            "span": list(r.span),
                            "image_key": r.image_key,
                            "source_doc_id": r.source_doc_id,
                        }
                        for r in adoc.related
                    ],
                    "warnings": list(adoc.warnings),
                },
                sort_keys=True,
            ) + "\n")


def _list_of(value, kind: type) -> bool:
    return isinstance(value, list) and all(type(v) is kind for v in value)


def _load_related(r, where: str) -> RelatedEntity:
    entity, image_key, source = str_fields(
        r, ("entity", "image_key", "source_doc_id"), where, "augmented")
    if not _list_of(r.get("span"), int):
        raise FormatError(f"{where}: bad augmented record (span is not a list of integers)")
    return RelatedEntity(entity, tuple(r["span"]), image_key, source)


def load_augmented(path: str | Path) -> dict[str, AugmentedDocument]:
    docs: dict[str, AugmentedDocument] = {}
    for where, rec in iter_jsonl(path, "augmented"):
        raw = RawDocument(*str_fields(rec, _RAW_FIELDS, where, "augmented"))
        related, warnings = rec.get("related"), rec.get("warnings", [])
        if not isinstance(related, list) or not _list_of(warnings, str):
            raise FormatError(f"{where}: bad augmented record (bad related or warnings list)")
        docs[raw.doc_id] = AugmentedDocument(
            raw=raw,
            text_tokens=tuple(tokenize(raw.body)),
            related=tuple(_load_related(r, where) for r in related),
            warnings=tuple(warnings),
        )
    if not docs:
        raise InputError(f"{path}: augmented KB file contains no documents")
    return docs
