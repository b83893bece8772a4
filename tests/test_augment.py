import numpy as np
import pytest

import mvli.augment as augment_mod
from _oracles import naive_link
from mvli.augment import (
    DictionaryLinker,
    RawDocument,
    augment_document,
    augment_kb,
    build_title_table,
    entity_from_image_key,
    image_key_for_entity,
    load_augmented,
    load_kb,
    save_augmented,
    save_kb,
)
from mvli.core import (ConfigError, DataError, FormatError, InputError, normalize_token,
                       tokenize)
from mvli.synth import SynthConfig, generate_kb


def _kb(*docs):
    return {d.doc_id: d for d in docs}


def link(doc, titles):
    return DictionaryLinker().link(doc, build_title_table(titles))


class TestLinkEntities:
    def test_exact_dictionary_hit(self):
        doc = RawDocument("a", "Beetle", "it feeds on potato plants", "img::Beetle")
        hits = link(doc, {"Potato": "p", "Beetle": "a"})
        assert len(hits) == 1
        assert hits[0].entity == "Potato"
        assert hits[0].span == (3,)

    def test_self_mention_excluded(self):
        doc = RawDocument("a", "Beetle", "the beetle rests", "img::Beetle")
        assert link(doc, {"Beetle": "a"}) == []

    def test_longest_match_wins(self):
        doc = RawDocument("a", "Thing", "visiting new york today", "img::Thing")
        hits = link(doc, {"New York": "ny", "York": "y", "Thing": "a"})
        assert [h.entity for h in hits] == ["New York"]
        assert hits[0].span == (1, 2)

    def test_duplicate_mentions_merge_spans(self):
        doc = RawDocument("a", "Thing", "koro here and koro there", "img::Thing")
        hits = link(doc, {"Koro": "k", "Thing": "a"})
        assert len(hits) == 1
        assert hits[0].span == (0, 3)

    def test_punctuated_mentions_match(self):
        doc = RawDocument("a", "Thing", "it guards Koro, always.", "img::Thing")
        hits = link(doc, {"Koro": "k"})
        assert hits and hits[0].span == (2,)

    def test_empty_titles_rejected(self):
        doc = RawDocument("a", "Thing", "body", "img::Thing")
        with pytest.raises(InputError):
            link(doc, {})

    def test_spans_redetokenize_to_surface(self):
        doc = RawDocument(
            "a", "Thing", "Solan Ridge borders the Tomat Vale, near Solan Ridge.",
            "img::Thing",
        )
        titles = {"Solan Ridge": "s", "Tomat Vale": "t"}
        tokens = tokenize(doc.body)
        for hit in link(doc, titles):
            runs = []
            current = [hit.span[0]]
            for idx in hit.span[1:]:
                if idx == current[-1] + 1:
                    current.append(idx)
                else:
                    runs.append(current)
                    current = [idx]
            runs.append(current)
            for run in runs:
                surface = " ".join(normalize_token(tokens[i]) for i in run)
                assert surface == hit.entity.lower()


class TestAugmentDocument:
    def _base_kb(self):
        return _kb(
            RawDocument("a", "Alpha Site", "Alpha Site guards Beta Hall. Alpha Site rivals Gama Keep.", "img::Alpha Site"),
            RawDocument("b", "Beta Hall", "Beta Hall shelters Gama Keep.", "img::Beta Hall"),
            RawDocument("g", "Gama Keep", "Gama Keep overlooks Alpha Site.", "img::Gama Keep"),
        )

    def test_images_resolve_to_source_main_image(self):
        kb = self._base_kb()
        adoc = augment_document(kb["a"], kb)
        assert [(r.entity, r.image_key, r.source_doc_id) for r in adoc.related] == [
            ("Beta Hall", "img::Beta Hall", "b"),
            ("Gama Keep", "img::Gama Keep", "g"),
        ]

    def test_no_matches_gives_r_zero(self):
        kb = _kb(
            RawDocument("a", "Alpha", "nothing relevant here", "img::Alpha"),
            RawDocument("b", "Beta", "Beta guards Alpha.", "img::Beta"),
        )
        assert augment_document(kb["a"], kb).related == ()

    def test_cap_keeps_first_mentions(self):
        kb = self._base_kb()
        adoc = augment_document(kb["a"], kb, cap=1)
        assert [r.entity for r in adoc.related] == ["Beta Hall"]

    def test_negative_cap_is_config_error(self):
        kb = self._base_kb()
        with pytest.raises(ConfigError, match="cap"):
            augment_document(kb["a"], kb, cap=-1)
        with pytest.raises(ConfigError, match="cap"):
            augment_kb(kb, cap=-1)

    def test_missing_source_image_skipped_with_warning(self):
        kb = _kb(
            RawDocument("a", "Alpha", "Alpha guards Beta.", "img::Alpha"),
            RawDocument("b", "Beta", "Beta is quiet.", ""),
        )
        adoc = augment_document(kb["a"], kb)
        assert adoc.related == ()
        assert len(adoc.warnings) == 1

    def test_idempotent_and_deterministic(self):
        kb = self._base_kb()
        a1 = augment_document(kb["a"], kb)
        a2 = augment_document(kb["a"], kb)
        assert a1 == a2

    def test_no_dangling_image_references(self):
        kb = self._base_kb()
        augmented = augment_kb(kb)
        main_keys = {d.main_image_key for d in kb.values()}
        for adoc in augmented.values():
            for rel in adoc.related:
                assert rel.image_key in main_keys
                assert rel.source_doc_id in kb


_WORDS = ("koro", "vale", "tomat", "solan", "ridge", "new", "york", "lema")
# duplicate titles, two titles with one token key, overlapping multi-token titles
_FIXED_TITLES = ("Koro.", "koro", "New York", "York Vale", "New York", "Vale")


def _random_kb(seed: int) -> dict[str, RawDocument]:
    gen = np.random.default_rng(seed)
    titles = list(_FIXED_TITLES)
    for _ in range(int(gen.integers(2, 8))):
        words = gen.choice(len(_WORDS), size=int(gen.integers(1, 4)))
        titles.append(" ".join(_WORDS[w] for w in words).title())
    order = gen.permutation(len(titles))
    titles = [titles[i] for i in order]
    docs = []
    for i, title in enumerate(titles):
        parts = []
        for _ in range(int(gen.integers(0, 14))):
            r = gen.uniform()
            if r < 0.35:
                part = titles[int(gen.integers(len(titles)))]
            elif r < 0.5:
                part = title  # own-title mention
            else:
                part = _WORDS[int(gen.integers(len(_WORDS)))]
            if gen.uniform() < 0.2:
                part = part.upper()
            if gen.uniform() < 0.3:
                part += ",.!"[int(gen.integers(3))]
            parts.append(part)
        docs.append(RawDocument(f"d{i:02d}", title, " ".join(parts), f"img::{title}"))
    return _kb(*docs)


def _oracle_augment(kb, cap=None):
    kb_titles = {d.title: d.doc_id for d in kb.values()}
    return {doc_id: naive_link(kb[doc_id], kb_titles)[:cap] for doc_id in sorted(kb)}


class TestLinkerOracle:
    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("run", ["dictionary", "capped"])
    def test_augment_kb_matches_naive_linker(self, seed, run):
        kb = _random_kb(seed)
        cap = 2 if run == "capped" else None
        augmented = augment_kb(kb, cap=cap)
        expected = _oracle_augment(kb, cap)
        assert list(augmented) == sorted(kb)
        for doc_id, adoc in augmented.items():
            assert adoc.raw == kb[doc_id]
            assert adoc.text_tokens == tuple(tokenize(kb[doc_id].body))
            assert [(r.entity, r.span, r.source_doc_id) for r in adoc.related] \
                == expected[doc_id]
            assert all(r.image_key == kb[r.source_doc_id].main_image_key
                       for r in adoc.related)

    def test_random_kbs_exercise_every_case(self):
        """The oracle runs above see own-title mentions, the shared key of
        "Koro." and "koro", and overlapping titles resolved longest-first."""
        own = shared_key = overlap = 0
        for seed in range(40):
            kb = _random_kb(seed)
            for doc in kb.values():
                tokens = tokenize(doc.body)
                own += " ".join(tokens).count(" ".join(tokenize(doc.title))) > 0
                links = naive_link(doc, {d.title: d.doc_id for d in kb.values()})
                shared_key += any(e in ("Koro.", "koro") for e, _, _ in links)
                overlap += "new york vale" in " ".join(tokens)
        assert own and shared_key and overlap

    def test_each_title_tokenized_once(self, monkeypatch):
        kb = generate_kb(SynthConfig(n_docs=300, entities_per_doc=3.0, seed=4))
        titles = {d.title for d in kb.values()}
        calls = []
        real = augment_mod.tokenize

        def counting(text):
            calls.append(text in titles)
            return real(text)

        monkeypatch.setattr(augment_mod, "tokenize", counting)
        augment_kb(kb)
        assert sum(calls) <= len(kb) + 2


class TestImageKeys:
    def test_round_trip(self):
        key = image_key_for_entity("Solan Ridge")
        assert entity_from_image_key(key) == "Solan Ridge"

    def test_non_symbolic_key_rejected(self):
        with pytest.raises(DataError):
            entity_from_image_key("not-an-image-key")


class TestKbFiles:
    def test_kb_round_trip(self, tmp_path, small_kb):
        path = tmp_path / "kb.jsonl"
        save_kb(small_kb, path)
        assert load_kb(path) == small_kb

    def test_augmented_round_trip(self, tmp_path, small_kb_aug):
        path = tmp_path / "aug.jsonl"
        save_augmented(small_kb_aug, path)
        loaded = load_augmented(path)
        assert set(loaded) == set(small_kb_aug)
        for doc_id in small_kb_aug:
            assert loaded[doc_id].related == small_kb_aug[doc_id].related
            assert loaded[doc_id].text_tokens == small_kb_aug[doc_id].text_tokens

    def test_bad_record_rejected(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text('{"doc_id": "a"}\n')
        with pytest.raises(FormatError):
            load_kb(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text("")
        with pytest.raises(InputError):
            load_kb(path)
