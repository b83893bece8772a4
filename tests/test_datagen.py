from dataclasses import replace

import pytest

import mvli.datagen as datagen_mod
from _oracles import naive_enumerate_target_subgraphs
from mvli.augment import RawDocument, augment_kb
from mvli.bm25 import Bm25Index
from mvli.core import ConfigError, GenerationError, Rng
from mvli.datagen import (
    DEFAULT_SYNONYMS,
    REJECT_STRIP,
    Neighbor,
    OneHopGraph,
    QaSample,
    RuleParaphraser,
    TargetSubgraph,
    bm25_leak_filter,
    build_onehop_graph,
    enforce_unique_gt,
    enumerate_target_subgraphs,
    extract_target_subgraph,
    generate_samples,
    load_samples,
    render_question,
    save_samples,
    split_seen_unseen,
    split_sentences,
    validate_sample,
)
from mvli.synth import SynthConfig, assign_typemap, generate_benchmark, generate_kb


def _graph_kb():
    docs = [
        RawDocument("a", "Alpha Site",
                    "Alpha Site guards Beta Hall. Alpha Site rivals Gama Keep! Alpha Site crosses Delta Bay?",
                    "img::Alpha Site"),
        RawDocument("b", "Beta Hall", "Beta Hall shelters Delta Bay.", "img::Beta Hall"),
        RawDocument("g", "Gama Keep", "Gama Keep overlooks Alpha Site.", "img::Gama Keep"),
        RawDocument("d", "Delta Bay", "Delta Bay stores salt.", "img::Delta Bay"),
    ]
    return {doc.doc_id: doc for doc in docs}


def _seeded_graphs(seed=1, n=12):
    """Graphs of 0 to 5 neighbors, 70% of them with an image, plus one with a
    single neighbor and one with no neighbor image."""
    graphs = [
        OneHopGraph("one", "M", (Neighbor("E", "s", True, "d"),)),
        OneHopGraph("blind", "M",
                    tuple(Neighbor(f"E{i}", "s", False, f"d{i}") for i in range(3))),
    ]
    rng = Rng(seed)
    for g in range(n):
        gen = rng.split(g).generator()
        neighbors = tuple(Neighbor(f"E{g}.{i}", f"s{i}", bool(gen.random() < 0.7), f"d{i}")
                          for i in range(int(gen.integers(0, 6))))
        graphs.append(OneHopGraph(f"g{g}", f"M{g}", neighbors))
    return graphs


def _pair_count(graph) -> int:
    return len({(q.entity, n.entity) for q in graph.neighbors if q.has_image
                for n in graph.neighbors if n is not q})


class TestOneHopGraph:
    def test_single_sentence_extraction(self):
        kb = {
            "x": RawDocument("x", "X Top", "X Top feeds upon Y Low.", "img::X Top"),
            "y": RawDocument("y", "Y Low", "Y Low rests.", "img::Y Low"),
        }
        graph = build_onehop_graph(augment_kb(kb)["x"])
        assert len(graph.neighbors) == 1
        assert graph.neighbors[0].entity == "Y Low"
        assert graph.neighbors[0].relation_sentence == "X Top feeds upon Y Low."

    def test_zero_related_gives_empty_graph(self):
        kb = {
            "x": RawDocument("x", "X Top", "nothing to link here.", "img::X Top"),
            "y": RawDocument("y", "Y Low", "Y Low guards X Top.", "img::Y Low"),
        }
        graph = build_onehop_graph(augment_kb(kb)["x"])
        assert graph.neighbors == ()

    def test_first_mention_sentence_used(self):
        kb = {
            "x": RawDocument(
                "x", "X Top", "X Top guards Y Low. X Top also shelters Y Low.",
                "img::X Top"),
            "y": RawDocument("y", "Y Low", "Y Low rests.", "img::Y Low"),
        }
        graph = build_onehop_graph(augment_kb(kb)["x"])
        assert graph.neighbors[0].relation_sentence == "X Top guards Y Low."

    def test_sentences_split_on_all_terminators(self):
        graph = build_onehop_graph(augment_kb(_graph_kb())["a"])
        sentences = {n.entity: n.relation_sentence for n in graph.neighbors}
        assert sentences["Gama Keep"] == "Alpha Site rivals Gama Keep!"
        assert sentences["Delta Bay"] == "Alpha Site crosses Delta Bay?"

    def test_split_sentences_offsets(self):
        body = "One two. Three! Four?"
        assert [s[2] for s in split_sentences(body)] == ["One two.", "Three!", "Four?"]


class TestEnforceUniqueGt:
    def _graphs(self):
        return {d: build_onehop_graph(a) for d, a in augment_kb(_graph_kb()).items()}

    def test_mutual_edges_removed_both_sides(self):
        graphs = self._graphs()
        filtered = enforce_unique_gt(graphs)
        # a lists Gama Keep (doc g) and g lists Alpha Site (doc a): both removed
        assert "Gama Keep" not in [n.entity for n in filtered["a"].neighbors]
        assert "Alpha Site" not in [n.entity for n in filtered["g"].neighbors]

    def test_one_way_edges_kept(self):
        filtered = enforce_unique_gt(self._graphs())
        assert "Beta Hall" in [n.entity for n in filtered["a"].neighbors]
        assert "Delta Bay" in [n.entity for n in filtered["b"].neighbors]

    def test_idempotent(self):
        once = enforce_unique_gt(self._graphs())
        twice = enforce_unique_gt(once)
        assert once == twice


class TestExtractTargetSubgraph:
    def test_forced_assignment_with_two_neighbors(self):
        graphs = enforce_unique_gt(
            {d: build_onehop_graph(a) for d, a in augment_kb(_graph_kb()).items()}
        )
        sg = extract_target_subgraph(graphs["a"], Rng(1))
        assert sg is not None
        assert {sg.query_entity, sg.qualifying_entity} == {"Beta Hall", "Delta Bay"}
        assert sg.answer_entity == "Alpha Site"

    def test_single_neighbor_returns_none(self):
        kb = {
            "x": RawDocument("x", "X Top", "X Top guards Y Low.", "img::X Top"),
            "y": RawDocument("y", "Y Low", "Y Low rests.", "img::Y Low"),
        }
        graph = build_onehop_graph(augment_kb(kb)["x"])
        assert extract_target_subgraph(graph, Rng(1)) is None

    def test_deterministic_under_seed(self):
        kb = _graph_kb()
        graph = build_onehop_graph(augment_kb(kb)["a"])
        picks = {extract_target_subgraph(graph, Rng(9)).query_entity for _ in range(5)}
        assert len(picks) == 1

    def test_enumerate_distinct_pairs(self):
        graph = build_onehop_graph(augment_kb(_graph_kb())["a"])
        subs = enumerate_target_subgraphs(graph, Rng(3), 6)
        pairs = [(s.query_entity, s.qualifying_entity) for s in subs]
        assert len(pairs) == len(set(pairs))
        assert 1 <= len(pairs) <= 6

    def test_enumerate_matches_unbounded_draws(self):
        for graph in _seeded_graphs():
            rng = Rng(7).split(graph.doc_id)
            for limit in range(1, _pair_count(graph) + 4):
                assert (enumerate_target_subgraphs(graph, rng, limit)
                        == naive_enumerate_target_subgraphs(graph, rng, limit)), (graph, limit)

    def test_enumerate_draws_stop_at_pair_count(self, monkeypatch):
        extract = extract_target_subgraph
        calls = []

        def counted(graph, rng):
            calls.append(1)
            assert len(calls) <= 10_000, "enumeration did not stop"
            return extract(graph, rng)

        monkeypatch.setattr(datagen_mod, "extract_target_subgraph", counted)

        def draws(graph, rng, limit):
            calls.clear()
            return len(enumerate_target_subgraphs(graph, rng, limit)), len(calls)

        for graph in _seeded_graphs():
            rng, n_pairs = Rng(7).split(graph.doc_id), _pair_count(graph)
            # the first draws that cover every pair, counted outside the engine
            seen, cover = set(), 0
            while len(seen) < n_pairs:
                sg = extract(graph, rng.split(cover))
                seen.add((sg.query_entity, sg.qualifying_entity))
                cover += 1
            assert draws(graph, rng, 10**9) == (n_pairs, cover)
            found, spent = draws(graph, rng, n_pairs)
            if found == n_pairs:
                assert spent == cover
            else:  # max(4 * limit, 8) draws ran out before every pair was found
                assert spent == max(4 * n_pairs, 8) < cover


class TestQuestionTemplate:
    BEETLE = TargetSubgraph(
        answer_entity="Lema daturaphila",
        query_entity="Potato",
        qualifying_entity="North America",
        relation_q="Lema daturaphila feeds on potato plants",
        relation_k="Lema daturaphila is native to North America",
        query_source_doc_id="p",
        gt_doc_id="l",
    )
    TYPES = {"Lema daturaphila": "beetle", "Potato": "plant", "North America": "region"}

    def test_hand_derived_template_output(self):
        question, answer = render_question(self.BEETLE, self.TYPES)
        assert question == (
            "Which beetle feeds on this plant, given that it is native to North America?"
        )
        assert answer == "Lema daturaphila"

    def test_missing_query_surface_is_generation_error(self):
        sg = TargetSubgraph(
            answer_entity="A B", query_entity="Zz Zz", qualifying_entity="C D",
            relation_q="A B guards E F", relation_k="A B rivals C D",
            query_source_doc_id="z", gt_doc_id="a",
        )
        with pytest.raises(GenerationError):
            render_question(sg, {"A B": "x", "Zz Zz": "y", "C D": "z"})

    def test_missing_type_noun_is_generation_error(self):
        with pytest.raises(GenerationError):
            render_question(self.BEETLE, {"Potato": "plant"})

    def test_validator_rejects_answer_leak(self):
        reason = validate_sample(
            "Which beetle ate Lema daturaphila this plant?", "Lema daturaphila",
            "Potato", {"beetle", "plant"},
        )
        assert reason == "surface_violation"

    def test_validator_rejects_query_surface(self):
        reason = validate_sample(
            "Which beetle feeds on potato this plant?", "Lema daturaphila",
            "Potato", {"beetle", "plant"},
        )
        assert reason == "surface_violation"

    def test_validator_requires_exactly_one_demonstrative(self):
        ok = validate_sample("Which beetle feeds on this plant?", "X", "Y",
                             {"beetle", "plant"})
        assert ok is None
        zero = validate_sample("Which beetle feeds on plants?", "X", "Y",
                               {"beetle", "plant"})
        two = validate_sample("Which beetle eats this plant near this plant?", "X", "Y",
                              {"beetle", "plant"})
        assert zero == "surface_violation" and two == "surface_violation"


class TestParaphrase:
    Q = "Which beetle feeds on this plant, given that it is native to North America?"

    def test_identity_table_unchanged(self):
        assert RuleParaphraser({}, reorder=False)(self.Q) == self.Q

    def test_clause_reorder(self):
        out = RuleParaphraser({}, reorder=True)(self.Q)
        assert out == (
            "Given that it is native to North America, which beetle feeds on this plant?"
        )

    def test_reorder_is_involution(self):
        pp = RuleParaphraser({}, reorder=True)
        assert pp(pp(self.Q)) == self.Q

    def test_double_application_restores_clause_order(self):
        pp = RuleParaphraser(reorder=True)
        synonyms_only = RuleParaphraser(reorder=False)
        assert pp(pp(self.Q)) == synonyms_only(self.Q)

    def test_synonym_substitution_whole_words(self):
        pp = RuleParaphraser({"feeds": "dines"}, reorder=False)
        assert pp("feeds feedstock") == "dines feedstock"

    def test_default_table_is_50_words_and_acyclic(self):
        assert len(DEFAULT_SYNONYMS) == 50
        assert not (set(DEFAULT_SYNONYMS) & set(DEFAULT_SYNONYMS.values()))

    def test_no_reorder_without_clause(self):
        q = "Name the plant that this creature dines on."
        assert RuleParaphraser({}, reorder=True)(q) == q


class TestLeakFilter:
    def test_verbatim_quote_rejected(self):
        kb = _graph_kb()
        index = Bm25Index({d: kb[d].body for d in kb})
        leaky = QaSample("s0", "alpha site guards beta hall", "img::Beta Hall", "Alpha Site", "a")
        clean = QaSample("s1", "qq ww ee rr", "img::Beta Hall", "Alpha Site", "a")
        kept, rejected = bm25_leak_filter([leaky, clean], index, k=2)
        assert [s.sample_id for s in kept] == ["s1"]
        assert rejected[0].reason == "leak"

    def test_stopword_question_kept(self):
        kb = _graph_kb()
        index = Bm25Index({d: kb[d].body for d in kb})
        sample = QaSample("s0", "zz yy xx", "img::Beta Hall", "Alpha Site", "a")
        kept, rejected = bm25_leak_filter([sample], index)
        assert kept and not rejected

    def test_post_filter_leak_rate_zero(self):
        kb = _graph_kb()
        index = Bm25Index({d: kb[d].body for d in kb})
        samples = [
            QaSample(f"s{i}", q, "img::Beta Hall", "Alpha Site", "a")
            for i, q in enumerate(
                ["alpha site guards beta hall", "beta hall stores salt", "zz yy"]
            )
        ]
        kept, _ = bm25_leak_filter(samples, index, k=5)
        for s in kept:
            top = index.top_k(s.question, 5)
            assert all(doc_id != s.gt_doc_id for doc_id, _ in top)


class TestSplit:
    def test_seen_unseen_tagging(self):
        samples = [
            QaSample("s0", "q", "img::X", "a", "d1"),
            QaSample("s1", "q", "img::X", "a", "d2"),
        ]
        tagged = split_seen_unseen(samples, {"d1"})
        assert [s.split for s in tagged] == ["seen", "unseen"]

    def test_empty_train_set_all_unseen(self):
        samples = [QaSample("s0", "q", "img::X", "a", "d1")]
        assert split_seen_unseen(samples, set())[0].split == "unseen"


class TestPipeline:
    def _world(self, *extra: RawDocument):
        kb = {doc.doc_id: doc for doc in extra}
        names = ["Alpha Site", "Beta Hall", "Gama Keep", "Delta Bay", "Epsil Fort",
                 "Zeta Grove"]
        bodies = {
            "Alpha Site": "Alpha Site guards Beta Hall. Alpha Site crosses Delta Bay. Alpha Site mirrors Epsil Fort.",
            "Beta Hall": "Beta Hall shelters Delta Bay. Beta Hall follows Zeta Grove.",
            "Gama Keep": "Gama Keep overlooks Delta Bay. Gama Keep rivals Zeta Grove.",
            "Delta Bay": "Delta Bay venerates Zeta Grove. Delta Bay echoes Epsil Fort.",
            "Epsil Fort": "Epsil Fort borders Zeta Grove. Epsil Fort stores Beta Hall.",
            "Zeta Grove": "Zeta Grove harvests Gama Keep. Zeta Grove supplies Alpha Site.",
        }
        for i, name in enumerate(names):
            kb[f"d{i}"] = RawDocument(f"d{i}", name, bodies[name], f"img::{name}")
        typemap = {name: noun for name, noun in zip(names, [
            "castle", "tower", "temple", "harbor", "bridge", "forest"])}
        return augment_kb(kb), typemap

    @staticmethod
    def _synth_world(cfg):
        kb = generate_kb(cfg)
        return kb, augment_kb(kb), assign_typemap([d.title for d in kb.values()], cfg)

    def _synth_samples(self):
        """Samples of a synth KB large enough that drafts survive the top-5
        leak filter."""
        _, kb_aug, typemap = self._synth_world(SynthConfig(n_docs=16, seed=5))
        return kb_aug, typemap, generate_samples(kb_aug, typemap, seed=5, samples_per_doc=3)

    def test_samples_pass_all_invariants(self):
        kb_aug, typemap, (samples, rejected) = self._synth_samples()
        assert samples, "pipeline produced no samples"
        nouns = set(typemap.values())
        for s in samples:
            gt = kb_aug[s.gt_doc_id]
            query_entity = None
            for rel in gt.related:
                if rel.image_key == s.query_image_key:
                    query_entity = rel.entity
            assert query_entity is not None
            assert validate_sample(s.question, s.answer, query_entity, nouns) is None
            assert s.query_image_key != gt.raw.main_image_key

    def test_pipeline_deterministic(self, tmp_path):
        kb_aug, typemap, (a, ra) = self._synth_samples()
        b, rb = generate_samples(kb_aug, typemap, seed=5, samples_per_doc=3)
        assert a == b and ra == rb
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_samples(a, pa)
        save_samples(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_sample_file_round_trip(self, tmp_path):
        _, _, (samples, _) = self._synth_samples()
        tagged = split_seen_unseen(samples, {samples[0].gt_doc_id})
        path = tmp_path / "samples.jsonl"
        save_samples(tagged, path)
        assert load_samples(path) == tagged

    def test_samples_per_doc_below_one_is_config_error(self):
        kb_aug, typemap = self._world()
        with pytest.raises(ConfigError, match="samples_per_doc"):
            generate_samples(kb_aug, typemap, seed=5, samples_per_doc=0)

    @pytest.mark.parametrize("run, expected_ids", [
        ("datagen", ["x:f0", "x:f1"]),
        ("free", ["x:f0", "x:f1"]),
        ("shortcut", ["x:s0", "x:s1", "x:s2"]),
    ])
    def test_untyped_entity_gives_strip_failures(self, run, expected_ids):
        # "Theta Well" has no type noun and no document mentions it, so every
        # draft of its document fails to render and no other draft does
        theta = RawDocument("x", "Theta Well", "Theta Well guards Beta Hall. "
                            "Theta Well rivals Gama Keep.", "img::Theta Well")
        kb_aug, typemap = self._world(theta)
        if run == "datagen":
            _, rejected = generate_samples(kb_aug, typemap, seed=5, samples_per_doc=3)
        else:
            cfg = SynthConfig(n_docs=len(kb_aug), samples_per_doc=3, seed=5,
                              fraction_shortcut=1.0 if run == "shortcut" else 0.0)
            kb = {doc_id: adoc.raw for doc_id, adoc in kb_aug.items()}
            rejected = generate_benchmark(kb, cfg, typemap, augmented=kb_aug).rejected
        strips = [r for r in rejected if r.reason == REJECT_STRIP]
        assert [r.sample_id for r in strips] == expected_ids
        assert all(r.gt_doc_id == "x" and r.question == "" for r in strips)

    @pytest.mark.parametrize("seed", [1, 5])
    def test_datagen_draws_the_synth_shortcut_free_pool(self, seed):
        cfg = SynthConfig(n_docs=80, samples_per_doc=6, seed=seed)
        kb, kb_aug, typemap = self._synth_world(cfg)
        samples, rejected = generate_samples(kb_aug, typemap, seed, 6)
        splits = generate_benchmark(kb, cfg, typemap, augmented=kb_aug)
        assert rejected == list(splits.rejected)
        split_samples = splits.train + splits.test_seen + splits.test_unseen
        assert split_samples and {replace(s, split="") for s in split_samples} <= set(samples)
