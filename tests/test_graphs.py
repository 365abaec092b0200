"""Subgraph construction: content nodes, retrieval attachment, PMI edges,
adjacency normalization, and the graphs file."""

import collections
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import weakref

import numpy as np
import pytest

from graphkd import embeddings, graphs
from graphkd.datagen import ManifestRecord, SynthConfig, generate_synthetic, ingest_manifest
from graphkd.embeddings import (EmbeddingStore, Triplet, TripletStore, cosine_sim,
                                read_store, read_triplets_tsv, tokenize, toy_embed,
                                write_store)
from graphkd.errors import ConfigError, DataError, FormatError, NumericError
from graphkd.graphs import (CONTENT_KINDS, GRAPHS_FORMAT, GRAPHS_VERSION, CooccurrenceStats,
                            RetrievalHit, attach_commonsense,
                            build_content_nodes, build_dataset_graphs, build_edges,
                            companion_path, normalize_adjacency, pmi_weight, read_graphs,
                            write_graphs)
from graphkd.serialization import read_checkpoint
from record_mutations import RECORD_MUTATIONS
from reference import build_graphs_reference, make_subgraph


def _record(**overrides):
    base = dict(sample_id="s0", question="what is shown", language_context="a scene",
                label="c0", group="g0", split="train", visual_text="an image")
    base.update(overrides)
    return ManifestRecord(**base)


class TestContentNodes:
    def test_four_nodes_in_fixed_order(self):
        rec = _record()
        rows = build_content_nodes(rec, 16, 7)
        assert rows.shape == (4, 16)
        for row, text in zip(rows, (rec.question, rec.language_context, rec.visual_text)):
            np.testing.assert_array_equal(row, toy_embed(text, 16, 7))

    def test_vl_equals_shared_vector(self):
        # Equal visual and language vectors: their renormalized mean is the
        # shared (unit) vector itself.
        rec = _record(language_context="shared ctx", visual_text="shared ctx")
        rows = build_content_nodes(rec, 16, 7)
        np.testing.assert_allclose(rows[3], rows[1], atol=1e-12)

    def test_empty_visual_text_gets_sentinel(self):
        rows = build_content_nodes(_record(visual_text=""), 8, 7)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_array_equal(rows[2], expected)

    def test_visual_ref_resolved_from_store(self):
        store = EmbeddingStore(8)
        vec = np.arange(8.0) / np.linalg.norm(np.arange(8.0))
        store.add("v7", vec)
        rec = _record(visual_text=None, visual_ref="v7")
        rows = build_content_nodes(rec, 8, 7, embedding_store=store)
        np.testing.assert_array_equal(rows[2], store.vector("v7"))

    def test_missing_ref_names_id(self):
        rec = _record(visual_text=None, visual_ref="v404")
        with pytest.raises(DataError, match="v404"):
            build_content_nodes(rec, 8, 7, embedding_store=EmbeddingStore(8))

    def test_ref_without_store(self):
        rec = _record(visual_text=None, visual_ref="v0")
        with pytest.raises(DataError):
            build_content_nodes(rec, 8, 7)

    def test_deterministic(self):
        a = build_content_nodes(_record(), 16, 7)
        b = build_content_nodes(_record(), 16, 7)
        assert (a == b).all()


def _basis_store(dim=16):
    """Triplets t0-t2 near e1, t3-t5 near e2, t6-t8 near e3, t9-t11 near e4."""
    store = EmbeddingStore(dim)
    triplets = []
    for axis in range(4):
        for j in range(3):
            vec = np.zeros(dim)
            vec[axis] = 1.0
            vec[8 + len(triplets) % 8] = 0.05 * (j + 1)
            idx = len(triplets)
            triplets.append(Triplet(f"h{idx}", "r", f"t{idx}"))
            store.add(f"t{idx}", vec / np.linalg.norm(vec))
    return TripletStore(triplets, store)


def _content(dim=16):
    """Content rows along the first four axes."""
    return np.eye(dim)[:4]


class TestAttachCommonsense:
    def test_disjoint_retrievals_give_twelve_nodes(self):
        ids, log = attach_commonsense(_content(), _basis_store(), k=3)
        assert len(ids) == 12
        assert len(log) == 12
        assert ids == [f"t{i}" for i in range(12)]

    def test_identical_retrievals_merge(self):
        store = _basis_store()
        same = np.tile(_content()[0], (4, 1))
        ids, log = attach_commonsense(same, store, k=3)
        assert len(ids) == 3
        assert len(log) == 12

    def test_store_smaller_than_k(self):
        store = EmbeddingStore(4)
        store.add("t0", np.array([1.0, 0, 0, 0]))
        store.add("t1", np.array([0.0, 1, 0, 0]))
        tiny = TripletStore([Triplet("a", "r", "b"), Triplet("c", "r", "d")], store)
        ids, _ = attach_commonsense(_content(4), tiny, k=3)
        assert len(ids) == 2

    def test_nodes_ordered_by_numeric_index(self):
        store = EmbeddingStore(4)
        triplets = []
        for i in range(12):
            vec = np.zeros(4)
            vec[i % 4] = 1.0
            triplets.append(Triplet(f"h{i}", "r", f"x{i}"))
            store.add(f"t{i}", vec)
        ts = TripletStore(triplets, store)
        ids, _ = attach_commonsense(_content(4), ts, k=3)
        indices = [int(tid[1:]) for tid in ids]
        assert indices == sorted(indices)


class TestPmi:
    def _stats(self, counts, pairs, m):
        stats = CooccurrenceStats(num_samples=m, counts=dict(counts),
                                  pair_counts=dict(pairs))
        return stats

    def test_perfect_cooccurrence(self):
        stats = self._stats({"t0": 10, "t1": 10}, {("t0", "t1"): 10}, 100)
        # PMI = ln 10, normalizer -ln(10/100) = ln 10, so NPMI = 1.
        assert pmi_weight(stats, "t0", "t1") == pytest.approx(1.0, abs=1e-12)

    def test_independence_gives_no_edge(self):
        stats = self._stats({"t0": 10, "t1": 10}, {("t0", "t1"): 1}, 100)
        assert pmi_weight(stats, "t0", "t1") is None

    def test_never_cooccurs_gives_no_edge(self):
        stats = self._stats({"t0": 5, "t1": 5}, {}, 100)
        assert pmi_weight(stats, "t0", "t1") is None

    def test_hand_value(self):
        stats = self._stats({"t0": 2, "t1": 5}, {("t0", "t1"): 2}, 10)
        expected = math.log(2.0) / -math.log(0.2)
        assert pmi_weight(stats, "t0", "t1") == pytest.approx(expected, abs=1e-12)

    def test_symmetric(self):
        stats = self._stats({"t0": 3, "t1": 5}, {("t0", "t1"): 2}, 20)
        assert pmi_weight(stats, "t0", "t1") == pmi_weight(stats, "t1", "t0")

    def test_unknown_id(self):
        stats = self._stats({"t0": 3}, {}, 20)
        with pytest.raises(DataError, match="t9"):
            pmi_weight(stats, "t0", "t9")

    def test_range_on_random_stats(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            m = int(rng.integers(2, 50))
            c1 = int(rng.integers(1, m + 1))
            c2 = int(rng.integers(1, m + 1))
            c12 = int(rng.integers(0, min(c1, c2) + 1))
            stats = self._stats({"t0": c1, "t1": c2},
                                {("t0", "t1"): c12} if c12 else {}, m)
            w = pmi_weight(stats, "t0", "t1")
            if w is not None:
                assert 0.0 < w <= 1.0

    def test_observe_keeps_count_invariants(self):
        rng = np.random.default_rng(12)
        stats = CooccurrenceStats()
        ids = [f"t{i}" for i in range(8)]
        for _ in range(60):
            chosen = {ids[i] for i in rng.choice(8, size=rng.integers(1, 6),
                                                 replace=False)}
            stats.observe(chosen)
        for (a, b), c12 in stats.pair_counts.items():
            assert c12 <= min(stats.counts[a], stats.counts[b]) <= stats.num_samples


class TestBuildEdges:
    def _fixture(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        lc = np.array([0.6, 0.8, 0.0, 0.0])
        vc = np.array([0.0, 0.0, 1.0, 0.0])
        vl = np.array([0.3, 0.4, 0.5, 0.0]) / math.sqrt(0.5)
        content = np.array([q, lc, vc, vl])
        log = [RetrievalHit("question", "t0", 0.8),
               RetrievalHit("language_context", "t0", 0.92),
               RetrievalHit("visual_context", "t1", -0.3),
               RetrievalHit("vl", "t1", 0.55)]
        stats = CooccurrenceStats(num_samples=10, counts={"t0": 2, "t1": 5},
                                  pair_counts={("t0", "t1"): 2})
        return content, ["t0", "t1"], log, stats

    def test_hand_built_oracle_matrix(self):
        content, ids, log, stats = self._fixture()
        got = build_edges(content, ids, log, stats, mode="hybrid", tau=0.0)
        s = 0.3 / math.sqrt(0.5)          # cos(question, vl)
        r = 0.5 / math.sqrt(0.5)          # cos(language, vl) = cos(visual, vl)
        npmi = math.log(2.0) / -math.log(0.2)
        want = np.array([
            [0.0, 0.6, 0.0, s,   0.8,  0.0],
            [0.6, 0.0, 0.0, r,   0.92, 0.0],
            [0.0, 0.0, 0.0, r,   0.0,  0.0],
            [s,   r,   r,   0.0, 0.0,  0.55],
            [0.8, 0.92, 0.0, 0.0, 0.0, npmi],
            [0.0, 0.0, 0.0, 0.55, npmi, 0.0],
        ])
        np.testing.assert_allclose(got, want, atol=1e-9)
        assert (got == got.T).all()
        assert not np.diagonal(got).any()

    def test_symmetric_entry_both_directions(self):
        content, ids, log, stats = self._fixture()
        adj = build_edges(content, ids, log, stats)
        assert adj[0, 1] == adj[1, 0] == pytest.approx(0.6, abs=1e-12)

    def test_negative_cosine_never_edges(self):
        content, ids, log, stats = self._fixture()
        for tau in (0.0, -0.5):
            adj = build_edges(content, ids, log, stats, tau=tau)
            assert adj[0, 2] == 0.0   # orthogonal pair stays disconnected
            assert (adj >= 0.0).all()

    def test_tau_thresholds_content_edges(self):
        content, ids, log, stats = self._fixture()
        adj = build_edges(content, ids, log, stats, tau=0.65)
        assert adj[0, 1] == 0.0       # cos 0.6 dropped
        assert adj[1, 3] > 0.0        # cos 0.707 kept

    def test_cosine_mode_drops_pmi_edges(self):
        content, ids, log, stats = self._fixture()
        adj = build_edges(content, ids, log, stats, mode="cosine")
        assert adj[4, 5] == 0.0
        hybrid_adj = build_edges(content, ids, log, stats, mode="hybrid")
        assert hybrid_adj[4, 5] > 0.0

    def test_retrieval_similarity_clamped(self):
        content, ids, log, stats = self._fixture()
        adj = build_edges(content, ids, log, stats)
        assert adj[2, 5] == 0.0       # similarity -0.3 clamps to no edge

    def test_bad_tau(self):
        content, ids, log, stats = self._fixture()
        with pytest.raises(ConfigError):
            build_edges(content, ids, log, stats, tau=1.0)

    def test_bad_mode(self):
        content, ids, log, stats = self._fixture()
        for mode in ("fancy", "pmi"):
            with pytest.raises(ConfigError):
                build_edges(content, ids, log, stats, mode=mode)

    def test_unseen_triplet_pairs_skip_pmi(self):
        content, ids, log, stats = self._fixture()
        stats.counts.pop("t1")
        adj = build_edges(content, ids, log, stats, mode="hybrid")
        assert adj[4, 5] == 0.0


class TestNormalizeAdjacency:
    def test_worked_pair(self):
        out = normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_single_node(self):
        np.testing.assert_allclose(normalize_adjacency(np.zeros((1, 1))), [[1.0]])

    def test_worked_half_weight(self):
        out = normalize_adjacency(np.array([[0.0, 0.5], [0.5, 0.0]]))
        want = [[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]]
        np.testing.assert_allclose(out, want, atol=1e-4)

    def test_exhaustive_small_matrices_match_scalar_oracle(self):
        # Independent oracle: explicit per-entry loops over the definition.
        def oracle(a):
            n = a.shape[0]
            tilde = [[a[i][j] + (1.0 if i == j else 0.0) for j in range(n)]
                     for i in range(n)]
            deg = [sum(row) for row in tilde]
            return np.array([[tilde[i][j] / math.sqrt(deg[i] * deg[j])
                              for j in range(n)] for i in range(n)])

        from itertools import combinations, product
        values = (0.0, 0.5, 1.0)
        for n in range(1, 5):
            pairs = list(combinations(range(n), 2))
            for assignment in product(values, repeat=len(pairs)):
                a = np.zeros((n, n))
                for (i, j), w in zip(pairs, assignment):
                    a[i, j] = a[j, i] = w
                got = normalize_adjacency(a)
                np.testing.assert_allclose(got, oracle(a), atol=1e-12)
                np.testing.assert_allclose(got, got.T, atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(NumericError):
            normalize_adjacency(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(NumericError):
            normalize_adjacency(np.array([[0.0, -0.1], [-0.1, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(NumericError):
            normalize_adjacency(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestGraphsFile:
    def _subgraphs(self):
        rng = np.random.default_rng(3)
        out = []
        for i in range(3):
            features = rng.normal(0, 1, (5, 6))
            adj = np.abs(rng.normal(0, 0.3, (5, 5)))
            adj = np.triu(adj, 1)
            adj = adj + adj.T
            out.append(make_subgraph([*CONTENT_KINDS, f"t{i}"], features, adj, label=i % 2,
                                     sample_id=f"s{i}", group=f"g{i}"))
        return out

    def test_round_trip_bitwise(self, tmp_path):
        subgraphs = self._subgraphs()
        path = tmp_path / "x.graphs"
        write_graphs(path, subgraphs, ["a", "b"], {"k": 3})
        loaded, header = read_graphs(path)
        assert header["label_vocab"] == ["a", "b"]
        assert header["config"] == {"k": 3}
        for got, want in zip(loaded, subgraphs):
            assert got.sample_id == want.sample_id
            assert got.label == want.label
            assert got.group == want.group
            assert (got.adjacency == want.adjacency).all()
            assert got.kinds == want.kinds and got.ids == want.ids
            assert (got.features() == want.features()).all()

    def test_write_twice_identical(self, tmp_path):
        subgraphs = self._subgraphs()
        p1, p2 = tmp_path / "a.graphs", tmp_path / "b.graphs"
        write_graphs(p1, subgraphs, ["a", "b"], {"k": 3})
        write_graphs(p2, subgraphs, ["a", "b"], {"k": 3})
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "bad.graphs"
        write_graphs(path, self._subgraphs(), ["a", "b"], {})
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 3"):
            read_graphs(path)

    def test_not_a_graphs_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(FormatError):
            read_graphs(path)

    def test_features_helpers(self):
        sg = self._subgraphs()[0]
        assert sg.features().shape == (5, 6)
        assert sg.content_features().shape == (4, 6)
        np.testing.assert_array_equal(sg.features()[:4], sg.content_features())


def assert_same_graphs(got, want):
    """Field for field, with bitwise-equal arrays of the same shape."""
    got_graphs, got_header = got
    want_graphs, want_header = want
    assert got_header == want_header
    assert len(got_graphs) == len(want_graphs)
    for g, w in zip(got_graphs, want_graphs):
        assert (g.sample_id, g.split, g.group, g.label) == (w.sample_id, w.split,
                                                            w.group, w.label)
        assert type(g.label) is int
        assert g.adjacency.shape == w.adjacency.shape
        assert g.adjacency.tobytes() == w.adjacency.tobytes()
        assert (g.kinds, list(g.ids)) == (w.kinds, list(w.ids))
        assert g.features().dtype == np.float64
        assert g.features().shape == w.features().shape
        assert g.features().tobytes() == w.features().tobytes()


class TestGraphsCompanion:
    def _subgraphs(self):
        """Samples that share commonsense nodes, with bit patterns that
        decimal JSON must carry exactly (-0.0, a subnormal, 1/3)."""
        rng = np.random.default_rng(11)
        triplets = {f"t{i}": rng.normal(0, 1, 6) for i in range(5)}
        triplets["t4"][:3] = (-0.0, 5e-324, 1.0 / 3.0)
        out = []
        for i in range(6):
            content = rng.normal(0, 1, (4, 6))
            ids = sorted(triplets)[i % 3: i % 3 + 2 + i % 2]
            rows = [triplets[tid] for tid in ids]
            if i == 5:
                # Same id as other samples' t0, other vector: kept apart.
                ids.append("t0")
                rows.append(-triplets["t0"])
            n = 4 + len(ids)
            adj = np.triu(np.abs(rng.normal(0, 0.3, (n, n))), 1)
            out.append(make_subgraph([*CONTENT_KINDS, *ids], [*content, *rows], adj + adj.T,
                                     label=i % 3, sample_id=f"s{i}",
                                     split=("train", "val", "test")[i % 3], group=f"g{i % 2}"))
        return out

    def _write(self, tmp_path, subgraphs=None):
        path = tmp_path / "x.graphs"
        write_graphs(path, subgraphs or self._subgraphs(), ["a", "b", "c"],
                     {"k": 3, "tau": 0.0})
        return path

    def test_companion_read_equals_json_read(self, tmp_path):
        path = self._write(tmp_path)
        assert companion_path(path).is_file()
        from_companion = read_graphs(path)
        companion_path(path).unlink()
        from_json = read_graphs(path)
        assert_same_graphs(from_companion, from_json)
        # Both readers lay the table out alike: content rows, then each
        # distinct commonsense row.
        assert from_companion[0][0].table.tobytes() == from_json[0][0].table.tobytes()

    def test_companion_read_equals_what_was_written(self, tmp_path):
        subgraphs = self._subgraphs()
        path = self._write(tmp_path, subgraphs)
        loaded, header = read_graphs(path)
        assert header["config"] == {"k": 3, "tau": 0.0}
        assert_same_graphs((loaded, header), (subgraphs, header))

    def test_triplet_rows_are_shared_and_read_only(self, tmp_path):
        loaded, _ = read_graphs(self._write(tmp_path))
        assert not loaded[0].table.flags.writeable
        rows = {}
        for sg in loaded:
            for node_id, row in zip(sg.ids[4:], sg.rows[4:]):
                rows.setdefault(node_id, []).append(int(row))
        shared = rows["t2"]
        assert len(shared) > 1 and len(set(shared)) == 1
        # t0 with its other vector is a row of its own.
        assert len(set(rows["t0"])) == 2

    def test_edited_json_ignores_stale_companion(self, tmp_path):
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"label":0', '"label":2')
        path.write_text("\n".join(lines) + "\n")
        loaded, _ = read_graphs(path)
        assert loaded[0].label == 2

    @pytest.mark.parametrize("damage", ["truncate", "garble"])
    def test_unreadable_companion_is_a_format_error(self, tmp_path, damage):
        path = self._write(tmp_path)
        companion = companion_path(path)
        blob = companion.read_bytes()
        if damage == "truncate":
            companion.write_bytes(blob[:40])
        else:
            companion.write_bytes(blob[:16] + b"\xff" * (len(blob) - 16))
        with pytest.raises(FormatError, match="companion") as info:
            read_graphs(path)
        assert "\n" not in str(info.value)

    def test_companion_with_bad_triplet_row_is_a_format_error(self, tmp_path):
        from graphkd.serialization import read_checkpoint, write_checkpoint
        path = self._write(tmp_path)
        meta, tensors = read_checkpoint(companion_path(path))
        meta.pop("tensors")
        meta["samples"][0]["triplet_rows"][0] = -1
        write_checkpoint(companion_path(path), meta, list(tensors.items()))
        with pytest.raises(FormatError, match="triplet row"):
            read_graphs(path)

    def test_graphs_without_companion_still_read(self, tmp_path):
        path = self._write(tmp_path)
        companion_path(path).unlink()
        loaded, header = read_graphs(path)
        assert len(loaded) == 6 and header["label_vocab"] == ["a", "b", "c"]

    def test_write_twice_gives_identical_companion(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        p1, p2 = self._write(tmp_path / "a"), self._write(tmp_path / "b")
        assert companion_path(p1).read_bytes() == companion_path(p2).read_bytes()
        assert str(tmp_path).encode() not in companion_path(p1).read_bytes()

    # A Subgraph holds no kinds: node i's kind follows from i, so a mutation
    # that only reorders the nodes leaves a subgraph the rule accepts.
    @pytest.mark.parametrize("mutation", sorted(set(RECORD_MUTATIONS)
                                                - {"commonsense-first", "swapped-content"}))
    def test_record_rule_is_checked_before_any_file_is_created(self, tmp_path, mutation):
        subgraphs = self._subgraphs()
        sg = subgraphs[1]
        record = {"sample_id": sg.sample_id, "split": sg.split, "group": sg.group,
                  "label": sg.label}
        nodes = [{"kind": kind, "id": node_id, "embedding": row}
                 for kind, node_id, row in zip(sg.kinds, sg.ids, sg.features())]
        edit, message = RECORD_MUTATIONS[mutation]
        edit(record, nodes)
        n = len(nodes)
        subgraphs[1] = make_subgraph([d["id"] for d in nodes], [d["embedding"] for d in nodes],
                                     sg.adjacency if n == sg.size else np.zeros((n, n)),
                                     **record)
        path = tmp_path / "x.graphs"
        with pytest.raises(DataError, match=message):
            write_graphs(path, subgraphs, ["a", "b", "c"], {})
        assert not path.exists() and not companion_path(path).exists()

    @pytest.mark.parametrize("bad", [[], ["a", 7], ["a", "b\ud800"]])
    def test_label_vocab_is_checked_before_any_file_is_created(self, tmp_path, bad):
        path = tmp_path / "x.graphs"
        with pytest.raises(DataError, match="label_vocab"):
            write_graphs(path, self._subgraphs(), bad, {})
        assert not path.exists() and not companion_path(path).exists()

    @pytest.mark.parametrize("size, kinds", [
        (0, ()), (3, CONTENT_KINDS[:3]), (4, CONTENT_KINDS),
        (6, CONTENT_KINDS + ("commonsense", "commonsense"))])
    def test_kinds_follow_from_the_node_count(self, tmp_path, size, kinds):
        sg = make_subgraph([f"n{i}" for i in range(size)], np.ones((size, 6)),
                           np.zeros((size, size)))
        assert sg.kinds == kinds
        assert [node.kind for node in sg.nodes] == list(kinds)
        path = tmp_path / "x.graphs"
        if size < 4:
            with pytest.raises(DataError, match="node kinds"):
                write_graphs(path, [sg], ["a"], {})
            assert not path.exists() and not companion_path(path).exists()
        else:
            write_graphs(path, [sg], ["a"], {})
            assert read_graphs(path)[0][0].kinds == sg.kinds

    @pytest.mark.parametrize("misfit", ["wider-table", "3-d-table", "row-outside-table",
                                        "flat-adjacency"])
    def test_layout_misfit_is_rejected_before_writing(self, tmp_path, misfit):
        path = self._write(tmp_path)
        before = path.read_bytes(), companion_path(path).read_bytes()
        odd = self._subgraphs()
        if misfit == "wider-table":
            odd[2].table = np.ones((odd[2].size, 7))
        elif misfit == "3-d-table":
            odd[2].table = np.ones((odd[2].size, 1, 6))
        elif misfit == "row-outside-table":
            odd[2].rows = odd[2].rows + 1
        else:
            odd[2].adjacency = odd[2].adjacency.reshape(-1)
        with pytest.raises(DataError, match="'s2'"):
            write_graphs(path, odd, ["a", "b", "c"], {})
        assert (path.read_bytes(), companion_path(path).read_bytes()) == before


def _reference_graph_lines(subgraphs, label_vocab, config):
    """The writer before fragment reuse: the canonical JSON of each record
    object, built whole."""
    header = {"format": GRAPHS_FORMAT, "version": GRAPHS_VERSION,
              "label_vocab": list(label_vocab), "config": config}
    records = [{
        "sample_id": sg.sample_id,
        "split": sg.split,
        "group": sg.group,
        "label": sg.label,
        "nodes": [{"kind": kind, "id": node_id, "embedding": row.tolist()}
                  for kind, node_id, row in zip(sg.kinds, sg.ids, sg.features())],
        "adjacency": sg.adjacency.reshape(-1).tolist(),
    } for sg in subgraphs]
    return [(json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
             + "\n").encode("utf-8") for doc in [header] + records]


def _odd_subgraphs():
    """Non-ASCII and escaped strings; -0.0, a subnormal and 1e-300 in
    embeddings and adjacency; one commonsense id with two vectors, one
    node shared unchanged between samples; a sample with no commonsense
    nodes."""
    rng = np.random.default_rng(21)
    special = [-0.0, 5e-324, 1e-300]
    t3 = rng.normal(0, 1, 6)
    t3[:3] = special
    t7 = rng.normal(0, 1, 6)
    commonsense = [[("t3", t3), ("t7", t7)], [("t3", -t3), ("t7", t7.copy())], []]
    names = [("s0-é", "grüppe"), ("样本1", "g\"1\\"), ("s2\n", "g2")]
    out = []
    for i, ((sample_id, group), extra) in enumerate(zip(names, commonsense)):
        content = rng.normal(0, 1, (4, 6))
        content[i, 3:] = special
        n = 4 + len(extra)
        adj = np.triu(np.abs(rng.normal(0, 0.3, (n, n))), 1)
        adj[0, 1:4] = special
        adj = adj + adj.T
        adj[0, 1] = adj[1, 0] = -0.0
        out.append(make_subgraph([*CONTENT_KINDS, *(tid for tid, _ in extra)],
                                 [*content, *(vec for _, vec in extra)], adj, label=i,
                                 sample_id=sample_id, split=("train", "val", "test")[i],
                                 group=group))
    return out


class TestWriterMatchesWholeRecordJson:
    def _built_subgraphs(self, tmp_path):
        config = SynthConfig(samples=40, classes=3, dim=8, triplets_per_class=4, seed=2)
        paths = generate_synthetic(config, tmp_path / "d")
        dataset = ingest_manifest(paths["manifest"], read_store(paths["visual_embeddings"]))
        store = TripletStore(read_triplets_tsv(paths["triplets"]),
                             read_store(paths["triplet_embeddings"]))
        return build_dataset_graphs(dataset, store, seed=2, k=3)

    @pytest.mark.parametrize("source", ["odd", "built"])
    def test_lines_equal_reference_and_companion_hashes_them(self, tmp_path, source):
        subgraphs = _odd_subgraphs() if source == "odd" else self._built_subgraphs(tmp_path)
        config = {"k": 3, "note": "ü"}
        path = tmp_path / "x.graphs"
        write_graphs(path, subgraphs, ["a", "b", "ç"], config)
        got = path.read_bytes().splitlines(keepends=True)
        want = _reference_graph_lines(subgraphs, ["a", "b", "ç"], config)
        assert len(got) == len(want)
        for lineno, (g, w) in enumerate(zip(got, want), start=1):
            assert g == w, f"line {lineno}"
        meta, _ = read_checkpoint(companion_path(path))
        assert meta["graphs_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def _reference_edges(content, ids, log, stats, mode="hybrid", tau=0.0):
    """build_edges before the NPMI table: one cosine_sim per content pair
    and one pmi_weight per commonsense pair."""
    ids = [*CONTENT_KINDS, *ids]
    n = len(ids)
    adjacency = np.zeros((n, n))
    for a, b in itertools.combinations(range(4), 2):
        sim = cosine_sim(content[a], content[b])
        if sim > tau and sim > 0.0:
            adjacency[a, b] = adjacency[b, a] = sim
    for hit in log:
        if hit.triplet_id in ids[4:]:
            a, b = ids.index(hit.content_kind), ids.index(hit.triplet_id, 4)
            adjacency[a, b] = adjacency[b, a] = min(max(hit.similarity, 0.0), 1.0)
    if mode == "hybrid":
        for a, b in itertools.combinations(range(4, n), 2):
            if ids[a] not in stats.counts or ids[b] not in stats.counts:
                continue
            weight = pmi_weight(stats, ids[a], ids[b])
            if weight is not None:
                adjacency[a, b] = adjacency[b, a] = weight
    return adjacency


class TestNpmiTableEdges:
    NUM_TRIPLETS = 24

    def _stats(self, rng):
        """Training retrievals in which t0 and t1 always come together, t2
        comes nearly always, and t23 never comes."""
        stats = CooccurrenceStats()
        for s in range(80):
            chosen = {f"t{i}" for i in rng.choice(np.arange(3, self.NUM_TRIPLETS - 1),
                                                  size=int(rng.integers(2, 7)), replace=False)}
            if s % 5 == 0:
                chosen |= {"t0", "t1"}
            if s % 20:
                chosen.add("t2")
            stats.observe(chosen)
        return stats

    def _sample(self, rng):
        content = rng.normal(0, 1, (4, 8))
        ids = [f"t{i}" for i in sorted(rng.choice(self.NUM_TRIPLETS,
                                                  size=int(rng.integers(0, 9)), replace=False))]
        log = [RetrievalHit(CONTENT_KINDS[int(rng.integers(4))], tid,
                            float(rng.uniform(-0.5, 1.2))) for tid in ids]
        return content, ids, log

    def test_table_fill_equals_pairwise_reference_bitwise(self):
        rng = np.random.default_rng(17)
        stats = self._stats(rng)
        seen = {"unseen": 0, "independent": 0, "always": 0}
        for _ in range(150):
            content, ids, log = self._sample(rng)
            for mode, tau in (("hybrid", 0.0), ("hybrid", 0.3), ("cosine", -0.2)):
                want = _reference_edges(content, ids, log, stats, mode, tau)
                got = build_edges(content, ids, log, stats, mode, tau)
                assert got.tobytes() == want.tobytes()
            seen["unseen"] += "t23" in ids
            for a, b in itertools.combinations(ids, 2):
                if a in stats.counts and b in stats.counts:
                    weight = pmi_weight(stats, a, b)
                    key = (a, b)
                    seen["independent"] += weight is None and key in stats.pair_counts
                    seen["always"] += weight == 1.0
        assert all(count > 0 for count in seen.values()), seen

    def test_always_cooccurring_pair_weighs_exactly_one(self):
        stats = self._stats(np.random.default_rng(4))
        table = stats.npmi_table()
        assert stats.counts["t0"] == stats.counts["t1"] == stats.pair_counts[("t0", "t1")]
        assert table.block(["t0", "t1"])[0, 1] == 1.0
        assert not table.block(["t0", "t23", "t99"])[1:].any()

    def test_table_is_computed_once_and_refreshed_by_observe(self):
        stats = self._stats(np.random.default_rng(4))
        table = stats.npmi_table()
        assert stats.npmi_table() is table
        stats.observe({"t0", "t5"})
        assert stats.npmi_table() is not table
        assert stats.npmi_table().block(["t0", "t1"])[0, 1] < 1.0


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    """A toy dataset whose odd records carry visual text instead of a store
    reference, and its triplet store."""
    config = SynthConfig(samples=60, classes=3, dim=8, triplets_per_class=4, seed=5)
    paths = generate_synthetic(config, tmp_path_factory.mktemp("build") / "d")
    dataset = ingest_manifest(paths["manifest"], read_store(paths["visual_embeddings"]))
    dataset.records = [
        dataclasses.replace(r, visual_ref=None, visual_text=f"picture of {r.question}")
        if i % 2 else r for i, r in enumerate(dataset.records)]
    store = TripletStore(read_triplets_tsv(paths["triplets"]),
                         read_store(paths["triplet_embeddings"]))
    return dataset, store


class TestBuildPassOrder:
    """Embedding every record before any retrieval gives the subgraphs of the
    interleaved loop, and no token row is alive at retrieval."""

    @pytest.mark.parametrize("mode", ["cosine", "hybrid"])
    def test_equals_the_interleaved_build(self, synth, mode):
        dataset, store = synth
        got = build_dataset_graphs(dataset, store, seed=5, k=2, mode=mode, tau=0.1)
        want = build_graphs_reference(dataset, store, seed=5, k=2, mode=mode, tau=0.1)
        assert_same_graphs((got, {}), (want, {}))
        assert any(sg.adjacency[4:, 4:].any() for sg in got) == (mode != "cosine")

    @pytest.mark.parametrize("chunk", [7, 60])
    def test_each_token_row_is_derived_once_and_released_before_retrieval(
            self, synth, monkeypatch, chunk):
        """Every distinct token's row is derived exactly once per build. While
        a chunk is embedded, what is alive is the kept rows (at most the
        recurring tokens) plus that chunk's table (exactly its own tokens);
        no earlier table survives, and nothing is alive at retrieval."""
        dataset, store = synth
        monkeypatch.setattr(graphs, "TOKEN_CHUNK_RECORDS", chunk)
        derived, tables, sources, alive_at_retrieval = [], [], [], []
        real_derive, real_table = embeddings._derive_rows, embeddings.TokenRowChunks.table
        real_top_k = graphs.top_k_triplets

        def derive(tokens, seed, out):
            tokens = list(tokens)
            derived.extend(tokens)
            real_derive(tokens, seed, out)

        def table(self, texts):
            texts = list(texts)
            gc.collect()
            assert all(ref() is None for ref in tables)
            rows = real_table(self, texts)
            assert rows.rows.shape[0] == len({t for text in texts for t in tokenize(text)})
            assert len(self._kept) <= len(recurring)
            tables.append(weakref.ref(rows))
            sources.append(weakref.ref(self))
            return rows

        def top_k(*args, **kwargs):
            if not alive_at_retrieval:
                gc.collect()
                alive_at_retrieval.append([ref() is not None for ref in tables + sources])
            return real_top_k(*args, **kwargs)

        texts = [text for r in dataset.records
                 for text in (r.question, r.language_context, r.visual_text or "")]
        counts = collections.Counter(t for text in texts for t in tokenize(text))
        recurring = [t for t, n in counts.items() if n > 1]
        assert 0 < len(recurring) < len(counts)
        monkeypatch.setattr(embeddings, "_derive_rows", derive)
        monkeypatch.setattr(embeddings.TokenRowChunks, "table", table)
        monkeypatch.setattr(graphs, "top_k_triplets", top_k)
        build_dataset_graphs(dataset, store, seed=5, k=2)
        assert len(tables) == math.ceil(len(dataset.records) / chunk)
        assert sorted(derived) == sorted(counts)
        assert alive_at_retrieval == [[False] * (2 * len(tables))]

    @pytest.mark.parametrize("flags, named", [
        ({"k": 0}, "k must be"), ({"tau": 1.5}, "tau"), ({"tau": float("nan")}, "tau"),
        ({"mode": "psychic"}, "edge mode"),
    ])
    def test_bad_flags_are_refused_before_embedding(self, synth, monkeypatch, flags, named):
        dataset, store = synth

        def embed(*args):
            raise AssertionError("the build embedded before checking its flags")

        monkeypatch.setattr(graphs, "_embed_content", embed)
        with pytest.raises(ConfigError, match=named):
            build_dataset_graphs(dataset, store, seed=5, **{"k": 2, **flags})

    def test_commonsense_rows_are_shared_and_read_only(self, synth):
        dataset, store = synth
        rows = {}
        for sg in build_dataset_graphs(dataset, store, seed=5, k=2):
            for node_id, row in zip(sg.ids[4:], sg.rows[4:]):
                assert sg.table[row].tobytes() == store.embeddings.vector(node_id).tobytes()
                rows.setdefault(node_id, []).append(int(row))
        first, *others = max(rows.values(), key=len)
        assert others and set(others) == {first}
        with pytest.raises(ValueError, match="read-only"):
            sg.table[first, 0] = 0.0

    def test_store_listing_ids_out_of_order_builds_the_same_graphs(self, synth, tmp_path):
        """A triplet GEMB may list its ids in any order; retrieval and node
        rows go by id, not by position."""
        dataset, store = synth
        shuffled = EmbeddingStore(store.dim)
        ids = store.embeddings.ids()
        for tid in ids[1::2] + ids[::2][::-1]:
            shuffled.add(tid, store.embeddings.vector(tid))
        write_store(tmp_path / "t.gemb", shuffled)
        reread = TripletStore(store.triplets, read_store(tmp_path / "t.gemb"))
        assert reread.embeddings.ids() != ids
        got = build_dataset_graphs(dataset, reread, seed=5, k=2)
        assert_same_graphs((got, {}), (build_dataset_graphs(dataset, store, seed=5, k=2), {}))
        assert not got[0].table.flags.writeable


@pytest.mark.parametrize("source", ["build", "companion", "json"])
def test_subgraphs_of_one_read_share_one_read_only_table(synth, tmp_path, source):
    """A build, a companion read and a JSON read each give every subgraph
    the same node table object, which no one can write to."""
    dataset, store = synth
    subgraphs = build_dataset_graphs(dataset, store, seed=5, k=2)
    if source != "build":
        path = tmp_path / "x.graphs"
        write_graphs(path, subgraphs, dataset.label_vocab, {})
        if source == "json":
            companion_path(path).unlink()
        subgraphs, _ = read_graphs(path)
    table = subgraphs[0].table
    assert all(sg.table is table for sg in subgraphs)
    assert table.dtype == np.float64 and not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0.0
