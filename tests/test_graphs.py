"""Subgraph construction: content nodes, retrieval attachment, PMI edges,
adjacency normalization, and the graphs file."""

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import weakref

import numpy as np
import pytest

from graphkd import graphs
from graphkd.datagen import ManifestRecord, SynthConfig, generate_synthetic, ingest_manifest
from graphkd.embeddings import (EmbeddingStore, Triplet, TripletStore, cosine_sim,
                                read_store, read_triplets_tsv, write_store)
from graphkd.errors import ConfigError, DataError, FormatError, NumericError
from graphkd.graphs import (CONTENT_KINDS, GRAPHS_FORMAT, GRAPHS_VERSION, CooccurrenceStats,
                            Node, RetrievalHit, Subgraph, attach_commonsense,
                            build_content_nodes, build_dataset_graphs, build_edges,
                            companion_path, normalize_adjacency, pmi_weight, read_graphs,
                            write_graphs)
from graphkd.serialization import read_checkpoint
from record_mutations import RECORD_MUTATIONS
from reference import build_graphs_reference


def _record(**overrides):
    base = dict(sample_id="s0", question="what is shown", language_context="a scene",
                label="c0", group="g0", split="train", visual_text="an image")
    base.update(overrides)
    return ManifestRecord(**base)


class TestContentNodes:
    def test_four_nodes_in_fixed_order(self):
        nodes = build_content_nodes(_record(), 16, 7)
        assert [n.kind for n in nodes] == list(CONTENT_KINDS)
        assert all(n.embedding.size == 16 for n in nodes)

    def test_vl_equals_shared_vector(self):
        # Equal visual and language vectors: their renormalized mean is the
        # shared (unit) vector itself.
        rec = _record(language_context="shared ctx", visual_text="shared ctx")
        nodes = build_content_nodes(rec, 16, 7)
        np.testing.assert_allclose(nodes[3].embedding, nodes[1].embedding, atol=1e-12)

    def test_empty_visual_text_gets_sentinel(self):
        nodes = build_content_nodes(_record(visual_text=""), 8, 7)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_array_equal(nodes[2].embedding, expected)

    def test_visual_ref_resolved_from_store(self):
        store = EmbeddingStore(8)
        vec = np.arange(8.0) / np.linalg.norm(np.arange(8.0))
        store.add("v7", vec)
        rec = _record(visual_text=None, visual_ref="v7")
        nodes = build_content_nodes(rec, 8, 7, embedding_store=store)
        np.testing.assert_array_equal(nodes[2].embedding, store.vector("v7"))

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
        for x, y in zip(a, b):
            assert (x.embedding == y.embedding).all()


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
    nodes = []
    for axis, kind in enumerate(CONTENT_KINDS):
        vec = np.zeros(dim)
        vec[axis] = 1.0
        nodes.append(Node(kind, kind, vec))
    return nodes


class TestAttachCommonsense:
    def test_disjoint_retrievals_give_twelve_nodes(self):
        nodes, log = attach_commonsense(_content(), _basis_store(), k=3)
        assert len(nodes) == 12
        assert len(log) == 12
        assert [n.id for n in nodes] == [f"t{i}" for i in range(12)]

    def test_identical_retrievals_merge(self):
        store = _basis_store()
        same = [Node(kind, kind, _content()[0].embedding) for kind in CONTENT_KINDS]
        nodes, log = attach_commonsense(same, store, k=3)
        assert len(nodes) == 3
        assert len(log) == 12

    def test_store_smaller_than_k(self):
        store = EmbeddingStore(4)
        store.add("t0", np.array([1.0, 0, 0, 0]))
        store.add("t1", np.array([0.0, 1, 0, 0]))
        tiny = TripletStore([Triplet("a", "r", "b"), Triplet("c", "r", "d")], store)
        nodes, _ = attach_commonsense(_content(4), tiny, k=3)
        assert len(nodes) == 2

    def test_nodes_ordered_by_numeric_index(self):
        store = EmbeddingStore(4)
        triplets = []
        for i in range(12):
            vec = np.zeros(4)
            vec[i % 4] = 1.0
            triplets.append(Triplet(f"h{i}", "r", f"x{i}"))
            store.add(f"t{i}", vec)
        ts = TripletStore(triplets, store)
        nodes, _ = attach_commonsense(_content(4), ts, k=3)
        indices = [int(n.id[1:]) for n in nodes]
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
        t0 = np.array([0.8, 0.6, 0.0, 0.0])
        t1 = np.array([0.0, 0.0, 0.0, 1.0])
        nodes = [Node("question", "question", q),
                 Node("language_context", "language_context", lc),
                 Node("visual_context", "visual_context", vc),
                 Node("vl", "vl", vl),
                 Node("commonsense", "t0", t0),
                 Node("commonsense", "t1", t1)]
        log = [RetrievalHit("question", "t0", 0.8),
               RetrievalHit("language_context", "t0", 0.92),
               RetrievalHit("visual_context", "t1", -0.3),
               RetrievalHit("vl", "t1", 0.55)]
        stats = CooccurrenceStats(num_samples=10, counts={"t0": 2, "t1": 5},
                                  pair_counts={("t0", "t1"): 2})
        return nodes, log, stats

    def test_hand_built_oracle_matrix(self):
        nodes, log, stats = self._fixture()
        got = build_edges(nodes, log, stats, mode="hybrid", tau=0.0)
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
        nodes, log, stats = self._fixture()
        adj = build_edges(nodes, log, stats)
        assert adj[0, 1] == adj[1, 0] == pytest.approx(0.6, abs=1e-12)

    def test_negative_cosine_never_edges(self):
        nodes, log, stats = self._fixture()
        for tau in (0.0, -0.5):
            adj = build_edges(nodes, log, stats, tau=tau)
            assert adj[0, 2] == 0.0   # orthogonal pair stays disconnected
            assert (adj >= 0.0).all()

    def test_tau_thresholds_content_edges(self):
        nodes, log, stats = self._fixture()
        adj = build_edges(nodes, log, stats, tau=0.65)
        assert adj[0, 1] == 0.0       # cos 0.6 dropped
        assert adj[1, 3] > 0.0        # cos 0.707 kept

    def test_cosine_mode_drops_pmi_edges(self):
        nodes, log, stats = self._fixture()
        adj = build_edges(nodes, log, stats, mode="cosine")
        assert adj[4, 5] == 0.0
        hybrid_adj = build_edges(nodes, log, stats, mode="hybrid")
        assert hybrid_adj[4, 5] > 0.0

    def test_retrieval_similarity_clamped(self):
        nodes, log, stats = self._fixture()
        adj = build_edges(nodes, log, stats)
        assert adj[2, 5] == 0.0       # similarity -0.3 clamps to no edge

    def test_bad_tau(self):
        nodes, log, stats = self._fixture()
        with pytest.raises(ConfigError):
            build_edges(nodes, log, stats, tau=1.0)

    def test_bad_mode(self):
        nodes, log, stats = self._fixture()
        for mode in ("fancy", "pmi"):
            with pytest.raises(ConfigError):
                build_edges(nodes, log, stats, mode=mode)

    def test_unseen_triplet_pairs_skip_pmi(self):
        nodes, log, stats = self._fixture()
        stats.counts.pop("t1")
        adj = build_edges(nodes, log, stats, mode="hybrid")
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
            nodes = [Node(kind, kind, rng.normal(0, 1, 6)) for kind in CONTENT_KINDS]
            nodes.append(Node("commonsense", f"t{i}", rng.normal(0, 1, 6)))
            n = len(nodes)
            adj = np.abs(rng.normal(0, 0.3, (n, n)))
            adj = np.triu(adj, 1)
            adj = adj + adj.T
            out.append(Subgraph(sample_id=f"s{i}", split="train", group=f"g{i}",
                                label=i % 2, nodes=nodes, adjacency=adj))
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
            for gn, wn in zip(got.nodes, want.nodes):
                assert gn.kind == wn.kind and gn.id == wn.id
                assert (gn.embedding == wn.embedding).all()

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
        assert len(g.nodes) == len(w.nodes)
        for gn, wn in zip(g.nodes, w.nodes):
            assert (gn.kind, gn.id) == (wn.kind, wn.id)
            assert gn.embedding.dtype == np.float64
            assert gn.embedding.shape == wn.embedding.shape
            assert gn.embedding.tobytes() == wn.embedding.tobytes()


class TestGraphsCompanion:
    def _subgraphs(self):
        """Samples that share commonsense nodes, with bit patterns that
        decimal JSON must carry exactly (-0.0, a subnormal, 1/3)."""
        rng = np.random.default_rng(11)
        triplets = {f"t{i}": rng.normal(0, 1, 6) for i in range(5)}
        triplets["t4"][:3] = (-0.0, 5e-324, 1.0 / 3.0)
        out = []
        for i in range(6):
            nodes = [Node(kind, kind, rng.normal(0, 1, 6)) for kind in CONTENT_KINDS]
            nodes += [Node("commonsense", tid, triplets[tid].copy())
                      for tid in sorted(triplets)[i % 3: i % 3 + 2 + i % 2]]
            if i == 5:
                # Same id as other samples' t0, other vector: kept apart.
                nodes.append(Node("commonsense", "t0", -triplets["t0"]))
            n = len(nodes)
            adj = np.triu(np.abs(rng.normal(0, 0.3, (n, n))), 1)
            out.append(Subgraph(sample_id=f"s{i}", split=("train", "val", "test")[i % 3],
                                group=f"g{i % 2}", label=i % 3, nodes=nodes,
                                adjacency=adj + adj.T))
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

    def test_companion_read_equals_what_was_written(self, tmp_path):
        subgraphs = self._subgraphs()
        path = self._write(tmp_path, subgraphs)
        loaded, header = read_graphs(path)
        assert header["config"] == {"k": 3, "tau": 0.0}
        assert_same_graphs((loaded, header), (subgraphs, header))

    def test_triplet_rows_are_shared_and_read_only(self, tmp_path):
        loaded, _ = read_graphs(self._write(tmp_path))
        rows = {}
        for sg in loaded:
            for node in sg.nodes[4:]:
                assert not node.embedding.flags.writeable
                rows.setdefault(node.id, []).append(node.embedding)
        shared = rows["t2"]
        assert len(shared) > 1
        assert all(np.shares_memory(shared[0], other) for other in shared[1:])

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

    @pytest.mark.parametrize("mutation", sorted(RECORD_MUTATIONS))
    def test_record_rule_is_checked_before_any_file_is_created(self, tmp_path, mutation):
        subgraphs = self._subgraphs()
        sg = subgraphs[1]
        record = {"sample_id": sg.sample_id, "split": sg.split, "group": sg.group,
                  "label": sg.label}
        nodes = [{"kind": n.kind, "id": n.id, "embedding": n.embedding} for n in sg.nodes]
        edit, message = RECORD_MUTATIONS[mutation]
        edit(record, nodes)
        n = len(nodes)
        subgraphs[1] = Subgraph(**record, nodes=[Node(d["kind"], d["id"], d["embedding"])
                                                 for d in nodes],
                                adjacency=sg.adjacency if n == sg.size else np.zeros((n, n)))
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

    @pytest.mark.parametrize("misfit", ["wider-embedding", "2-d-embedding",
                                        "flat-adjacency"])
    def test_layout_misfit_is_rejected_before_writing(self, tmp_path, misfit):
        path = self._write(tmp_path)
        before = path.read_bytes(), companion_path(path).read_bytes()
        odd = self._subgraphs()
        if misfit == "wider-embedding":
            odd[2].nodes[0] = Node("question", "question", np.ones(7))
        elif misfit == "2-d-embedding":
            odd[2].nodes[0] = Node("question", "question", np.ones((1, 6)))
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
        "nodes": [{"kind": n.kind, "id": n.id, "embedding": n.embedding.tolist()}
                  for n in sg.nodes],
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
        nodes = [Node(kind, kind, rng.normal(0, 1, 6)) for kind in CONTENT_KINDS]
        nodes[i].embedding[3:] = special
        nodes += [Node("commonsense", tid, vec) for tid, vec in extra]
        n = len(nodes)
        adj = np.triu(np.abs(rng.normal(0, 0.3, (n, n))), 1)
        adj[0, 1:4] = special
        adj = adj + adj.T
        adj[0, 1] = adj[1, 0] = -0.0
        out.append(Subgraph(sample_id=sample_id, split=("train", "val", "test")[i],
                            group=group, label=i, nodes=nodes, adjacency=adj))
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


def _reference_edges(nodes, log, stats, mode="hybrid", tau=0.0):
    """build_edges before the NPMI table: one cosine_sim per content pair
    and one pmi_weight per commonsense pair."""
    n = len(nodes)
    index = {node.id: i for i, node in enumerate(nodes)}
    adjacency = np.zeros((n, n))
    content = [i for i, node in enumerate(nodes) if node.kind in CONTENT_KINDS]
    kind_to_index = {nodes[i].kind: i for i in content}
    for a, b in itertools.combinations(content, 2):
        sim = cosine_sim(nodes[a].embedding, nodes[b].embedding)
        if sim > tau and sim > 0.0:
            adjacency[a, b] = adjacency[b, a] = sim
    for hit in log:
        if hit.triplet_id in index:
            a, b = kind_to_index[hit.content_kind], index[hit.triplet_id]
            adjacency[a, b] = adjacency[b, a] = min(max(hit.similarity, 0.0), 1.0)
    if mode == "hybrid":
        commonsense = [i for i, node in enumerate(nodes) if node.kind == "commonsense"]
        for a, b in itertools.combinations(commonsense, 2):
            if nodes[a].id not in stats.counts or nodes[b].id not in stats.counts:
                continue
            weight = pmi_weight(stats, nodes[a].id, nodes[b].id)
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
        nodes = [Node(kind, kind, rng.normal(0, 1, 8)) for kind in CONTENT_KINDS]
        ids = sorted(rng.choice(self.NUM_TRIPLETS, size=int(rng.integers(0, 9)),
                                replace=False))
        nodes += [Node("commonsense", f"t{i}", rng.normal(0, 1, 8)) for i in ids]
        log = [RetrievalHit(CONTENT_KINDS[int(rng.integers(4))], f"t{i}",
                            float(rng.uniform(-0.5, 1.2))) for i in ids]
        return nodes, log

    def test_table_fill_equals_pairwise_reference_bitwise(self):
        rng = np.random.default_rng(17)
        stats = self._stats(rng)
        seen = {"unseen": 0, "independent": 0, "always": 0}
        for _ in range(150):
            nodes, log = self._sample(rng)
            for mode, tau in (("hybrid", 0.0), ("hybrid", 0.3), ("cosine", -0.2)):
                want = _reference_edges(nodes, log, stats, mode, tau)
                assert build_edges(nodes, log, stats, mode, tau).tobytes() == want.tobytes()
            ids = [node.id for node in nodes[4:]]
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
    interleaved loop, and the token-row table is gone before retrieval."""

    @pytest.mark.parametrize("mode", ["cosine", "hybrid"])
    def test_equals_the_interleaved_build(self, synth, mode):
        dataset, store = synth
        got = build_dataset_graphs(dataset, store, seed=5, k=2, mode=mode, tau=0.1)
        want = build_graphs_reference(dataset, store, seed=5, k=2, mode=mode, tau=0.1)
        assert_same_graphs((got, {}), (want, {}))
        assert any(sg.adjacency[4:, 4:].any() for sg in got) == (mode != "cosine")

    def test_token_rows_are_released_before_retrieval(self, synth, monkeypatch):
        dataset, store = synth
        tables = []
        alive_at_retrieval = []
        real_rows, real_top_k = graphs.token_rows, graphs.top_k_triplets

        def rows(*args, **kwargs):
            table = real_rows(*args, **kwargs)
            tables.append(weakref.ref(table))
            return table

        def top_k(*args, **kwargs):
            if not alive_at_retrieval:
                gc.collect()
                alive_at_retrieval.append(tables[0]() is not None)
            return real_top_k(*args, **kwargs)

        monkeypatch.setattr(graphs, "token_rows", rows)
        monkeypatch.setattr(graphs, "top_k_triplets", top_k)
        build_dataset_graphs(dataset, store, seed=5, k=2)
        assert len(tables) == 1
        assert alive_at_retrieval == [False]

    def test_commonsense_rows_are_shared_and_read_only(self, synth):
        dataset, store = synth
        rows = {}
        for sg in build_dataset_graphs(dataset, store, seed=5, k=2):
            for node in sg.nodes[4:]:
                assert node.embedding.tobytes() == store.embeddings.vector(node.id).tobytes()
                rows.setdefault(node.id, []).append(node.embedding)
        first, *others = max(rows.values(), key=len)
        assert others and all(np.shares_memory(first, other) for other in others)
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 0.0

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
        for sg in got:
            for node in sg.nodes[4:]:
                assert not node.embedding.flags.writeable
