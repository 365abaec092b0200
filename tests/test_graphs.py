"""Subgraph construction: content nodes, retrieval, edges, the NPMI table,
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

from graphkd import embeddings, graphs
from graphkd.datagen import ManifestRecord, SynthConfig, generate_synthetic, ingest_manifest
from graphkd.embeddings import (EmbeddingStore, Triplet, TripletStore, read_store,
                                read_triplets_tsv, token_rows, tokenize, top_k_triplets,
                                toy_embed, write_store)
from graphkd.errors import ConfigError, DataError, FormatError, NumericError
from graphkd.graphs import (CONTENT_KINDS, GRAPHS_FORMAT, GRAPHS_VERSION, build_content_nodes,
                            build_dataset_graphs, build_edges, companion_path,
                            normalize_adjacency, npmi_table, read_graphs, retrieve,
                            write_graphs)
from graphkd.serialization import read_checkpoint
from record_mutations import RECORD_MUTATIONS
from reference import (CooccurrenceCounts, build_graphs_reference, edges_reference,
                       make_subgraph)


def _record(**overrides):
    base = dict(sample_id="s0", question="what is shown", language_context="a scene",
                label="c0", group="g0", split="train", visual_text="an image")
    base.update(overrides)
    return ManifestRecord(**base)


def _content_nodes(record, dim=16, seed=7, store=None):
    """``record``'s content nodes, from a token-row table made for its texts."""
    texts = [record.question, record.language_context, record.visual_text or ""]
    return build_content_nodes(record, token_rows(texts, dim, seed), store)


class TestContentNodes:
    def test_four_nodes_in_fixed_order(self):
        rec = _record()
        rows = _content_nodes(rec)
        table = token_rows([rec.question, rec.language_context, rec.visual_text], 16, 7)
        assert rows.shape == (4, 16)
        for row, text in zip(rows, (rec.question, rec.language_context, rec.visual_text)):
            np.testing.assert_array_equal(row, toy_embed(text, table))

    def test_vl_equals_shared_vector(self):
        # Equal visual and language vectors: their renormalized mean is the
        # shared (unit) vector itself.
        rec = _record(language_context="shared ctx", visual_text="shared ctx")
        rows = _content_nodes(rec)
        np.testing.assert_allclose(rows[3], rows[1], atol=1e-12)

    def test_empty_visual_text_gets_sentinel(self):
        rows = _content_nodes(_record(visual_text=""), dim=8)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_array_equal(rows[2], expected)

    def test_visual_ref_resolved_from_store(self):
        vec = np.arange(8.0) / np.linalg.norm(np.arange(8.0))
        store = EmbeddingStore(["v7"], [vec])
        rec = _record(visual_text=None, visual_ref="v7")
        rows = _content_nodes(rec, dim=8, store=store)
        np.testing.assert_array_equal(rows[2], store.row("v7"))

    def test_store_of_another_dim_refused(self):
        rec = _record(visual_text=None, visual_ref="v7")
        with pytest.raises(ConfigError, match="store dim 8 does not match graph dim 16"):
            _content_nodes(rec, store=EmbeddingStore(["v7"], [np.ones(8)]))

    def test_missing_ref_names_id(self):
        rec = _record(visual_text=None, visual_ref="v404")
        with pytest.raises(DataError, match="v404"):
            _content_nodes(rec, dim=8, store=EmbeddingStore([], [], 8))

    def test_ref_without_store(self):
        rec = _record(visual_text=None, visual_ref="v0")
        with pytest.raises(DataError):
            _content_nodes(rec, dim=8)

    def test_deterministic(self):
        assert (_content_nodes(_record()) == _content_nodes(_record())).all()


def _basis_store(dim=16):
    """Triplets t0-t2 near e1, t3-t5 near e2, t6-t8 near e3, t9-t11 near e4."""
    vectors = []
    for axis in range(4):
        for j in range(3):
            vec = np.zeros(dim)
            vec[axis] = 1.0
            vec[8 + len(vectors) % 8] = 0.05 * (j + 1)
            vectors.append(vec / np.linalg.norm(vec))
    return TripletStore([Triplet(f"h{i}", "r", f"t{i}") for i in range(12)],
                        EmbeddingStore([f"t{i}" for i in range(12)], vectors))


def _content(dim=16):
    """Content rows along the first four axes."""
    return np.eye(dim)[:4]


class TestRetrieve:
    def test_disjoint_retrievals_give_twelve_nodes(self):
        hits, sims = retrieve(_content(), _basis_store(), k=3)
        assert hits.shape == sims.shape == (4, 3)
        rows, adjacency = build_edges(_content(), hits, sims)
        assert rows.tolist() == list(range(12))
        assert adjacency.shape == (16, 16)

    def test_identical_retrievals_merge(self):
        same = np.tile(_content()[0], (4, 1))
        hits, sims = retrieve(same, _basis_store(), k=3)
        assert hits.shape == (4, 3)
        assert build_edges(same, hits, sims)[0].tolist() == [0, 1, 2]

    def test_store_smaller_than_k(self):
        tiny = TripletStore([Triplet("a", "r", "b"), Triplet("c", "r", "d")],
                            EmbeddingStore(["t0", "t1"], [[1.0, 0, 0, 0], [0.0, 1, 0, 0]]))
        hits, sims = retrieve(_content(4), tiny, k=3)
        assert hits.shape == sims.shape == (4, 2)
        assert build_edges(_content(4), hits, sims)[0].tolist() == [0, 1]

    def test_rows_of_each_content_node_are_its_top_k(self):
        store = _basis_store()
        content = np.random.default_rng(9).normal(0, 1, (4, 16))
        hits, sims = retrieve(content, store, 4)
        for query, got_rows, got_sims in zip(content, hits, sims):
            want_rows, want_sims = top_k_triplets(query, store, 4)
            assert got_rows.tolist() == want_rows.tolist()
            assert got_sims.tobytes() == want_sims.tobytes()

    def test_nodes_ordered_by_numeric_index(self):
        vectors = np.eye(4)[np.arange(12) % 4]
        ts = TripletStore([Triplet(f"h{i}", "r", f"x{i}") for i in range(12)],
                          EmbeddingStore([f"t{i}" for i in range(12)], vectors))
        rows, _ = build_edges(_content(4), *retrieve(_content(4), ts, k=3))
        assert rows.tolist() == sorted(rows.tolist()) and len(rows) == 12


def _train_rows(c1, c2, c12, m):
    """``m`` training samples in which triplet 0 is retrieved in ``c1``,
    triplet 1 in ``c2`` and both in ``c12``; the others retrieve triplet 2."""
    rows = [[0, 1]] * c12 + [[0]] * (c1 - c12) + [[1]] * (c2 - c12)
    return [np.array(r) for r in rows + [[2]] * (m - len(rows))]


def _pair_weight(c1, c2, c12, m):
    return npmi_table(_train_rows(c1, c2, c12, m), 3).block(np.array([0, 1]))[0, 1]


class TestNpmiTable:
    def test_perfect_cooccurrence(self):
        # PMI = ln 10, normalizer -ln(10/100) = ln 10, so NPMI = 1.
        assert _pair_weight(10, 10, 10, 100) == pytest.approx(1.0, abs=1e-12)

    def test_independence_gives_no_edge(self):
        assert _pair_weight(10, 10, 1, 100) == 0.0

    def test_never_cooccurs_gives_no_edge(self):
        assert _pair_weight(5, 5, 0, 100) == 0.0

    def test_hand_value(self):
        expected = math.log(2.0) / -math.log(0.2)
        assert _pair_weight(2, 5, 2, 10) == pytest.approx(expected, abs=1e-12)

    def test_symmetric_and_hollow(self):
        block = npmi_table(_train_rows(3, 5, 2, 20), 3).block(np.array([0, 1, 2]))
        assert (block == block.T).all() and not np.diagonal(block).any()
        assert block[0, 1] > 0.0

    def test_triplet_never_retrieved_on_train_has_no_edges(self):
        table = npmi_table(_train_rows(3, 5, 2, 20), 10)
        assert table.weights.shape == (4, 4)
        assert not table.block(np.array([0, 1, 9]))[2].any()
        assert not table.block(np.array([7, 9])).any()

    def test_range_on_random_counts(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            m = int(rng.integers(2, 50))
            c1 = int(rng.integers(1, m + 1))
            c2 = int(rng.integers(1, m + 1))
            c12 = int(rng.integers(max(0, c1 + c2 - m), min(c1, c2) + 1))
            assert 0.0 <= _pair_weight(c1, c2, c12, m) <= 1.0

    def test_no_training_samples_give_no_edges(self):
        table = npmi_table([], 5)
        assert table.weights.shape == (1, 1)
        assert not table.block(np.arange(5)).any()

    def test_build_wide_size_table_equals_the_reference_bitwise(self):
        """1470 training samples over 576 triplets, each retrieving a few
        triplets of two topics, a few others and often t0-t3, about as many
        pairs as a build-wide build: every weight, for every pair of
        triplets, is the reference's NPMI of its string-keyed counts, bit
        for bit."""
        rng = np.random.default_rng(21)
        num_triplets = 576
        train_rows, stats = [], CooccurrenceCounts()
        for _ in range(1470):
            topics = rng.choice(num_triplets // 6, size=2, replace=False)
            chosen = {int(6 * t + j) for t in topics
                      for j in rng.choice(6, size=int(rng.integers(2, 6)), replace=False)}
            chosen |= set(rng.choice(num_triplets, size=int(rng.integers(2, 9))).tolist())
            chosen |= {i for i in range(4) if rng.random() < 0.6}
            train_rows.append(np.array(sorted(chosen)))
            stats.observe({f"t{i}" for i in chosen})
        want = np.zeros((num_triplets, num_triplets))
        screened = 0
        for a, b in stats.pair_counts:
            weight = stats.npmi(a, b)
            screened += weight is None
            if weight is not None:
                want[int(a[1:]), int(b[1:])] = want[int(b[1:]), int(a[1:])] = weight
        assert len(stats.pair_counts) > 60_000 and screened > 2_000
        got = npmi_table(train_rows, num_triplets).block(np.arange(num_triplets))
        assert got.tobytes() == want.tobytes()


class TestBuildEdges:
    def _fixture(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        lc = np.array([0.6, 0.8, 0.0, 0.0])
        vc = np.array([0.0, 0.0, 1.0, 0.0])
        vl = np.array([0.3, 0.4, 0.5, 0.0]) / math.sqrt(0.5)
        content = np.array([q, lc, vc, vl])
        hits = np.array([[0], [0], [1], [1]])
        sims = np.array([[0.8], [0.92], [-0.3], [0.55]])
        return content, hits, sims

    def test_hand_built_oracle_matrix(self):
        content, hits, sims = self._fixture()
        rows, got = build_edges(content, hits, sims)
        assert rows.tolist() == [0, 1]
        got[4:, 4:] = npmi_table(_train_rows(2, 5, 2, 10), 3).block(rows)
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
        _, adj = build_edges(*self._fixture())
        assert adj[0, 1] == adj[1, 0] == pytest.approx(0.6, abs=1e-12)

    def test_negative_cosine_never_edges(self):
        content, hits, sims = self._fixture()
        content[2] = -content[0]      # cos(question, visual) = -1
        _, adj = build_edges(content, hits, sims)
        assert adj[0, 2] == 0.0
        assert (adj >= 0.0).all()

    def test_commonsense_block_is_left_zero(self):
        _, adj = build_edges(*self._fixture())
        assert not adj[4:, 4:].any()

    def test_retrieval_similarity_clamped(self):
        _, adj = build_edges(*self._fixture())
        assert adj[2, 5] == 0.0       # similarity -0.3 clamps to no edge

    def test_unseen_triplet_pairs_skip_pmi(self):
        rows, _ = build_edges(*self._fixture())
        train = [np.array([0, 2])] * 3 + [np.array([0])]
        assert not npmi_table(train, 3).block(rows).any()


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
        # Both readers lay the table out alike: each distinct commonsense
        # row, then the content rows.
        assert from_companion[0][0].table.tobytes() == from_json[0][0].table.tobytes()

    def test_companion_table_is_a_view_of_the_tensors_read(self, tmp_path, monkeypatch):
        """The companion's triplets and rows are read into one buffer and the
        node table is a view of it: no concatenated copy."""
        read = []
        original = graphs.read_checkpoint_data

        def recorded(path):
            read.append(original(path))
            return read[-1]

        monkeypatch.setattr(graphs, "read_checkpoint_data", recorded)
        loaded, _ = read_graphs(self._write(tmp_path))
        (_, data), = read
        table = loaded[0].table
        assert np.shares_memory(table, data) and table.base is not None
        # Triplets first, then every sample's four content rows in order.
        assert all(sg.rows[0] == table.shape[0] - 4 * (len(loaded) - i)
                   for i, sg in enumerate(loaded))

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


class TestNpmiTableEdges:
    NUM_TRIPLETS = 24

    def _train(self, rng):
        """Training retrievals in which t0 and t1 always come together, t2
        comes nearly always, and t23 never comes: their NPMI table, and the
        reference's string-keyed counts of them."""
        train_rows, stats = [], CooccurrenceCounts()
        for s in range(80):
            chosen = set(rng.choice(np.arange(3, self.NUM_TRIPLETS - 1),
                                    size=int(rng.integers(2, 7)), replace=False).tolist())
            if s % 5 == 0:
                chosen |= {0, 1}
            if s % 20:
                chosen.add(2)
            train_rows.append(np.array(sorted(chosen)))
            stats.observe({f"t{i}" for i in chosen})
        return npmi_table(train_rows, self.NUM_TRIPLETS), stats

    def _sample(self, rng):
        content = rng.normal(0, 1, (4, 8))
        k = int(rng.integers(1, 4))
        hits = np.stack([rng.choice(self.NUM_TRIPLETS, size=k, replace=False)
                         for _ in range(4)])
        return content, hits, rng.uniform(-0.5, 1.2, (4, k))

    def test_edges_and_blocks_equal_the_pairwise_reference_bitwise(self):
        rng = np.random.default_rng(17)
        table, stats = self._train(rng)
        seen = {"unseen": 0, "independent": 0, "always": 0}
        for _ in range(150):
            content, hits, sims = self._sample(rng)
            log = [(kind, f"t{row}", sim)
                   for kind, kind_rows, kind_sims in zip(CONTENT_KINDS, hits.tolist(),
                                                         sims.tolist())
                   for row, sim in zip(kind_rows, kind_sims)]
            rows, got = build_edges(content, hits, sims)
            got[4:, 4:] = table.block(rows)
            ids = [f"t{row}" for row in rows.tolist()]
            assert got.tobytes() == edges_reference(content, ids, log, stats).tobytes()
            seen["unseen"] += "t23" in ids
            for a, b in itertools.combinations(ids, 2):
                weight = stats.npmi(a, b)
                seen["independent"] += weight is None and (a, b) in stats.pair_counts
                seen["always"] += weight == 1.0
        assert all(count > 0 for count in seen.values()), seen

    def test_always_cooccurring_pair_weighs_exactly_one(self):
        table, stats = self._train(np.random.default_rng(4))
        assert stats.counts["t0"] == stats.counts["t1"] == stats.pair_counts[("t0", "t1")]
        assert table.block(np.array([0, 1]))[0, 1] == 1.0
        assert not table.block(np.array([0, 23]))[1:].any()


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

    def test_equals_the_interleaved_build(self, synth):
        dataset, store = synth
        got = build_dataset_graphs(dataset, store, seed=5, k=2)
        want = build_graphs_reference(dataset, store, seed=5, k=2)
        assert_same_graphs((got, {}), (want, {}))
        assert any(sg.adjacency[4:, 4:].any() for sg in got)

    def test_npmi_blocks_equal_the_reference_where_counts_are_sparse(self, synth):
        """Some triplets in the graphs are never retrieved on the training
        split, and some co-retrieved pairs are at or below independence."""
        dataset, store = synth
        got = build_dataset_graphs(dataset, store, seed=5, k=4)
        want = build_graphs_reference(dataset, store, seed=5, k=4)
        stats = CooccurrenceCounts()
        for sg in want:
            if sg.split == "train":
                stats.observe(set(sg.ids[4:]))
        assert any(tid not in stats.counts for sg in want for tid in sg.ids[4:])
        assert any(stats.npmi(a, b) is None for a, b in stats.pair_counts)
        assert any(sg.adjacency[4:, 4:].any() for sg in want)
        for g, w in zip(got, want):
            assert g.ids == w.ids
            assert g.adjacency[4:, 4:].tobytes() == w.adjacency[4:, 4:].tobytes()

    @pytest.mark.parametrize("chunk", [7, 60])
    def test_each_token_row_is_derived_once_and_released_before_retrieval(
            self, synth, monkeypatch, chunk):
        """Each chunk of records gets one table, made for exactly that
        chunk's distinct tokens, each derived once in it; together the
        chunks derive every distinct token. No earlier table survives the
        making of the next, and none is alive at retrieval."""
        dataset, store = synth
        monkeypatch.setattr(graphs, "TOKEN_CHUNK_RECORDS", chunk)
        derived, tables, held, alive_at_retrieval = [], [], [], []
        real_derive, real_token_rows = embeddings._derive_rows, graphs.token_rows
        real_top_k = graphs.top_k_triplets

        def derive(tokens, seed, out):
            tokens = list(tokens)
            derived[-1].extend(tokens)
            real_derive(tokens, seed, out)

        def token_rows(texts, dim, seed):
            gc.collect()
            assert all(ref() is None for ref in tables)
            derived.append([])
            rows = real_token_rows(texts, dim, seed)
            assert rows.rows.shape[0] == len(derived[-1])
            held.append({t for text in rows.picks for t in tokenize(text)})
            tables.append(weakref.ref(rows))
            return rows

        def top_k(*args, **kwargs):
            if not alive_at_retrieval:
                gc.collect()
                alive_at_retrieval.append([ref() is not None for ref in tables])
            return real_top_k(*args, **kwargs)

        def tokens_of(records):
            return {t for r in records
                    for text in (r.question, r.language_context, r.visual_text or "")
                    for t in tokenize(text)}

        chunks = [dataset.records[start:start + chunk]
                  for start in range(0, len(dataset.records), chunk)]
        monkeypatch.setattr(embeddings, "_derive_rows", derive)
        monkeypatch.setattr(graphs, "token_rows", token_rows)
        monkeypatch.setattr(graphs, "top_k_triplets", top_k)
        build_dataset_graphs(dataset, store, seed=5, k=2)
        assert len(tables) == len(chunks) == math.ceil(len(dataset.records) / chunk)
        for records, tokens, own in zip(chunks, derived, held):
            assert own == tokens_of(records)
            assert sorted(tokens) == sorted(own)
        assert set().union(*derived) == tokens_of(dataset.records)
        assert alive_at_retrieval == [[False] * len(tables)]

    @pytest.mark.parametrize("flags, named", [({"k": 0}, "k must be")])
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
                assert sg.table[row].tobytes() == store.matrix[store.ids.index(node_id)].tobytes()
                rows.setdefault(node_id, []).append(int(row))
        first, *others = max(rows.values(), key=len)
        assert others and set(others) == {first}
        with pytest.raises(ValueError, match="read-only"):
            sg.table[first, 0] = 0.0

    def test_store_listing_ids_out_of_order_builds_the_same_graphs(self, synth, tmp_path):
        """A triplet GEMB may list its ids in any order; retrieval and node
        rows go by id, not by position."""
        dataset, store = synth
        ids = store.ids
        order = ids[1::2] + ids[::2][::-1]
        write_store(tmp_path / "t.gemb",
                    EmbeddingStore(order, [store.matrix[ids.index(tid)] for tid in order]))
        table = read_store(tmp_path / "t.gemb")
        assert list(table.ids) != ids
        reread = TripletStore(
            [Triplet(tid, "r", "x") for tid in ids], table)
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
