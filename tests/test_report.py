"""Projection, cluster summaries, and the flat-file report writers."""

import csv
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import child_env

import psda.report
from psda.report import (
    ClusterStat,
    WordPoint,
    cluster_stats,
    collect_points,
    pca_coordinates,
    render_scatter_svg,
    write_report_csv,
    write_report_svg,
)


def fake_model(chain, embeddings):
    # report functions only touch .chain and .word_embeddings
    return SimpleNamespace(chain=chain, word_embeddings=embeddings)


def stacked_in_report_order(model):
    keys = []
    rows = []
    for lang in sorted(model.chain):
        for i, word in enumerate(model.chain[lang]):
            keys.append((lang, word))
            rows.append(model.word_embeddings[lang][i])
    return keys, np.vstack(rows)


class TestPcaCoordinates:
    def test_shapes_and_centering(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(12, 5))
        coords, components, explained = pca_coordinates(m)
        assert coords.shape == (12, 2)
        assert components.shape == (2, 5)
        assert explained.shape == (2,)
        assert np.max(np.abs(coords.mean(axis=0))) < 1e-12

    def test_components_orthonormal(self):
        rng = np.random.default_rng(1)
        coords, components, _ = pca_coordinates(rng.normal(size=(9, 4)))
        gram = components @ components.T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12

    def test_explained_matches_eigvalsh(self):
        # ratios must agree with the covariance spectrum computed separately
        rng = np.random.default_rng(2)
        m = rng.normal(size=(20, 6))
        _, _, explained = pca_coordinates(m)
        centered = m - m.mean(axis=0)
        eigs = np.sort(np.linalg.eigvalsh(centered.T @ centered))[::-1]
        expected = eigs[:2] / eigs.sum()
        assert np.max(np.abs(explained - expected)) < 1e-10
        assert explained[0] >= explained[1]
        assert 0.0 <= explained[1] <= explained[0] <= 1.0

    def test_sign_pinned_to_positive_peak(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(15, 4))
        _, components, _ = pca_coordinates(m)
        for row in components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_sign_stable_under_negation(self):
        # negating the cloud flips nothing after the sign convention
        rng = np.random.default_rng(4)
        m = rng.normal(size=(10, 3))
        _, comp_a, _ = pca_coordinates(m)
        _, comp_b, _ = pca_coordinates(-m)
        assert np.max(np.abs(comp_a - comp_b)) < 1e-12

    def test_single_column_input(self):
        m = np.array([[1.0], [2.0], [4.0]])
        coords, components, explained = pca_coordinates(m)
        assert np.array_equal(coords[:, 1], np.zeros(3))
        assert np.array_equal(components[1], np.zeros(1))
        assert explained[0] == 1.0 and explained[1] == 0.0
        # the only axis is pinned positive
        assert components[0, 0] == 1.0

    def test_collinear_rows_get_tiny_second_coordinate(self):
        rng = np.random.default_rng(5)
        direction = rng.normal(size=3)
        t = rng.normal(size=8)
        m = np.outer(t, direction) + 2.0
        coords, _, explained = pca_coordinates(m)
        assert np.max(np.abs(coords[:, 1])) < 1e-10
        assert explained[1] < 1e-20

    def test_identical_rows(self):
        m = np.tile([3.0, -1.0], (4, 1))
        coords, _, explained = pca_coordinates(m)
        assert np.array_equal(coords, np.zeros((4, 2)))
        assert np.array_equal(explained, np.zeros(2))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            pca_coordinates(np.ones((1, 3)))

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ValueError):
            pca_coordinates(np.ones(5))


class TestCollectPoints:
    def test_covers_every_word(self, pair_model):
        points, explained = collect_points(pair_model.model)
        seen = {(p.lang, p.word) for p in points}
        expected = {
            (lang, word)
            for lang, store in pair_model.stores.items()
            for word in store.words
        }
        assert seen == expected
        assert len(points) == len(expected)
        assert explained.shape == (2,)
        assert explained[0] >= explained[1] >= 0.0

    def test_chain_ids_match_model(self, pair_model):
        points, _ = collect_points(pair_model.model)
        for p in points:
            assert pair_model.model.chain[p.lang][p.word] == (p.single, p.family, p.multi)

    def test_coordinates_match_direct_projection(self, pair_model):
        points, _ = collect_points(pair_model.model)
        keys, matrix = stacked_in_report_order(pair_model.model)
        coords, _, _ = pca_coordinates(matrix)
        assert [(p.lang, p.word) for p in points] == keys
        for p, (x, y) in zip(points, coords):
            assert p.pc1 == float(x)
            assert p.pc2 == float(y)

    def test_missing_embedding_matrix(self):
        model = fake_model({"aa": {"w": (0, 0, 0)}}, {})
        with pytest.raises(ValueError, match="missing embeddings"):
            collect_points(model)

    def test_row_count_mismatch(self):
        model = fake_model(
            {"aa": {"u": (0, 0, 0), "v": (0, 0, 0)}},
            {"aa": np.zeros((3, 2))},
        )
        with pytest.raises(ValueError, match="missing embeddings"):
            collect_points(model)


class TestClusterStats:
    def test_one_cluster_pair(self):
        model = fake_model(
            {"aa": {"u": (0, 0, 0), "v": (0, 0, 0)}},
            {"aa": np.array([[0.0, 0.0], [3.0, 4.0]])},
        )
        assert cluster_stats(model) == [ClusterStat(0, 2, 5.0, None)]

    def test_two_singletons(self):
        model = fake_model(
            {"aa": {"u": (0, 0, 0), "v": (0, 0, 1)}},
            {"aa": np.array([[0.0, 0.0], [3.0, 4.0]])},
        )
        stats = cluster_stats(model)
        assert stats == [ClusterStat(0, 1, 0.0, 5.0), ClusterStat(1, 1, 0.0, 5.0)]

    def test_mean_of_nearest_foreign_point(self):
        model = fake_model(
            {"aa": {"u": (0, 0, 0), "v": (0, 0, 0), "w": (0, 0, 1)}},
            {"aa": np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0]])},
        )
        stats = cluster_stats(model)
        expected_nearest = 0.5 * (10.0 + np.sqrt(101.0))
        assert stats[0].multi == 0 and stats[0].size == 2
        assert stats[0].mean_intra_distance == pytest.approx(1.0, abs=1e-12)
        assert stats[0].mean_nearest_other == pytest.approx(expected_nearest, rel=1e-12)
        assert stats[1] == ClusterStat(1, 1, 0.0, pytest.approx(10.0, rel=1e-12))

    def test_noncontiguous_ids_sorted(self):
        model = fake_model(
            {"aa": {"u": (0, 0, 2), "v": (0, 0, 0)}},
            {"aa": np.array([[0.0], [1.0]])},
        )
        assert [s.multi for s in cluster_stats(model)] == [0, 2]

    def test_matches_double_loop_oracle(self, pair_model):
        stats = cluster_stats(pair_model.model)
        keys, matrix = stacked_in_report_order(pair_model.model)
        labels = [pair_model.model.chain[lang][word][2] for lang, word in keys]
        assert sorted(s.multi for s in stats) == sorted(set(labels))
        assert sum(s.size for s in stats) == len(keys)
        for stat in stats:
            inside = [i for i, q in enumerate(labels) if q == stat.multi]
            outside = [i for i, q in enumerate(labels) if q != stat.multi]
            pair_dists = [
                np.linalg.norm(matrix[i] - matrix[j])
                for a, i in enumerate(inside)
                for j in inside[a + 1 :]
            ]
            intra = float(np.mean(pair_dists)) if pair_dists else 0.0
            assert stat.mean_intra_distance == pytest.approx(intra, abs=1e-12)
            if outside:
                nearest = float(
                    np.mean(
                        [
                            min(np.linalg.norm(matrix[i] - matrix[j]) for j in outside)
                            for i in inside
                        ]
                    )
                )
                assert stat.mean_nearest_other == pytest.approx(nearest, abs=1e-12)
            else:
                assert stat.mean_nearest_other is None

    def test_row_blocks_agree_with_one_block(self, pair_model, monkeypatch):
        whole = cluster_stats(pair_model.model)
        monkeypatch.setattr(psda.report, "_BLOCK_ROWS", 4)
        blocked = cluster_stats(pair_model.model)
        assert [(s.multi, s.size) for s in blocked] == [(s.multi, s.size) for s in whole]
        for a, b in zip(blocked, whole):
            assert a.mean_intra_distance == pytest.approx(b.mean_intra_distance, abs=1e-12)
            assert a.mean_nearest_other == pytest.approx(b.mean_nearest_other, abs=1e-12)

    def test_ten_thousand_words_fit_in_bounded_memory(self):
        # An N x N x d difference array would need 87 GiB here; the child
        # may map at most 1 GiB in all, interpreter and numpy included.
        script = textwrap.dedent(
            """
            import resource
            limit = 1 << 30
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            from types import SimpleNamespace
            import numpy as np
            from psda.report import cluster_stats
            rng = np.random.default_rng(0)
            chain, emb = {}, {}
            for lang in ("aa", "bb"):
                labels = rng.integers(0, 4, size=5000)
                chain[lang] = {f"w{i}": (0, 0, int(q)) for i, q in enumerate(labels)}
                emb[lang] = rng.normal(size=(5000, 117)) + labels[:, None]
            stats = cluster_stats(SimpleNamespace(chain=chain, word_embeddings=emb))
            assert [s.multi for s in stats] == [0, 1, 2, 3]
            assert sum(s.size for s in stats) == 10000
            for s in stats:
                assert 0 < s.mean_intra_distance < 20 and 0 < s.mean_nearest_other < 20
            """
        )
        env = child_env()
        env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=env
        )
        assert proc.returncode == 0, proc.stderr

    def test_separated_groups_are_cohesive(self, pair_model):
        # synthetic groups sit far apart, so cohesion must beat separation
        for stat in cluster_stats(pair_model.model):
            if stat.mean_nearest_other is not None and stat.size >= 2:
                assert stat.mean_intra_distance < stat.mean_nearest_other


class TestReportCsv:
    POINTS = [
        WordPoint("aa", "left", 0, 0, 0, -1.25, 0.5),
        WordPoint("aa", "right", 1, 0, 0, 1.25, -0.5),
        WordPoint("bb", "far", 0, 1, 1, 0.0, 3.0),
    ]
    STATS = [ClusterStat(0, 2, 2.6925824035672523, 3.1), ClusterStat(1, 1, 0.0, None)]

    def read(self, path):
        lines = path.read_text(encoding="utf-8").splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
        return comments, rows[0], rows[1:]

    def test_header_and_row_order(self, tmp_path):
        out = tmp_path / "report.csv"
        write_report_csv(out, self.POINTS, self.STATS)
        comments, header, rows = self.read(out)
        assert comments == []
        assert header == [
            "word", "lang", "single", "family", "multi", "pc1", "pc2",
            "mean_intra_distance", "mean_nearest_other",
        ]
        assert [(r[0], r[1]) for r in rows] == [("left", "aa"), ("right", "aa"), ("far", "bb")]
        assert rows[0][2:5] == ["0", "0", "0"]
        assert rows[2][2:5] == ["0", "1", "1"]

    def test_floats_round_trip_exactly(self, tmp_path):
        out = tmp_path / "report.csv"
        write_report_csv(out, self.POINTS, self.STATS)
        _, _, rows = self.read(out)
        for point, row in zip(self.POINTS, rows):
            assert float(row[5]) == point.pc1
            assert float(row[6]) == point.pc2
        assert float(rows[0][7]) == self.STATS[0].mean_intra_distance
        assert float(rows[0][8]) == self.STATS[0].mean_nearest_other

    def test_lone_cluster_leaves_nearest_empty(self, tmp_path):
        out = tmp_path / "report.csv"
        write_report_csv(out, self.POINTS, self.STATS)
        _, _, rows = self.read(out)
        assert rows[2][7] == "0.0"
        assert rows[2][8] == ""

    def test_without_stats_metric_cells_are_empty(self, tmp_path):
        out = tmp_path / "report.csv"
        write_report_csv(out, self.POINTS)
        _, _, rows = self.read(out)
        assert all(r[7] == "" and r[8] == "" for r in rows)

    def test_config_comment_line(self, tmp_path):
        out = tmp_path / "report.csv"
        write_report_csv(out, self.POINTS, self.STATS, config={"seed": "7", "k.multi": "3"})
        comments, header, rows = self.read(out)
        assert comments == ["# config: k.multi=3 seed=7"]
        assert header[0] == "word"
        assert len(rows) == len(self.POINTS)

    def test_full_model_round_trip(self, pair_model, tmp_path):
        points, _ = collect_points(pair_model.model)
        stats = cluster_stats(pair_model.model)
        out = tmp_path / "report.csv"
        write_report_csv(out, points, stats)
        _, _, rows = self.read(out)
        assert len(rows) == len(points)
        by_multi = {s.multi: s for s in stats}
        for point, row in zip(points, rows):
            assert row[:5] == [
                point.word, point.lang,
                str(point.single), str(point.family), str(point.multi),
            ]
            assert float(row[5]) == point.pc1
            stat = by_multi[point.multi]
            assert float(row[7]) == stat.mean_intra_distance


class TestScatterSvg:
    POINTS = [
        WordPoint("aa", "alpha", 0, 0, 0, 0.0, 0.0),
        WordPoint("aa", "beta", 0, 0, 1, 1.0, 2.0),
        WordPoint("bb", "gamma", 1, 1, 0, -1.0, 0.5),
    ]

    def test_document_shape(self):
        svg = render_scatter_svg(self.POINTS)
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480"')
        assert svg.endswith("</svg>\n")
        assert svg.count("<circle ") == len(self.POINTS)
        assert "nan" not in svg

    def test_custom_canvas_size(self):
        svg = render_scatter_svg(self.POINTS, width=300, height=200)
        assert 'width="300" height="200"' in svg
        assert 'viewBox="0 0 300 200"' in svg

    def test_config_becomes_xml_comment(self):
        svg = render_scatter_svg(self.POINTS, config={"seed": "1", "note": "a<b&c"})
        lines = svg.splitlines()
        assert lines[1] == "<!-- config: note=a&lt;b&amp;c seed=1 -->"

    def test_titles_are_escaped(self):
        points = [
            WordPoint("aa", "x<y", 0, 0, 0, 0.0, 0.0),
            WordPoint("aa", "z", 0, 0, 0, 1.0, 1.0),
        ]
        svg = render_scatter_svg(points)
        assert "<title>aa:x&lt;y</title>" in svg
        assert "x<y" not in svg.replace("x&lt;y", "")

    def test_legend_caps_at_twelve(self):
        points = [
            WordPoint("aa", f"w{q}", 0, 0, q, float(q), float(-q)) for q in range(15)
        ]
        svg = render_scatter_svg(points)
        assert sum(1 for ln in svg.splitlines() if ">cluster " in ln) == 12
        assert "+3 more" in svg

    def test_small_legend_lists_every_cluster(self):
        svg = render_scatter_svg(self.POINTS)
        assert ">cluster 0<" in svg and ">cluster 1<" in svg
        assert "more" not in svg

    def test_identical_coordinates_still_render(self):
        points = [
            WordPoint("aa", "u", 0, 0, 0, 2.0, 2.0),
            WordPoint("aa", "v", 0, 0, 0, 2.0, 2.0),
        ]
        svg = render_scatter_svg(points)
        assert svg.count("<circle ") == 2
        assert "nan" not in svg and "inf" not in svg

    def test_byte_stable(self, pair_model, tmp_path):
        points, _ = collect_points(pair_model.model)
        first = render_scatter_svg(points, config={"seed": "5"})
        second = render_scatter_svg(points, config={"seed": "5"})
        assert first == second
        out = tmp_path / "scatter.svg"
        write_report_svg(out, points, config={"seed": "5"})
        assert out.read_text(encoding="utf-8") == first

    def test_rejects_empty_point_list(self):
        with pytest.raises(ValueError, match="no points"):
            render_scatter_svg([])
