"""Reporting over a fitted cluster model: flat files, no plotting stack.

The scatter projects every word's final embedding onto the top two
principal axes.  Separation quality is summarized per top-level cluster
by the mean pairwise distance inside it and the mean distance from its
points to their nearest foreign point.  The SVG is assembled by hand
with fixed number formatting, so a given model renders to identical
bytes on every run.
"""

import csv
from dataclasses import dataclass
from typing import Optional
from xml.sax.saxutils import escape

import numpy as np

from .domino import ClusterModel

PALETTE = (
    "#4477aa",
    "#ee6677",
    "#228833",
    "#ccbb44",
    "#66ccee",
    "#aa3377",
    "#bbbbbb",
    "#222255",
    "#999944",
    "#cc3311",
)

# rows of the distance matrix (and pairs summed exactly) held at once by cluster_stats
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class WordPoint:
    lang: str
    word: str
    single: int
    family: int
    multi: int
    pc1: float
    pc2: float


@dataclass(frozen=True)
class ClusterStat:
    multi: int
    size: int
    mean_intra_distance: float
    mean_nearest_other: Optional[float]


def pca_coordinates(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-two principal coordinates of the rows.

    Returns (coords (n, 2), components (2, d), explained variance ratio
    (2,)).  Each component's largest-magnitude entry is made positive,
    which pins the otherwise arbitrary signs.  Rank-one inputs get a
    zero second coordinate.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise ValueError("need at least two points for a projection")
    centered = matrix - matrix.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    components = np.zeros((2, matrix.shape[1]))
    explained = np.zeros(2)
    total = float(np.sum(s**2))
    take = min(2, s.size)
    for r in range(take):
        row = vt[r]
        if row[np.argmax(np.abs(row))] < 0:
            row = -row
        components[r] = row
        if total > 0:
            explained[r] = float(s[r] ** 2 / total)
    return centered @ components.T, components, explained


def _stacked_embeddings(model: ClusterModel) -> tuple[list[tuple[str, str]], np.ndarray]:
    keys = []
    blocks = []
    for lang in sorted(model.chain):
        words = list(model.chain[lang])
        matrix = model.word_embeddings.get(lang)
        if matrix is None or matrix.shape[0] != len(words):
            raise ValueError(f"model is missing embeddings for language {lang!r}")
        keys.extend((lang, w) for w in words)
        blocks.append(matrix)
    return keys, np.vstack(blocks)


def collect_points(model: ClusterModel) -> tuple[list[WordPoint], np.ndarray]:
    """Every word as a projected point, plus the explained variance."""
    keys, matrix = _stacked_embeddings(model)
    coords, _, explained = pca_coordinates(matrix)
    points = []
    for (lang, word), (x, y) in zip(keys, coords):
        t, g, q = model.chain[lang][word]
        points.append(WordPoint(lang, word, t, g, q, float(x), float(y)))
    return points, explained


def _pairwise_distances(
    matrix: np.ndarray, centered: np.ndarray, sq: np.ndarray, rows: slice
) -> np.ndarray:
    """Euclidean distances from ``matrix[rows]`` to every row.

    Uses |a|^2 + |b|^2 - 2 a.b on the centred rows; where that leaves less
    than 1e-3 of |a|^2 + |b|^2 (the diagonal, near-duplicates) its digits
    have cancelled and the squared distance is summed from the difference.
    """
    d2 = centered[rows] @ centered.T
    d2 *= -2.0
    raw = sq[rows, None] + sq[None, :]
    d2 += raw
    raw *= 1e-3
    ii, jj = np.nonzero(d2 <= raw)
    for s in range(0, ii.size, _BLOCK_ROWS):
        i, j = ii[s : s + _BLOCK_ROWS], jj[s : s + _BLOCK_ROWS]
        diff = matrix[rows.start + i] - matrix[j]
        d2[i, j] = np.einsum("ij,ij->i", diff, diff)
    return np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)


def cluster_stats(model: ClusterModel) -> list[ClusterStat]:
    """Cohesion and separation per top-level cluster, in embedding space.

    Distances are taken a block of rows at a time against all N rows, so
    memory grows as block x N, not N x N x d.
    """
    keys, matrix = _stacked_embeddings(model)
    multi = [model.chain[lang][word][2] for lang, word in keys]
    ids, labels = np.unique(multi, return_inverse=True)
    # rows sorted by cluster, so each cluster's columns are one slice
    order = np.argsort(labels, kind="stable")
    matrix, labels = matrix[order], labels[order]
    bounds = np.searchsorted(labels, np.arange(ids.size + 1))
    spans = list(zip(bounds[:-1], bounds[1:]))
    sizes = np.diff(bounds)
    centered = matrix - matrix.mean(axis=0)
    sq = np.einsum("ij,ij->i", centered, centered)
    intra_sum = np.zeros(ids.size)
    nearest_sum = np.zeros(ids.size)
    for start in range(0, labels.size, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, labels.size))
        dist = _pairwise_distances(matrix, centered, sq, rows)
        own = labels[rows]
        at = np.arange(own.size)
        sums = np.stack([dist[:, lo:hi].sum(axis=1) for lo, hi in spans], axis=1)
        intra_sum += np.bincount(own, weights=sums[at, own], minlength=ids.size)
        if ids.size > 1:
            mins = np.stack([dist[:, lo:hi].min(axis=1) for lo, hi in spans], axis=1)
            mins[at, own] = np.inf
            nearest_sum += np.bincount(own, weights=mins.min(axis=1), minlength=ids.size)
    stats = []
    for q, size, intra, nearest in zip(ids, sizes, intra_sum, nearest_sum):
        # every pair was summed from both of its rows
        intra = float(intra / (size * (size - 1))) if size >= 2 else 0.0
        nearest = float(nearest / size) if ids.size > 1 else None
        stats.append(ClusterStat(int(q), int(size), intra, nearest))
    return stats


def _config_comment(config: dict) -> str:
    pairs = " ".join(f"{k}={config[k]}" for k in sorted(config))
    return f"# config: {pairs}"


def write_report_csv(
    path,
    points: list[WordPoint],
    stats: Optional[list[ClusterStat]] = None,
    config: Optional[dict] = None,
) -> None:
    """One data row per word: identity, chain ids, projected coordinates,
    and its top-level cluster's cohesion metrics.

    ``mean_nearest_other`` is empty when no other cluster exists.  When a
    config map is given it is echoed as a leading ``# config:`` comment
    line before the header (readers that honor ``#`` comments skip it).
    """
    by_multi = {s.multi: s for s in (stats or [])}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if config is not None:
            fh.write(_config_comment(config) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "word", "lang", "single", "family", "multi", "pc1", "pc2",
                "mean_intra_distance", "mean_nearest_other",
            ]
        )
        for p in points:
            stat = by_multi.get(p.multi)
            intra = "" if stat is None else repr(stat.mean_intra_distance)
            nearest = (
                ""
                if stat is None or stat.mean_nearest_other is None
                else repr(stat.mean_nearest_other)
            )
            writer.writerow(
                [
                    p.word, p.lang, p.single, p.family, p.multi,
                    repr(p.pc1), repr(p.pc2), intra, nearest,
                ]
            )


def _bounds(values: list[float]) -> tuple[float, float]:
    lo = min(values)
    hi = max(values)
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    return lo - pad, hi + pad


def render_scatter_svg(
    points: list[WordPoint],
    width: int = 640,
    height: int = 480,
    config: Optional[dict] = None,
) -> str:
    """Scatter of the projected words, colored by top-level cluster.

    Pure string assembly with %.2f coordinates; no plotting library, so
    the output is byte-stable.  A config map is echoed as an XML comment.
    """
    if not points:
        raise ValueError("no points to draw")
    margin = 48
    xmin, xmax = _bounds([p.pc1 for p in points])
    ymin, ymax = _bounds([p.pc2 for p in points])

    def sx(x: float) -> float:
        return margin + (x - xmin) / (xmax - xmin) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - ymin) / (ymax - ymin) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    if config is not None:
        pairs = " ".join(f"{k}={config[k]}" for k in sorted(config))
        parts.append(f"<!-- config: {escape(pairs)} -->")
    parts += [
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#444444"/>',
        f'<text x="{width / 2:.2f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">word embeddings, top-level clusters</text>',
        f'<text x="{width / 2:.2f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">pc1</text>',
        f'<text x="16" y="{height / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 16 {height / 2:.2f})">pc2</text>',
    ]
    for p in points:
        color = PALETTE[p.multi % len(PALETTE)]
        parts.append(
            f'<circle cx="{sx(p.pc1):.2f}" cy="{sy(p.pc2):.2f}" r="3" '
            f'fill="{color}" fill-opacity="0.8">'
            f"<title>{escape(f'{p.lang}:{p.word}')}</title></circle>"
        )
    legend_ids = sorted(set(p.multi for p in points))
    shown = legend_ids[:12]
    for row, q in enumerate(shown):
        y = margin + 14 + 16 * row
        color = PALETTE[q % len(PALETTE)]
        parts.append(
            f'<rect x="{margin + 8}" y="{y - 9}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{margin + 22}" y="{y}" font-family="sans-serif" '
            f'font-size="11">cluster {q}</text>'
        )
    if len(legend_ids) > len(shown):
        y = margin + 14 + 16 * len(shown)
        parts.append(
            f'<text x="{margin + 8}" y="{y}" font-family="sans-serif" '
            f'font-size="11">+{len(legend_ids) - len(shown)} more</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report_svg(path, points: list[WordPoint], config: Optional[dict] = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_scatter_svg(points, config=config))
