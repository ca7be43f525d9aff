"""Static SVG emission: pairwise scatter panels and GD/IGD boxplot series.

No external renderer; output is a deterministic string, byte-stable for
identical input.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .pareto import normalizer_from

PANEL = 220
MARGIN = 40
PER_ROW = 3  # scatter panels per row
PALETTE = ("#444444", "#d62728", "#1f77b4", "#2ca02c", "#9467bd")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _panel_points(points, lo, span, ox, oy):
    inner = PANEL - 2 * 14
    x = ox + 14 + (points[:, 0] - lo[0]) / span[0] * inner
    y = oy + PANEL - 14 - (points[:, 1] - lo[1]) / span[1] * inner
    return x, y


def scatter_svg(series: list[tuple[str, np.ndarray]]) -> str:
    """One panel per objective pair, every named point set overlaid.

    All sets must share the same dimension; a one-dimensional input is not
    plottable and raises.
    """
    dims = {np.asarray(p).shape[1] for _, p in series}
    if len(dims) != 1:
        raise ValueError("all point sets must share a dimension")
    m = dims.pop()
    if m < 2:
        raise ValueError("need at least two coordinates to scatter")
    pairs = list(combinations(range(m), 2))
    n_cols = min(PER_ROW, len(pairs))
    n_rows = (len(pairs) + n_cols - 1) // n_cols
    width = MARGIN + n_cols * (PANEL + MARGIN)
    height = MARGIN + n_rows * (PANEL + MARGIN)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    stacked = np.vstack([np.asarray(p, dtype=float) for _, p in series])
    for k, (i, j) in enumerate(pairs):
        ox = MARGIN + (k % n_cols) * (PANEL + MARGIN)
        oy = MARGIN + (k // n_cols) * (PANEL + MARGIN)
        lo, span = normalizer_from(stacked[:, [i, j]])
        pad = 0.05 * span
        lo, span = lo - pad, span + 2 * pad
        out.append(f'<g class="panel" data-pair="f{i + 1}-f{j + 1}">')
        out.append(
            f'<rect x="{ox}" y="{oy}" width="{PANEL}" height="{PANEL}" '
            'fill="none" stroke="#999999"/>'
        )
        out.append(
            f'<text x="{ox + PANEL // 2}" y="{oy + PANEL + 16}" font-size="11" '
            f'text-anchor="middle">f{i + 1}</text>'
        )
        out.append(
            f'<text x="{ox - 8}" y="{oy + PANEL // 2}" font-size="11" '
            f'text-anchor="middle" transform="rotate(-90 {ox - 8} {oy + PANEL // 2})">'
            f"f{j + 1}</text>"
        )
        for s, (label, points) in enumerate(series):
            points = np.asarray(points, dtype=float)[:, [i, j]]
            color = PALETTE[s % len(PALETTE)]
            x, y = _panel_points(points, lo, span, ox, oy)
            for px, py in zip(x, y):
                out.append(
                    f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="1.8" fill="{color}" '
                    f'fill-opacity="0.65"><title>{label}</title></circle>'
                )
        out.append("</g>")
    # legend
    for s, (label, _) in enumerate(series):
        color = PALETTE[s % len(PALETTE)]
        out.append(
            f'<circle cx="{12 + 110 * s}" cy="14" r="4" fill="{color}"/>'
            f'<text x="{20 + 110 * s}" y="18" font-size="11">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _quartiles(values):
    v = np.sort(np.asarray(values, dtype=float))
    return (
        float(v[0]),
        float(np.percentile(v, 25)),
        float(np.percentile(v, 50)),
        float(np.percentile(v, 75)),
        float(v[-1]),
    )


def boxplot_svg(panels: list[tuple[str, dict[int, list[float]]]]) -> str:
    """Side-by-side boxplot panels; each maps an x value to its trial values."""
    width = MARGIN + len(panels) * (PANEL + MARGIN) + PANEL
    height = 2 * MARGIN + PANEL
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for k, (title, groups) in enumerate(panels):
        ox = MARGIN + k * (PANEL + MARGIN + PANEL // 2)
        oy = MARGIN
        keys = sorted(groups)
        all_vals = [v for key in keys for v in groups[key]]
        lo, hi = min(all_vals), max(all_vals)
        span = hi - lo if hi > lo else 1.0
        lo, span = lo - 0.05 * span, span * 1.1
        pw = PANEL + PANEL // 2
        out.append(f'<g class="boxpanel" data-title="{title}">')
        out.append(
            f'<rect x="{ox}" y="{oy}" width="{pw}" height="{PANEL}" fill="none" stroke="#999999"/>'
        )
        out.append(
            f'<text x="{ox + pw // 2}" y="{oy - 8}" font-size="12" text-anchor="middle">{title}</text>'
        )
        slot = pw / max(len(keys), 1)
        for pos, key in enumerate(keys):
            mn, q1, med, q3, mx = _quartiles(groups[key])
            cx = ox + slot * (pos + 0.5)
            half = min(10.0, slot * 0.3)

            def ypix(v):
                return oy + PANEL - (v - lo) / span * PANEL

            out.append(
                f'<line x1="{_fmt(cx)}" y1="{_fmt(ypix(mn))}" x2="{_fmt(cx)}" '
                f'y2="{_fmt(ypix(mx))}" stroke="#333333"/>'
            )
            out.append(
                f'<rect x="{_fmt(cx - half)}" y="{_fmt(ypix(q3))}" width="{_fmt(2 * half)}" '
                f'height="{_fmt(max(ypix(q1) - ypix(q3), 0.5))}" fill="#9ecae1" stroke="#333333"/>'
            )
            out.append(
                f'<line x1="{_fmt(cx - half)}" y1="{_fmt(ypix(med))}" x2="{_fmt(cx + half)}" '
                f'y2="{_fmt(ypix(med))}" stroke="#d62728" stroke-width="1.5"/>'
            )
            out.append(
                f'<text x="{_fmt(cx)}" y="{oy + PANEL + 14}" font-size="10" '
                f'text-anchor="middle">{key}</text>'
            )
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
