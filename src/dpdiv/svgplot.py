"""Self-contained SVG line plots: polylines, axes, ticks, legend. No assets,
no plotting dependency, deterministic output for identical input."""

from __future__ import annotations

_PALETTE = ("#1f6feb", "#d1242f", "#1a7f37", "#9a6700", "#8250df", "#cf222e")
_TICKS = 6  # about this many ticks per axis


def _nice_ticks(lo: float, hi: float):
    """Round tick values covering [lo, hi]; the caller widens an empty range first."""
    raw = (hi - lo) / (_TICKS - 1)
    mag = 10.0 ** int(f"{raw:e}".split("e")[1])
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = step * (lo // step)
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        if t >= lo - step * 1e-9:
            ticks.append(round(t, 12))
        t += step
    return ticks


def line_plot_svg(series, title="", x_label="", y_label=""):
    """Render series = [{x, y, label}, ...] as a 720 x 480 SVG string.

    Series take the palette colours in order.
    """
    width, height = 720, 480
    ml, mr, mt, mb = 64, 16, 34, 46
    pw, ph = width - ml - mr, height - mt - mb
    xs = [float(v) for s in series for v in s["x"]]
    ys = [float(v) for s in series for v in s["y"]]
    if not xs or not ys:
        raise ValueError("series must contain at least one point")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        if x_lo <= t <= x_hi:
            parts.append(
                f'<line x1="{px(t):.2f}" y1="{mt + ph}" x2="{px(t):.2f}" '
                f'y2="{mt + ph + 4}" stroke="#444"/>'
            )
            parts.append(
                f'<text x="{px(t):.2f}" y="{mt + ph + 18}" text-anchor="middle">'
                f"{t:g}</text>"
            )
    for t in _nice_ticks(y_lo, y_hi):
        if y_lo <= t <= y_hi:
            parts.append(
                f'<line x1="{ml - 4}" y1="{py(t):.2f}" x2="{ml}" y2="{py(t):.2f}" '
                'stroke="#444"/>'
            )
            parts.append(
                f'<text x="{ml - 8}" y="{py(t) + 4:.2f}" text-anchor="end">'
                f"{t:g}</text>"
            )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{y_label}</text>'
    )
    for k, s in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(
            f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(s["x"], s["y"])
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    ly = mt + 12
    for k, s in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(
            f'<line x1="{ml + 10}" y1="{ly}" x2="{ml + 34}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{ml + 40}" y="{ly + 4}">{s.get("label", "")}</text>')
        ly += 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
