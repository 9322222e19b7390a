"""Self-contained SVG line plots for study tables.

No plotting dependency: the figures are assembled as SVG text directly.
Both axes are logarithmic with decade ticks; rate plots can carry dashed
slope guides anchored at the first point of the first series.
"""

import math
import html

WIDTH = 640
HEIGHT = 440
MARGIN_L = 72
MARGIN_R = 24
MARGIN_T = 36
MARGIN_B = 56

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _escape(text):
    """Escape &, < and > for SVG text; quotes stay as they are."""
    return html.escape(text, quote=False)


def _decades(lo, hi):
    start = int(math.floor(math.log10(lo)))
    stop = int(math.ceil(math.log10(hi)))
    return [10.0 ** k for k in range(start, stop + 1)]


def _fmt_tick(value):
    exp = round(math.log10(value))
    if -3 <= exp <= 3:
        return format(value, "g")
    return f"1e{exp:d}"


class _Axis:
    """A log axis from lo to hi onto pixels pix_lo to pix_hi, with the
    decades that fall on it as ticks."""

    def __init__(self, lo, hi, pix_lo, pix_hi):
        lo_, hi_ = math.log10(lo), math.log10(hi)
        if hi_ <= lo_:
            pad = max(abs(lo_) * 0.1, 0.5)
            lo_, hi_ = lo_ - pad, hi_ + pad
        self.lo, self.hi = lo_, hi_
        self.pix_lo, self.pix_hi = pix_lo, pix_hi
        self.ticks = [t for t in _decades(lo, hi)
                      if lo_ - 1e-9 <= math.log10(t) <= hi_ + 1e-9]

    def pix(self, value):
        t = (math.log10(value) - self.lo) / (self.hi - self.lo)
        return self.pix_lo + t * (self.pix_hi - self.pix_lo)


def _collect(xs, series):
    pts = {}
    for label, ys in series.items():
        good = [
            (x, y)
            for x, y in zip(xs, ys)
            if x is not None and y is not None
            and math.isfinite(x) and math.isfinite(y)
        ]
        pts[label] = good
    return pts


def plot(xs, series, xlabel="", ylabel="", title="", guides=()):
    """Render line series to SVG text on log-log axes.

    series maps label -> y values aligned with xs.  Points with a
    nonpositive x or y are dropped.  guides are slopes p drawn as dashed
    lines y = y0 (x/x0)^p through the first plotted point.
    """
    data = _collect(xs, series)
    cleaned = {}
    for label, pts in data.items():
        pts = [(x, y) for x, y in pts if x > 0 and y > 0]
        if pts:
            cleaned[label] = sorted(pts)
    if not cleaned:
        raise ValueError("nothing to plot: all points fell off the axes")

    all_x = [x for pts in cleaned.values() for x, _ in pts]
    all_y = [y for pts in cleaned.values() for _, y in pts]
    ax_x = _Axis(min(all_x), max(all_x), MARGIN_L, WIDTH - MARGIN_R)
    ax_y = _Axis(min(all_y), max(all_y), HEIGHT - MARGIN_B, MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" fill="#222222">'
        f"{_escape(title)}</text>",
    ]

    # frame
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
        f'width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" '
        f'stroke="#444444" stroke-width="1"/>'
    )

    for t in ax_x.ticks:
        px = ax_x.pix(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{HEIGHT - MARGIN_B}" x2="{px:.2f}" '
            f'y2="{HEIGHT - MARGIN_B + 6}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{HEIGHT - MARGIN_B + 20}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11" '
            f'fill="#222222">{_escape(_fmt_tick(t))}</text>'
        )
    for t in ax_y.ticks:
        py = ax_y.pix(t)
        parts.append(
            f'<line x1="{MARGIN_L - 6}" y1="{py:.2f}" x2="{MARGIN_L}" '
            f'y2="{py:.2f}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 10}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#222222">'
            f'{_escape(_fmt_tick(t))}</text>'
        )

    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" '
        f'y="{HEIGHT - 14}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" fill="#222222">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="18" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13" '
        f'fill="#222222" transform="rotate(-90 18 '
        f'{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f})">{_escape(ylabel)}</text>'
    )

    # slope guides, anchored at the first point of the first series
    if guides:
        first_pts = next(iter(cleaned.values()))
        x0, y0 = first_pts[0]
        gx = sorted(all_x)
        for p in guides:
            path = []
            for x in (gx[0], gx[-1]):
                y = y0 * (x / x0) ** p
                path.append((ax_x.pix(x), ax_y.pix(y)))
            d = " ".join(f"{px:.2f},{py:.2f}" for px, py in path)
            parts.append(
                f'<polyline points="{d}" fill="none" stroke="#999999" '
                f'stroke-width="1" stroke-dasharray="5,4"/>'
            )
            lx, ly = path[-1]
            parts.append(
                f'<text x="{lx - 4:.2f}" y="{ly - 5:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10" fill="#999999">'
                f"slope {format(p, 'g')}</text>"
            )

    for idx, (label, pts) in enumerate(cleaned.items()):
        color = PALETTE[idx % len(PALETTE)]
        d = " ".join(f"{ax_x.pix(x):.2f},{ax_y.pix(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{d}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{ax_x.pix(x):.2f}" cy="{ax_y.pix(y):.2f}" '
                f'r="2.6" fill="{color}"/>'
            )
        ly = MARGIN_T + 16 + 16 * idx
        lx = WIDTH - MARGIN_R - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="11" fill="#222222">{_escape(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_plot(path, xs, series, **kwargs):
    text = plot(xs, series, **kwargs)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text
