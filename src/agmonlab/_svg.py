"""Minimal deterministic SVG line/scatter rendering for experiment reports.

Standalone vector files built by pure string assembly: fixed canvas
geometry, fixed numeric formatting, and a fixed palette, so identical
inputs produce byte-identical output on every platform.  Log axes take
base-10 logarithms of the data and label ticks with the original values.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass

__all__ = ["Series", "render_plot"]

_WIDTH = 720.0
_HEIGHT = 480.0
_LEFT, _TOP, _RIGHT, _BOTTOM = 84.0, 46.0, 688.0, 414.0
_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#17becf",
    "#8c564b",
    "#e377c2",
)
_STYLES = ("line", "scatter", "dashed")


def _escape(text: str) -> str:
    """Escape &, < and > for SVG text content; quotes are left as they are."""
    return html.escape(text, quote=False)


@dataclass(frozen=True)
class Series:
    """One plotted curve: parallel coordinate tuples plus a draw style."""

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    style: str = "line"

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.label!r} has {len(self.x)} x values but "
                f"{len(self.y)} y values"
            )
        if len(self.x) == 0:
            raise ValueError(f"series {self.label!r} is empty")
        if self.style not in _STYLES:
            raise ValueError(
                f"unknown series style {self.style!r}; expected one of "
                f"{', '.join(_STYLES)}"
            )
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if not all(math.isfinite(v) for v in self.x + self.y):
            raise ValueError(f"series {self.label!r} has non-finite values")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_positions(lo: float, hi: float) -> tuple[float, ...]:
    """Round tick locations covering [lo, hi], at most six of them."""
    span = hi - lo
    if span <= 0.0:
        return (lo,)
    step = 10.0 ** math.floor(math.log10(span / 4.0))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= 5.5:
            step *= mult
            break
    start = math.ceil(lo / step - 1e-9) * step
    ticks = []
    value = start
    index = 0
    while value <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(value) < 1e-12 * span else value)
        index += 1
        value = start + index * step
    return tuple(ticks)


def _transform(values, log_scale: bool, axis: str):
    if not log_scale:
        return [float(v) for v in values]
    out = []
    for v in values:
        if not v > 0.0:
            raise ValueError(
                f"log-scale {axis} axis requires positive values, got {v!r}"
            )
        out.append(math.log10(float(v)))
    return out


def _tick_label(value: float, log_scale: bool) -> str:
    return f"{10.0 ** value:.3g}" if log_scale else f"{value:.4g}"


def render_plot(
    series,
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    logx: bool = False,
    logy: bool = False,
) -> str:
    """Render series into a standalone SVG document string."""
    series = tuple(series)
    if not series:
        raise ValueError("no series to plot")
    xs_all: list[float] = []
    ys_all: list[float] = []
    transformed = []
    for item in series:
        tx = _transform(item.x, logx, "x")
        ty = _transform(item.y, logy, "y")
        transformed.append((item, tx, ty))
        xs_all.extend(tx)
        ys_all.extend(ty)

    def _bounds(values):
        lo, hi = min(values), max(values)
        if hi - lo <= 0.0:
            pad = max(0.5 * abs(lo), 1.0)
            return lo - pad, hi + pad
        pad = 0.05 * (hi - lo)
        return lo - pad, hi + pad

    x_lo, x_hi = _bounds(xs_all)
    y_lo, y_hi = _bounds(ys_all)

    def px(v: float) -> float:
        return _LEFT + (v - x_lo) / (x_hi - x_lo) * (_RIGHT - _LEFT)

    def py(v: float) -> float:
        return _BOTTOM - (v - y_lo) / (y_hi - y_lo) * (_BOTTOM - _TOP)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        f'<rect x="0" y="0" width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
        'fill="#ffffff"/>',
        f'<rect x="{_fmt(_LEFT)}" y="{_fmt(_TOP)}" '
        f'width="{_fmt(_RIGHT - _LEFT)}" height="{_fmt(_BOTTOM - _TOP)}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
        f'<text x="{_fmt((_LEFT + _RIGHT) / 2)}" y="24.00" '
        'font-family="monospace" font-size="15" text-anchor="middle">'
        f"{_escape(title)}</text>",
        f'<text x="{_fmt((_LEFT + _RIGHT) / 2)}" y="{_fmt(_HEIGHT - 14.0)}" '
        'font-family="monospace" font-size="13" text-anchor="middle">'
        f"{_escape(xlabel)}</text>",
        f'<text x="20.00" y="{_fmt((_TOP + _BOTTOM) / 2)}" '
        'font-family="monospace" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 20.00 {_fmt((_TOP + _BOTTOM) / 2)})">'
        f"{_escape(ylabel)}</text>",
    ]

    for tick in _tick_positions(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(_TOP)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(_BOTTOM)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(_BOTTOM + 18.0)}" '
            'font-family="monospace" font-size="11" text-anchor="middle">'
            f"{_escape(_tick_label(tick, logx))}</text>"
        )
    for tick in _tick_positions(y_lo, y_hi):
        y = py(tick)
        parts.append(
            f'<line x1="{_fmt(_LEFT)}" y1="{_fmt(y)}" x2="{_fmt(_RIGHT)}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(_LEFT - 8.0)}" y="{_fmt(y + 4.0)}" '
            'font-family="monospace" font-size="11" text-anchor="end">'
            f"{_escape(_tick_label(tick, logy))}</text>"
        )

    for index, (item, tx, ty) in enumerate(transformed):
        color = _PALETTE[index % len(_PALETTE)]
        points = [(px(a), py(b)) for a, b in zip(tx, ty)]
        if item.style == "scatter" or len(points) == 1:
            for a, b in points:
                parts.append(
                    f'<circle cx="{_fmt(a)}" cy="{_fmt(b)}" r="3.50" '
                    f'fill="{color}"/>'
                )
        else:
            dash = ' stroke-dasharray="6 4"' if item.style == "dashed" else ""
            path = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in points)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                f'stroke-width="1.50"{dash}/>'
            )

    for index, (item, _, _) in enumerate(transformed):
        color = _PALETTE[index % len(_PALETTE)]
        y = _TOP + 16.0 + 16.0 * index
        parts.append(
            f'<line x1="{_fmt(_RIGHT - 150.0)}" y1="{_fmt(y - 4.0)}" '
            f'x2="{_fmt(_RIGHT - 126.0)}" y2="{_fmt(y - 4.0)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(_RIGHT - 120.0)}" y="{_fmt(y)}" '
            'font-family="monospace" font-size="11">'
            f"{_escape(item.label)}</text>"
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
