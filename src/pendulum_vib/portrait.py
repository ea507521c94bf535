"""Phase-portrait data for the reduced system in the (phi, p_phi) plane.

The reduced energy is separable, p^2/2 + V(phi), so the grid is an outer sum
of a p-parabola and the sampled potential.  Level sets are traced with
marching squares and emitted as CSV and as a deterministic SVG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potential import AveragedParams, Equilibrium, find_equilibria, v_bar

__all__ = [
    "PortraitGrid",
    "LevelContours",
    "build_grid",
    "extract_contours",
    "render_svg",
    "grid_to_csv",
    "contours_to_csv",
]

POLE_INSET = 0.02
DEFAULT_RESOLUTION = 512
AUTO_LEVEL_COUNT = 8


@dataclass(frozen=True, eq=False)
class PortraitGrid:
    """Sampled reduced energies plus the contour levels to draw.

    values[i, j] = p[j]^2 / 2 + V(phi[i]); separatrix_levels are the energies
    of the unstable equilibria (empty when there is no saddle).
    """

    phi: np.ndarray
    p: np.ndarray
    values: np.ndarray
    levels: tuple[float, ...]
    separatrix_levels: tuple[float, ...]
    equilibria: tuple[Equilibrium, ...]

    @property
    def nx(self) -> int:
        return len(self.phi)

    @property
    def ny(self) -> int:
        return len(self.p)

    @property
    def phi_range(self) -> tuple[float, float]:
        return (float(self.phi[0]), float(self.phi[-1]))

    @property
    def p_range(self) -> tuple[float, float]:
        return (float(self.p[0]), float(self.p[-1]))


def build_grid(
    ap: AveragedParams,
    nx: int = DEFAULT_RESOLUTION,
    ny: int = DEFAULT_RESOLUTION,
    p_max: float | None = None,
) -> PortraitGrid:
    """Sample the reduced energy over a regular (phi, p_phi) window.

    The phi window is inset from the poles when B > 0 (where V diverges) and
    the full [0, pi] otherwise.  By default p_max covers the sampled energy
    span, so every auto-selected level intersects the window.  Levels are the
    saddle energies, if any, plus AUTO_LEVEL_COUNT values evenly spaced
    strictly between the extremes of V over the window.  ValueError when the
    p axis is not finite and strictly increasing or an energy is not finite.
    """
    if nx < 2 or ny < 2:
        raise ValueError("grid needs nx, ny >= 2")
    if ap.B > 0.0:
        phi_lo, phi_hi = POLE_INSET, math.pi - POLE_INSET
    else:
        phi_lo, phi_hi = 0.0, math.pi
    phi = np.linspace(phi_lo, phi_hi, nx)
    v = np.array([v_bar(float(x), ap) for x in phi])
    v_min = float(v.min())
    v_max = float(v.max())
    if p_max is None:
        span = v_max - v_min
        p_max = math.sqrt(2.0 * span) if span > 0.0 else 1.0
    if not (p_max > 0.0):
        raise ValueError("p_max must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        p = np.linspace(-p_max, p_max, ny)
        p = 0.5 * (p - p[::-1])  # exact mirror symmetry p[j] == -p[ny-1-j]
        values = v[:, None] + 0.5 * p[None, :] ** 2
    if not (np.isfinite(p).all() and (np.diff(p) > 0.0).all()):
        raise ValueError(f"p_max={p_max!r} gives no finite, increasing p axis of {ny} points")
    if not np.isfinite(values).all():
        raise ValueError("the sampled energies are not all finite")

    eqs = tuple(find_equilibria(ap))
    separatrix = tuple(sorted({v_bar(eq.phi, ap) for eq in eqs if eq.kind == "unstable"}))
    spaced = [
        v_min + k * (v_max - v_min) / (AUTO_LEVEL_COUNT + 1.0)
        for k in range(1, AUTO_LEVEL_COUNT + 1)
    ]
    levels = tuple(separatrix) + tuple(x for x in spaced if x not in separatrix)
    return PortraitGrid(
        phi=phi, p=p, values=values, levels=levels, separatrix_levels=separatrix, equilibria=eqs
    )


@dataclass(frozen=True, eq=False)
class LevelContours:
    """Polylines of one level set; each polyline is an (m, 2) array of (phi, p)."""

    level: float
    polylines: tuple[np.ndarray, ...]
    is_separatrix: bool


# Cell corners, counter-clockwise from the low corner, with bit values:
#   A = (i, j) -> 1,  B = (i+1, j) -> 2,  C = (i+1, j+1) -> 4,  D = (i, j+1) -> 8
# and edges AB, BC, CD, DA between them.  The table maps the "corner above
# level" bitmask to up to two pairs of crossed edges (-1 pads a missing pair).
# The two saddle masks 5 and 10 hold the split for a cell average at or below
# the level; a cell whose average is above it takes the other mask's split.
_AB, _BC, _CD, _DA = 0, 1, 2, 3
_NONE = (-1, -1)
_SEGMENT_TABLE = np.array(
    [
        (_NONE, _NONE),
        ((_AB, _DA), _NONE),
        ((_AB, _BC), _NONE),
        ((_BC, _DA), _NONE),
        ((_BC, _CD), _NONE),
        ((_AB, _DA), (_BC, _CD)),
        ((_AB, _CD), _NONE),
        ((_CD, _DA), _NONE),
        ((_CD, _DA), _NONE),
        ((_AB, _CD), _NONE),
        ((_AB, _BC), (_CD, _DA)),
        ((_BC, _CD), _NONE),
        ((_BC, _DA), _NONE),
        ((_AB, _BC), _NONE),
        ((_AB, _DA), _NONE),
        (_NONE, _NONE),
    ]
)


def _marching_squares(
    phi: np.ndarray, p: np.ndarray, values: np.ndarray, level: float
) -> list[np.ndarray]:
    nx, ny = values.shape
    inside = values > level
    a = inside[:-1, :-1]
    b = inside[1:, :-1]
    c = inside[1:, 1:]
    d = inside[:-1, 1:]
    mask = (
        a.astype(np.int8)
        + (b.astype(np.int8) << 1)
        + (c.astype(np.int8) << 2)
        + (d.astype(np.int8) << 3)
    )
    ci, cj = np.nonzero((mask != 0) & (mask != 15))  # row-major, like a cell loop
    case = mask[ci, cj]
    saddle = np.flatnonzero((case == 5) | (case == 10))
    si, sj = ci[saddle], cj[saddle]
    centre_inside = (
        values[si, sj] + values[si + 1, sj] + values[si + 1, sj + 1] + values[si, sj + 1]
    ) > 4.0 * level
    case[saddle[centre_inside]] ^= 15  # 5 <-> 10

    # Each grid edge gets one integer id, shared by the two cells on it, so
    # chaining is exact and needs no floating-point endpoint matching.  Edges
    # along p at constant phi index i ("f") come first, then edges along phi
    # at constant p index j ("p"); within a kind the id runs i-major.
    f_id = ci * ny + cj
    p_id = nx * ny + f_id
    cell_edges = np.stack([p_id, f_id + ny, p_id + 1, f_id], axis=1)  # AB, BC, CD, DA
    slots = _SEGMENT_TABLE[case].reshape(-1, 2)  # cell-major, then pair order
    cell = np.repeat(np.arange(len(case)), 2)
    keep = slots[:, 0] >= 0
    edge_ids = cell_edges[cell[keep][:, None], slots[keep]]
    nodes, ends = np.unique(edge_ids, return_inverse=True)
    points = _crossings(phi, p, values, level, nodes)
    return [points[chain] for chain in _chain_segments(ends.reshape(-1, 2), len(nodes))]


def _crossings(
    phi: np.ndarray, p: np.ndarray, values: np.ndarray, level: float, edge_ids: np.ndarray
) -> np.ndarray:
    """(phi, p) where the level crosses each edge, linear along the edge."""
    nx, ny = values.shape
    along_phi = edge_ids >= nx * ny
    i, j = np.divmod(np.where(along_phi, edge_ids - nx * ny, edge_ids), ny)
    points = np.empty((len(edge_ids), 2))
    ip, jp = i[along_phi], j[along_phi]
    v0 = values[ip, jp]
    t = (level - v0) / (values[ip + 1, jp] - v0)
    points[along_phi, 0] = phi[ip] + t * (phi[ip + 1] - phi[ip])
    points[along_phi, 1] = p[jp]
    along_p = ~along_phi
    i_f, j_f = i[along_p], j[along_p]
    v0 = values[i_f, j_f]
    t = (level - v0) / (values[i_f, j_f + 1] - v0)
    points[along_p, 0] = phi[i_f]
    points[along_p, 1] = p[j_f] + t * (p[j_f + 1] - p[j_f])
    return points


def _chain_segments(ends: np.ndarray, n_nodes: int) -> list[list[int]]:
    """Node chains of the segment graph; ``ends[s]`` are segment s's two nodes.

    Every node is a grid edge, which at most two cells share, so it joins one
    or two segments.  Open chains start at the one-segment nodes in node
    order; each cycle that remains starts at the first node of its lowest
    segment.
    """
    flat = ends.ravel()
    degree = np.bincount(flat, minlength=n_nodes)
    by_node = np.argsort(flat, kind="stable") // 2  # segments grouped by node, ascending
    start = np.cumsum(degree) - degree
    first = by_node[start]
    second = np.where(degree == 2, by_node[np.minimum(start + 1, len(flat) - 1)], -1)

    seg_a, seg_b = ends[:, 0].tolist(), ends[:, 1].tolist()
    first, second = first.tolist(), second.tolist()
    used = bytearray(len(ends))

    def walk(node: int, seg: int) -> list[int]:
        chain = [node]
        while seg >= 0 and not used[seg]:
            used[seg] = 1
            node = seg_b[seg] if seg_a[seg] == node else seg_a[seg]
            chain.append(node)
            seg = second[node] if first[node] == seg else first[node]
        return chain

    chains = [walk(node, first[node]) for node in np.flatnonzero(degree == 1).tolist()
              if not used[first[node]]]
    chains += [walk(seg_a[seg], seg) for seg in range(len(used)) if not used[seg]]
    return chains


def extract_contours(grid: PortraitGrid) -> list[LevelContours]:
    """Marching-squares level sets for every level of the grid."""
    out = []
    for level in grid.levels:
        polylines = _marching_squares(grid.phi, grid.p, grid.values, float(level))
        out.append(
            LevelContours(
                level=float(level),
                polylines=tuple(polylines),
                is_separatrix=level in grid.separatrix_levels,
            )
        )
    return out


# Fixed drawing geometry and palette; nothing here depends on the wall clock
# or any randomness, so identical inputs give byte-identical documents.
_SVG_W, _SVG_H = 800, 600
_PLOT = (70.0, 20.0, 770.0, 550.0)  # x0, y0, x1, y1
_CONTOUR_STYLE = 'class="contour" fill="none" stroke="#4878a8" stroke-width="1"'
_SEPARATRIX_STYLE = 'class="separatrix" fill="none" stroke="#c0392b" stroke-width="2"'
_MARKER_R = 5.0


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def render_svg(grid: PortraitGrid, contours: list[LevelContours]) -> str:
    """Deterministic SVG of the portrait: contours plus equilibrium markers.

    Stable equilibria are filled circles, unstable and degenerate ones
    crosses; separatrix polylines get their own stroke.
    """
    x0, y0, x1, y1 = _PLOT
    phi_lo, phi_hi = grid.phi_range
    p_lo, p_hi = grid.p_range

    def to_x(phi: float) -> float:
        return x0 + (phi - phi_lo) / (phi_hi - phi_lo) * (x1 - x0)

    def to_y(p: float) -> float:
        return y1 - (p - p_lo) / (p_hi - p_lo) * (y1 - y0)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="#ffffff"/>',
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" height="{_fmt(y1 - y0)}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    for k in range(5):
        phi = phi_lo + k * (phi_hi - phi_lo) / 4.0
        x = to_x(phi)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(y1)}" x2="{_fmt(x)}" y2="{_fmt(y1 + 6)}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y1 + 22)}" font-size="13" text-anchor="middle" '
            f'font-family="sans-serif">{phi:.2f}</text>'
        )
        p = p_lo + k * (p_hi - p_lo) / 4.0
        y = to_y(p)
        parts.append(
            f'<line x1="{_fmt(x0 - 6)}" y1="{_fmt(y)}" x2="{_fmt(x0)}" y2="{_fmt(y)}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 10)}" y="{_fmt(y + 4)}" font-size="13" text-anchor="end" '
            f'font-family="sans-serif">{p:.2f}</text>'
        )
    parts.append(
        f'<text x="{_fmt(0.5 * (x0 + x1))}" y="{_fmt(y1 + 40)}" font-size="15" '
        'text-anchor="middle" font-family="sans-serif">phi</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt(0.5 * (y0 + y1))}" font-size="15" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {_fmt(0.5 * (y0 + y1))})">p_phi</text>'
    )

    for lc in contours:
        style = _SEPARATRIX_STYLE if lc.is_separatrix else _CONTOUR_STYLE
        for poly in lc.polylines:
            # to_x and to_y over the whole polyline, in the same operation order
            xs = x0 + (poly[:, 0] - phi_lo) / (phi_hi - phi_lo) * (x1 - x0)
            ys = y1 - (poly[:, 1] - p_lo) / (p_hi - p_lo) * (y1 - y0)
            coords = " L ".join(f"{x:.3f} {y:.3f}" for x, y in zip(xs.tolist(), ys.tolist()))
            parts.append(f'<path {style} d="M {coords}"/>')

    for eq in grid.equilibria:
        if not (phi_lo <= eq.phi <= phi_hi):
            continue
        x = to_x(eq.phi)
        y = to_y(0.0)
        if eq.kind == "stable":
            parts.append(
                f'<circle class="equilibrium-stable" cx="{_fmt(x)}" cy="{_fmt(y)}" '
                f'r="{_fmt(_MARKER_R)}" fill="#1f3b66"/>'
            )
        else:
            r = _MARKER_R
            parts.append(
                f'<path class="equilibrium-{eq.kind}" stroke="#c0392b" stroke-width="2" '
                f'd="M {_fmt(x - r)} {_fmt(y - r)} L {_fmt(x + r)} {_fmt(y + r)} '
                f'M {_fmt(x - r)} {_fmt(y + r)} L {_fmt(x + r)} {_fmt(y - r)}"/>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def grid_to_csv(grid: PortraitGrid) -> str:
    """CSV of the sampled energies: header row of p values, first column phi.

    Each row is formatted for its first half only and mirrored, so the grid
    must be exactly (bit for bit) symmetric in p, as build_grid makes it;
    ValueError otherwise.
    """
    values = np.asarray(grid.values, dtype=np.float64)
    if not np.array_equal(values.view(np.int64), values[:, ::-1].view(np.int64)):
        raise ValueError("grid values are not exactly mirror-symmetric in p")
    ny = values.shape[1]
    mirrored = ny // 2
    lines = ["phi," + ",".join(map(repr, grid.p.tolist()))]
    for phi, row in zip(grid.phi.tolist(), values[:, : ny - mirrored]):
        cells = [repr(phi), *map(repr, row.tolist())]
        cells += cells[mirrored:0:-1]
        lines.append(",".join(cells))
    lines.append("")  # the final newline, without a second copy of a ~5 MB string
    return "\n".join(lines)


def contours_to_csv(contours: list[LevelContours]) -> str:
    """CSV of the polylines: level, per-level polyline id, phi, p_phi."""
    lines = ["level,polyline_id,phi,p_phi"]
    for lc in contours:
        for pid, poly in enumerate(lc.polylines):
            prefix = f"{lc.level!r},{pid},"
            # one string per polyline and flat column lists: keeping a small
            # object per vertex alive raised peak RSS ~1 MB over repeated runs
            phis, ps = poly[:, 0].tolist(), poly[:, 1].tolist()
            lines.append("\n".join([f"{prefix}{x!r},{y!r}" for x, y in zip(phis, ps)]))
    return "\n".join(lines) + "\n"
