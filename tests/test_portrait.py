import io
import math
import tracemalloc

import numpy as np
import pytest

from conftest import written

from pendulum_vib.portrait import (
    PortraitGrid,
    build_grid,
    contours_to_csv,
    extract_contours,
    grid_to_csv,
    render_svg,
)
from pendulum_vib.potential import AveragedParams, v_bar

DOMAIN_I = AveragedParams.from_a_minus_c(0.0, 0.1)
DOMAIN_II = AveragedParams.from_a_minus_c(3.5, 0.01)
PLANAR_II = AveragedParams.from_a_minus_c(2.0, 0.0)


def synthetic_bowl(n=256, centre=1.5, p_max=1.3):
    phi = np.linspace(centre - 1.0 * p_max, centre + 1.0 * p_max, n)
    p = np.linspace(-p_max, p_max, n)
    p = 0.5 * (p - p[::-1])
    values = 0.5 * (phi[:, None] - centre) ** 2 + 0.5 * p[None, :] ** 2
    return PortraitGrid(
        phi=phi,
        p=p,
        values=values,
        levels=(0.5,),
        separatrix_levels=(),
        equilibria=(),
    )


def reference_marching_squares(phi, p, values, level):
    """Cell-by-cell marching squares with tuple edge keys, the loop reference."""
    nx, ny = values.shape
    splits = {1: "AD", 2: "AB", 3: "BD", 4: "BC", 6: "AC", 7: "CD", 8: "CD", 9: "AC",
              11: "BC", 12: "BD", 13: "AB", 14: "AD"}
    # A, B, C, D stand for the cell edges AB, BC, CD and DA
    edge = {"A": lambda i, j: ("p", i, j), "B": lambda i, j: ("f", i + 1, j),
            "C": lambda i, j: ("p", i, j + 1), "D": lambda i, j: ("f", i, j)}
    segments = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            corners = (values[i, j], values[i + 1, j], values[i + 1, j + 1], values[i, j + 1])
            case = sum(1 << k for k, v in enumerate(corners) if v > level)
            if case in (5, 10):
                centre_inside = (corners[0] + corners[1] + corners[2] + corners[3]) > 4.0 * level
                pairs = ["AB", "CD"] if (case == 5) == centre_inside else ["AD", "BC"]
            else:
                pairs = [splits[case]] if case in splits else []
            segments += [(edge[e0](i, j), edge[e1](i, j)) for e0, e1 in pairs]

    def crossing(key):
        kind, i, j = key
        if kind == "p":
            v0 = values[i, j]
            t = (level - v0) / (values[i + 1, j] - v0)
            return (phi[i] + t * (phi[i + 1] - phi[i]), p[j])
        v0 = values[i, j]
        t = (level - v0) / (values[i, j + 1] - v0)
        return (phi[i], p[j] + t * (p[j + 1] - p[j]))

    adjacency = {}
    for idx, seg in enumerate(segments):
        for key in seg:
            adjacency.setdefault(key, []).append(idx)
    used = [False] * len(segments)

    def walk(key):
        chain = [key]
        while True:
            free = [idx for idx in adjacency[key] if not used[idx]]
            if not free:
                return chain
            used[free[0]] = True
            k0, k1 = segments[free[0]]
            key = k1 if k0 == key else k0
            chain.append(key)

    chains = [walk(k) for k in sorted(adjacency)
              if len(adjacency[k]) % 2 == 1 and not all(used[i] for i in adjacency[k])]
    for idx, (k0, k1) in enumerate(segments):
        if not used[idx]:
            used[idx] = True
            chains.append([k0] + walk(k1))
    return [np.array([crossing(k) for k in chain]) for chain in chains]


def test_grid_ranges_and_pole_inset():
    g = build_grid(DOMAIN_I, nx=64, ny=64)
    assert g.phi_range == (0.02, math.pi - 0.02)
    g0 = build_grid(PLANAR_II, nx=64, ny=64)
    assert g0.phi_range == (0.0, math.pi)


def test_grid_is_separable():
    g = build_grid(DOMAIN_II, nx=128, ny=96)
    v = np.array([v_bar(float(x), DOMAIN_II) for x in g.phi])
    for i in (1, 17, 127):
        expected = v[i] - v[0]
        assert np.max(np.abs((g.values[i] - g.values[0]) - expected)) <= 1e-12


def test_grid_mirror_symmetry_in_p():
    g = build_grid(DOMAIN_I, nx=64, ny=65)
    assert np.array_equal(g.p, -g.p[::-1])
    assert np.array_equal(g.values, g.values[:, ::-1])


def test_default_p_max_covers_the_energy_window():
    g = build_grid(DOMAIN_I, nx=64, ny=64)
    v = np.array([v_bar(float(x), DOMAIN_I) for x in g.phi])
    expected = math.sqrt(2.0 * (float(v.max()) - float(v.min())))
    assert g.p_range == (-expected, expected)


def test_levels_domain_one_has_no_separatrix():
    g = build_grid(DOMAIN_I, nx=64, ny=64)
    assert g.separatrix_levels == ()
    assert len(g.levels) == 8
    assert len([eq for eq in g.equilibria if eq.kind == "stable"]) == 1


def test_levels_planar_domain_two_separatrix_energy():
    g = build_grid(PLANAR_II, nx=64, ny=64)
    assert len(g.separatrix_levels) == 1
    assert g.separatrix_levels[0] == pytest.approx(1.25, abs=1e-9)
    assert g.levels[0] == g.separatrix_levels[0]


def test_minimal_grid_builds():
    g = build_grid(DOMAIN_I, nx=2, ny=2)
    assert g.values.shape == (2, 2)
    # the corner energies all sit above every auto level, so nothing crosses
    assert all(lc.polylines == () for lc in extract_contours(g))
    with pytest.raises(ValueError):
        build_grid(DOMAIN_I, nx=1, ny=8)


def test_contours_match_the_loop_reference_bit_for_bit():
    # noisy grids hit every case, both saddle resolutions and values equal to
    # the level; rounded ones make many corners tie
    rng = np.random.default_rng(5)
    grids = [build_grid(DOMAIN_II, nx=40, ny=33), build_grid(PLANAR_II, nx=31, ny=40)]
    for n in range(12):
        values = rng.normal(size=(int(rng.integers(2, 30)), int(rng.integers(2, 30))))
        values = np.round(values, 1) if n % 2 else values
        phi = np.sort(rng.uniform(0.0, 3.0, values.shape[0]))
        p = np.sort(rng.uniform(-2.0, 2.0, values.shape[1]))
        grids.append(PortraitGrid(phi, p, values, (0.0, 0.1, -0.3), (), ()))
    for g in grids:
        for lc in extract_contours(g):
            expected = reference_marching_squares(g.phi, g.p, g.values, lc.level)
            assert len(lc.polylines) == len(expected)
            for poly, ref in zip(lc.polylines, expected):
                assert np.array_equal(poly, ref)


def test_contours_of_constant_grid_are_empty():
    n = 16
    grid = PortraitGrid(
        phi=np.linspace(0.5, 2.5, n),
        p=np.linspace(-1.0, 1.0, n),
        values=np.full((n, n), 3.0),
        levels=(1.0,),
        separatrix_levels=(),
        equilibria=(),
    )
    (lc,) = extract_contours(grid)
    assert lc.polylines == ()


def test_synthetic_bowl_gives_unit_circle():
    n = 256
    grid = synthetic_bowl(n=n)
    (lc,) = extract_contours(grid)
    assert len(lc.polylines) == 1
    poly = lc.polylines[0]
    assert np.array_equal(poly[0], poly[-1])  # closed
    radii = np.hypot(poly[:, 0] - 1.5, poly[:, 1])
    assert np.max(np.abs(radii - 1.0)) < 2.0 / n


def test_contour_vertices_lie_near_the_level():
    # vertices sit on the piecewise-linear level set; their true energy is
    # off by O(h^2 * curvature), so test away from the pole barrier
    grid = build_grid(DOMAIN_II, nx=256, ny=256)
    contours = extract_contours(grid)
    for lc in contours[:3]:
        for poly in lc.polylines:
            for point in poly[:: max(1, len(poly) // 20)]:
                if not (0.5 < point[0] < math.pi - 0.5):
                    continue
                e = 0.5 * point[1] ** 2 + v_bar(float(point[0]), DOMAIN_II)
                assert abs(e - lc.level) < 1e-3


def test_separatrix_passes_near_the_saddle():
    g = build_grid(PLANAR_II, nx=256, ny=256)
    contours = extract_contours(g)
    sep = [lc for lc in contours if lc.is_separatrix]
    assert len(sep) == 1
    saddle = [eq for eq in g.equilibria if eq.kind == "unstable"][0]
    dphi = (g.phi_range[1] - g.phi_range[0]) / (len(g.phi) - 1)
    dp = (g.p_range[1] - g.p_range[0]) / (len(g.p) - 1)
    cells = min(
        math.hypot((pt[0] - saddle.phi) / dphi, pt[1] / dp)
        for poly in sep[0].polylines
        for pt in poly
    )
    assert cells <= 1.5


def test_contours_mirror_symmetric_in_p():
    g = build_grid(DOMAIN_I, nx=96, ny=97)
    for lc in extract_contours(g):
        vertices = np.vstack([poly for poly in lc.polylines]) if lc.polylines else np.empty((0, 2))
        if not len(vertices):
            continue
        mirrored = vertices * np.array([1.0, -1.0])
        # every mirrored vertex has a close counterpart on the same level set
        for pt in mirrored[:: max(1, len(mirrored) // 25)]:
            dist = np.min(np.hypot(vertices[:, 0] - pt[0], vertices[:, 1] - pt[1]))
            assert dist < 2.0 * (g.phi_range[1] - g.phi_range[0]) / len(g.phi)


def test_closed_orbits_around_the_centre():
    base = build_grid(DOMAIN_I, nx=256, ny=256)
    (centre,) = [eq for eq in base.equilibria if eq.kind == "stable"]
    grid = PortraitGrid(
        phi=base.phi,
        p=base.p,
        values=base.values,
        levels=(centre.v_value + 0.05,),
        separatrix_levels=(),
        equilibria=base.equilibria,
    )
    (lc,) = extract_contours(grid)
    assert len(lc.polylines) == 1
    poly = lc.polylines[0]
    assert np.array_equal(poly[0], poly[-1])
    # winding: the closed orbit must enclose the centre point
    angles = np.unwrap(np.arctan2(poly[:, 1], poly[:, 0] - centre.phi))
    assert abs(abs(angles[-1] - angles[0]) - 2.0 * math.pi) < 1e-6


def test_contours_only_meet_at_saddle_cells():
    g = build_grid(PLANAR_II, nx=128, ny=128)
    contours = extract_contours(g)
    dphi = (g.phi_range[1] - g.phi_range[0]) / (len(g.phi) - 1)
    dp = (g.p_range[1] - g.p_range[0]) / (len(g.p) - 1)
    saddles = [eq for eq in g.equilibria if eq.kind == "unstable"]

    def near_saddle(pt):
        return any(
            abs(pt[0] - eq.phi) < 2 * dphi and abs(pt[1]) < 2 * dp for eq in saddles
        )

    # distinct levels are disjoint away from saddle cells: vertices of one
    # level keep a finite gap from vertices of another
    for a in contours:
        for b in contours:
            if b.level <= a.level:
                continue
            va = [pt for poly in a.polylines for pt in poly if not near_saddle(pt)]
            vb = np.vstack([poly for poly in b.polylines]) if b.polylines else None
            if vb is None or not va:
                continue
            for pt in va[:: max(1, len(va) // 40)]:
                gap = np.min(np.hypot(vb[:, 0] - pt[0], vb[:, 1] - pt[1]))
                assert gap > 1e-12


def test_grid_csv_layout():
    g = build_grid(DOMAIN_I, nx=4, ny=3)
    lines = written(grid_to_csv, g).strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "phi"
    assert [float(x) for x in header[1:]] == [float(x) for x in g.p]
    row = lines[2].split(",")
    assert float(row[0]) == float(g.phi[1])
    assert [float(x) for x in row[1:]] == [float(v) for v in g.values[1]]


def test_grid_csv_mirrors_each_row():
    for ny in (6, 7):
        g = build_grid(DOMAIN_II, nx=5, ny=ny)
        lines = written(grid_to_csv, g).splitlines()
        assert lines[0] == "phi," + ",".join(repr(float(x)) for x in g.p)
        for phi, row, line in zip(g.phi, g.values, lines[1:]):
            assert line == ",".join(repr(float(x)) for x in (phi, *row))


def test_grid_csv_refuses_a_grid_that_is_not_mirror_symmetric():
    g = synthetic_bowl(n=8)
    skewed = g.values.copy()
    skewed[3, 1] += 1e-12
    signed_zero = g.values.copy()
    signed_zero[0, 0], signed_zero[0, -1] = 0.0, -0.0  # equal, but repr differs
    for values in (skewed, signed_zero):
        grid = PortraitGrid(
            phi=g.phi, p=g.p, values=values, levels=(), separatrix_levels=(), equilibria=()
        )
        out = io.StringIO()
        with pytest.raises(ValueError, match="mirror"):
            grid_to_csv(grid, out)
        assert out.getvalue() == ""  # refused before the first byte


@pytest.mark.parametrize("ap", [DOMAIN_I, DOMAIN_II, PLANAR_II])
def test_tracing_a_512_grid_takes_under_two_megabytes(ap):
    # the CLI traces the contours in the process that writes them, beside
    # grid.csv's writers, whose own bound is a megabyte
    grid = build_grid(ap, nx=512, ny=512)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        contours = extract_contours(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert contours
    assert peak - start < 2_000_000


def test_contours_csv_layout():
    g = build_grid(PLANAR_II, nx=64, ny=64)
    contours = extract_contours(g)
    lines = written(contours_to_csv, contours).strip().splitlines()
    assert lines[0] == "level,polyline_id,phi,p_phi"
    first = lines[1].split(",")
    assert len(first) == 4
    assert float(first[0]) == contours[0].level


def test_svg_deterministic_and_marks_equilibria():
    g1 = build_grid(DOMAIN_I, nx=96, ny=96)
    c1 = extract_contours(g1)
    svg_a = written(render_svg, g1, c1)
    svg_b = written(render_svg, build_grid(DOMAIN_I, nx=96, ny=96), extract_contours(g1))
    assert svg_a == svg_b
    assert svg_a.count("<circle") == 1  # exactly one centre in domain I
    assert "separatrix" not in svg_a

    g2 = build_grid(DOMAIN_II, nx=96, ny=96)
    svg2 = written(render_svg, g2, extract_contours(g2))
    assert svg2.count("<circle") == 2
    assert svg2.count('class="equilibrium-unstable"') == 1
    assert 'class="separatrix"' in svg2


def test_svg_empty_contours_still_draws_axes():
    g = build_grid(DOMAIN_I, nx=16, ny=16)
    svg = written(render_svg, g, [])
    assert svg.startswith("<?xml")
    assert "<rect" in svg and "<circle" in svg
