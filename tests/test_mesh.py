import io
import math

import numpy as np
import pytest

from stokes_sdg.mesh import (MeshError, PrimalMesh, RegularityReport, _centroid,
                             _edge_keys, _edge_normals, _fan_areas,
                             _fan_triangles, _pack_cells, build_staggered,
                             generate_polygonal, generate_trapezoidal,
                             generate_triangular, read_mesh, validate,
                             write_mesh)

SPEC_EXAMPLE = ('{"vertices":[[0,0],[0.5,0],[1,0],[1,1],[0.5,1],[0,1]],'
                '"cells":[[0,1,4,5],[1,2,3,4]]}')


# --------------------------------------------------------------- generators

def test_triangular_counts():
    mesh = generate_triangular(2)
    assert mesh.n_cells == 8
    assert mesh.n_vertices == 9


def test_triangular_n1_two_half_squares():
    mesh = generate_triangular(1)
    assert mesh.n_cells == 2
    assert abs(mesh.total_area() - 1.0) < 1e-15


def test_triangular_convex_with_and_without_jitter():
    generate_triangular(4, jitter=0.0)          # constructor validates
    generate_triangular(4, jitter=0.2, seed=3)  # bounded jitter stays valid
    with pytest.raises(MeshError):
        generate_triangular(4, jitter=0.3)
    with pytest.raises(MeshError, match="got nan"):  # nan fails every comparison
        generate_triangular(4, jitter=float("nan"))
    with pytest.raises(MeshError):
        generate_triangular(0)


def test_trapezoidal_counts_and_tiling():
    mesh = generate_trapezoidal(2)
    assert mesh.n_cells == 4
    assert all(len(c) == 4 for c in mesh.cells)
    assert abs(mesh.total_area() - 1.0) < 1e-12


def test_trapezoidal_convex_ccw_n4():
    generate_trapezoidal(4)  # constructor enforces convex CCW


def test_trapezoidal_rejects_odd_n():
    with pytest.raises(MeshError):
        generate_trapezoidal(3)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_polygonal_tiling_and_shapes(n):
    mesh = generate_polygonal(n)
    assert abs(mesh.total_area() - 1.0) < 1e-12
    sizes = {len(c) for c in mesh.cells}
    assert sizes <= {3, 4, 5, 6}
    if n >= 3:  # at n=2 every hexagon touches the boundary
        interior = [c for c in mesh.cells
                    if not np.any(mesh.boundary_vertex[c])]
        assert interior and all(len(c) == 6 for c in interior)


def test_polygonal_rejects_small_n():
    with pytest.raises(MeshError):
        generate_polygonal(1)


@pytest.mark.parametrize("family,gen", [
    ("tri", generate_triangular),
    ("trap", generate_trapezoidal),
    ("poly", generate_polygonal),
])
def test_refinement_halves_h(family, gen):
    h = [build_staggered(gen(n)).h for n in (4, 8, 16)]
    for coarse, fine in zip(h, h[1:]):
        assert abs(coarse / fine - 2.0) < 0.1  # within 5%


# ----------------------------------------------------------------------- io

def test_read_spec_example():
    mesh = read_mesh(io.StringIO(SPEC_EXAMPLE))
    assert mesh.n_cells == 2
    assert mesh.n_vertices == 6


def test_roundtrip_identity():
    for gen, n in ((generate_triangular, 3), (generate_trapezoidal, 4),
                   (generate_polygonal, 3),
                   (lambda n: generate_triangular(n, jitter=0.2, seed=3), 8)):
        mesh = gen(n)
        again = read_mesh(write_mesh(mesh))
        assert again == mesh


def test_clockwise_cell_reports_cell_identity():
    bad = '{"vertices":[[0,0],[1,0],[1,1],[0,1]],"cells":[[0,3,2,1]]}'
    with pytest.raises(MeshError, match="cell 0"):
        read_mesh(bad)


def test_vertex_index_out_of_range():
    bad = '{"vertices":[[0,0],[1,0],[0,1]],"cells":[[0,1,7]]}'
    with pytest.raises(MeshError, match="out of range"):
        read_mesh(bad)


@pytest.mark.parametrize("index", ["-1", "100000000000000000000"])
def test_negative_or_oversized_vertex_index_rejected(index):
    bad = f'{{"vertices":[[0,0],[1,0],[0,1]],"cells":[[0,1,{index}]]}}'
    with pytest.raises(MeshError, match="out of range"):
        read_mesh(bad)


def test_malformed_json_reports_line():
    with pytest.raises(MeshError, match="line"):
        read_mesh('{"vertices": [[0,0],\n  oops')


def test_nonconvex_cell_rejected():
    bad = ('{"vertices":[[0,0],[1,0],[0.4,0.4],[0,1]],"cells":[[0,1,2,3]]}')
    with pytest.raises(MeshError, match="convex"):
        read_mesh(bad)


def test_non_unit_domain_rejected_by_reader():
    bad = '{"vertices":[[0,0],[0.5,0],[0.5,0.5],[0,0.5]],"cells":[[0,1,2,3]]}'
    with pytest.raises(MeshError, match="unit square"):
        read_mesh(bad)


def test_area_one_parallelogram_rejected_by_reader():
    bad = '{"vertices":[[0,0],[1,0],[1.5,1],[0.5,1]],"cells":[[0,1,2,3]]}'
    with pytest.raises(MeshError, match="vertex 2 .* lies outside"):
        read_mesh(bad)


def test_boundary_edge_off_the_square_rejected():
    # the lower-left half of the square, twice: area 1, every vertex in the
    # square, but the diagonal boundary edges cut across it
    bad = ('{"vertices":[[0,0],[1,0],[0,1],[0,0],[1,0],[0,1]],'
           '"cells":[[0,1,2],[3,4,5]]}')
    with pytest.raises(MeshError, match=r"boundary edge \(1, 2\) does not lie"):
        read_mesh(bad)


@pytest.mark.parametrize("index", ["2.7", '"2"', "2.0", "true"])
def test_non_integer_vertex_index_rejected(index):
    # 2.7 used to be truncated to vertex 2 and "2" parsed as 2
    bad = f'{{"vertices":[[0,0],[1,0],[1,1],[0,1]],"cells":[[0,1,{index},3]]}}'
    with pytest.raises(MeshError, match="cell 0: vertex index .* is not an integer"):
        read_mesh(bad)


@pytest.mark.parametrize("coord", ["NaN", "Infinity"])
def test_non_finite_vertex_rejected(coord):
    # vertex 4 is used by no cell, so no area or convexity check sees it
    bad = f'{{"vertices":[[0,0],[1,0],[1,1],[0,1],[{coord},0]],"cells":[[0,1,2,3]]}}'
    with pytest.raises(MeshError, match="vertex 4: .* not finite"):
        read_mesh(bad)


@pytest.mark.parametrize("coord", ['"1"', "true"])
def test_non_number_coordinate_rejected(coord):
    # the float conversion alone reads "1" and true as 1.0
    bad = f'{{"vertices":[[0,0],[1,0],[1,1],[0,{coord}]],"cells":[[0,1,2,3]]}}'
    with pytest.raises(MeshError, match=f"vertex 3: coordinate {coord} is not a number"):
        read_mesh(bad)


def test_unreferenced_vertex_rejected():
    bad = '{"vertices":[[0,0],[1,0],[1,1],[0,1],[0.5,0.5]],"cells":[[0,1,2,3]]}'
    with pytest.raises(MeshError, match="vertex 4 is used by no cell"):
        read_mesh(bad)


def test_cells_not_index_lists_rejected():
    with pytest.raises(MeshError, match="cells must be lists of vertex indices"):
        read_mesh('{"vertices":[[0,0],[1,0],[1,1],[0,1]],"cells":[0,1,2,3]}')


def test_write_mesh_text():
    text = write_mesh(read_mesh(SPEC_EXAMPLE))
    assert text == ('{"vertices":[[0.0,0.0],[0.5,0.0],[1.0,0.0],[1.0,1.0],[0.5,1.0],'
                    '[0.0,1.0]],"cells":[[0,1,4,5],[1,2,3,4]]}')


# ------------------------------------------------------------- staggered

def test_single_triangle_fan():
    mesh = PrimalMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])
    stag = build_staggered(mesh)
    assert stag.n_tris == 3
    assert stag.n_duals == 3
    assert len(stag.boundary_edges) == 3
    assert len(stag.interior_edges) == 0


def test_single_hexagon_fan():
    ang = 2.0 * np.pi * np.arange(6) / 6
    verts = 0.5 + 0.2 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    stag = build_staggered(PrimalMesh(verts, [np.arange(6)]))
    assert stag.n_tris == 6
    assert stag.n_duals == 6


def test_two_cell_triangle_mesh_counts():
    # unit square split along one diagonal: 5 primal edges (1 interior),
    # 6 dual edges
    stag = build_staggered(generate_triangular(1))
    assert stag.n_edges == 5
    assert len(stag.interior_edges) == 1
    assert stag.n_duals == 6


def test_two_cell_quad_mesh_counts():
    stag = build_staggered(read_mesh(SPEC_EXAMPLE))
    assert stag.n_edges == 7
    assert len(stag.interior_edges) == 1
    assert stag.n_duals == 8  # one dual edge per cell vertex, 2 x 4


def test_staggered_invariants_on_all_families():
    for gen, n in ((generate_triangular, 3), (generate_trapezoidal, 4),
                   (generate_polygonal, 3)):
        stag = build_staggered(gen(n))
        # per cell with m vertices: m sub-triangles and m dual edges
        for ci in range(stag.n_cells):
            lo, hi = stag.cell_ptr[ci], stag.cell_ptr[ci + 1]
            m = hi - lo
            assert np.count_nonzero(stag.tri_cell == ci) == m
            sub = stag.tri_area[lo:hi].sum()
            assert abs(sub - stag.cell_area[ci]) < 1e-12 * stag.cell_area[ci]
        assert abs(stag.tri_area.sum() - 1.0) < 1e-12
        # every sub-triangle belongs to exactly one dual region, its base's
        counted = stag.edge_tris[stag.edge_tris >= 0]
        assert np.array_equal(np.sort(counted), np.arange(stag.n_tris))
        base_of = np.full(stag.n_tris, -1)
        for e in range(stag.n_edges):
            for t in stag.edge_tris[e]:
                if t >= 0:
                    base_of[t] = e
        assert np.array_equal(base_of, stag.tri_base)
        # normals are unit and respect the lower-to-higher orientation rule
        assert np.abs(np.linalg.norm(stag.edge_normal, axis=1) - 1.0).max() < 1e-13
        assert np.abs(np.linalg.norm(stag.dual_normal, axis=1) - 1.0).max() < 1e-13
        assert np.all(stag.edge_cells[:, 0] >= 0)
        inter = stag.interior_edges
        assert np.all(stag.edge_cells[inter, 0] < stag.edge_cells[inter, 1])
        assert np.all(stag.dual_tris[:, 0] < stag.dual_tris[:, 1])
        # dual edges never lie on the boundary: x* is strictly interior
        for ci in range(stag.n_cells):
            lo, hi = stag.cell_ptr[ci], stag.cell_ptr[ci + 1]
            d = np.einsum("mc,mc->m", stag.cvert[lo:hi] - stag.xstar[ci],
                          stag.cnorm[lo:hi])
            assert np.all(d > 0.0)



ORACLE_MESHES = [
    ("poly", lambda: generate_polygonal(4)),   # 4-, 5- and 6-vertex cells
    ("tri-jitter", lambda: generate_triangular(8, jitter=0.2, seed=3)),
]


@pytest.mark.parametrize("name,gen", ORACLE_MESHES)
def test_packed_build_matches_single_polygon_helpers(name, gen):
    stag = build_staggered(gen())
    assert set(stag.cell_sizes) == ({4, 5, 6} if name == "poly" else {3})
    for ci in range(stag.n_cells):
        lo, hi = stag.cell_ptr[ci], stag.cell_ptr[ci + 1]
        poly = stag.cvert[lo:hi]
        xstar = _centroid(poly)
        elen, normals = _edge_normals(poly)
        assert np.array_equal(stag.xstar[ci], xstar)
        assert np.array_equal(stag.celen[lo:hi], elen)
        assert np.array_equal(stag.cnorm[lo:hi], normals)
        assert np.array_equal(stag.tri_verts[lo:hi], _fan_triangles(poly, xstar))


@pytest.mark.parametrize("name,gen", ORACLE_MESHES)
def test_packed_build_numbers_edges_by_first_appearance(name, gen):
    stag = build_staggered(gen())
    seen = set()
    for e in stag.loc_edge.tolist():
        if e not in seen:
            assert e == len(seen)  # one more than the largest seen before
            seen.add(e)
    assert len(seen) == stag.n_edges
    inter = stag.interior_edges
    assert np.all(stag.edge_cells[inter, 0] < stag.edge_cells[inter, 1])


def _unchecked_primal(vertices, cells):
    """A PrimalMesh that skips the constructor's checks, to reach the
    staggered build's own."""
    mesh = PrimalMesh.__new__(PrimalMesh)
    mesh.vertices = np.asarray(vertices, dtype=float)
    mesh.cell_ptr, mesh.cell_idx = _pack_cells(cells)
    mesh.edge_key = _edge_keys(mesh.cell_ptr, mesh.cell_idx, mesh.n_vertices)
    mesh.cell_areas = np.ones(mesh.n_cells)
    return mesh


def test_staggered_build_rejects_exterior_centroid():
    # a CCW dart: its reflex vertex puts the centroid outside edge 1
    dart = _unchecked_primal([[0, 0], [1, 0], [0.2, 0.2], [0, 1]], [[0, 1, 2, 3]])
    with pytest.raises(MeshError, match="centroid not interior"):
        build_staggered(dart)


def test_fan_areas_rejects_clockwise_sub_triangle():
    tris = np.array([[[0.5, 0.5], [0, 0], [1, 0]],
                     [[0.5, 0.5], [1, 0], [0, 0]]], dtype=float)
    with pytest.raises(MeshError, match="sub-triangle 1"):
        _fan_areas(tris)
    assert _fan_areas(tris[:1]) == pytest.approx([0.25])


def test_convexity_tolerance_shared_by_mesh_and_polygon():
    # the corner at (1, 0) turns by a relative cross product of 5e-14: inside
    # the tolerance 1e-13 of the one convexity helper, _is_strictly_convex_ccw
    quad = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 5e-14], [0.0, 1.0]])
    with pytest.raises(MeshError, match="not strictly convex"):
        PrimalMesh(quad, [[0, 1, 2, 3]])


def test_boundary_normals_point_outward():
    stag = build_staggered(generate_triangular(2))
    v0, v1 = stag.edge_endpoints()
    mid = 0.5 * (v0 + v1)
    for e in stag.boundary_edges:
        out = mid[e] + 1e-3 * stag.edge_normal[e]
        assert not (0.0 < out[0] < 1.0 and 0.0 < out[1] < 1.0)


def test_interior_normals_lower_to_higher_cell():
    stag = build_staggered(generate_triangular(2))
    v0, v1 = stag.edge_endpoints()
    mid = 0.5 * (v0 + v1)
    for e in stag.interior_edges:
        c2 = stag.edge_cells[e, 1]
        lo, hi = stag.cell_ptr[c2], stag.cell_ptr[c2 + 1]
        cen2 = stag.cvert[lo:hi].mean(axis=0)
        assert np.dot(stag.edge_normal[e], cen2 - mid[e]) > 0.0


# ------------------------------------------------------------- regularity

def test_validate_structured_mesh_passes():
    stag = build_staggered(generate_triangular(8))
    report = validate(stag)
    assert report.ok
    # right triangles with legs 1/8: min |e| / h_T = 1/sqrt(2)
    assert abs(report.rho_e - 1.0 / np.sqrt(2.0)) < 1e-12
    assert report.rho_e > 0.1



@pytest.mark.parametrize("gen", [
    lambda: generate_polygonal(8),
    lambda: generate_triangular(8, jitter=0.2, seed=3),
])
def test_validate_matches_per_cell_loop(gen):
    stag = build_staggered(gen())

    def dist(p, q):
        return math.sqrt((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)

    aspects, rho = [], math.inf
    for ci in range(stag.n_cells):
        lo, hi = stag.cell_ptr[ci], stag.cell_ptr[ci + 1]
        poly = stag.cvert[lo:hi].tolist()
        for t in range(lo, hi):
            x, a, b = stag.tri_verts[t].tolist()
            perim = dist(a, x) + dist(b, a) + dist(x, b)
            aspects.append(stag.tri_diam[t] * perim / (4.0 * stag.tri_area[t]))
        diam = max(dist(p, q) for p in poly for q in poly)
        rho = min(rho, min(stag.celen[lo:hi].tolist()) / diam)
    expected = RegularityReport(
        h=stag.h, aspect_min=min(aspects), aspect_max=max(aspects), rho_e=rho,
        ok=rho >= 0.1 and max(aspects) <= 20.0, rho_e_min=0.1, aspect_max_allowed=20.0)
    assert validate(stag) == expected


def test_validate_sliver_fails():
    sliver = PrimalMesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-5]]), [[0, 1, 2]]
    )
    report = validate(build_staggered(sliver))
    assert not report.ok
    assert report.aspect_max > 20.0


def test_h_decreases_under_refinement():
    h4 = build_staggered(generate_triangular(4)).h
    h8 = build_staggered(generate_triangular(8)).h
    assert abs(h4 / h8 - 2.0) < 0.1
