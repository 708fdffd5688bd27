import dataclasses
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stokes_sdg.mesh import (_HEXAGON, MeshError, PrimalMesh, RegularityReport,
                             _clip_to_square, _cycle_slots, _edge_table, _pack_cells,
                             _slot_geometry, build_staggered, generate_polygonal,
                             generate_trapezoidal, generate_triangular,
                             read_mesh, validate, write_mesh)

from conftest import (MESH_FILE_REJECTIONS, _file, cells_of, centroid, edge_normals,
                      one_cell, polygon_area, random_convex_polygon)

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
    with pytest.raises(ValueError, match="got 0.3"):
        generate_triangular(4, jitter=0.3)
    with pytest.raises(ValueError, match="got nan"):  # nan fails every comparison
        generate_triangular(4, jitter=float("nan"))
    with pytest.raises(ValueError, match="got 0"):
        generate_triangular(0)


def test_trapezoidal_counts_and_tiling():
    mesh = generate_trapezoidal(2)
    assert mesh.n_cells == 4
    assert all(len(c) == 4 for c in cells_of(mesh))
    assert abs(mesh.total_area() - 1.0) < 1e-12


def test_trapezoidal_convex_ccw_n4():
    generate_trapezoidal(4)  # constructor enforces convex CCW


def test_trapezoidal_rejects_odd_n():
    with pytest.raises(ValueError, match="got 3"):
        generate_trapezoidal(3)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_polygonal_tiling_and_shapes(n):
    mesh = generate_polygonal(n)
    assert abs(mesh.total_area() - 1.0) < 1e-12
    sizes = {len(c) for c in cells_of(mesh)}
    assert sizes <= {3, 4, 5, 6}
    if n >= 3:  # at n=2 every hexagon touches the boundary
        # the boundary is one CCW loop, so each of its vertices starts
        # exactly one boundary edge
        on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
        on_boundary[mesh.cell_idx[mesh.edge_slots[mesh.edge_slots[:, 1] < 0, 0]]] = True
        interior = [c for c in cells_of(mesh) if not np.any(on_boundary[c])]
        assert interior and all(len(c) == 6 for c in interior)


def test_generators_keep_their_numbering():
    # vertex and cell order are part of the mesh-file text, so they are pinned
    tri = [[0, 3, 4], [0, 4, 1], [1, 4, 5], [1, 5, 2],
           [3, 6, 7], [3, 7, 4], [4, 7, 8], [4, 8, 5]]
    assert cells_of(generate_triangular(2)) == tri
    trap = generate_trapezoidal(2)
    assert cells_of(trap) == [[0, 3, 4, 1], [1, 4, 5, 2], [3, 6, 7, 4], [4, 7, 8, 5]]
    assert trap.vertices[:, 1].tolist() == [0.0, 0.375, 1.0, 0.0, 0.625, 1.0,
                                            0.0, 0.375, 1.0]
    poly = generate_polygonal(2)
    assert cells_of(poly) == [
        [0, 1, 2, 3], [4, 5, 6, 2, 1], [7, 8, 5, 4], [2, 6, 9, 10, 11, 3],
        [5, 8, 12, 13, 9, 6], [11, 10, 14, 15], [9, 13, 16, 14, 10], [12, 17, 16, 13]]
    # in (w/2, r/2) lattice units
    assert (poly.vertices * [4, 6]).tolist() == [
        [0, 0], [1, 0], [1, 1], [0, 2], [3, 0], [3, 1], [2, 2], [4, 0], [4, 2],
        [2, 4], [1, 5], [0, 4], [4, 4], [3, 5], [1, 6], [0, 6], [3, 6], [4, 6]]


def test_clip_to_square_corner_and_bottom_row_hexagons():
    # lattice square [0, 8] x [0, 12]: a hexagon centred on the corner keeps
    # a quarter, one centred on the bottom side keeps its upper half, and
    # one inside the square comes back whole
    hexagons = np.array([(0, 0), (4, 0), (4, 6)])[:, None] + _HEXAGON
    pts, corner = _clip_to_square(hexagons, 8, 12)
    assert pts[0][corner[0]].tolist() == [[0, 0], [1, 0], [1, 1], [0, 2]]
    assert pts[1][corner[1]].tolist() == [[5, 0], [5, 1], [4, 2], [3, 1], [3, 0]]
    assert np.array_equal(pts[2][corner[2]], hexagons[2])


def test_polygonal_rejects_small_n():
    with pytest.raises(ValueError, match="got 1"):
        generate_polygonal(1)


@pytest.mark.parametrize("generate", [
    lambda: generate_triangular(0), lambda: generate_triangular(2, jitter=0.3),
    lambda: generate_trapezoidal(0), lambda: generate_trapezoidal(3),
    lambda: generate_polygonal(1),
], ids=["tri-n0", "tri-jitter", "trap-n0", "trap-odd", "poly-n1"])
def test_generator_argument_errors_are_plain_value_errors(generate):
    # MeshError is kept for mesh files and mesh geometry: read_mesh,
    # PrimalMesh and build_staggered, as the tests below check
    with pytest.raises(ValueError) as info:
        generate()
    assert type(info.value) is ValueError


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


@pytest.mark.parametrize("text,message", MESH_FILE_REJECTIONS.values(), ids=MESH_FILE_REJECTIONS)
def test_read_mesh_rejects(text, message):
    with pytest.raises(MeshError, match=message) as info:
        read_mesh(text)
    assert len(str(info.value)) <= 120  # a long value is shown by its ends


def test_read_mesh_names_a_long_integer_in_bytes_too():
    text, message = MESH_FILE_REJECTIONS["digit-limit"]
    with pytest.raises(MeshError, match=message):
        read_mesh(text.encode())


def test_read_mesh_parses_a_float_literal_beyond_the_integer_digit_limit():
    # the 5000 digits that the digit-limit row refuses in an integer
    text = SPEC_EXAMPLE.replace("[1,1]", f"[1,1.{'0' * 5000}]")
    assert read_mesh(text) == read_mesh(SPEC_EXAMPLE)


def test_read_mesh_parses_again_with_a_hook_only_after_a_digit_limit_error(monkeypatch):
    loads, calls = json.loads, []

    def spy(text, **kwargs):
        calls.append(sorted(kwargs))
        return loads(text, **kwargs)
    monkeypatch.setattr(json, "loads", spy)
    read_mesh(write_mesh(generate_polygonal(4)))
    assert calls == [[]]
    with pytest.raises(MeshError):
        read_mesh(MESH_FILE_REJECTIONS["digit-limit"][0])
    assert calls == [[], [], ["parse_int"]]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 7), st.floats())
def test_read_mesh_of_any_coordinate_gives_a_mesh_or_an_error_and_no_warning(k, x):
    rows = [[0, 0], [1, 0], [1, 1], [0, 1]]
    rows[k // 2][k % 2] = x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            assert isinstance(read_mesh(_file(json.dumps(rows))), PrimalMesh)
        except MeshError:
            pass


@pytest.mark.parametrize("x,message", [
    # the fan's centroid would overflow
    (1e300, r"^vertex 1: coordinates \[1e\+300, 0\.0\] exceed 1e\+100 in magnitude$"),
    # edge 0 is (5.8e-224, 0), whose length underflows to 0
    (5.8e-224, "^cell 0: not strictly convex$"),
])
def test_constructor_rejects_a_coordinate_its_geometry_cannot_take(x, message):
    with pytest.raises(MeshError, match=message):
        PrimalMesh([[0, 0], [x, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]])


@example(2, 1e300)
@example(2, 5.8e-224)
@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.integers(0, 7), st.floats())
def test_fan_of_any_coordinate_gives_a_mesh_or_an_error_and_no_warning(k, x):
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    verts[k // 2, k % 2] = x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            build_staggered(PrimalMesh(verts, [[0, 1, 2, 3]]))
        except MeshError:
            pass


# JSON texts of null, booleans, integers (some 10**k beyond int()'s digit
# limit), floats (NaN and Infinity included), short strings, and lists and
# objects of these
_JSON_TEXTS = st.recursive(
    st.one_of(st.sampled_from(["null", "true", "false"]), st.integers().map(str),
              st.integers(0, 5000).map(lambda k: "1" + "0" * k),
              st.floats().map(json.dumps), st.text(max_size=4).map(json.dumps)),
    lambda items: st.one_of(
        st.lists(items, max_size=5).map(lambda xs: f"[{','.join(xs)}]"),
        st.dictionaries(st.sampled_from(["vertices", "cells"]) | st.text(max_size=2), items,
                        max_size=3).map(
            lambda d: "{%s}" % ",".join(f"{json.dumps(k)}:{v}" for k, v in d.items()))),
    max_leaves=12)


@pytest.mark.parametrize("place", ["vertices", "cells", "file"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(doc=_JSON_TEXTS)
def test_read_mesh_of_any_json_gives_a_mesh_or_a_mesh_error(place, doc):
    text = {"vertices": _file(doc), "cells": _file(cells=doc), "file": doc}[place]
    try:
        assert isinstance(read_mesh(text), PrimalMesh)
    except MeshError:
        pass


def _disjoint_cells(sizes):
    """Vertices and cells of disjoint regular CCW polygons, one per entry of
    sizes, side by side; every vertex is used once."""
    verts, cells = [], []
    for c, m in enumerate(sizes):
        ang = 2.0 * np.pi * np.arange(m) / m
        cells.append(list(range(len(verts), len(verts) + m)))
        verts.extend(np.stack([3.0 * c + np.cos(ang), np.sin(ang)], axis=1).tolist())
    return np.array(verts), cells


def _repeat_index(verts, cell):
    cell[2] = cell[0]


def _reverse(verts, cell):
    cell.reverse()


def _zero_length_edge(verts, cell):
    verts[cell[1]] = verts[cell[0]]


def _straight_corner(verts, cell):
    verts[cell[1]] = 0.5 * (verts[cell[0]] + verts[cell[2]])


@pytest.mark.parametrize("defect,message", [
    (_repeat_index, "repeated vertex index"),
    (_reverse, r"vertices not counterclockwise \(signed area -"),
    (_zero_length_edge, "not strictly convex"),
    (_straight_corner, "not strictly convex"),
])
def test_multi_cell_rejection_names_lowest_offending_cell(defect, message):
    # cells of 4, 7, 3 and 5 vertices; cells 1 and 3 break, and cell 3 comes
    # first in ascending cell size
    verts, cells = _disjoint_cells([4, 7, 3, 5])
    PrimalMesh(verts, cells)
    for c in (3, 1):
        defect(verts, cells[c])
    with pytest.raises(MeshError, match=f"^cell 1: {message}"):
        PrimalMesh(verts, cells)


@pytest.mark.parametrize("verts", [
    [[0, 0], [1e-200, 0], [0, 1e-200]],
    [[0, 0], [1e-170, 0], [0, 1e-170]],
    [[0, 0], [1, 0], [2, 0]],
], ids=["1e-200", "1e-170", "collinear"])
def test_zero_area_cell_is_named_as_such(verts):
    # the shoelace terms of the two small triangles underflow to 0, so their
    # orientation cannot be told either
    with pytest.raises(MeshError,
                       match=r"^cell 0: zero area \(collinear, or too small to measure\)$"):
        PrimalMesh(verts, [[0, 1, 2]])


@pytest.mark.parametrize("m", range(7, 13))
def test_large_cell_geometry_and_convexity(m):
    poly = random_convex_polygon(m, np.random.default_rng(m))
    stag = one_cell(poly)
    elen, normals = edge_normals(poly)
    assert np.array_equal(stag.xstar[0], centroid(poly))
    assert np.array_equal(stag.celen, elen)
    assert np.array_equal(stag.cnorm, normals)
    assert np.array_equal(stag.cell_area, [polygon_area(poly)])
    # vertex k pulled inward past the chord of its two neighbours
    for k in range(m):
        mid = 0.5 * (poly[k - 1] + poly[(k + 1) % m])
        dented = poly.copy()
        dented[k] = mid + 0.1 * (centroid(poly) - mid)
        with pytest.raises(MeshError, match="^cell 0: not strictly convex$"):
            PrimalMesh(dented, [list(range(m))])


def test_write_mesh_text():
    text = write_mesh(read_mesh(SPEC_EXAMPLE))
    assert text == ('{"vertices":[[0.0,0.0],[0.5,0.0],[1.0,0.0],[1.0,1.0],[0.5,1.0],'
                    '[0.0,1.0]],"cells":[[0,1,4,5],[1,2,3,4]]}')


@pytest.mark.parametrize("gen", [
    lambda: generate_triangular(64, jitter=0.2, seed=3),
    lambda: generate_trapezoidal(16),
    lambda: generate_polygonal(64),
], ids=["tri-jitter", "trap", "poly-L5"])
def test_write_mesh_text_matches_the_stdlib_writer(gen):
    # the stdlib writer of the list form, as the text was once written
    mesh = gen()
    oracle = json.dumps({"vertices": mesh.vertices.tolist(), "cells": cells_of(mesh)},
                        separators=(",", ":"))
    assert write_mesh(mesh) == oracle


def test_small_coordinate_round_trips_exactly():
    # a triangle with a vertex at (1e-05, 0) and a quad tile the square; the
    # stdlib writes that coordinate as 1e-05, write_mesh as 0.00001
    mesh = PrimalMesh([[0.0, 0.0], [1e-05, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
                      [[0, 1, 2], [1, 3, 4, 2]])
    text = write_mesh(mesh)
    assert "[0.00001,0.0]" in text
    assert np.array_equal(np.array(json.loads(text)["vertices"]), mesh.vertices)
    again = read_mesh(text)
    assert np.array_equal(again.vertices, mesh.vertices)
    assert again == mesh


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_non_contiguous_vertices_write_and_round_trip(layout):
    trap = generate_trapezoidal(4)
    verts, cells = trap.vertices, cells_of(trap)
    if layout == "fortran":
        given = np.asfortranarray(verts)
    else:
        given = np.zeros((len(verts), 4))[:, ::2]
        given[:] = verts
    assert not given.flags.c_contiguous
    mesh = PrimalMesh(given, cells)
    assert mesh.vertices.flags.c_contiguous
    again = read_mesh(write_mesh(mesh))
    assert np.array_equal(again.vertices, verts)
    assert again == mesh


@pytest.mark.parametrize("gen", [
    lambda: generate_triangular(1), lambda: generate_triangular(8),
    lambda: generate_triangular(16, jitter=0.2, seed=5),
    lambda: generate_trapezoidal(2), lambda: generate_trapezoidal(8),
    lambda: generate_polygonal(2), lambda: generate_polygonal(3),
    lambda: generate_polygonal(16),
], ids=["tri1", "tri8", "tri16-jitter", "trap2", "trap8", "poly2", "poly3", "poly16"])
def test_packed_generators_match_the_cycle_constructor(gen):
    mesh = gen()
    again = PrimalMesh(mesh.vertices, cells_of(mesh))
    arrays = {k: v for k, v in vars(mesh).items() if isinstance(v, np.ndarray)}
    assert set(arrays) == {k for k, v in vars(again).items() if isinstance(v, np.ndarray)}
    for name, value in arrays.items():
        other = getattr(again, name)
        assert value.dtype == other.dtype, name
        assert np.array_equal(value, other), name


# ------------------------------------------------------------- staggered

def test_single_triangle_fan():
    mesh = PrimalMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])
    stag = build_staggered(mesh)
    assert len(stag.tri_area) == 3
    assert stag.n_duals == 3
    assert len(stag.boundary_edges) == 3
    assert len(stag.interior_edges) == 0


def test_single_hexagon_fan():
    ang = 2.0 * np.pi * np.arange(6) / 6
    verts = 0.5 + 0.2 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    stag = build_staggered(PrimalMesh(verts, [np.arange(6)]))
    assert len(stag.tri_area) == 6
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


def _prev_slots(stag):
    """k-1 per packed slot k, cyclically within each cell."""
    return np.concatenate([np.roll(np.arange(lo, hi), 1)
                           for lo, hi in zip(stag.cell_ptr[:-1], stag.cell_ptr[1:])])


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
        counted = stag.edge_slots[stag.edge_slots >= 0]
        assert np.array_equal(np.sort(counted), np.arange(stag.n_duals))
        base_of = np.full(stag.n_duals, -1)
        for e in range(stag.n_edges):
            for t in stag.edge_slots[e]:
                if t >= 0:
                    base_of[t] = e
        assert np.array_equal(base_of, stag.loc_edge)
        # normals are unit; dual edge k runs between sub-triangles k-1 and k
        assert np.abs(np.linalg.norm(stag.cnorm, axis=1) - 1.0).max() < 1e-13
        assert np.abs(np.linalg.norm(stag.dual_normal, axis=1) - 1.0).max() < 1e-13
        assert np.array_equal(stag.prev_slot, _prev_slots(stag))
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
ORIENTATION_MESHES = ORACLE_MESHES + [("trap", lambda: generate_trapezoidal(8))]
CELL_SIZES = {"poly": {4, 5, 6}, "tri-jitter": {3}, "trap": {4}}


@pytest.mark.parametrize("name,gen", ORIENTATION_MESHES)
def test_packed_build_matches_single_polygon_helpers(name, gen):
    stag = build_staggered(gen())
    assert set(stag.cell_sizes) == CELL_SIZES[name]
    for ci in range(stag.n_cells):
        lo, hi = stag.cell_ptr[ci], stag.cell_ptr[ci + 1]
        poly = stag.cvert[lo:hi]
        xstar = centroid(poly)
        elen, normals = edge_normals(poly)
        assert np.array_equal(stag.xstar[ci], xstar)
        assert np.array_equal(stag.celen[lo:hi], elen)
        assert np.array_equal(stag.cnorm[lo:hi], normals)
        # the fan sub-triangles (x*, v_k, v_k+1)
        tv = np.stack([np.broadcast_to(xstar, poly.shape), poly, np.roll(poly, -1, axis=0)],
                      axis=1)
        # |e_k| d_k / 2 against the cross product, and the longest side
        e1, e2 = tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0]
        cross = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        assert np.allclose(stag.tri_area[lo:hi], cross, rtol=1e-14, atol=0.0)
        # the build takes dual lengths by hypot, so they may differ in the last bit
        sides = np.linalg.norm(tv - np.roll(tv, 1, axis=1), axis=2)
        assert np.allclose(stag.tri_diam[lo:hi], sides.max(axis=1), rtol=1e-15, atol=0.0)
    assert np.array_equal(stag.prev_slot[stag.next_slot], np.arange(stag.n_duals))


@pytest.mark.parametrize("name,gen", ORACLE_MESHES)
def test_packed_build_numbers_edges_by_first_appearance(name, gen):
    stag = build_staggered(gen())
    seen = set()
    for e in stag.loc_edge.tolist():
        if e not in seen:
            assert e == len(seen)  # one more than the largest seen before
            seen.add(e)
    assert len(seen) == stag.n_edges
    assert np.array_equal(stag.prev_slot, _prev_slots(stag))


@pytest.mark.parametrize("name,gen", ORIENTATION_MESHES)
def test_edge_slots_match_per_cell_dict(name, gen):
    mesh = gen()
    slots_of = {}  # unordered vertex pair -> the slots that traverse it
    for ci, cell in enumerate(cells_of(mesh)):
        lo = mesh.cell_ptr[ci]
        for k, a in enumerate(cell):
            b = cell[(k + 1) % len(cell)]
            slots_of.setdefault(frozenset((a, b)), []).append(lo + k)
    # numbered by first appearance: the edges in order of their first slot
    expected = sorted((s + [-1])[:2] for s in slots_of.values())
    assert mesh.edge_slots.tolist() == expected


@pytest.mark.parametrize("name,gen", ORIENTATION_MESHES)
def test_dual_normals_point_into_second_sub_triangle(name, gen):
    stag = build_staggered(gen())
    # dual edge d enters sub-triangle d = (x*, v_d, v_next(d))
    xstar = stag.xstar[stag.tri_cell]
    second = (xstar + stag.cvert + stag.cvert[stag.next_slot]) / 3.0
    assert np.all(np.einsum("dc,dc->d", stag.dual_normal, second - xstar) > 0.0)


def _unchecked_primal(vertices, cells):
    """A PrimalMesh that skips the constructor's checks, to reach the
    staggered build's own."""
    mesh = PrimalMesh.__new__(PrimalMesh)
    mesh.vertices = np.asarray(vertices, dtype=float)
    mesh.cell_ptr, mesh.cell_idx = _pack_cells(cells)
    mesh.next_slot, mesh.prev_slot = _cycle_slots(mesh.cell_ptr)
    mesh.cvert, mesh.cell_sizes = mesh.vertices[mesh.cell_idx], np.diff(mesh.cell_ptr)
    mesh.tri_cell = np.repeat(np.arange(mesh.n_cells), mesh.cell_sizes)
    mesh.celen, mesh._cross = _slot_geometry(mesh.cvert, mesh.next_slot)[1:]
    mesh.loc_edge, mesh.edge_slots = _edge_table(mesh.cell_idx, mesh.next_slot,
                                                 mesh.n_vertices)[:2]
    mesh.cell_area = np.array([polygon_area(mesh.vertices[c]) for c in cells])
    return mesh


def test_staggered_build_rejects_exterior_centroid():
    # a CCW dart: its reflex vertex puts the centroid outside edge 1
    dart = _unchecked_primal([[0, 0], [1, 0], [0.2, 0.2], [0, 1]], [[0, 1, 2, 3]])
    with pytest.raises(MeshError, match="centroid not interior"):
        build_staggered(dart)


def _annulus():
    """Eight unit-grid squares around a missing middle one, scaled to the
    unit square: a mesh that is not simply connected."""
    verts = [(i / 3.0, j / 3.0) for j in range(4) for i in range(4)]
    cells = [[4 * j + i, 4 * j + i + 1, 4 * j + i + 5, 4 * j + i + 4]
             for j in range(3) for i in range(3) if (i, j) != (1, 1)]
    return PrimalMesh(verts, cells)


def test_staggered_build_rejects_a_hole():
    # around a hole the discrete divergence-free space has one more vector
    # than the curls of P1 stream functions that vanish on the boundary
    with pytest.raises(MeshError, match=re.escape("V - E + C = 0")):
        build_staggered(_annulus())


def test_staggered_build_rejects_a_hanging_vertex():
    # PrimalMesh accepts the mesh: every edge has one or two users
    primal = PrimalMesh(**json.loads(MESH_FILE_REJECTIONS["hanging"][0]))
    with pytest.raises(MeshError, match="vertex hanging on an edge"):
        build_staggered(primal)


def test_staggered_mesh_shares_the_primal_arrays():
    primal = generate_polygonal(4)
    stag = build_staggered(primal)
    assert isinstance(stag, PrimalMesh)
    for name in ("vertices", "cell_ptr", "cell_idx", "cvert", "celen", "tri_cell",
                 "loc_edge", "edge_slots", "cell_area"):
        assert getattr(stag, name) is getattr(primal, name), name
    assert stag == primal
    assert read_mesh(write_mesh(stag)) == primal


def test_convexity_tolerance_shared_by_mesh_and_polygon():
    # the corner at (1, 0) turns by a relative cross product of 5e-14: inside
    # the tolerance 1e-13 of the per-slot turn test in PrimalMesh
    quad = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 5e-14], [0.0, 1.0]])
    with pytest.raises(MeshError, match="not strictly convex"):
        PrimalMesh(quad, [[0, 1, 2, 3]])


def test_slot_normals_point_out_of_their_cell():
    for name, gen in ORIENTATION_MESHES:
        stag = build_staggered(gen())
        mid = 0.5 * (stag.cvert + stag.cvert[stag.next_slot])
        cen = np.array([stag.cvert[lo:hi].mean(axis=0)
                        for lo, hi in zip(stag.cell_ptr[:-1], stag.cell_ptr[1:])])
        away = np.einsum("sc,sc->s", stag.cnorm, mid - cen[stag.tri_cell])
        assert np.all(away > 0.0), name


def test_boundary_normals_point_outward():
    for name, gen in ORIENTATION_MESHES:
        stag = build_staggered(gen())
        v0, v1 = stag.edge_endpoints()
        bd = stag.boundary_edges
        out = 0.5 * (v0[bd] + v1[bd]) + 1e-3 * stag.cnorm[stag.edge_slots[bd, 0]]
        assert not np.any(np.all((out > 0.0) & (out < 1.0), axis=1)), name


def test_interior_normals_lower_to_higher_cell():
    # an interior edge's first slot lies in the lower-numbered cell, whose
    # outward normal there points into the higher one; the second slot's
    # normal is its negative
    for name, gen in ORIENTATION_MESHES:
        stag = build_staggered(gen())
        v0, v1 = stag.edge_endpoints()
        inter = stag.interior_edges
        mid = 0.5 * (v0[inter] + v1[inter])
        first, second = stag.edge_slots[inter].T
        assert np.all(stag.tri_cell[first] < stag.tri_cell[second]), name
        assert np.allclose(stag.cnorm[first], -stag.cnorm[second],
                           rtol=0.0, atol=1e-14), name
        cen = np.array([stag.cvert[stag.cell_ptr[c]:stag.cell_ptr[c + 1]].mean(axis=0)
                        for c in stag.tri_cell[second]])
        assert np.all(np.einsum("ec,ec->e", stag.cnorm[first], cen - mid) > 0.0), name


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
            x, a, b = (stag.xstar[ci].tolist(), stag.cvert[t].tolist(),
                       stag.cvert[stag.next_slot[t]].tolist())
            perim = dist(a, x) + dist(b, a) + dist(x, b)
            aspects.append(stag.tri_diam[t] * perim / (4.0 * stag.tri_area[t]))
        diam = max(dist(p, q) for p in poly for q in poly)
        rho = min(rho, min(stag.celen[lo:hi].tolist()) / diam)
    expected = RegularityReport(
        h=stag.h, aspect_min=min(aspects), aspect_max=max(aspects), rho_e=rho,
        ok=rho >= 0.1 and max(aspects) <= 20.0, rho_e_min=0.1, aspect_max_allowed=20.0)
    report = validate(stag)
    # validate sums the side lengths the build keeps, the loop recomputes them
    for field in dataclasses.fields(RegularityReport):
        got, want = getattr(report, field.name), getattr(expected, field.name)
        if field.name in ("h", "aspect_min", "aspect_max", "rho_e"):
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), field.name
        else:
            assert got == want, field.name


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
