"""The builtin scenario corpus.

Shapes: a point, circles (square and hexagon boundaries, a triangle
boundary), a disc (coned square), spheres (octahedron boundary), a torus
(4x4 grid triangulation), a pair of filled triangles, and a six-vertex
projective plane.  Actions range over trivial, reflections, rotations of
orders 2, 3, 6, the antipodal map, a Klein four-group, a point reflection
of the torus, and a free swap; lattices over trivial, sign, and
regular-representation coefficients.

Every scenario is rebuilt on request; regularity subdivisions happen at
build time and are visible on the returned objects.
"""

from __future__ import annotations

from .cohomology import GLattice
from .complexes import build_complex
from .engine import Scenario
from .groups import group_from_permutations

# octahedron boundary: vertices 0..5 with i and i+3 antipodal
_OCTA_FACES = [
    (0, 1, 2), (0, 1, 5), (0, 4, 2), (0, 4, 5),
    (3, 1, 2), (3, 1, 5), (3, 4, 2), (3, 4, 5),
]

# six-vertex projective plane
_RP2_FACES = [
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
]


def _torus_vertex(i, j):
    return 4 * (i % 4) + (j % 4)


def _torus_faces():
    """4x4 grid torus, both directions cyclic.

    On this grid the point reflection (i, j) -> (-i, -j) inverts no edge
    setwise (that would need 2i = -1 mod 4), so the action is regular
    without subdivision; its four fixed vertices are the (even, even) ones.
    """
    faces = []
    for i in range(4):
        for j in range(4):
            faces.append((_torus_vertex(i, j), _torus_vertex(i + 1, j),
                          _torus_vertex(i, j + 1)))
            faces.append((_torus_vertex(i + 1, j), _torus_vertex(i, j + 1),
                          _torus_vertex(i + 1, j + 1)))
    return faces


def _torus_point_reflection():
    perm = [0] * 16
    for i in range(4):
        for j in range(4):
            perm[4 * i + j] = _torus_vertex(-i, -j)
    return tuple(perm)


def _ngon(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _rotation(n, k):
    return tuple((i + k) % n for i in range(n))


_POINT = [(0,)]
_REFL4 = (0, 3, 2, 1)
_REFL5 = (0, 3, 2, 1, 4)
_ROT2, _ROT3, _ROT6 = _rotation(6, 3), _rotation(6, 2), _rotation(6, 1)
_S3_GENS = [(1, 0, 2), (1, 2, 0)]
_ANTI = (3, 4, 5, 0, 1, 2)
_MIRROR = (0, 1, 5, 3, 4, 2)
_HALF_TURN = (3, 4, 2, 0, 1, 5)
_TREFL = _torus_point_reflection()
_SWAP = (3, 4, 5, 0, 1, 2)

# The registry, in corpus order.  name -> (group generators, maximal
# simplices, lattice, description, vertex images).  The lattice is
# "trivial", "regular" or the signs of the generators; vertex images default
# to the group generators themselves.
_BUILTINS = {
    "point-trivial": ([], _POINT, "trivial", "one vertex, trivial group"),
    "point-c2": ([(1, 0)], _POINT, "trivial", "one vertex fixed by an order-2 group", _POINT),
    "point-c2-sign": ([(1, 0)], _POINT, (-1,),
                      "one fixed vertex, coefficients twisted by the sign of C2", _POINT),
    "point-c2-regular": ([(1, 0)], _POINT, "regular",
                         "one fixed vertex, group-algebra coefficients", _POINT),
    "square-reflection": ([_REFL4], _ngon(4), "trivial",
                          "circle with a reflection fixing two opposite vertices"),
    "square-reflection-sign": ([_REFL4], _ngon(4), (-1,),
                               "reflected circle with sign coefficients"),
    "square-reflection-regular": ([_REFL4], _ngon(4), "regular",
                                  "reflected circle with group-algebra coefficients"),
    "hexagon-rot2": ([_ROT2], _ngon(6), "trivial", "circle with a free order-2 rotation"),
    "hexagon-rot2-sign": ([_ROT2], _ngon(6), (-1,),
                          "freely rotated circle with sign coefficients"),
    "hexagon-rot2-regular": ([_ROT2], _ngon(6), "regular",
                             "freely rotated circle with group-algebra coefficients"),
    "hexagon-rot3": ([_ROT3], _ngon(6), "trivial", "circle with a free order-3 rotation"),
    "hexagon-rot3-regular": ([_ROT3], _ngon(6), "regular",
                             "free order-3 rotation with group-algebra coefficients"),
    "hexagon-rot6": ([_ROT6], _ngon(6), "trivial", "circle with a free order-6 rotation"),
    "disc-reflection": ([_REFL5], [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)], "trivial",
                        "coned square with a reflection through two boundary vertices"),
    "triangle-s3": (_S3_GENS, _ngon(3), "trivial",
                    "circle with the full symmetric-group action; needs a subdivision"),
    "triangle-s3-sign": (_S3_GENS, _ngon(3), (-1, 1),
                         "symmetric-group circle with sign coefficients"),
    "triangle-s3-regular": (_S3_GENS, _ngon(3), "regular",
                            "symmetric-group circle with group-algebra coefficients"),
    "octahedron-antipodal": ([_ANTI], _OCTA_FACES, "trivial",
                             "sphere with the free antipodal involution"),
    "octahedron-antipodal-sign": ([_ANTI], _OCTA_FACES, (-1,),
                                  "antipodal sphere with sign coefficients"),
    "octahedron-antipodal-regular": ([_ANTI], _OCTA_FACES, "regular",
                                     "antipodal sphere with group-algebra coefficients"),
    "octahedron-reflection": ([_MIRROR], _OCTA_FACES, "trivial",
                              "sphere with a coordinate reflection fixing the equator"),
    "octahedron-reflection-sign": ([_MIRROR], _OCTA_FACES, (-1,),
                                   "reflected sphere with sign coefficients"),
    "octahedron-klein4": ([_ANTI, _HALF_TURN], _OCTA_FACES, "trivial",
                          "sphere with a Klein four-group mixing free and fixing elements"),
    "torus-involution": ([_TREFL], _torus_faces(), "trivial",
                         "torus with a point reflection fixing four vertices"),
    "torus-involution-sign": ([_TREFL], _torus_faces(), (-1,),
                              "point-reflected torus with sign coefficients"),
    "pair-of-triangles": ([_SWAP], [(0, 1, 2), (3, 4, 5)], "trivial",
                          "free swap of two contractible pieces; lhs is one regular character"),
    "projective-plane": ([], _RP2_FACES, "trivial",
                         "six-vertex projective plane; 2-torsion drives the mod-p comparison"),
}


def builtin_scenario(name: str) -> Scenario:
    """Build the named builtin scenario (KeyError if there is none)."""
    generators, maximal, lattice, description, *images = _BUILTINS[name]
    group = group_from_permutations(len(generators[0]) if generators else 1, generators)
    complex_ = build_complex(maximal, group, images[0] if images else generators)
    if lattice == "trivial":
        lattice = GLattice.trivial(group)
    elif lattice == "regular":
        lattice = GLattice.regular(group)
    else:
        lattice = GLattice.from_generator_matrices(group, 1, [[[u]] for u in lattice])
    return Scenario(name, group, complex_, lattice, description)


def builtin_names() -> list[str]:
    return list(_BUILTINS)


def builtin_scenarios() -> list[Scenario]:
    return [builtin_scenario(name) for name in _BUILTINS]
