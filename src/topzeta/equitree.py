"""Decorated resolution trees for plane curve singularities.

A tree is a nested structure of bamboos.  A bamboo is a slope-increasing
list of faces; a face carries a coprime pair ``(a, b)`` with ``a, b >= 1``,
the Newton pair of the curve in the chart of the toric modification
before it, plus a nonempty list of branch classes.  A branch class is
either a :class:`Leaf` (a single smooth branch of the curve) or a whole
sub-bamboo describing how that class of branches keeps splitting after
the toric modification attached at this face.

``annotate`` walks the tree twice.  One bottom-up pass validates it and
measures it: while it checks a bamboo it returns the bamboo's
multiplicity, the sum of ``a_t * A_t`` over its faces, and records the
class multiplicities ``A`` of each face.  One top-down pass then runs the
multiplicity recursion: every face receives its class multiplicities,
prefix and suffix weights, the multiplicity of the pullback of the curve
along its divisor, the log-discrepancy style weight ``nu``, and the
constant chain determinant of the cone segment above it.  Each
sub-bamboo inherits the pair ``(mult, nu)`` of its attachment face as its
base context; the root bamboo starts from ``(0, 1)``.

A Newton-nondegenerate polynomial is the depth-one case: its face list
``(a, b, r)`` is the root bamboo with ``r`` leaves on each face, which
``annotate_faces`` builds and annotates (the ordinary node is the face
``(1, 1)`` with two leaves).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple


@dataclass(frozen=True)
class Leaf:
    """A single smooth irreducible branch; class multiplicity one."""


LEAF = Leaf()


@dataclass(frozen=True)
class Face:
    a: int
    b: int
    classes: tuple

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))


@dataclass(frozen=True)
class Bamboo:
    faces: tuple

    def __post_init__(self):
        object.__setattr__(self, "faces", tuple(self.faces))


class Diagnostic(NamedTuple):
    path: str
    message: str

    def __str__(self):
        return f"{self.message} at path {self.path}"


class TreeJSONError(ValueError):
    """Structural violation of the tree JSON schema."""

    def __init__(self, message, path):
        super().__init__(f"{message} at path {path or '/'}")
        self.path = path


class InvalidTreeError(ValueError):
    """A tree that fails validation: ``problems`` holds every diagnostic,
    and the message is the first."""

    def __init__(self, problems):
        super().__init__(str(problems[0]))
        self.problems = problems


def validate(tree: Bamboo) -> list[Diagnostic]:
    """Check all structural constraints; empty list means valid."""
    out = []
    _validate_bamboo(tree, "", out, {})
    return out


def _validate_bamboo(bamboo, path, out, class_mults):
    """Append to ``out`` what is wrong with ``bamboo`` and its sub-bamboos,
    and return its multiplicity, the sum of ``a_t * A_t`` over its faces,
    with the class multiplicities of each face kept in
    ``class_mults[id(bamboo)]``.  Both mean nothing once ``out`` holds a
    diagnostic.  Plain loops keep one frame per level."""
    if not isinstance(bamboo, Bamboo):
        out.append(Diagnostic(path or "/", "not a bamboo"))
        return 0
    if not bamboo.faces:
        out.append(Diagnostic(f"{path}/faces", "bamboo has no faces"))
        return 0
    total = 0
    per_face = []
    prev = None
    for i, face in enumerate(bamboo.faces):
        fpath = f"{path}/faces/{i}"
        if not isinstance(face, Face):
            out.append(Diagnostic(fpath, "not a face"))
            continue
        if not (isinstance(face.a, int) and isinstance(face.b, int)):
            out.append(Diagnostic(fpath, "a and b must be integers"))
            continue
        if face.a < 1:
            out.append(Diagnostic(fpath, "a < 1"))
        if face.b < 1:
            out.append(Diagnostic(fpath, "b < 1"))
        if face.a >= 1 and face.b >= 1 and gcd(face.a, face.b) != 1:
            out.append(Diagnostic(fpath, "gcd(a,b) != 1"))
        if prev is not None and prev[0] * face.b - prev[1] * face.a <= 0:
            out.append(Diagnostic(fpath, "slope order violated"))
        prev = (face.a, face.b)
        if not face.classes:
            out.append(Diagnostic(f"{fpath}/classes", "face has no branch classes"))
        ms = []
        for l, cls in enumerate(face.classes):
            if isinstance(cls, Leaf):
                ms.append(1)
            else:
                ms.append(_validate_bamboo(cls, f"{fpath}/classes/{l}", out, class_mults))
        per_face.append(ms)
        total += face.a * sum(ms)
    class_mults[id(bamboo)] = per_face
    return total


@dataclass(frozen=True)
class AnnotatedFace:
    a: int
    b: int
    classes: tuple
    class_mults: tuple[int, ...]
    face_mult: int          # A: total multiplicity of the branch classes
    alpha: int              # base_mult + sum of b_t * A_t over faces up to here
    beta: int               # sum of a_t * A_t over the later faces
    mult: int               # multiplicity N of the pullback on this divisor
    nu: int                 # a * base_nu + b
    chain_det: int          # base_nu * beta - alpha, constant on the segment above


@dataclass(frozen=True)
class AnnotatedBamboo:
    path: tuple             # ((face index, class index), ...) from the root
    base_mult: int
    base_nu: int
    beta0: int              # sum of a_t * A_t over all faces
    chain_det0: int         # base_nu * beta0 - base_mult
    faces: tuple[AnnotatedFace, ...]


@dataclass(frozen=True)
class AnnotatedTree:
    bamboos: tuple[AnnotatedBamboo, ...]   # depth-first, parents first

    @property
    def root(self) -> AnnotatedBamboo:
        return self.bamboos[0]


def annotate(tree: Bamboo) -> AnnotatedTree:
    """Validate the tree and run the multiplicity recursion over it.

    One bottom-up pass, ``_validate_bamboo``, checks every bamboo and
    measures the class multiplicities of its faces; one top-down pass,
    ``walk``, gives each face its annotation.  Raises InvalidTreeError
    when validation fails.  Within every bamboo the suffix weight of the
    last face is zero, so its multiplicity is divisible by its a; in the
    root bamboo the multiplicity of the first face is divisible by its b.
    Both facts are asserted here because the monodromy computation
    divides by exactly these factors.
    """
    problems = []
    class_mults = {}    # id of a bamboo -> the class multiplicities of each face
    _validate_bamboo(tree, "", problems, class_mults)
    if problems:
        raise InvalidTreeError(problems)
    bamboos = []

    def walk(bamboo, path, base_mult, base_nu):
        per_class = class_mults[id(bamboo)]
        face_mults = [sum(ms) for ms in per_class]
        k = len(bamboo.faces)
        suffix = [0] * (k + 1)
        for i in range(k - 1, -1, -1):
            suffix[i] = suffix[i + 1] + bamboo.faces[i].a * face_mults[i]
        faces = []
        alpha = base_mult
        for i, f in enumerate(bamboo.faces):
            alpha += f.b * face_mults[i]
            beta = suffix[i + 1]
            mult = f.a * alpha + f.b * beta
            nu = f.a * base_nu + f.b
            assert mult > base_mult and nu > base_nu
            faces.append(AnnotatedFace(
                a=f.a, b=f.b, classes=f.classes,
                class_mults=tuple(per_class[i]), face_mult=face_mults[i],
                alpha=alpha, beta=beta, mult=mult, nu=nu,
                chain_det=base_nu * beta - alpha,
            ))
        assert faces[-1].mult == bamboo.faces[-1].a * faces[-1].alpha
        if base_mult == 0:
            assert faces[0].mult == bamboo.faces[0].b * suffix[0]
        bamboos.append(AnnotatedBamboo(
            path=path, base_mult=base_mult, base_nu=base_nu,
            beta0=suffix[0], chain_det0=base_nu * suffix[0] - base_mult,
            faces=tuple(faces),
        ))
        for i, f in enumerate(bamboo.faces):
            for l, cls in enumerate(f.classes):
                if isinstance(cls, Bamboo):
                    walk(cls, path + ((i, l),), faces[i].mult, faces[i].nu)

    walk(tree, (), 0, 1)
    return AnnotatedTree(tuple(bamboos))


def annotate_faces(faces) -> AnnotatedTree:
    """Annotated one-bamboo tree of a Newton-nondegenerate face list.

    Each entry ``(a, b, r)`` is a slope-increasing coprime pair with
    ``a, b >= 1`` and the number ``r >= 1`` of distinct roots of its face
    polynomial, which become ``r`` leaves on that face.  A bad list raises
    ValueError with the first diagnostic of that tree.
    """
    return annotate(Bamboo(tuple(Face(a, b, (LEAF,) * r) for a, b, r in faces)))


# ---------------------------------------------------------------------------
# JSON schema: {"faces": [{"a": int, "b": int, "classes": ["leaf" | {...}]}]}
# Unknown keys are rejected; booleans are not integers.

def tree_from_json(data) -> Bamboo:
    return _bamboo_from_json(data, "")


def _bamboo_from_json(obj, path):
    if not isinstance(obj, dict):
        raise TreeJSONError("expected an object", path)
    extra = set(obj) - {"faces"}
    if extra:
        raise TreeJSONError(f"unknown keys {sorted(extra)}", path)
    if "faces" not in obj:
        raise TreeJSONError("missing key 'faces'", path)
    if not isinstance(obj["faces"], list):
        raise TreeJSONError("'faces' must be a list", f"{path}/faces")
    faces = []
    for i, fobj in enumerate(obj["faces"]):
        faces.append(_face_from_json(fobj, f"{path}/faces/{i}"))
    return Bamboo(tuple(faces))


def _face_from_json(obj, path):
    if not isinstance(obj, dict):
        raise TreeJSONError("expected an object", path)
    extra = set(obj) - {"a", "b", "classes"}
    if extra:
        raise TreeJSONError(f"unknown keys {sorted(extra)}", path)
    for key in ("a", "b", "classes"):
        if key not in obj:
            raise TreeJSONError(f"missing key '{key}'", path)
    for key in ("a", "b"):
        if type(obj[key]) is not int:
            raise TreeJSONError(f"'{key}' must be an integer", f"{path}/{key}")
    if not isinstance(obj["classes"], list):
        raise TreeJSONError("'classes' must be a list", f"{path}/classes")
    classes = []
    for l, cobj in enumerate(obj["classes"]):
        cpath = f"{path}/classes/{l}"
        if cobj == "leaf":
            classes.append(LEAF)
        elif isinstance(cobj, dict):
            classes.append(_bamboo_from_json(cobj, cpath))
        else:
            raise TreeJSONError("expected \"leaf\" or a sub-bamboo object", cpath)
    return Face(obj["a"], obj["b"], tuple(classes))


def tree_to_json(tree: Bamboo) -> dict:
    return {
        "faces": [
            {
                "a": f.a,
                "b": f.b,
                "classes": [
                    "leaf" if isinstance(c, Leaf) else tree_to_json(c)
                    for c in f.classes
                ],
            }
            for f in tree.faces
        ]
    }
