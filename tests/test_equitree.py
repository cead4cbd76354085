import json
import random

import pytest

from topzeta.cli import random_tree
from topzeta.equitree import (Bamboo, Face, InvalidTreeError, LEAF, Leaf,
                              TreeJSONError, annotate, annotate_faces,
                              tree_from_json, tree_to_json, validate)
from topzeta.monodromy import characteristic_poly, monodromy_zeta

CUSP = Bamboo((Face(2, 3, (LEAF,)),))
TWO_PAIR = Bamboo((Face(2, 3, (Bamboo((Face(2, 7, (LEAF,)),)),)),))


def test_validate_accepts_cusp():
    assert validate(CUSP) == []


def test_validate_gcd():
    diags = validate(Bamboo((Face(2, 4, (LEAF,)),)))
    assert any(d.message == "gcd(a,b) != 1" and d.path == "/faces/0" for d in diags)


def test_validate_slope_order():
    bad = Bamboo((Face(2, 3, (LEAF,)), Face(3, 2, (LEAF,))))
    assert any("slope order violated" == d.message for d in validate(bad))


def test_validate_small_entries():
    assert [str(d) for d in validate(Bamboo((Face(0, 1, (LEAF,)),)))] == [
        "a < 1 at path /faces/0"]
    nested = Bamboo((Face(2, 3, (Bamboo((Face(1, 0, (LEAF,)),)),)),))
    assert [str(d) for d in validate(nested)] == [
        "b < 1 at path /faces/0/classes/0/faces/0"]
    with pytest.raises(ValueError, match="^b < 1 at path /faces/0/classes/0/faces/0$"):
        annotate(nested)


def test_validate_nested_path():
    bad = Bamboo((Face(2, 3, (Bamboo((Face(4, 6, (LEAF,)),)),)),))
    diags = validate(bad)
    assert diags[0].path == "/faces/0/classes/0/faces/0"


def test_validate_empty_structures():
    assert any("no faces" in d.message for d in validate(Bamboo(())))
    assert any("no branch classes" in d.message
               for d in validate(Bamboo((Face(2, 3, ()),))))


def class_multiplicity(cls) -> int:
    """Multiplicity of a branch class: 1 for a leaf, sum of a_t * A_t over
    the faces of a sub-bamboo otherwise.  The recursive definition, which
    ``annotate`` measures in its validating pass, kept as the reference
    for that pass."""
    if isinstance(cls, Leaf):
        return 1
    total = 0
    for face in cls.faces:
        face_mult = sum(class_multiplicity(c) for c in face.classes)
        total += face.a * face_mult
    return total


SUB = Bamboo((Face(2, 7, (LEAF,)),))
HOSTILE_TREES = {
    "non-integer-a": (Bamboo((Face("2", 3, (SUB,)),)),
                      ["a and b must be integers at path /faces/0"]),
    "none-class": (Bamboo((Face(2, 3, (None,)),)),
                   ["not a bamboo at path /faces/0/classes/0"]),
    "non-face-in-sub-bamboo": (Bamboo((Face(2, 3, (Bamboo(("face",)),)),)),
                               ["not a face at path /faces/0/classes/0/faces/0"]),
    "empty-sub-bamboo": (Bamboo((Face(2, 3, (Bamboo(()),)),)),
                         ["bamboo has no faces at path /faces/0/classes/0/faces"]),
    "four-in-parent-order": (
        Bamboo((Face(0, 3, (LEAF,)), Face(2, 4, (Bamboo((Face(1, 2, ()),)),)))),
        ["a < 1 at path /faces/0",
         "gcd(a,b) != 1 at path /faces/1",
         "slope order violated at path /faces/1",
         "face has no branch classes at path /faces/1/classes/0/faces/0/classes"]),
}


@pytest.mark.parametrize("tree,diagnostics", HOSTILE_TREES.values(), ids=HOSTILE_TREES)
def test_hostile_trees_are_diagnosed_not_measured(tree, diagnostics):
    # validation measures the classes as it checks them: a bad face or
    # class gives its diagnostic, never a TypeError from the measuring
    assert [str(d) for d in validate(tree)] == diagnostics
    with pytest.raises(InvalidTreeError) as exc:
        annotate(tree)
    assert [str(d) for d in exc.value.problems] == diagnostics


def test_a_bamboo_used_twice_annotates_as_two_copies():
    # class multiplicities are kept by the id of a bamboo; one object
    # used twice is measured twice, to the same values
    shared = Bamboo((Face(2, 3, (LEAF,)), Face(1, 2, (LEAF, LEAF))))
    copy = Bamboo((Face(2, 3, (LEAF,)), Face(1, 2, (LEAF, LEAF))))
    twice = annotate(Bamboo((Face(1, 1, (shared, shared)),)))
    assert twice == annotate(Bamboo((Face(1, 1, (shared, copy)),)))
    assert twice.root.faces[0].class_mults == (4, 4)
    assert len(twice.bamboos) == 3


def test_class_multiplicity():
    assert class_multiplicity(LEAF) == 1
    assert class_multiplicity(Bamboo((Face(2, 7, (LEAF,)),))) == 2
    two_face = Bamboo((Face(2, 5, (LEAF,)), Face(3, 7, (LEAF,))))
    assert class_multiplicity(two_face) == 2 * 1 + 3 * 1


def nested_chain(depth):
    """A (2, 3) face nested ``depth`` deep, with a leaf beside every
    sub-bamboo."""
    node = LEAF
    for _ in range(depth):
        node = Bamboo((Face(2, 3, (LEAF, node) if node is not LEAF else (node,)),))
    return node


def count_bamboos(tree):
    return 1 + sum(count_bamboos(c) for f in tree.faces for c in f.classes
                   if isinstance(c, Bamboo))


def test_annotate_measures_each_class_as_class_multiplicity():
    # annotate measures every sub-bamboo once, bottom-up, while it
    # validates it; each class and face multiplicity it records is the
    # one class_multiplicity gives
    rng = random.Random(7)
    trees = [random_tree(rng) for _ in range(500)] + [nested_chain(200)]
    for tree in trees:
        annotated = annotate(tree)
        assert len(annotated.bamboos) == count_bamboos(tree)
        for bam in annotated.bamboos:
            for face in bam.faces:
                want = tuple(class_multiplicity(c) for c in face.classes)
                assert face.class_mults == want
                assert face.face_mult == sum(want)
    assert annotate(nested_chain(200)).root.faces[0].face_mult == 2 ** 200 - 1


def test_annotate_cusp():
    tree = annotate(CUSP)
    (face,) = tree.root.faces
    assert (face.mult, face.nu) == (6, 5)
    assert face.face_mult == 1
    assert (face.alpha, face.beta) == (3, 0)
    assert face.chain_det == -3
    assert tree.root.beta0 == 2 and tree.root.chain_det0 == 2


def test_annotate_two_pair():
    tree = annotate(TWO_PAIR)
    root, sub = tree.bamboos
    assert root.path == () and sub.path == ((0, 0),)
    assert root.faces[0].class_mults == (2,)
    assert (root.faces[0].mult, root.faces[0].nu) == (12, 5)
    assert (sub.base_mult, sub.base_nu) == (12, 5)
    assert (sub.faces[0].mult, sub.faces[0].nu) == (38, 17)


def test_annotate_deterministic():
    assert annotate(TWO_PAIR) == annotate(TWO_PAIR)


def test_annotate_monotone_and_divisibility():
    tree = annotate(TWO_PAIR)
    for bam in tree.bamboos:
        for f in bam.faces:
            assert f.mult > bam.base_mult and f.nu > bam.base_nu
        last = bam.faces[-1]
        assert last.mult % last.a == 0
    root = tree.root
    assert root.faces[0].mult % root.faces[0].b == 0


def test_nu_lower_bound():
    # nu = a + b exactly on the root bamboo, strictly above it deeper down
    tree = annotate(TWO_PAIR)
    root, sub = tree.bamboos
    f = root.faces[0]
    assert f.nu == f.a + f.b >= 5
    g = sub.faces[0]
    assert g.nu > g.a + g.b


def test_annotate_faces_is_the_one_bamboo_tree():
    faces = [(3, 2, 1), (2, 3, 2)]
    tree = Bamboo((Face(3, 2, (LEAF,)), Face(2, 3, (LEAF, LEAF))))
    assert annotate_faces(faces) == annotate(tree)


def test_annotate_faces_allows_unit_entries():
    # the ordinary node: one face (1, 1) carrying two branches
    node = annotate_faces([(1, 1, 2)])
    (face,) = node.root.faces
    assert (face.mult, face.nu, face.face_mult) == (2, 2, 2)
    smooth = annotate_faces([(2, 3, 1), (1, 2, 1)])
    assert [(f.mult, f.nu) for f in smooth.root.faces] == [(9, 5), (5, 3)]


@pytest.mark.parametrize("faces,message", [
    pytest.param(faces, message, id=f"faces{i}")
    for i, (faces, message) in enumerate([
        ([], "bamboo has no faces at path /faces"),
        ([(2, 4, 1)], "gcd(a,b) != 1 at path /faces/0"),
        ([(0, 1, 1)], "a < 1 at path /faces/0"),
        ([(2, 3, 0)], "face has no branch classes at path /faces/0/classes"),
        ([(2, 3, 1), (3, 2, 1)], "slope order violated at path /faces/1"),
    ])
])
def test_annotate_faces_rejects_bad_lists(faces, message):
    with pytest.raises(ValueError) as exc:
        annotate_faces(faces)
    assert str(exc.value) == message


def test_unit_entries_at_every_depth():
    # y = x^(3/2) + x^(7/4), Puiseux characteristic (4; 6, 7): its second
    # Newton pair, in the chart of the first toric modification, is (2, 1)
    puiseux = annotate(Bamboo((Face(2, 3, (Bamboo((Face(2, 1, (LEAF,)),)),)),)))
    assert [(f.mult, f.nu) for b in puiseux.bamboos for f in b.faces] == [(12, 5), (26, 11)]
    assert characteristic_poly(monodromy_zeta(puiseux)).mu == 16
    # two cusps osculating past their characteristic exponent: two smooth
    # branches through one point of the first divisor
    cusps = annotate(Bamboo((Face(2, 3, (Bamboo((Face(1, 1, (LEAF, LEAF)),)),)),)))
    assert [(f.mult, f.nu) for b in cusps.bamboos for f in b.faces] == [(12, 5), (14, 6)]
    assert characteristic_poly(monodromy_zeta(cusps)).mu == 2 + 2 + 2 * 7 - 1
    assert validate(Bamboo((Face(1, 2, (Bamboo((Face(1, 1, (LEAF,)),)),)),))) == []
    (face,) = annotate_faces([(1, 2, 1)]).root.faces
    assert (face.a, face.b, face.mult, face.nu) == (1, 2, 2, 3)


def test_json_roundtrip():
    data = tree_to_json(TWO_PAIR)
    assert tree_from_json(data) == TWO_PAIR
    blob = json.dumps(data)
    assert tree_from_json(json.loads(blob)) == TWO_PAIR


def test_json_schema_cusp():
    data = {"faces": [{"a": 2, "b": 3, "classes": ["leaf"]}]}
    assert tree_from_json(data) == CUSP


@pytest.mark.parametrize("data,fragment", [
    ({"faces": [{"a": 2, "b": 3, "classes": ["leaf"], "x": 1}]}, "unknown keys"),
    ({"trunk": []}, "unknown keys"),
    ({}, "missing key"),
    ({"faces": [{"a": 2, "b": 3}]}, "missing key"),
    ({"faces": [{"a": True, "b": 3, "classes": ["leaf"]}]}, "must be an integer"),
    ({"faces": [{"a": 2.0, "b": 3, "classes": ["leaf"]}]}, "must be an integer"),
    ({"faces": [{"a": 2, "b": 3, "classes": ["Leaf"]}]}, "expected"),
    ({"faces": "nope"}, "must be a list"),
])
def test_json_schema_rejections(data, fragment):
    with pytest.raises(TreeJSONError) as err:
        tree_from_json(data)
    assert fragment in str(err.value)


def test_json_error_carries_path():
    data = {"faces": [{"a": 2, "b": 3, "classes": ["leaf", {"faces": [{"a": 2}]}]}]}
    with pytest.raises(TreeJSONError) as err:
        tree_from_json(data)
    assert err.value.path == "/faces/0/classes/1/faces/0"
