import pytest

from indcomplex import WedgeOfSpheres


def test_rejects_assignment():
    w = WedgeOfSpheres({2: 1})
    for name in ("_items", "other"):
        with pytest.raises(AttributeError):
            setattr(w, name, ())
    assert w == WedgeOfSpheres.sphere(2)


def test_rejects_deletion():
    w = WedgeOfSpheres({2: 1})
    for name in ("_items", "other"):
        with pytest.raises(AttributeError):
            delattr(w, name)
    assert w == WedgeOfSpheres.sphere(2)


def test_equal_multisets_are_equal_whatever_the_mapping():
    forms = [
        WedgeOfSpheres({14: 2, 13: 1}),
        WedgeOfSpheres({13: 1, 14: 2}),
        WedgeOfSpheres({0: 0, 13: 1, 14: 2, 20: 0}),
        WedgeOfSpheres.sphere(14).times(2).wedge(WedgeOfSpheres.sphere(13)),
    ]
    assert all(w == forms[0] and hash(w) == hash(forms[0]) for w in forms)
    assert WedgeOfSpheres({3: 0}) == WedgeOfSpheres.point()
    assert hash(WedgeOfSpheres({3: 0})) == hash(WedgeOfSpheres.point())
    assert forms[0] != WedgeOfSpheres({14: 1, 13: 1}) and forms[0] != WedgeOfSpheres({14: 3})


def test_compares_unequal_to_other_types():
    w = WedgeOfSpheres({14: 2, 13: 1})
    for other in (None, 0, "S^13 v 2xS^14", {14: 2, 13: 1}, ((13, 1), (14, 2))):
        assert (w == other) is False and (other == w) is False
        assert (w != other) is True


def test_repr_is_pinned():
    assert repr(WedgeOfSpheres.point()) == "WedgeOfSpheres(point)"
    assert repr(WedgeOfSpheres({2: 0, -1: 1})) == "WedgeOfSpheres(S^-1)"
    assert repr(WedgeOfSpheres({14: 2, 13: 1})) == "WedgeOfSpheres(S^13 v 2xS^14)"


def test_rejects_negative_multiplicity():
    with pytest.raises(ValueError, match="negative multiplicity -1 at dimension 3"):
        WedgeOfSpheres({3: -1})


def test_rejects_negative_copies():
    with pytest.raises(ValueError, match="copies must be nonnegative"):
        WedgeOfSpheres.sphere(1).times(-1)
    assert WedgeOfSpheres.sphere(1).times(0) == WedgeOfSpheres.point()
