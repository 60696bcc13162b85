import pytest

from lstag import GornAddress
from lstag.gorn import ROOT


def test_parse_and_print_round_trip():
    for text in ["ε", "1", "2.2", "1.2.3.4"]:
        assert str(GornAddress.parse(text)) == text


def test_root_is_empty_path():
    assert GornAddress.parse("ε") == ROOT
    assert len(ROOT) == 0


def test_components_must_be_positive():
    with pytest.raises(ValueError):
        GornAddress((0,))
    with pytest.raises(ValueError):
        GornAddress((True,))
    with pytest.raises(ValueError):
        GornAddress((1, -2))
    with pytest.raises(ValueError):
        GornAddress.parse("1.0")
    with pytest.raises(ValueError):
        GornAddress.parse("1..2")


def test_order_prefix_precedes_extension():
    assert GornAddress.parse("2.2") < GornAddress.parse("2.2.1")
    assert ROOT < GornAddress.parse("1")


def test_order_is_lexicographic_between_siblings():
    assert GornAddress.parse("1.9") < GornAddress.parse("2")
    assert GornAddress.parse("2.1") < GornAddress.parse("2.2")
    assert sorted(
        [GornAddress.parse(t) for t in ["2.2", "1", "2", "1.1", "ε"]]
    ) == [GornAddress.parse(t) for t in ["ε", "1", "1.1", "2", "2.2"]]


def test_prefix_tests():
    a = GornAddress.parse("1.2")
    assert GornAddress.parse("1").is_proper_prefix_of(a)
    assert a.is_prefix_of(a)
    assert not a.is_proper_prefix_of(a)
    assert not GornAddress.parse("2").is_prefix_of(a)


def test_child_extend_suffix():
    a = GornAddress.parse("1.2")
    assert a.child(3) == GornAddress.parse("1.2.3")
    assert a.extend(GornAddress.parse("2.1")) == GornAddress.parse("1.2.2.1")
    assert a.suffix_after(GornAddress.parse("1")) == GornAddress.parse("2")
    with pytest.raises(ValueError):
        a.suffix_after(GornAddress.parse("2"))


def test_parent():
    assert GornAddress.parse("2.2").parent == GornAddress.parse("2")
    with pytest.raises(ValueError):
        _ = ROOT.parent



def test_repr_spells_the_address():
    assert repr(GornAddress.parse("2.1")) == "GornAddress('2.1')"
    assert repr(ROOT) == "GornAddress('ε')"
