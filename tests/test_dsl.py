"""DSL grammar: parsing, printing, round-trips, error offsets."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piqcheck import catalog
from piqcheck.dsl import (
    MAX_DEPTH,
    Add,
    ArityError,
    Const,
    Div,
    Mul,
    ParseError,
    Phi,
    Pi,
    PowInt,
    Psi,
    QPow,
    QPowNotQuarterIntegral,
    Sqrt,
    Sub,
    parse,
    to_text,
)
from piqcheck.exact import MAX_ORDER


def test_parse_subtraction_of_builders():
    assert parse("Pi(q^2) - Pi(q^6)") == Sub(Pi(2), Pi(6))


def test_parse_default_power_is_one():
    assert parse("Pi(q)") == Pi(1)
    assert parse("psi(q)") == Psi(1)


def test_parse_precedence_and_associativity():
    assert parse("1 - 2 - 3") == Sub(Sub(Const(Fraction(1)), Const(Fraction(2))), Const(Fraction(3)))
    assert parse("2 * Pi(q)^2") == Mul(Const(Fraction(2)), PowInt(Pi(1), 2))
    assert parse("Pi(q) + Pi(q^2) * Pi(q^3)") == Add(Pi(1), Mul(Pi(2), Pi(3)))


def test_parse_whitespace_insensitive():
    assert parse(" Pi ( q ^ 2 ) ") == Pi(2)
    assert parse("1+2") == parse(" 1 + 2 ")


def test_parse_rational_is_greedy_after_caret():
    assert parse("q^1/2") == QPow(Fraction(1, 2))
    assert parse("q^{1/2}") == QPow(Fraction(1, 2))
    assert parse("q^3/2 * psi(q)") == Mul(QPow(Fraction(3, 2)), Psi(1))


def test_parse_rational_atom_vs_division():
    assert parse("3/4") == Const(Fraction(3, 4))
    assert parse("3/psi(q)") == Div(Const(Fraction(3)), Psi(1))


def test_parse_sqrt():
    assert parse("sqrt(Pi(q) * Pi(q^9))") == Sqrt(Mul(Pi(1), Pi(9)))


def test_qpow_quarter_integral_rejected_with_offset():
    with pytest.raises(QPowNotQuarterIntegral) as exc:
        parse("q^{1/3} * Pi(q)")
    assert exc.value.offset == 3  # the rational starts after 'q^{'
    with pytest.raises(QPowNotQuarterIntegral) as exc:
        parse("q^1/3")
    assert exc.value.offset == 2


def test_parse_error_offset_and_expected_set():
    with pytest.raises(ParseError) as exc:
        parse("Pi(q")
    assert exc.value.offset == 4
    assert exc.value.expected == {"')'"}
    with pytest.raises(ParseError) as exc:
        parse("Pi(q^2) +")
    assert exc.value.offset == 9
    with pytest.raises(ParseError) as exc:
        parse("Pi[q]")
    assert exc.value.offset == 2
    # after '^' a '(' opens a negative exponent, so the token after it is blamed
    for text, offset, expected in [
        ("Pi(q)^(2)", 7, {"'-'"}),
        ("q^(1/2)", 3, {"'-'"}),
        ("Pi(q)^x", 6, {"integer", "'('"}),
        ("q^x", 2, {"integer", "'{'", "'('"}),
    ]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.offset, exc.value.expected) == (offset, expected), text
    for text, message in [
        ("1/0", "rational with zero denominator at byte 2"),
        ("Pi(x)", "Pi argument must be a power of q at byte 3 (expected one of: 'q')"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message, text


def test_arity_errors_with_offsets():
    with pytest.raises(ArityError) as exc:
        parse("Pi(q, q)")
    assert exc.value.offset == 4  # at the comma
    with pytest.raises(ArityError) as exc:
        parse("Pi()")
    assert exc.value.offset == 3
    with pytest.raises(ArityError) as exc:
        parse("sqrt(Pi(q), 2)")
    assert exc.value.offset == 10
    with pytest.raises(ArityError) as exc:
        parse("sqrt()")
    assert str(exc.value) == "sqrt requires exactly one argument at byte 5"


def test_byte_offsets_for_non_ascii_input():
    with pytest.raises(ParseError) as exc:
        parse("1 +α?")
    assert exc.value.offset == 3  # the 'α' itself is rejected, at byte 3
    with pytest.raises(ParseError) as exc:
        parse("(αβ")  # two-byte characters shift later offsets
    assert exc.value.offset == 1


def test_unknown_name_rejected():
    with pytest.raises(ParseError) as exc:
        parse("theta(q)")
    assert exc.value.expected == {"'Pi'", "'psi'", "'phi'", "'sqrt'", "'q'"}


def test_builder_power_must_be_positive():
    with pytest.raises(ParseError):
        parse("Pi(q^0)")


def test_print_parenthesizes_only_when_needed():
    e = parse("Pi(q^2)^2 * (Pi(q) - Pi(q^3)) * (Pi(q) + 3 * Pi(q^3))^3")
    assert to_text(e) == "Pi(q^2)^2 * (Pi(q) - Pi(q^3)) * (Pi(q) + 3 * Pi(q^3))^3"
    assert to_text(parse("q^1/2")) == "q^1/2"
    assert to_text(parse("Pi(q) / (Pi(q^2) * Pi(q^4))")) == "Pi(q) / (Pi(q^2) * Pi(q^4))"


def test_round_trip_on_whole_registry():
    for rec in catalog.list_identities():
        assert parse(to_text(rec.lhs)) == rec.lhs, rec.id
        assert parse(to_text(rec.rhs)) == rec.rhs, rec.id


def test_node_validation_direct_construction():
    with pytest.raises(ValueError):
        Pi(0)
    with pytest.raises(ValueError):
        QPow(Fraction(1, 3))


def test_const_and_qpow_take_exact_numbers_only():
    with pytest.raises(TypeError, match="float 0.1 is not an exact coefficient"):
        Const(0.1)
    with pytest.raises(TypeError, match="float 0.25 is not an exact coefficient"):
        QPow(0.25)
    assert Const("1/3") == Const(Fraction(1, 3))
    assert QPow("1/2") == QPow(Fraction(1, 2))


@pytest.mark.parametrize(
    "text, offset",
    [("q^25001", 2), ("q^{25001}", 3), ("1 + q^(-100001/4)", 6)],
    ids=["plain", "braced", "negative"],
)
def test_q_power_past_max_order_is_a_parse_error_at_its_exponent(text, offset):
    with pytest.raises(ParseError, match=f"at most {MAX_ORDER}") as exc:
        parse(text)
    assert exc.value.offset == offset


def test_q_power_bound_is_inclusive_and_holds_for_the_constructor():
    assert parse("q^25000 + q^(-25000)") == Add(QPow(Fraction(25000)), QPow(Fraction(-25000)))
    with pytest.raises(ValueError, match=f"at most {MAX_ORDER}"):
        QPow(Fraction(-(MAX_ORDER + 1), 4))


@pytest.mark.parametrize(
    "tree, text",
    [
        (Const(Fraction(-3)), "(-3)"),
        (Const(Fraction(-3, 4)), "(-3/4)"),
        (PowInt(Pi(1), -2), "Pi(q)^(-2)"),
        (PowInt(Const(Fraction(-3)), 2), "(-3)^2"),
        (QPow(Fraction(-1)), "q^(-1)"),
        (QPow(Fraction(-1, 2)), "q^(-1/2)"),
        (Div(Div(Pi(1), Const(Fraction(1))), Const(Fraction(2))), "Pi(q) / 1 / (2)"),
        (Div(Div(Const(Fraction(1)), Const(Fraction(2))), Const(Fraction(3))), "1 / (2) / (3)"),
        (Div(Const(Fraction(3)), Const(Fraction(4))), "3 / (4)"),
        (Div(QPow(Fraction(1)), PowInt(Const(Fraction(2)), 3)), "q^1 / (2^3)"),
        (Div(Mul(Pi(1), Const(Fraction(1))), Const(Fraction(3, 4))), "Pi(q) * 1 / (3/4)"),
        (Div(Const(Fraction(3, 4)), Const(Fraction(5))), "3/4 / 5"),
        (Div(PowInt(Pi(1), 2), Const(Fraction(3))), "Pi(q)^2 / 3"),
    ],
)
def test_print_brackets_what_would_parse_otherwise(tree, text):
    assert to_text(tree) == text
    assert parse(text) == tree


def _fractions(*denominators):
    return st.builds(Fraction, st.integers(min_value=-20, max_value=20), st.sampled_from(denominators))


_leaves = st.one_of(
    st.builds(Pi, st.integers(min_value=1, max_value=12)),
    st.builds(Psi, st.integers(min_value=1, max_value=12)),
    st.builds(Phi, st.integers(min_value=1, max_value=12)),
    st.builds(QPow, _fractions(1, 2, 4)),
    st.builds(Const, _fractions(1, 1, 2, 3, 7)),
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        *(st.builds(node, kids, kids) for node in (Add, Sub, Mul, Div)),
        st.builds(PowInt, kids, st.integers(min_value=-5, max_value=5)),
        st.builds(Sqrt, kids),
    ),
    max_leaves=16,
)


@settings(max_examples=500, deadline=None)
@given(_trees)
def test_parse_inverts_to_text(tree):
    assert parse(to_text(tree)) == tree


def _walked_depth(e):
    """The depth of e's tree by a walk over its children, a leaf being 1."""
    kids = [getattr(e, a) for a in ("left", "right", "base", "arg") if hasattr(e, a)]
    return 1 + max(map(_walked_depth, kids), default=0)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_each_node_records_the_depth_of_its_tree(tree):
    assert tree.depth == _walked_depth(tree)
    assert parse(to_text(tree)).depth == _walked_depth(tree)


@pytest.mark.parametrize(
    "cls, names",
    [
        (Pi, ["k"]), (Psi, ["k"]), (Phi, ["k"]), (QPow, ["r"]), (Const, ["value"]),
        (Add, ["left", "right"]), (Sub, ["left", "right"]),
        (Mul, ["left", "right"]), (Div, ["left", "right"]),
        (PowInt, ["base", "exponent"]), (Sqrt, ["arg"]),
    ],
)
def test_depth_and_level_are_not_dataclass_fields(cls, names):
    assert list(cls.__match_args__) == names
    assert not {"depth", "level"} & set(cls.__match_args__)


def test_depth_leaves_repr_equality_and_hash_alone():
    deep, shallow = Sqrt(Sqrt(Pi(1))), Sqrt(Pi(1))
    assert (deep.depth, shallow.depth) == (3, 2)
    assert repr(PowInt(Pi(2), 3)) == "PowInt(base=Pi(k=2), exponent=3)"
    assert Add(Pi(1), Pi(2)) == parse("Pi(q) + Pi(q^2)")
    assert hash(Add(Pi(1), Pi(2))) == hash(parse("Pi(q) + Pi(q^2)"))


def test_a_child_that_is_not_a_node_counts_as_a_leaf():
    tree = Add(Const(1), 5)
    assert tree.depth == 2 and Sqrt(tree).depth == 3
    with pytest.raises(TypeError, match="not an expression node"):
        catalog.evaluate(tree, 16)


@pytest.mark.parametrize(
    "text, offset",
    [
        ("(" * 3000 + "1" + ")" * 3000, MAX_DEPTH),                # the first bracket too many
        ("+".join(["1"] * 3000), 2 * MAX_DEPTH - 1),              # the operator that makes it too deep
        ("sqrt(" * 3000 + "1" + ")" * 3000, 5 * MAX_DEPTH + 4),
        ("Pi(q)" + "*Pi(q)" * 3000, 6 * MAX_DEPTH - 1),
    ],
)
def test_depth_past_the_limit_is_a_parse_error(text, offset):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert f"deeper than {MAX_DEPTH}" in str(exc.value)


def test_depth_at_the_limit_parses():
    assert parse("(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH) == Const(Fraction(1))
    deep = parse("+".join(["1"] * MAX_DEPTH))
    assert parse(to_text(deep)) == deep
    assert parse("sqrt(" * (MAX_DEPTH - 1) + "1" + ")" * (MAX_DEPTH - 1)) is not None
    # brackets side by side do not add up: 254 of them, nested at most 7 deep
    balanced = "1"
    for _ in range(7):
        balanced = f"sqrt({balanced}) + ({balanced})"
    assert parse(to_text(parse(balanced))) == parse(balanced)


def _api_tree(depth: int, shape: str):
    """A tree built without parse, `depth` levels deep (a leaf is 1)."""
    e = Phi(1) if shape == "towers" else Const(1)
    for i in range(depth - 1):
        if shape == "sum":
            e = Add(e, Const(1))
        else:
            e = Sqrt(e) if i % 2 else PowInt(e, 2)
    return e


@pytest.mark.parametrize("shape", ["sum", "towers"])
def test_api_trees_at_the_depth_limit_evaluate_and_print(shape):
    tree = _api_tree(MAX_DEPTH, shape)
    expected = Const(MAX_DEPTH) if shape == "sum" else PowInt(Phi(1), 2)
    assert catalog.evaluate(tree, 16) == catalog.evaluate(expected, 16)
    assert parse(to_text(tree)) == tree


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 3000])
@pytest.mark.parametrize("shape", ["sum", "towers"])
def test_api_trees_past_the_depth_limit_raise_value_error(shape, depth):
    tree = _api_tree(depth, shape)
    with pytest.raises(ValueError, match="MAX_DEPTH"):
        catalog.evaluate(tree, 16)
    with pytest.raises(ValueError, match="MAX_DEPTH"):
        to_text(tree)


def test_catalog_lines_are_far_inside_the_depth_limit():
    def depth(e):
        kids = [getattr(e, a) for a in ("left", "right", "base", "arg") if hasattr(e, a)]
        return 1 + max(map(depth, kids), default=0)

    deepest = max(depth(side) for rec in catalog.list_identities() for side in (rec.lhs, rec.rhs))
    assert deepest * 10 <= MAX_DEPTH


def test_to_text_prints_any_constant_and_parse_refuses_an_overlong_literal():
    wide = 2**20000  # 6021 digits, more than the interpreter's int string limit
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(wide)
    finally:
        sys.set_int_max_str_digits(old)
    assert to_text(Const(wide)) == digits
    assert to_text(Const(Fraction(-1, wide))) == f"(-1/{digits})"
    assert to_text(PowInt(Pi(wide), -wide)) == f"Pi(q^{digits})^(-{digits})"
    with pytest.raises(ParseError, match="integer literal of 6021 digits") as err:
        parse(to_text(Add(Pi(1), Const(wide))))
    assert err.value.offset == 8
