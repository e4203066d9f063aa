import pytest

from latcong import io
from latcong.errors import ArityMismatch, InvalidArgument, NotBounded, ParseError, \
    ValidationError
from latcong.lattice import catalogue
from latcong.polynomials import Constant, Join, Meet, Projection, \
    WeightedPolynomial, evaluate
from latcong.sugeno import Capacity, enumerate_capacities, sugeno_table

C3_TEXT = """\
# three-element chain
lattice c3
elements 3
cover 0 1
cover 1 2
"""

CAP_TEXT = """\
capacity m
n 2
m {} 0
m {1} 1
m {2} 1
m {1,2} 2
"""


def test_parse_lattice_basic():
    L = io.parse_lattice(C3_TEXT)
    assert L.size == 3
    assert L.name == "c3"
    assert L.covers == ((0, 1), (1, 2))


def test_parse_lattice_with_labels():
    text = C3_TEXT + "label 0 zero\nlabel 2 two words\n"
    L = io.parse_lattice(text)
    assert L.labels == {0: "zero", 2: "two words"}


@pytest.mark.parametrize("element", [3, 7, -1])
def test_label_outside_carrier_is_a_parse_error(element):
    """The error names the label line, wherever the elements line is."""
    text = C3_TEXT + f"label 0 zero\nlabel {element} ghost\n"
    with pytest.raises(ParseError, match=f"line 7: label for {element} outside "
                                         "carrier of size 3"):
        io.parse_lattice(text)
    moved = f"label {element} ghost\n" + C3_TEXT
    with pytest.raises(ParseError) as err:
        io.parse_lattice(moved)
    assert err.value.line == 1


def test_lattice_round_trip_all_catalogue():
    for name in ("chain(5)", "boolean(3)", "M3", "N5"):
        L = catalogue(name)
        text = io.serialize_lattice(L)
        back = io.parse_lattice(text)
        assert back == L
        assert back.name == L.name
        assert back.labels == L.labels
        assert io.serialize_lattice(back) == text


def test_parse_lattice_errors_carry_lines():
    with pytest.raises(ParseError) as err:
        io.parse_lattice("lattice x\nelements 2\ncover 0\n")
    assert err.value.line == 3
    with pytest.raises(ParseError):
        io.parse_lattice("elements 2\n")  # missing name
    with pytest.raises(ParseError):
        io.parse_lattice("lattice x\nwhat 1\n")
    with pytest.raises(NotBounded):
        io.parse_lattice("lattice x\nelements 2\n")  # two minimal elements


def test_parse_lattice_refuses_oversized_carrier():
    with pytest.raises(ParseError) as err:
        io.parse_lattice("lattice big\nelements 513\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        io.parse_lattice("lattice big\nelements 1000000000000\ncover 0 1\n")


def test_parse_capacity(c3):
    name, m = io.parse_capacity(CAP_TEXT, c3)
    assert name == "m"
    assert m.coefficients == (0, 1, 1, 2)


def test_capacity_round_trip(c3):
    for i, m in enumerate(enumerate_capacities(c3, 2)):
        text = io.serialize_capacity(m, f"c{i}")
        name, back = io.parse_capacity(text, c3)
        assert back == m
        assert io.serialize_capacity(back, name) == text


def test_capacity_missing_subset_rejected(c3):
    text = "capacity m\nn 2\nm {} 0\nm {1} 1\nm {1,2} 2\n"
    with pytest.raises(ValidationError) as err:
        io.parse_capacity(text, c3)
    assert "incomplete" in str(err.value)


def test_capacity_bad_boundary_rejected(c3):
    text = CAP_TEXT.replace("m {} 0", "m {} 1")
    with pytest.raises(ValidationError) as err:
        io.parse_capacity(text, c3)
    assert "bottom" in str(err.value)


def test_capacity_subset_syntax_errors(c3):
    with pytest.raises(ParseError):
        io.parse_capacity("capacity m\nn 2\nm 1 0\n", c3)
    with pytest.raises(ParseError):
        io.parse_capacity("capacity m\nn 2\nm {3} 0\n", c3)
    with pytest.raises(ParseError):
        io.parse_capacity("capacity m\nn 2\nm {1,1} 0\n", c3)
    with pytest.raises(ParseError):
        io.parse_capacity("capacity m\nm {} 0\n", c3)  # n line must come first


@pytest.mark.parametrize("subset,message", [
    ("{x}", "expected an integer criterion, got 'x'"),
    ("{0}", "criterion 0 outside 1..3"),
    ("{5}", "criterion 5 outside 1..3"),
    ("{1,1}", "criterion 1 repeated in subset"),
    ("{1,x,0}", "expected an integer criterion, got 'x'"),
    ("{3,3,9}", "criterion 3 repeated in subset"),
    ("{2,-1}", "criterion -1 outside 1..3"),
    ("{1,}", "expected an integer criterion, got ''"),
])
def test_a_bad_subset_names_its_first_bad_part(c3, subset, message):
    text = f"capacity m\nn 3\nm {subset} 0\n"
    with pytest.raises(ParseError) as err:
        io.parse_capacity(text, c3)
    assert str(err.value) == f"line 3: {message}"


@pytest.mark.parametrize("subset,mask", [
    ("{}", 0), ("{3,1}", 5), ("{01}", 1), ("{+2,1}", 3), ("{1,2,3}", 7)])
def test_any_spelling_int_reads_gives_the_same_mask(subset, mask):
    """Plain decimals take the looked-up path; any other spelling that
    ``int`` reads takes the part-by-part path to the same mask."""
    assert io._parse_subset(subset, 3, 1) == mask


def test_function_table_round_trip(c3):
    m = Capacity(c3, (0, 1, 0, 2))
    table = sugeno_table(c3, m)
    text = io.serialize_function_table(table, "su")
    name, back = io.parse_function_table(text, c3)
    assert name == "su"
    assert back == table
    assert io.serialize_function_table(back, name) == text


def test_function_table_accepts_any_line_order(c3):
    text = ("function f\nn 1\nf 2 -> 2\nf 0 -> 0\nf 1 -> 1\n")
    _, table = io.parse_function_table(text, c3)
    assert table.values == (0, 1, 2)


def test_function_table_errors(c3):
    with pytest.raises(ValidationError):
        io.parse_function_table("function f\nn 1\nf 0 -> 0\n", c3)
    with pytest.raises(ParseError):
        io.parse_function_table("function f\nn 1\nf 0 0 -> 0\n", c3)
    with pytest.raises(ParseError):
        io.parse_function_table("function f\nn 1\nf -1 -> 0\n", c3)
    with pytest.raises(ParseError):
        io.parse_function_table(
            "function f\nn 1\nf 0 -> 0\nf 0 -> 1\nf 2 -> 2\n", c3)


def test_polynomial_parse_and_arity():
    p = io.parse_polynomial("(join (meet (const 1) (var 0)) (var 1))")
    assert p.arity == 2
    assert p.root == Join(Meet(Constant(1), Projection(0)), Projection(1))


def test_polynomial_variadic_operators_fold():
    p = io.parse_polynomial("(meet (var 0) (var 1) (var 2))")
    assert p.root == Meet(Meet(Projection(0), Projection(1)), Projection(2))


def test_polynomial_round_trip():
    p = WeightedPolynomial(3, Join(Meet(Constant(2), Projection(2)),
                                   Projection(0)))
    text = io.serialize_polynomial(p)
    assert io.parse_polynomial(text, arity=3) == p


def test_negative_arity_rejected(c3):
    with pytest.raises(ParseError):
        io.parse_capacity("capacity m\nn -1\n", c3)
    with pytest.raises(ParseError):
        io.parse_function_table("function f\nn -1\n", c3)


def test_huge_arity_rejected_before_counting(c3):
    """The entry count 2^n or size^n is never formed for an arity over the
    limit; formatting it used to raise a raw ValueError."""
    assert io.MAX_ARITY == 20
    for n in (21, 100000000):
        with pytest.raises(ParseError, match=f"line 2: arity {n} exceeds"):
            io.parse_capacity(f"capacity m\nn {n}\n", c3)
        with pytest.raises(ParseError, match=f"line 2: arity {n} exceeds"):
            io.parse_function_table(f"function f\nn {n}\n", c3)
    with pytest.raises(ValidationError, match=f"of {3 ** 20} entries missing"):
        io.parse_function_table("function f\nn 20\n", c3)


def _nested(depth):
    text = "(var 0)"
    for _ in range(depth - 1):
        text = f"(meet {text} (var 1))"
    return text


def test_polynomial_depth_limit(c3):
    """Deep terms are a ParseError, not a RecursionError, whether the depth
    comes from nesting or from folding a long argument list."""
    assert io.MAX_DEPTH == 256
    p = io.parse_polynomial(_nested(io.MAX_DEPTH))
    assert io.parse_polynomial(io.serialize_polynomial(p)) == p
    assert evaluate(c3, p, (2, 1)) == 1
    flat = "(join " + "(var 0) " * io.MAX_DEPTH + ")"
    assert io.parse_polynomial(flat).arity == 1
    for bad in (_nested(io.MAX_DEPTH + 1), _nested(1500),
                "(join " + "(var 0) " * (io.MAX_DEPTH + 1) + ")",
                "(meet " + "(var 0) " * 1500 + ")"):
        with pytest.raises(ParseError, match="nested deeper than 256 levels"):
            io.parse_polynomial(bad)
    # Built directly, a deeper term is valid, but its text would not parse
    # back; at 3000 levels printing it raised a raw RecursionError.
    assert io.serialize_polynomial(_built(io.MAX_DEPTH)) == _nested(io.MAX_DEPTH) + "\n"
    for depth in (io.MAX_DEPTH + 1, 3000):
        with pytest.raises(InvalidArgument, match="256 levels would not read back"):
            io.serialize_polynomial(_built(depth))


def _built(depth):
    """The term of ``_nested(depth)``, built without recursion."""
    node = Projection(0)
    for _ in range(depth - 1):
        node = Meet(node, Projection(1))
    return WeightedPolynomial(2, node)


def test_negative_projection_rejected():
    for arity in (None, 2):
        with pytest.raises(ArityMismatch):
            io.parse_polynomial("(join (var 0) (var -1))", arity=arity)


@pytest.mark.parametrize("text,arity", [
    ("(const 1)", 0), ("(var 0)", 1), ("(meet (var 2) (var 0) (var 1))", 3),
    ("(join (var 3) (meet (const 9) (var 7)))", 8),
])
def test_default_arity_is_one_past_the_largest_var(text, arity):
    assert io.parse_polynomial(text).arity == arity


def test_polynomial_parse_errors():
    for bad in ("", "(frob 1)", "(var x)", "(meet (var 0))",
                "(var 0) trailing", "(join (var 0) (var 1)"):
        with pytest.raises(ParseError):
            io.parse_polynomial(bad)


@pytest.mark.parametrize("parse,text", [
    (io.parse_capacity, "capacity x\nn 2\nm {1,2} 2\nn 1\nm {} 0\n"),
    (io.parse_function_table, "function f\nn 1\nf 2 -> 2\nn 0\n"),
])
def test_repeated_arity_line_rejected(parse, text):
    """A second 'n' line used to change the slot count after entries were
    read, and the entry lookup raised a raw KeyError."""
    with pytest.raises(ParseError, match="line 4: the 'n <arity>' line is given twice"):
        parse(text, catalogue("chain(3)"))


@pytest.mark.parametrize("parse,text,line", [
    (io.parse_lattice, C3_TEXT + "elements 2\n", "line 6: the 'elements <count>' line"),
    (io.parse_lattice, C3_TEXT + "lattice other\n", "line 6: the 'lattice <name>' line"),
    (io.parse_lattice, C3_TEXT + "label 0 a\nlabel 0 b\n", "line 7: the 'label 0' line"),
    (lambda text: io.parse_capacity(text, catalogue("chain(3)")),
     CAP_TEXT + "capacity other\n", "line 7: the 'capacity <name>' line"),
    (lambda text: io.parse_function_table(text, catalogue("chain(3)")),
     "function f\nn 0\nf -> 1\nfunction g\n", "line 4: the 'function <name>' line"),
])
def test_repeated_once_only_line_rejected(parse, text, line):
    """A second copy used to replace the first: a second 'elements' line
    changed the carrier, a second header renamed the object, a second
    label for an element replaced its text."""
    with pytest.raises(ParseError, match=f"{line} is given twice"):
        parse(text)


def test_repeated_cover_lines_are_allowed():
    assert io.parse_lattice(C3_TEXT + "cover 0 1\n") == io.parse_lattice(C3_TEXT)
