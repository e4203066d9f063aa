"""Text formats for lattices, capacities, function tables, and polynomials.

One object per file.  ``#`` starts a comment, tokens are whitespace
separated, and the leading keyword names the kind (a leading ``(`` means a
polynomial S-expression).  Parsers validate through the owning module, so
a file that parses is a file whose object holds its invariants.
"""

from __future__ import annotations

from .errors import ForeignElement, InvalidArgument, ParseError, ValidationError
from .lattice import MAX_SIZE, Lattice, build_from_covers, check_elements, check_type
from .polynomials import Constant, Join, Meet, Projection, WeightedPolynomial
from .sugeno import Capacity
from .tables import FunctionTable, all_inputs, check_input, encode

# Largest arity of a capacity or function file: 2^20 entries over the
# smallest carrier.  Above it the entry count is too large to list, and on
# a huge ``n`` computing it would take the memory of the number itself.
MAX_ARITY = 20
# Deepest polynomial term, so that the parser and the recursive walks over
# the term (printing, equality, hashing) stay within Python's stack.
MAX_DEPTH = 256
# The bit of each criterion written as a plain decimal, 1 to MAX_ARITY.
_BITS = {str(i): 1 << (i - 1) for i in range(1, MAX_ARITY + 1)}


def _lines(text):
    """(lineno, tokens) for every non-empty line, comments stripped."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body.split()))
    return out


def _int(token, lineno, what="index"):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer {what}, got {token!r}", lineno)


def _text(text, what, words=False):
    """``text`` if a parser reads it back unchanged, else InvalidArgument:
    a non-empty str without '#', one token or, with ``words``, several
    joined by single spaces."""
    tokens = text.split() if isinstance(text, str) else []
    if not tokens or " ".join(tokens) != text or "#" in text \
            or (len(tokens) > 1 and not words):
        shape = "words joined by single spaces" if words else "one word"
        raise InvalidArgument(
            f"{what} {text!r} would not read back; it must be {shape}, without '#'")
    return text


def _once(seen, line, lineno):
    """Raise ParseError if a line that may appear once was already seen."""
    if seen is not None:
        raise ParseError(f"the '{line}' line is given twice", lineno)


def _parse_keyed(text, kind, entry, parse_entry, slots):
    """Shared skeleton of capacity and function files.

    A '<kind> <name>' header, an 'n <arity>' line, then '<entry> ...' lines
    that ``parse_entry(tokens, n, lineno)`` turns into (slot, value).  Every
    one of the ``slots(n)`` slots must be given exactly once.  Returns the
    name, the arity and the values in slot order.
    """
    name = None
    n = None
    values = {}
    for lineno, tokens in _lines(text):
        key = tokens[0]
        if key == kind:
            if len(tokens) != 2:
                raise ParseError(f"expected: {kind} <name>", lineno)
            _once(name, f"{kind} <name>", lineno)
            name = tokens[1]
        elif key == "n":
            if len(tokens) != 2:
                raise ParseError("expected: n <arity>", lineno)
            _once(n, "n <arity>", lineno)
            n = _int(tokens[1], lineno, "arity")
            if n < 0:
                raise ParseError(f"arity must be non-negative, got {n}", lineno)
            if n > MAX_ARITY:
                raise ParseError(
                    f"arity {n} exceeds the limit of {MAX_ARITY}", lineno)
        elif key == entry:
            if n is None:
                raise ParseError("the 'n <arity>' line must precede values", lineno)
            slot, value = parse_entry(tokens, n, lineno)
            if slot in values:
                raise ParseError(f"entry given twice: {' '.join(tokens)}", lineno)
            values[slot] = value
        else:
            raise ParseError(f"unknown {kind} keyword {key!r}", lineno)
    if name is None:
        raise ParseError(f"missing '{kind} <name>' line")
    if n is None:
        raise ParseError("missing 'n <arity>' line")
    total = slots(n)
    if len(values) != total:
        raise ValidationError(
            f"incomplete {kind}: {total - len(values)} of {total} entries missing")
    return name, n, [values[slot] for slot in range(total)]


# --- lattice ----------------------------------------------------------------


def parse_lattice(text: str) -> Lattice:
    name = None
    size = None
    covers = []
    labels = {}
    label_lines = {}
    for lineno, tokens in _lines(text):
        key = tokens[0]
        if key == "lattice":
            if len(tokens) != 2:
                raise ParseError("expected: lattice <name>", lineno)
            _once(name, "lattice <name>", lineno)
            name = tokens[1]
        elif key == "elements":
            if len(tokens) != 2:
                raise ParseError("expected: elements <count>", lineno)
            _once(size, "elements <count>", lineno)
            size = _int(tokens[1], lineno, "element count")
            if size > MAX_SIZE:
                raise ParseError(
                    f"element count {size} exceeds the limit of {MAX_SIZE}", lineno)
        elif key == "cover":
            if len(tokens) != 3:
                raise ParseError("expected: cover <i> <j>", lineno)
            covers.append((_int(tokens[1], lineno), _int(tokens[2], lineno)))
        elif key == "label":
            if len(tokens) < 3:
                raise ParseError("expected: label <i> <text>", lineno)
            element = _int(tokens[1], lineno)
            _once(labels.get(element), f"label {element}", lineno)
            labels[element] = " ".join(tokens[2:])
            label_lines[element] = lineno
        else:
            raise ParseError(f"unknown lattice keyword {key!r}", lineno)
    if name is None:
        raise ParseError("missing 'lattice <name>' line")
    if size is None:
        raise ParseError("missing 'elements <count>' line")
    for element, lineno in label_lines.items():
        try:
            check_elements(size, (element,), "label for")
        except ForeignElement as exc:
            raise ParseError(str(exc), lineno) from None
    return build_from_covers(size, covers, name=name, labels=labels or None)


def serialize_lattice(L: Lattice) -> str:
    name = "unnamed" if L.name is None else _text(L.name, "lattice name")
    lines = [f"lattice {name}", f"elements {L.size}"]
    lines.extend(f"cover {a} {b}" for a, b in L.covers)
    lines.extend(f"label {e} {_text(L.labels[e], 'label', words=True)}"
                 for e in sorted(L.labels))
    return "\n".join(lines) + "\n"


# --- capacity ---------------------------------------------------------------


def _parse_subset(token, n, lineno):
    """The mask of a '{i,j,...}' token of distinct criteria in 1..n.

    Parts written as plain decimals are looked up together in ``_BITS``; any
    other token is walked part by part, which accepts what ``int`` accepts
    and names the first bad part in its error.
    """
    if not (token.startswith("{") and token.endswith("}")):
        raise ParseError(f"expected a subset like {{1,3}}, got {token!r}", lineno)
    body = token[1:-1]
    parts = body.split(",") if body else []
    try:
        mask = sum(map(_BITS.__getitem__, parts))
    except KeyError:
        mask = -1
    if mask >= 0 and not mask >> n and mask.bit_count() == len(parts):
        return mask
    mask = 0
    for part in parts:
        i = _int(part, lineno, "criterion")
        if not 1 <= i <= n:
            raise ParseError(f"criterion {i} outside 1..{n}", lineno)
        if mask >> (i - 1) & 1:
            raise ParseError(f"criterion {i} repeated in subset", lineno)
        mask |= 1 << (i - 1)
    return mask


def parse_capacity(text: str, L: Lattice) -> tuple[str, Capacity]:
    def entry(tokens, n, lineno):
        if len(tokens) != 3:
            raise ParseError("expected: m {subset} <element>", lineno)
        return (_parse_subset(tokens[1], n, lineno),
                _int(tokens[2], lineno, "element"))

    name, _, values = _parse_keyed(text, "capacity", "m", entry,
                                   lambda n: 1 << n)
    return name, Capacity(L, values)


def _subset_token(mask, n):
    return "{" + ",".join(str(i + 1) for i in range(n) if mask >> i & 1) + "}"


def serialize_capacity(m: Capacity, name: str = "capacity") -> str:
    lines = [f"capacity {_text(name, 'capacity name')}", f"n {m.arity}"]
    lines.extend(f"m {_subset_token(mask, m.arity)} {m.coefficients[mask]}"
                 for mask in range(1 << m.arity))
    return "\n".join(lines) + "\n"


# --- function table -----------------------------------------------------------


def parse_function_table(text: str, L: Lattice) -> tuple[str, FunctionTable]:
    check_type(L, Lattice)

    def entry(tokens, n, lineno):
        if len(tokens) != n + 3 or tokens[n + 1] != "->":
            raise ParseError(f"expected: f <x1> .. <x{n}> -> <value>", lineno)
        x = [_int(t, lineno) for t in tokens[1:n + 1]]
        try:
            x = check_input(L.size, n, x)
        except ForeignElement as exc:
            raise ParseError(str(exc), lineno)
        return encode(x, L.size), _int(tokens[n + 2], lineno, "value")

    name, n, values = _parse_keyed(text, "function", "f", entry,
                                   lambda n: L.size ** n)
    return name, FunctionTable(n, L.size, values)


def serialize_function_table(f: FunctionTable, name: str = "function") -> str:
    lines = [f"function {_text(name, 'function name')}", f"n {f.arity}"]
    for x, v in zip(all_inputs(f.size, f.arity), f.values):
        lines.append("f " + " ".join(map(str, x)) + f" -> {v}")
    return "\n".join(lines) + "\n"


# --- polynomial ---------------------------------------------------------------


def _sexp_tokens(text):
    stripped = []
    for raw in text.splitlines():
        stripped.append(raw.split("#", 1)[0])
    return "\n".join(stripped).replace("(", " ( ").replace(")", " ) ").split()


def parse_polynomial(text: str, arity: int | None = None) -> WeightedPolynomial:
    """Parse a prefix S-expression like (join (meet (const 1) (var 0)) (var 1)).

    The declared arity defaults to one past the largest projection index.
    """
    tokens = _sexp_tokens(text)
    if not tokens:
        raise ParseError("empty polynomial")
    pos = 0
    top_index = -1

    def expect(token):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != token:
            got = tokens[pos] if pos < len(tokens) else "end of input"
            raise ParseError(f"expected {token!r}, got {got!r}")
        pos += 1

    def too_deep():
        return ParseError(f"polynomial nested deeper than {MAX_DEPTH} levels")

    def parse_node(level):
        """The node at nesting ``level`` and the depth of its subtree."""
        nonlocal pos, top_index
        if level > MAX_DEPTH:
            raise too_deep()
        expect("(")
        if pos >= len(tokens):
            raise ParseError("unterminated S-expression")
        head = tokens[pos]
        pos += 1
        if head in ("var", "const"):
            if pos >= len(tokens):
                raise ParseError(f"missing argument after {head!r}")
            try:
                value = int(tokens[pos])
            except ValueError:
                raise ParseError(f"expected an integer after {head!r}, "
                                 f"got {tokens[pos]!r}")
            pos += 1
            node = Projection(value) if head == "var" else Constant(value)
            top_index = max(top_index, value if head == "var" else -1)
            depth = 1
        elif head in ("meet", "join"):
            args = []
            while pos < len(tokens) and tokens[pos] == "(":
                args.append(parse_node(level + 1))
            if len(args) < 2:
                raise ParseError(f"{head!r} needs at least two arguments")
            node, depth = args[0]
            ctor = Meet if head == "meet" else Join
            for arg, arg_depth in args[1:]:
                node = ctor(node, arg)
                depth = 1 + max(depth, arg_depth)
        else:
            raise ParseError(f"unknown polynomial operator {head!r}")
        expect(")")
        return node, depth

    root, depth = parse_node(1)
    if depth > MAX_DEPTH:
        raise too_deep()
    if pos != len(tokens):
        raise ParseError(f"trailing tokens after polynomial: {tokens[pos]!r}")
    return WeightedPolynomial(top_index + 1 if arity is None else arity, root)


def serialize_polynomial(p: WeightedPolynomial) -> str:
    """The S-expression of ``p``, written with a stack of its own;
    InvalidArgument for a term deeper than ``MAX_DEPTH``, which
    ``parse_polynomial`` would refuse."""
    out, stack = [], [(check_type(p, WeightedPolynomial).root, 1)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, str):  # the text between and after operands
            out.append(node)
        elif depth > MAX_DEPTH:
            raise InvalidArgument(f"a polynomial nested deeper than {MAX_DEPTH} "
                                  f"levels would not read back")
        elif isinstance(node, Projection):
            out.append(f"(var {node.index})")
        elif isinstance(node, Constant):
            out.append(f"(const {node.value})")
        else:
            out.append("(meet " if isinstance(node, Meet) else "(join ")
            stack += ((")", 0), (node.right, depth + 1), (" ", 0), (node.left, depth + 1))
    return "".join(out) + "\n"

