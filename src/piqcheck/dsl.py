"""Expression trees for q-series identities, with a small text DSL.

Grammar (whitespace insensitive)::

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := atom ('^' (integer | '(' '-' integer ')'))?
    atom     := 'Pi' '(' qarg ')' | 'psi' '(' qarg ')' | 'phi' '(' qarg ')'
              | 'sqrt' '(' expr ')' | 'q' '^' qexp | rational
              | '(' '-' rational ')' | '(' expr ')'
    qarg     := 'q' ('^' posint)?
    qexp     := rational | '{' rational '}' | '(' '-' rational ')'
    rational := integer ('/' integer)?

Negative numbers exist only in brackets: the constant ``(-3/4)``, the
power ``x^(-2)`` and the q-power ``q^(-1/2)``.  A rational binds greedily,
so ``q^1/2`` is the exponent 1/2 and ``1/2`` one constant; braces are also
accepted after ``q^`` (``q^{1/2}``) and ignored.  ``q^r`` denotes the
q-power q^r, which is the t-power t^(4r); r must therefore be a quarter
integer (4r integral) or :class:`QPowNotQuarterIntegral` is raised.  A
q-power widens the window of a sum as far as an order does, so |4r| is
bounded by ``exact.MAX_ORDER``: a larger one is a :class:`ParseError` at
its exponent, and a ValueError from the :class:`QPow` constructor.  Like a
series coefficient, a ``Const`` or ``QPow`` number that is a float is a TypeError.

Each node records the depth of its tree when it is built: a leaf is 1
level deep, any other node one more than its deepest child.  A tree more
than :data:`MAX_DEPTH` levels deep, or with brackets and ``sqrt`` calls
nested deeper than that, raises :class:`ParseError` at the operator or
bracket that goes past the limit.  A deeper tree built through the API is
refused with ValueError by :func:`to_text` and by ``catalog.evaluate``.

Parse failures raise :class:`ParseError`, an ``exact.UsageError`` and so a
ValueError, carrying the byte offset into the UTF-8 encoding of the input
and the set of token descriptions that were expected at that point.  An
integer literal longer than the interpreter's int string limit
(``sys.get_int_max_str_digits()``) is one, at the literal.  A builder or
sqrt call with the wrong number of arguments raises :class:`ArityError`
instead (same offset semantics).

:func:`to_text` renders a tree back to the grammar, spelling every number
with ``exact.exact_str``; ``parse(to_text(e))`` reproduces ``e`` node for
node, unless a number of e has more digits than the int string limit: that
text prints, and parse refuses it as above.

The nodes are frozen values (``exact._Frozen``, whose fields are the
annotations of each class body): :class:`Builder` (``Pi``, ``Psi``,
``Phi``), :class:`QPow`, :class:`Const`, :class:`Binary` (``Add``, ``Sub``,
``Mul``, ``Div``), :class:`PowInt` and :class:`Sqrt`.  A subclass adds no
field, so it is a plain subclass of its base and only spells itself
differently; equality compares the class too, so ``Add(x, y) != Sub(x, y)``
and ``Pi(1) != Psi(1)``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .exact import MAX_ORDER, UsageError, _frac, _Frozen, exact_str

MAX_DEPTH = 100
"""Deepest expression tree, and deepest nesting of brackets, that parse accepts.

The catalog's trees are at most 8 deep.  Evaluating and printing a tree
recurse once or twice per level and parsing a bracket four or five times,
so the limit keeps every such walk well inside the interpreter's
recursion limit.  :func:`check_depth` enforces it on trees built through
the API, before they are evaluated or printed, from the root's ``depth``.
"""


class ParseError(UsageError):
    """Syntax error with a byte offset and the set of expected tokens."""

    label = "parse error"

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        self.offset = offset
        self.expected = expected
        hint = f" (expected one of: {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{message} at byte {offset}{hint}")


class ArityError(ParseError):
    """A call supplied the wrong number of arguments."""


class QPowNotQuarterIntegral(ParseError):
    """q^r with 4r not an integer cannot be represented as a power of t."""

    def __init__(self, r: Fraction, offset: int):
        self.exponent = r
        super().__init__(f"q^{r} is not a quarter-integral power", offset)


# ----------------------------------------------------------------------
# expression nodes


class Expr(_Frozen):
    """Base class for identity expression nodes."""

    __slots__ = ()
    # class data, not annotated fields, so equality, hash and repr ignore both
    depth = 1  # levels of the node's tree, set by each node with children
    level = 4  # print precedence: 1 for + and -, 2 for * and /, 3 for ^, 4 for an atom

    def _set_depth(self, *children) -> None:
        """One more than the deepest child; a child that is not a node is a leaf."""
        depth = 1 + max(c.depth if isinstance(c, Expr) else 1 for c in children)
        object.__setattr__(self, "depth", depth)


class Builder(Expr):
    """A theta builder at q^k; ``name`` is how the DSL spells it."""

    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("builder power index must be a positive integer")


class Pi(Builder):
    """Pi_{q^k}."""

    name = "Pi"


class Psi(Builder):
    """psi(q^k)."""

    name = "psi"


class Phi(Builder):
    """phi(q^k)."""

    name = "phi"


_QPOW_RANGE = f"q-power exponent out of range: |4r| must be at most {MAX_ORDER}"


class QPow(Expr):
    """q^r with 4r integral, i.e. the monomial t^(4r)."""

    r: Fraction

    def __post_init__(self) -> None:
        r = _frac(self.r)
        if (4 * r).denominator != 1:
            text = exact_str(r)
            raise ValueError(f"q^{text} is not representable: 4*{text} is not an integer")
        if abs(4 * r) > MAX_ORDER:
            raise ValueError(_QPOW_RANGE)
        object.__setattr__(self, "r", r)

    @property
    def t_exponent(self) -> int:
        return int(4 * self.r)


class Const(Expr):
    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _frac(self.value))


class Binary(Expr):
    """An infix operation; each subclass spells its operator as ``symbol``."""

    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        self._set_depth(self.left, self.right)


class Add(Binary):
    symbol = "+"
    level = 1


class Sub(Binary):
    symbol = "-"
    level = 1


class Mul(Binary):
    symbol = "*"
    level = 2


class Div(Binary):
    symbol = "/"
    level = 2


class PowInt(Expr):
    base: Expr
    exponent: int

    level = 3

    def __post_init__(self) -> None:
        if not isinstance(self.exponent, int):
            raise ValueError("power exponent must be an integer")
        self._set_depth(self.base)


class Sqrt(Expr):
    arg: Expr

    def __post_init__(self) -> None:
        self._set_depth(self.arg)


# ----------------------------------------------------------------------
# tokenizer

_SYMBOLS = "+-*/^(){},="
_BUILDERS = {cls.name: cls for cls in (Pi, Psi, Phi)}
_INFIX = {cls.symbol: cls for cls in (Add, Sub, Mul, Div)}


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


_TOKEN = re.compile(r"([0-9]+)|([A-Za-z]+)|(\S)")
"""An integer, a name, or any other character but white space."""


def _tokenize(text: str) -> list[tuple]:
    """Tokens (kind, text, pos, value), the last of kind 'end'; kind is 'int',
    'name' or a symbol, pos a character position, value an int's value or 0."""
    tokens = []
    for match in _TOKEN.finditer(text):
        digits, name, ch = match.groups()
        i = match.start()
        if digits:
            try:
                value = int(digits)
            except ValueError:  # longer than the interpreter's int string limit
                raise ParseError(
                    f"integer literal of {len(digits)} digits is longer than"
                    f" {sys.get_int_max_str_digits()}", _byte_offset(text, i)
                ) from None
            tokens.append(("int", digits, i, value))
        elif name:
            tokens.append(("name", name, i, 0))
        elif ch in _SYMBOLS:
            tokens.append((ch, ch, i, 0))
        else:
            raise ParseError(f"unexpected character {ch!r}", _byte_offset(text, i))
    tokens.append(("end", "", len(text), 0))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    # -- plumbing ------------------------------------------------------

    @property
    def current(self) -> tuple:
        return self.tokens[self.pos]

    @property
    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def _offset(self, token: tuple | None = None) -> int:
        return _byte_offset(self.text, (token or self.current)[2])

    def _advance(self) -> tuple:
        tok = self.current
        self.pos += 1
        return tok

    def _accept(self, kind: str) -> tuple | None:
        if self.kind == kind:
            return self._advance()
        return None

    def _expect(self, kind: str, *others: str) -> tuple:
        """Consume a token of ``kind``, else raise a ParseError expecting it or ``others``."""
        if self.kind != kind:
            # a name is expected only where q is
            expected = {"int": "integer", "name": "'q'"}.get(kind, f"'{kind}'")
            raise ParseError(
                f"unexpected {self._describe(self.current)}", self._offset(),
                frozenset({expected, *others}),
            )
        return self._advance()

    def _checked(self, depth: int, tok: tuple) -> None:
        """A ParseError at tok when depth exceeds MAX_DEPTH."""
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", self._offset(tok))

    def _open(self) -> None:
        """Consume '(', one nesting level deeper."""
        tok = self._expect("(")
        self.nesting += 1
        self._checked(self.nesting, tok)

    @staticmethod
    def _describe(tok: tuple) -> str:
        if tok[0] == "end":
            return "end of input"
        return f"token {tok[1]!r}"

    # -- grammar ---------------------------------------------------------

    def parse(self) -> Expr:
        e = self.expr()
        if self.kind != "end":
            raise ParseError(
                f"unexpected {self._describe(self.current)}",
                self._offset(),
                frozenset({"end of input", "'+'", "'-'", "'*'", "'/'"}),
            )
        return e

    def expr(self) -> Expr:
        node = self.term()
        while self.kind in ("+", "-"):
            op = self._advance()
            node = _INFIX[op[0]](node, self.term())
            self._checked(node.depth, op)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.kind in ("*", "/"):
            op = self._advance()
            node = _INFIX[op[0]](node, self.factor())
            self._checked(node.depth, op)
        return node

    def factor(self) -> Expr:
        node = self.atom()
        op = self._accept("^")
        if op:
            # after '^' a '(' can only open a negative exponent
            if self.kind == "(":
                exponent = -self._negative(self._integer)
            else:
                exponent = self._expect("int", "'('")[3]
            node = PowInt(node, exponent)
            self._checked(node.depth, op)
        return node

    def atom(self) -> Expr:
        kind, text, _, _ = tok = self.current
        if kind == "int":
            return Const(self._rational())
        if self._at_negative():
            return Const(-self._negative(self._rational))
        if kind == "(":
            self._open()
            inner = self.expr()
            self._expect(")")
            self.nesting -= 1
            return inner
        if kind == "name":
            if text in _BUILDERS:
                return self._builder_call(text)
            if text == "sqrt":
                return self._sqrt_call()
            if text == "q":
                return self._qpower()
            raise ParseError(
                f"unknown name {text!r}",
                self._offset(),
                frozenset({"'Pi'", "'psi'", "'phi'", "'sqrt'", "'q'"}),
            )
        raise ParseError(
            f"unexpected {self._describe(tok)}",
            self._offset(),
            frozenset({"'Pi'", "'psi'", "'phi'", "'sqrt'", "'q'", "integer", "'('"}),
        )

    def _at_negative(self) -> bool:
        return self.kind == "(" and self.tokens[self.pos + 1][0] == "-"

    def _negative(self, read):
        """'(' '-' x ')' with x read by read(); returns x."""
        self._expect("(")
        self._expect("-")
        value = read()
        self._expect(")")
        return value

    def _integer(self) -> int:
        return self._expect("int")[3]

    def _rational(self, *others: str) -> Fraction:
        tok = self._expect("int", *others)
        value = Fraction(tok[3])
        # consume '/' only when an integer follows, so 3/psi(q) stays a term
        if self.kind == "/" and self.tokens[self.pos + 1][0] == "int":
            self._advance()
            den_tok = self._advance()
            den = den_tok[3]
            if den == 0:
                raise ParseError("rational with zero denominator", self._offset(den_tok))
            value /= den
        return value

    def _builder_call(self, name: str) -> Expr:
        self._advance()  # name
        self._expect("(")
        if self.kind == ")":
            raise ArityError(f"{name} requires exactly one argument", self._offset())
        k = self._qarg(name)
        if self.kind == ",":
            raise ArityError(f"{name} takes exactly one argument", self._offset())
        self._expect(")")
        return _BUILDERS[name](k)

    def _qarg(self, name: str) -> int:
        tok = self._expect("name")
        if tok[1] != "q":
            raise ParseError(
                f"{name} argument must be a power of q", self._offset(tok), frozenset({"'q'"})
            )
        if self._accept("^"):
            num = self._expect("int")
            k = num[3]
            if k < 1:
                raise ParseError("builder power must be positive", self._offset(num))
            return k
        return 1

    def _sqrt_call(self) -> Expr:
        name = self._advance()  # sqrt
        self._open()
        if self.kind == ")":
            raise ArityError("sqrt requires exactly one argument", self._offset())
        inner = self.expr()
        if self.kind == ",":
            raise ArityError("sqrt takes exactly one argument", self._offset())
        self._expect(")")
        self.nesting -= 1
        node = Sqrt(inner)
        self._checked(node.depth, name)
        return node

    def _qpower(self) -> Expr:
        self._advance()  # q
        self._expect("^")
        rat_tok = self.current
        if self.kind == "(":
            r = -self._negative(self._rational)
        else:
            braced = self._accept("{") is not None
            rat_tok = self.current
            r = self._rational() if braced else self._rational("'{'", "'('")
            if braced:
                self._expect("}")
        if (4 * r).denominator != 1:
            raise QPowNotQuarterIntegral(r, self._offset(rat_tok))
        if abs(4 * r) > MAX_ORDER:
            raise ParseError(_QPOW_RANGE, self._offset(rat_tok))
        return QPow(r)


def parse(text: str) -> Expr:
    """Parse DSL text into an expression tree."""
    return _Parser(text).parse()


# ----------------------------------------------------------------------
# tree depth


def check_depth(e: Expr) -> None:
    """Raise ValueError when the tree of e is more than MAX_DEPTH levels deep.

    A leaf is one level deep, as in :func:`parse`.  It reads the depth the
    root recorded when it was built, so no tree is walked.
    """
    if getattr(e, "depth", 1) > MAX_DEPTH:
        raise ValueError(f"expression tree deeper than MAX_DEPTH = {MAX_DEPTH} levels")


# ----------------------------------------------------------------------
# printer

_LEVEL_ADD, _LEVEL_ATOM = Add.level, Expr.level


def _render(e: Expr, min_level: int) -> str:
    text = _render_raw(e)
    return f"({text})" if e.level < min_level else text


def _joins_slash(e: Expr) -> bool:
    """Whether the text of e ends in an integer that a following ``/ n``
    would join into one rational, as ``x * 1`` followed by ``/ 2`` does."""
    match e:
        case Mul(right=last) | Div(right=last):
            e = last
    match e:
        case Const(value=x) | QPow(r=x):
            return x >= 0 and x.denominator == 1
    return False


def _render_raw(e: Expr) -> str:
    match e:
        case Builder(k):
            return f"{e.name}(q)" if k == 1 else f"{e.name}(q^{exact_str(k)})"
        case QPow(r):
            return f"q^({exact_str(r)})" if r < 0 else f"q^{exact_str(r)}"
        case Const(value):
            return f"({exact_str(value)})" if value < 0 else exact_str(value)
        case Binary(left, right):
            operand = _render(right, e.level + 1)
            if isinstance(e, Div) and operand[0].isdigit() and _joins_slash(left):
                operand = f"({operand})"
            return f"{_render(left, e.level)} {e.symbol} {operand}"
        case PowInt(base, exponent):
            exponent = f"({exact_str(exponent)})" if exponent < 0 else exact_str(exponent)
            return f"{_render(base, _LEVEL_ATOM)}^{exponent}"
        case Sqrt(arg):
            return f"sqrt({_render(arg, _LEVEL_ADD)})"
    raise TypeError(f"not an expression node: {e!r}")


def to_text(e: Expr) -> str:
    """Render an expression tree in the DSL grammar; inverse of :func:`parse`.

    Any number prints, but one past the int string limit does not parse back.
    A tree more than :data:`MAX_DEPTH` levels deep raises ValueError.
    """
    check_depth(e)
    return _render(e, _LEVEL_ADD)
