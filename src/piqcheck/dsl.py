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
bounded by ``series.MAX_ORDER``: a larger one is a :class:`ParseError` at
its exponent, and a ValueError from the :class:`QPow` constructor.

An expression tree more than :data:`MAX_DEPTH` levels deep, or with brackets
and ``sqrt`` calls nested deeper than that, raises :class:`ParseError` at
the operator or bracket that goes past the limit.  A deeper tree built
through the API is refused with ValueError by :func:`to_text` and by
``catalog.evaluate``, which measure it with :func:`check_depth`.

Parse failures raise :class:`ParseError` carrying the byte offset into the
UTF-8 encoding of the input and the set of token descriptions that were
expected at that point.  An integer literal longer than the interpreter's
int string limit (``sys.get_int_max_str_digits()``) is one, at the
literal.  A builder or sqrt call with the wrong number of arguments raises
:class:`ArityError` instead (same offset semantics).

:func:`to_text` renders a tree back to the grammar; ``parse(to_text(e))``
reproduces ``e`` node for node.

The nodes are frozen dataclasses: :class:`Builder` (``Pi``, ``Psi``,
``Phi``), :class:`QPow`, :class:`Const`, :class:`Binary` (``Add``, ``Sub``,
``Mul``, ``Div``), :class:`PowInt` and :class:`Sqrt`.  A subclass adds no
field, so it is a plain subclass of its base and only spells itself
differently; equality compares the class too, so ``Add(x, y) != Sub(x, y)``
and ``Pi(1) != Psi(1)``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .series import MAX_ORDER

MAX_DEPTH = 100
"""Deepest expression tree, and deepest nesting of brackets, that parse accepts.

The catalog's trees are at most 8 deep.  Evaluating and printing a tree
recurse once or twice per level and parsing a bracket four or five times,
so the limit keeps every such walk well inside the interpreter's
recursion limit.  :func:`check_depth` enforces it on trees built through
the API before they are evaluated or printed.
"""


class ParseError(Exception):
    """Syntax error with a byte offset and the set of expected tokens."""

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        self.offset = offset
        self.expected = expected
        hint = f" (expected one of: {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{message} at byte {offset}{hint}")


class ArityError(ParseError):
    """A call supplied the wrong number of arguments."""

    def __init__(self, message: str, offset: int):
        super().__init__(message, offset)


class QPowNotQuarterIntegral(ParseError):
    """q^r with 4r not an integer cannot be represented as a power of t."""

    def __init__(self, r: Fraction, offset: int):
        self.exponent = r
        super().__init__(f"q^{r} is not a quarter-integral power", offset)


# ----------------------------------------------------------------------
# expression nodes


class Expr:
    """Base class for identity expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Builder(Expr):
    """A theta builder at q^k; ``name`` is how the DSL spells it."""

    k: int

    name: ClassVar[str]

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


@dataclass(frozen=True)
class QPow(Expr):
    """q^r with 4r integral, i.e. the monomial t^(4r)."""

    r: Fraction

    def __post_init__(self) -> None:
        r = Fraction(self.r)
        if (4 * r).denominator != 1:
            raise ValueError(f"q^{r} is not representable: 4*{r} is not an integer")
        if abs(4 * r) > MAX_ORDER:
            raise ValueError(_QPOW_RANGE)
        object.__setattr__(self, "r", r)

    @property
    def t_exponent(self) -> int:
        return int(4 * self.r)


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Binary(Expr):
    """An infix operation; each subclass spells its operator as ``symbol``."""

    left: Expr
    right: Expr


class Add(Binary):
    symbol = "+"


class Sub(Binary):
    symbol = "-"


class Mul(Binary):
    symbol = "*"


class Div(Binary):
    symbol = "/"


@dataclass(frozen=True)
class PowInt(Expr):
    base: Expr
    exponent: int

    def __post_init__(self) -> None:
        if not isinstance(self.exponent, int):
            raise ValueError("power exponent must be an integer")


@dataclass(frozen=True)
class Sqrt(Expr):
    arg: Expr


# ----------------------------------------------------------------------
# tokenizer

_SYMBOLS = "+-*/^(){},="
_BUILDERS = {cls.name: cls for cls in (Pi, Psi, Phi)}
_INFIX = {cls.symbol: cls for cls in (Add, Sub, Mul, Div)}


@dataclass(frozen=True)
class _Token:
    kind: str       # 'int' | 'name' | one of _SYMBOLS | 'end'
    text: str
    pos: int        # character position; converted to bytes when reporting
    value: int = 0  # the value of an 'int' token


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # longer than the interpreter's int string limit
                raise ParseError(
                    f"integer literal of {j - i} digits is longer than"
                    f" {sys.get_int_max_str_digits()}", _byte_offset(text, i)
                ) from None
            tokens.append(_Token("int", text[i:j], i, value))
            i = j
            continue
        if ("a" <= ch <= "z") or ("A" <= ch <= "Z"):
            j = i
            while j < n and (("a" <= text[j] <= "z") or ("A" <= text[j] <= "Z")):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", _byte_offset(text, i))
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    # -- plumbing ------------------------------------------------------

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def _offset(self, token: _Token | None = None) -> int:
        return _byte_offset(self.text, (token or self.current).pos)

    def _advance(self) -> _Token:
        tok = self.current
        self.pos += 1
        return tok

    def _accept(self, kind: str) -> _Token | None:
        if self.current.kind == kind:
            return self._advance()
        return None

    def _expect(self, kind: str, expected: frozenset[str]) -> _Token:
        if self.current.kind != kind:
            raise ParseError(
                f"unexpected {self._describe(self.current)}", self._offset(), expected
            )
        return self._advance()

    def _checked(self, depth: int, tok: _Token) -> int:
        """depth, or a ParseError at tok when it exceeds MAX_DEPTH."""
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", self._offset(tok))
        return depth

    def _open(self) -> None:
        """Consume '(', one nesting level deeper."""
        tok = self._expect("(", frozenset({"'('"}))
        self.nesting += 1
        self._checked(self.nesting, tok)

    @staticmethod
    def _describe(tok: _Token) -> str:
        if tok.kind == "end":
            return "end of input"
        return f"token {tok.text!r}"

    # -- grammar: each rule returns (node, depth of the node's tree) ----

    def parse(self) -> Expr:
        e, _ = self.expr()
        if self.current.kind != "end":
            raise ParseError(
                f"unexpected {self._describe(self.current)}",
                self._offset(),
                frozenset({"end of input", "'+'", "'-'", "'*'", "'/'"}),
            )
        return e

    def expr(self) -> tuple[Expr, int]:
        node, depth = self.term()
        while self.current.kind in ("+", "-"):
            op = self._advance()
            rhs, rdepth = self.term()
            node = _INFIX[op.kind](node, rhs)
            depth = self._checked(max(depth, rdepth) + 1, op)
        return node, depth

    def term(self) -> tuple[Expr, int]:
        node, depth = self.factor()
        while self.current.kind in ("*", "/"):
            op = self._advance()
            rhs, rdepth = self.factor()
            node = _INFIX[op.kind](node, rhs)
            depth = self._checked(max(depth, rdepth) + 1, op)
        return node, depth

    def factor(self) -> tuple[Expr, int]:
        node, depth = self.atom()
        op = self._accept("^")
        if op:
            if self._at_negative():
                exponent = -self._negative(self._integer)
            else:
                exponent = self._integer()
            node, depth = PowInt(node, exponent), self._checked(depth + 1, op)
        return node, depth

    def atom(self) -> tuple[Expr, int]:
        tok = self.current
        if tok.kind == "int":
            return Const(self._rational()), 1
        if self._at_negative():
            return Const(-self._negative(self._rational)), 1
        if tok.kind == "(":
            self._open()
            inner = self.expr()
            self._expect(")", frozenset({"')'"}))
            self.nesting -= 1
            return inner
        if tok.kind == "name":
            if tok.text in _BUILDERS:
                return self._builder_call(tok.text), 1
            if tok.text == "sqrt":
                return self._sqrt_call()
            if tok.text == "q":
                return self._qpower(), 1
            raise ParseError(
                f"unknown name {tok.text!r}",
                self._offset(),
                frozenset({"'Pi'", "'psi'", "'phi'", "'sqrt'", "'q'"}),
            )
        raise ParseError(
            f"unexpected {self._describe(tok)}",
            self._offset(),
            frozenset({"'Pi'", "'psi'", "'phi'", "'sqrt'", "'q'", "integer", "'('"}),
        )

    def _at_negative(self) -> bool:
        return self.current.kind == "(" and self.tokens[self.pos + 1].kind == "-"

    def _negative(self, read):
        """'(' '-' x ')' with x read by read(); returns x."""
        self._expect("(", frozenset({"'('"}))
        self._expect("-", frozenset({"'-'"}))
        value = read()
        self._expect(")", frozenset({"')'"}))
        return value

    def _integer(self) -> int:
        return self._expect("int", frozenset({"integer"})).value

    def _rational(self) -> Fraction:
        tok = self._expect("int", frozenset({"integer"}))
        value = Fraction(tok.value)
        # consume '/' only when an integer follows, so 3/psi(q) stays a term
        if self.current.kind == "/" and self.tokens[self.pos + 1].kind == "int":
            self._advance()
            den_tok = self._advance()
            den = den_tok.value
            if den == 0:
                raise ParseError("rational with zero denominator", self._offset(den_tok))
            value /= den
        return value

    def _builder_call(self, name: str) -> Expr:
        self._advance()  # name
        self._expect("(", frozenset({"'('"}))
        if self.current.kind == ")":
            raise ArityError(f"{name} requires exactly one argument", self._offset())
        k = self._qarg(name)
        if self.current.kind == ",":
            raise ArityError(f"{name} takes exactly one argument", self._offset())
        self._expect(")", frozenset({"')'"}))
        return _BUILDERS[name](k)

    def _qarg(self, name: str) -> int:
        tok = self._expect("name", frozenset({"'q'"}))
        if tok.text != "q":
            raise ParseError(
                f"{name} argument must be a power of q", self._offset(tok), frozenset({"'q'"})
            )
        if self._accept("^"):
            num = self._expect("int", frozenset({"integer"}))
            k = num.value
            if k < 1:
                raise ParseError("builder power must be positive", self._offset(num))
            return k
        return 1

    def _sqrt_call(self) -> tuple[Expr, int]:
        name = self._advance()  # sqrt
        self._open()
        if self.current.kind == ")":
            raise ArityError("sqrt requires exactly one argument", self._offset())
        inner, depth = self.expr()
        if self.current.kind == ",":
            raise ArityError("sqrt takes exactly one argument", self._offset())
        self._expect(")", frozenset({"')'"}))
        self.nesting -= 1
        return Sqrt(inner), self._checked(depth + 1, name)

    def _qpower(self) -> Expr:
        self._advance()  # q
        self._expect("^", frozenset({"'^'"}))
        rat_tok = self.current
        if self._at_negative():
            r = -self._negative(self._rational)
        else:
            braced = self._accept("{") is not None
            rat_tok = self.current
            r = self._rational()
            if braced:
                self._expect("}", frozenset({"'}'"}))
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


def _children(e: Expr) -> tuple[Expr, ...]:
    match e:
        case Binary(left, right):
            return left, right
        case PowInt(inner) | Sqrt(inner):
            return (inner,)
    return ()


def check_depth(e: Expr) -> None:
    """Raise ValueError when the tree of e is more than MAX_DEPTH levels deep.

    A leaf is one level deep, as in :func:`parse`.  The walk keeps its own
    stack, so a tree of any depth is measured without recursion.
    """
    stack = [(e, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ValueError(f"expression tree deeper than MAX_DEPTH = {MAX_DEPTH} levels")
        stack.extend((child, depth + 1) for child in _children(node))


# ----------------------------------------------------------------------
# printer

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4


def _level(e: Expr) -> int:
    match e:
        case Add() | Sub():
            return _LEVEL_ADD
        case Mul() | Div():
            return _LEVEL_MUL
        case PowInt():
            return _LEVEL_POW
    return _LEVEL_ATOM


def _render(e: Expr, min_level: int) -> str:
    text = _render_raw(e)
    if _level(e) < min_level:
        return f"({text})"
    return text


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
            return f"{e.name}(q)" if k == 1 else f"{e.name}(q^{k})"
        case QPow(r):
            return f"q^(-{-r})" if r < 0 else f"q^{r}"
        case Const(value):
            return f"({value})" if value < 0 else str(value)
        case Binary(left, right):
            level = _level(e)
            operand = _render(right, level + 1)
            if isinstance(e, Div) and operand[0].isdigit() and _joins_slash(left):
                operand = f"({operand})"
            return f"{_render(left, level)} {e.symbol} {operand}"
        case PowInt(base, exponent):
            exponent = f"({exponent})" if exponent < 0 else exponent
            return f"{_render(base, _LEVEL_ATOM)}^{exponent}"
        case Sqrt(arg):
            return f"sqrt({_render(arg, _LEVEL_ADD)})"
    raise TypeError(f"not an expression node: {e!r}")


def to_text(e: Expr) -> str:
    """Render an expression tree in the DSL grammar; inverse of :func:`parse`.

    A tree more than :data:`MAX_DEPTH` levels deep raises ValueError.
    """
    check_depth(e)
    return _render(e, _LEVEL_ADD)
