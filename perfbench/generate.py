"""Seeded inputs for the ``user-mixed`` workload.

Each seed gives ``FILES`` identity files, one per ``verify --expr-file``
process.  File ``i`` runs at an order drawn uniformly from ``JITTER`` either
side of the middle of the ``i``-th of ``FILES`` equal strata of
``[ORDER_LO, ORDER_HI)``, so every seed covers short, mid and long windows.
Every file has the same line shapes (see ``SHAPES``) and every term the same
number of factors; the seed picks the builders, their ``k``, the
coefficients and the quarter powers of q.  Every term holds a sum whose
exponents lie on no lattice of step >= 2, as a user's own expressions often
do, so most series products here are unstrided.  The work of a file grows with the
square of its order (the ``sqrt`` line dominates), so these fixed strata and
shapes keep the total work of one seed within a few percent of any other.

Every line is true by construction: an algebraic rewrite of random terms, or
the classical ``Pi(q^k) = q^(k/4) * psi(q^k)^2``.  ``MUTATED_PER_FILE`` lines
of each file get ``c * q^r`` added to their right side.  The expected report
of such a line is then known without running the program: it is falsified at
t-exponent ``4r`` with ``lhs - rhs = -c``.  ``4r`` stays below half the
order, far inside the window every shape keeps, so no line can reach an
insufficient-precision or other error path.

Terms carry positive coefficients and factors with leading coefficient 1,
so the square under ``sqrt`` has a positive leading coefficient and an even
valuation.

Run ``python3 perfbench/generate.py SEED`` to print the files of a seed.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction

FILES = 6
ORDER_LO, ORDER_HI = 160, 800
JITTER = 16
MUTATED_PER_FILE = 2

KS = (1, 2, 3, 4, 5, 6)
BUILDERS = ("Pi", "psi", "phi")
COEFFS = (Fraction(1), Fraction(2), Fraction(3), Fraction(5), Fraction(1, 2), Fraction(3, 4))
MUTATIONS = (Fraction(1), Fraction(2), Fraction(-1), Fraction(-3), Fraction(1, 2), Fraction(-5, 3))


@dataclass(frozen=True)
class Line:
    """One identity line and the report the program must give for it."""

    text: str
    failure: tuple[int, Fraction] | None = None
    """``(t-exponent, lhs - rhs)`` of the first failure; None when true."""


@dataclass(frozen=True)
class ExprFile:
    name: str
    order: int
    header: str
    lines: tuple[Line, ...]

    FIRST_LINE = 2
    """Line number of ``lines[0]``: the header comment is line 1."""

    def text(self) -> str:
        return "\n".join([self.header] + [ln.text for ln in self.lines]) + "\n"


def _qpow(t_exponent: int) -> str:
    return f"q^{{{Fraction(t_exponent, 4)}}}"


def _builder(rng: random.Random) -> tuple[str, int]:
    """A random builder call and its t-valuation (``k`` for ``Pi(q^k)``, else 0)."""
    name, k = rng.choice(BUILDERS), rng.choice(KS)
    return (f"{name}(q)" if k == 1 else f"{name}(q^{k})"), (k if name == "Pi" else 0)


def _mixed(rng: random.Random) -> str:
    """``(X + q^(j/4) * Y)`` with an odd valuation gap between the two parts.

    Each builder has its exponents on a lattice of step 4k, so the odd gap
    puts the sum, and every product with it, off any lattice of step >= 2.
    The leading coefficient is 1 because the two valuations differ.
    """
    (x, vx), (y, vy) = _builder(rng), _builder(rng)
    j = rng.choice([j for j in range(1, 8) if (vy + j - vx) % 2])
    return f"({x} + {_qpow(j)} * {y})"


def _term(rng: random.Random, with_qpow: bool) -> str:
    """``c * X * (mixed sum)`` or ``c * q^(j/4) * (mixed sum)`` in brackets; leading coefficient c > 0."""
    first = _qpow(rng.randint(1, 7)) if with_qpow else _builder(rng)[0]
    factors = [first, _mixed(rng)]
    c = rng.choice(COEFFS)
    if c != 1:
        factors.insert(0, str(c))
    return "(" + " * ".join(factors) + ")"


def _two_terms(rng: random.Random) -> tuple[str, str]:
    return _term(rng, False), _term(rng, True)


def _classical(rng):
    k = rng.choice(KS)
    f = _term(rng, True)
    return f"Pi(q^{k}) * {f}", f"{_qpow(k)} * psi(q^{k})^2 * {f}"


def _square(rng):
    a, b = _two_terms(rng)
    return f"({a} + {b})^2", f"{a}^2 + 2 * {a} * {b} + {b}^2"


def _power(rng):
    a, b = _two_terms(rng)
    n = rng.choice((2, 3))
    return f"({a} * {b})^{n}", f"{a}^{n} * {b}^{n}"


def _quotient(rng):
    a, b = _two_terms(rng)
    x, _ = _builder(rng)
    return f"({a} + {b}) / {x}", f"{a} / {x} + {b} / {x}"


def _cancel(rng):
    a = _term(rng, True)
    x, _ = _builder(rng)
    return f"{a} * {x} / {x}", a


def _root(rng):
    a, b = _two_terms(rng)
    return f"sqrt(({a} + {b})^2)", f"{a} + {b}"


def _difference(rng):
    a, b = _two_terms(rng)
    return f"({a} + {b}) * ({a} - {b})", f"{a}^2 - {b}^2"


SHAPES = (_classical, _classical, _square, _power, _quotient, _cancel, _root, _difference)


def _mutate(rhs: str, t_exponent: int, c: Fraction) -> str:
    sign = "+" if c > 0 else "-"
    return f"{rhs} {sign} {abs(c)} * {_qpow(t_exponent)}"


def generate(seed: int) -> tuple[ExprFile, ...]:
    """The ``user-mixed`` files of one seed; the same seed gives the same files."""
    rng = random.Random(seed)
    width = (ORDER_HI - ORDER_LO) // FILES
    files = []
    for i in range(FILES):
        order = ORDER_LO + i * width + width // 2 + rng.randint(-JITTER, JITTER)
        mutated = set(rng.sample(range(len(SHAPES)), MUTATED_PER_FILE))
        lines = []
        for j, shape in enumerate(SHAPES):
            lhs, rhs = shape(rng)
            if j in mutated:
                t_exponent = rng.randrange(order // 2)
                c = rng.choice(MUTATIONS)
                lines.append(Line(f"{lhs} = {_mutate(rhs, t_exponent, c)}", (t_exponent, -c)))
            else:
                lines.append(Line(f"{lhs} = {rhs}"))
        header = f"# user-mixed seed={seed} file={i} order={order}"
        files.append(ExprFile(f"user-{i}.txt", order, header, tuple(lines)))
    return tuple(files)


if __name__ == "__main__":
    for f in generate(int(sys.argv[1])):
        print(f"== {f.name}")
        print(f.text(), end="")
