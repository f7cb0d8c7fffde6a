"""Frozen values: every field of every value is written by ``_Frozen._fill``.

``_Frozen._of`` builds a value from fields already in stored form; it is
the one place a value is made without ``__init__``.
"""

import inspect
import re
from fractions import Fraction
from pathlib import Path

from piqcheck import catalog, dsl, exact, modular, theta
from piqcheck.exact import _Frozen
from piqcheck.field import M, Poly, QuadExt, RatFunc
from piqcheck.series import LaurentSeries

PACKAGE = Path(exact.__file__).parent


def test_fields_are_written_in_one_place():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, text in sources.items() if "object.__setattr__" in text] == []
    assert [name for name, text in sources.items() if "object.__new__" in text] == ["exact.py"]
    assert sources["exact.py"].count("object.__new__") == 1
    assert "object.__new__" in inspect.getsource(_Frozen._of)
    # no value copies or merges another's dictionary of fields
    updates = {name: len(re.findall(r"vars\([^)]*\)\.update", text)) for name, text in sources.items()}
    assert {name: n for name, n in updates.items() if n} == {"exact.py": 1}
    assert "vars(self).update" in inspect.getsource(_Frozen._fill)


def nodes(e):
    """e and every node below it."""
    yield e
    for sub in e._values(e)[: e.arity]:
        yield from nodes(sub)


def samples():
    """One value or more of every concrete frozen class of the package."""
    yield LaurentSeries(-3, [Fraction(1, 2), 0, -4, 0, 6], 9)  # negative valuation
    yield LaurentSeries.zero(12)
    yield theta.pi_product(1, 40)  # on a lattice of step 4
    yield Poly([1, Fraction(-2, 3), 0, 5])
    yield RatFunc(Poly([1, 2]), M**2 + 3)
    yield QuadExt(Poly([1, 1]), RatFunc(1, M), M**2 + 5)
    yield from nodes(dsl.parse("Pi(q) + psi(q^2) - phi(q^3) * q^(-1/2) / (-3/4) + sqrt(Pi(q))^2"))
    yield catalog.get_identity("EQ11-9+")
    falsified = catalog.verify_sides("x", dsl.parse("Pi(q)"), dsl.parse("psi(q)"), 16)
    yield falsified
    yield falsified.first_failure
    table = modular.build_table3()
    yield table
    yield modular.prove_degree3("4-1", table)
    report = modular.check_param_series(3, 40)
    yield report
    yield from report.checks


def concrete(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("piqcheck."):
            yield from concrete(sub) if sub.__subclasses__() else (sub,)


def test_of_rebuilds_every_value_from_its_fields():
    values = list(samples())
    assert {type(x) for x in values} >= set(concrete(_Frozen))
    for x in values:
        y = type(x)._of(*x._values(x))
        assert y == x and y is not x, x
        assert hash(y) == hash(x) and repr(y) == repr(x)
