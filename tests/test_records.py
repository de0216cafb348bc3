"""The package's records are immutable named tuples, checked where they are
built, and importing the package loads neither dataclasses nor inspect nor
typing."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zetasums import (
    Family,
    IdentityReport,
    Method,
    Sign,
    SumResult,
    SumSpec,
    Tolerance,
    TransformReport,
    ZetaCombination,
    ZetaTerm,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# each public record with valid field values, in field order
_RECORDS = {
    Tolerance: (1e-9,),
    SumSpec: (Family.EXP_WEIGHTED, 3.0, 0, 0.5, 2.0, 0.7, Sign.MINUS, Tolerance(1e-8)),
    SumResult: (1.25, 17, 3e-11, Method.DIRECT),
    ZetaTerm: (Fraction(-3, 4), 2, 0.5, True),
    ZetaCombination: ((ZetaTerm(Fraction(1, 2), 1), ZetaTerm(Fraction(1), 0, 2.0)),),
    TransformReport: (1.0, 1.0 + 1e-12, 1490, 15, 1e-12, 1490 / 15),
    IdentityReport: ("2.1", {"s": 3.0}, 0.5, 0.5, 0.0, 0.0, 1e-10, True),
}

records = pytest.mark.parametrize(
    "cls, values", list(_RECORDS.items()), ids=[cls.__name__ for cls in _RECORDS]
)


@records
def test_positional_and_keyword_construction_agree(cls, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls._fields, values)))
    assert type(by_position) is type(by_keyword) is cls
    assert by_position == by_keyword


@records
def test_fields_cannot_be_assigned(cls, values):
    rec = cls(*values)
    for name, value in zip(cls._fields, values):
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert tuple(rec) == values


@records
def test_records_are_named_tuples(cls, values):
    # they unpack, compare equal to a tuple of their fields and give _asdict()
    rec = cls(*values)
    first, *rest = rec
    assert (first, *rest) == values
    assert rec == values
    assert rec._asdict() == dict(zip(cls._fields, values))


def test_sum_spec_defaults():
    spec = SumSpec(Family.KAPPA, 3.0)
    assert (spec.m, spec.a, spec.b, spec.c, spec.sign, spec.tol) == (
        0, 1.0, 1.0, 0.0, Sign.PLUS, Tolerance(1e-10)
    )
    assert spec == SumSpec(family=Family.KAPPA, s=3.0, m=0, a=1.0, b=1.0, c=0.0,
                           sign=Sign.PLUS, tol=Tolerance(1e-10))


_COLD_START = """\
import sys
sys.path.insert(0, sys.argv[1])
import zetasums
assert zetasums.check_identity("2.1", s=3.0).passed
print(" ".join(sorted({"dataclasses", "inspect", "typing"} & set(sys.modules))))
"""


def test_cold_start_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site from preloading anything, so sys.modules holds what the
    # package and one identity check loaded.  dataclasses pulls in inspect,
    # ast, dis and tokenize, each paid on every CLI run
    out = subprocess.run(
        [sys.executable, "-S", "-c", _COLD_START, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert out.split() == []


@pytest.mark.parametrize("member", list(Family), ids=lambda f: f.value)
def test_family_members_stay_themselves_through_pickle_and_copy(member):
    # Family hashes by identity, as its members compare; a copy or an
    # unpickled member is the member itself and finds its table entries
    table = {f: f.value for f in Family}
    clones = [copy.copy(member), copy.deepcopy(member)] + [
        pickle.loads(pickle.dumps(member, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for clone in clones:
        assert clone is member and hash(clone) == hash(member)
        assert table[clone] == member.value
    assert {member: 1} == {clones[-1]: 1}
    assert pickle.loads(pickle.dumps(table)) == table
