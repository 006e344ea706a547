"""The frozen result records and the validated inputs.

Every result record is declared with `stage2._record`, which keeps the
stock frozen dataclass's contract but builds its own `__init__`.  Each one
is compared here with a stock `@dataclass(frozen=True)` twin of the same
name and fields.  The twins live in this module's namespace under their
records' names, so that pickle finds them as it finds the records.
"""

import copy
import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from tourney import (ParameterError, PowerCost, ProbitUniformCsf, SolverSettings,
                     TournamentSpec, TullockCsf, solve_tournament, stage1, stage2,
                     verification)

RECORDS = (stage2.Effort, stage2.PayoffMenu, stage2.Stage2Solution,
           stage1.MatchSolution, stage1.SpeSolution,
           verification._Table, verification.VerificationReport,
           verification.GateResult)


def _make_twin(cls):
    twin = dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)], frozen=True)
    twin.__module__ = __name__
    globals()[cls.__name__] = twin
    return twin


TWINS = {cls: _make_twin(cls) for cls in RECORDS}


def _values(cls, offset=0.0):
    """Distinct hashable field values, in field order."""
    return [float(i) + 0.5 + offset for i in range(len(dataclasses.fields(cls)))]


def _pairs(cls, offset=0.0):
    """The record and its twin, built from the same values by position."""
    values = _values(cls, offset)
    return cls(*values), TWINS[cls](*values)


def _names(cls):
    return [f.name for f in dataclasses.fields(cls)]


@pytest.fixture(params=RECORDS, ids=lambda cls: cls.__name__)
def record(request):
    return request.param


def test_record_init_stores_without_setattr(record):
    assert "__setattr__" not in record.__init__.__code__.co_names
    assert record.__init__.__qualname__ == f"{record.__qualname__}.__init__"


def test_fields_signature_and_match_args_agree(record):
    twin = TWINS[record]
    attrs = ("name", "type", "init", "repr", "compare", "hash", "kw_only")
    assert ([tuple(getattr(f, a) for a in attrs) for f in dataclasses.fields(record)]
            == [tuple(getattr(f, a) for a in attrs) for f in dataclasses.fields(twin)])
    assert ([(p.name, p.kind, p.default) for p in inspect.signature(record).parameters.values()]
            == [(p.name, p.kind, p.default) for p in inspect.signature(twin).parameters.values()])
    assert record.__match_args__ == twin.__match_args__


def test_keyword_and_positional_builds_agree(record):
    values = _values(record)
    by_position = record(*values)
    by_keyword = record(**dict(zip(_names(record), values)))
    assert by_position == by_keyword
    assert [getattr(by_keyword, name) for name in _names(record)] == values
    assert vars(by_keyword) == vars(TWINS[record](*values))


def test_repr_eq_and_hash_agree(record):
    rec, twin = _pairs(record)
    other, other_twin = _pairs(record, offset=1.0)
    assert repr(rec) == repr(twin)
    assert (rec == record(*_values(record))) is (twin == TWINS[record](*_values(record))) is True
    assert (rec == other) is (twin == other_twin) is False
    assert (rec != other) is (twin != other_twin) is True
    assert (rec == twin) is False
    assert (rec == tuple(_values(record))) is (twin == tuple(_values(record))) is False
    assert hash(rec) == hash(twin) == hash(record(*_values(record)))


def test_unhashable_fields_fail_hash_alike(record):
    values = [{}] + _values(record)[1:]
    for cls in (record, TWINS[record]):
        with pytest.raises(TypeError):
            hash(cls(*values))


def test_asdict_replace_deepcopy_and_pickle_agree(record):
    rec, twin = _pairs(record)
    assert dataclasses.asdict(rec) == dataclasses.asdict(twin)
    assert dataclasses.astuple(rec) == dataclasses.astuple(twin)
    first = _names(record)[0]
    changed = dataclasses.replace(rec, **{first: "new"})
    changed_twin = dataclasses.replace(twin, **{first: "new"})
    assert type(changed) is record
    assert vars(changed) == vars(changed_twin)
    assert rec == record(*_values(record)), "replace must leave the original alone"
    for original in (rec, twin):
        for copied in (copy.copy(original), copy.deepcopy(original),
                       pickle.loads(pickle.dumps(original))):
            assert type(copied) is type(original)
            assert copied == original
            assert vars(copied) == vars(original)


def test_frozen_alike(record):
    for obj in _pairs(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, _names(record)[0], 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.not_a_field = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, _names(record)[-1])
        assert getattr(obj, _names(record)[0]) == 0.5


def test_bad_arguments_fail_alike(record):
    values = _values(record)
    names = _names(record)
    bad_calls = (
        ((), {}),                                    # nothing
        (values[:-1], {}),                           # one missing
        (values + [9.5], {}),                        # one extra
        (values, {"not_a_field": 1.0}),              # unknown keyword
        (values, {names[0]: 1.0}),                   # given twice
        (values[:-1], {"not_a_field": 1.0}),         # missing and unknown
    )
    for args, kwargs in bad_calls:
        for cls in (record, TWINS[record]):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


def test_solved_records_round_trip():
    spec = TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0), cost=PowerCost(3.0, 12.0))
    solution = solve_tournament(spec)
    report = verification.verify_solution(solution, grid=50)
    gate = verification.GateResult(report.interior_ok, 80.0, tuple(report.notes))
    for obj in (solution, report, gate, solution.stage2, solution.matches[0]):
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert copy.deepcopy(obj) == obj
        assert repr(copy.deepcopy(obj)) == repr(obj)


def test_same_strategies_share_one_record():
    spec = TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0), cost=PowerCost(3.0, 12.0))
    solution = solve_tournament(spec)
    profiles = solution.stage2.profiles
    assert profiles["DD"][0] is profiles["DD"][1]
    assert profiles["HH"][0] is profiles["HH"][1]
    assert profiles["HD"][0] != profiles["HD"][1]
    # identical mixed pools: one semifinal record stands for both
    assert solution.matches[0] is solution.matches[1]
    mirrored = solve_tournament(dataclasses.replace(spec, bracket=(("H", "D"), ("D", "H"))))
    assert mirrored.matches[0].types == ("H", "D")
    assert mirrored.matches[1].types == ("D", "H")


def test_record_refuses_defaults_and_post_init():
    class WithDefault:
        x: float = 1.0

    class WithPostInit:
        x: float

        def __post_init__(self):
            pass

    for cls in (WithDefault, WithPostInit):
        with pytest.raises(TypeError, match="cannot be a record"):
            stage2._record(cls)


# ----------------------------------------------------------------------
# Validated inputs: every numeric field takes a real number, not a bool.
# ----------------------------------------------------------------------

COST = PowerCost(3.0, 12.0)
NUMERIC_FIELDS = {
    "prize": (lambda v: TournamentSpec(prize=v, csf=TullockCsf(), cost=COST),
              "prize must be positive and finite"),
    "r": (lambda v: TullockCsf(r=v), "decisiveness exponent must be in"),
    "half_width": (lambda v: ProbitUniformCsf(half_width=v, f_exponent=0.5),
                   "noise half width must be positive and finite"),
    "f_exponent": (lambda v: ProbitUniformCsf(half_width=5.0, f_exponent=v),
                   "performance exponent must be in"),
    "exponent": (lambda v: PowerCost(v, 12.0), "cost exponent must be finite"),
    "divisor": (lambda v: PowerCost(3.0, v), "cost divisor must be positive"),
    "tolerance": (lambda v: SolverSettings(tolerance=v),
                  "tolerance must be positive and finite"),
}


@pytest.mark.parametrize("field", sorted(NUMERIC_FIELDS))
@pytest.mark.parametrize("value", [True, False, "1", None, [1.0], 10 ** 400],
                         ids=["True", "False", "str", "None", "list", "huge_int"])
def test_numeric_fields_refuse_non_numbers(field, value):
    build, message = NUMERIC_FIELDS[field]
    with pytest.raises(ParameterError, match=message) as caught:
        build(value)
    # the value is shown as written: the string "1" reads '1', not 1
    assert str(caught.value).endswith(f"got {value!r}")


@pytest.mark.parametrize("field", sorted(NUMERIC_FIELDS))
def test_numeric_fields_take_ints_and_numpy_floats(field):
    build, _ = NUMERIC_FIELDS[field]
    for value in ({"r": 1, "f_exponent": 0.5, "exponent": 3}.get(field, 2),
                  np.float64({"r": 0.5, "f_exponent": 0.5, "tolerance": 1e-10}
                             .get(field, 3.0))):
        assert getattr(build(value), field) == value
