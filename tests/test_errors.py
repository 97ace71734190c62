import inspect
import pickle

import pytest

from horolab import errors

CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.HorolabError)
]


def _instance(cls):
    if cls is errors.ResourceCapError:
        return cls("ball enumeration", 50)
    return cls("a structural invariant failed")


def test_every_error_class_is_covered():
    assert len(CLASSES) == 7


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    exc = _instance(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_at_seed_keeps_class_and_leads_with_the_seed(cls):
    exc = _instance(cls).at_seed(3)
    assert type(exc) is cls
    assert str(exc) == f"seed 3: {_instance(cls)}"
    assert type(pickle.loads(pickle.dumps(exc))) is cls


def test_resource_cap_keeps_its_cap():
    exc = pickle.loads(pickle.dumps(errors.ResourceCapError("ball enumeration", 50).at_seed(3)))
    assert exc.cap == 50
    assert str(exc) == "seed 3: ball enumeration exceeded the enumeration cap of 50 elements"
