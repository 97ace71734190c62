import sys
import types

import pytest

from spans import Tracer, replace_everywhere


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_synthetic_nested_call():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf(dt):
        clock.t += dt

    def middle():
        clock.t += 1.0
        traced_leaf(2.0)
        clock.t += 0.5
        traced_leaf(3.0)

    def outer():
        clock.t += 4.0
        traced_middle()
        clock.t += 1.5

    traced_leaf = tr.wrap("leaf", leaf)
    traced_middle = tr.wrap("middle", middle)
    tr.wrap("outer", outer)()
    summary = tr.summary()
    assert summary["outer"]["s"] == pytest.approx(12.0)
    assert summary["outer"]["self_s"] == pytest.approx(5.5)
    assert summary["middle"]["s"] == pytest.approx(6.5)
    assert summary["middle"]["self_s"] == pytest.approx(1.5)
    assert summary["leaf"]["calls"] == 2
    assert summary["leaf"]["s"] == pytest.approx(5.0)
    assert summary["leaf"]["self_s"] == pytest.approx(5.0)


def test_span_closes_when_the_call_raises():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    assert tr.summary()["boom"]["calls"] == 1


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    core.work = work
    user.work = work  # bound at import through `from .core import work`
    user.TABLE = {"w": work}
    user.CHAIN = [work]
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return core, user


def test_wrapper_goes_where_callers_look_the_name_up(fake_package):
    core, user = fake_package
    tr = Tracer()
    assert tr.patch_function("fakepkg.core", "work", "core.work")
    assert user.work(1) == 2 and user.TABLE["w"](1) == 2 and user.CHAIN[0](1) == 2
    assert tr.summary()["core.work"]["calls"] == 3
    assert replace_everywhere(object(), None, "fakepkg") == 0


def test_missing_name_is_reported_not_raised(fake_package):
    tr = Tracer()
    assert not tr.patch_function("fakepkg.core", "gone", "core.gone")
    assert not tr.patch_function("fakepkg.absent", "work", "absent.work")
    assert not tr.patch_method("fakepkg.core", "NoClass", "run", "core.NoClass.run")
    assert tr.missing == ["core.gone", "absent.work", "core.NoClass.run"]


def test_counter_that_no_longer_fits_is_reported_not_raised():
    tr = Tracer()
    f = tr.wrap("f", lambda: 3, on_call=lambda a, k, r: r.no_such_attribute)
    assert f() == 3
    assert tr.missing and tr.missing[0].startswith("f counts")
