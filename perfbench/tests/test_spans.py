import itertools
import types

import pytest

from spans import SpanRecorder, inclusive_times, self_times, swapped


def test_self_time_on_synthetic_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("leaf", 1.5, 2.5, 1),
        ("b", 4.0, 6.0, 0),
        ("b", 6.0, 9.0, 0),
    ]
    st = self_times(spans)
    assert st == pytest.approx({"root": 3.0, "a": 1.0, "leaf": 1.0, "b": 5.0})
    assert inclusive_times(spans) == pytest.approx(
        {"root": 10.0, "a": 2.0, "leaf": 1.0, "b": 5.0})


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1), ("c", 2.0, 6.0, 0), ("c", 4.0, 8.0, 0),
             ("c", 9.0, 12.0, 0)]
    # children cover [2, 8] and [9, 10] inside the parent
    assert self_times(spans)["p"] == pytest.approx(3.0)


def test_recorder_nests_wrapped_calls_and_counts():
    ticks = itertools.count()
    rec = SpanRecorder(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    def after(counts, args, result, token):
        counts["calls"] += 1
        counts["token"] = token

    inner_w = rec.wrap("inner", inner, before=lambda args: args[0] * 10, after=after)

    def outer(x):
        return inner_w(x) + inner_w(x)

    assert rec.wrap("outer", outer)(1) == 4
    spans = rec.spans()
    assert [s[0] for s in spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 0]
    # clock ticks: outer 0..5, inner 1..2 and 3..4
    assert self_times(spans) == {"outer": 3.0, "inner": 2.0}
    assert rec.counts == {"calls": 2, "token": 10}


def test_span_closes_when_wrapped_call_raises():
    rec = SpanRecorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    (name, start, end, parent), = rec.spans()
    assert name == "boom" and end >= start and parent == -1
    rec.wrap("after", lambda: None)()
    assert rec.spans()[-1][3] == -1  # the failed span left the stack


def test_swapped_restores_on_error():
    mod = types.SimpleNamespace(f=lambda: 1, g=lambda: 2)
    f, g = mod.f, mod.g
    with pytest.raises(RuntimeError):
        with swapped([(mod, "f", lambda: 10), (mod, "g", lambda: 20)]):
            assert mod.f() == 10 and mod.g() == 20
            raise RuntimeError("inside")
    assert mod.f is f and mod.g is g


def test_swapped_restores_when_a_later_setattr_fails():
    class Guarded:
        a = 1
        b = 2

        def __setattr__(self, name, value):
            if name == "b":
                raise AttributeError("read-only")
            super().__setattr__(name, value)

    owner = Guarded()
    other = types.SimpleNamespace(x=1)
    with pytest.raises(AttributeError):
        with swapped([(other, "x", 2), (owner, "a", 5), (Guarded, "a", 7),
                      (owner, "b", 9)]):
            pass
    assert other.x == 1 and Guarded.a == 1 and owner.a == 1 and owner.b == 2
