"""Tracer: wrapping by dotted name, self-time arithmetic, windows."""

import importlib
import sys
import textwrap
import warnings

import numpy as np
import pytest

from benchmarks.suite import trace
from benchmarks.suite.trace import Spans, Target, Tracer

FAKE = {
    "__init__.py": "",
    "a.py": """
        def leaf():
            return 7

        def outer():
            return leaf() + leaf()

        def produce(n):
            for item in range(n):
                leaf()
                yield item

        class Base:
            def run(self):
                raise NotImplementedError

        class Child(Base):
            def run(self):
                return leaf()

        class Tracked:
            def __init__(self, size):
                self.size = size
    """,
    "b.py": """
        from .a import leaf as alias

        def call_alias():
            return alias()
    """,
}


@pytest.fixture
def fake(tmp_path, monkeypatch):
    """A throw-away package and a clock that ticks once per reading."""
    package = tmp_path / "fakepkg"
    package.mkdir()
    for name, body in FAKE.items():
        (package / name).write_text(textwrap.dedent(body))
    monkeypatch.syspath_prepend(str(tmp_path))
    ticks = iter(range(10_000))
    monkeypatch.setattr(trace, "perf_counter", lambda: float(next(ticks)))
    yield importlib.import_module("fakepkg.a")
    for name in [name for name in sys.modules if name.startswith("fakepkg")]:
        del sys.modules[name]


def install(targets):
    tracer = Tracer()
    tracer.install(targets, package="fakepkg")
    return tracer


def test_self_time_is_duration_minus_children(fake):
    tracer = install([
        Target("fakepkg.a:outer", "outer"),
        Target("fakepkg.a:leaf", "leaf"),
    ])
    assert fake.outer() == 14
    spans = tracer.collect()
    # Clock readings: outer 0, leaf 1..2, leaf 3..4, outer ends at 5.
    assert spans.total("outer") == 5.0
    assert spans.total("leaf") == 2.0
    assert spans.self_total("outer") == 3.0
    assert spans.count("leaf") == 2
    outer = spans.names.index("outer")
    parents = spans.parent[spans.name == spans.names.index("leaf")]
    assert all(spans.name[parent] == outer for parent in parents)
    assert len(set(spans.operation.tolist())) == 1


def test_free_function_aliases_are_replaced_and_restored(fake):
    other = importlib.import_module("fakepkg.b")
    original = other.alias
    tracer = install([Target("fakepkg.a:leaf", "leaf")])
    assert other.alias is not original
    assert other.call_alias() == 7
    assert tracer.collect().count("leaf") == 1
    tracer.uninstall()
    assert other.alias is original and fake.leaf is original


def test_generator_is_timed_per_next_not_per_consumer(fake):
    counted = []
    tracer = install([
        Target(
            "fakepkg.a:produce",
            "produce",
            kind="generator",
            count=lambda add, args, kwargs, items: counted.append(items),
        ),
        Target("fakepkg.a:leaf", "leaf"),
    ])
    with tracer.span("consumer"):
        for _ in fake.produce(2):
            trace.perf_counter()  # the consumer's own time, three ticks
            trace.perf_counter()
            trace.perf_counter()
    spans = tracer.collect()
    # Three next() calls: two yield after one leaf (3 ticks each), the
    # last finds the generator exhausted (1 tick).
    assert spans.total("produce") == 7.0
    assert spans.self_total("produce") == 5.0
    assert counted == [2]
    produce = spans.names.index("produce")
    leaves = spans.parent[spans.name == spans.names.index("leaf")]
    assert all(spans.name[parent] == produce for parent in leaves)
    assert spans.self_total("consumer") == spans.total("consumer") - 7.0


def test_abstract_entry_point_is_wrapped_on_its_subclasses(fake):
    tracer = install([Target("fakepkg.a:Base.run", "run", subclasses=True)])
    assert fake.Child().run() == 7
    assert tracer.collect().count("run") == 1


def test_dynamic_names_counts_and_instances(fake):
    tracer = install([
        Target(
            "fakepkg.a:leaf",
            lambda args, kwargs, result: f"leaf.{result}",
            count=lambda add, args, kwargs, result: add("sevens", result),
        ),
        Target("fakepkg.a:Tracked.__init__", "tracked", kind="instances"),
    ])
    fake.leaf()
    fake.leaf()
    kept = fake.Tracked(3)
    spans = tracer.collect()
    assert spans.count("leaf.7") == 2
    assert spans.counted("sevens") == 14.0
    assert [item.size for item in tracer.live_instances("tracked")] == [3]
    del kept


def test_unresolved_target_warns_and_is_listed(fake):
    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install(
            [Target("fakepkg.a:gone", "gone"), Target("fakepkg.a:leaf", "leaf")],
            package="fakepkg",
        )
    assert tracer.missing == ["fakepkg.a:gone"]
    assert any("fakepkg.a:gone" in str(item.message) for item in caught)
    fake.leaf()
    assert tracer.collect().count("leaf") == 1


def test_exception_closes_the_span(fake):
    tracer = install([Target("fakepkg.a:Base.run", "run")])
    with pytest.raises(NotImplementedError):
        fake.Base().run()
    spans = tracer.collect()
    assert spans.count("run!error") == 1
    fake.leaf()  # the thread's span stack is balanced again
    assert tracer._buffer().current == -1


def synthetic() -> Spans:
    """root(0..10) > child(1..4) > grandchild(2..3); late root(20..26)."""
    columns = {
        "name": np.array([0, 1, 2, 0]),
        "start": np.array([0.0, 1.0, 2.0, 20.0]),
        "duration": np.array([10.0, 3.0, 1.0, 6.0]),
        "parent": np.array([-1, 0, 1, -1]),
        "operation": np.array([1, 1, 1, 2]),
        "count_name": np.array([3, 3]),
        "count_value": np.array([5.0, 7.0]),
        "count_time": np.array([1.5, 21.0]),
    }
    return Spans(["root", "child", "grandchild", "things"], columns)


def test_self_time_arithmetic_on_a_known_table():
    spans = synthetic()
    assert spans.self_time.tolist() == [7.0, 2.0, 1.0, 6.0]
    assert spans.total("root") == 16.0
    assert spans.self_total("root") == 13.0
    assert spans.start_sum("root") == 20.0
    assert spans.end_sum("root") == 36.0
    assert spans.counted("things") == 12.0
    assert spans.total("never recorded") == 0.0


def test_window_cuts_spans_and_counts(tmp_path):
    cut = synthetic().window(1.0)
    assert len(cut) == 3
    assert cut.parent.tolist() == [-1, 0, -1]  # child lost its parent
    assert cut.counted("things") == 12.0
    assert synthetic().window(10.0).counted("things") == 7.0
    path = tmp_path / "spans.npz"
    cut.save(path)
    loaded = Spans.load(path)
    assert loaded.names == cut.names
    assert loaded.self_time.tolist() == cut.self_time.tolist()
