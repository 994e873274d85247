"""Self-time arithmetic of the tracer on a synthetic span tree."""

from perfbench.trace import Tracer


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_span_minus_covered_children():
    # outer [0, 10] calls inner [1, 4] then inner [5, 9]; inner [5, 9] calls leaf [6, 8].
    tracer = Tracer(job="j", clock=fake_clock([0, 1, 4, 5, 6, 8, 9, 10]))
    leaf = tracer.wrap("leaf", lambda: None, keep=True)

    def inner_body(depth):
        if depth:
            leaf()

    inner = tracer.wrap("inner", inner_body, keep=False)

    def outer_body():
        inner(0)
        inner(1)

    outer = tracer.wrap("outer", outer_body, keep=True)
    outer()
    spans = tracer.summary()["spans"]
    assert spans["outer"] == {"calls": 1, "total_s": 10, "self_s": 10 - 3 - 4}
    assert spans["inner"] == {"calls": 2, "total_s": 7, "self_s": 3 + 2}
    assert spans["leaf"] == {"calls": 1, "total_s": 2, "self_s": 2}
    # Kept spans record their nearest kept ancestor as parent.
    assert tracer.records == [["outer", 0, 10, None, "j"], ["leaf", 6, 8, 0, "j"]]


def test_recursive_span_counts_each_level_once():
    tracer = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5]))

    def body(n):
        if n:
            rec(n - 1)

    rec = tracer.wrap("rec", body, keep=False)
    rec(2)  # [0, 5] > [1, 4] > [2, 3]
    assert tracer.summary()["spans"]["rec"] == {"calls": 3, "total_s": 5 + 3 + 1, "self_s": 5}
