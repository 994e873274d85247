"""Scaling of measured seconds to the reference host speed."""

from perfbench import run


def test_scale_uses_the_mean_of_the_probes_around_each_process(monkeypatch):
    probes = iter([9.0, run.PROBE_REFERENCE_S, run.PROBE_REFERENCE_S, 3 * run.PROBE_REFERENCE_S,
                   2 * run.PROBE_REFERENCE_S])
    monkeypatch.setattr(run, "probe", lambda: next(probes))
    clock = run.Clock()  # the first probe is a warm-up and is not used
    assert clock.scale(1.5) == (1.5, 1.0)  # host at the reference speed
    seconds, factor = clock.scale(4.0)  # probes around it: 1x and 3x the reference
    assert factor == 0.5 and seconds == 2.0
    seconds, factor = clock.scale(5.0)  # 3x and 2x
    assert factor == 0.4 and abs(seconds - 2.0) < 1e-12
