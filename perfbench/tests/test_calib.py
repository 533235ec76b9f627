import itertools

import pytest

from calib import REF_NOMINAL_S, Calibrator, reference_work


def test_reference_work_is_deterministic():
    assert reference_work() == reference_work()


def test_scale_is_nominal_over_median_of_recent_probes():
    durations = iter([2.0, 8.0, 4.0, 6.0])
    now = [0.0]

    def clock():
        return now[0]

    def work():
        now[0] += next(durations)

    cal = Calibrator(window=3, clock=clock, work=work)
    cal.probe(3)
    assert cal.scale() == pytest.approx(REF_NOMINAL_S / 4.0)
    cal.probe()  # window now holds 8, 4, 6
    assert cal.scale() == pytest.approx(REF_NOMINAL_S / 6.0)


def test_timed_scales_the_call_and_keeps_probes_outside_it():
    ticks = itertools.count()
    cal = Calibrator(window=2, clock=lambda: float(next(ticks)), work=lambda: None)
    result, wall, calibrated = cal.timed(lambda x: x * 2, 21, probes_before=1,
                                         probes_after=1)
    # clock reads: probe 0..1, call 2..3, probe 4..5
    assert result == 42 and wall == 1.0
    assert calibrated == pytest.approx(REF_NOMINAL_S)
