"""Tests of the speed probe and of the tracer's time accounting.

Run with `python3 -m pytest perfbench/test_probe.py` from the root of
the checkout.  Sample lists are synthetic: (start, end) pairs around
kernel runs whose duration encodes a known slowdown.
"""

import math
import time

import pytest

from probe import (EDGE_SAMPLES, NOMINAL, PERIOD, Probe, ProbeError,
                   interval_rates, raw_time, reference_between,
                   reference_time)
from spans import NONE, Tracer


def samples_for(slowdowns, gap=0.25):
    """Kernel runs lasting NOMINAL * slowdown, `gap` raw seconds apart."""
    out, t = [], 100.0
    for factor in slowdowns:
        out.append((t, t + NOMINAL * factor))
        t += NOMINAL * factor + gap
    return out


def test_reference_speed_leaves_time_unchanged():
    samples = samples_for([1.0] * 9)
    assert reference_time(samples) == pytest.approx(8 * 0.25)
    assert raw_time(samples) == pytest.approx(8 * 0.25)


def test_uniform_slowdown_is_divided_out():
    samples = samples_for([2.0] * 9)
    assert reference_time(samples) == pytest.approx(8 * 0.25 / 2)


def test_step_change_is_followed():
    # 5 samples at reference speed, then 5 at half speed: 4 intervals
    # at rate 1, one transition interval at the mean duration 1.5, and
    # 4 intervals at rate 1/2.
    samples = samples_for([1.0] * 5 + [2.0] * 5)
    expected = 0.25 * (4 + 1 / 1.5 + 4 / 2)
    assert reference_time(samples) == pytest.approx(expected)


def test_single_slow_sample_is_ignored():
    samples = samples_for([1.0] * 4 + [10.0] + [1.0] * 4)
    assert reference_time(samples) == pytest.approx(8 * 0.25)


def test_two_samples_are_enough():
    samples = samples_for([1.5, 1.5], gap=0.03)
    assert reference_time(samples) == pytest.approx(0.03 / 1.5)


@pytest.mark.parametrize('samples', [[], [(1.0, 1.002)]])
def test_too_few_samples_fail_loudly(samples):
    with pytest.raises(ProbeError):
        reference_time(samples)
    with pytest.raises(ProbeError):
        interval_rates(samples)


def test_zero_length_sample_fails_loudly():
    with pytest.raises(ProbeError):
        reference_time([(1.0, 1.0), (2.0, 2.001)])


def test_reference_between_extends_past_the_samples():
    samples = samples_for([2.0] * 3)
    first, last = samples[0][0], samples[-1][1]
    inside = reference_between(samples, first, last)
    assert inside == pytest.approx(reference_time(samples))
    before = reference_between(samples, first - 1.0, first)
    assert before == pytest.approx(0.5)


def test_short_process_gets_start_and_stop_samples():
    probe = Probe()
    probe.start()
    time.sleep(PERIOD / 5)
    probe.stop()
    assert len(probe.samples) == 2 * EDGE_SAMPLES
    value = reference_time(probe.samples)
    assert math.isfinite(value) and value > 0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_self_times_add_up_and_skip_the_kernel():
    clock = FakeClock()
    samples = [(0.0, NOMINAL)]
    clock.now = NOMINAL
    tracer = Tracer(samples, clock=clock)
    tracer.enter('a.outer')
    clock.now += 0.1
    tracer.enter('b.inner', 'b.tag')
    clock.now += 0.2
    # a probe sample at half speed lands inside the inner span
    samples.append((clock.now, clock.now + 2 * NOMINAL))
    clock.now += 2 * NOMINAL + 0.2
    tracer.exit('b.tag')
    clock.now += 0.1
    tracer.exit()
    samples.append((clock.now, clock.now + 2 * NOMINAL))
    tracer.close()
    out = tracer.rollup()
    _, rate1, rate2 = interval_rates(samples)
    assert out['self_s']['a.outer'] == pytest.approx(0.1 * rate1 + 0.1 * rate2)
    assert out['self_s']['b.inner'] == pytest.approx(0.2 * rate1 + 0.2 * rate2)
    assert out['tag_s']['b.tag'] == pytest.approx(out['self_s']['b.inner'])
    charged = sum(out['self_s'].values())
    assert charged == pytest.approx(reference_time(samples))
    assert out['self_s'].get(NONE, 0.0) == pytest.approx(0.0)
    assert out['calls'] == {'a.outer': 1, 'b.inner': 1}
