"""Differential oracle for the core model's memoized body-bias scan.

:class:`CortexA57PowerModel` solves each frequency's (bias, vdd,
leakage) scan once and only adds dynamic power per call, and
:meth:`TransregionalVFModel.vdd_for_frequency` hoists its per-bias
invariants out of the bisection.  This module transcribes the direct
per-bias path -- a bisection over the public ``max_frequency`` for every
candidate bias, then dynamic + leakage per bias, keeping the first
strict minimum -- and requires every field of every operating point to
match it bit for bit (``==``, never ``approx``), whatever order the
model is queried in.
"""

import math

import pytest

from repro.technology.a57_model import (
    BodyBiasPolicy,
    CoreOperatingPoint,
    CortexA57PowerModel,
)
from repro.technology.process import TECHNOLOGIES
from repro.technology.vf_curve import TransregionalVFModel

ACTIVITIES = (0.0, 0.37, 1.0)


# -- the oracle: the direct per-bias path ---------------------------------------------


def _oracle_vdd(vf_model, frequency_hz, body_bias, vdd_max=None, tolerance=1e-6):
    """Bisection over the public ``max_frequency`` curve."""
    upper = vdd_max if vdd_max is not None else vf_model.technology.nominal_vdd
    if vf_model.max_frequency(upper, body_bias) < frequency_hz:
        raise ValueError(
            f"{vf_model.technology.name} cannot reach "
            f"{frequency_hz / 1e6:.0f}MHz at or below {upper:.2f}V"
            f" (body bias {body_bias:+.2f}V)"
        )
    lower = 0.05
    while upper - lower > tolerance:
        midpoint = 0.5 * (lower + upper)
        if vf_model.max_frequency(midpoint, body_bias) >= frequency_hz:
            upper = midpoint
        else:
            lower = midpoint
    return upper


def _oracle_biases(model):
    usable = model.body_bias_model.usable_forward_bias
    if model.bias_policy is BodyBiasPolicy.NONE:
        return (0.0,)
    if model.bias_policy is BodyBiasPolicy.FIXED:
        return (min(model.fixed_body_bias, usable),)
    return tuple(usable * index / 32 for index in range(33))


def _oracle_operating_point(model, frequency_hz, activity):
    vf_model = model.vf_model
    technology = model.technology
    best = None
    for bias in _oracle_biases(model):
        if frequency_hz > vf_model.max_frequency(technology.nominal_vdd, bias):
            continue
        vdd = _oracle_vdd(vf_model, frequency_hz, bias)
        vdd = max(vdd, technology.min_functional_vdd)
        candidate = CoreOperatingPoint(
            frequency_hz=frequency_hz,
            vdd=vdd,
            body_bias=bias,
            dynamic_power=model.dynamic.power(vdd, frequency_hz, activity),
            leakage_power=model.leakage_model.power(
                vdd,
                vth_eff=vf_model.effective_threshold(bias),
                temperature_kelvin=model.temperature_kelvin,
            ),
        )
        if best is None or candidate.total_power < best.total_power:
            best = candidate
    if best is None:
        raise ValueError(
            f"{technology.name} ({model.bias_policy.value} bias) cannot reach "
            f"{frequency_hz / 1e6:.0f}MHz at nominal voltage"
        )
    return best


def _outcome(solve, *args):
    """The solved value, or the ``ValueError`` message it raised."""
    try:
        return solve(*args)
    except ValueError as error:
        return ("ValueError", str(error))


# -- the cases ------------------------------------------------------------------------


def _model_cases():
    cases = []
    for name, technology in TECHNOLOGIES.items():
        cases.append((name, "none", dict(bias_policy=BodyBiasPolicy.NONE)))
        cases.append((name, "optimal", dict(bias_policy=BodyBiasPolicy.OPTIMAL)))
        # At the range limit: clamped to the usable (reserve-adjusted) bias.
        cases.append(
            (
                name,
                "fixed-clamped",
                dict(
                    bias_policy=BodyBiasPolicy.FIXED,
                    fixed_body_bias=technology.body_bias_max,
                ),
            )
        )
        if technology.body_bias_max > 1.5:
            cases.append(
                (name, "fixed", dict(bias_policy=BodyBiasPolicy.FIXED))
            )
    return cases


MODEL_CASES = _model_cases()


def _frequencies(model):
    """A dense grid, every bias's f_max edge and its next float, and the
    low end where vdd clamps at the minimum functional voltage."""
    dense = [50e6 * index for index in range(1, 81)]  # 50MHz .. 4GHz
    edges = []
    for bias in _oracle_biases(model):
        limit = model.vf_model.max_frequency(model.technology.nominal_vdd, bias)
        edges.extend((limit, math.nextafter(limit, math.inf)))
    return [1e6, 10e6, 25e6] + dense + edges


@pytest.mark.parametrize(
    "name, label, kwargs",
    MODEL_CASES,
    ids=[f"{name}-{label}" for name, label, _ in MODEL_CASES],
)
def test_operating_point_matches_the_per_bias_oracle_bit_for_bit(name, label, kwargs):
    technology = TECHNOLOGIES[name]
    reference = CortexA57PowerModel(technology=technology, **kwargs)
    frequencies = _frequencies(reference)
    expected = {
        (frequency, activity): _outcome(
            _oracle_operating_point, reference, frequency, activity
        )
        for frequency in frequencies
        for activity in ACTIVITIES
    }
    # Two fresh instances, queried in two different orders, so no result
    # can depend on which (frequency, activity) filled the scan first.
    forward = CortexA57PowerModel(technology=technology, **kwargs)
    backward = CortexA57PowerModel(technology=technology, **kwargs)
    forward_results = {
        (frequency, activity): _outcome(forward.operating_point, frequency, activity)
        for frequency in frequencies
        for activity in ACTIVITIES
    }
    backward_results = {
        (frequency, activity): _outcome(backward.operating_point, frequency, activity)
        for activity in reversed(ACTIVITIES)
        for frequency in reversed(frequencies)
    }
    assert forward_results == expected
    assert backward_results == expected

    # The cases above really cover the clamp, both sides of every edge
    # and the unreachable message.
    points = [
        value
        for value in expected.values()
        if isinstance(value, CoreOperatingPoint)
    ]
    assert any(point.vdd == technology.min_functional_vdd for point in points)
    assert any(point.vdd > technology.min_functional_vdd for point in points)
    assert any(isinstance(value, tuple) for value in expected.values())

    biases = _oracle_biases(reference)
    nominal = [
        reference.vf_model.max_frequency(technology.nominal_vdd, bias)
        for bias in biases
    ]
    minimum = [
        reference.vf_model.max_frequency(technology.min_functional_vdd, bias)
        for bias in biases
    ]
    for model in (forward, backward):
        assert model.max_frequency() == max([0.0] + nominal)
        assert model.min_voltage_frequency() == max([0.0] + minimum)
        for frequency in frequencies:
            assert model.is_reachable(frequency) == (
                not isinstance(expected[(frequency, 1.0)], tuple)
            )


@pytest.mark.parametrize("name", sorted(TECHNOLOGIES))
@pytest.mark.parametrize("vdd_max, tolerance", [(None, 1e-6), (0.9, 1e-9), (1.1, 1e-4)])
def test_vdd_for_frequency_matches_the_bisection_oracle(name, vdd_max, tolerance):
    vf_model = TransregionalVFModel(TECHNOLOGIES[name], temperature_kelvin=330.0)
    biases = (0.0, 0.1, TECHNOLOGIES[name].body_bias_max)
    frequencies = [10e6, 100e6, 437e6, 1e9, 1.7e9, 2.5e9, 3.3e9, 5e9]
    outcomes = 0
    for bias in biases:
        upper = vdd_max if vdd_max is not None else TECHNOLOGIES[name].nominal_vdd
        limit = vf_model.max_frequency(upper, bias)
        for frequency in frequencies + [limit, math.nextafter(limit, math.inf)]:
            got = _outcome(
                vf_model.vdd_for_frequency, frequency, bias, vdd_max, tolerance
            )
            want = _outcome(_oracle_vdd, vf_model, frequency, bias, vdd_max, tolerance)
            assert got == want
            outcomes += isinstance(want, tuple)
    assert 0 < outcomes < len(biases) * (len(frequencies) + 2)


def test_vdd_for_frequency_keeps_the_body_bias_range_check():
    vf_model = TransregionalVFModel(TECHNOLOGIES["bulk-28nm"])
    with pytest.raises(ValueError, match="outside the allowed range"):
        vf_model.vdd_for_frequency(1e9, body_bias=1.0)
