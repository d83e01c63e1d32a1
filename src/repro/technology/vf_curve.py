"""Transregional voltage-frequency model.

The study sweeps core frequency from the super-threshold region (2GHz
and above) down into the near-threshold region (a few hundred MHz at
0.5V), so the delay model must be valid across the threshold.  We use a
transregional drain-current approximation in the spirit of the EKV model:

    I_on(Vdd)  ~  [ n*v_T * ln(1 + exp((Vdd - Vth) / (2*n*v_T))) ]^2
    f_max(Vdd) =  K * I_on(Vdd) / Vdd

which reduces to the classical alpha-power law ``(Vdd - Vth)^2 / Vdd``
deep in super-threshold and to an exponential dependence on
``Vdd - Vth`` in sub-threshold, with a smooth transition in between --
exactly the behaviour the paper's Figure 1 curves exhibit.

``K`` (the *drive factor*) and ``Vth`` come from the
:class:`repro.technology.process.ProcessTechnology` flavour; body bias
shifts the effective threshold voltage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import obs
from repro.technology.process import ProcessTechnology
from repro.utils.validation import check_positive

THERMAL_VOLTAGE_300K = 0.02585
"""Thermal voltage kT/q at 300 kelvin, in volts."""


def _max_frequency(
    vdd: float, vth_eff: float, two_n_vt: float, drive: float
) -> float:
    """``f_max`` at a positive ``vdd``: the transregional formula above."""
    overdrive = (vdd - vth_eff) / two_n_vt
    # log1p(exp(x)) computed stably for large positive overdrive.
    if overdrive > 30.0:
        log_term = overdrive
    else:
        log_term = math.log1p(math.exp(overdrive))
    charge = two_n_vt * log_term
    return drive * (charge * charge) / vdd


@dataclass(frozen=True)
class TransregionalVFModel:
    """Maximum-frequency model valid from sub- to super-threshold.

    Parameters
    ----------
    technology:
        The process flavour providing ``Vth``, the drive factor and the
        subthreshold slope factor.
    temperature_kelvin:
        Junction temperature; enters through the thermal voltage.
    """

    technology: ProcessTechnology
    temperature_kelvin: float = 300.0

    def __post_init__(self) -> None:
        check_positive("temperature_kelvin", self.temperature_kelvin)

    # -- primitive quantities -------------------------------------------------

    @property
    def thermal_voltage(self) -> float:
        """Thermal voltage kT/q at the model temperature, in volts."""
        return THERMAL_VOLTAGE_300K * self.temperature_kelvin / 300.0

    def effective_threshold(self, body_bias: float = 0.0) -> float:
        """Effective threshold voltage under ``body_bias`` volts of bias.

        Forward body bias (positive) lowers the threshold by the
        technology's body-effect coefficient (85mV/V for UTBB FD-SOI);
        reverse body bias raises it.
        """
        tech = self.technology
        if not (tech.body_bias_min - 1e-9 <= body_bias <= tech.body_bias_max + 1e-9):
            raise ValueError(
                f"body bias {body_bias:+.2f}V outside the allowed range "
                f"[{tech.body_bias_min:+.1f}V, {tech.body_bias_max:+.1f}V] "
                f"for {tech.name}"
            )
        return tech.threshold_voltage - tech.body_effect_coefficient * body_bias

    def _two_n_vt(self) -> float:
        """Twice the subthreshold slope voltage ``n * v_T``."""
        n_vt = self.technology.subthreshold_slope_factor * self.thermal_voltage
        return 2.0 * n_vt

    # -- public API ------------------------------------------------------------

    def max_frequency(self, vdd: float, body_bias: float = 0.0) -> float:
        """Maximum operating frequency in Hz at supply ``vdd`` volts.

        Returns 0.0 for non-positive supply voltages.  The caller is
        responsible for enforcing the technology's minimum functional
        voltage (SRAM limits) -- see
        :meth:`repro.technology.a57_model.CortexA57PowerModel.operating_point`.
        """
        if vdd <= 0.0:
            return 0.0
        return _max_frequency(
            vdd,
            self.effective_threshold(body_bias),
            self._two_n_vt(),
            self.technology.drive_factor,
        )

    def vdd_for_frequency(
        self,
        frequency_hz: float,
        body_bias: float = 0.0,
        vdd_max: float | None = None,
        tolerance: float = 1e-6,
    ) -> float:
        """Lowest supply voltage able to sustain ``frequency_hz``.

        Solved by bisection on the monotone ``max_frequency`` curve.  The
        per-bias invariants (effective threshold, ``2 n v_T``, drive
        factor) are computed once per solve; every midpoint evaluates
        the same expression as :meth:`max_frequency`, so the result is
        bit-identical to bisecting over the public method.

        Raises
        ------
        ValueError
            If the requested frequency exceeds what the technology can
            reach at ``vdd_max`` (default: the nominal supply voltage).
        """
        check_positive("frequency_hz", frequency_hz)
        upper = vdd_max if vdd_max is not None else self.technology.nominal_vdd
        vth_eff = self.effective_threshold(body_bias)
        two_n_vt = self._two_n_vt()
        drive = self.technology.drive_factor
        if (
            upper <= 0.0
            or _max_frequency(upper, vth_eff, two_n_vt, drive) < frequency_hz
        ):
            raise ValueError(
                f"{self.technology.name} cannot reach "
                f"{frequency_hz / 1e6:.0f}MHz at or below {upper:.2f}V"
                f" (body bias {body_bias:+.2f}V)"
            )
        obs.count("technology.vdd_solves")
        lower = 0.05
        while upper - lower > tolerance:
            midpoint = 0.5 * (lower + upper)
            if _max_frequency(midpoint, vth_eff, two_n_vt, drive) >= frequency_hz:
                upper = midpoint
            else:
                lower = midpoint
        return upper

    def frequency_range(self, body_bias: float = 0.0) -> tuple:
        """(min, max) frequency reachable inside the functional Vdd range."""
        tech = self.technology
        return (
            self.max_frequency(tech.min_functional_vdd, body_bias),
            self.max_frequency(tech.nominal_vdd, body_bias),
        )
