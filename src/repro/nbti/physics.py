"""Reaction–diffusion model of NBTI degradation and self-healing.

The paper (Section 2) describes NBTI as progressive breakage of Si-H bonds
at the silicon/oxide interface while a PMOS gate sees logic "0" (stress),
and partial re-passivation while it sees logic "1" (relax).  The number of
interface traps N_IT directly determines the threshold-voltage (V_TH)
shift, hence circuit slow-down.

The paper quotes the first-order dynamics (Section 2.2):

    "NBTI degradation (self-healing effect) happens in such a way that the
     number of N_IT created (recovered) in the interface during a given
     period of time, dt, is a fraction of the current number of Si-H bonds
     (H atoms)."

That sentence *is* a pair of coupled first-order rate equations, which we
implement verbatim:

    stress:  dN_IT/dt = +k_s * (N_max - N_IT)      (fraction of Si-H bonds)
    relax:   dN_IT/dt = -k_r * N_IT                (fraction of H atoms)

Under a periodic input with zero-signal probability ``d`` (fraction of
time stressed), N_IT converges to the steady-state fill level

    fill(d) = k_s * d / (k_s * d + k_r * (1 - d))          (eq. RD-SS)

which is 1 at d=1 (always stressed) and decreases monotonically to 0 at
d=0.  The rate constants are calibrated so the model reproduces the
paper's quoted anchor: a balanced signal (d=0.5) yields a V_TH shift one
order of magnitude lower than a fully-biased one (10% -> 1%, ref [1] in
the paper), i.e. ``fill(0.5) = 0.1`` which requires ``k_r = 9 * k_s``.

Temperature and voltage acceleration (Section 2.1 bullets) are exposed as
multiplicative factors on ``k_s`` via an Arrhenius term and a power-law
voltage term; they default to neutral so the architectural studies are
independent of them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

#: Default stress rate constant (per unit time).  The absolute scale only
#: sets how fast the saw-tooth of Figure 1 converges; all architectural
#: results depend on the *steady-state* fill, which is scale-free.
DEFAULT_K_STRESS = 1.0e-3

#: Calibration anchor: fill(0.5) = 0.1 (10x V_TH-shift reduction for a
#: balanced signal, paper Section 2.2 / ref [1]) requires k_r = 9 * k_s.
RECOVERY_TO_STRESS_RATIO = 9.0

#: Boltzmann constant in eV/K, for the optional Arrhenius acceleration.
BOLTZMANN_EV = 8.617333262e-5

#: Default NBTI activation energy in eV (typical literature value).
DEFAULT_ACTIVATION_ENERGY_EV = 0.12

#: Reference conditions at which k_s equals its nominal value.
REFERENCE_TEMPERATURE_K = 358.15  # 85 C, a typical hot-spot temperature
REFERENCE_VDD = 1.1  # volts, 65nm-era supply

#: Exponent of the power-law voltage acceleration.
VOLTAGE_EXPONENT = 3.0


class StressPhase(enum.Enum):
    """Phase of the gate input of a PMOS transistor."""

    #: Gate at logic "0": negative V_GS, traps are generated.
    STRESS = "stress"
    #: Gate at logic "1": transistor off, traps re-passivate.
    RELAX = "relax"


# ----------------------------------------------------------------------
# Kernel primitives
# ----------------------------------------------------------------------
# The exact per-interval exponential update is split into one transcendental
# step (the decay factor, evaluated through scalar ``math.exp``) and
# IEEE-exact multiply/subtract steps applying it to a trap count.
def stress_decay(k_stress: float, duration: float) -> float:
    """Exponential decay factor ``exp(-k_s * t)`` of one stress interval."""
    return math.exp(-k_stress * duration)


def relax_decay(k_relax: float, duration: float) -> float:
    """Exponential decay factor ``exp(-k_r * t)`` of one relax interval."""
    return math.exp(-k_relax * duration)


def apply_stress(nit: float, n_max: float, decay: float) -> float:
    """N_IT after one stress interval with precomputed ``decay``."""
    return n_max - (n_max - nit) * decay


def apply_relax(nit: float, decay: float) -> float:
    """N_IT after one relax interval with precomputed ``decay``."""
    return nit * decay


def steady_state_fill(duty: float, recovery_ratio: float = RECOVERY_TO_STRESS_RATIO) -> float:
    """Asymptotic N_IT fill level for a given zero-signal probability.

    Parameters
    ----------
    duty:
        Zero-signal probability in [0, 1]: the long-run fraction of time
        the PMOS gate sees logic "0".
    recovery_ratio:
        Ratio ``k_r / k_s`` between the recovery and stress rate
        constants.  The default reproduces the paper's 10x anchor.

    Returns
    -------
    float
        Steady-state N_IT as a fraction of the total Si-H bond population
        (0 = pristine, 1 = fully degraded).
    """
    if not 0.0 <= duty <= 1.0:
        raise ValueError(f"duty must be within [0, 1], got {duty!r}")
    if recovery_ratio <= 0.0:
        raise ValueError("recovery_ratio must be positive")
    relax = (1.0 - duty) * recovery_ratio
    if duty == 0.0:
        return 0.0
    return duty / (duty + relax)


@dataclass
class ReactionDiffusionModel:
    """Discrete-time reaction–diffusion N_IT model for one PMOS transistor.

    The model integrates the two rate equations described in the module
    docstring with an exact per-interval exponential update, so step size
    does not affect accuracy:

        stress for t:  N_IT <- N_max - (N_max - N_IT) * exp(-k_s t)
        relax  for t:  N_IT <- N_IT * exp(-k_r t)

    Examples
    --------
    >>> model = ReactionDiffusionModel()
    >>> model.stress(1e4)
    >>> degraded = model.nit
    >>> model.relax(1e4)
    >>> model.nit < degraded
    True
    """

    k_stress: float = DEFAULT_K_STRESS
    recovery_ratio: float = RECOVERY_TO_STRESS_RATIO
    n_max: float = 1.0
    temperature_k: float = REFERENCE_TEMPERATURE_K
    vdd: float = REFERENCE_VDD
    activation_energy_ev: float = DEFAULT_ACTIVATION_ENERGY_EV
    nit: float = 0.0
    time: float = 0.0
    _history: List[Tuple[float, float]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.k_stress <= 0.0:
            raise ValueError("k_stress must be positive")
        if self.recovery_ratio <= 0.0:
            raise ValueError("recovery_ratio must be positive")
        if self.n_max <= 0.0:
            raise ValueError("n_max must be positive")
        if not 0.0 <= self.nit <= self.n_max:
            raise ValueError("initial nit must lie within [0, n_max]")
        self._record()

    # ------------------------------------------------------------------
    # Acceleration factors (Section 2.1: voltage and temperature bullets)
    # ------------------------------------------------------------------
    @property
    def acceleration(self) -> float:
        """Combined temperature/voltage acceleration factor on ``k_s``.

        Equals 1.0 at the reference conditions (85C, nominal Vdd); higher
        temperature or voltage accelerates degradation, consistent with
        the qualitative dependencies listed in Section 2.1 of the paper.
        """
        arrhenius = math.exp(
            (self.activation_energy_ev / BOLTZMANN_EV)
            * (1.0 / REFERENCE_TEMPERATURE_K - 1.0 / self.temperature_k)
        )
        voltage = (self.vdd / REFERENCE_VDD) ** VOLTAGE_EXPONENT
        return arrhenius * voltage

    @property
    def effective_k_stress(self) -> float:
        """Stress rate constant after temperature/voltage acceleration."""
        return self.k_stress * self.acceleration

    @property
    def k_relax(self) -> float:
        """Recovery rate constant (``recovery_ratio`` times ``k_s``)."""
        return self.effective_k_stress * self.recovery_ratio

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def stress(self, duration: float) -> float:
        """Apply ``duration`` time units of stress (gate at "0").

        Returns the new N_IT level.
        """
        self._check_duration(duration)
        decay = stress_decay(self.effective_k_stress, duration)
        self.nit = apply_stress(self.nit, self.n_max, decay)
        self.time += duration
        self._record()
        return self.nit

    def relax(self, duration: float) -> float:
        """Apply ``duration`` time units of relaxation (gate at "1").

        Returns the new N_IT level.  Recovery is asymptotic: full recovery
        would require infinite relaxation time, matching Section 2.2.
        """
        self._check_duration(duration)
        self.nit = apply_relax(self.nit, relax_decay(self.k_relax, duration))
        self.time += duration
        self._record()
        return self.nit

    def apply(self, phase: StressPhase, duration: float) -> float:
        """Apply one phase of the given kind for ``duration`` time units."""
        if phase is StressPhase.STRESS:
            return self.stress(duration)
        return self.relax(duration)

    def run_duty_cycle(self, duty: float, period: float, cycles: int) -> float:
        """Run ``cycles`` periods of a square wave with the given duty.

        Each period stresses for ``duty * period`` and relaxes for the
        remainder, producing the alternating saw-tooth of Figure 1.
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        for _ in range(cycles):
            if duty > 0.0:
                self.stress(duty * period)
            if duty < 1.0:
                self.relax((1.0 - duty) * period)
        return self.nit

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    @property
    def fill(self) -> float:
        """Current N_IT as a fraction of ``n_max``."""
        return self.nit / self.n_max

    def steady_state(self, duty: float) -> float:
        """Steady-state fill the model converges to under ``duty``."""
        return steady_state_fill(duty, self.recovery_ratio)

    @property
    def history(self) -> List[Tuple[float, float]]:
        """(time, nit) samples recorded at every phase boundary."""
        return list(self._history)

    def reset(self) -> None:
        """Return the transistor to the pristine state."""
        self.nit = 0.0
        self.time = 0.0
        self._history.clear()
        self._record()

    def _record(self) -> None:
        self._history.append((self.time, self.nit))

    @staticmethod
    def _check_duration(duration: float) -> None:
        if duration < 0.0:
            raise ValueError("duration must be non-negative")


def simulate_waveform(
    phases: Iterable[Tuple[StressPhase, float]],
    model: ReactionDiffusionModel | None = None,
) -> Sequence[Tuple[float, float]]:
    """Drive a model through an explicit stress/relax waveform.

    Parameters
    ----------
    phases:
        Iterable of ``(phase, duration)`` pairs.
    model:
        Model to drive; a fresh default model is created when omitted.

    Returns
    -------
    list of (time, nit)
        The trajectory sampled at each phase boundary — the data behind
        Figure 1 of the paper.
    """
    if model is None:
        model = ReactionDiffusionModel()
    for phase, duration in phases:
        model.apply(phase, duration)
    return model.history
