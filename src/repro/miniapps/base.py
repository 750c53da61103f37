"""Mini-application base model and evaluator.

A :class:`MiniappModel` plays the role a :class:`~repro.kernels.base
.SpaptKernel` plays for Orio: it owns a search space and prices a
configuration on a machine.  Effects decompose per parameter value
into a *shared* (machine-portable) part and a *machine-specific* part
whose scale is the machine's quirk sigma — the knob controlling how
much of the tuning landscape transfers between machines.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import EvaluationError
from repro.machines.spec import MachineSpec
from repro.orio.evaluator import Measurement
from repro.perf.noise import measurement_noise
from repro.perf.simclock import SimClock
from repro.searchspace.space import Configuration, SearchSpace
from repro.utils.rng import hash_normal, hash_uniform

__all__ = ["MiniappModel", "MiniappEvaluator", "shared_effect", "machine_effect", "relevance"]


def relevance(tag: str, param: str, density: float = 1.0) -> float:
    """Deterministic per-parameter relevance weight in [0, 1].

    With ``density < 1`` only roughly that fraction of parameters get a
    non-zero weight — the sparse reality of compiler-flag tuning, where
    most flags do nothing for a given program.
    """
    if not 0.0 < density <= 1.0:
        raise EvaluationError(f"density must be in (0, 1], got {density}")
    u = hash_uniform("miniapp-relevance", tag, param)
    if u > density:
        return 0.0
    return 0.3 + 0.7 * hash_uniform("miniapp-weight", tag, param)


def shared_effect(tag: str, param: str, value: object) -> float:
    """Machine-portable log-runtime contribution of one setting."""
    return hash_normal("miniapp-shared", tag, param, repr(value))


def machine_effect(machine: MachineSpec, tag: str, param: str, value: object) -> float:
    """Machine-specific log-runtime contribution of one setting."""
    return hash_normal("miniapp-machine", machine.name, tag, param, repr(value))


class MiniappModel(ABC):
    """A tunable application with a machine-dependent cost model."""

    name: str
    tag: str
    space: SearchSpace

    @abstractmethod
    def runtime_seconds(self, config: Configuration, machine: MachineSpec, rep: int = 0) -> float:
        """Simulated runtime of one timing run."""

    @abstractmethod
    def compile_seconds(self, config: Configuration, machine: MachineSpec) -> float:
        """Simulated build time of this configuration."""

    def _apply_noise(self, seconds: float, machine: MachineSpec, config: Configuration, rep: int) -> float:
        return seconds * measurement_noise(
            machine.response.noise_sigma, machine.name, (self.tag, config.index), rep
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, dim={self.space.dimension})"


class MiniappEvaluator:
    """Clock-charging evaluator over a :class:`MiniappModel`.

    Interface-compatible with :class:`~repro.orio.evaluator
    .OrioEvaluator` so the search algorithms and
    :class:`~repro.transfer.session.TransferSession` drive both.
    """

    def __init__(
        self,
        model: MiniappModel,
        machine: MachineSpec,
        repetitions: int = 1,
        clock: SimClock | None = None,
    ) -> None:
        if repetitions < 1:
            raise EvaluationError(f"repetitions must be >= 1, got {repetitions}")
        self.kernel = model  # searches address their problem as .kernel
        self.model = model
        self.machine = machine
        self.repetitions = repetitions
        self.clock = clock if clock is not None else SimClock()
        self.n_evaluations = 0

    @property
    def space(self) -> SearchSpace:
        return self.model.space

    def measure(self, config: Configuration) -> Measurement:
        if config.space is not self.model.space:
            raise EvaluationError(
                f"configuration is not from {self.model.name!r}'s search space"
            )
        runs = [
            self.model.runtime_seconds(config, self.machine, rep=r)
            for r in range(self.repetitions)
        ]
        return Measurement(
            config=config,
            runtime_seconds=sum(runs) / len(runs),
            compile_seconds=self.model.compile_seconds(config, self.machine),
            repetitions=self.repetitions,
        )

    def evaluate(self, config: Configuration) -> Measurement:
        m = self.measure(config)
        self.clock.advance(m.evaluation_cost)
        self.n_evaluations += 1
        return m

    def __call__(self, config: Configuration) -> float:
        return self.evaluate(config).runtime_seconds
