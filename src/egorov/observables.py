"""Built-in classical observables with analytic derivatives up to order 3.

An observable bundles evaluators over phase space z = (q, p): the value
``a(z)`` and tensors ``Da``, ``D2a``, ``D3a``.  All evaluators accept batched
input of shape ``(..., 2d)``.  The built-ins are the experiment observables
(positions, momenta, kinetic/potential/total energy); they are polynomials or
potential compositions rather than Schwartz functions, so error constants
are validated empirically against the grid solver rather than proved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .potentials import Hamiltonian, Potential, position_block

__all__ = [
    "Observable",
    "position",
    "momentum",
    "kinetic",
    "potential_energy",
    "total_energy",
    "default_names",
    "parse_name",
    "make_observable",
    "OBSERVABLE_NAMES",
]


@dataclass(frozen=True)
class Observable:
    name: str
    dim: int  # spatial dimension d; phase space is 2d
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    third: Callable[[np.ndarray], np.ndarray]


def _constant(tensor: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The tensor at every point of a batch, as a read-only broadcast view:
    no caller writes into a derivative, and a copy per call would cost more
    than the contractions that read it."""

    def evaluate(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z)
        return np.broadcast_to(tensor, z.shape[:-1] + tensor.shape)

    return evaluate


def _zeros(d: int, order: int) -> Callable[[np.ndarray], np.ndarray]:
    return _constant(np.zeros((2 * d,) * order))


def _coordinate(name: str, d: int, index: int) -> Observable:
    e = np.zeros(2 * d)
    e[index] = 1.0
    return Observable(
        name=name,
        dim=d,
        value=lambda z: np.asarray(z)[..., index] + 0.0,
        grad=_constant(e),
        hess=_zeros(d, 2),
        third=_zeros(d, 3),
    )


def position(j: int, d: int) -> Observable:
    """q_j as an observable (j is 1-based, matching the CLI names)."""
    if not 1 <= j <= d:
        raise ValueError(f"position index {j} out of range for d={d}")
    return _coordinate(f"q{j}", d, j - 1)


def momentum(j: int, d: int) -> Observable:
    """p_j as an observable (1-based)."""
    if not 1 <= j <= d:
        raise ValueError(f"momentum index {j} out of range for d={d}")
    return _coordinate(f"p{j}", d, d + j - 1)


def kinetic(d: int) -> Observable:
    """|p|^2 / 2; constant hessian on the momentum block, zero third."""
    hess = np.zeros((2 * d, 2 * d))
    hess[d:, d:] = np.eye(d)

    def value(z):
        return 0.5 * np.sum(np.asarray(z)[..., d:] ** 2, axis=-1)

    def grad(z):
        z = np.asarray(z)
        out = np.zeros_like(z, dtype=float)
        out[..., d:] = z[..., d:]
        return out

    return Observable("kinetic", d, value, grad, _constant(hess), _zeros(d, 3))


def potential_energy(potential: Potential) -> Observable:
    """V(q) lifted to phase space; reuses the potential's tensors."""
    d = potential.d

    def lifted(evaluate, order):
        return lambda z: position_block(evaluate(np.asarray(z)[..., :d]), order)

    return Observable(
        "potential",
        d,
        lambda z: potential.value(np.asarray(z)[..., :d]),
        lifted(potential.gradient, 1),
        lifted(potential.hessian, 2),
        lifted(potential.third, 3),
    )


def total_energy(potential: Potential) -> Observable:
    """h(q, p) = |p|^2 / 2 + V(q)."""
    ham = Hamiltonian(potential)
    return Observable("total", potential.d, ham.value, ham.gradient, ham.hessian, ham.third)


def default_names(d: int) -> tuple[str, ...]:
    """The observables a run reports by default: q1..qd, p1..pd, kinetic,
    potential, total."""
    return (
        *(f"q{j}" for j in range(1, d + 1)),
        *(f"p{j}" for j in range(1, d + 1)),
        "kinetic",
        "potential",
        "total",
    )


OBSERVABLE_NAMES = default_names(2)


def parse_name(name: str, d: int) -> tuple[str, int]:
    """The kind of a configuration name and its 1-based index: ("q", j) or
    ("p", j) for q<j> and p<j>, (name, 0) for kinetic, potential and total.
    Any other name, an index outside 1..d, or one not written in its
    canonical form (q01 for q1) raises, since the name labels the results."""
    kind, index = name[:1], name[1:]
    if kind in ("q", "p") and index.isdecimal():
        j = int(index)
        if index != str(j):
            raise ValueError(f"observable {name!r}: write its index as {j}")
        if not 1 <= j <= d:
            coordinate = "position" if kind == "q" else "momentum"
            raise ValueError(f"{coordinate} index {j} out of range for d={d}")
        return kind, j
    if name in ("kinetic", "potential", "total"):
        return name, 0
    raise ValueError(f"unknown observable {name!r}")


def make_observable(name: str, potential: Potential) -> Observable:
    """Look up an observable by its configuration name (q1, p2, kinetic, ...)."""
    d = potential.d
    kind, j = parse_name(name, d)
    if kind == "q":
        return position(j, d)
    if kind == "p":
        return momentum(j, d)
    if kind == "kinetic":
        return kinetic(d)
    if kind == "potential":
        return potential_energy(potential)
    return total_energy(potential)
