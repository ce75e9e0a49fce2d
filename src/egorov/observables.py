"""Built-in classical observables with analytic derivatives up to order 3.

An observable bundles evaluators over phase space z = (q, p): the value
``a(z)`` and tensors ``Da``, ``D2a``, ``D3a``.  All evaluators accept batched
input of shape ``(..., 2d)``.  Each built-in states only its value and its
``diagonals``: the same-coordinate entries of the nonzero blocks of ``Da``,
``D2a`` and ``D3a``, which is all the correction reads; its dense tensors
are those blocks, scattered by ``scatter_diagonals``.
The built-ins are the experiment observables (positions, momenta,
kinetic/potential/total energy); they are polynomials or potential
compositions rather than Schwartz functions, so error constants are
validated empirically against the grid solver rather than proved.
:func:`snapshot_sums` sums the built-ins' values over a batch of phase
points in one pass, with the bits of summing each value array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .potentials import Potential, coordinate_sum, scatter_diagonals

__all__ = [
    "Observable",
    "default_names",
    "parse_name",
    "make_observable",
    "snapshot_sums",
    "OBSERVABLE_NAMES",
]


@dataclass(frozen=True)
class Observable:
    name: str
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    third: Callable[[np.ndarray], np.ndarray]
    # (Da, D2a, D3a) at z, each as {slot pattern: (..., d)}: the
    # same-coordinate diagonal of each block that can be nonzero, where a
    # pattern's slots are 0 for positions and 1 for momenta: (0,) holds
    # d_q a, (1,) d_p a and (0, 0, 0) the (j, j, j) entries.  The entries it
    # leaves out are 0.
    diagonals: Callable[[np.ndarray], tuple]


def _energy_diagonals(d: int, potential: Potential | None, kinetic: bool):
    """The diagonals of V(q) if ``potential`` is given, plus those of
    |p|^2 / 2 if ``kinetic``, from one ``Potential.diagonals`` evaluation."""
    ones = np.ones(d)

    def diagonals(z):
        z = np.asarray(z)
        grad, hess, third = {}, {}, {}
        if potential is not None:
            grad[(0,)], hess[(0, 0)], minus_third, _ = potential.diagonals(z[..., :d])
            third[(0, 0, 0)] = -minus_third
        if kinetic:
            grad[(1,)] = z[..., d:]
            hess[(1, 1)] = ones
        return grad, hess, third

    return diagonals


def _column(kind: str, j: int, d: int) -> int:
    """The column of phase space that coordinate q<j> or p<j> occupies."""
    return (kind == "p") * d + j - 1


def _energy_values(z: np.ndarray, potential: Potential, kinds) -> dict:
    """{kind: value at z} for the energy ``kinds`` among kinetic, potential
    and total: |p|^2 / 2 and V(q) are each computed once, and total is
    their sum, kinetic + V."""
    d, values = potential.d, {}
    if "kinetic" in kinds or "total" in kinds:
        values["kinetic"] = 0.5 * coordinate_sum(z[..., d:] ** 2)
    if "potential" in kinds or "total" in kinds:
        values["potential"] = potential.value(z[..., :d])
    if "total" in kinds:
        values["total"] = values["kinetic"] + values["potential"]
    return values


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
    """The built-in observable of a configuration name (q1, p2, kinetic,
    potential, total) over the phase space of ``potential``.

    It states its value and ``diagonals``; its Da, D2a and D3a are the blocks
    ``diagonals`` gives, scattered into zero tensors over phase space.
    q_j and p_j are coordinates; the energies take their diagonals from
    :func:`_energy_diagonals`, and ``total`` is h = |p|^2 / 2 + V(q).
    """
    d = potential.d
    kind, j = parse_name(name, d)
    if j:
        slot, index, e = int(kind == "p"), _column(kind, j, d), np.eye(d)[j - 1]

        def value(z):
            return np.asarray(z)[..., index] + 0.0

        def diagonals(z):
            return {(slot,): e}, {}, {}

    else:

        def value(z):
            return _energy_values(np.asarray(z), potential, (kind,))[kind]

        diagonals = _energy_diagonals(
            d, None if kind == "kinetic" else potential, kinetic=kind != "potential"
        )

    def dense(order):
        def evaluate(z):
            out = np.zeros(np.shape(z)[:-1] + (2 * d,) * order)
            return scatter_diagonals(diagonals(z)[order - 1], out)

        return evaluate

    return Observable(name, value, dense(1), dense(2), dense(3), diagonals)


def snapshot_sums(names, potential: Potential, z: np.ndarray) -> list:
    """The sum over the phase points z, (n, 2d), of each built-in observable
    in ``names``, with the bits of ``np.sum(make_observable(name,
    potential).value(z))``.

    A coordinate is summed from its strided column of z, not from a copy;
    its value's + 0.0 moves onto the sum, which it leaves as it is but for
    the sign of a zero, as it does each entry.  |p|^2 / 2 and V(q) are
    computed once and shared by kinetic, potential and total.  Nothing is
    kept between calls."""
    d = potential.d
    kinds = [parse_name(name, d) for name in names]
    energies = _energy_values(z, potential, {kind for kind, j in kinds if not j})
    return [
        np.sum(z[..., _column(kind, j, d)]) + 0.0 if j else np.sum(energies[kind])
        for kind, j in kinds
    ]
