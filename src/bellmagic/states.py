"""Canonical state fixtures: magic states, GHZ, products, maximal-magic states."""
from __future__ import annotations

import numpy as np

from .simulator import StateVector


def plus_state(n_qubits: int = 1) -> StateVector:
    dim = 2**n_qubits
    return StateVector(n_qubits, np.full(dim, 1 / np.sqrt(dim), dtype=complex))


def t_state() -> StateVector:
    """(|0> + e^{-i pi/4}|1>)/sqrt(2)."""
    return StateVector(1, np.array([1, np.exp(-1j * np.pi / 4)]) / np.sqrt(2))


def r_state() -> StateVector:
    """Single-qubit state of maximal Bell magic (theta = arccos(1/sqrt(3)))."""
    theta = np.arccos(1 / np.sqrt(3))
    return StateVector(
        1, np.array([np.cos(theta / 2), np.exp(-1j * np.pi / 4) * np.sin(theta / 2)])
    )


def ghz_state(n_qubits: int) -> StateVector:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return StateVector(n_qubits, amps)


def product_state(thetas, phis) -> StateVector:
    """Tensor product of cos(t/2)|0> + e^{-i phi} sin(t/2)|1> factors."""
    thetas, phis = np.atleast_1d(thetas), np.atleast_1d(phis)
    if thetas.shape != phis.shape:
        raise ValueError("angle vectors must have equal length")
    amps = np.array([1.0 + 0j])
    for t, ph in zip(thetas, phis):
        q = np.array([np.cos(t / 2), np.exp(-1j * ph) * np.sin(t / 2)])
        amps = np.kron(amps, q)
    return StateVector(len(thetas), amps)


# Pure states of (near-)maximal Bell magic for 2-4 qubits, stored verbatim
# as amplitude vectors; the 3-qubit one is the Hoggar state.
_MAX2 = np.array([1, 1, 1, 1j]) / 2
_MAX3 = np.array([1 + 1j, 0, -1, 1, -1j, 1, 0, 0]) / np.sqrt(6)
_MAX4 = np.array(
    [
        4, 1 + 1j, 4j, -1 + 1j,
        4j, 3 * (1 + 1j), 2j, -1 - 1j,
        -1 + 1j, 4j, 3 * (1 - 1j), -2j,
        -1 - 1j, 2j, -1 + 1j, 2,
    ]
) / (8 * np.sqrt(2))

# additive Bell magic of the fixtures above (the 4-qubit fixture is the
# reported nearly-maximal state, slightly below the best value 6.221364)
MAX_MAGIC_ADDITIVE = {
    1: np.log2(27 / 11),
    2: 2.67807,
    3: 4.651794,
    4: 6.221239,
}


def max_magic_state(n_qubits: int) -> StateVector:
    """Fixture state of (near-)maximal Bell magic, n_qubits <= 4."""
    if n_qubits == 1:
        return r_state()
    try:
        amps = {2: _MAX2, 3: _MAX3, 4: _MAX4}[n_qubits]
    except KeyError:
        raise ValueError("maximal-magic fixtures exist for 1-4 qubits") from None
    return StateVector(n_qubits, amps)
