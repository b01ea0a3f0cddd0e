"""Dense Pauli-action oracles for the stabilizer and simulator tests.

`pauli_expectation` reads <psi|sigma_p|psi> off one explicit application of
sigma_p, independently of the Bell-transform path behind
`simulator.pauli_expectation_table`.
"""
import numpy as np

from bellmagic.pauli import PauliString, pack_ints, unpack_zx
from bellmagic.simulator import StateVector


def apply_pauli(state: StateVector, p: PauliString) -> StateVector:
    """sigma_p |psi> with the standard phases i^{#Y} (-1)^{z.b}."""
    if p.n_qubits != state.n_qubits:
        raise ValueError("qubit-count mismatch")
    n = state.n_qubits
    idx = np.arange(2**n, dtype=np.uint64)
    # per-qubit z/x masks as N-bit integers (qubit 1 = MSB)
    z, x = unpack_zx(pack_ints(n, [p.bits]), n)
    place = np.uint64(1) << np.arange(n - 1, -1, -1, dtype=np.uint64)
    zm, xm = place[z[0]].sum(), place[x[0]].sum()
    signs = np.where(np.bitwise_count(idx & zm) & 1, -1.0, 1.0)
    global_phase = 1j ** (p.y_count() % 4)
    out = np.empty_like(state.amplitudes)
    out[idx ^ xm] = global_phase * signs * state.amplitudes
    return StateVector(n, out)


def pauli_expectation(state: StateVector, p: PauliString) -> float:
    """Real expectation value <psi|sigma_p|psi>."""
    val = complex(np.vdot(state.amplitudes, apply_pauli(state, p).amplitudes))
    assert abs(val.imag) < 1e-9
    return val.real
