"""Reference implementations for the stabilizer and simulator tests.

`pauli_expectation` reads <psi|sigma_p|psi> off one explicit application of
sigma_p, independently of the Bell-transform path behind
`simulator.pauli_expectation_table`.  `random_clifford_gatewise` draws the
layered circuit one scalar at a time and applies it gate by gate, the
reference for the packed whole-layer `stabilizer.random_clifford`.
`tableau_is_valid` checks the tableau invariants by dense GF(2) algebra.
"""
import numpy as np

from bellmagic.pauli import PauliString, pack_ints, unpack_zx
from bellmagic.simulator import CircuitSpec, StateVector
from bellmagic.stabilizer import StabilizerTableau, _gf2_eliminate


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


def random_clifford_gatewise(
    n_qubits: int, depth: int, rng: np.random.Generator
) -> tuple[StabilizerTableau, CircuitSpec]:
    """Layered random Clifford circuit by scalar draws and one gate at a time."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    tab = StabilizerTableau(n_qubits)
    circuit = CircuitSpec(n_qubits)
    for _ in range(depth):
        for q in range(1, n_qubits + 1):
            word = ["s"] * int(rng.integers(0, 4))
            if rng.integers(0, 2):
                word.append("h")
            word += ["s"] * int(rng.integers(0, 4))
            for name in word:
                circuit.add(name, q)
        for q in range(1, n_qubits):
            circuit.add("cnot", q, q + 1)
    tab.apply_circuit(circuit)
    return tab, circuit


def tableau_is_valid(tab: StabilizerTableau) -> bool:
    """Generators pairwise commute and are independent over GF(2)."""
    zi, xi = tab.z.astype(np.uint8), tab.x.astype(np.uint8)
    sym = (zi @ xi.T + xi @ zi.T) % 2
    if np.any(sym):
        return False
    mat = np.concatenate([zi, xi], axis=1)
    return len(_gf2_eliminate(mat, mat.shape[1])) == tab.n_qubits
