"""Reference implementations that the library does not use, and one test helper.

`bell_magic_brute` evaluates the O(16^N) double sum of Bell magic for
N <= 3, with `pair_swap_permutation` as the explicit index permutation J;
the oracle for the Walsh-Hadamard path of `magic.bell_magic_exact`.
`mixed_bell_distribution` builds the two-copy Bell distribution of a
density matrix from explicit projectors (O(16^N), N <= 5); the fast
pure-state path is checked against it.  `grad_p_shift` applies the paper's
two-copy shift rule one parameter at a time, with three `simulate` calls
and two Bell transforms per parameter, and `grad_bell_magic_exact` reduces
it against the gradient kernel; together with the central finite
difference `gradient_finite_difference` they are the oracles for the
batched `variational._exact_gradient`.  `pauli_expectation` reads
<psi|sigma_p|psi> off one explicit application of sigma_p, independently
of the Bell-transform path behind `simulator.pauli_expectation_table`.
`magic_input_circuit_gatewise` draws the magic-input circuit's angles one
scalar at a time, the reference for the layer-built
`simulator.magic_input_circuit`.  `random_clifford_gatewise` draws the
layered circuit one scalar at a time and applies it gate by gate
(`tableau_h`, `tableau_s`, `tableau_cnot`, `apply_tableau_gate`,
`apply_tableau_circuit`), the reference for the packed
whole-layer `stabilizer.random_clifford`.  `conjugation_offset_gf2` solves
for a conjugation offset by Gauss-Jordan elimination over GF(2)
(`_gf2_eliminate`), the reference for the offset the library tracks through
the layers; the gate-by-gate tableaux take their offset from it.
`tableau_is_valid` checks the tableau invariants by the same elimination.
`from_letters` parses readable Pauli literals such as "XZY" for the tests.
"""
import numpy as np

from bellmagic.magic import MagicValue, additive_magic, bell_magic_exact, q_distribution
from bellmagic.pauli import (
    PAULI_LETTERS,
    PauliString,
    pack_ints,
    pack_zx,
    swap_pair_words,
    unpack_int,
    unpack_zx,
)
from bellmagic.simulator import (
    BellDistribution,
    CircuitSpec,
    Gate,
    StateVector,
    bell_distribution,
    cross_bell_distribution,
    simulate,
)
from bellmagic.stabilizer import StabilizerTableau
from bellmagic.variational import _gradient_kernel


def from_letters(letters: str) -> PauliString:
    """Parse a string over {I,X,Y,Z}, qubit 1 leftmost."""
    bits = 0
    for c in letters.upper():
        try:
            bits = 4 * bits + PAULI_LETTERS.index(c)
        except ValueError:
            raise ValueError(f"invalid Pauli letter {c!r}") from None
    return PauliString(len(letters), bits)


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
    global_phase = 1j ** (int(np.sum(z[0] & x[0])) % 4)
    out = np.empty_like(state.amplitudes)
    out[idx ^ xm] = global_phase * signs * state.amplitudes
    return StateVector(n, out)


def pauli_expectation(state: StateVector, p: PauliString) -> float:
    """Real expectation value <psi|sigma_p|psi>."""
    val = complex(np.vdot(state.amplitudes, apply_pauli(state, p).amplitudes))
    assert abs(val.imag) < 1e-9
    return val.real


def _tableau_col(tab: StabilizerTableau, q: int) -> int:
    if not 1 <= q <= tab.n_qubits:
        raise IndexError(f"qubit index {q} out of range")
    return q - 1


def tableau_h(tab: StabilizerTableau, q: int) -> None:
    c = _tableau_col(tab, q)
    tab.signs ^= tab.z[:, c] & tab.x[:, c]
    tab.z[:, c], tab.x[:, c] = tab.x[:, c].copy(), tab.z[:, c].copy()


def tableau_s(tab: StabilizerTableau, q: int) -> None:
    c = _tableau_col(tab, q)
    tab.signs ^= tab.x[:, c] & ~tab.z[:, c]
    tab.z[:, c] ^= tab.x[:, c]


def tableau_cnot(tab: StabilizerTableau, control: int, target: int) -> None:
    cc, ct = _tableau_col(tab, control), _tableau_col(tab, target)
    if cc == ct:
        raise IndexError("control and target coincide")
    tab.signs ^= tab.x[:, cc] & tab.z[:, ct] & ~(tab.x[:, ct] ^ tab.z[:, cc])
    tab.x[:, ct] ^= tab.x[:, cc]
    tab.z[:, cc] ^= tab.z[:, ct]


def apply_tableau_gate(tab: StabilizerTableau, gate: Gate) -> None:
    """One h, s or cnot gate on the generators; `tab.offset` is left as it was."""
    if gate.name == "h":
        tableau_h(tab, gate.qubits[0])
    elif gate.name == "s":
        tableau_s(tab, gate.qubits[0])
    elif gate.name == "cnot":
        tableau_cnot(tab, *gate.qubits)
    else:
        raise ValueError(f"gate {gate.name!r} is not a tableau Clifford gate")


def apply_tableau_circuit(tab: StabilizerTableau, circuit: CircuitSpec) -> None:
    """The circuit gate by gate, then the offset solved afresh by `conjugation_offset_gf2`."""
    for g in circuit.gates:
        apply_tableau_gate(tab, g)
    tab.offset = conjugation_offset_gf2(tab)


def random_clifford_gatewise(
    n_qubits: int, depth: int, rng: np.random.Generator
) -> tuple[StabilizerTableau, CircuitSpec]:
    """Layered random Clifford circuit by scalar draws and one gate at a time."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    tab = StabilizerTableau(n_qubits)
    gates = []
    for _ in range(depth):
        for q in range(1, n_qubits + 1):
            word = ["s"] * int(rng.integers(0, 4))
            if rng.integers(0, 2):
                word.append("h")
            word += ["s"] * int(rng.integers(0, 4))
            gates += [Gate(name, (q,)) for name in word]
        gates += [Gate("cnot", (q, q + 1)) for q in range(1, n_qubits)]
    circuit = CircuitSpec(n_qubits, gates)
    apply_tableau_circuit(tab, circuit)
    return tab, circuit


def magic_input_circuit_gatewise(
    n_qubits: int, n_magic: int, phi: float, depth: int, rng: np.random.Generator
) -> CircuitSpec:
    """Magic-input circuit by scalar draws, one gate and one angle at a time."""
    if not 0 <= n_magic <= n_qubits:
        raise ValueError("magic-state count out of range")
    gates, params = [], []
    for q in sorted(rng.choice(n_qubits, size=n_magic, replace=False) + 1):
        gates.append(Gate("ry", (int(q),)))
        params.append(phi)
    for _ in range(depth):
        for name in ("ry", "rz"):
            for q in range(1, n_qubits + 1):
                gates.append(Gate(name, (q,)))
                params.append((np.pi / 2) * int(rng.integers(0, 4)))
        gates += [Gate("cnot", (q, q + 1)) for q in range(1, n_qubits)]
    return CircuitSpec(n_qubits, gates, params)


def _gf2_eliminate(m: np.ndarray, n_pivot_cols: int) -> list[int]:
    """Gauss-Jordan elimination of the uint8 0/1 matrix m over GF(2), in place.

    Pivots are taken left to right among the first n_pivot_cols columns, the
    first nonzero row at or below the next pivot row being swapped up; the
    pivot row is XORed into every other row with a 1 in its column at once.
    Returns the pivot columns, one per pivot row.
    """
    pivots = []
    for c in range(n_pivot_cols):
        r = len(pivots)
        if r == m.shape[0]:
            break
        hit = np.flatnonzero(m[r:, c])
        if hit.size == 0:
            continue
        if hit[0]:
            m[[r, r + hit[0]]] = m[[r + hit[0], r]]
        others = np.flatnonzero(m[:, c])
        m[others[others != r]] ^= m[r]
        pivots.append(c)
    return pivots


def conjugation_offset_gf2(tab: StabilizerTableau) -> PauliString:
    """A Pauli g with sigma_g|psi> = +-|psi*>, solved from the generators alone.

    g must anticommute with exactly the generators that have an odd number of
    Y letters, a linear system over GF(2); free variables are set to 0.
    """
    n = tab.n_qubits
    y_parity = (tab.z & tab.x).sum(axis=1) % 2
    # row i = pair-swapped generator i, so the first 2N columns against (z|x)
    # are the symplectic form
    m = np.concatenate([tab.x, tab.z, y_parity[:, None]], axis=1).astype(np.uint8)
    pivots = _gf2_eliminate(m, 2 * n)
    if np.any(m[len(pivots):, -1]):
        raise AssertionError("inconsistent GF(2) system for a valid tableau")
    v = np.zeros(2 * n, dtype=bool)
    v[pivots] = m[: len(pivots), -1]
    return PauliString(n, unpack_int(pack_zx(v[None, :n], v[None, n:])[0]))


def tableau_is_valid(tab: StabilizerTableau) -> bool:
    """Generators pairwise commute and are independent over GF(2)."""
    zi, xi = tab.z.astype(np.uint8), tab.x.astype(np.uint8)
    sym = (zi @ xi.T + xi @ zi.T) % 2
    if np.any(sym):
        return False
    mat = np.concatenate([zi, xi], axis=1)
    return len(_gf2_eliminate(mat, mat.shape[1])) == tab.n_qubits


def pair_swap_permutation(n_qubits: int) -> np.ndarray:
    """Index permutation J r swapping the (z, x) bits of every pair; oracle for `_pair_swapped`."""
    return swap_pair_words(np.arange(4**n_qubits, dtype=np.uint64)[:, None])[:, 0]


def bell_magic_brute(dist: BellDistribution) -> MagicValue:
    """O(16^N) double-loop evaluation; the oracle for the fast path (N <= 3)."""
    if dist.n_qubits > 3:
        raise ValueError("brute-force oracle is limited to 3 qubits")
    q = q_distribution(dist)
    idx = np.arange(4**dist.n_qubits, dtype=np.uint64)
    j = pair_swap_permutation(dist.n_qubits)
    anti = np.bitwise_count(idx[:, None] & j[None, :]) & 1
    b = float(q @ (2 * anti) @ q)
    return MagicValue(b, additive_magic(b))


# single-pair Bell projectors in their Pauli decomposition
# 1/4 (II + Ex XX + Ey YY + Ez ZZ); base signs (+, -, +) for the |Phi+>
# projector, conjugation by sigma_r flips the sign of anticommuting axes
_P2 = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _pair_projector(digit: int) -> np.ndarray:
    base = {"x": 1.0, "y": -1.0, "z": 1.0}
    anti = {  # axes anticommuting with each label digit (0=I,1=X,2=Z,3=Y)
        0: set(),
        1: {"y", "z"},
        2: {"x", "y"},
        3: {"x", "z"},
    }[digit]
    out = np.eye(4, dtype=complex)
    for ax, m in _P2.items():
        sign = -base[ax] if ax in anti else base[ax]
        out += sign * np.kron(m, m)
    return out / 4.0


_MIXED_CAP = 5  # qubits; the projector construction holds 16^N entries


def mixed_bell_distribution(rho: np.ndarray) -> BellDistribution:
    """Two-copy Bell distribution of a density matrix, via explicit projectors.

    Deliberately the slow reference construction; the fast pure-state path is
    cross-validated against it in the tests.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    n = int(np.log2(dim))
    if rho.shape != (dim, dim) or 2**n != dim:
        raise ValueError("density matrix must be 2^N x 2^N")
    if n > _MIXED_CAP:
        raise ValueError(f"dense two-copy work is capped at {_MIXED_CAP} qubits")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValueError("density matrix trace is not 1")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        raise ValueError("density matrix is not positive semidefinite")

    # reorder rho (x) rho from (A1..An B1..Bn) to pairwise (A1 B1 A2 B2 ...)
    w = np.kron(rho, rho).reshape((2,) * (4 * n))
    perm = []
    for i in range(n):
        perm += [i, n + i]
    perm_full = perm + [2 * n + p for p in perm]
    w = w.transpose(perm_full).reshape(4**n, 4**n)

    pair_proj = [_pair_projector(d) for d in range(4)]
    probs = np.empty(4**n)
    for r in range(4**n):
        label = PauliString(n, r)
        op = np.ones((1, 1), dtype=complex)
        for q in range(1, n + 1):
            op = np.kron(op, pair_proj[label.digit(q)])
        probs[r] = np.einsum("ij,ji->", w, op).real
    return BellDistribution(n, probs)


def grad_p_shift(circuit: CircuitSpec, k: int, v: float = 0.5) -> np.ndarray:
    """Exact d_k P(r) over all 4^N outcomes via the two-copy shift rule.

    The cross distribution is sinusoidal in the shifted copy's angle, so the
    two-point rule with shift pi/(4v) carries coefficient 1/sin(pi/(4v)) for
    half-angle rotation generators; at the default v = 1/2 this is the usual
    factor 2v = 1.  Needs v > 1/4 so the shift stays below a half period.
    """
    if v <= 0.25:
        raise ValueError("shift scale v must exceed 1/4")
    shift = np.pi / (4 * v)
    base = simulate(circuit)
    plus = simulate(circuit.shifted(k, shift))
    minus = simulate(circuit.shifted(k, -shift))
    p_plus = cross_bell_distribution(plus, base).probabilities
    p_minus = cross_bell_distribution(minus, base).probabilities
    return (p_plus - p_minus) / np.sin(shift)


def grad_bell_magic_exact(circuit: CircuitSpec, k: int, v: float = 0.5) -> float:
    """Exact gradient of Bell magic for parameter k."""
    d = grad_p_shift(circuit, k, v)
    p = bell_distribution(simulate(circuit))
    return float(np.dot(d, _gradient_kernel(p)))


_FD_STEP = 1e-5  # finite-difference step of the gradient oracle


def gradient_finite_difference(circuit: CircuitSpec, k: int) -> float:
    """Central finite difference of exact Bell magic; test oracle."""
    bp = bell_magic_exact(bell_distribution(simulate(circuit.shifted(k, _FD_STEP))))
    bm = bell_magic_exact(bell_distribution(simulate(circuit.shifted(k, -_FD_STEP))))
    return (bp.bell_magic - bm.bell_magic) / (2 * _FD_STEP)
