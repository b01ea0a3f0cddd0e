"""Stabilizer states as generator tableaux, with scalable Bell-outcome sampling.

A tableau holds N generator Pauli strings as boolean z/x matrices plus sign
bits.  Bell sampling exploits the coset structure of the two-copy outcome
distribution of a stabilizer state: outcomes are exactly t XOR g where t
ranges over the group's bit-span and sigma_g maps |psi> to +-|psi*>, each
with probability 2^-N.  Sampling therefore never builds the 4^N
distribution and scales to thousands of qubits.

The sampler packs the N generator rows once (`pauli.pack_zx`) into the
`BellSamples` uint64 layout, W = ceil(2N/64) words each, and XORs them with the method of Four
Russians: for every group of eight generators a 256-entry table holds all
XOR combinations of their rows, and one byte of random picks indexes it.
M samples cost M * ceil(N/8) * W word XORs plus 32 * N * W to build the
tables, with no (M, N) bit matrix product.

The gate conventions match `simulator` (S = diag(1, -i), so X -> -Y).
"""
from __future__ import annotations

import numpy as np

from .pauli import BellSamples, PauliString, pack_ints, pack_zx, unpack_int
from .simulator import CircuitSpec, Gate


def _xor_picked_rows(rows: np.ndarray, picks: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """offset XOR the rows each 0/1 pick vector selects, as (M, W) words.

    Method of Four Russians: rows are taken eight at a time, a 256-entry table
    holds every XOR combination of the group, and one packed byte of picks
    indexes it, for M * ceil(N/8) * W word XORs in all.
    """
    pick_bytes = np.packbits(picks, axis=1, bitorder="little")
    m, n_groups = pick_bytes.shape
    n_words = rows.shape[1]
    padded = np.zeros((8 * n_groups, n_words), dtype=np.uint64)
    padded[: len(rows)] = rows
    out = np.repeat(offset, m, axis=0)
    table = np.zeros((256, n_words), dtype=np.uint64)
    picked = np.empty((m, n_words), dtype=np.uint64)
    for j in range(n_groups):
        for k, row in enumerate(padded[8 * j : 8 * j + 8]):
            np.bitwise_xor(table[: 1 << k], row, out=table[1 << k : 2 << k])
        np.take(table, pick_bytes[:, j], axis=0, out=picked)
        out ^= picked
    return out


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


def _gf2_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One solution of mat @ v = rhs over GF(2); free variables set to 0."""
    m = np.concatenate([mat, rhs[:, None]], axis=1).astype(np.uint8)
    pivots = _gf2_eliminate(m, mat.shape[1])
    if np.any(m[len(pivots):, -1]):
        raise AssertionError("inconsistent GF(2) system for a valid tableau")
    v = np.zeros(mat.shape[1], dtype=np.uint8)
    v[pivots] = m[: len(pivots), -1]
    return v


class StabilizerTableau:
    """Generator tableau of an N-qubit stabilizer state, starting from |0...0>."""

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        self.n_qubits = n_qubits
        self.z = np.eye(n_qubits, dtype=bool)
        self.x = np.zeros((n_qubits, n_qubits), dtype=bool)
        self.signs = np.zeros(n_qubits, dtype=bool)

    def _col(self, q: int) -> int:
        if not 1 <= q <= self.n_qubits:
            raise IndexError(f"qubit index {q} out of range")
        return q - 1

    def h(self, q: int) -> None:
        c = self._col(q)
        self.signs ^= self.z[:, c] & self.x[:, c]
        self.z[:, c], self.x[:, c] = self.x[:, c].copy(), self.z[:, c].copy()

    def s(self, q: int) -> None:
        c = self._col(q)
        self.signs ^= self.x[:, c] & ~self.z[:, c]
        self.z[:, c] ^= self.x[:, c]

    def cnot(self, control: int, target: int) -> None:
        cc, ct = self._col(control), self._col(target)
        if cc == ct:
            raise IndexError("control and target coincide")
        self.signs ^= self.x[:, cc] & self.z[:, ct] & ~(self.x[:, ct] ^ self.z[:, cc])
        self.x[:, ct] ^= self.x[:, cc]
        self.z[:, cc] ^= self.z[:, ct]

    def apply_gate(self, gate: Gate) -> None:
        if gate.name == "h":
            self.h(gate.qubits[0])
        elif gate.name == "s":
            self.s(gate.qubits[0])
        elif gate.name == "cnot":
            self.cnot(*gate.qubits)
        else:
            raise ValueError(f"gate {gate.name!r} is not a tableau Clifford gate")

    def apply_circuit(self, circuit: CircuitSpec) -> None:
        for g in circuit.gates:
            self.apply_gate(g)

    def generator(self, i: int) -> tuple[int, PauliString]:
        """Generator i as (sign in {+1,-1}, PauliString)."""
        words = pack_zx(self.z[i : i + 1], self.x[i : i + 1])
        return (-1 if self.signs[i] else 1), PauliString(self.n_qubits, unpack_int(words[0]))

    def generator_words(self) -> np.ndarray:
        """The N generators as (N, W) packed words, signs dropped."""
        return pack_zx(self.z, self.x)

    def is_valid(self) -> bool:
        """Generators pairwise commute and are independent over GF(2)."""
        zi, xi = self.z.astype(np.uint8), self.x.astype(np.uint8)
        sym = (zi @ xi.T + xi @ zi.T) % 2
        if np.any(sym):
            return False
        mat = np.concatenate([zi, xi], axis=1)
        return len(_gf2_eliminate(mat, mat.shape[1])) == self.n_qubits

    def to_text(self) -> str:
        """One generator per line, sign then letters."""
        lines = []
        for i in range(self.n_qubits):
            sign, p = self.generator(i)
            lines.append(("+" if sign > 0 else "-") + p.to_letters())
        return "\n".join(lines)


def random_clifford(
    n_qubits: int, depth: int, rng: np.random.Generator
) -> tuple[StabilizerTableau, CircuitSpec]:
    """Random layered Clifford circuit: per-qubit H/S words plus CNOT chains.

    Not uniform over the Clifford group; Bell magic is Clifford-invariant so
    the sampled magic values do not depend on the circuit distribution.
    """
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


def conjugation_offset(tableau: StabilizerTableau) -> PauliString:
    """A Pauli g with sigma_g|psi> = +-|psi*>.

    Complex conjugation flips the sign of every generator with an odd number
    of Y letters; g must anticommute with exactly those generators, a linear
    system over GF(2).  Solutions differ by stabilizer elements and any one
    is valid.
    """
    n = tableau.n_qubits
    y_parity = (tableau.z & tableau.x).sum(axis=1) % 2
    # row i = pair-swapped generator i, so mat @ (z|x) is the symplectic form
    mat = np.concatenate([tableau.x, tableau.z], axis=1).astype(np.uint8)
    v = _gf2_solve(mat, y_parity.astype(np.uint8))
    return PauliString(n, unpack_int(pack_zx(v[None, :n], v[None, n:])[0]))


def bell_sample_stabilizer(
    tableau: StabilizerTableau, n_samples: int, rng: np.random.Generator
) -> BellSamples:
    """Sample two-copy Bell outcomes of the tableau state.

    Each sample is the bit vector of a uniformly random product of generators
    XORed with the conjugation offset; the result is uniform over the 2^N
    outcomes of nonzero probability.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    n = tableau.n_qubits
    offset = pack_ints(n, [conjugation_offset(tableau).bits])
    picks = rng.integers(0, 2, size=(n_samples, n), dtype=np.uint8)
    return BellSamples(n, _xor_picked_rows(tableau.generator_words(), picks, offset))
