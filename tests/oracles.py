"""Reference implementations that the library does not use, and one test helper.

`bell_magic_brute` evaluates the O(16^N) double sum of Bell magic for
N <= 3, with `pair_swap_permutation` as the explicit index permutation J;
the oracle for the Walsh-Hadamard path of `magic.bell_magic_exact`.
`mixed_bell_distribution` builds the two-copy Bell distribution of a
density matrix from explicit projectors (O(16^N), N <= 5); the fast
pure-state path is checked against it.  `grad_p_shift` applies the paper's
two-copy shift rule one parameter at a time, with three `simulate` calls
and two Bell transforms per parameter, and `grad_bell_magic_exact` reduces
it against the gradient kernel.  `exact_gradient_batched` runs the same
rule for all K parameters at once: the 2K shifted circuits, whose
parameter rows `shifted_rows` builds, through `simulate_rows_per_row`, a
batched gate loop that applies one rotation matrix per row, and their
cross distributions against the kernel in blocks of `_BLOCK_ENTRIES`
(`_cross_bell_dots`).  Together with the central finite difference
`gradient_finite_difference` they are the oracles for the adjoint sweep
of `variational._exact_gradient`.  `simulate_rows_per_row` is also the
reference for the shifted states (psi -+ i phi_k)/sqrt(2) that
`simulator._simulate_rows` builds from one forward walk.  `apply_circuit`
applies a circuit to any state, one gate at a time on one amplitude vector:
the one-state loop the batched walk replaced, and the way tests run a
circuit on a state other than |0...0>, which `simulate` does not take.
`wht_one_gemm` is `simulator._wht` with each pass one GEMM over the
whole array, the reference for its small-GEMM row slices and the
transform behind every whole-array reference below.
`bell_transform_rows` is the unblocked Bell transform of R rows against
one shared state, the whole (2^N, 2^N, R) gather in one array, and
`fwht_unblocked` the whole-length `wht_one_gemm` call: the references that
`simulator._bell_blocks` and `magic.fwht`, which work through
cache-sized blocks, must match bit for bit.  `bell_form_whole` weights the
whole (x, re/im, z) transform by h permuted into that layout with
`zx_axis_order`, then transposes it whole for the transform back over z:
the reference that the block loop of `simulator._bell_form` must match
bit for bit.  `bell_amplitudes_whole`
transposes the whole (x, re/im, z) transform into the interleaved outcome
digits in one (2N+1)-axis copy, `fwht_two_buffer` runs `fwht`'s leading
passes between two whole-length buffers, and `pair_swapped_copy` swaps
the (z, x) bits of every pair by an axis transpose into a new array: the
code that `simulator.bell_amplitudes`, `magic.fwht` and
`magic._swap_pairs` replaced in block-sized and in-place form, which they
must match bit for bit.
`pauli_expectation` reads <psi|sigma_p|psi> off one explicit application
of sigma_p, independently of the Bell-transform path behind
`simulator.pauli_expectation_table`.
`magic_input_circuit_gatewise` draws the magic-input circuit's angles one
scalar at a time, the reference for the layer-built
`simulator.magic_input_circuit`.  `random_clifford_gatewise` draws the
layered circuit one scalar at a time and applies it gate by gate
(`tableau_h`, `tableau_s`, `tableau_cnot`, `apply_tableau_gate`,
`apply_tableau_circuit`) to a `BooleanTableau`, boolean N x N z/x
generator matrices, the reference for the packed whole-layer
`stabilizer.random_clifford`.  `conjugation_offset_gf2` solves for a
conjugation offset by Gauss-Jordan elimination over GF(2)
(`_gf2_eliminate`), the reference for the offset the library tracks through
the layers; the gate-by-gate tableaux take their offset from it.
`tableau_is_valid` checks the tableau invariants by the same elimination.
Both read a library `StabilizerTableau` through `unpack_zx` of its words.
`pack_zx` packs boolean (M, N) z/x matrices into words through a bit
matrix and `np.packbits`: the reference packer for tableau words, sampler
output and the round trip of `pauli.unpack_zx`.
`pack_qubit_planes_unpacked` unpacks bit-packed qubit planes into boolean
matrices and packs their transposed views with `pack_zx`, the reference
for the bit-block transposes of `pauli._pack_qubit_planes`.
`symplectic_product` is the symplectic form of two `PauliString`s by
integer bit operations, with `swap_pairs` exchanging the bits of every
(z, x) pair: the scalar reference for `pauli.symplectic_rows` and
`pauli.swap_pair_words`.
`distinct_tuples_all_rows` re-checks every row in each rejection round, the
reference for `estimation._distinct_tuples`, which re-checks only the rows
it redraws.  `all_quadruples_brute` enumerates every ordered quadruple of
up to 8 outcomes (`quadruple_mean` scores a list of them), the reference
for the Gram-matrix statistics of `estimation.estimate_bell_magic`'s
"distinct" and "all" modes.  `resampled_curve_rep` scores a discrimination
curve repetition the way the curve did before those statistics existed,
with `LARGE_RESAMPLE_FACTOR` resampled quadruples per outcome (distinct
indices for 'single', with replacement for 'many'): the oracle for
`experiments._pe_grid_rep`.  `learn_threshold_loop` scores each candidate
threshold in a Python loop, the reference for the one sorted pass of
`discrimination.learn_threshold`.
`gradient_estimate_unstacked` scores the plus and minus settings of the
sampled gradient in two whole-array passes over their own words, with the
same draws: the reference for `variational.estimate_gradient`, which stacks
the three settings and scores them through the blocked
`estimation._quadruple_mean`.
`from_letters` parses readable Pauli literals such as "XZY" for the tests.
"""
import numpy as np

from bellmagic import experiments
from bellmagic.discrimination import single_magic_family
from bellmagic.estimation import _distinct_tuples, _resample_count
from bellmagic.magic import (
    _FWHT_CHUNK_BITS,
    MagicValue,
    additive_magic,
    bell_magic_exact,
    q_distribution,
)
from bellmagic.pauli import (
    PAULI_LETTERS,
    PauliString,
    pack_ints,
    swap_pair_words,
    symplectic_rows,
    unpack_int,
    unpack_zx,
    words_per_string,
)
from bellmagic.simulator import (
    DENSE_CAP,
    BellDistribution,
    CircuitSpec,
    Gate,
    StateVector,
    _FIXED_GATES,
    _PARAM_GATES,
    _bell_phases,
    _cnot_permutation,
    _hadamard,
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


def swap_pairs(bits: int) -> int:
    """Exchange the (z, x) bits within every pair of a packed string."""
    mask = (4 ** (bits.bit_length() // 2 + 1) - 1) // 3  # every x bit, and one pair spare
    x = bits & mask
    z = (bits >> 1) & mask
    return (x << 1) | z


def symplectic_product(a: PauliString, b: PauliString) -> int:
    """GF(2) symplectic form of two strings by integer bit operations; 1 iff they anticommute."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit-count mismatch: {a.n_qubits} vs {b.n_qubits}")
    return int.bit_count(a.bits & swap_pairs(b.bits)) & 1


def pack_zx(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pack 0/1 (M, N) z/x matrices, column n-1 for qubit n, into (M, W) uint64 words."""
    m, n = z.shape
    bits = np.zeros((m, 64 * words_per_string(n)), dtype=np.uint8)
    # LSB-first bit sequence: x_N, z_N, x_{N-1}, z_{N-1}, ..., x_1, z_1
    bits[:, 0 : 2 * n : 2] = x[:, ::-1]
    bits[:, 1 : 2 * n : 2] = z[:, ::-1]
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64, copy=False)


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


class BooleanTableau:
    """Gate-by-gate reference tableau: row i of the boolean (N, N) z and x
    matrices is generator i, column q - 1 qubit q; starts as |0...0>."""

    def __init__(self, n_qubits: int):
        self.n_qubits = n_qubits
        self.z = np.eye(n_qubits, dtype=bool)
        self.x = np.zeros((n_qubits, n_qubits), dtype=bool)
        self.signs = np.zeros(n_qubits, dtype=bool)
        self.offset = PauliString(n_qubits, 0)

    def to_text(self) -> str:
        """One generator per line, sign then letters read off z and x qubit by qubit."""
        letters = np.array(list(PAULI_LETTERS))[2 * self.z + self.x]
        return "\n".join(("-" if s else "+") + "".join(row) for s, row in zip(self.signs, letters))


def _zx(tab) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (N, N) z/x generator matrices of a `BooleanTableau` or a `StabilizerTableau`."""
    if isinstance(tab, StabilizerTableau):
        return unpack_zx(tab.words, tab.n_qubits)
    return tab.z, tab.x


def _tableau_col(tab: BooleanTableau, q: int) -> int:
    if not 1 <= q <= tab.n_qubits:
        raise IndexError(f"qubit index {q} out of range")
    return q - 1


def tableau_h(tab: BooleanTableau, q: int) -> None:
    c = _tableau_col(tab, q)
    tab.signs ^= tab.z[:, c] & tab.x[:, c]
    tab.z[:, c], tab.x[:, c] = tab.x[:, c].copy(), tab.z[:, c].copy()


def tableau_s(tab: BooleanTableau, q: int) -> None:
    c = _tableau_col(tab, q)
    tab.signs ^= tab.x[:, c] & ~tab.z[:, c]
    tab.z[:, c] ^= tab.x[:, c]


def tableau_cnot(tab: BooleanTableau, control: int, target: int) -> None:
    cc, ct = _tableau_col(tab, control), _tableau_col(tab, target)
    if cc == ct:
        raise IndexError("control and target coincide")
    tab.signs ^= tab.x[:, cc] & tab.z[:, ct] & ~(tab.x[:, ct] ^ tab.z[:, cc])
    tab.x[:, ct] ^= tab.x[:, cc]
    tab.z[:, cc] ^= tab.z[:, ct]


def apply_tableau_gate(tab: BooleanTableau, gate: Gate) -> None:
    """One h, s or cnot gate on the generators; `tab.offset` is left as it was."""
    if gate.name == "h":
        tableau_h(tab, gate.qubits[0])
    elif gate.name == "s":
        tableau_s(tab, gate.qubits[0])
    elif gate.name == "cnot":
        tableau_cnot(tab, *gate.qubits)
    else:
        raise ValueError(f"gate {gate.name!r} is not a tableau Clifford gate")


def apply_tableau_circuit(tab: BooleanTableau, circuit: CircuitSpec) -> None:
    """The circuit gate by gate, then the offset solved afresh by `conjugation_offset_gf2`."""
    for g in circuit.gates:
        apply_tableau_gate(tab, g)
    tab.offset = conjugation_offset_gf2(tab)


def random_clifford_gatewise(
    n_qubits: int, depth: int, rng: np.random.Generator
) -> tuple[BooleanTableau, CircuitSpec]:
    """Layered random Clifford circuit by scalar draws and one gate at a time."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    tab = BooleanTableau(n_qubits)
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


def conjugation_offset_gf2(tab: BooleanTableau | StabilizerTableau) -> PauliString:
    """A Pauli g with sigma_g|psi> = +-|psi*>, solved from the generators alone.

    g must anticommute with exactly the generators that have an odd number of
    Y letters, a linear system over GF(2); free variables are set to 0.
    """
    n = tab.n_qubits
    z, x = _zx(tab)
    y_parity = (z & x).sum(axis=1) % 2
    # row i = pair-swapped generator i, so the first 2N columns against (z|x)
    # are the symplectic form
    m = np.concatenate([x, z, y_parity[:, None]], axis=1).astype(np.uint8)
    pivots = _gf2_eliminate(m, 2 * n)
    if np.any(m[len(pivots):, -1]):
        raise AssertionError("inconsistent GF(2) system for a valid tableau")
    v = np.zeros(2 * n, dtype=bool)
    v[pivots] = m[: len(pivots), -1]
    return PauliString(n, unpack_int(pack_zx(v[None, :n], v[None, n:])[0]))


def pack_qubit_planes_unpacked(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Generator rows of (N, C) uint64 qubit planes through boolean (N, 64C) bit matrices."""
    n = len(z)
    planes = np.vstack([z, x]).astype("<u8", copy=False).view(np.uint8)
    bits = np.unpackbits(planes, axis=-1, bitorder="little").view(bool)
    return pack_zx(bits[:n].T, bits[n:].T)


def tableau_is_valid(tab: BooleanTableau | StabilizerTableau) -> bool:
    """Generators pairwise commute and are independent over GF(2)."""
    zi, xi = (a.astype(np.uint8) for a in _zx(tab))
    sym = (zi @ xi.T + xi @ zi.T) % 2
    if np.any(sym):
        return False
    mat = np.concatenate([zi, xi], axis=1)
    return len(_gf2_eliminate(mat, mat.shape[1])) == tab.n_qubits


def pair_swap_permutation(n_qubits: int) -> np.ndarray:
    """Index permutation J r swapping the (z, x) bits of every pair; oracle for `_swap_pairs`."""
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


def wht_one_gemm(v: np.ndarray, nbits: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """`simulator._wht` with each pass issued as one GEMM over the whole array.

    Same passes, buffers and return rule as the library transform, which
    splits a pass over more than `_GEMM_FLOATS` entries into row slices.
    """
    if nbits == 0:
        return v.copy()
    out, spare = np.empty(v.size), scratch
    while True:
        c = min(nbits, 4)
        np.matmul(v.reshape(2**c, -1).T, _hadamard(c), out=out.reshape(-1, 2**c))
        nbits -= c
        if not nbits:
            return out
        if spare is None:
            spare = np.empty(v.size)
        v, out, spare = out, spare, out


def bell_transform_rows(rows: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Unscaled Bell amplitudes of each row of (R, 2^N) `rows` against `b`, unblocked.

    Gathers g[j, x, r] = rows[r, j XOR x] b[j] in one array and
    Walsh-Hadamard transforms its float view over j.  Returns the transform
    as a flat float array whose axes run (x, r, re/im, z).
    """
    j = np.arange(2**n, dtype=np.uint16)  # n <= DENSE_CAP fits uint16
    g = np.take(np.ascontiguousarray(rows.T), j[:, None] ^ j, axis=0)
    g *= b[:, None, None]
    gf = g.view(float).reshape(-1)
    return wht_one_gemm(gf, n, scratch=gf)


def zx_axis_order(z_axes, x_axes) -> list[int]:
    """Axis order that interleaves per-qubit z and x axes as (z_1, x_1, ..., z_N, x_N).

    A dense 4^N array indexed by packed strings, viewed as (2,)^2N, has its
    axes in this order, so `view.transpose(zx_axis_order(z_axes, x_axes))`
    of a view whose qubit-q z and x bits sit on axes z_axes[q-1] and
    x_axes[q-1] is in index order.
    """
    return [ax for pair in zip(z_axes, x_axes) for ax in pair]


def bell_form_whole(psi: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """`simulator._bell_form` through the whole transform, h permuted and T transposed whole."""
    digits = zx_axis_order(z_axes=range(n, 2 * n), x_axes=range(n))
    h_xz = h.reshape((2,) * (2 * n)).transpose(np.argsort(digits)).reshape(2**n, 1, 2**n)
    f = bell_transform_rows(psi[None], psi, n).reshape(2**n, 2, 2**n)  # T: (x, re/im, z)
    f *= h_xz
    f = f.transpose(2, 0, 1).reshape(-1)  # (z, x, re/im): z leads for the transform
    f = wht_one_gemm(f, n, scratch=f).reshape(2**n, 2, 2**n)  # S: (x, re/im, j)
    j = np.arange(2**n, dtype=np.uint16)
    g = np.take_along_axis(f, (j[:, None] ^ j)[:, None], axis=0)  # g[i, :, j] = S[i ^ j, :, j]
    r = (g.reshape(-1, 2**n) @ np.stack([psi.real, psi.imag], axis=1)).reshape(-1, 2, 2)
    return 2.0**-n * (r[:, 0, 0] + r[:, 1, 1] + 1j * (r[:, 1, 0] - r[:, 0, 1]))


def fwht_unblocked(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a power-of-two length, in whole-length passes."""
    a = np.asarray(a, dtype=float)
    return wht_one_gemm(a, a.size.bit_length() - 1)


def bell_amplitudes_whole(a: StateVector, b: StateVector) -> np.ndarray:
    """`simulator.bell_amplitudes` from the whole (x, re/im, z) transform and one copy."""
    n = a.n_qubits
    f = bell_transform_rows(a.amplitudes[None], b.amplitudes, n)
    # float axes (x_1..x_n, re/im, z_1..z_n) -> (z_1, x_1, ..., z_n, x_n, re/im)
    order = zx_axis_order(z_axes=range(n + 1, 2 * n + 1), x_axes=range(n)) + [n]
    out = np.empty(4**n, dtype=complex)
    np.copyto(out.view(float).reshape((2,) * (2 * n + 1)),
              f.reshape((2,) * (2 * n + 1)).transpose(order))
    lead, trail = _bell_phases(n)
    halves = out.reshape(len(lead), len(trail))
    halves *= lead
    halves *= trail
    return out


def fwht_two_buffer(a: np.ndarray) -> np.ndarray:
    """`magic.fwht` with its leading passes between two whole-length buffers."""
    a = np.asarray(a, dtype=float)
    m = a.size.bit_length() - 1
    hi = 4 * -(-max(m - _FWHT_CHUNK_BITS, 0) // 4)
    if not hi:
        return wht_one_gemm(a, m)
    v, out, spare = a, np.empty(a.size), np.empty(a.size)
    for k in range(0, hi, 4):
        np.matmul(_hadamard(4), v.reshape(2**k, 16, -1), out=out.reshape(2**k, 16, -1))
        v, out = out, spare if v is a else v
    for chunk in v.reshape(-1, 2 ** (m - hi)):
        r = wht_one_gemm(chunk, m - hi, scratch=chunk)
        if r is not chunk:
            chunk[:] = r
    return v


def pair_swapped_copy(v: np.ndarray, n_qubits: int) -> np.ndarray:
    """v[J r] over r as a new array, by transposing the (2, 2)^N view."""
    axes = zx_axis_order(z_axes=range(1, 2 * n_qubits, 2), x_axes=range(0, 2 * n_qubits, 2))
    return v.reshape((2,) * (2 * n_qubits)).transpose(axes).reshape(-1)


_BLOCK_ENTRIES = 2**16  # complex entries of one gather + transform block of `_cross_bell_dots`


def _cross_bell_dots(rows: np.ndarray, b: StateVector, h: np.ndarray) -> np.ndarray:
    """P_r . h for the cross Bell distribution P_r of every row of (R, 2^N) `rows` against |b>.

    `h` is a 4^N vector over outcomes; it is permuted once into the (x, z)
    layout of the transform, so no block is reordered.  Rows go through in
    blocks of about `_BLOCK_ENTRIES` complex entries, one row at a time
    from N = 8 on, and each block is reduced against h at once, so memory
    stays O(4^N) whatever R is.
    """
    n = b.n_qubits
    if n > DENSE_CAP:
        raise ValueError(f"dense Bell distributions are capped at {DENSE_CAP} qubits")
    if rows.ndim != 2 or rows.shape[1] != 2**n:
        raise ValueError("rows do not match the base state's size")
    digits = zx_axis_order(z_axes=range(n, 2 * n), x_axes=range(n))
    h_xz = h.reshape((2,) * (2 * n)).transpose(np.argsort(digits)).reshape(2**n, 2**n)
    step = max(1, _BLOCK_ENTRIES // 4**n)
    scaled = b.amplitudes * 2.0 ** (-n / 2)  # so the squared transform is the probability
    dots = np.empty(len(rows))
    for start in range(0, len(rows), step):
        f = bell_transform_rows(rows[start : start + step], scaled, n)
        f = np.square(f, out=f).reshape(2**n, -1, 2, 2**n)
        p = f[:, :, 0] + f[:, :, 1]  # p[x, i, z]: outcome (z, x) of row start + i
        assert p.max() <= 2.0**-n + 1e-12
        dots[start : start + p.shape[1]] = np.einsum("xrz,xz->r", p, h_xz)
    return dots


def shifted_rows(theta: np.ndarray, shift: float) -> np.ndarray:
    """(2K, K) parameter rows theta + shift e_k, theta - shift e_k, interleaved in k order."""
    k = np.arange(len(theta))
    rows = np.repeat(theta[None], 2 * len(theta), axis=0)
    rows[2 * k, k] += shift
    rows[2 * k + 1, k] -= shift
    return rows


def simulate_rows_per_row(circuit: CircuitSpec, thetas: np.ndarray) -> np.ndarray:
    """Run the circuit once per row of the (R, K) parameter matrix `thetas`.

    Returns the normalized (R, 2^N) amplitudes of the R output states, all
    started from |0...0>.  A fixed gate applies one 2x2 matrix to all rows,
    a rotation one matrix per row from an (R, K, 2, 2) stack, so no two rows
    share a rotation path.
    """
    n = circuit.n_qubits
    if thetas.ndim != 2 or thetas.shape[1] != circuit.n_params:
        raise ValueError(f"expected (R, {circuit.n_params}) parameters, got {thetas.shape}")
    mats = {name: gate(thetas) for name, gate in _PARAM_GATES.items()}  # (R, K, 2, 2) each
    amps = np.zeros((len(thetas), 2**n), dtype=complex)
    amps[:, 0] = 1.0
    k = 0  # parameter of the next rotation
    for g in circuit.gates:
        if g.name == "cnot":
            amps = np.take(amps, _cnot_permutation(g.qubits[0], g.qubits[1], n), axis=1)
            continue
        q = g.qubits[0]
        if g.name in _FIXED_GATES:
            t = amps.reshape(len(amps) * 2 ** (q - 1), 2, 2 ** (n - q))
            amps = np.einsum("ab,ibj->iaj", _FIXED_GATES[g.name], t).reshape(amps.shape)
            continue
        t = amps.reshape(len(amps), 2 ** (q - 1), 2, 2 ** (n - q))
        amps = np.matmul(mats[g.name][:, k, None], t).reshape(amps.shape)
        k += 1
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def apply_circuit(circuit: CircuitSpec, state: StateVector) -> StateVector:
    """The circuit's gates applied to `state` one by one, on one amplitude vector.

    A CNOT swaps two slices of the (2,)^N view, any other gate is one 2x2
    matrix contracted into its qubit's axis.  The one-state loop that the
    batched `simulator._simulate_rows` replaced, and the way tests apply a
    circuit to a state other than |0...0>.
    """
    n = circuit.n_qubits
    amps = state.amplitudes.astype(complex)
    k = 0  # the k-th rotation takes params[k]
    for g in circuit.gates:
        if g.name == "cnot":
            c, t = g.qubits
            out = amps.copy().reshape((2,) * n)
            sel1 = [slice(None)] * n
            sel1[c - 1] = 1
            lo, hi = list(sel1), list(sel1)
            lo[t - 1], hi[t - 1] = 0, 1
            out[tuple(lo)], out[tuple(hi)] = out[tuple(hi)].copy(), out[tuple(lo)].copy()
            amps = out.reshape(-1)
            continue
        q = g.qubits[0]
        if g.name in ("ry", "rz"):
            half = circuit.params[k] / 2
            k += 1
            if g.name == "ry":
                u = np.array([[np.cos(half), -np.sin(half)], [np.sin(half), np.cos(half)]])
            else:
                u = np.diag([np.exp(-1j * half), np.exp(1j * half)])
        else:
            u = _FIXED_GATES[g.name]
        t = amps.reshape(2 ** (q - 1), 2, 2 ** (n - q))
        amps = np.einsum("ab,ibj->iaj", u, t).reshape(-1)
    return StateVector(n, amps / np.linalg.norm(amps))


def exact_gradient_batched(
    circuit: CircuitSpec, base_state: StateVector, p: BellDistribution
) -> np.ndarray:
    """All K components of the exact Bell-magic gradient by the batched two-copy shift rule.

    The 2K circuits shifted by +-pi/2 run through `simulate_rows_per_row`,
    one gate loop over a (2K, 2^N) array with a rotation matrix per row;
    one gather + Walsh-Hadamard pass over those rows against the base
    state, in blocks of `_BLOCK_ENTRIES`, reduces each block of cross
    distributions against the kernel h at once, d_k B = (P_+k - P_-k) . h:
    O(G K 2^N + K N 4^N) work for G gates.
    """
    shifted = simulate_rows_per_row(circuit, shifted_rows(circuit.params, np.pi / 2))
    dots = _cross_bell_dots(shifted, base_state, _gradient_kernel(p))
    return dots[0::2] - dots[1::2]


_FD_STEP = 1e-5  # finite-difference step of the gradient oracle


def gradient_finite_difference(circuit: CircuitSpec, k: int) -> float:
    """Central finite difference of exact Bell magic; test oracle."""
    bp = bell_magic_exact(bell_distribution(simulate(circuit.shifted(k, _FD_STEP))))
    bm = bell_magic_exact(bell_distribution(simulate(circuit.shifted(k, -_FD_STEP))))
    return (bp.bell_magic - bm.bell_magic) / (2 * _FD_STEP)


def distinct_tuples_all_rows(m: int, n_trials: int, width: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Rejection sampler of distinct-index tuples that re-sorts every row each round."""
    idx = rng.integers(0, m, size=(n_trials, width))
    while True:
        srt = np.sort(idx, axis=1)
        bad = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        if not bad.any():
            return idx
        idx[bad] = rng.integers(0, m, size=(int(bad.sum()), width))


def quadruple_mean(words: np.ndarray, quad: np.ndarray) -> float:
    """Mean of 2<s_a ^ s_b, s_c ^ s_d> over the rows (a, b, c, d) of quad."""
    left = words[quad[:, 0]] ^ words[quad[:, 1]]
    right = words[quad[:, 2]] ^ words[quad[:, 3]]
    return 2.0 * float(symplectic_rows(left, right).mean())


def gradient_estimate_unstacked(base, plus, minus, n_resamples, rng) -> float:
    """variational.estimate_gradient with each shifted setting scored on its own words."""
    n_r = _resample_count(n_resamples, len(plus))
    triples = _distinct_tuples(len(base), n_r, 3, rng)
    ms = rng.integers(0, len(plus), size=n_r)
    left = base.words[triples[:, 0]] ^ base.words[triples[:, 1]]
    third = base.words[triples[:, 2]]
    vals_plus = 2.0 * symplectic_rows(left, third ^ plus.words[ms])
    vals_minus = 2.0 * symplectic_rows(left, third ^ minus.words[ms])
    return 4.0 * float(vals_plus.mean() - vals_minus.mean())


def all_quadruples_brute(words: np.ndarray, distinct: bool) -> float:
    """quadruple_mean over every ordered quadruple of rows, of distinct ones if asked."""
    quad = np.indices((len(words),) * 4).reshape(4, -1).T
    if distinct:
        srt = np.sort(quad, axis=1)
        quad = quad[(srt[:, 1:] != srt[:, :-1]).all(axis=1)]
    return quadruple_mean(words, quad)


LARGE_RESAMPLE_FACTOR = 50  # resampled quadruples per outcome, to inspect "essentially all"


def resampled_curve_rep(args) -> list[int]:
    """experiments._pe_grid_rep with each N_Q prefix scored by 50 N_Q resampled quadruples."""
    (kind, n, na, phi, depth, nq_values, seed, _) = args
    rng = np.random.default_rng(seed)
    if kind == "single":
        state = single_magic_family(n, phi, depth)(rng)
    else:
        state = experiments.build_family_state("magic-input", n, depth, 0, na, phi, rng)
    _, samples = experiments._bell_samples(state, 0.0, max(nq_values), rng)
    misses = []
    for nq in nq_values:
        n_r = LARGE_RESAMPLE_FACTOR * nq
        if kind == "many" or nq <= 3:
            quad = rng.integers(0, nq, size=(n_r, 4))
        else:
            quad = distinct_tuples_all_rows(nq, n_r, 4, rng)
        misses.append(int(quadruple_mean(samples.words[:nq], quad) <= 0.0))
    return misses


def learn_threshold_loop(train) -> float:
    """The threshold of the best candidate, scored one candidate at a time (first best wins)."""
    values = np.array(sorted({r.b_hat for r in train}))
    candidates = [-np.inf]
    candidates += list((values[1:] + values[:-1]) / 2)
    candidates += [values[-1] + 1.0]
    b = np.array([r.b_hat for r in train])
    y = np.array([r.label for r in train])
    best, best_score = None, -np.inf
    for c in candidates:
        score = float(np.sum(np.where(b > c, 1, -1) * y))
        if score > best_score:
            best, best_score = c, score
    return float(best)
