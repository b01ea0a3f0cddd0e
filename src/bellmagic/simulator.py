"""Dense statevector simulation and two-copy Bell-measurement distributions.

State indices put qubit 1 in the most significant bit, matching the
qubit-1-leftmost text convention of `pauli`.

Bell-outcome labels are fixed by requiring

    P(r) = 2^-N |<psi| sigma_r |psi*>|^2

to hold literally, i.e. the Bell state labelled r is, per qubit pair,
(sigma_r (x) I)|Phi+> with |Phi+> = (|00> + |11>)/sqrt(2).  Relative to the
textbook enumeration of Bell states this swaps the two middle labels; the
permutation is irrelevant for every magic quantity (they only depend on
XORs and commutators) and is pinned down by the |0...0> fixture, whose
distribution is supported exactly on {I, Z}^N labels.

With sigma_r = i^{#Y} X^x Z^z for the label r = (z, x), the Bell
measurement is a CNOT from copy B onto copy A followed by Hadamards on
copy B:

    <Bell_r | a (x) b> = 2^-N/2 (-i)^{#Y(r)} sum_j (-1)^{z.j} a[j XOR x] b[j],

so `_bell_blocks` gathers g[j, x] = a[j XOR x] b[j] and Walsh-Hadamard
transforms it over j.  The transform (`_wht`, also behind `magic.fwht`)
runs four index bits per pass as real matrix products, so each pass
reads and writes the whole array it is given.  `_bell_blocks` therefore
gives it one block of x values at a time, `_BELL_BLOCK` = 2^15 float
entries (256 KB), which stays in the 2 MB per-core L2 cache through the
gather and all passes.  A sweep of 2^12 to 2^18 entries on a 2-vCPU Xeon
with one BLAS thread put 2^15 first at N = 8 to 11 and within 20% of the
best at N = 12.  2^15 is also the largest power of two whose 16 x 16 pass
OpenBLAS runs as one unpacked small-matrix dgemm (M N K <= 10^6, up to
62k floats); past that it packs the operands and the cost per entry
doubles, so `_wht` issues the passes of larger arrays in 2^15-float row
slices (`_GEMM_FLOATS`).  Every x gets the same sums in the same order as
in one whole-array pass, so the output is bit-identical for any block size.
`_block_views` alone maps packed outcome order, digits (z_1 x_1 ...
z_N x_N), to the blocks' (x, re/im, z) layout, one view per block.
`bell_amplitudes` copies each block into its view of the complex output
while it is in cache, so the distribution path never holds the whole
transform (256 MB at N = 12), only three 4^N float arrays at most; its
phases and squares also go through cache-sized blocks.  `_bell_form`
weights each block by h through its view, holding four arrays at most.

`_simulate_rows` is the one forward gate walk, one 2x2 matrix or CNOT
gather per gate on a stack of rows; `simulate` is its one-row case.  As
Ry(pi/2), Rz(pi/2) = (1 - i sigma)/sqrt(2), the circuit shifted by +-pi/2
at parameter k outputs (psi -+ i phi_k)/sqrt(2) (Schuld et al.,
arXiv:1811.11184), so the walk can also carry the directions phi_k.

The exact gradient `variational._exact_gradient` takes two adjoint kernels.
`_bell_form` applies the Hermitian form M = sum_r h(r) |u_r><u_r| of a
weighted cross distribution, <Bell_r | a (x) psi> = <u_r|a>, to psi: one
Bell transform of psi against itself, weighted block by block, one
Walsh-Hadamard transform back over z and the adjoint XOR gather, O(N 4^N).
`_generator_overlaps` walks the gates backwards on the pair (psi, lambda),
applying U^dagger to both, and reads <lambda|sigma psi> at each rotation
exp(-i t sigma / 2), O(G 2^N) for G gates.

Gate set: H, S = diag(1, -i), T = diag(1, e^{-i pi/4}), CNOT, and the
rotations Ry(t), Rz(t) = exp(-i t sigma/2).  A circuit's parameter vector
holds one angle per rotation in gate order: the k-th rotation of
`circuit.gates` takes `params[k]`.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .pauli import PAULI_LETTERS, BellSamples

DENSE_CAP = 12  # exact 4^N distributions get large quickly

_SQ2 = 1.0 / np.sqrt(2.0)

_FIXED_GATES = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex),
}


def _ry(t) -> np.ndarray:
    """Ry(t) as a 2x2 matrix, or a stack of them, shape (..., 2, 2), for an array of angles."""
    c, s = np.cos(t / 2), np.sin(t / 2)
    u = np.empty(np.shape(t) + (2, 2), dtype=complex)
    u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1] = c, -s, s, c
    return u


def _rz(t) -> np.ndarray:
    """Rz(t) as a 2x2 matrix, or a stack of them, shape (..., 2, 2), for an array of angles."""
    u = np.zeros(np.shape(t) + (2, 2), dtype=complex)
    u[..., 0, 0], u[..., 1, 1] = np.exp(-1j * t / 2), np.exp(1j * t / 2)
    return u


_PARAM_GATES = {"ry": _ry, "rz": _rz}
# the Pauli sigma of each rotation exp(-i t sigma / 2)
_GENERATORS = {
    "ry": np.array([[0, -1j], [1j, 0]]),
    "rz": np.array([[1, 0], [0, -1]], dtype=complex),
}

@dataclass(frozen=True)
class StateVector:
    """Normalized pure state; amplitudes are read-only after construction."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError("amplitude vector has wrong length")
        norm2 = float(np.vdot(amps, amps).real)
        if not abs(norm2 - 1.0) <= 1e-9:  # `not` so that NaN fails
            raise ValueError(f"state is not normalized: |psi|^2 = {norm2}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def zero_state(n_qubits: int) -> StateVector:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def conjugate(state: StateVector) -> StateVector:
    """Entrywise complex conjugate in the computational basis."""
    return StateVector(state.n_qubits, np.conj(state.amplitudes))


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit-count mismatch")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]


_ARITY = dict.fromkeys([*_PARAM_GATES, *_FIXED_GATES], 1) | {"cnot": 2}


def _check_gates(gates, n_qubits: int) -> int:
    """Check gate names, arities and qubits (in range, distinct); return the number of rotations."""
    rotations = False
    for g in {id(g): g for g in gates}.values():  # builders share frozen gates: check each once
        name, qubits = g.name, g.qubits
        arity = _ARITY.get(name)
        if arity is None:
            raise ValueError(f"unknown gate {name!r}")
        if len(qubits) != arity or arity > 1 and len(set(qubits)) != arity:
            raise ValueError(f"gate {name!r} needs {arity} distinct qubits, got {qubits}")
        for q in qubits:
            if not 1 <= q <= n_qubits:
                raise ValueError(f"qubit index {q} out of range")
        rotations = rotations or name in _PARAM_GATES
    # a list comprehension counts faster than sum() over a generator or over ids
    return len([g for g in gates if g.name in _PARAM_GATES]) if rotations else 0


@dataclass
class CircuitSpec:
    """Ordered gate list with one angle per rotation: the k-th rotation takes `params[k]`."""

    n_qubits: int
    gates: list[Gate]
    params: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        if _check_gates(self.gates, self.n_qubits) != len(self.params):
            raise ValueError("parameter count does not match parameterized-gate count")

    @property
    def n_params(self) -> int:
        return len(self.params)

    def with_params(self, params) -> "CircuitSpec":
        return replace(self, params=np.asarray(params, dtype=float))

    def shifted(self, k: int, delta: float) -> "CircuitSpec":
        """The circuit with `delta` added to parameter k, 0 <= k < n_params."""
        if not 0 <= k < self.n_params:
            raise IndexError(f"parameter index {k} out of range")
        theta = self.params.copy()
        theta[k] += delta
        return self.with_params(theta)


def _apply_1q(amps: np.ndarray, u: np.ndarray, q: int, n: int) -> np.ndarray:
    """Apply the 2x2 matrix `u` on qubit q to every row of (R, 2^N) amplitudes."""
    t = amps.reshape(len(amps) * 2 ** (q - 1), 2, 2 ** (n - q))
    return np.einsum("ab,ibj->iaj", u, t).reshape(amps.shape)


@cache
def _cnot_permutation(c: int, t: int, n: int) -> np.ndarray:
    """Index gather of a CNOT: amplitude j comes from j with bit t flipped where bit c is 1."""
    j = np.arange(2**n)
    perm = j ^ (((j >> (n - c)) & 1) << (n - t))
    perm.setflags(write=False)
    return perm


def _simulate_rows(circuit: CircuitSpec, directions: bool = False) -> np.ndarray:
    """Normalized output psi of the circuit on |0...0>, as a (1, 2^N) array.

    With `directions`, rows 1..K follow: phi_k = U_{>k} sigma_k psi_k for
    rotation k = exp(-i t sigma_k / 2), psi_k the state just after it and
    U_{>k} the gates after it.  Raises FloatingPointError if any row's
    norm drifts.
    """
    n = circuit.n_qubits
    mats = {name: gate(circuit.params) for name, gate in _PARAM_GATES.items()}  # (K, 2, 2) each
    amps = zero_state(n).amplitudes[None]
    k = 0  # parameter of the next rotation
    for g in circuit.gates:
        if g.name == "cnot":
            amps = np.take(amps, _cnot_permutation(g.qubits[0], g.qubits[1], n), axis=1)
            continue
        q = g.qubits[0]
        if g.name in _FIXED_GATES:
            amps = _apply_1q(amps, _FIXED_GATES[g.name], q, n)
        else:  # rotation k; with `directions`, row k + 1 starts as sigma_k psi_k
            amps = _apply_1q(amps, mats[g.name][k], q, n)
            if directions:
                amps = np.concatenate([amps, _apply_1q(amps[:1], _GENERATORS[g.name], q, n)])
            k += 1
    norm2 = np.array([np.vdot(row, row).real for row in amps])
    drifted = ~(np.abs(norm2 - 1.0) <= 1e-6)  # `~(<=)` so that NaN counts as drifted
    if drifted.any():
        raise FloatingPointError(f"norm drifted to {norm2[drifted][0]}")
    return amps / np.sqrt(norm2)[:, None]


def simulate(circuit: CircuitSpec) -> StateVector:
    """Apply the circuit's gates in order to |0...0>."""
    return StateVector(circuit.n_qubits, _simulate_rows(circuit)[0])


def _generator_overlaps(circuit: CircuitSpec, psi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """<lam_k| sigma_k |psi_k> for the k-th rotation exp(-i t sigma_k / 2), all k.

    `psi` is the circuit's output and `lam` any 2^N vector.  One reverse pass
    applies each gate's inverse to the stacked pair, so (psi_k, lam_k) is the
    pair just after rotation k; O(G 2^N) for G gates.
    """
    n = circuit.n_qubits
    inverses = {name: gate(-circuit.params) for name, gate in _PARAM_GATES.items()}
    pair = np.stack([psi, lam])
    k = circuit.n_params
    out = np.empty(k, dtype=complex)
    for g in reversed(circuit.gates):
        if g.name == "cnot":  # its own inverse
            pair = np.take(pair, _cnot_permutation(g.qubits[0], g.qubits[1], n), axis=1)
            continue
        q = g.qubits[0]
        if g.name in _FIXED_GATES:
            u = _FIXED_GATES[g.name].conj().T
        else:
            k -= 1
            t = pair.reshape(2, 2 ** (q - 1), 2, 2 ** (n - q))
            out[k] = np.einsum("ajb,jk,akb->", t[1].conj(), _GENERATORS[g.name], t[0])
            u = inverses[g.name][k]
        pair = _apply_1q(pair, u, q, n)
    return out


@dataclass(frozen=True)
class NoiseModel:
    """Global depolarizing channel with probability p."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("depolarizing probability must be in [0, 1]")


@dataclass(frozen=True)
class BellDistribution:
    """Probability vector over the 4^N two-copy Bell outcomes.

    Distributions of physical states obey P(r) <= 2^-N entrywise (asserted
    by the producing functions); the container itself accepts any normalized
    vector so empirical histograms can be carried too.
    """

    n_qubits: int
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (4**self.n_qubits,):
            raise ValueError("probability vector has wrong length")
        if not (p.min() >= -1e-12 and p.max() <= 1.0 + 1e-12):  # `not` so that NaN fails
            raise ValueError("entries outside [0, 1]")
        if not abs(p.sum() - 1.0) <= 1e-9:
            raise ValueError(f"probabilities sum to {p.sum()}")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)


@cache
def _hadamard(c: int) -> np.ndarray:
    """The 2^c x 2^c Sylvester-Hadamard matrix, (-1)^popcount(i & j)."""
    h = np.ones((1, 1))
    for _ in range(c):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


# Floats per Walsh-Hadamard GEMM.  OpenBLAS (0.3.31, SkylakeX kernels) runs a
# dgemm through its unpacked small-matrix kernel only while M N K <= 10^6; a
# 16 x 16 pass over R rows crosses that at R = 3907, and on a 2-vCPU Xeon with
# one BLAS thread its cost per entry doubled there (1.08 -> 2.44 ns).  2^15
# floats, R = 2^11 at c = 4, give M N K = 2^19.  `_BELL_BLOCK`'s 2^15-float
# blocks already sit under it, which is why its block-size sweep put 2^15 first.
_GEMM_FLOATS = 2**15


def _wht(v: np.ndarray, nbits: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform over the `nbits` leading index bits.

    `v` is a flat float64 array whose length is a multiple of 2^nbits.  A
    pass transforms c <= 4 leading bits as a GEMM on the transposed view,
    out = v.reshape(2^c, -1).T @ H_c, which also rotates those c bits to the
    least significant end; after all passes the transformed bits come last,
    in their original order, below the untouched ones.  Above `_GEMM_FLOATS`
    entries a pass is issued in row slices of `_GEMM_FLOATS` floats, each
    within OpenBLAS's small-matrix kernel; every row gets the same 2^c-term
    sum, so the output is bit-identical to one GEMM per pass.  The first
    pass reads `v` into a fresh array; later passes alternate between that
    array and `scratch` (fresh when None, and it may be `v` itself).  Returns
    the array holding the result, which is never `v` unless `v` is `scratch`.
    """
    if nbits == 0:
        return v.copy()
    out, spare = np.empty(v.size), scratch
    while True:
        # 16 x 16 blocks: one pass over v per four bits, so `_bell_blocks` and
        # `magic.fwht` hand it L2-sized pieces (`_BELL_BLOCK`, `_FWHT_CHUNK_BITS`)
        c = min(nbits, 4)
        rows, dest, h = v.reshape(2**c, -1).T, out.reshape(-1, 2**c), _hadamard(c)
        if v.size <= _GEMM_FLOATS:  # one call, so small arrays pay no per-slice Python
            np.matmul(rows, h, out=dest)
        else:
            step = _GEMM_FLOATS >> c
            for s in range(0, len(dest), step):
                np.matmul(rows[s : s + step], h, out=dest[s : s + step])
        nbits -= c
        if not nbits:
            return out
        if spare is None:
            spare = np.empty(v.size)
        v, out, spare = out, spare, out


@cache
def _bell_phases(n: int) -> tuple[np.ndarray, np.ndarray]:
    """2^-n/2 (-i)^{#Y(r)} as factors over the leading and trailing halves of r's digits."""
    per_digit = [-1j if letter == "Y" else 1 for letter in PAULI_LETTERS]
    halves = []
    for k in (n // 2, n - n // 2):
        phase = np.ones(1, dtype=complex)
        for _ in range(k):
            phase = np.kron(phase, per_digit)
        halves.append(phase)
    halves[0] *= 2.0 ** (-n / 2)
    for phase in halves:
        phase.setflags(write=False)
    return halves[0][:, None], halves[1]


_BELL_BLOCK = 2**15  # float entries of one gather + transform block of `_bell_blocks`; L2-sized
_ROW_BLOCK = 2**15  # complex entries per block of `bell_amplitudes`' phases and the squares of P


def _x_per_block(n: int) -> int:
    """x values in one block of `_bell_blocks`: `_BELL_BLOCK` floats, or every x up to N = 7."""
    return min(2**n, max(1, _BELL_BLOCK >> (n + 1)))


def _bell_blocks(a: np.ndarray, b: np.ndarray, n: int):
    """Unscaled Bell amplitudes of the 2^N amplitudes `a` against `b`, in blocks of x.

    A CNOT from copy B onto copy A, then Hadamards on copy B: gathers
    g[j, x] = a[j XOR x] b[j] and Walsh-Hadamard transforms the float view
    of g over j.  Yields the transform for one run of x values after the
    other, each a flat float array of `_BELL_BLOCK` entries (4 x values at
    N = 12, one block for N <= 7) whose axes run (x, re/im, z); the
    amplitude of outcome (z, x) is 2^-N/2 (-i)^{#Y} times it.  Each block
    is gathered through its own j XOR x index and transformed with itself
    as `_wht`'s scratch; every x gets the same sums as in one whole-array
    pass, so the output does not depend on the block size.
    """
    j = np.arange(2**n, dtype=np.uint16)  # n <= DENSE_CAP fits uint16
    step = _x_per_block(n)
    for x0 in range(0, 2**n, step):
        g = np.take(a, j[:, None] ^ j[x0 : x0 + step])
        g *= b[:, None]
        gf = g.view(float).reshape(-1)
        yield _wht(gf, n, scratch=gf)


def _block_views(v: np.ndarray, n: int):
    """Views of (4^N, c) float `v`, rows in packed digit order, one per `_bell_blocks` block.

    A view has axes (x_1..x_N, c, z_1..z_N) less the x bits its block fixes,
    so it lines up with `block.reshape((2,) * view.ndim)`, broadcast if c = 1.
    """
    order = [*range(1, 2 * n, 2), 2 * n, *range(0, 2 * n, 2)]
    view = v.reshape((2,) * (2 * n) + v.shape[1:]).transpose(order)
    fixed = n - (_x_per_block(n).bit_length() - 1)
    for i in np.ndindex(view.shape[:fixed]):
        yield view[i]


def _bell_form(psi: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """M psi for M = sum_r h(r) |u_r><u_r|, where <u_r|a> = <Bell_r | a (x) psi>.

    `h` is a 4^N vector over outcomes, so <a|M|a> = sum_r h(r) P_x(a, psi)(r).
    Each block of the Bell transform T[x, z] of psi against itself is
    weighted by h through `_block_views` and moved into (z, x) order, then
    transformed back over z into S[x, j]; the adjoint of the XOR gather
    contracted with conj(psi) gives (M psi)[i] = 2^-N sum_j conj(psi[j])
    S[i XOR j, j].  Of the amplitude factor 2^-N/2 (-i)^{#Y}, only its
    squared modulus 2^-N is left in |u_r><u_r|.  O(N 4^N) work in O(4^N).
    """
    f = np.empty((2**n, 2**n, 2))  # (z, x, re/im): z leads for the transform back
    step = _x_per_block(n)
    blocks = zip(_bell_blocks(psi, psi, n), _block_views(h.reshape(-1, 1), n))
    for x0, (block, w) in zip(range(0, 2**n, step), blocks):
        block.reshape((2,) * w.ndim)[...] *= w
        f[:, x0 : x0 + step] = block.reshape(step, 2, 2**n).transpose(2, 0, 1)
    f = _wht(f.reshape(-1), n, scratch=f.reshape(-1)).reshape(2**n, 2, 2**n)  # S: (x, re/im, j)
    j = np.arange(2**n, dtype=np.uint16)  # n <= DENSE_CAP fits uint16
    g = np.take_along_axis(f, (j[:, None] ^ j)[:, None], axis=0)  # g[i, :, j] = S[i ^ j, :, j]
    # r[i, re/im, a/b]: (g_re + i g_im)(a - i b) summed over j, for psi = a + i b
    r = (g.reshape(-1, 2**n) @ np.stack([psi.real, psi.imag], axis=1)).reshape(-1, 2, 2)
    return 2.0**-n * (r[:, 0, 0] + r[:, 1, 1] + 1j * (r[:, 1, 0] - r[:, 0, 1]))


def bell_amplitudes(a: StateVector, b: StateVector) -> np.ndarray:
    """Bell-basis amplitudes <Bell_r | a (x) b> as a 4^N complex vector.

    Copies each (x, re/im, z) block of `_bell_blocks` into its
    `_block_views` view of the output while it is in cache, and multiplies
    by 2^-N/2 (-i)^{#Y(r)}, one -i per qubit whose digit is Y, a row block
    of `_ROW_BLOCK` complex entries at a time.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit-count mismatch")
    n = a.n_qubits
    if n > DENSE_CAP:
        raise ValueError(f"dense Bell distributions are capped at {DENSE_CAP} qubits")
    out = np.empty(4**n, dtype=complex)
    views = _block_views(out.view(float).reshape(-1, 2), n)
    for block, dest in zip(_bell_blocks(a.amplitudes, b.amplitudes, n), views):
        np.copyto(dest, block.reshape(dest.shape))
    lead, trail = _bell_phases(n)
    halves = out.reshape(len(lead), len(trail))
    rows = max(1, _ROW_BLOCK // len(trail))
    for r in range(0, len(lead), rows):
        halves[r : r + rows] *= lead[r : r + rows]
        halves[r : r + rows] *= trail
    return out


def cross_bell_distribution(a: StateVector, b: StateVector) -> BellDistribution:
    """Outcome distribution of a Bell measurement across |a> and |b>."""
    amps = bell_amplitudes(a, b)
    probs = np.empty(len(amps))
    imag = np.empty(min(len(amps), _ROW_BLOCK))  # reused by every block
    for s in range(0, len(amps), _ROW_BLOCK):
        block, dest = amps[s : s + _ROW_BLOCK], probs[s : s + _ROW_BLOCK]
        np.square(block.real, out=dest)
        dest += np.square(block.imag, out=imag)
        assert dest.max() <= 2.0**-a.n_qubits + 1e-12  # checked while the block is in cache
    return BellDistribution(a.n_qubits, probs)


def bell_distribution(state: StateVector) -> BellDistribution:
    """Outcome distribution of a Bell measurement across two copies of |psi>."""
    return cross_bell_distribution(state, state)


def pauli_expectation_table(state: StateVector) -> np.ndarray:
    """<psi|sigma_r|psi> for every r, as a real 4^N vector."""
    table = 2 ** (state.n_qubits / 2) * bell_amplitudes(state, conjugate(state))
    assert np.max(np.abs(table.imag)) < 1e-9
    return table.real


def noisy_bell_distribution(dist: BellDistribution, noise: NoiseModel) -> BellDistribution:
    """Distribution after global depolarizing noise on both copies (`dist` itself at p = 0)."""
    p = noise.p
    if p == 0.0:
        return dist
    probs = np.multiply(dist.probabilities, (1 - p) ** 2)  # the one 4^N allocation
    probs += p * (2 - p) / 4**dist.n_qubits
    return BellDistribution(dist.n_qubits, probs)


def sample(dist: BellDistribution, n_samples: int, rng: np.random.Generator) -> BellSamples:
    """Draw i.i.d. outcomes by inverse CDF; deterministic for a fixed seed."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    cdf = np.cumsum(dist.probabilities)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(n_samples), side="right")
    return BellSamples.from_indices(dist.n_qubits, idx)


# ---------------------------------------------------------------------------
# Circuit builders


def _check_depth(depth: int) -> None:
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")


def _ansatz_gates(n_qubits: int, depth: int) -> list[Gate]:
    """`depth` layers of an Ry row, an Rz row and a CNOT chain: 2 N depth rotations."""
    _check_depth(depth)
    qubits = range(1, n_qubits + 1)
    layer = [Gate("ry", (q,)) for q in qubits] + [Gate("rz", (q,)) for q in qubits]
    layer += [Gate("cnot", (q, q + 1)) for q in qubits[:-1]]
    return layer * depth


def hardware_efficient_ansatz(n_qubits: int, depth: int, params) -> CircuitSpec:
    """Layers of per-qubit Ry then Rz rotations followed by a CNOT chain."""
    gates = _ansatz_gates(n_qubits, depth)
    params = np.asarray(params, dtype=float)
    if params.shape != (2 * n_qubits * depth,):
        raise ValueError(f"expected {2 * n_qubits * depth} parameters, got {params.shape}")
    return CircuitSpec(n_qubits, gates, params)


def clifford_plus_t_params(
    n_qubits: int, depth: int, n_tgates: int, rng: np.random.Generator
) -> np.ndarray:
    """Random multiples of pi/2 with n_tgates positions shifted by pi/4."""
    _check_depth(depth)
    k = 2 * n_qubits * depth
    if not 0 <= n_tgates <= k:
        raise ValueError("T-gate count out of range")
    theta = (np.pi / 2) * rng.integers(0, 4, size=k).astype(float)
    shift = rng.choice(k, size=n_tgates, replace=False)
    theta[shift] += np.pi / 4
    return theta


def magic_input_circuit(
    n_qubits: int,
    n_magic: int,
    phi: float,
    depth: int,
    rng: np.random.Generator,
) -> CircuitSpec:
    """Magic-angle inputs on random qubits followed by a random layered Clifford.

    Prepares cos(phi/2)|0> + sin(phi/2)|1> with Ry(phi) on n_magic randomly
    chosen qubits, then runs `hardware_efficient_ansatz`'s `depth` layers at
    random multiples of pi/2, which are all Clifford.
    """
    if not 0 <= n_magic <= n_qubits:
        raise ValueError("magic-state count out of range")
    layers = _ansatz_gates(n_qubits, depth)
    inputs = sorted(rng.choice(n_qubits, size=n_magic, replace=False) + 1)
    angles = (np.pi / 2) * rng.integers(0, 4, size=2 * n_qubits * depth)
    gates = [Gate("ry", (int(q),)) for q in inputs] + layers
    return CircuitSpec(n_qubits, gates, np.concatenate([np.full(n_magic, phi), angles]))
