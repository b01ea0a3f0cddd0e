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

so `_bell_transform` gathers g[j, x] = a[j XOR x] b[j] and Walsh-Hadamard
transforms it over j.  The transform (`_wht`, also behind `magic.fwht`)
runs four index bits per pass as one real matrix product.

Both kernels carry a leading row axis, so one pass serves a batch of
states: the gate loop `_simulate_rows` runs one circuit under R parameter
rows on an (R, 2^N) array, and `_bell_transform` takes R rows against one
shared copy-B state.  `simulate` and `bell_amplitudes` are their R = 1
cases; the shift-rule gradient `variational._exact_gradient` runs all 2K
shifted circuits through them at once (`_cross_bell_dots`).

Gate set: H, S = diag(1, -i), T = diag(1, e^{-i pi/4}), CNOT, and the
rotations Ry(t), Rz(t) = exp(-i t sigma/2).  A circuit's parameter vector
holds one angle per rotation in gate order: the k-th rotation of
`circuit.gates` takes `params[k]`.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .pauli import PAULI_LETTERS, BellSamples, zx_axis_order

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


def _check_gates(gates, n_qubits: int) -> int:
    """Check gate names and qubit ranges; return the number of rotations."""
    rotations = 0
    for g in gates:
        if g.name in _PARAM_GATES:
            rotations += 1
        elif g.name not in _FIXED_GATES and g.name != "cnot":
            raise ValueError(f"unknown gate {g.name!r}")
        for q in g.qubits:
            if not 1 <= q <= n_qubits:
                raise ValueError(f"qubit index {q} out of range")
    return rotations


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
    """Apply a one-qubit gate to every row of (R, 2^N) amplitudes.

    `u` is a (1, 2, 2) matrix shared by all rows, or an (R, 2, 2) stack
    with one matrix per row.
    """
    if len(u) == 1:
        t = amps.reshape(len(amps) * 2 ** (q - 1), 2, 2 ** (n - q))
        return np.einsum("ab,ibj->iaj", u[0], t).reshape(amps.shape)
    t = amps.reshape(len(amps), 2 ** (q - 1), 2, 2 ** (n - q))
    return np.matmul(u[:, None], t).reshape(amps.shape)


@cache
def _cnot_permutation(c: int, t: int, n: int) -> np.ndarray:
    """Index gather of a CNOT: amplitude j comes from j with bit t flipped where bit c is 1."""
    j = np.arange(2**n)
    perm = j ^ (((j >> (n - c)) & 1) << (n - t))
    perm.setflags(write=False)
    return perm


def _simulate_rows(
    circuit: CircuitSpec, thetas: np.ndarray, initial: StateVector | None = None
) -> np.ndarray:
    """Run the circuit once per row of the (R, K) parameter matrix `thetas`.

    Returns the normalized (R, 2^N) amplitudes of the R output states, all
    started from |0...0> (or `initial`).  A fixed gate applies one 2x2
    matrix to all rows, a rotation one matrix per row (the same shared
    path when R = 1).  Raises FloatingPointError if any row's norm drifts.
    """
    n = circuit.n_qubits
    if initial is None:
        initial = zero_state(n)
    if initial.n_qubits != n:
        raise ValueError("initial state size does not match circuit")
    if thetas.ndim != 2 or thetas.shape[1] != circuit.n_params:
        raise ValueError(f"expected (R, {circuit.n_params}) parameters, got {thetas.shape}")
    mats = {name: gate(thetas) for name, gate in _PARAM_GATES.items()}  # (R, K, 2, 2) each
    amps = np.repeat(initial.amplitudes[None], len(thetas), axis=0)
    k = 0  # parameter of the next rotation
    for g in circuit.gates:
        if g.name == "cnot":
            amps = np.take(amps, _cnot_permutation(g.qubits[0], g.qubits[1], n), axis=1)
            continue
        if g.name in _FIXED_GATES:
            u = _FIXED_GATES[g.name][None]
        else:
            u = mats[g.name][:, k]
            k += 1
        amps = _apply_1q(amps, u, g.qubits[0], n)
    norm2 = np.array([np.vdot(row, row).real for row in amps])
    drifted = ~(np.abs(norm2 - 1.0) <= 1e-6)  # `~(<=)` so that NaN counts as drifted
    if drifted.any():
        raise FloatingPointError(f"norm drifted to {norm2[drifted][0]}")
    return amps / np.sqrt(norm2)[:, None]


def simulate(circuit: CircuitSpec, initial: StateVector | None = None) -> StateVector:
    """Apply the circuit's gates in order to |0...0> (or `initial`)."""
    amps = _simulate_rows(circuit, circuit.params[None], initial)
    return StateVector(circuit.n_qubits, amps[0])


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


def _wht(v: np.ndarray, nbits: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform over the `nbits` leading index bits.

    `v` is a flat float64 array whose length is a multiple of 2^nbits.  A
    pass transforms c <= 4 leading bits as one GEMM on the transposed view,
    out = v.reshape(2^c, -1).T @ H_c, which also rotates those c bits to the
    least significant end; after all passes the transformed bits come last,
    in their original order, below the untouched ones.  The first pass reads
    `v` into a fresh array; later passes alternate between that array and
    `scratch` (fresh when None, and it may be `v` itself).  Returns the
    array holding the result, which is never `v` unless `v` is `scratch`.
    """
    if nbits == 0:
        return v.copy()
    out, spare = np.empty(v.size), scratch
    while True:
        c = min(nbits, 4)  # 16 x 16 blocks: one memory pass per four bits
        np.matmul(v.reshape(2**c, -1).T, _hadamard(c), out=out.reshape(-1, 2**c))
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


_BLOCK_ENTRIES = 2**16  # complex entries of one gather + transform block of `_cross_bell_dots`


def _bell_transform(rows: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Unscaled Bell amplitudes of each row of (R, 2^N) `rows` against `b`.

    A CNOT from copy B onto copy A, then Hadamards on copy B: gathers
    g[j, x, r] = rows[r, j XOR x] b[j] through a j XOR x index built per call
    and Walsh-Hadamard transforms the float view of g over j.  Returns the
    transform as a flat float array whose axes run (x, r, re/im, z); the
    amplitude of outcome (z, x) is 2^-N/2 (-i)^{#Y} times it.
    """
    j = np.arange(2**n, dtype=np.uint16)  # n <= DENSE_CAP fits uint16
    g = np.take(np.ascontiguousarray(rows.T), j[:, None] ^ j, axis=0)
    g *= b[:, None, None]
    gf = g.view(float).reshape(-1)
    return _wht(gf, n, scratch=gf)


def bell_amplitudes(a: StateVector, b: StateVector) -> np.ndarray:
    """Bell-basis amplitudes <Bell_r | a (x) b> as a 4^N complex vector.

    The single-row case of `_bell_transform`: transposes its (x, re/im, z)
    axes into the interleaved (z_q x_q) outcome digits in one copy, and
    multiplies by 2^-N/2 (-i)^{#Y(r)}, one -i per qubit whose digit is Y.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit-count mismatch")
    n = a.n_qubits
    if n > DENSE_CAP:
        raise ValueError(f"dense Bell distributions are capped at {DENSE_CAP} qubits")
    f = _bell_transform(a.amplitudes[None], b.amplitudes, n)
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


def cross_bell_distribution(a: StateVector, b: StateVector) -> BellDistribution:
    """Outcome distribution of a Bell measurement across |a> and |b>."""
    amps = bell_amplitudes(a, b)
    probs = np.square(amps.real)
    probs += np.square(amps.imag)
    assert probs.max() <= 2.0**-a.n_qubits + 1e-12
    return BellDistribution(a.n_qubits, probs)


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
        f = _bell_transform(rows[start : start + step], scaled, n)
        f = np.square(f, out=f).reshape(2**n, -1, 2, 2**n)
        p = f[:, :, 0] + f[:, :, 1]  # p[x, i, z]: outcome (z, x) of row start + i
        assert p.max() <= 2.0**-n + 1e-12
        dots[start : start + p.shape[1]] = np.einsum("xrz,xz->r", p, h_xz)
    return dots


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
    dim = 4**dist.n_qubits
    return BellDistribution(
        dist.n_qubits, (1 - p) ** 2 * dist.probabilities + p * (2 - p) / dim
    )


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
