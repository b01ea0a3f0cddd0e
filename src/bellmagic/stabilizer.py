"""Stabilizer states as generator tableaux, with scalable Bell-outcome sampling.

A tableau holds N generator Pauli strings as (N, W) uint64 rows in the
`BellSamples` layout, W = ceil(2N/64), plus sign bits and a conjugation
offset g, sigma_g|psi> = +-|psi*>.  Bell sampling exploits the coset
structure of the two-copy outcome distribution of a stabilizer state:
outcomes are exactly t XOR g where t ranges over the group's bit-span, each
with probability 2^-N.  Sampling therefore never builds the 4^N
distribution and scales to thousands of qubits.

The sampler XORs the stored generator rows by the method of Four Russians:
for every group of eight generators a 256-entry table holds all XOR
combinations of their rows, and one byte of random picks indexes it.  M
samples cost M * ceil(N/8) * W word XORs plus 32 * N * W to build the
tables, with no (M, N) bit matrix product.  The work goes in cache-sized
pieces: the tables of 16 groups are built together, and 512 outcomes at a
time take every group of that chunk before the next 512 do.  At N = 1500
the chunk's tables (1.5 MB) and the 512 output rows (190 KB) both fit in a
2 MB L2 cache, where one pass of every group over all M rows would not.
The picks are raw random bytes, one per group and outcome, each bit a fair
coin.  When N is not a multiple of 8, the last byte's bits past N select
the zero rows that pad the last group, so they change no outcome.

`random_clifford` applies a whole layer of gates at once, in the style of
Aaronson and Gottesman (quant-ph/0406196): the tableau is transposed and
bit-packed so that each qubit's z and x bits of all N generators, and of
the offset g as one more column, are ceil((N+1)/64) uint64 words, the
layer's S and H gates become masked word operations on every qubit row
together, and its CNOT chain an XOR prefix scan down the qubits.  That is
O(depth * N * ceil(N/64)) word operations; g needs no linear solve.  The
packed planes become generator rows by 64 x 64 bit-block transposes
(`pauli._pack_qubit_planes`), another O(N * ceil(N/64)) word operations,
and only the sign row is unpacked.  This is the one way a tableau is
built: with no layers it gives |0...0>.  The circuit's gates come from one
layer of gate slots per N, built once and shared by every call.

The gate conventions match `simulator` (S = diag(1, -i), so X -> -Y).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .pauli import (
    BellSamples,
    PauliString,
    _pack_qubit_planes,
    pack_ints,
    unpack_int,
    words_per_string,
)
from .simulator import CircuitSpec, Gate

_TABLE_GROUPS = 16  # eight-generator groups whose tables are built and read together
_ROW_CHUNK = 512  # outcomes XORed through one chunk of tables at a time


def _xor_picked_rows(rows: np.ndarray, pick_bytes: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """offset XOR the rows each packed pick vector selects, as (M, W) words.

    Method of Four Russians: rows are taken eight at a time, a 256-entry table
    holds every XOR combination of the group, and one byte of `pick_bytes`
    (M, ceil(N/8)) indexes it, for M * ceil(N/8) * W word XORs in all.  The
    tables of `_TABLE_GROUPS` groups are built together, by 8 doubling XORs
    for the whole chunk, and then read into `_ROW_CHUNK` outcomes at a time,
    so an output chunk stays in cache while every group of the chunk is
    XORed in.
    """
    m, n_groups = pick_bytes.shape
    n_words = rows.shape[1]
    out = np.repeat(offset, m, axis=0)
    # zero rows pad the groups to whole chunks: a short last group's pick
    # bits past N select only these rows, so they XOR in nothing
    groups = np.zeros((-(-n_groups // _TABLE_GROUPS) * _TABLE_GROUPS, 8, n_words), np.uint64)
    groups.reshape(-1, n_words)[: len(rows)] = rows
    tables = np.empty((_TABLE_GROUPS, 256, n_words), dtype=np.uint64)
    tables[:, 0] = 0
    picked = np.empty((_ROW_CHUNK, n_words), dtype=np.uint64)
    for g in range(0, n_groups, _TABLE_GROUPS):
        for k in range(8):
            np.bitwise_xor(tables[:, : 1 << k], groups[g : g + _TABLE_GROUPS, k, None],
                           out=tables[:, 1 << k : 2 << k])
        index = pick_bytes[:, g : g + _TABLE_GROUPS].T.astype(np.intp)
        for r in range(0, m, _ROW_CHUNK):
            chunk, buf = out[r : r + _ROW_CHUNK], picked[: min(_ROW_CHUNK, m - r)]
            # a short last chunk of groups has fewer index rows than tables
            for table, idx in zip(tables, index[:, r : r + _ROW_CHUNK]):
                # a byte never leaves the table; "clip" skips "raise"'s copy of `out`
                np.take(table, idx, axis=0, out=buf, mode="clip")
                chunk ^= buf
    return out


@dataclass(frozen=True, eq=False)
class StabilizerTableau:
    """Generator tableau of an N-qubit stabilizer state.

    `words` holds the N generators as (N, W) packed rows in the `BellSamples`
    layout and `signs` their N sign bits; both are read-only.  `offset` is a
    conjugation offset g of the state, sigma_g|psi> = +-|psi*>.
    `random_clifford` builds tableaux; `_layered_tableau` of no layers is
    |0...0>, with generators Z_q and the identity as offset.
    """

    words: np.ndarray
    signs: np.ndarray
    offset: PauliString

    def __post_init__(self):
        n = len(self.signs)
        if self.words.shape != (n, words_per_string(n)):
            raise ValueError("words array has wrong shape for the qubit count")
        self.words.setflags(write=False)
        self.signs.setflags(write=False)

    @property
    def n_qubits(self) -> int:
        return len(self.signs)

    def generator(self, i: int) -> tuple[int, PauliString]:
        """Generator i as (sign in {+1,-1}, PauliString)."""
        if not 0 <= i < self.n_qubits:
            raise IndexError(f"generator index {i} out of range")
        return (-1 if self.signs[i] else 1), PauliString(self.n_qubits, unpack_int(self.words[i]))

    def to_text(self) -> str:
        """One generator per line, sign then letters."""
        gens = map(self.generator, range(self.n_qubits))
        return "\n".join(("+" if sign > 0 else "-") + p.to_letters() for sign, p in gens)


def _masks(flags: np.ndarray) -> np.ndarray:
    """Per-qubit 0/1 flags as (N, 1) all-zero / all-one uint64 row masks."""
    return np.where(flags, ~np.uint64(0), np.uint64(0))[:, None]


def _s_power(z: np.ndarray, x: np.ndarray, p: np.ndarray, offset_bit: np.ndarray) -> np.ndarray:
    """Apply S^p, p in 0..3 per qubit, to packed rows in place; return the sign flips.

    S^p = S^(p & 1) S^(2 (p >> 1)), and S^2 = Z flips the sign of every X or Y.
    The conjugate of S^p is S^p Z^p, so every odd p also XORs Z_q into the
    offset column that `offset_bit` selects.
    """
    odd, two = _masks(p & 1), _masks(p >> 1)
    flips = np.bitwise_xor.reduce(x & (two ^ (odd & ~z)), axis=0)
    z ^= (x ^ offset_bit) & odd
    return flips


def _layered_tableau(draws: np.ndarray) -> StabilizerTableau:
    """The tableau of |0...0> after layers of S^a H^h S^b words and CNOT chains.

    draws is (depth, N, 3) of per-qubit (a, h, b); depth 0 gives |0...0>.
    The tableau is worked on transposed and bit-packed: row q of z and x
    holds qubit q's bits of all N generators, bit j for generator j, and the
    signs are one such row.  Every gate of a layer then acts on whole rows at
    once, and each sign update is an XOR reduction over qubits.

    Bit N carries the conjugation offset g.  After a gate G the offset of the
    new state is conj(G) sigma_g G^dagger: plain conjugation for the real H
    and CNOT, and Z_q times it for S on qubit q.  So g rides through the
    layers like a generator, with no linear solve, and its sign is dropped.
    """
    n = draws.shape[1]
    q = np.arange(n)
    z = np.zeros((n, -(-(n + 1) // 64)), dtype=np.uint64)
    z[q, q >> 6] = np.uint64(1) << (q & 63).astype(np.uint64)  # generator q is Z_q
    x, signs = np.zeros_like(z), np.zeros_like(z[0])
    offset_bit = np.zeros_like(signs)  # g starts as the identity: |0...0> is real
    offset_bit[n >> 6] = np.uint64(1) << np.uint64(n & 63)
    for a, h, b in draws.transpose(0, 2, 1):
        signs ^= _s_power(z, x, a, offset_bit)
        hm = _masks(h)  # H flips Y, then swaps z and x
        signs ^= np.bitwise_xor.reduce(z & x & hm, axis=0)
        swap = (z ^ x) & hm
        z ^= swap
        x ^= swap
        signs ^= _s_power(z, x, b, offset_bit)
        # CNOT(q, q+1) for q = 1..N-1 in order: control q has by then taken
        # the XOR of the x rows of qubits 1..q, while every z row read is original
        x_acc = np.bitwise_xor.accumulate(x, axis=0)
        signs ^= np.bitwise_xor.reduce(x_acc[:-1] & z[1:] & ~(x[1:] ^ z[:-1]), axis=0)
        z[:-1] ^= z[1:]
        x = x_acc
    words = _pack_qubit_planes(z, x)  # row j is generator j, row N the offset g
    sign_bytes = signs.astype("<u8", copy=False).view(np.uint8)
    sign_bits = np.unpackbits(sign_bytes, count=n, bitorder="little").view(bool)
    return StabilizerTableau(words[:n], sign_bits, PauliString(n, unpack_int(words[n])))


@cache
def _gate_slots(n_qubits: int) -> np.ndarray:
    """One layer's gate slots, read-only: each qubit's word (S_q, H_q, S_q), then the CNOT chain."""
    qubits = range(1, n_qubits + 1)
    slots = np.empty(4 * n_qubits - 1, dtype=object)
    words = slots[: 3 * n_qubits].reshape(n_qubits, 3)
    words[:, 0] = words[:, 2] = [Gate("s", (q,)) for q in qubits]
    words[:, 1] = [Gate("h", (q,)) for q in qubits]
    slots[3 * n_qubits :] = [Gate("cnot", (q, q + 1)) for q in qubits[:-1]]
    slots.setflags(write=False)
    return slots


def random_clifford(
    n_qubits: int, depth: int, rng: np.random.Generator
) -> tuple[StabilizerTableau, CircuitSpec]:
    """Random layered Clifford circuit: per-qubit S^a H^h S^b words plus CNOT chains.

    Each layer gives qubit q the word S^a, H if h, S^b with a, b uniform in
    0..3 and h a fair bit, drawn in that order qubit by qubit, and then
    CNOT(q, q+1) for q = 1..N-1.  Not uniform over the Clifford group; Bell
    magic is Clifford-invariant so the sampled magic values do not depend on
    the circuit distribution.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be positive")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    # range 4 (and 2) draws are the top bits of one 32-bit word each, so one
    # call consumes the stream exactly as the scalar a, h, b draws would
    draws = rng.integers(0, 4, size=(depth, n_qubits, 3))
    draws[..., 1] >>= 1
    tab = _layered_tableau(draws)
    # each layer takes every qubit's word slots a, h and b times, then the
    # chain's CNOTs once each
    slots = _gate_slots(n_qubits)
    counts = np.ones((depth, len(slots)), dtype=np.intp)
    counts[:, : 3 * n_qubits] = draws.reshape(depth, -1)
    gates = np.repeat(np.tile(slots, depth), counts.ravel()).tolist()
    return tab, CircuitSpec(n_qubits, gates)


def conjugation_offset(tableau: StabilizerTableau) -> PauliString:
    """A Pauli g with sigma_g|psi> = +-|psi*>, as tracked while the tableau was built.

    Complex conjugation flips the sign of every generator with an odd number
    of Y letters, and g anticommutes with exactly those generators.  Offsets
    differ by stabilizer elements and any one is valid.
    """
    return tableau.offset


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
    picks = rng.integers(0, 256, (n_samples, -(-n // 8)), dtype=np.uint8)
    return BellSamples(n, _xor_picked_rows(tableau.words, picks, offset))
