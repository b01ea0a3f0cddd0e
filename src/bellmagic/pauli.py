"""Phase-free Pauli-string algebra over GF(2).

An N-qubit Pauli string is encoded by 2N bits, one (z, x) pair per qubit:

    (0,0) = I,  (0,1) = X,  (1,0) = Z,  (1,1) = Y

The 2N bits are packed into a single integer whose base-4 digits are the
per-qubit values 2*z + x, qubit 1 in the most significant digit:

    bits = sum_n (2*z_n + x_n) * 4**(N - n)

The same integer doubles as the index into length-4^N arrays (Bell
distributions, XOR-convolution tables), so Bell-measurement outcomes and
Pauli labels share one encoding and the XOR of two outcomes is directly a
Pauli string.  Phases {+-1, +-i} of Pauli products are never tracked; Bell
magic only depends on the commutator norm, which is phase-free.

Within the packed integer the x bit of qubit n sits at bit 2(N - n) and
its z bit at the odd position above, so the x bits form the mask
(4^N - 1) / 3 and the symplectic form reduces to popcount(a & b') mod 2,
b' being b with the bits of every (z, x) pair exchanged, regardless of
qubit order.

Measurement-outcome batches are stored bit-packed in uint64 words
(`BellSamples`), little-endian limbs of the same integer, so XOR,
commutation checks and parity extractions stay O(N/64) numpy word
operations per sample even for thousands of qubits.  `BellSamples` is the
one outcome type: both samplers return it and every estimator reads its
`words` directly.  This module is the
only one that knows the bit layout: `unpack_zx` turns (M, W) words into
boolean (M, N) z/x matrices; `_pack_qubit_planes` turns bit-packed qubit
planes, the transpose of `unpack_zx`'s output, into words by 64 x 64
bit-block transposes, without a boolean matrix; and `pack_ints`/`unpack_int`
convert between words and packed integers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAULI_LETTERS = "IXZY"  # indexed by the per-qubit digit 2*z + x

_MAX_INDEX_QUBITS = 31  # 2N bits must fit a non-negative int64 outcome index

_WORD_X_MASK = np.uint64((4**32 - 1) // 3)  # the x bits of one uint64 word


@dataclass(frozen=True)
class PauliString:
    """Phase-free N-qubit Pauli operator as 2N packed bits."""

    n_qubits: int
    bits: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if not 0 <= self.bits < 4**self.n_qubits:
            raise ValueError("bit pattern does not fit the qubit count")

    def to_letters(self) -> str:
        """Render as letters over {I,X,Y,Z}, qubit 1 leftmost."""
        return "".join(PAULI_LETTERS[self.digit(n)] for n in range(1, self.n_qubits + 1))

    def digit(self, n: int) -> int:
        """Per-qubit value 2*z + x for qubit n (1-based)."""
        return (self.bits >> (2 * (self.n_qubits - n))) & 3

    def __xor__(self, other: "PauliString") -> "PauliString":
        return xor_add(self, other)

    def __str__(self) -> str:
        return self.to_letters()


def xor_add(a: PauliString, b: PauliString) -> PauliString:
    """Bitwise-XOR product of two Pauli strings (phase dropped)."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit-count mismatch: {a.n_qubits} vs {b.n_qubits}")
    return PauliString(a.n_qubits, a.bits ^ b.bits)


# ---------------------------------------------------------------------------
# Packed outcome batches


def words_per_string(n_qubits: int) -> int:
    return (2 * n_qubits + 63) // 64


def pack_ints(n_qubits: int, values) -> np.ndarray:
    """Pack an iterable of bit-pattern ints into an (M, W) uint64 array."""
    n_words = words_per_string(n_qubits)
    buf = b"".join(int(v).to_bytes(8 * n_words, "little") for v in values)
    return np.frombuffer(buf, dtype="<u8").reshape(-1, n_words).astype(np.uint64)


def unpack_int(words_row: np.ndarray) -> int:
    """The packed integer of one (W,) row of words."""
    return int.from_bytes(np.asarray(words_row, dtype="<u8").tobytes(), "little")


# (j, mask) for j = 32, 16, ..., 1: the mask keeps the low j bits of every 2j-bit group
_BLOCK_MASKS = [(j, np.uint64(sum(1 << b for b in range(64) if not b & j)))
                for j in (32, 16, 8, 4, 2, 1)]


def _pack_qubit_planes(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Packed rows of the strings whose bits (N, C) uint64 qubit planes hold.

    Row n-1 of z and x holds qubit n's bits of up to 64 C strings, string j
    at bit j % 64 of word j // 64: the transpose of `unpack_zx`'s output,
    bit-packed.  Returns (64 C, W) words, row j for string j; bits past 2N
    are zero, and so is every row whose string has no bit set.

    The planes' rows are interleaved in the layout's order, x_N, z_N, ...,
    x_1, z_1, and every 64 x 64 bit block, the 64 words rows[64 w : 64 w +
    64, c], is transposed in place, so no bit matrix is built.  Round j
    swaps the two j x j sub-blocks off the diagonal of every 2j x 2j block
    by one masked shift-XOR over all blocks at once (Hacker's Delight,
    "Transposing a bit matrix").
    """
    n, c = z.shape
    n_words = words_per_string(n)
    rows = np.zeros((64 * n_words, c), dtype=np.uint64)
    rows[0 : 2 * n : 2] = x[::-1]
    rows[1 : 2 * n : 2] = z[::-1]
    buf = np.empty(rows.size // 2, dtype=np.uint64)
    for j, mask in _BLOCK_MASKS:
        pairs = rows.reshape(n_words, 32 // j, 2, j, c)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        t = buf.reshape(lo.shape)
        np.right_shift(lo, j, out=t)
        t ^= hi
        t &= mask
        hi ^= t
        np.left_shift(t, j, out=t)
        lo ^= t
    return rows.reshape(n_words, 64, c).transpose(2, 1, 0).reshape(64 * c, n_words)


def unpack_zx(words: np.ndarray, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (M, N) z and x matrices of (M, W) packed words, column n-1 for qubit n."""
    bytes_ = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(bytes_, axis=1, bitorder="little").view(bool)
    return bits[:, 2 * n_qubits - 1 :: -2], bits[:, 2 * n_qubits - 2 :: -2]


def swap_pair_words(words: np.ndarray) -> np.ndarray:
    """Exchange the (z, x) bits within every pair of an (..., W) uint64 array."""
    x = words & _WORD_X_MASK
    z = words >> np.uint64(1) & _WORD_X_MASK
    return (x << np.uint64(1)) | z


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Total popcount along the last (word) axis."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def symplectic_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise symplectic product of packed strings; 0/1 per row."""
    return popcount_rows(a & swap_pair_words(b)) & 1


def and_parity_rows(words: np.ndarray) -> np.ndarray:
    """Parity of the per-pair AND string (the SWAP-test bit); 0/1 per row."""
    q = (words >> np.uint64(1)) & words & _WORD_X_MASK
    return popcount_rows(q) & 1


class BellSamples:
    """Batch of Bell-measurement outcomes, one packed row per sample.

    Behaves as a sequence of `PauliString`s (bit pair n holds the copy-A
    and copy-B bits of qubit n in the (z, x) slots, so outcomes XOR directly
    into Pauli strings); the estimators read the `words` array.
    """

    def __init__(self, n_qubits: int, words: np.ndarray):
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[1] != words_per_string(n_qubits):
            raise ValueError("words array has wrong shape for the qubit count")
        self.n_qubits = n_qubits
        self.words = words

    @classmethod
    def from_indices(cls, n_qubits: int, indices: np.ndarray) -> "BellSamples":
        """From integer outcome indices (valid for N <= 31)."""
        if n_qubits > _MAX_INDEX_QUBITS:
            raise ValueError("index form only supports up to 31 qubits")
        return cls(n_qubits, np.asarray(indices, dtype=np.uint64)[:, None])

    def __len__(self) -> int:
        return self.words.shape[0]

    def __getitem__(self, i: int) -> PauliString:
        return PauliString(self.n_qubits, unpack_int(self.words[i]))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def indices(self) -> np.ndarray:
        """Integer outcome indices (N <= 31 only)."""
        if self.n_qubits > _MAX_INDEX_QUBITS:
            raise ValueError("outcomes of more than 31 qubits have no int64 index form")
        return self.words[:, 0].astype(np.int64)
