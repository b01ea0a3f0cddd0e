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
(4^N - 1) / 3 and the symplectic form reduces to
popcount(a & swap_pairs(b)) mod 2 regardless of qubit order.

Measurement-outcome batches are stored bit-packed in uint64 words
(`BellSamples`), little-endian limbs of the same integer, so XOR,
commutation checks and parity extractions stay O(N/64) numpy word
operations per sample even for thousands of qubits.  `BellSamples` is the
one outcome type: both samplers return it and every estimator reads its
`words` directly.  This module is the
only one that knows the bit layout: `pack_zx` turns boolean (M, N) z/x
matrices into (M, W) words and `unpack_zx` turns words back into them;
`pack_ints`/`unpack_int` convert between words and packed integers; and
`zx_axis_order` gives the same (z, x) pair order as axes of a dense
(2,)^2N view.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAULI_LETTERS = "IXZY"  # indexed by the per-qubit digit 2*z + x

_MAX_INDEX_QUBITS = 31  # 2N bits must fit a non-negative int64 outcome index


def _x_mask(n_qubits: int) -> int:
    """All x-bit positions of an n-qubit string as an int mask."""
    return (4**n_qubits - 1) // 3


_WORD_X_MASK = np.uint64(_x_mask(32))  # the x bits of one uint64 word


def swap_pairs(bits: int) -> int:
    """Exchange the (z, x) bits within every pair of a packed string."""
    mask = _x_mask(bits.bit_length() // 2 + 1)
    x = bits & mask
    z = (bits >> 1) & mask
    return (x << 1) | z


def zx_axis_order(z_axes, x_axes) -> list[int]:
    """Axis order that interleaves per-qubit z and x axes as (z_1, x_1, ..., z_N, x_N).

    A dense 4^N array indexed by packed strings, viewed as (2,)^2N, has its
    axes in this order: the base-4 digit 2*z + x of qubit 1 leads.  So
    `view.transpose(zx_axis_order(z_axes, x_axes))` of a view whose qubit-q
    z and x bits sit on axes z_axes[q-1] and x_axes[q-1] is in index order.
    """
    return [ax for pair in zip(z_axes, x_axes) for ax in pair]


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

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0)

    @classmethod
    def from_letters(cls, letters: str) -> "PauliString":
        """Parse a string over {I,X,Y,Z}, qubit 1 leftmost."""
        bits = 0
        for c in letters.upper():
            try:
                bits = 4 * bits + PAULI_LETTERS.index(c)
            except ValueError:
                raise ValueError(f"invalid Pauli letter {c!r}") from None
        return cls(len(letters), bits)

    def to_letters(self) -> str:
        """Render as letters over {I,X,Y,Z}, qubit 1 leftmost."""
        return "".join(PAULI_LETTERS[self.digit(n)] for n in range(1, self.n_qubits + 1))

    def digit(self, n: int) -> int:
        """Per-qubit value 2*z + x for qubit n (1-based)."""
        return (self.bits >> (2 * (self.n_qubits - n))) & 3

    def weight(self) -> int:
        """Number of non-identity tensor factors."""
        return int.bit_count((self.bits | (self.bits >> 1)) & _x_mask(self.n_qubits))

    def y_count(self) -> int:
        """Number of Y tensor factors."""
        return int.bit_count(self.bits & (self.bits >> 1) & _x_mask(self.n_qubits))

    def is_identity(self) -> bool:
        return self.bits == 0

    def __xor__(self, other: "PauliString") -> "PauliString":
        return xor_add(self, other)

    def __str__(self) -> str:
        return self.to_letters()


def _check_same_size(a: PauliString, b: PauliString) -> None:
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit-count mismatch: {a.n_qubits} vs {b.n_qubits}")


def xor_add(a: PauliString, b: PauliString) -> PauliString:
    """Bitwise-XOR product of two Pauli strings (phase dropped)."""
    _check_same_size(a, b)
    return PauliString(a.n_qubits, a.bits ^ b.bits)


def symplectic_product(a: PauliString, b: PauliString) -> int:
    """GF(2) symplectic form; 1 iff the two strings anticommute."""
    _check_same_size(a, b)
    return int.bit_count(a.bits & swap_pairs(b.bits)) & 1


def check_commute(r: PauliString, q: PauliString) -> int:
    """Infinity norm of the commutator: 0 if they commute, else 2."""
    return 2 * symplectic_product(r, q)


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


def pack_zx(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pack 0/1 (M, N) z/x matrices, column n-1 for qubit n, into (M, W) uint64 words."""
    m, n = z.shape
    bits = np.zeros((m, 64 * words_per_string(n)), dtype=np.uint8)
    # LSB-first bit sequence: x_N, z_N, x_{N-1}, z_{N-1}, ..., x_1, z_1
    bits[:, 0 : 2 * n : 2] = x[:, ::-1]
    bits[:, 1 : 2 * n : 2] = z[:, ::-1]
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64, copy=False)


def unpack_zx(words: np.ndarray, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (M, N) z and x matrices of (M, W) packed words; inverse of `pack_zx`."""
    bytes_ = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(bytes_, axis=1, bitorder="little").view(bool)
    return bits[:, 2 * n_qubits - 1 :: -2], bits[:, 2 * n_qubits - 2 :: -2]


def swap_pair_words(words: np.ndarray) -> np.ndarray:
    """swap_pairs applied wordwise to an (..., W) uint64 array."""
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
