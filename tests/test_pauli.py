"""Pauli-string algebra against dense-matrix oracles."""
import numpy as np
import pytest
from hypothesis import given, strategies as hs

from bellmagic import pauli
from bellmagic.pauli import BellSamples, PauliString, check_commute, symplectic_product, xor_add

I2 = np.eye(2)
MATS = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def dense(letters):
    m = np.eye(1)
    for c in letters:
        m = np.kron(m, MATS[c])
    return m


def commutator_norm(a, b):
    c = dense(a) @ dense(b) - dense(b) @ dense(a)
    return np.abs(c).max()


P = PauliString.from_letters


def test_xor_add_examples():
    assert (P("X") ^ P("Z")).to_letters() == "Y"
    assert (P("XZY") ^ P("XZY")).is_identity()
    assert (P("XX") ^ P("IX")).to_letters() == "XI"


def test_xor_add_properties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a, b, c = (PauliString(n, int(rng.integers(0, 4**n))) for _ in range(3))
        assert xor_add(a, b) == xor_add(b, a)
        assert xor_add(xor_add(a, b), c) == xor_add(a, xor_add(b, c))
        assert xor_add(a, PauliString.identity(n)) == a


def test_symplectic_examples():
    assert symplectic_product(P("X"), P("Z")) == 1
    assert symplectic_product(P("III"), P("XYZ")) == 0
    assert symplectic_product(P("XX"), P("ZZ")) == 0


def test_check_commute_examples():
    assert check_commute(P("X"), P("Z")) == 2
    assert check_commute(P("Y"), P("Y")) == 0
    assert check_commute(P("XY"), P("YX")) == 0
    assert commutator_norm("XY", "YX") == 0


def test_check_commute_matches_dense_single_qubit():
    for a in "IXZY":
        for b in "IXZY":
            assert check_commute(P(a), P(b)) == pytest.approx(commutator_norm(a, b))


def test_check_commute_matches_dense_two_qubit():
    rng = np.random.default_rng(2)
    letters = "IXZY"
    for _ in range(40):
        a = "".join(rng.choice(list(letters), 2))
        b = "".join(rng.choice(list(letters), 2))
        assert check_commute(P(a), P(b)) == pytest.approx(commutator_norm(a, b))


def test_check_commute_is_twice_symplectic():
    # exhaustive for N <= 2
    for n in (1, 2):
        for i in range(4**n):
            for j in range(4**n):
                a, b = PauliString(n, i), PauliString(n, j)
                assert check_commute(a, b) == 2 * symplectic_product(a, b)
    # randomized up to N = 64
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 65))
        bits = rng.integers(0, 4, size=(2, n))
        a = PauliString(n, int("".join(map(str, bits[0])), 4))
        b = PauliString(n, int("".join(map(str, bits[1])), 4))
        assert check_commute(a, b) == 2 * symplectic_product(a, b)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        xor_add(P("X"), P("XX"))
    with pytest.raises(ValueError):
        symplectic_product(P("X"), P("XX"))


def test_letters_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        s = PauliString(n, int(rng.integers(0, 4**n)))
        assert PauliString.from_letters(s.to_letters()) == s
    with pytest.raises(ValueError):
        PauliString.from_letters("XQ")


def test_weight_and_y_count():
    p = P("IXYZY")
    assert p.weight() == 4
    assert p.y_count() == 2


def test_compact_bits():
    p = P("XZY")  # x bits: 101, z bits: 011, qubit 1 first
    z, x = pauli.unpack_zx(pauli.pack_ints(3, [p.bits]), 3)
    assert x.tolist() == [[True, False, True]]
    assert z.tolist() == [[False, True, True]]


@given(hs.integers(1, 200).flatmap(lambda n: hs.tuples(hs.just(n), hs.lists(
    hs.lists(hs.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=5))))
def test_pack_zx_unpack_zx_roundtrip(case):
    # per-qubit digits 2*z + x, qubit 1 first, against the packed integer
    n, digits = case
    d = np.array(digits)
    z, x = d >> 1 == 1, d & 1 == 1
    words = pauli.pack_zx(z, x)
    assert words.dtype == np.uint64 and words.shape == (len(digits), pauli.words_per_string(n))
    assert [pauli.unpack_int(row) for row in words] == [
        int("".join(map(str, row)), 4) for row in digits]
    z2, x2 = pauli.unpack_zx(words, n)
    assert np.array_equal(z2, z) and np.array_equal(x2, x)


def test_samples_pack_roundtrip():
    rng = np.random.default_rng(5)
    for n in (1, 3, 31, 40, 70):
        vals = [int.from_bytes(rng.bytes(2 * n // 8 + 1), "big") % 4**n for _ in range(7)]
        s = BellSamples(n, pauli.pack_ints(n, vals))
        assert [o.bits for o in s] == vals
        assert all(o.n_qubits == n for o in s)
        assert s[0] == PauliString(n, vals[0])  # dataclass equality also checks the type


@given(hs.integers(33, 200).flatmap(
    lambda n: hs.tuples(hs.just(n), hs.lists(hs.integers(0, 4**n - 1), min_size=1, max_size=5))
))
def test_pack_ints_unpack_int_roundtrip_past_64_bits(case):
    n, vals = case
    words = pauli.pack_ints(n, vals)
    assert words.shape == (len(vals), pauli.words_per_string(n))
    assert [pauli.unpack_int(row) for row in words] == vals


# (n, [(a, b), ...]): pairs of n-qubit bit patterns, one to seven 64-bit words each
_STRING_PAIRS = hs.integers(1, 200).flatmap(lambda n: hs.tuples(hs.just(n), hs.lists(
    hs.tuples(hs.integers(0, 4**n - 1), hs.integers(0, 4**n - 1)), min_size=1, max_size=5)))


@given(_STRING_PAIRS)
def test_symplectic_rows_matches_symplectic_product(case):
    n, pairs = case
    a, b = zip(*pairs)
    sym = pauli.symplectic_rows(pauli.pack_ints(n, a), pauli.pack_ints(n, b))
    assert list(sym) == [symplectic_product(PauliString(n, x), PauliString(n, y))
                         for x, y in pairs]


@given(_STRING_PAIRS)
def test_packed_xor_matches_xor_add(case):
    n, pairs = case
    a, b = zip(*pairs)
    words = pauli.pack_ints(n, a) ^ pauli.pack_ints(n, b)
    assert [pauli.unpack_int(row) for row in words] == [
        xor_add(PauliString(n, x), PauliString(n, y)).bits for x, y in pairs]


def test_index_form_limited_to_31_qubits():
    top = 4**31 - 1
    s = BellSamples.from_indices(31, [top, 5])
    assert list(s.indices()) == [top, 5]
    with pytest.raises(ValueError):
        BellSamples.from_indices(32, [2**63 + 5])
    wide = BellSamples(32, pauli.pack_ints(32, [2**63 + 5]))
    with pytest.raises(ValueError):
        wide.indices()


def test_samples_word_helpers_match_int_ops():
    rng = np.random.default_rng(6)
    n = 40  # spans two words
    vals = [int.from_bytes(rng.bytes(11), "big") % 4**n for _ in range(16)]
    words = pauli.pack_ints(n, vals)
    for i, v in enumerate(vals):
        assert pauli.unpack_int(pauli.swap_pair_words(words[i : i + 1])[0]) == pauli.swap_pairs(v)
        assert pauli.popcount_rows(words[i : i + 1])[0] == int.bit_count(v)
    a, b = words[:8], words[8:]
    sym = pauli.symplectic_rows(a, b)
    for i in range(8):
        pa, pb = PauliString(n, vals[i]), PauliString(n, vals[8 + i])
        assert sym[i] == symplectic_product(pa, pb)


def test_and_parity_rows():
    # Y pairs contribute an AND bit; parity counts them mod 2
    n = 3
    vals = [P("YII").bits, P("YYI").bits, P("YYY").bits, P("XZI").bits]
    words = pauli.pack_ints(n, vals)
    assert list(pauli.and_parity_rows(words)) == [1, 0, 1, 0]
