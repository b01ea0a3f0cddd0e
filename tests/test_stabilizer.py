"""Tableau simulation and coset Bell sampling against the dense simulator."""
import numpy as np
import pytest
from scipy import stats

from bellmagic import estimation, magic, simulator as sim, stabilizer as st, states
from bellmagic.pauli import (
    BellSamples,
    PauliString,
    pack_ints,
    symplectic_rows,
    unpack_int,
    unpack_zx,
    words_per_string,
)

from oracles import (
    BooleanTableau,
    apply_circuit,
    apply_pauli,
    apply_tableau_circuit,
    apply_tableau_gate,
    conjugation_offset_gf2,
    pack_zx,
    pauli_expectation,
    random_clifford_gatewise,
    tableau_cnot,
    tableau_h,
    tableau_is_valid,
    tableau_s,
)


def _zero_tableau(n):
    """|0...0>: the layered tableau of no layers."""
    return st._layered_tableau(np.zeros((0, n, 3), dtype=np.int64))


def _zx_to_pauli(z, x):
    """Per-qubit loop from one z/x row to a PauliString (reference copy)."""
    n = len(z)
    bits = 0
    for i in range(n):
        bits = (bits << 2) | (int(z[i]) << 1) | int(x[i])
    return PauliString(n, bits)


def _oracle_bell_sample(tableau, n_samples, rng):
    """The uint8-matmul coset sampler, kept as the bit-exact reference.

    It draws the sampler's pick bytes and keeps the first N bits of each row,
    so the bits past N in a short last byte play no part here.
    """
    n = tableau.n_qubits
    z, x = unpack_zx(tableau.words, n)
    g = st.conjugation_offset(tableau)
    gz = np.array([(g.digit(q) >> 1) for q in range(1, n + 1)], dtype=np.uint8)
    gx = np.array([(g.digit(q) & 1) for q in range(1, n + 1)], dtype=np.uint8)
    pick_bytes = rng.integers(0, 256, (n_samples, -(-n // 8)), dtype=np.uint8)
    picks = np.unpackbits(pick_bytes, axis=1, count=n, bitorder="little")
    tz = (picks @ z.astype(np.uint8)) % 2
    tx = (picks @ x.astype(np.uint8)) % 2
    return BellSamples(n, pack_zx(tz ^ gz, tx ^ gx))


def test_h_on_zero():
    tab = BooleanTableau(1)
    tableau_h(tab, 1)
    assert tab.to_text() == "+X"


def test_s_twice_is_z_action():
    # S^2|+> = Z|+> = |->, stabilized by -X
    tab = BooleanTableau(1)
    tableau_h(tab, 1)
    tableau_s(tab, 1)
    tableau_s(tab, 1)
    assert tab.to_text() == "-X"


def test_long_random_circuit_preserves_invariants():
    rng = np.random.default_rng(0)
    tab = BooleanTableau(5)
    names = ["h", "s", "cnot"]
    for _ in range(500):
        g = names[rng.integers(0, 3)]
        if g == "cnot":
            c, t = rng.choice(5, size=2, replace=False) + 1
            tableau_cnot(tab, int(c), int(t))
        else:
            {"h": tableau_h, "s": tableau_s}[g](tab, int(rng.integers(1, 6)))
    assert tableau_is_valid(tab)


def test_gate_errors():
    ref = BooleanTableau(2)
    with pytest.raises(IndexError):
        tableau_h(ref, 3)
    tab = _zero_tableau(2)
    for i in (-1, 2):
        with pytest.raises(IndexError, match=f"generator index {i}"):
            tab.generator(i)
    with pytest.raises(IndexError):
        tableau_cnot(ref, 1, 1)
    with pytest.raises(ValueError):
        apply_tableau_gate(ref, sim.Gate("ry", (1,)))


def test_signs_match_dense_simulator():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        tab, circ = st.random_clifford(n, 3, rng)
        state = sim.simulate(circ)
        for i in range(n):
            sign, p = tab.generator(i)
            assert pauli_expectation(state, p) == pytest.approx(sign, abs=1e-9)


def _assert_same_clifford(n, depth, seed):
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref_tab, ref_circ = random_clifford_gatewise(n, depth, ref_rng)
    tab, circ = st.random_clifford(n, depth, rng)
    assert np.array_equal(tab.words, pack_zx(ref_tab.z, ref_tab.x))
    assert np.array_equal(tab.signs, ref_tab.signs)
    assert circ.gates == ref_circ.gates
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)
    replay = BooleanTableau(n)
    apply_tableau_circuit(replay, circ)
    assert np.array_equal(tab.words, pack_zx(replay.z, replay.x))
    assert np.array_equal(replay.signs, tab.signs)


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 130])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_random_clifford_matches_gatewise_oracle(n, depth):
    # 32-qubit generator words, 64-bit words of the packed planes and 64-row
    # blocks of their transpose at every edge; n = 1 has no CNOT chain
    for seed in range(3):
        _assert_same_clifford(n, depth, 1000 * n + seed)


def test_random_clifford_matches_gatewise_oracle_large():
    _assert_same_clifford(1500, 3, 1)


@pytest.mark.parametrize("n", [31, 33, 65, 1500])
def test_bits_above_2n_are_zero(n):
    rng = np.random.default_rng(n)
    tab, _ = st.random_clifford(n, 3, rng)
    samples = st.bell_sample_stabilizer(tab, 600, rng)
    for words in (tab.words, samples.words):
        assert not (words[:, -1] >> np.uint64(2 * n % 64)).any()


def test_gate_slots_are_shared_and_gate_lists_fresh():
    for n in (1, 2, 65):
        first = st.random_clifford(n, 3, np.random.default_rng(n))[1].gates
        first.append(sim.Gate("h", (1,)))
        second = st.random_clifford(n, 3, np.random.default_rng(n))[1].gates
        _, ref = random_clifford_gatewise(n, 3, np.random.default_rng(n))
        assert [(g.name, g.qubits) for g in second] == [(g.name, g.qubits) for g in ref.gates]
        assert first[:-1] == second
        slots = st._gate_slots(n)
        assert slots is st._gate_slots(n) and len(slots) == 4 * n - 1
        with pytest.raises(ValueError, match="read-only"):
            slots[0] = sim.Gate("h", (1,))


@pytest.mark.parametrize("n, depth", [(3, 0), (3, -1), (0, 2), (-2, 2)])
def test_random_clifford_rejects_sizes_before_drawing(n, depth):
    rng = np.random.default_rng(12)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        st.random_clifford(n, depth, rng)
    assert rng.bit_generator.state == state


def test_random_clifford_has_zero_magic():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        _, circ = st.random_clifford(n, 4, rng)
        b = magic.bell_magic_of_state(sim.simulate(circ)).bell_magic
        assert b == pytest.approx(0.0, abs=1e-12)


def test_random_clifford_seed_variety():
    tabs = set()
    for seed in range(12):
        tab, _ = st.random_clifford(3, 4, np.random.default_rng(seed))
        tabs.add(tab.to_text())
    assert len(tabs) > 6


def test_single_qubit_orbit_is_stabilizer():
    # any depth keeps |0> inside the 6-state stabilizer orbit
    single_qubit_stabilizers = [
        np.array([1, 0]), np.array([0, 1]),
        np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2),
        np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2),
    ]
    rng = np.random.default_rng(3)
    for _ in range(10):
        _, circ = st.random_clifford(1, int(rng.integers(1, 5)), rng)
        amps = sim.simulate(circ).amplitudes
        overlaps = [abs(np.vdot(s, amps)) for s in single_qubit_stabilizers]
        assert max(overlaps) == pytest.approx(1.0, abs=1e-9)


# 32 qubits fill one generator word and 33 open a second; 64 qubits fill a
# plane word, so the offset column opens a new one, and 128 rows fill two
# transpose blocks
_ZERO_STATE_SIZES = (1, 3, 31, 32, 33, 63, 64, 65, 130)


def test_conjugation_offset_zero_state():
    for n in _ZERO_STATE_SIZES:
        tab = _zero_tableau(n)
        assert tab.n_qubits == n
        assert tab.offset == st.conjugation_offset(tab) == PauliString(n, 0)
        ref = BooleanTableau(n)
        assert np.array_equal(tab.words, pack_zx(ref.z, ref.x))
        assert not tab.signs.any() and tab.signs.shape == (n,)
        assert tab.to_text() == "\n".join("+" + "I" * q + "Z" + "I" * (n - 1 - q) for q in range(n))


def test_tableau_arrays_are_read_only():
    for n in _ZERO_STATE_SIZES:
        for tab in (_zero_tableau(n), st.random_clifford(n, 2, np.random.default_rng(n))[0]):
            with pytest.raises(ValueError, match="read-only"):
                tab.words[0, 0] ^= np.uint64(1)
            with pytest.raises(ValueError, match="read-only"):
                tab.signs[0] = True


def test_tableau_rejects_mis_shaped_words():
    tab = _zero_tableau(33)
    bad = (tab.words[:-1], tab.words[:, :1], tab.words[0], np.zeros((33, 3), np.uint64))
    for words in bad:
        with pytest.raises(ValueError, match="wrong shape"):
            st.StabilizerTableau(words, tab.signs, tab.offset)
    copy = st.StabilizerTableau(tab.words.copy(), tab.signs.copy(), tab.offset)
    assert copy.n_qubits == 33 and copy.to_text() == tab.to_text()


def test_conjugation_offset_plus_i():
    # S|+> = |-i> has stabilizer -Y; valid offsets map it to |+i>
    tab = st._layered_tableau(np.array([[[0, 1, 1]]]))
    assert tab.to_text() == "-Y"
    state = sim.simulate(sim.CircuitSpec(1, [sim.Gate("h", (1,)), sim.Gate("s", (1,))]))
    g = st.conjugation_offset(tab)
    assert g.to_letters() == "Z"  # H keeps the identity, the odd S power multiplies in Z
    mapped = apply_pauli(state, g).amplitudes
    target = np.conj(state.amplitudes)
    assert abs(np.vdot(mapped, target)) == pytest.approx(1.0, abs=1e-9)


def test_conjugation_offset_dense_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        tab, circ = st.random_clifford(n, 4, rng)
        state = sim.simulate(circ)
        g = st.conjugation_offset(tab)
        mapped = apply_pauli(state, g).amplitudes
        assert abs(np.vdot(mapped, np.conj(state.amplitudes))) == pytest.approx(1.0, abs=1e-9)


def _assert_offsets_differ_by_stabilizer(n, depth, seed):
    tab, _ = st.random_clifford(n, depth, np.random.default_rng(seed))
    words = tab.words
    g = st.conjugation_offset(tab).bits
    # g anticommutes with exactly the generators of odd Y-parity
    z, x = unpack_zx(words, n)
    y_odd = (z & x).sum(axis=1) % 2 == 1
    assert np.array_equal(symplectic_rows(words, np.repeat(pack_ints(n, [g]), n, axis=0)), y_odd)
    t = np.repeat(pack_ints(n, [g ^ conjugation_offset_gf2(tab).bits]), n, axis=0)
    assert not symplectic_rows(words, t).any()


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 130])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_tracked_offset_differs_from_gf2_by_stabilizer(n, depth):
    # the offset column is bit N of the packed planes, so at n = 64 and 128 it
    # opens a new word, and row N of their transpose
    for seed in range(3):
        _assert_offsets_differ_by_stabilizer(n, depth, 2000 * n + seed)


def test_tracked_offset_differs_from_gf2_by_stabilizer_large():
    _assert_offsets_differ_by_stabilizer(1500, 3, 2)


def test_tracked_offset_maps_circuit_to_its_conjugate():
    # sigma_g C = conj(C) up to phase, on any input: checked on product states
    rng = np.random.default_rng(11)
    for n in range(1, 5):
        for _ in range(25):
            tab, circ = st.random_clifford(n, int(rng.integers(1, 5)), rng)
            thetas, phis = rng.uniform(0, 2 * np.pi, size=(2, n))
            out = apply_circuit(circ, states.product_state(thetas, phis))
            out = apply_pauli(out, st.conjugation_offset(tab)).amplitudes
            # conj(C)|phi> = conj(C conj(phi)), and conj(phi) negates the phases
            conj_out = np.conj(apply_circuit(circ, states.product_state(thetas, -phis)).amplitudes)
            assert abs(np.vdot(out, conj_out)) == pytest.approx(1.0, abs=1e-9)


def test_sampler_outcomes_commute_pairwise():
    rng = np.random.default_rng(5)
    tab, _ = st.random_clifford(6, 4, rng)
    s = st.bell_sample_stabilizer(tab, 100, rng)
    w = s.words
    xors = (w[:, None, :] ^ w[None, :, :]).reshape(-1, w.shape[1])
    half = len(xors) // 2
    assert not symplectic_rows(xors[:half], xors[half : 2 * half]).any()


def test_sampler_matches_dense_distribution():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3):
        tab, circ = st.random_clifford(n, 4, rng)
        dist = sim.bell_distribution(sim.simulate(circ))
        n_samples = 100_000
        counts = np.bincount(
            st.bell_sample_stabilizer(tab, n_samples, rng).indices(), minlength=4**n
        )
        mask = dist.probabilities > 1e-12
        assert counts[~mask].sum() == 0
        expected = dist.probabilities[mask] * n_samples
        chi2 = float(((counts[mask] - expected) ** 2 / expected).sum())
        crit = stats.chi2.isf(stats.norm.sf(5.0), df=int(mask.sum()) - 1)
        assert chi2 < crit


def test_sampler_purity_exact():
    rng = np.random.default_rng(7)
    tab, _ = st.random_clifford(4, 4, rng)
    s = st.bell_sample_stabilizer(tab, 2000, rng)
    assert estimation.estimate_purity(s) == 1.0


def test_estimated_magic_is_exactly_zero():
    rng = np.random.default_rng(8)
    for n in (2, 5):
        tab, _ = st.random_clifford(n, 4, rng)
        for nq, nr in ((10, 50), (200, 2000)):
            s = st.bell_sample_stabilizer(tab, nq, rng)
            b, ba = estimation.estimate_bell_magic(s, nr, rng)
            assert b == 0.0 and ba == 0.0


def test_distinct_outcome_count():
    rng = np.random.default_rng(9)
    for n in range(1, 7):
        tab, _ = st.random_clifford(n, 4, rng)
        s = st.bell_sample_stabilizer(tab, 4000 * n, rng)
        distinct = len(np.unique(s.words, axis=0))
        assert distinct == 2**n


def test_large_n_sampling_smoke():
    rng = np.random.default_rng(10)
    tab, _ = st.random_clifford(300, 2, rng)
    s = st.bell_sample_stabilizer(tab, 50, rng)
    assert s.words.shape == (50, (2 * 300 + 63) // 64)
    xors = s.words[:25] ^ s.words[25:]
    assert not symplectic_rows(xors, np.roll(xors, 1, axis=0)).any()
    assert estimation.estimate_purity(s) == 1.0


@pytest.mark.parametrize("n, m", [(1, 1), (1, 513), (2, 513), (3, 1025), (7, 2000),
                                  (33, 511), (1500, 2000), (1501, 2001)])
def test_pick_bytes_match_bounded_draws(n, m):
    # raw pick bytes and their bounded 0/1 form (the first N bits, padding
    # bits cleared) XOR in the same rows: short and whole chunks of outcomes,
    # short and whole chunks of table groups, and N off a multiple of 8
    rng = np.random.default_rng(n + m)
    n_words = -(-2 * n // 64)
    rows = rng.integers(0, 2**64, (n, n_words), dtype=np.uint64)
    offset = rng.integers(0, 2**64, (1, n_words), dtype=np.uint64)
    raw = rng.integers(0, 256, (m, -(-n // 8)), dtype=np.uint8)
    bounded = np.unpackbits(raw, axis=1, count=n, bitorder="little")
    ref = np.repeat(offset, m, axis=0)
    for j in range(n):
        ref ^= np.where(bounded[:, j : j + 1] == 1, rows[j], np.uint64(0))
    cleared = np.packbits(bounded, axis=1, bitorder="little")
    assert np.array_equal(st._xor_picked_rows(rows, raw, offset), ref)
    assert np.array_equal(st._xor_picked_rows(rows, cleared, offset), ref)


_GROUP_CHUNK_QUBITS = 8 * st._TABLE_GROUPS


@pytest.mark.parametrize("n", [1, 7, 8, 9, 31, 32, 33, 64, 65, 300, _GROUP_CHUNK_QUBITS - 1,
                               _GROUP_CHUNK_QUBITS, _GROUP_CHUNK_QUBITS + 1])
def test_sampler_bit_identical_to_matmul_oracle(n):
    # 8-generator table groups, chunks of table groups, chunks of outcomes and
    # 64-bit word boundaries at every edge; where N is not a multiple of 8 the
    # oracle ignores the last pick byte's bits past N, so they must be inert
    tab, _ = st.random_clifford(n, 3, np.random.default_rng(100 + n))
    chunk = st._ROW_CHUNK
    for m in (1, 2, 3, 257, chunk - 1, chunk, chunk + 1):
        rng, ref_rng = np.random.default_rng(m), np.random.default_rng(m)
        fast = st.bell_sample_stabilizer(tab, m, rng)
        ref = _oracle_bell_sample(tab, m, ref_rng)
        assert fast.words.shape == (m, words_per_string(n))
        assert np.array_equal(fast.words, ref.words)
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


@pytest.mark.parametrize("n", [1, 7, 32, 33, 65])
def test_generator_words_match_generators(n):
    tab, _ = st.random_clifford(n, 3, np.random.default_rng(n))
    ref, _ = random_clifford_gatewise(n, 3, np.random.default_rng(n))
    words = tab.words
    assert words.shape == (n, words_per_string(n))
    assert np.array_equal(words, pack_zx(ref.z, ref.x))
    for i in range(n):
        oracle = _zx_to_pauli(ref.z[i], ref.x[i]).bits
        assert unpack_int(words[i]) == tab.generator(i)[1].bits == oracle
    assert tab.to_text() == ref.to_text()


def test_to_text():
    # H_1, then the chain's CNOT(1, 2) twice, leaves +XI and +IZ
    tab = st._layered_tableau(np.array([[[0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]]]))
    assert tab.to_text() == "+XI\n+IZ"
