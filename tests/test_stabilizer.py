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
    words_per_string,
)

from oracles import (
    apply_pauli,
    apply_tableau_circuit,
    apply_tableau_gate,
    conjugation_offset_gf2,
    pauli_expectation,
    random_clifford_gatewise,
    tableau_cnot,
    tableau_h,
    tableau_is_valid,
    tableau_s,
)


def _oracle_pack_zx(z, x, n_qubits):
    """Bit-by-bit packer of boolean (M, N) z/x matrices (reference copy)."""
    m = z.shape[0]
    bits = np.zeros((m, 2 * n_qubits), dtype=np.uint64)
    bits[:, 0::2] = x[:, ::-1]
    bits[:, 1::2] = z[:, ::-1]
    n_words = words_per_string(n_qubits)
    out = np.zeros((m, n_words), dtype=np.uint64)
    for w in range(n_words):
        chunk = bits[:, 64 * w : 64 * (w + 1)]
        shifts = np.arange(chunk.shape[1], dtype=np.uint64)
        out[:, w] = (chunk << shifts).sum(axis=1, dtype=np.uint64)
    return out


def _zx_to_pauli(z, x):
    """Per-qubit loop from one z/x row to a PauliString (reference copy)."""
    n = len(z)
    bits = 0
    for i in range(n):
        bits = (bits << 2) | (int(z[i]) << 1) | int(x[i])
    return PauliString(n, bits)


def _oracle_bell_sample(tableau, n_samples, rng):
    """The uint8-matmul coset sampler, kept as the bit-exact reference."""
    n = tableau.n_qubits
    g = st.conjugation_offset(tableau)
    gz = np.array([(g.digit(q) >> 1) for q in range(1, n + 1)], dtype=np.uint8)
    gx = np.array([(g.digit(q) & 1) for q in range(1, n + 1)], dtype=np.uint8)
    picks = rng.integers(0, 2, size=(n_samples, n), dtype=np.uint8)
    tz = (picks @ tableau.z.astype(np.uint8)) % 2
    tx = (picks @ tableau.x.astype(np.uint8)) % 2
    return BellSamples(n, _oracle_pack_zx((tz ^ gz).astype(bool), (tx ^ gx).astype(bool), n))


def test_h_on_zero():
    tab = st.StabilizerTableau(1)
    tableau_h(tab, 1)
    sign, p = tab.generator(0)
    assert sign == 1 and p.to_letters() == "X"


def test_s_twice_is_z_action():
    # S^2|+> = Z|+> = |->, stabilized by -X
    tab = st.StabilizerTableau(1)
    tableau_h(tab, 1)
    tableau_s(tab, 1)
    tableau_s(tab, 1)
    sign, p = tab.generator(0)
    assert sign == -1 and p.to_letters() == "X"


def test_long_random_circuit_preserves_invariants():
    rng = np.random.default_rng(0)
    tab = st.StabilizerTableau(5)
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
    tab = st.StabilizerTableau(2)
    with pytest.raises(IndexError):
        tableau_h(tab, 3)
    for i in (-1, 2):
        with pytest.raises(IndexError, match=f"generator index {i}"):
            tab.generator(i)
    with pytest.raises(IndexError):
        tableau_cnot(tab, 1, 1)
    with pytest.raises(ValueError):
        apply_tableau_gate(tab, sim.Gate("ry", (1,)))


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
    assert np.array_equal(tab.z, ref_tab.z)
    assert np.array_equal(tab.x, ref_tab.x)
    assert np.array_equal(tab.signs, ref_tab.signs)
    assert circ.gates == ref_circ.gates
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)
    replay = st.StabilizerTableau(n)
    apply_tableau_circuit(replay, circ)
    assert np.array_equal(replay.z, tab.z) and np.array_equal(replay.x, tab.x)
    assert np.array_equal(replay.signs, tab.signs)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_random_clifford_matches_gatewise_oracle(n, depth):
    # 64-bit word boundaries of the packed generator planes; n = 1 has no CNOT chain
    for seed in range(3):
        _assert_same_clifford(n, depth, 1000 * n + seed)


def test_random_clifford_matches_gatewise_oracle_large():
    _assert_same_clifford(1500, 3, 1)


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


def test_conjugation_offset_zero_state():
    for n in (1, 3, 64):
        tab = st.StabilizerTableau(n)
        assert tab.offset == st.conjugation_offset(tab) == PauliString.identity(n)


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
    words = tab.generator_words()
    g = st.conjugation_offset(tab).bits
    # g anticommutes with exactly the generators of odd Y-parity
    y_odd = (tab.z & tab.x).sum(axis=1) % 2 == 1
    assert np.array_equal(symplectic_rows(words, np.repeat(pack_ints(n, [g]), n, axis=0)), y_odd)
    t = np.repeat(pack_ints(n, [g ^ conjugation_offset_gf2(tab).bits]), n, axis=0)
    assert not symplectic_rows(words, t).any()


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_tracked_offset_differs_from_gf2_by_stabilizer(n, depth):
    # the offset column is bit N of the packed planes, so at n = 64 it opens a second word
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
            out = sim.simulate(circ, states.product_state(thetas, phis))
            out = apply_pauli(out, st.conjugation_offset(tab)).amplitudes
            # conj(C)|phi> = conj(C conj(phi)), and conj(phi) negates the phases
            conj_out = np.conj(sim.simulate(circ, states.product_state(thetas, -phis)).amplitudes)
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


@pytest.mark.parametrize("n", [1, 7, 8, 9, 31, 32, 33, 64, 65, 300])
def test_sampler_bit_identical_to_matmul_oracle(n):
    # 8-generator table groups and 64-bit word boundaries at every edge
    tab, _ = st.random_clifford(n, 3, np.random.default_rng(100 + n))
    for m in (1, 3, 257):
        fast = st.bell_sample_stabilizer(tab, m, np.random.default_rng(m))
        ref = _oracle_bell_sample(tab, m, np.random.default_rng(m))
        assert fast.words.shape == (m, words_per_string(n))
        assert np.array_equal(fast.words, ref.words)


@pytest.mark.parametrize("n", [1, 7, 32, 33, 65])
def test_generator_words_match_generators(n):
    tab, _ = st.random_clifford(n, 3, np.random.default_rng(n))
    words = tab.generator_words()
    assert words.shape == (n, words_per_string(n))
    assert np.array_equal(words, _oracle_pack_zx(tab.z, tab.x, n))
    for i in range(n):
        oracle = _zx_to_pauli(tab.z[i], tab.x[i]).bits
        assert unpack_int(words[i]) == tab.generator(i)[1].bits == oracle


def test_to_text():
    tab = st.StabilizerTableau(2)
    tableau_h(tab, 1)
    assert tab.to_text() == "+XI\n+IZ"
