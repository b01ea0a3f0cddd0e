"""Magic measures: golden values, transform-vs-brute oracle, invariances."""
import tracemalloc

import numpy as np
import pytest

from bellmagic import magic, simulator as sim, states
from bellmagic.magic import (
    additive_magic,
    bell_magic_exact,
    bell_magic_of_state,
    fwht,
    meyer_wallach,
    mixed_bell_magic,
    product_state_magic,
    pure_state_bound,
    q_distribution,
    sample_haar_state,
    stabilizer_renyi,
    xor_convolve,
)
from bellmagic.simulator import DENSE_CAP, BellDistribution, bell_distribution
from bellmagic.variational import _gradient_kernel

from oracles import (
    apply_circuit,
    bell_amplitudes_whole,
    bell_magic_brute,
    fwht_two_buffer,
    fwht_unblocked,
    mixed_bell_distribution,
    pair_swap_permutation,
    pair_swapped_copy,
)

R_ANGLE = np.arccos(1 / np.sqrt(3))


def _tensor(a, b):
    """The product state a (x) b."""
    return sim.StateVector(a.n_qubits + b.n_qubits, np.kron(a.amplitudes, b.amplitudes))


def uniform_dist(n):
    return BellDistribution(n, np.full(4**n, 4.0**-n))


def test_fwht_matches_dense():
    rng = np.random.default_rng(0)
    for n in (2, 4, 8, 16):
        a = rng.normal(size=n)
        dense = np.array(
            [[(-1) ** int.bit_count(i & j) for j in range(n)] for i in range(n)]
        )
        assert np.allclose(fwht(a), dense @ a)
        assert np.allclose(fwht(fwht(a)) / n, a)


def stack_fwht(a):
    """The per-stage np.stack butterfly that the blocked transform replaced."""
    a = np.array(a, dtype=float)
    h, n = 1, len(a)
    while h < n:
        a = a.reshape(-1, 2, h)
        a = np.stack([a[:, 0, :] + a[:, 1, :], a[:, 0, :] - a[:, 1, :]], axis=1)
        h *= 2
    return a.reshape(-1)


def stack_bell_magic(dist):
    """bell_magic_exact as it was: four stacked transforms and an index gather."""
    fp = stack_fwht(dist.probabilities)
    q = stack_fwht(fp * fp) / len(fp)
    return 1.0 - float(np.dot(q, stack_fwht(q)[pair_swap_permutation(dist.n_qubits)]))


def test_fwht_matches_stack_butterfly():
    rng = np.random.default_rng(11)
    for m in range(17):
        a = rng.normal(size=2**m)
        old, new = stack_fwht(a), fwht(a)
        assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old)), m


def test_fwht_edge_cases():
    assert fwht(np.array([3.0])).tolist() == [3.0]
    assert fwht(np.array([1.0, 2.0])).tolist() == [3.0, -1.0]
    ints = fwht(np.array([1, 2, 3, 4]))
    assert ints.dtype == np.float64 and ints.tolist() == [10.0, -2.0, -4.0, 0.0]
    for size in (1, 2, 16, 64):
        a = np.arange(size, dtype=float)
        a.setflags(write=False)  # Bell distributions are read-only
        w = fwht(a)
        assert w.flags.writeable and not np.shares_memory(w, a)
        w[:] = -7.0
        assert a.tolist() == list(range(size))
    for bad in (np.zeros(0), np.zeros(3), np.zeros(6), np.zeros(12), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            fwht(bad)


def test_blocked_fwht_matches_whole_length_passes():
    # from 2^17 on fwht works in place on its leading bits, then on 2^16-entry
    # chunks; at 2^22 (N = 11) the leading bits are not a multiple of four past 16
    data = np.random.default_rng(12).random(2**24) - 0.5
    data.setflags(write=False)
    for m in range(25):
        a = data[: 2**m]
        assert np.array_equal(fwht(a), fwht_unblocked(a)), m


def _assert_dense_layers_match_unblocked(ns, monkeypatch):
    """Every Bell amplitude vector and fwht behind the Pauli table, the Bell
    distribution and its exact B equals the whole-array kernels' output bit
    for bit, so the layers' outputs equal the unblocked ones too."""
    calls = []

    def checked(kernel, reference):
        def call(*args):
            out = kernel(*args)
            assert np.array_equal(out, reference(*args)), (kernel.__name__, n)
            calls.append(kernel.__name__)
            return out
        return call

    monkeypatch.setattr(sim, "bell_amplitudes", checked(sim.bell_amplitudes, bell_amplitudes_whole))
    monkeypatch.setattr(magic, "fwht", checked(magic.fwht, fwht_unblocked))
    for n in ns:
        calls.clear()
        state = sample_haar_state(n, np.random.default_rng(100 + n))
        sim.pauli_expectation_table(state)  # a against conj(a)
        bell_magic_exact(bell_distribution(state))  # a against itself, then three fwht
        assert calls == ["bell_amplitudes"] * 2 + ["fwht"] * 3, n


@pytest.mark.parametrize("n", [9, 10])
def test_dense_layers_match_unblocked_kernels(n, monkeypatch):
    _assert_dense_layers_match_unblocked([n], monkeypatch)


def test_dense_layers_match_unblocked_kernels_up_to_dense_cap(monkeypatch):
    _assert_dense_layers_match_unblocked([11, DENSE_CAP], monkeypatch)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_pair_swap_transpose_matches_index_permutation():
    # the in-place swap against J as an index and the copying transpose it
    # replaced: one swap chunk up to N = 8, several from N = 9
    rng = np.random.default_rng(12)
    for n in range(1, 12):
        v = rng.normal(size=4**n)
        w = v.copy()
        magic._swap_pairs(w, n)
        assert np.array_equal(w, v[pair_swap_permutation(n)]), n
        assert np.array_equal(_bits(w), _bits(pair_swapped_copy(v, n))), n


def test_single_buffer_fwht_matches_two_buffer_passes():
    # one leading pass from 2^17, in-place batch passes from 2^21 on
    data = np.random.default_rng(20).random(2**22) - 0.5
    data.setflags(write=False)
    before = data.tobytes()
    for m in (0, 1, 4, 15, 16, 17, 18, 20, 21, 22):
        a = data[: 2**m]
        w = fwht(a)
        assert w.flags.writeable and not np.shares_memory(w, data), m
        assert np.array_equal(_bits(w), _bits(fwht_two_buffer(a))), m
    assert data.tobytes() == before


def test_exact_magic_and_gradient_kernel_match_copying_swap():
    # B and h as computed before the pair swap went in place on fwht's output
    rng = np.random.default_rng(21)
    for n in range(1, 12):
        d = bell_distribution(sample_haar_state(n, rng))
        q = q_distribution(d)
        qhat = pair_swapped_copy(fwht_two_buffer(q), n)
        b = max(1.0 - float(np.einsum("i,i->", q, qhat)), 0.0)
        assert bell_magic_exact(d).bell_magic.hex() == b.hex(), n
        if n <= 9:
            phat = fwht_two_buffer(d.probabilities)
            sq = fwht_two_buffer(pair_swapped_copy(phat * phat, n))
            h = -4.0 / len(phat) * fwht_two_buffer(phat * sq)
            assert np.array_equal(_bits(_gradient_kernel(d)), _bits(h)), n


# peak traced memory of each dense call at N = 11, in 4^11-entry float arrays
# (32 MB); the whole-array kernels they replaced held 4, 4, 3, 2, 5.26 and 4.07
DENSE_CALL_ARRAYS = {
    "bell_amplitudes": 2.1,
    "bell_distribution": 3.1,
    "bell_magic_exact": 2.15,
    "fwht": 1.05,
    "_bell_form": 4.3,
    "_gradient_kernel": 3.1,
}


@pytest.mark.parametrize("call", sorted(DENSE_CALL_ARRAYS))
def test_dense_memory_is_bounded(call):
    n = 11
    state = sample_haar_state(n, np.random.default_rng(22))
    dist = bell_distribution(state)
    h = _gradient_kernel(dist)
    run = {
        "bell_amplitudes": lambda: sim.bell_amplitudes(state, state),
        "bell_distribution": lambda: bell_distribution(state),
        "bell_magic_exact": lambda: bell_magic_exact(dist),
        "fwht": lambda: fwht(dist.probabilities),
        "_bell_form": lambda: sim._bell_form(state.amplitudes, h, n),
        "_gradient_kernel": lambda: _gradient_kernel(dist),
    }[call]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < DENSE_CALL_ARRAYS[call] * 8 * 4**n, peak / (8 * 4**n)


SMALL_GEMM_MNK = 10**6  # OpenBLAS runs a dgemm unpacked, in its small-matrix kernel, up to M N K = 10^6


def test_dense_transforms_issue_only_small_gemms(monkeypatch):
    # every Walsh-Hadamard pass goes through np.matmul in slices of at most
    # 2^15 floats, so each product stays under the packing cutoff at any N
    n = 9
    state = sample_haar_state(n, np.random.default_rng(23))
    dist = bell_distribution(state)
    h = _gradient_kernel(dist)
    big = np.random.default_rng(24).random(4**11)
    sizes = []
    matmul = np.matmul

    def recorded(x1, x2, *args, **kwargs):
        (rows, inner), cols = np.shape(x1)[-2:], np.shape(x2)[-1]
        sizes.append(rows * inner * cols)
        return matmul(x1, x2, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    calls = {
        "fwht": lambda: fwht(big),
        "bell_distribution": lambda: bell_distribution(sample_haar_state(11, np.random.default_rng(25))),
        "_gradient_kernel": lambda: _gradient_kernel(dist),
        "_bell_form": lambda: sim._bell_form(state.amplitudes, h, n),
    }
    for name, run in calls.items():
        sizes.clear()
        run()
        assert sizes and max(sizes) <= SMALL_GEMM_MNK, (name, max(sizes, default=None))


def test_bell_magic_exact_matches_stacked_transform_form():
    rng = np.random.default_rng(13)
    for n in range(1, 9):
        d = bell_distribution(sample_haar_state(n, rng))
        assert abs(bell_magic_exact(d).bell_magic - stack_bell_magic(d)) <= 1e-12, n


def test_xor_convolve_oracle():
    rng = np.random.default_rng(1)
    for size in (4, 16, 64):
        a, b = rng.random(size), rng.random(size)
        direct = np.zeros(size)
        self_direct = np.zeros(size)
        for n in range(size):
            direct[n] = sum(a[r] * b[r ^ n] for r in range(size))
            self_direct[n] = sum(a[r] * a[r ^ n] for r in range(size))
        assert np.allclose(xor_convolve(a, b), direct)
        assert np.allclose(xor_convolve(a, a), self_direct)  # reuses W(a)


def test_q_distribution_examples():
    assert np.allclose(q_distribution(uniform_dist(2)), 4.0**-2)
    d0 = bell_distribution(sim.zero_state(1))
    q = q_distribution(d0)
    assert np.allclose(q, [0.5, 0, 0.5, 0])
    assert q.sum() == pytest.approx(1.0)


def test_golden_values():
    assert bell_magic_of_state(states.t_state()).bell_magic == pytest.approx(0.5, abs=1e-12)
    rv = bell_magic_of_state(states.r_state())
    assert rv.bell_magic == pytest.approx(16 / 27, abs=1e-9)
    assert rv.additive == pytest.approx(np.log2(27 / 11), abs=1e-9)
    mixed = bell_magic_exact(uniform_dist(1))
    assert mixed.bell_magic == pytest.approx(0.75, abs=1e-12)
    assert mixed.additive == pytest.approx(2.0, abs=1e-9)


def test_stabilizer_states_have_zero_magic():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        theta = sim.clifford_plus_t_params(n, 3, 0, rng)
        state = sim.simulate(sim.hardware_efficient_ansatz(n, 3, theta))
        assert bell_magic_of_state(state).bell_magic == pytest.approx(0.0, abs=1e-12)


def test_max_magic_fixtures():
    for n, target in states.MAX_MAGIC_ADDITIVE.items():
        got = bell_magic_of_state(states.max_magic_state(n)).additive
        tol = 1e-4 if n == 2 else 1e-5
        assert got == pytest.approx(target, abs=tol)


def test_fast_equals_brute():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        psi = sample_haar_state(n, rng)
        d = bell_distribution(psi)
        assert bell_magic_exact(d).bell_magic == pytest.approx(
            bell_magic_brute(d).bell_magic, abs=1e-9
        )
    # also on unstructured normalized vectors
    for n in (1, 2):
        p = rng.random(4**n)
        p = p / p.sum()
        d = BellDistribution(n, p)
        assert bell_magic_exact(d).bell_magic == pytest.approx(
            bell_magic_brute(d).bell_magic, abs=1e-9
        )


def test_additive_overflow_sentinel():
    assert additive_magic(0.5) == pytest.approx(1.0)
    assert not np.signbit(additive_magic(0.0))  # prints as 0.0, not -0.0
    assert additive_magic(1.0) == np.inf
    assert additive_magic(1.5) == np.inf
    assert additive_magic(1.0 - 1e-16) == np.inf


def test_mixed_bell_magic():
    b = 0.37
    bm, bam = mixed_bell_magic(b, 1.0)
    assert bm == pytest.approx(b) and bam == pytest.approx(additive_magic(b))
    for n in (1, 2, 3, 4):
        bm, bam = mixed_bell_magic(1 - 4.0**-n, 2.0**-n)
        assert bm == pytest.approx(0.0, abs=1e-12)
        assert bam == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        mixed_bell_magic(0.5, 0.0)


def _dense_unitary(circuit):
    dim = 2**circuit.n_qubits
    cols = []
    for k in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[k] = 1.0
        cols.append(apply_circuit(circuit, sim.StateVector(circuit.n_qubits, amps)).amplitudes)
    return np.array(cols).T


def test_mixed_magic_of_dressed_stabilizer_mixtures():
    # |psi_STAB><psi_STAB| (x) I/2^K under random Cliffords stays at zero
    from bellmagic.stabilizer import random_clifford

    rng = np.random.default_rng(4)
    for n, k in ((2, 1), (3, 2), (4, 2)):
        theta = sim.clifford_plus_t_params(n - k, 2, 0, rng)
        pure = sim.simulate(sim.hardware_efficient_ansatz(n - k, 2, theta))
        rho = np.kron(
            np.outer(pure.amplitudes, pure.amplitudes.conj()), np.eye(2**k) / 2**k
        )
        _, circ = random_clifford(n, 3, rng)
        u = _dense_unitary(circ)
        rho = u @ rho @ u.conj().T
        dist = mixed_bell_distribution(rho)
        purity = float(np.trace(rho @ rho).real)
        bm, _ = mixed_bell_magic(bell_magic_exact(dist).bell_magic, purity)
        assert bm == pytest.approx(0.0, abs=1e-9)


def test_product_state_magic():
    n = 3
    assert product_state_magic([np.pi / 2] * n, [np.pi / 4] * n) == pytest.approx(n, abs=1e-9)
    assert product_state_magic([R_ANGLE] * n, [np.pi / 4] * n) == pytest.approx(
        n * np.log2(27 / 11), abs=1e-9
    )
    assert product_state_magic([0.0, 0.0], [0.3, 0.9]) == pytest.approx(0.0, abs=1e-12)


def test_product_closed_form_matches_distribution_route():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        thetas = rng.uniform(0, np.pi, n)
        phis = rng.uniform(0, 2 * np.pi, n)
        direct = bell_magic_of_state(states.product_state(thetas, phis)).additive
        assert product_state_magic(thetas, phis) == pytest.approx(direct, abs=1e-9)


def test_pure_state_bound():
    assert pure_state_bound(1) == pytest.approx(16 / 27, abs=1e-12)
    hoggar = bell_magic_of_state(states.max_magic_state(3)).bell_magic
    assert pure_state_bound(3) == pytest.approx(hoggar, abs=1e-6)
    values = [pure_state_bound(n) for n in range(1, 21)]
    assert all(v < 1 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))
    # the integer form overflows a float from N = 512 on; the powers-of-two form must not
    for n in range(1, 201):
        exact = 4**n * (1 + 2.0**-n - 2 * 4.0**-n) ** 2 / ((4**n - 1) * (1 + 2.0**-n) ** 2)
        assert pure_state_bound(n) == exact
    for n in (512, 600, 1500):
        assert np.isfinite(pure_state_bound(n)) and pure_state_bound(n) <= 1


def test_bound_holds_on_random_pure_states():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        b = bell_magic_of_state(sample_haar_state(n, rng)).bell_magic
        assert 0.0 <= b <= pure_state_bound(n) + 1e-12


def test_small_angle_expansion():
    for phi in (0.01, 0.03, 0.05):
        b = bell_magic_of_state(states.product_state([phi], [0.0])).bell_magic
        assert abs(b - 2 * phi**2) <= 10 * phi**4


def test_clifford_invariance():
    from bellmagic.stabilizer import random_clifford

    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        psi = sample_haar_state(n, rng)
        _, circ = random_clifford(n, 3, rng)
        before = bell_magic_of_state(psi).bell_magic
        after = bell_magic_of_state(apply_circuit(circ, psi)).bell_magic
        assert abs(before - after) < 1e-9


def test_additivity_and_composition():
    rng = np.random.default_rng(8)
    for _ in range(20):
        na, nb = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        a, b = sample_haar_state(na, rng), sample_haar_state(nb, rng)
        combined = bell_magic_of_state(_tensor(a, b)).additive
        assert combined == pytest.approx(
            bell_magic_of_state(a).additive + bell_magic_of_state(b).additive, abs=1e-9
        )
    theta = sim.clifford_plus_t_params(2, 2, 0, rng)
    stab = sim.simulate(sim.hardware_efficient_ansatz(2, 2, theta))
    for _ in range(10):
        psi = sample_haar_state(2, rng)
        assert bell_magic_of_state(_tensor(psi, stab)).bell_magic == pytest.approx(
            bell_magic_of_state(psi).bell_magic, abs=1e-9
        )


def test_stabilizer_renyi():
    rng = np.random.default_rng(9)
    theta = sim.clifford_plus_t_params(2, 2, 0, rng)
    stab = sim.simulate(sim.hardware_efficient_ansatz(2, 2, theta))
    m2, mlin = stabilizer_renyi(bell_distribution(stab))
    assert m2 == pytest.approx(0.0, abs=1e-9) and mlin == pytest.approx(0.0, abs=1e-9)
    m2, mlin = stabilizer_renyi(bell_distribution(states.t_state()))
    assert m2 == pytest.approx(np.log2(4 / 3), abs=1e-9)
    assert mlin == pytest.approx(0.25, abs=1e-9)


def test_renyi_range_and_identity():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        psi = sample_haar_state(n, rng)
        d = bell_distribution(psi)
        _, mlin = stabilizer_renyi(d)
        assert -1e-9 <= mlin <= 1 - 2.0**-n + 1e-9
        # M_lin equals 1 - 2^-N sum_r <sigma_r>^4
        table = sim.pauli_expectation_table(psi)
        assert mlin == pytest.approx(1 - 2.0**-n * float((table**4).sum()), abs=1e-9)


def test_meyer_wallach():
    assert meyer_wallach(states.product_state([0.3, 1.1], [0.2, 0.7])) == pytest.approx(
        0.0, abs=1e-9
    )
    assert meyer_wallach(states.ghz_state(3)) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        meyer_wallach(states.t_state())


def test_haar_meyer_wallach_average():
    rng = np.random.default_rng(11)
    n, draws = 4, 300
    vals = [meyer_wallach(sample_haar_state(n, rng)) for _ in range(draws)]
    se = np.std(vals) / np.sqrt(draws)
    assert abs(np.mean(vals) - magic.haar_average_meyer_wallach(n)) < 3 * se
    assert magic.haar_average_meyer_wallach(4) == pytest.approx(14 / 17)


def test_haar_state_norm_and_level():
    rng = np.random.default_rng(12)
    psi = sample_haar_state(3, rng)
    assert np.vdot(psi.amplitudes, psi.amplitudes).real == pytest.approx(1.0)
    # two independent estimates of the Haar-average additive magic agree
    means = []
    for seed in (13, 14):
        r = np.random.default_rng(seed)
        vals = [bell_magic_of_state(sample_haar_state(3, r)).additive for _ in range(150)]
        means.append((np.mean(vals), np.std(vals) / np.sqrt(len(vals))))
    (m1, s1), (m2, s2) = means
    assert abs(m1 - m2) < 3 * np.hypot(s1, s2)
