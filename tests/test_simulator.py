"""Statevector engine and Bell-distribution kernels against independent constructions."""
import numpy as np
import pytest
from scipy import stats

from bellmagic import magic, simulator as sim, states
from bellmagic.pauli import PauliString
from bellmagic.simulator import (
    BellDistribution,
    CircuitSpec,
    Gate,
    NoiseModel,
    StateVector,
    bell_distribution,
    conjugate,
    cross_bell_distribution,
    noisy_bell_distribution,
    sample,
    simulate,
    zero_state,
)
from bellmagic.variational import _gradient_kernel

from oracles import (
    _BLOCK_ENTRIES,
    _cross_bell_dots,
    apply_circuit,
    bell_amplitudes_whole,
    bell_form_whole,
    bell_transform_rows,
    from_letters,
    magic_input_circuit_gatewise,
    mixed_bell_distribution,
    pauli_expectation,
    shifted_rows,
    simulate_rows_per_row,
    wht_one_gemm,
)

CHI2_5SIGMA = stats.norm.sf(5.0)  # one-sided 5-sigma tail probability


def idx(letters: str) -> int:
    return from_letters(letters).bits


def test_basic_gates():
    c = CircuitSpec(1, [Gate("h", (1,))])
    assert np.allclose(simulate(c).amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    c = CircuitSpec(1, [Gate("h", (1,)), Gate("t", (1,))])
    assert np.allclose(simulate(c).amplitudes, states.t_state().amplitudes)
    c = CircuitSpec(2, [Gate("h", (1,)), Gate("cnot", (1, 2))])
    assert np.allclose(simulate(c).amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


@pytest.mark.filterwarnings("error")
def test_nan_rejected():
    with pytest.raises(ValueError):
        BellDistribution(1, [np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        BellDistribution(1, [np.nan, 1.0, 0.0, 0.0])
    # a NaN angle reaches the norm check, which reports a numerical failure
    with pytest.raises(FloatingPointError):
        simulate(CircuitSpec(1, [Gate("ry", (1,))], [np.nan]))


def test_gate_errors():
    with pytest.raises(ValueError):
        CircuitSpec(1, [Gate("h", (2,))])
    # one angle per rotation: too many and too few are both rejected
    with pytest.raises(ValueError):
        CircuitSpec(2, [Gate("ry", (1,))], np.zeros(2))
    with pytest.raises(ValueError):
        CircuitSpec(2, [Gate("ry", (1,)), Gate("rz", (2,))], np.zeros(1))
    with pytest.raises(ValueError):
        CircuitSpec(1, [Gate("bogus", (1,))])
    # wrong qubit counts and a repeated qubit, which used to pass or fail inside simulate
    for gate in (Gate("h", (1, 2)), Gate("cnot", (1, 1)), Gate("h", ()), Gate("cnot", (1,))):
        with pytest.raises(ValueError, match="distinct qubits"):
            CircuitSpec(2, [gate])


@pytest.mark.parametrize("k", [1, 2, 7])
def test_shared_rotation_takes_one_parameter_per_use(k):
    # gates are checked once per object, but every use of a rotation is counted
    ry, h = Gate("ry", (1,)), Gate("h", (1,))
    gates = [ry, h] * k
    assert CircuitSpec(1, gates, np.zeros(k)).n_params == k
    for wrong in (k - 1, k + 1):
        with pytest.raises(ValueError, match="parameter count"):
            CircuitSpec(1, gates, np.zeros(wrong))


@pytest.mark.parametrize("gate, message", [
    (Gate("bogus", (1,)), "unknown gate 'bogus'"),
    (Gate("cnot", (2, 2)), r"gate 'cnot' needs 2 distinct qubits, got \(2, 2\)"),
    (Gate("h", (3,)), "qubit index 3 out of range"),
])
def test_repeated_invalid_gate_is_rejected_with_its_message(gate, message):
    gates = [Gate("h", (1,))] + [gate] * 10_000
    with pytest.raises(ValueError, match=f"^{message}$"):
        CircuitSpec(2, gates)


def test_shifted_parameter_range():
    c = CircuitSpec(1, [Gate("ry", (1,)), Gate("h", (1,)), Gate("rz", (1,))], [0.1, 0.2])
    assert np.array_equal(c.shifted(1, 0.5).params, [0.1, 0.7])
    for k in (-1, 2):
        with pytest.raises(IndexError):
            c.shifted(k, 0.5)


def test_conjugate():
    assert np.allclose(conjugate(states.plus_state()).amplitudes, states.plus_state().amplitudes)
    t = conjugate(states.t_state())
    assert np.allclose(t.amplitudes, [1 / np.sqrt(2), np.exp(1j * np.pi / 4) / np.sqrt(2)])
    s = magic.sample_haar_state(3, np.random.default_rng(1))
    assert np.allclose(conjugate(conjugate(s)).amplitudes, s.amplitudes)


def test_pauli_expectation_examples():
    assert pauli_expectation(zero_state(1), from_letters("Z")) == pytest.approx(1)
    assert pauli_expectation(zero_state(1), from_letters("X")) == pytest.approx(0)
    assert pauli_expectation(states.t_state(), from_letters("X")) == pytest.approx(
        1 / np.sqrt(2)
    )


def test_pauli_expectation_dense_oracle():
    mats = {0: np.eye(2), 1: np.array([[0, 1], [1, 0]]), 2: np.diag([1, -1]),
            3: np.array([[0, -1j], [1j, 0]])}
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        psi = magic.sample_haar_state(n, rng)
        p = PauliString(n, int(rng.integers(0, 4**n)))
        m = np.eye(1)
        for q in range(1, n + 1):
            m = np.kron(m, mats[p.digit(q)])
        expect = np.vdot(psi.amplitudes, m @ psi.amplitudes).real
        assert pauli_expectation(psi, p) == pytest.approx(expect, abs=1e-9)


def test_bell_distribution_fixtures():
    d = bell_distribution(zero_state(1))
    assert d.probabilities[idx("I")] == pytest.approx(0.5)
    assert d.probabilities[idx("Z")] == pytest.approx(0.5)
    assert d.probabilities[idx("X")] == 0 and d.probabilities[idx("Y")] == 0
    d = bell_distribution(states.plus_state())
    assert d.probabilities[idx("I")] == pytest.approx(0.5)
    assert d.probabilities[idx("X")] == pytest.approx(0.5)


def test_stabilizer_distribution_support():
    # stabilizer states have exactly 2^N outcomes, each at 2^-N
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        theta = sim.clifford_plus_t_params(n, 3, 0, rng)
        state = simulate(sim.hardware_efficient_ansatz(n, 3, theta))
        p = bell_distribution(state).probabilities
        nz = p[p > 1e-12]
        assert len(nz) == 2**n
        assert np.allclose(nz, 2.0**-n)


def test_pure_state_invariants():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        psi = magic.sample_haar_state(n, rng)
        p = bell_distribution(psi).probabilities
        assert p.max() <= 2.0**-n + 1e-12
        nonzero = int((p > 1e-12).sum())
        assert 2**n <= nonzero <= 4**n
        # purity-1 constraint: odd AND-parity outcomes carry no probability
        odd = np.array([PauliString(n, r).to_letters().count("Y") % 2 for r in range(4**n)],
                       dtype=bool)
        assert p[odd].sum() < 1e-9


def test_cross_distribution():
    rng = np.random.default_rng(5)
    psi = magic.sample_haar_state(2, rng)
    assert np.allclose(
        cross_bell_distribution(psi, psi).probabilities, bell_distribution(psi).probabilities
    )
    d = cross_bell_distribution(zero_state(1), StateVector(1, [0, 1]))
    assert d.probabilities[idx("X")] == pytest.approx(0.5)
    assert d.probabilities[idx("Y")] == pytest.approx(0.5)
    assert d.probabilities.sum() == pytest.approx(1.0)


def every_gate_circuit(n, rng):
    """A shuffled random circuit with an Ry and an Rz on every qubit plus H, S, T and CNOTs."""
    ops = [("ry", q) for q in range(1, n + 1)] + [("rz", q) for q in range(1, n + 1)]
    ops += [(name, int(rng.integers(1, n + 1))) for name in ("h", "s", "t") for _ in range(n)]
    if n > 1:
        ops += [("cnot", int(q)) for q in rng.integers(0, n, size=n)]
    gates, params = [], []
    for i in rng.permutation(len(ops)):
        name, q = ops[i]
        if name == "cnot":
            c, t = rng.choice(n, size=2, replace=False) + 1
            gates.append(Gate("cnot", (int(c), int(t))))
        else:
            gates.append(Gate(name, (q,)))
            if name in ("ry", "rz"):
                params.append(float(rng.uniform(0, 2 * np.pi)))
    return CircuitSpec(n, gates, params)


def last_qubit_circuit(n, rng):
    """Ry and Rz rotations all on qubit N between H, S, T and CNOTs over every qubit."""
    gates = [Gate("h", (q,)) for q in range(1, n + 1)]
    for _ in range(3):
        gates += [Gate("ry", (n,)), Gate("t", (1,)), Gate("rz", (n,)), Gate("s", (n,))]
        gates += [Gate("cnot", (q, q + 1)) for q in range(1, n)]
    return CircuitSpec(n, gates, rng.uniform(0, 2 * np.pi, size=6))


def check_shift_directions(circ):
    """(psi -+ i phi_k)/sqrt(2) from one walk against the oracle rows and per-circuit runs."""
    n, k_params = circ.n_qubits, circ.n_params
    rows = sim._simulate_rows(circ, directions=True)
    assert rows.shape == (k_params + 1, 2**n)
    psi, phis = rows[0], rows[1:]
    assert np.array_equal(psi, simulate(circ).amplitudes)
    shifted = np.empty((2 * k_params, 2**n), dtype=complex)
    shifted[0::2] = (psi - 1j * phis) / np.sqrt(2)
    shifted[1::2] = (psi + 1j * phis) / np.sqrt(2)
    oracle = simulate_rows_per_row(circ, shifted_rows(circ.params, np.pi / 2))
    assert oracle.shape == shifted.shape
    assert np.max(np.abs(shifted - oracle), initial=0.0) <= 1e-12
    per_circuit = [simulate(circ.shifted(k, sign * np.pi / 2)).amplitudes
                   for k in range(k_params) for sign in (1, -1)]
    assert np.max(np.abs(shifted - np.reshape(per_circuit, shifted.shape)), initial=0.0) <= 1e-12
    return shifted


@pytest.mark.parametrize("n", range(1, 7))
def test_batched_rows_match_per_circuit(n):
    # 2K = 4N shifted rows: at N = 6 they fill two blocks of the oracle's _cross_bell_dots
    rng = np.random.default_rng(40 + n)
    circ = every_gate_circuit(n, rng)
    k_params = circ.n_params
    base = simulate(circ)
    reference = apply_circuit(circ, zero_state(n)).amplitudes
    assert np.max(np.abs(base.amplitudes - reference)) <= 1e-12
    rows = check_shift_directions(circ)
    check_shift_directions(last_qubit_circuit(n, rng))
    check_shift_directions(CircuitSpec(n, [Gate("h", (1,)), Gate("t", (n,))]))
    dists = [cross_bell_distribution(StateVector(n, row), base).probabilities for row in rows]
    h = rng.normal(size=4**n)
    dots = _cross_bell_dots(rows, base, h)
    assert np.max(np.abs(dots - np.array(dists) @ h)) <= 1e-12
    assert n < 6 or 2 * k_params > _BLOCK_ENTRIES // 4**n


def pair_kernel_bell_amplitudes(a, b):
    """The outer-product / 4x4 pair-kernel construction that bell_amplitudes replaced."""
    kernel = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1j, -1j, 0]]) / np.sqrt(2)
    n = a.n_qubits
    t = np.outer(a.amplitudes, b.amplitudes).reshape((2,) * (2 * n))
    t = t.transpose([ax for q in range(n) for ax in (q, n + q)]).reshape(-1)
    for k in range(n):
        t = np.matmul(kernel, t.reshape(4**k, 4, -1)).reshape(-1)
    return t


def explicit_bell_basis(n):
    """Rows <Bell_r| over the pairwise-interleaved (A1 B1 A2 B2 ...) two-copy basis.

    Per pair |Bell_d> = (sigma_d (x) I)|Phi+>, sigma indexed by the digit
    2z + x (I, X, Z, Y); qubit 1's pair is the most significant.
    """
    sigmas = [np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1, -1]),
              np.array([[0, -1j], [1j, 0]])]
    phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
    pair = np.array([np.kron(s, np.eye(2)) @ phi_plus for s in sigmas])
    basis = np.ones((1, 1))
    for _ in range(n):
        basis = np.kron(basis, pair)
    return basis.conj()


def test_bell_amplitudes_match_explicit_bell_basis():
    # pins the outcome order and the (-i)^{#Y} phases, which probabilities never see
    rng = np.random.default_rng(14)
    for n in (1, 2, 3):
        a, b = magic.sample_haar_state(n, rng), magic.sample_haar_state(n, rng)
        rows = explicit_bell_basis(n)
        for x, y in ((a, b), (a, a), (b, a)):
            t = np.outer(x.amplitudes, y.amplitudes).reshape((2,) * (2 * n))
            psi = t.transpose([ax for q in range(n) for ax in (q, n + q)]).reshape(-1)
            assert np.max(np.abs(sim.bell_amplitudes(x, y) - rows @ psi)) <= 1e-12, n


def xor_table(n):
    """table[j, x] = j XOR x, the table the Bell transform once kept cached per N."""
    j = np.arange(2**n, dtype=np.uint16)
    return j[:, None] ^ j[None, :]


def test_bell_transform_matches_cached_table_gather():
    rng = np.random.default_rng(16)
    for n in range(1, 9):
        b = magic.sample_haar_state(n, rng).amplitudes
        for r in (1, 3):
            rows = np.array([magic.sample_haar_state(n, rng).amplitudes for _ in range(r)])
            g = np.take(np.ascontiguousarray(rows.T), xor_table(n), axis=0)
            g *= b[:, None, None]
            gf = g.view(float).reshape(-1)
            ref = sim._wht(gf, n, scratch=gf)
            assert np.array_equal(bell_transform_rows(rows, b, n), ref), (n, r)


def test_sliced_wht_matches_one_gemm_per_pass():
    # one GEMM per pass up to 2^15 entries, row slices of 2^15 floats above;
    # the Bell blocks and `_bell_form` transform fewer bits than the array holds
    data = np.random.default_rng(30).random(2**22) - 0.5
    data.setflags(write=False)
    for m in range(23):
        for nbits in sorted({m, max(m - 1, 0), (m + 1) // 2}):
            v = data[: 2**m]
            assert np.array_equal(sim._wht(v, nbits).view(np.uint64),
                                  wht_one_gemm(v, nbits).view(np.uint64)), (m, nbits)
            w, w_ref = v.copy(), v.copy()
            got, ref = sim._wht(w, nbits, scratch=w), wht_one_gemm(w_ref, nbits, scratch=w_ref)
            assert (got is w) == (ref is w_ref), (m, nbits)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), (m, nbits)


def test_blocked_bell_transform_matches_unblocked_rows():
    # one block holds every x up to N = 7, N = 8 is the first split; the
    # dense-layer tests in test_magic.py take N = 9..12 through the same kernel
    rng = np.random.default_rng(17)
    for n in range(1, 11):
        a, b = (magic.sample_haar_state(n, rng).amplitudes for _ in range(2))
        for x, y in ((a, a), (a, b), (b, a)):
            ref = bell_transform_rows(x[None], y, n)
            assert np.array_equal(np.concatenate(list(sim._bell_blocks(x, y, n))), ref), n


def test_blocked_bell_amplitudes_match_whole_transform_copy():
    # one Bell block up to N = 7, several from N = 8: each block is copied into
    # its interleaved place, and the squares go through 2^16-entry blocks
    rng = np.random.default_rng(18)
    for n in range(1, 12):
        a, b = magic.sample_haar_state(n, rng), magic.sample_haar_state(n, rng)
        for x, y in ((a, b), (a, a)):
            ref = bell_amplitudes_whole(x, y)
            assert np.array_equal(sim.bell_amplitudes(x, y).view(np.uint64), ref.view(np.uint64)), n
            probs = np.square(ref.real)
            probs += np.square(ref.imag)
            got = sim.cross_bell_distribution(x, y).probabilities
            assert np.array_equal(got.view(np.uint64), probs.view(np.uint64)), n


def test_blocked_bell_form_matches_whole_transform():
    # each block weighted through `_block_views` and moved into (z, x) order,
    # against h permuted and the transform transposed whole: one block up to
    # N = 7, several from N = 8
    rng = np.random.default_rng(19)
    for n in range(1, 12):
        state = magic.sample_haar_state(n, rng)
        psi = state.amplitudes
        for h in (_gradient_kernel(bell_distribution(state)), rng.standard_normal(4**n)):
            got, ref = sim._bell_form(psi, h, n), bell_form_whole(psi, h, n)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), n


def test_bell_amplitudes_match_pair_kernel_construction():
    rng = np.random.default_rng(15)
    for n in range(1, 9):
        a, b = magic.sample_haar_state(n, rng), magic.sample_haar_state(n, rng)
        for x, y in ((a, b), (a, a)):
            old = pair_kernel_bell_amplitudes(x, y)
            assert np.max(np.abs(sim.bell_amplitudes(x, y) - old)) <= 1e-12, n


def test_cross_validated_against_projector_construction():
    # fast kernel path vs the explicit two-qubit projector build, N <= 3
    rng = np.random.default_rng(6)
    for n in (1, 2, 3):
        psi = magic.sample_haar_state(n, rng)
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        slow = mixed_bell_distribution(rho).probabilities
        fast = bell_distribution(psi).probabilities
        assert np.allclose(slow, fast, atol=1e-9)


def test_conjugate_free_moment_identity():
    # sum_r <s_r>^2 <s_{r+n}>^2 equals the same sum built from |<psi|s_r|psi*>|^2
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        psi = magic.sample_haar_state(n, rng)
        table_sq = sim.pauli_expectation_table(psi) ** 2
        pconj_sq = 2**n * bell_distribution(psi).probabilities  # |<psi|s_r|psi*>|^2
        shift = int(rng.integers(0, 4**n))
        perm = np.arange(4**n) ^ shift
        lhs = float(np.dot(table_sq, table_sq[perm]))
        rhs = float(np.dot(pconj_sq, pconj_sq[perm]))
        assert abs(lhs - rhs) < 1e-9


def test_noisy_distribution():
    d = bell_distribution(states.t_state())
    assert noisy_bell_distribution(d, NoiseModel(0.0)) is d
    u = noisy_bell_distribution(d, NoiseModel(1.0)).probabilities
    assert np.allclose(u, 0.25)
    rng = np.random.default_rng(8)
    theta = sim.clifford_plus_t_params(3, 3, 0, rng)
    stab = simulate(sim.hardware_efficient_ansatz(3, 3, theta))
    noisy = noisy_bell_distribution(bell_distribution(stab), NoiseModel(0.1)).probabilities
    supported = noisy[bell_distribution(stab).probabilities > 1e-12]
    assert np.allclose(supported, 0.9**2 / 8 + 0.19 / 64)
    assert supported[0] == pytest.approx(0.104219, abs=1e-6)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(1.5)


def test_sampling_determinism_and_point_mass():
    point = BellDistribution(1, np.array([0.5, 0.0, 0.5, 0.0]))
    a = sample(point, 100, np.random.default_rng(9)).indices()
    b = sample(point, 100, np.random.default_rng(9)).indices()
    assert np.array_equal(a, b)
    # all mass on the all-zero outcome draws only that outcome
    all_zero = BellDistribution(1, np.array([1.0, 0.0, 0.0, 0.0]))
    s = sample(all_zero, 50, np.random.default_rng(10))
    assert np.all(s.indices() == 0)


def test_sampling_chi2_goodness_of_fit():
    d = bell_distribution(zero_state(2))
    rng = np.random.default_rng(11)
    counts = np.bincount(sample(d, 100_000, rng).indices(), minlength=16)
    mask = d.probabilities > 1e-12
    expected = d.probabilities[mask] * 100_000
    chi2 = float(((counts[mask] - expected) ** 2 / expected).sum())
    assert counts[~mask].sum() == 0
    assert chi2 < stats.chi2.isf(CHI2_5SIGMA, df=mask.sum() - 1)


def test_mixed_bell_distribution():
    for n in (1, 2):
        rho_m = np.eye(2**n) / 2**n
        assert np.allclose(mixed_bell_distribution(rho_m).probabilities, 4.0**-n)
    rng = np.random.default_rng(12)
    psi = magic.sample_haar_state(2, rng)
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    assert np.allclose(
        mixed_bell_distribution(rho).probabilities, bell_distribution(psi).probabilities
    )
    # depolarized pure state: density-matrix route equals distribution-level route
    p = 0.2
    rho_dp = (1 - p) * rho + p * np.eye(4) / 4
    assert np.allclose(
        mixed_bell_distribution(rho_dp).probabilities,
        noisy_bell_distribution(bell_distribution(psi), NoiseModel(p)).probabilities,
        atol=1e-9,
    )


def test_mixed_bell_distribution_validation():
    with pytest.raises(ValueError):
        mixed_bell_distribution(np.eye(4))  # trace 4
    bad = np.diag([1.5, -0.5])
    with pytest.raises(ValueError):
        mixed_bell_distribution(bad)
    with pytest.raises(ValueError):
        mixed_bell_distribution(np.eye(2**6) / 2**6)  # over the cap


def test_ansatz_examples():
    state = simulate(sim.hardware_efficient_ansatz(1, 1, [np.pi / 2, np.pi / 4]))
    assert magic.bell_magic_of_state(state).additive == pytest.approx(1.0, abs=1e-9)
    c = sim.hardware_efficient_ansatz(2, 0, [])
    assert np.allclose(simulate(c).amplitudes, zero_state(2).amplitudes)
    rng = np.random.default_rng(14)
    theta = (np.pi / 2) * rng.integers(0, 4, size=12)
    state = simulate(sim.hardware_efficient_ansatz(3, 2, theta))
    assert magic.bell_magic_of_state(state).bell_magic == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        sim.hardware_efficient_ansatz(2, 1, [0.1])


def test_clifford_plus_t_params():
    rng = np.random.default_rng(15)
    theta = sim.clifford_plus_t_params(2, 3, 0, rng)
    state = simulate(sim.hardware_efficient_ansatz(2, 3, theta))
    assert magic.bell_magic_of_state(state).bell_magic == pytest.approx(0.0, abs=1e-12)
    theta = sim.clifford_plus_t_params(2, 3, 1, rng)
    state = simulate(sim.hardware_efficient_ansatz(2, 3, theta))
    assert magic.bell_magic_of_state(state).additive == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        sim.clifford_plus_t_params(2, 1, 5, rng)


def test_clifford_t_many_tgates_approach_haar():
    # with many shifted positions the ensemble magic reaches the Haar level
    rng = np.random.default_rng(17)
    n, d = 3, 6
    k = 2 * n * d
    levels = {}
    for nt in (0, 1, 4, k // 2):
        vals = [
            magic.bell_magic_of_state(
                simulate(sim.hardware_efficient_ansatz(n, d, sim.clifford_plus_t_params(n, d, nt, rng)))
            ).additive
            for _ in range(60)
        ]
        levels[nt] = (float(np.mean(vals)), float(np.std(vals) / np.sqrt(len(vals))))
    haar = [magic.bell_magic_of_state(magic.sample_haar_state(n, rng)).additive for _ in range(300)]
    haar_mean = float(np.mean(haar))
    haar_se = float(np.std(haar) / np.sqrt(len(haar)))
    assert abs(levels[0][0]) < 1e-9
    assert levels[0][0] < levels[1][0] < levels[4][0] < levels[k // 2][0]
    mean, se = levels[k // 2]
    assert abs(mean - haar_mean) < 3 * np.hypot(se, haar_se)


def test_magic_input_circuit():
    rng = np.random.default_rng(16)
    for k in (1, 2):
        state = simulate(sim.magic_input_circuit(3, k, np.pi / 4, 2, rng))
        assert magic.bell_magic_of_state(state).additive == pytest.approx(k, abs=1e-9)
    state = simulate(sim.magic_input_circuit(3, 2, 0.0, 2, rng))
    assert magic.bell_magic_of_state(state).bell_magic == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        sim.magic_input_circuit(2, 3, 0.1, 1, rng)


@pytest.mark.parametrize("shape", [(1, 0, 1), (1, 1, 0), (3, 2, 4), (8, 1, 4), (5, 5, 2), (4, 0, 0)])
def test_magic_input_circuit_matches_gatewise_oracle(shape):
    n, n_magic, depth = shape
    for seed in range(60):
        phi = 0.1 + seed / 7
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        circ = sim.magic_input_circuit(n, n_magic, phi, depth, rng)
        ref = magic_input_circuit_gatewise(n, n_magic, phi, depth, ref_rng)
        assert circ.gates == ref.gates
        assert circ.params.tobytes() == ref.params.tobytes()
        assert rng.random() == ref_rng.random()


def test_negative_depth_rejected_before_drawing():
    calls = [
        lambda rng: sim.magic_input_circuit(3, 1, 0.3, -1, rng),
        lambda rng: sim.clifford_plus_t_params(2, -1, 0, rng),
        lambda rng: sim.hardware_efficient_ansatz(2, -1, []),
    ]
    for call in calls:
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="depth"):
            call(rng)
        assert rng.random() == np.random.default_rng(5).random()


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        bell_distribution(zero_state(13))
