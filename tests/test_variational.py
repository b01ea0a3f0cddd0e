"""Shift rule, sampled gradients, QFIM, Adam training and trainability."""
import numpy as np
import pytest

from bellmagic import magic, simulator as sim, variational as var
from bellmagic.estimation import estimate_bell_magic
from bellmagic.pauli import BellSamples
from bellmagic.simulator import (
    CircuitSpec,
    Gate,
    bell_distribution,
    cross_bell_distribution,
    sample,
    simulate,
)
from bellmagic.states import t_state

from oracles import (
    exact_gradient_batched,
    grad_bell_magic_exact,
    grad_p_shift,
    gradient_estimate_unstacked,
    gradient_finite_difference,
    pack_zx,
)
from test_simulator import every_gate_circuit


def random_circuit(n, d, rng):
    return sim.hardware_efficient_ansatz(n, d, rng.uniform(0, 2 * np.pi, 2 * n * d))


def exact_gradient(circ):
    base = simulate(circ)
    return var._exact_gradient(circ, base, bell_distribution(base))


def _oracle_sampled_optimize(circuit, epochs, learning_rate, n_samples, rng):
    """The two-loop sampled Adam ascent with default hyper-parameters (reference copy)."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    k_params = circuit.n_params
    theta, m, v = circuit.params.copy(), np.zeros(k_params), np.zeros(k_params)
    history, grad_norms = [], []
    for epoch in range(1, epochs + 1):
        circ = circuit.with_params(theta)
        grad = np.empty(k_params)
        base_state = simulate(circ)
        p = bell_distribution(base_state)
        base = sample(p, 3 * n_samples, rng)
        b_hat, _ = estimate_bell_magic(base, None, rng)
        history.append(b_hat)
        for k in range(k_params):
            plus = sample(
                cross_bell_distribution(simulate(circ.shifted(k, np.pi / 2)), base_state),
                n_samples,
                rng,
            )
            minus = sample(
                cross_bell_distribution(simulate(circ.shifted(k, -np.pi / 2)), base_state),
                n_samples,
                rng,
            )
            grad[k] = var.estimate_gradient(base, plus, minus, None, rng)
        grad_norms.append(float(np.linalg.norm(grad)))
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad**2
        m_hat = m / (1 - beta1**epoch)
        v_hat = v / (1 - beta2**epoch)
        theta = theta + learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return history, theta, grad_norms


def test_shift_rule_matches_finite_differences():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        circ = random_circuit(n, 2, rng)
        batched = exact_gradient(circ)
        for k in rng.choice(circ.n_params, size=3, replace=False):
            exact = grad_bell_magic_exact(circ, int(k))
            fd = gradient_finite_difference(circ, int(k))
            assert abs(exact - fd) < 1e-6
            assert abs(batched[k] - fd) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_exact_gradient_matches_shift_rule_oracle(n):
    # every component of the hardware-efficient ansatz, and the dressed rotation
    rng = np.random.default_rng(30 + n)
    for circ in (random_circuit(n, 2, rng),
                 var.clifford_dressed_rotation(n, rng.uniform(0, 2 * np.pi), 3, rng)):
        oracle = [grad_bell_magic_exact(circ, k) for k in range(circ.n_params)]
        assert np.abs(exact_gradient(circ) - oracle).max() < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_adjoint_gradient_matches_shift_rule_oracles(n):
    # the hardware-efficient ansatz; every gate of the set (h, s, t, CNOT both
    # ways, ry, rz) on random qubits; and the latter with no rotation left
    rng = np.random.default_rng(60 + n)
    every = every_gate_circuit(n, rng)
    fixed = CircuitSpec(n, [g for g in every.gates if g.name not in ("ry", "rz")])
    for circ in (random_circuit(n, 2 if n < 8 else 1, rng), every, fixed):
        base = simulate(circ)
        p = bell_distribution(base)
        adjoint = var._exact_gradient(circ, base, p)
        assert adjoint.shape == (circ.n_params,)
        shift_rule = [grad_bell_magic_exact(circ, k) for k in range(circ.n_params)]
        assert np.abs(adjoint - shift_rule).max(initial=0.0) <= 1e-12
        assert np.abs(adjoint - exact_gradient_batched(circ, base, p)).max(initial=0.0) <= 1e-12


def test_adjoint_gradient_at_ten_qubits():
    rng = np.random.default_rng(70)
    circ = random_circuit(10, 2, rng)
    adjoint = exact_gradient(circ)
    for k in rng.choice(circ.n_params, size=3, replace=False):
        assert abs(adjoint[k] - grad_bell_magic_exact(circ, int(k))) <= 1e-12


def test_shift_rule_distribution_properties():
    rng = np.random.default_rng(1)
    circ = random_circuit(2, 2, rng)
    d = grad_p_shift(circ, 1)
    assert abs(d.sum()) < 1e-12
    # finite differences of the distribution itself
    eps = 1e-5
    p_plus = bell_distribution(simulate(circ.shifted(1, eps))).probabilities
    p_minus = bell_distribution(simulate(circ.shifted(1, -eps))).probabilities
    assert np.allclose(d, (p_plus - p_minus) / (2 * eps), atol=1e-6)
    # general shift scales give the same derivative
    for v in (0.3, 1.0, 2.0):
        assert np.allclose(grad_p_shift(circ, 1, v=v), d, atol=1e-9)


def test_gradient_zero_at_stabilizer_stationary_point():
    circ = sim.hardware_efficient_ansatz(1, 1, [0.0, 0.0])
    assert np.abs(exact_gradient(circ)).max() < 1e-12
    for k in (0, 1):
        assert abs(grad_bell_magic_exact(circ, k)) < 1e-12


def test_param_index_errors():
    circ = sim.hardware_efficient_ansatz(1, 1, [0.1, 0.2])
    for k in (2, 5, -1):
        with pytest.raises(IndexError):
            var.qfim_diagonal(circ, k)
        with pytest.raises(IndexError):
            grad_p_shift(circ, k)


def test_dressed_rotation_identities():
    rng = np.random.default_rng(2)
    for theta in (0.0, 0.4, 1.1, 2.5):
        circ = var.clifford_dressed_rotation(2, theta, 3, rng)
        b = magic.bell_magic_of_state(simulate(circ)).bell_magic
        assert b == pytest.approx(0.5 * np.sin(2 * theta) ** 2, abs=1e-9)
        assert exact_gradient(circ)[0] == pytest.approx(np.sin(4 * theta), abs=1e-9)


def test_estimate_gradient_unbiased():
    rng = np.random.default_rng(3)
    circ = random_circuit(2, 1, rng)
    k = 1
    exact = exact_gradient(circ)[k]
    base_state = simulate(circ)
    p = bell_distribution(base_state)
    plus_d = cross_bell_distribution(simulate(circ.shifted(k, np.pi / 2)), base_state)
    minus_d = cross_bell_distribution(simulate(circ.shifted(k, -np.pi / 2)), base_state)
    nq = 1000
    vals = []
    for _ in range(300):
        base = sample(p, 3 * nq, rng)
        plus = sample(plus_d, nq, rng)
        minus = sample(minus_d, nq, rng)
        vals.append(var.estimate_gradient(base, plus, minus, 5000, rng))
    se = np.std(vals) / np.sqrt(len(vals))
    assert abs(np.mean(vals) - exact) < 3 * se


def test_estimate_gradient_symmetry_and_determinism():
    rng = np.random.default_rng(4)
    circ = random_circuit(2, 1, rng)
    base_state = simulate(circ)
    p = bell_distribution(base_state)
    base = sample(p, 300, rng)
    shifted = sample(cross_bell_distribution(simulate(circ.shifted(0, np.pi / 2)), base_state), 100, rng)
    # identical plus/minus settings cancel exactly, trial by trial
    assert var.estimate_gradient(base, shifted, shifted, 1000, np.random.default_rng(5)) == 0.0
    g1 = var.estimate_gradient(base, shifted, shifted, 1000, np.random.default_rng(6))
    g2 = var.estimate_gradient(base, shifted, shifted, 1000, np.random.default_rng(6))
    assert g1 == g2


@pytest.mark.parametrize("n, n_resamples", [(1, None), (2, 7), (33, 1000), (2, 40_000)])
def test_estimate_gradient_bit_identical_to_unstacked_oracle(n, n_resamples):
    # random outcomes of every setting; the largest case takes several
    # blocks of the quadruple kernel
    rng = np.random.default_rng(n)
    base, plus, minus = (BellSamples(n, pack_zx(*rng.integers(0, 2, (2, m, n), dtype=np.uint8)))
                         for m in (30, 20, 20))
    got_rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    got = var.estimate_gradient(base, plus, minus, n_resamples, got_rng)
    ref = gradient_estimate_unstacked(base, plus, minus, n_resamples, ref_rng)
    assert got.hex() == ref.hex()
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n_resamples", [None, 5])
def test_estimate_gradient_rejects_empty_shifted_batches(n_resamples):
    base = sample(bell_distribution(t_state()), 20, np.random.default_rng(12))
    empty = BellSamples(1, np.zeros((0, 1), dtype=np.uint64))
    with pytest.raises(ValueError, match="plus/minus"):
        var.estimate_gradient(base, empty, empty, n_resamples, np.random.default_rng(13))


def test_qfim_diagonal():
    c = CircuitSpec(1, [Gate("ry", (1,))], [0.0])
    assert var.qfim_diagonal(c, 0) == pytest.approx(1.0, abs=1e-9)
    # parameter with no effect on the state
    c2 = CircuitSpec(1, [Gate("rz", (1,))], [0.3])
    assert var.qfim_diagonal(c2, 0) == pytest.approx(0.0, abs=1e-9)
    rng = np.random.default_rng(7)
    circ = random_circuit(2, 2, rng)
    for k in range(4):
        f = var.qfim_diagonal(circ, k)
        assert -1e-9 <= f <= 2 + 1e-9
    # sampled overlap agrees with the exact one
    f_exact = var.qfim_diagonal(circ, 0)
    f_sampled = var.qfim_diagonal(circ, 0, n_samples=40_000, rng=rng)
    assert abs(f_sampled - f_exact) < 0.05


def test_optimize_exact_single_qubit():
    rng = np.random.default_rng(8)
    state = var.maximize_magic(1, depth=2, epochs=250, learning_rate=0.1, rng=rng, lr_decay=0.99)
    assert state.best() > 16 / 27 - 1e-3
    assert state.epoch == 250
    assert len(state.history) == 250 and len(state.grad_norms) == 250


@pytest.mark.parametrize("n", [2, 3, 6])
def test_optimize_exact_gradient_matches_shift_rule(n):
    # at N = 6 the 2K = 48 shifted rows span three blocks of the batched transform
    circ = random_circuit(n, 2, np.random.default_rng(20 + n))
    state = var.optimize(circ, epochs=1)
    shift_rule = [grad_bell_magic_exact(circ, k) for k in range(circ.n_params)]
    assert abs(state.grad_norms[0] - np.linalg.norm(shift_rule)) < 1e-12
    # <P, h> = -4 <Q, Qhat o J> = -4 (1 - B)
    p = bell_distribution(simulate(circ))
    b = magic.bell_magic_exact(p).bell_magic
    assert abs(np.dot(p.probabilities, var._gradient_kernel(p)) + 4 * (1 - b)) < 1e-12


@pytest.mark.parametrize("seed", [12, 13])
def test_optimize_sampled_mode_bit_identical_to_oracle(seed):
    circ = random_circuit(2, 2, np.random.default_rng(seed))
    state = var.optimize(circ, epochs=5, learning_rate=0.1, n_samples=50,
                         rng=np.random.default_rng(seed))
    history, theta, grad_norms = _oracle_sampled_optimize(
        circ, 5, 0.1, 50, np.random.default_rng(seed)
    )
    assert state.history == history
    assert np.array_equal(state.theta, theta)
    assert state.grad_norms == grad_norms


@pytest.mark.parametrize("n_samples", [None, 50])
def test_optimize_parameter_free_circuit(n_samples):
    circ = CircuitSpec(2, [Gate("h", (1,)), Gate("t", (1,))])
    state = var.optimize(circ, epochs=3, n_samples=n_samples, rng=np.random.default_rng(14))
    assert state.theta.shape == (0,)
    assert state.grad_norms == [0.0, 0.0, 0.0]
    assert len(state.history) == 3
    if n_samples is None:
        b = magic.bell_magic_of_state(simulate(circ)).bell_magic
        assert state.history == [b, b, b]


@pytest.mark.parametrize("kwargs, match", [({"epochs": -3}, "epochs"),
                                           ({"epochs": 2, "lr_decay": -0.5}, "decay")])
def test_optimize_rejects_negative_epochs_and_decay(kwargs, match):
    circ = random_circuit(1, 1, np.random.default_rng(15))
    with pytest.raises(ValueError, match=match):
        var.optimize(circ, **kwargs)
    state = var.optimize(circ, epochs=0, lr_decay=0.0)
    assert state.epoch == 0 and state.history == []


def test_maximize_magic_rejects_negative_depth():
    with pytest.raises(ValueError, match="depth must be non-negative"):
        var.maximize_magic(2, depth=-1, epochs=1)


def test_optimize_sampled_mode_runs():
    rng = np.random.default_rng(9)
    theta0 = var.near_stabilizer_params(4, rng)
    circ = sim.hardware_efficient_ansatz(1, 2, theta0)
    state = var.optimize(circ, epochs=20, learning_rate=0.2, n_samples=200, rng=rng)
    assert len(state.history) == 20
    assert all(0.0 <= b <= 2.0 for b in state.history)


def test_sampled_training_sample_ordering():
    # more measurement samples close more of the gap to the maximum
    target = 1 - 2**-2.67807  # 2-qubit maximum

    def final_gap(n_samples, seed):
        rng = np.random.default_rng(seed)
        theta0 = var.near_stabilizer_params(12, rng)
        circ = sim.hardware_efficient_ansatz(2, 3, theta0)
        st = var.optimize(circ, epochs=120, learning_rate=0.1, n_samples=n_samples, rng=rng)
        b = magic.bell_magic_of_state(simulate(circ.with_params(st.theta))).bell_magic
        return target - b

    gaps = {}
    for nq in (100, 1000, None):
        gaps[nq] = np.mean([final_gap(nq, 300 + s) for s in range(3)])
    assert gaps[None] < 0.003
    assert gaps[None] < gaps[1000] < gaps[100]


def test_near_stabilizer_params():
    rng = np.random.default_rng(10)
    theta = var.near_stabilizer_params(1000, rng)
    offsets = np.abs((theta + np.pi / 4) % (np.pi / 2) - np.pi / 4)
    assert offsets.max() <= 0.05 + 1e-12


def test_trainability_variance():
    # analytic: Var over theta of sin(4 theta) is 1/2
    thetas = np.linspace(0, 2 * np.pi, 20_001)[:-1]
    assert np.var(np.sin(4 * thetas)) == pytest.approx(0.5, abs=1e-6)
    rng = np.random.default_rng(11)
    v, se = var.trainability_experiment(2, 200, rng)
    assert abs(v - 0.5) < 3 * se


@pytest.mark.parametrize("n_draws", [0, 1])
def test_trainability_experiment_needs_two_draws(n_draws):
    with pytest.raises(ValueError, match="two draws"):
        var.trainability_experiment(2, n_draws, np.random.default_rng(16))
