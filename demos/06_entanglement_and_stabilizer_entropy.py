"""Everything else the same Bell samples buy you.

One batch of two-copy Bell outcomes simultaneously estimates purity, the
Meyer-Wallach entanglement measure (per-qubit SWAP parities) and, with
explicit probability estimates, the stabilizer 2-Renyi entropy.
"""
import numpy as np

from bellmagic import estimation as est, magic, simulator as sim, states

rng = np.random.default_rng(6)

print("stabilizer 2-Renyi entropy from the Bell distribution:")
for name, state in [("|+>", states.plus_state()), ("|T>", states.t_state()),
                    ("|R>", states.r_state())]:
    m2, mlin = magic.stabilizer_renyi(sim.bell_distribution(state))
    print(f"  {name:4s}: M2 = {m2:.6f}   M_lin = {mlin:.6f}")
print(f"  M2(|T>) equals log2(4/3) = {np.log2(4 / 3):.6f}; both vanish on stabilizers")

print("\nMeyer-Wallach entanglement from per-qubit SWAP parities (N_Q = 20000):")
for name, state in [("product", states.product_state([0.9, 1.7, 0.3], [0.1, 1.2, 2.0])),
                    ("GHZ", states.ghz_state(3)),
                    ("Haar", magic.sample_haar_state(3, rng))]:
    samples = sim.sample(sim.bell_distribution(state), 20_000, rng)
    e_raw, _ = est.estimate_meyer_wallach(samples)
    print(f"  {name:8s}: exact E = {magic.meyer_wallach(state):.4f}"
          f"   sampled E = {e_raw:.4f}")

print("\nnoisy Renyi entropy with mitigated probabilities (p = 0.1):")
state = magic.sample_haar_state(2, rng)
clean = sim.bell_distribution(state)
noisy = sim.noisy_bell_distribution(clean, sim.NoiseModel(0.1))
samples = sim.sample(noisy, 100_000, rng)
p_hat = est.estimate_depolarization(est.estimate_purity(samples), 2)
emp = est.empirical_distribution(samples)
fixed = est.mitigate_probabilities(emp, p_hat, 2)
m2_true, _ = magic.stabilizer_renyi(clean)
m2_noisy = -np.log2(4 * float((emp**2).sum()))
m2_fixed = -np.log2(4 * float((fixed**2).sum()))
print(f"  exact M2 = {m2_true:.4f}   noisy estimate = {m2_noisy:.4f}"
      f"   mitigated = {m2_fixed:.4f}")

print("\nnoisy Meyer-Wallach with purity-calibrated mitigation:")
e_true = magic.meyer_wallach(state)
e_raw, e_mtg = est.estimate_meyer_wallach(samples, p_hat)
print(f"  exact E = {e_true:.4f}   raw = {e_raw:.4f}   mitigated = {e_mtg:.4f}")
